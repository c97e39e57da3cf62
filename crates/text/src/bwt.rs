//! Generalized Burrows–Wheeler transform of a text collection.
//!
//! Following Section 3.2 of the paper, the collection `T` is the
//! concatenation of all texts, each terminated by `$`.  The end-markers are
//! given a fixed ordering — the terminator of the `i`-th text must appear at
//! `F[i]` — which we obtain by encoding each `$` as a *distinct* integer
//! symbol smaller than every character and ordered by text identifier, and
//! then building an ordinary suffix array over the integer sequence.

use crate::suffix::suffix_array;

/// Output of the collection BWT construction.
#[derive(Debug, Clone)]
pub struct CollectionBwt {
    /// The BWT of the concatenation, with every end-marker rendered as byte 0.
    pub bwt: Vec<u8>,
    /// Suffix array of the concatenation (text `i` followed by its
    /// terminator, in text order).
    pub sa: Vec<usize>,
    /// `doc[j]` is the identifier of the text whose first symbol starts the
    /// row of the `j`-th `$` in the BWT (the paper's `Doc` array).
    pub doc: Vec<u32>,
}

/// Number of texts is limited to `u32` identifiers.
pub const MAX_TEXTS: usize = u32::MAX as usize;

/// Builds the collection BWT.  Texts must not contain the byte `0`, which is
/// reserved for the end-markers.
///
/// # Panics
/// Panics if a text contains a zero byte or if there are more than
/// [`MAX_TEXTS`] texts.
pub fn build_collection_bwt<S: AsRef<[u8]>>(texts: &[S]) -> CollectionBwt {
    let d = texts.len();
    assert!(d <= MAX_TEXTS, "too many texts");
    let total: usize = texts.iter().map(|t| t.as_ref().len() + 1).sum();
    let mut seq: Vec<u32> = Vec::with_capacity(total);
    let mut starts = Vec::with_capacity(d);
    // Symbol encoding: terminator of text i => i, byte b (1..=255) => d + b - 1.
    let d32 = d as u32;
    for (i, t) in texts.iter().enumerate() {
        starts.push(seq.len());
        for (off, &b) in t.as_ref().iter().enumerate() {
            assert!(b != 0, "text {i} contains a zero byte at offset {off}; byte 0 is reserved for the terminator");
            seq.push(d32 + b as u32 - 1);
        }
        seq.push(i as u32);
    }
    let sa = suffix_array(&seq);
    let mut bwt = Vec::with_capacity(total);
    let mut doc = Vec::new();
    for &p in &sa {
        let prev = if p == 0 { total - 1 } else { p - 1 };
        let sym = seq[prev];
        if sym < d32 {
            // End-marker: the row starts at the first symbol of some text.
            bwt.push(0u8);
            let text_id = match starts.binary_search(&p) {
                Ok(i) => i,
                Err(_) => {
                    // `p` must be a text start whenever the preceding symbol is
                    // a terminator (or p == 0, which is the start of text 0).
                    debug_assert_eq!(p, 0);
                    0
                }
            };
            doc.push(text_id as u32);
        } else {
            bwt.push((sym - d32 + 1) as u8);
        }
    }
    CollectionBwt { bwt, sa, doc }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference BWT via naive rotation sorting on the decoded symbols.
    fn naive_bwt(texts: &[&str]) -> Vec<u8> {
        let d = texts.len() as u32;
        let mut seq: Vec<u32> = Vec::new();
        for (i, t) in texts.iter().enumerate() {
            seq.extend(t.bytes().map(|b| d + b as u32 - 1));
            seq.push(i as u32);
        }
        let mut rows: Vec<usize> = (0..seq.len()).collect();
        rows.sort_by(|&a, &b| {
            let ra: Vec<u32> = (0..seq.len()).map(|k| seq[(a + k) % seq.len()]).collect();
            let rb: Vec<u32> = (0..seq.len()).map(|k| seq[(b + k) % seq.len()]).collect();
            ra.cmp(&rb)
        });
        rows.iter()
            .map(|&r| {
                let sym = seq[(r + seq.len() - 1) % seq.len()];
                if sym < d {
                    0u8
                } else {
                    (sym - d + 1) as u8
                }
            })
            .collect()
    }

    #[test]
    fn single_text() {
        let out = build_collection_bwt(&["discontinued"]);
        assert_eq!(out.sa.len(), 13);
        assert_eq!(out.bwt.len(), 13);
        assert_eq!(out.doc, vec![0]);
        assert_eq!(out.bwt, naive_bwt(&["discontinued"]));
    }

    #[test]
    fn paper_running_example() {
        // The six texts of Figure 1.
        let texts = ["pen", "Soon discontinued", "blue", "40", "rubber", "30"];
        let out = build_collection_bwt(&texts);
        assert_eq!(out.doc.len(), 6);
        assert_eq!(out.bwt.iter().filter(|&&b| b == 0).count(), 6);
        assert_eq!(out.bwt, naive_bwt(&texts));
        // F is the sorted concatenation: its first d entries are the
        // terminators ordered by text id, so the suffixes at sa[0..d] are the
        // terminator positions of texts 0..d in order.
        let mut start = 0;
        for (i, &p) in out.sa.iter().take(6).enumerate() {
            assert_eq!(p, start + texts[i].len(), "terminator of text {i}");
            start = p + 1;
        }
    }

    #[test]
    fn doc_maps_rows_to_starting_texts() {
        let texts = ["abc", "ab", "b"];
        let out = build_collection_bwt(&texts);
        // Every text id appears exactly once in doc.
        let mut ids: Vec<u32> = out.doc.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn empty_texts_are_allowed() {
        let texts = ["", "a", ""];
        let out = build_collection_bwt(&texts);
        assert_eq!(out.bwt.len(), 4);
        assert_eq!(out.bwt.iter().filter(|&&b| b == 0).count(), 3);
    }

    #[test]
    #[should_panic(expected = "reserved for the terminator")]
    fn zero_bytes_rejected() {
        build_collection_bwt(&[&[1u8, 0u8, 2u8][..]]);
    }
}
