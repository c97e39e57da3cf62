//! Generalized Burrows–Wheeler transform of a text collection.
//!
//! Following Section 3.2 of the paper, the collection `T` is the
//! concatenation of all texts, each terminated by `$` (byte 0).  The
//! end-markers have a fixed ordering — the terminator of the `i`-th text
//! must appear at `F[i]` — which the suffix array of `T` gives by
//! construction: it orders the terminators by position (see
//! [`crate::suffix`]), so `T` is never widened to distinct symbols.  `|T|`
//! is limited to [`crate::suffix::MAX_LEN`] bytes.
//!
//! One pass over the suffix array emits everything the index keeps of it:
//! the BWT, the `Doc` array and the locate samples.  The suffix array is
//! dropped before the BWT is encoded.

use crate::plain::TERMINATOR;
use crate::suffix::suffix_array;
use sxsi_succinct::BitVec;

/// Output of the collection BWT construction: all that the index keeps of
/// the suffix array.
#[derive(Debug, Clone)]
pub struct CollectionBwt {
    /// The BWT of `T`, every end-marker as byte 0.
    pub bwt: Vec<u8>,
    /// `doc[j]` is the identifier of the text whose first symbol starts the
    /// row of the `j`-th `$` in the BWT (the paper's `Doc` array).
    pub doc: Vec<u32>,
    /// Marks the rows whose suffix starts at a multiple of the sample rate.
    pub sampled: BitVec,
    /// The start of the suffix of each marked row, in row order.
    pub samples: Vec<u64>,
}

/// Builds the collection BWT of `T`, in which every byte 0 terminates one
/// text, and the locate samples of every `sample_rate`-th position.
///
/// # Panics
/// Panics if `T` is longer than [`crate::suffix::MAX_LEN`] or `sample_rate`
/// is 0.
pub fn build_collection_bwt(t: &[u8], sample_rate: usize) -> CollectionBwt {
    assert!(sample_rate >= 1, "sample rate must be positive");
    let sa = suffix_array(t);
    // The suffixes of the terminators sort first, in text order.
    let num_texts = t.iter().filter(|&&b| b == TERMINATOR).count();
    let terminators = &sa[..num_texts];
    let mut bwt = Vec::with_capacity(t.len());
    let mut doc = Vec::with_capacity(num_texts);
    let mut sampled = BitVec::filled(t.len(), false);
    let mut samples = Vec::with_capacity(t.len() / sample_rate + 1);
    for (row, &p) in sa.iter().enumerate() {
        let p = p as usize;
        let before = t[p.checked_sub(1).unwrap_or(t.len() - 1)];
        bwt.push(before);
        if before == TERMINATOR {
            // The row starts a text: the one after the terminator at p - 1,
            // or text 0 at the start of `T`.
            let id = p.checked_sub(1).map_or(0, |end| terminators.partition_point(|&e| (e as usize) < end) + 1);
            doc.push(id as u32);
        }
        if p % sample_rate == 0 {
            sampled.set(row, true);
            samples.push(p as u64);
        }
    }
    CollectionBwt { bwt, doc, sampled, samples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::TextCollection;

    /// The collection BWT of `texts`, with the suffix array it came from.
    struct Built {
        bwt: Vec<u8>,
        sa: Vec<usize>,
        doc: Vec<u32>,
    }

    fn build_from_texts(texts: &[&str]) -> Built {
        let t: Vec<u8> = texts.iter().flat_map(|x| x.bytes().chain([0])).collect();
        let sa: Vec<usize> = suffix_array(&t).into_iter().map(|p| p as usize).collect();
        let out = build_collection_bwt(&t, 1);
        // At rate 1 every row is sampled: the samples are the suffix array.
        assert_eq!(out.samples, sa.iter().map(|&p| p as u64).collect::<Vec<_>>());
        assert_eq!(out.sampled.count_ones(), t.len());
        Built { bwt: out.bwt, sa, doc: out.doc }
    }

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
        let out = build_from_texts(&["discontinued"]);
        assert_eq!(out.sa.len(), 13);
        assert_eq!(out.bwt.len(), 13);
        assert_eq!(out.doc, vec![0]);
        assert_eq!(out.bwt, naive_bwt(&["discontinued"]));
    }

    #[test]
    fn paper_running_example() {
        // The six texts of Figure 1.
        let texts = ["pen", "Soon discontinued", "blue", "40", "rubber", "30"];
        let out = build_from_texts(&texts);
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
        let out = build_from_texts(&texts);
        // Every text id appears exactly once in doc.
        let mut ids: Vec<u32> = out.doc.clone();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn empty_texts_are_allowed() {
        let texts = ["", "a", ""];
        let out = build_from_texts(&texts);
        assert_eq!(out.bwt.len(), 4);
        assert_eq!(out.bwt.iter().filter(|&&b| b == 0).count(), 3);
    }

    #[test]
    #[should_panic(expected = "reserved for the terminator")]
    fn zero_bytes_rejected() {
        TextCollection::new(&[&[1u8, 0u8, 2u8][..]]);
    }
}
