//! The collection text `T`, stored plainly, and the one search over it.
//!
//! `T` is every text followed by a byte-0 terminator: exactly the sequence
//! the BWT is built from, so text `i` starts at `T[starts[i]]` and runs to
//! its terminator; `starts` is derived from the terminators.  Section 3.4
//! of the paper keeps such a plain copy next to the FM-index as an option;
//! here it is always kept, because every
//! workload reads texts (extraction, serialisation, search tokenisation,
//! mixed-content predicates), and for patterns with very many occurrences a
//! sequential scan beats locating each occurrence through the BWT (the
//! cut-off experiment of Tables II/III).  No pattern holds a terminator (the
//! XPath parser rejects NUL), so all of `T` is one haystack for the one
//! search, [`PlainTexts::occurrences`]: the "naive string buffer" baseline
//! the paper compares the FM-index against.

use sxsi_io::{corrupt, read_bytes, write_bytes, IoError, ReadFrom, WriteInto};
use sxsi_succinct::EliasFano;

/// Identifier of a text within the collection (0-based, document order).
pub type TextId = usize;

/// The byte that closes every text in `T`.
pub(crate) const TERMINATOR: u8 = 0;

/// The collection text `T`.
#[derive(Debug, Clone)]
pub struct PlainTexts {
    /// `T`: every text followed by one [`TERMINATOR`].
    data: Vec<u8>,
    /// Where each text starts in `T`: derived from the terminators on
    /// build and load, never written.
    starts: EliasFano,
}

/// Consecutive texts of `T`, each read up to its terminator.
#[derive(Debug, Clone, Default)]
pub(crate) struct Texts<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Texts<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let end = self.rest.iter().position(|&b| b == TERMINATOR)?;
        let text = &self.rest[..end];
        self.rest = &self.rest[end + 1..];
        Some(text)
    }
}

impl PlainTexts {
    /// Builds `T` from the texts, which must not contain the terminator.
    pub(crate) fn new<S: AsRef<[u8]>>(texts: &[S]) -> Self {
        let total = texts.iter().map(|t| t.as_ref().len() + 1).sum();
        let mut data = Vec::with_capacity(total);
        for t in texts {
            data.extend_from_slice(t.as_ref());
            data.push(TERMINATOR);
        }
        Self::from_t(data)
    }

    /// Takes `T`, which ends with a terminator unless it is empty, and
    /// derives where each text starts in one scan for the terminators:
    /// each but the last starts the next text.  Building and loading both
    /// take `T` here.
    fn from_t(data: Vec<u8>) -> Self {
        let mut starts = vec![0];
        starts.extend(data.iter().enumerate().filter(|&(_, &b)| b == TERMINATOR).map(|(i, _)| i as u64 + 1));
        starts.pop();
        let starts = EliasFano::new(&starts, data.len().max(1) as u64);
        Self { data, starts }
    }

    /// `T` itself, terminators included.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Number of terminators in `T`, one per text.
    pub(crate) fn num_texts(&self) -> usize {
        self.starts.len()
    }

    /// Where each text starts in `T`.
    pub(crate) fn starts(&self) -> &EliasFano {
        &self.starts
    }

    /// Total number of text bytes, terminators excluded.
    pub fn total_bytes(&self) -> usize {
        self.data.len() - self.num_texts()
    }

    /// The texts whose first one starts at byte `start` of `T`.
    pub(crate) fn texts_at(&self, start: usize) -> Texts<'_> {
        Texts { rest: &self.data[start..] }
    }

    /// Every occurrence of `pattern` in `T` as `(text, offset)`, in
    /// increasing order; none for an empty pattern.  This is the one
    /// search over `T`: every scan reduces it.
    pub fn occurrences<'a>(&'a self, pattern: &'a [u8]) -> Occurrences<'a> {
        Occurrences::new(&self.data, pattern)
    }

    /// All texts containing `pattern`: the naive counterpart of the
    /// FM-index `contains`.
    pub fn scan_contains(&self, pattern: &[u8]) -> Vec<TextId> {
        if pattern.is_empty() {
            return (0..self.num_texts()).collect();
        }
        let mut ids: Vec<TextId> = self.occurrences(pattern).map(|(id, _)| id).collect();
        ids.dedup();
        ids
    }
}

/// Bytes `0x7f` in every byte of a word.
const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;

/// The high bit of every zero byte of `v`, exactly: no carry crosses a
/// byte, so a zero byte never flags its neighbour.
fn zero_bytes(v: u64) -> u64 {
    !(((v & LOW7) + LOW7) | v | LOW7)
}

/// The search behind [`PlainTexts::occurrences`]: the occurrences of a
/// pattern in a haystack of terminated texts, as `(text, offset)` in
/// increasing order.
///
/// The walk reads the haystack eight bytes at a time and stops only at
/// terminators, where the text id advances by one, and at the pattern's
/// first byte, where it compares the rest.  No pattern holds a
/// terminator, so no match crosses a text boundary.
#[derive(Debug, Clone)]
pub struct Occurrences<'a> {
    haystack: &'a [u8],
    pattern: &'a [u8],
    /// Where the walk goes on.
    pos: usize,
    /// The text at `pos`, and where it starts in the haystack.
    id: TextId,
    text_start: usize,
}

impl<'a> Occurrences<'a> {
    /// The walk over `haystack`; an empty pattern matches nothing.
    pub(crate) fn new(haystack: &'a [u8], pattern: &'a [u8]) -> Self {
        debug_assert!(!pattern.contains(&TERMINATOR), "a pattern holds no terminator");
        Self { haystack, pattern, pos: 0, id: 0, text_start: 0 }
    }

    /// The next terminator or first byte of the pattern from `pos` on: a
    /// word at a time, then byte by byte in the last partial word.
    fn next_stop(&self) -> Option<usize> {
        let &first = self.pattern.first()?;
        let in_every_byte = u64::from(first) * 0x0101_0101_0101_0101;
        let mut at = self.pos;
        while let Some(bytes) = self.haystack.get(at..at + 8) {
            let v = u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
            let stops = zero_bytes(v) | zero_bytes(v ^ in_every_byte);
            if stops != 0 {
                return Some(at + (stops.trailing_zeros() / 8) as usize);
            }
            at += 8;
        }
        self.haystack[at..].iter().position(|&b| b == first || b == TERMINATOR).map(|i| at + i)
    }
}

impl Iterator for Occurrences<'_> {
    type Item = (TextId, usize);

    fn next(&mut self) -> Option<(TextId, usize)> {
        while let Some(at) = self.next_stop() {
            self.pos = at + 1;
            let hit = self.haystack[at..].starts_with(self.pattern).then(|| (self.id, at - self.text_start));
            if self.haystack[at] == TERMINATOR {
                self.id += 1;
                self.text_start = at + 1;
            }
            if hit.is_some() {
                return hit;
            }
        }
        None
    }
}

impl WriteInto for PlainTexts {
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_bytes(w, &self.data)
    }
}

impl ReadFrom for PlainTexts {
    /// Reads `T` and derives the text starts from it; the collection
    /// checks its length and terminator count against the BWT.
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let data = read_bytes(r)?;
        if data.last().is_some_and(|&b| b != TERMINATOR) {
            return Err(corrupt("plain-terminator: the collection text does not end with a terminator"));
        }
        Ok(Self::from_t(data))
    }
}

#[cfg(test)]
impl PlainTexts {
    /// Overwrites one byte of `T` (collection-level verify tests).
    pub(crate) fn set_byte_for_tests(&mut self, i: usize, b: u8) {
        self.data[i] = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The naive per-text search the walk must agree with.
    fn naive(texts: &[&[u8]], pattern: &[u8]) -> Vec<(TextId, usize)> {
        let mut out = Vec::new();
        for (id, text) in texts.iter().enumerate() {
            for off in 0..text.len() {
                if !pattern.is_empty() && text[off..].starts_with(pattern) {
                    out.push((id, off));
                }
            }
        }
        out
    }

    #[test]
    fn store_and_read_back() {
        let texts = ["pen", "Soon discontinued", "", "blue"];
        let store = PlainTexts::new(&texts);
        assert_eq!(store.as_bytes(), b"pen\0Soon discontinued\0\0blue\0");
        let read: Vec<&[u8]> = store.texts_at(0).collect();
        let expected: Vec<&[u8]> = texts.iter().map(|t| t.as_bytes()).collect();
        assert_eq!(read, expected);
        assert_eq!(store.total_bytes(), texts.iter().map(|t| t.len()).sum::<usize>());
        assert_eq!(store.as_bytes().len(), store.total_bytes() + texts.len());
        assert_eq!(store.texts_at(4).next(), Some(&b"Soon discontinued"[..]));
        assert_eq!(PlainTexts::new::<&str>(&[]).texts_at(0).count(), 0);
    }

    #[test]
    fn scans() {
        let texts = ["banana", "bandana", "ban", "anab"];
        let store = PlainTexts::new(&texts);
        assert_eq!(store.scan_contains(b"ana"), vec![0, 1, 3]);
        assert_eq!(store.scan_contains(b"ban"), vec![0, 1, 2]);
        assert_eq!(store.occurrences(b"ana").count(), 4); // overlapping in banana counts twice
        assert_eq!(store.occurrences(b"an").count(), 6);
        assert_eq!(store.scan_contains(b""), vec![0, 1, 2, 3]);
    }

    #[test]
    fn helpers() {
        // The byte search on a bare haystack, as `TextPredicate::matches_value`
        // runs it: matches in the first and the last byte of a word, across
        // words, in a partial last word, and over bytes with the high bit set.
        let find = |haystack: &[u8], pattern: &[u8]| -> Vec<usize> {
            Occurrences::new(haystack, pattern).map(|(id, off)| {
                assert_eq!(id, 0, "no terminator, no second text");
                off
            }).collect()
        };
        assert_eq!(find(b"hello", b"ell"), vec![1]);
        assert_eq!(find(b"hello", b"elo"), Vec::<usize>::new());
        assert_eq!(find(b"hello", b""), Vec::<usize>::new());
        assert_eq!(find(b"he", b"hello"), Vec::<usize>::new());
        assert_eq!(find(b"aaaa", b"aa"), vec![0, 1, 2]);
        assert_eq!(find(b"abcdefgXhijklmnXopq", b"X"), vec![7, 15]);
        assert_eq!(find(b"abcdefgXYhijklmnop", b"XY"), vec![7]);
        assert_eq!(find(b"\x80\xff\x7f\x01\x80\xff\xfe\x80\xff", b"\x80\xff"), vec![0, 4, 7]);
        // Every haystack of up to 11 bytes over a small alphabet that holds
        // the terminator and high bytes, against the naive search per text.
        let alphabet = [b'a', b'b', TERMINATOR, 0x80, 0xff];
        for len in 0..=11u32 {
            for code in (0..5usize.pow(len)).step_by(1 + 5usize.pow(len) / 4096) {
                let haystack: Vec<u8> =
                    (0..len).map(|i| alphabet[code / 5usize.pow(i) % 5]).collect();
                let texts: Vec<&[u8]> = haystack.split(|&b| b == TERMINATOR).collect();
                for pattern in [&b"a"[..], b"ab", b"\x80\xff", b"ba\x80"] {
                    let walked: Vec<_> = Occurrences::new(&haystack, pattern).collect();
                    assert_eq!(walked, naive(&texts, pattern), "{haystack:?} {pattern:?}");
                }
            }
        }
    }

    #[test]
    fn scan_position_variants_agree() {
        let texts = ["banana", "bandana", "", "aaa"];
        let store = PlainTexts::new(&texts);
        let positions = |p: &[u8]| store.occurrences(p).collect::<Vec<_>>();
        assert_eq!(positions(b"an"), vec![(0, 1), (0, 3), (1, 1), (1, 4)]);
        assert_eq!(positions(b"aa"), vec![(3, 0), (3, 1)]);
        assert_eq!(positions(b""), vec![]);
        assert_eq!(store.scan_contains(b"an"), vec![0, 1]);
        assert_eq!(store.scan_contains(b"ban").len(), 2);
        let bytes: Vec<&[u8]> = texts.iter().map(|t| t.as_bytes()).collect();
        assert_eq!(positions(b"an"), naive(&bytes, b"an"));
    }

    #[test]
    fn serialization_roundtrip() {
        let texts = ["pen", "", "Soon discontinued", "blue"];
        let store = PlainTexts::new(&texts);
        let bytes = store.to_bytes();
        let back = PlainTexts::from_bytes(&bytes).unwrap();
        assert_eq!(back.as_bytes(), store.as_bytes());
        assert_eq!(back.num_texts(), texts.len());
        assert_eq!(back.starts().iter().collect::<Vec<_>>(), [0, 4, 5, 23]);
        assert_eq!(back.total_bytes(), store.total_bytes());
        assert!(PlainTexts::from_bytes(&bytes[..bytes.len() - 4]).is_err());
        // The last text lost its terminator.
        let mut open = bytes.clone();
        let n = open.len();
        open[n - 1] = b'x';
        let err = PlainTexts::from_bytes(&open).unwrap_err();
        assert!(matches!(err, IoError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("plain-terminator"), "{err}");
    }
}
