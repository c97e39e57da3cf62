//! The collection text `T`, stored plainly, and the naive scans over it.
//!
//! `T` is every text followed by a byte-0 terminator: exactly the sequence
//! the BWT is built from, so text `i` starts at `T[starts[i]]` and runs to
//! its terminator.  Section 3.4 of the paper keeps such a plain copy next
//! to the FM-index as an option; here it is always kept, because every
//! workload reads texts (extraction, serialisation, search tokenisation,
//! mixed-content predicates), and for patterns with very many occurrences a
//! sequential scan beats locating each occurrence through the BWT (the
//! cut-off experiment of Tables II/III).  The scans also serve as the
//! "naive string buffer" baseline the paper compares the FM-index against.

use sxsi_io::{corrupt, read_bytes, write_bytes, IoError, ReadFrom, WriteInto};

/// Identifier of a text within the collection (0-based, document order).
pub type TextId = usize;

/// The byte that closes every text in `T`.
pub(crate) const TERMINATOR: u8 = 0;

/// The collection text `T`.
#[derive(Debug, Clone)]
pub struct PlainTexts {
    /// `T`: every text followed by one [`TERMINATOR`].
    data: Vec<u8>,
    /// Number of terminators in `data`, counted on build and load (never
    /// written), so that [`PlainTexts::total_bytes`] is `O(1)`.
    num_texts: usize,
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
        Self { data, num_texts: texts.len() }
    }

    /// `T` itself, terminators included.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Number of terminators in `T`, one per text.
    pub(crate) fn num_texts(&self) -> usize {
        self.num_texts
    }

    /// Total number of text bytes, terminators excluded.
    pub fn total_bytes(&self) -> usize {
        self.data.len() - self.num_texts
    }

    /// Every text, in id order.
    pub(crate) fn iter(&self) -> Texts<'_> {
        self.texts_at(0)
    }

    /// The texts whose first one starts at byte `start` of `T`.
    pub(crate) fn texts_at(&self, start: usize) -> Texts<'_> {
        Texts { rest: &self.data[start..] }
    }

    /// Ids of the texts `keep` accepts, in increasing order.
    fn ids_where(&self, keep: impl Fn(&[u8]) -> bool) -> Vec<TextId> {
        self.iter().enumerate().filter(|&(_, t)| keep(t)).map(|(id, _)| id).collect()
    }

    /// All texts containing `pattern`, by scanning every text.
    pub fn scan_contains(&self, pattern: &[u8]) -> Vec<TextId> {
        self.ids_where(|t| contains_slice(t, pattern))
    }

    /// Number of texts containing `pattern`, without materializing the ids.
    pub fn scan_contains_count(&self, pattern: &[u8]) -> usize {
        self.iter().filter(|t| contains_slice(t, pattern)).count()
    }

    /// Positions `(text, offset)` of every (possibly overlapping) occurrence
    /// of `pattern`, in increasing `(text, offset)` order — the scan-based
    /// counterpart of the FM-index `ContainsReport`.
    pub fn scan_contains_positions(&self, pattern: &[u8]) -> Vec<(TextId, usize)> {
        let mut out = Vec::new();
        if pattern.is_empty() {
            return out;
        }
        for (id, text) in self.iter().enumerate() {
            for (off, w) in text.windows(pattern.len()).enumerate() {
                if w == pattern {
                    out.push((id, off));
                }
            }
        }
        out
    }

    /// Total number of (possibly overlapping) occurrences of `pattern` across
    /// all texts; the naive counterpart of the FM-index `GlobalCount`.
    pub fn scan_global_count(&self, pattern: &[u8]) -> usize {
        self.iter().map(|t| count_occurrences(t, pattern)).sum()
    }

    /// All texts equal to `pattern`.
    pub fn scan_equals(&self, pattern: &[u8]) -> Vec<TextId> {
        self.ids_where(|t| t == pattern)
    }

    /// All texts starting with `pattern`.
    pub fn scan_starts_with(&self, pattern: &[u8]) -> Vec<TextId> {
        self.ids_where(|t| t.starts_with(pattern))
    }

    /// All texts ending with `pattern`.
    pub fn scan_ends_with(&self, pattern: &[u8]) -> Vec<TextId> {
        self.ids_where(|t| t.ends_with(pattern))
    }
}

#[cfg(test)]
impl PlainTexts {
    /// Overwrites one byte of `T` (collection-level verify tests).
    pub(crate) fn set_byte_for_tests(&mut self, i: usize, b: u8) {
        self.data[i] = b;
    }
}

impl WriteInto for PlainTexts {
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_bytes(w, &self.data)
    }
}

impl ReadFrom for PlainTexts {
    /// Reads `T`; the collection checks its terminators against the text
    /// boundaries.
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let data = read_bytes(r)?;
        if data.last().is_some_and(|&b| b != TERMINATOR) {
            return Err(corrupt("plain-terminator: the collection text does not end with a terminator"));
        }
        let num_texts = data.iter().filter(|&&b| b == TERMINATOR).count();
        Ok(Self { data, num_texts })
    }
}

/// Whether `haystack` contains `needle` (empty needle always matches).
pub fn contains_slice(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > haystack.len() {
        return false;
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// Number of (possibly overlapping) occurrences of `needle` in `haystack`.
pub fn count_occurrences(haystack: &[u8], needle: &[u8]) -> usize {
    if needle.is_empty() || needle.len() > haystack.len() {
        return 0;
    }
    haystack.windows(needle.len()).filter(|w| *w == needle).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_and_read_back() {
        let texts = ["pen", "Soon discontinued", "", "blue"];
        let store = PlainTexts::new(&texts);
        assert_eq!(store.as_bytes(), b"pen\0Soon discontinued\0\0blue\0");
        let read: Vec<&[u8]> = store.iter().collect();
        let expected: Vec<&[u8]> = texts.iter().map(|t| t.as_bytes()).collect();
        assert_eq!(read, expected);
        assert_eq!(store.total_bytes(), texts.iter().map(|t| t.len()).sum::<usize>());
        assert_eq!(store.as_bytes().len(), store.total_bytes() + texts.len());
        assert_eq!(store.texts_at(4).next(), Some(&b"Soon discontinued"[..]));
        assert_eq!(PlainTexts::new::<&str>(&[]).iter().count(), 0);
    }

    #[test]
    fn scans() {
        let texts = ["banana", "bandana", "ban", "anab"];
        let store = PlainTexts::new(&texts);
        assert_eq!(store.scan_contains(b"ana"), vec![0, 1, 3]);
        assert_eq!(store.scan_contains(b"ban"), vec![0, 1, 2]);
        assert_eq!(store.scan_equals(b"ban"), vec![2]);
        assert_eq!(store.scan_starts_with(b"ban"), vec![0, 1, 2]);
        assert_eq!(store.scan_ends_with(b"ana"), vec![0, 1]);
        assert_eq!(store.scan_global_count(b"ana"), 4); // overlapping in banana counts twice
        assert_eq!(store.scan_global_count(b"an"), 6);
        assert_eq!(store.scan_contains(b""), vec![0, 1, 2, 3]);
    }

    #[test]
    fn helpers() {
        assert!(contains_slice(b"hello", b"ell"));
        assert!(!contains_slice(b"hello", b"elo"));
        assert!(contains_slice(b"hello", b""));
        assert!(!contains_slice(b"he", b"hello"));
        assert_eq!(count_occurrences(b"aaaa", b"aa"), 3);
        assert_eq!(count_occurrences(b"abc", b""), 0);
    }

    #[test]
    fn scan_position_variants_agree() {
        let texts = ["banana", "bandana", "", "aaa"];
        let store = PlainTexts::new(&texts);
        assert_eq!(
            store.scan_contains_positions(b"an"),
            vec![(0, 1), (0, 3), (1, 1), (1, 4)]
        );
        assert_eq!(store.scan_contains_positions(b"aa"), vec![(3, 0), (3, 1)]);
        assert_eq!(store.scan_contains_positions(b""), vec![]);
        assert_eq!(store.scan_contains_count(b"an"), 2);
        assert_eq!(store.scan_contains_count(b"ban"), store.scan_contains(b"ban").len());
    }

    #[test]
    fn serialization_roundtrip() {
        let texts = ["pen", "", "Soon discontinued", "blue"];
        let store = PlainTexts::new(&texts);
        let bytes = store.to_bytes();
        let back = PlainTexts::from_bytes(&bytes).unwrap();
        assert_eq!(back.as_bytes(), store.as_bytes());
        assert_eq!(back.num_texts(), texts.len());
        assert_eq!(back.total_bytes(), store.total_bytes());
        assert!(PlainTexts::from_bytes(&bytes[..bytes.len() - 4]).is_err());
        // The last text lost its terminator.
        let mut open = bytes.clone();
        let n = open.len();
        open[n - 1] = b'x';
        let err = PlainTexts::from_bytes(&open).unwrap_err();
        assert!(err.to_string().contains("plain-terminator"), "{err}");
    }
}
