//! Wavelet structures: sequence representations with `access`, `rank` and
//! `select`.
//!
//! The FM-index of Section 3 needs `rank_c(T^bwt, i)` for byte symbols.
//! Like the paper, this crate keeps the BWT in a Huffman-shaped wavelet
//! tree, [`HuffmanWavelet`]: about `n·H₀` bits, stored level-wise without
//! pointers so each code bit costs one single-cache-line rank.

mod huffman;

pub use huffman::{HuffmanWavelet, MAX_CODE_LEN};

/// Query interface of a symbol sequence: implemented by [`HuffmanWavelet`]
/// and by the naive references the [`crate::oracle`] drivers compare it to.
pub trait SequenceIndex<Sym: Copy + Eq> {
    /// Length of the indexed sequence.
    fn len(&self) -> usize;

    /// True if the sequence is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Symbol at position `i`.
    fn access(&self, i: usize) -> Sym;

    /// Number of occurrences of `sym` in the prefix `[0, i)`.
    fn rank(&self, sym: Sym, i: usize) -> usize;

    /// Position of the `k`-th occurrence (1-based) of `sym`, if any.
    fn select(&self, sym: Sym, k: usize) -> Option<usize>;
}

#[cfg(test)]
pub(crate) fn check_sequence_index<Sym, S>(seq: &[Sym], idx: &S)
where
    Sym: Copy + Eq + std::fmt::Debug + std::hash::Hash,
    S: SequenceIndex<Sym>,
{
    use std::collections::HashMap;
    assert_eq!(idx.len(), seq.len());
    let mut counts: HashMap<Sym, usize> = HashMap::new();
    for (i, &c) in seq.iter().enumerate() {
        assert_eq!(idx.access(i), c, "access({i})");
        assert_eq!(idx.rank(c, i), *counts.get(&c).unwrap_or(&0), "rank({c:?}, {i})");
        let entry = counts.entry(c).or_insert(0);
        *entry += 1;
        assert_eq!(idx.select(c, *entry), Some(i), "select({c:?}, {entry})");
    }
    for (&c, &total) in &counts {
        assert_eq!(idx.rank(c, seq.len()), total, "final rank({c:?})");
        assert_eq!(idx.select(c, total + 1), None, "select past end ({c:?})");
    }
}
