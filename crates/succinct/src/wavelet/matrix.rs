//! Wavelet matrix: a pointer-free alternative to the wavelet tree.
//!
//! A wavelet *tree* stores one bitmap per node, and navigating it chases
//! per-node boundaries.  The wavelet **matrix** (Claude, Navarro & Ordóñez,
//! SPIRE 2012 / Inf. Syst. 2015) concatenates each level's node bitmaps into
//! a *single* flat bitmap and records only `zeros[l]`, the number of zero
//! bits on level `l`.  Symbols whose level-`l` bit is 0 are stably moved to
//! the front for level `l + 1`; the per-node boundaries disappear, so each
//! level costs exactly one rank on one bitmap — fewer cache misses and no
//! pointer arithmetic than a node-per-symbol wavelet tree.
//!
//! Construction uses ping-pong buffers: two `Vec<u64>`s are swapped per
//! level, each pass writing the zero-bit symbols to the front and the
//! one-bit symbols to the back of the target buffer (`O(n log σ)` time,
//! `2n` words of scratch).  The level bitmaps are
//! [`InterleavedRsBitVector`]s, so every rank on the descent is a single
//! cache-line fetch.

use crate::bits::bits_for;
use crate::interleaved::InterleavedRsBitVector;
use crate::wavelet::SequenceIndex;
use crate::{BitVec, SpaceUsage};
use sxsi_io::{corrupt, read_u64, read_usize, write_u64, write_usize, IoError, ReadFrom, WriteInto};

/// Largest alphabet for which the per-symbol bottom-level bucket starts are
/// precomputed (8 bytes per symbol, 32 KiB at most).  The table halves the
/// ranks in [`WaveletMatrix::rank_sym`] — one endpoint descends instead of
/// two — and removes the descent-from-zero in [`WaveletMatrix::select_sym`].
const PATH_START_MAX_ALPHABET: u64 = 1 << 12;

/// Pointer-free wavelet structure over a `u64` alphabet `[0, alphabet_size)`.
///
/// `access`/`rank` are `O(log σ)` with one interleaved-bitmap rank (a single
/// cache-line fetch) per level; `select` is `O(log σ)` ranks down plus
/// `O(log σ)` sampled selects back up.  Space is `n · ⌈log σ⌉` bits plus the
/// interleaved directories (≈ 14.3 % overhead).
#[derive(Clone, Debug)]
pub struct WaveletMatrix {
    /// One flat bitmap per level; level 0 holds the most significant bit.
    levels: Vec<InterleavedRsBitVector>,
    /// `zeros[l]`: number of zero bits on level `l` (start of the one-group
    /// in the next level's stable reordering).
    zeros: Vec<usize>,
    /// `path_starts[sym]`: first bottom-level slot of `sym`'s bucket, i.e.
    /// the descent of position 0 along `sym`'s bit path.  Empty when the
    /// alphabet exceeds [`PATH_START_MAX_ALPHABET`]; derived, so it is
    /// rebuilt on load rather than serialized.
    path_starts: Vec<usize>,
    /// Number of symbols in the sequence.
    len: usize,
    /// Exclusive upper bound of the alphabet.
    alphabet_size: u64,
}

impl WaveletMatrix {
    /// Builds the matrix from `values`, all of which must be strictly below
    /// `alphabet_size`.  `O(n log σ)` time with two ping-pong scratch
    /// buffers.
    ///
    /// # Panics
    /// Panics if any value is `>= alphabet_size`.
    pub fn new(values: &[u64], alphabet_size: u64) -> Self {
        let bits = if alphabet_size <= 1 { 1 } else { bits_for(alphabet_size - 1) };
        let mut cur: Vec<u64> = values.to_vec();
        for (i, &v) in cur.iter().enumerate() {
            assert!(
                alphabet_size > 0 && v < alphabet_size,
                "symbol {v} at position {i} is outside the alphabet [0, {alphabet_size})"
            );
        }
        let mut next: Vec<u64> = vec![0; cur.len()];
        let mut levels = Vec::with_capacity(bits as usize);
        let mut zeros = Vec::with_capacity(bits as usize);
        for level in 0..bits {
            let shift = bits - 1 - level;
            let mut bitmap = BitVec::with_capacity(cur.len());
            let mut n_zero = 0usize;
            for &v in &cur {
                let bit = (v >> shift) & 1 == 1;
                bitmap.push(bit);
                if !bit {
                    n_zero += 1;
                }
            }
            // Stable partition into `next`: zero-bit symbols first.
            let mut z = 0usize;
            let mut o = n_zero;
            for &v in &cur {
                if (v >> shift) & 1 == 0 {
                    next[z] = v;
                    z += 1;
                } else {
                    next[o] = v;
                    o += 1;
                }
            }
            levels.push(InterleavedRsBitVector::new(&bitmap));
            zeros.push(n_zero);
            std::mem::swap(&mut cur, &mut next);
        }
        let mut wm = Self {
            levels,
            zeros,
            path_starts: Vec::new(),
            len: values.len(),
            alphabet_size: alphabet_size.max(1),
        };
        wm.path_starts = wm.compute_path_starts();
        wm
    }

    /// Maps a level-0 boundary position down to the bottom level along
    /// `sym`'s bit path: one interleaved rank per level.
    #[inline]
    fn descend(&self, mut pos: usize, sym: u64) -> usize {
        let bits = self.levels.len() as u32;
        for (level, bitmap) in self.levels.iter().enumerate() {
            pos = if (sym >> (bits - 1 - level as u32)) & 1 == 1 {
                self.zeros[level] + bitmap.rank1(pos)
            } else {
                bitmap.rank0(pos)
            };
        }
        pos
    }

    /// Bucket-start table for small alphabets: `descend(0, sym)` for every
    /// symbol, or empty when the alphabet is too large to tabulate.
    fn compute_path_starts(&self) -> Vec<usize> {
        if self.alphabet_size > PATH_START_MAX_ALPHABET {
            return Vec::new();
        }
        (0..self.alphabet_size).map(|sym| self.descend(0, sym)).collect()
    }

    /// Number of bits per symbol (= number of levels).
    #[inline]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Exclusive upper bound of the alphabet this matrix was built for.
    #[inline]
    pub fn alphabet_size(&self) -> u64 {
        self.alphabet_size
    }

    /// Total occurrences of `sym` (`rank(sym, len)`), `O(log σ)`.
    #[inline]
    pub fn count(&self, sym: u64) -> usize {
        self.rank_sym(sym, self.len)
    }

    /// Symbol at position `i`, `O(log σ)` — one interleaved rank per level.
    ///
    /// # Panics
    /// Debug-panics if `i >= len()`.
    pub fn access_sym(&self, i: usize) -> u64 {
        debug_assert!(i < self.len, "index {i} out of range (len {})", self.len);
        let mut pos = i;
        let mut sym = 0u64;
        for (level, bitmap) in self.levels.iter().enumerate() {
            sym <<= 1;
            if bitmap.get(pos) {
                sym |= 1;
                pos = self.zeros[level] + bitmap.rank1(pos);
            } else {
                pos = bitmap.rank0(pos);
            }
        }
        sym
    }

    /// Number of occurrences of `sym` in `[0, i)`, `O(log σ)`.  With the
    /// precomputed bucket starts (small alphabets) only the right endpoint
    /// descends — one interleaved rank per level; otherwise both interval
    /// endpoints are mapped level by level.
    pub fn rank_sym(&self, sym: u64, i: usize) -> usize {
        debug_assert!(i <= self.len, "rank index {i} out of range (len {})", self.len);
        if sym >= self.alphabet_size || self.len == 0 {
            return 0;
        }
        if let Some(&bucket) = self.path_starts.get(sym as usize) {
            return self.descend(i, sym) - bucket;
        }
        let bits = self.levels.len() as u32;
        let mut start = 0usize;
        let mut end = i;
        for (level, bitmap) in self.levels.iter().enumerate() {
            let bit = (sym >> (bits - 1 - level as u32)) & 1 == 1;
            if bit {
                start = self.zeros[level] + bitmap.rank1(start);
                end = self.zeros[level] + bitmap.rank1(end);
            } else {
                start = bitmap.rank0(start);
                end = bitmap.rank0(end);
            }
        }
        end - start
    }

    /// Position of the `k`-th occurrence (1-based) of `sym`, or `None`.
    /// `O(log σ)`: descend to the bottom-level block of `sym`, then walk
    /// back up with one select per level.
    pub fn select_sym(&self, sym: u64, k: usize) -> Option<usize> {
        if k == 0 || sym >= self.alphabet_size || k > self.rank_sym(sym, self.len) {
            return None;
        }
        let bits = self.levels.len() as u32;
        // First bottom-level slot of `sym`'s block: tabulated for small
        // alphabets, otherwise one descent from position 0.
        let start = match self.path_starts.get(sym as usize) {
            Some(&bucket) => bucket,
            None => self.descend(0, sym),
        };
        // With `k <= count(sym)` the k-th occurrence sits at bottom slot
        // `start + k - 1`; map it back up with one select per level.
        let mut pos = start + k - 1;
        for level in (0..self.levels.len()).rev() {
            let bitmap = &self.levels[level];
            let bit = (sym >> (bits - 1 - level as u32)) & 1 == 1;
            if bit {
                pos = bitmap.select1(pos - self.zeros[level] + 1)?;
            } else {
                pos = bitmap.select0(pos + 1)?;
            }
        }
        Some(pos)
    }
}

impl SequenceIndex<u64> for WaveletMatrix {
    fn len(&self) -> usize {
        self.len
    }

    fn access(&self, i: usize) -> u64 {
        self.access_sym(i)
    }

    fn rank(&self, sym: u64, i: usize) -> usize {
        self.rank_sym(sym, i)
    }

    fn select(&self, sym: u64, k: usize) -> Option<usize> {
        self.select_sym(sym, k)
    }
}

impl sxsi_verify::Verify for WaveletMatrix {
    /// Checks level count/lengths, the `zeros[]` table against each level's
    /// actual zero count, and (for tabulated alphabets) that the bucket
    /// starts equal a fresh descent and are monotone.
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        ctx.check("wm-alphabet", self.alphabet_size > 0, || "alphabet size is zero".into());
        let bits =
            if self.alphabet_size <= 1 { 1 } else { bits_for(self.alphabet_size - 1) } as usize;
        ctx.check("wm-level-count", self.levels.len() == bits, || {
            format!("alphabet {} needs {bits} levels, holding {}", self.alphabet_size, self.levels.len())
        });
        let mut level_len_ok = true;
        let mut zeros_ok = self.zeros.len() == self.levels.len();
        for (l, level) in self.levels.iter().enumerate() {
            level_len_ok &= level.len() == self.len;
            zeros_ok &= self.zeros.get(l) == Some(&level.count_zeros());
            ctx.enter("level", |ctx| level.verify_into(depth, ctx));
        }
        ctx.check("wm-level-len", level_len_ok, || {
            format!("a level bitmap does not hold {} bits", self.len)
        });
        ctx.check("wm-zeros", zeros_ok, || {
            "zeros[] table disagrees with the level bitmaps' zero counts".into()
        });
        if ctx.issue_count() > issues_before {
            return;
        }
        let expected = self.compute_path_starts();
        ctx.check("wm-path-starts", self.path_starts == expected, || {
            "bucket-start table disagrees with a fresh descent".into()
        });
        // The bottom level orders buckets by the *bit-reversed* symbol (each
        // level stably moves zero-bit symbols to the front), so monotonicity
        // holds along that order, not along symbol value.
        let bits_u32 = self.levels.len() as u32;
        let mut order: Vec<u64> = (0..expected.len() as u64).collect();
        order.sort_by_key(|&s| s.reverse_bits() >> (64 - bits_u32.max(1)));
        ctx.check(
            "wm-bucket-monotone",
            order.windows(2).all(|w| expected[w[0] as usize] <= expected[w[1] as usize])
                && expected.iter().all(|&b| b <= self.len),
            || "bottom-level bucket starts are not monotone in bit-reversed order".into(),
        );
    }
}

impl SpaceUsage for WaveletMatrix {
    fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.size_bytes()).sum::<usize>()
            + crate::slice_bytes(&self.zeros)
            + crate::slice_bytes(&self.path_starts)
    }
}

impl WriteInto for WaveletMatrix {
    /// Encoding: `len`, `alphabet_size`, then each level bitmap.  The
    /// `zeros` array is derived (each level's zero count) and rebuilt on
    /// load.
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_usize(w, self.len)?;
        write_u64(w, self.alphabet_size)?;
        for level in &self.levels {
            level.write_into(w)?;
        }
        Ok(())
    }
}

impl ReadFrom for WaveletMatrix {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let len = read_usize(r)?;
        let alphabet_size = read_u64(r)?;
        if alphabet_size == 0 {
            return Err(corrupt("WaveletMatrix alphabet size must be positive"));
        }
        let bits = if alphabet_size == 1 { 1 } else { bits_for(alphabet_size - 1) };
        let mut levels = Vec::with_capacity(bits as usize);
        let mut zeros = Vec::with_capacity(bits as usize);
        for level in 0..bits {
            let bitmap = InterleavedRsBitVector::read_from(r)?;
            if bitmap.len() != len {
                return Err(corrupt(format!(
                    "WaveletMatrix level {level} has {} bits, expected {len}",
                    bitmap.len()
                )));
            }
            zeros.push(bitmap.count_zeros());
            levels.push(bitmap);
        }
        let mut wm = Self { levels, zeros, path_starts: Vec::new(), len, alphabet_size };
        wm.path_starts = wm.compute_path_starts();
        Ok(wm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavelet::check_sequence_index;

    #[test]
    fn empty_sequence() {
        let wm = WaveletMatrix::new(&[], 16);
        assert_eq!(wm.len(), 0);
        assert!(wm.is_empty());
        assert_eq!(wm.rank_sym(3, 0), 0);
        assert_eq!(wm.select_sym(3, 1), None);
    }

    #[test]
    fn single_symbol_alphabet() {
        let seq = vec![0u64; 10];
        let wm = WaveletMatrix::new(&seq, 1);
        check_sequence_index(&seq, &wm);
    }

    #[test]
    fn small_known_sequence() {
        // The classic wavelet-matrix example sequence.
        let seq: Vec<u64> = vec![3, 7, 1, 0, 2, 6, 4, 5, 3, 1, 7, 0];
        let wm = WaveletMatrix::new(&seq, 8);
        check_sequence_index(&seq, &wm);
        assert_eq!(wm.level_count(), 3);
        assert_eq!(wm.count(3), 2);
        assert_eq!(wm.count(9), 0);
        assert_eq!(wm.select_sym(9, 1), None);
    }

    #[test]
    fn non_power_of_two_alphabet() {
        let seq: Vec<u64> = (0..500).map(|i| (i * 37) % 11).collect();
        let wm = WaveletMatrix::new(&seq, 11);
        check_sequence_index(&seq, &wm);
    }

    #[test]
    fn byte_alphabet_like_bwt() {
        let seq: Vec<u64> = (0..2000).map(|i| ((i * 131) % 251) as u64).collect();
        let wm = WaveletMatrix::new(&seq, 256);
        check_sequence_index(&seq, &wm);
    }

    #[test]
    fn skewed_distribution() {
        let seq: Vec<u64> = (0..1000).map(|i| if i % 50 == 0 { (i / 50) as u64 % 20 } else { 0 }).collect();
        let wm = WaveletMatrix::new(&seq, 20);
        check_sequence_index(&seq, &wm);
    }

    #[test]
    #[should_panic(expected = "outside the alphabet")]
    fn out_of_alphabet_symbol_panics() {
        WaveletMatrix::new(&[0, 5], 5);
    }

    #[test]
    fn alphabet_too_large_to_tabulate_uses_two_pointer_descent() {
        // Above PATH_START_MAX_ALPHABET no bucket-start table is built, so
        // rank/select take the two-endpoint path; answers must not change.
        let sigma = PATH_START_MAX_ALPHABET + 10;
        let seq: Vec<u64> = (0..4000).map(|i| ((i * 2654435761usize) as u64) % sigma).collect();
        let wm = WaveletMatrix::new(&seq, sigma);
        assert!(wm.path_starts.is_empty());
        check_sequence_index(&seq, &wm);
        let back = WaveletMatrix::from_bytes(&wm.to_bytes()).unwrap();
        assert!(back.path_starts.is_empty());
        check_sequence_index(&seq, &back);
    }

    #[test]
    fn serialization_roundtrip() {
        for (n, sigma) in [(0usize, 4u64), (1, 4), (100, 3), (1000, 256)] {
            let seq: Vec<u64> = (0..n).map(|i| ((i * 17) as u64) % sigma).collect();
            let wm = WaveletMatrix::new(&seq, sigma);
            let back = WaveletMatrix::from_bytes(&wm.to_bytes()).unwrap();
            check_sequence_index(&seq, &back);
            assert_eq!(back.alphabet_size(), sigma);
        }
    }

    #[test]
    fn serialization_rejects_truncation() {
        let seq: Vec<u64> = (0..300).map(|i| (i % 7) as u64).collect();
        let wm = WaveletMatrix::new(&seq, 7);
        let bytes = wm.to_bytes();
        for cut in 0..bytes.len() {
            assert!(WaveletMatrix::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn clean_matrix_verifies() {
        use sxsi_verify::{Verify, VerifyDepth};
        let seq: Vec<u64> = (0..500).map(|i| (i * 37) % 11).collect();
        let wm = WaveletMatrix::new(&seq, 11);
        let report = wm.verify(VerifyDepth::Deep);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn drifted_zeros_and_bucket_starts_are_caught() {
        use sxsi_verify::{Verify, VerifyDepth};
        let seq: Vec<u64> = (0..500).map(|i| (i * 37) % 11).collect();
        let mut wm = WaveletMatrix::new(&seq, 11);
        wm.zeros[1] += 1;
        assert!(wm.verify(VerifyDepth::Quick).has_code("wm-zeros"));

        let mut wm = WaveletMatrix::new(&seq, 11);
        wm.path_starts[3] += 1;
        assert!(wm.verify(VerifyDepth::Quick).has_code("wm-path-starts"));
    }

    #[test]
    fn serialization_rejects_level_length_mismatch() {
        let seq: Vec<u64> = (0..64).map(|i| (i % 4) as u64).collect();
        let wm = WaveletMatrix::new(&seq, 4);
        let mut bytes = wm.to_bytes();
        // Shrink the declared sequence length: level bitmaps no longer match.
        bytes[0] = 32;
        assert!(WaveletMatrix::from_bytes(&bytes).is_err());
    }
}
