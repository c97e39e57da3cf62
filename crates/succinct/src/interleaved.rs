//! Cache-line-interleaved rank/select bitvector: the one bitmap type of
//! the index.
//!
//! [`InterleavedRsBitVector`] stores its rank directory *inline* with the bit
//! data, in the spirit of Vigna's `rank9`: the words are grouped into blocks
//! of eight `u64`s (one 64-byte cache line) where the first word holds the
//! absolute number of ones before the block, the second packs the cumulative
//! in-block counts before each payload word into 10-bit lanes, and the
//! remaining six hold 384 bits of payload.  `rank` therefore touches exactly
//! one cache line and popcounts exactly one word — absolute counter, lane
//! extraction and the data word all arrive with a single memory fetch, where
//! a classical two-array directory (superblock counters, word counters, data
//! words) takes up to three dependent fetches.  This is the "interleaved
//! bitvector" idiom of the practical FM-index/wavelet-matrix libraries the
//! SXSI paper's speed rests on.  It backs the balanced parentheses, the
//! text-leaf map, the FM-index sampling bitmap, the wavelet-tree levels and
//! the upper bits of every [`crate::EliasFano`] sarray.
//!
//! `select` samples one position every 8192 ones/zeros to narrow the search
//! to a block range, a binary search over the inline headers finds the
//! block, the packed lanes pick the word without popcounting, and the
//! broadword [`crate::bits::select_in_word`] finishes inside the word.
//!
//! Space: 8/6 of the plain bit data (≈ 33 % overhead) plus the negligible
//! select samples — traded for the strictly single-fetch `rank`; the final
//! block stores only the payload words it needs.  On disk only the bit
//! length and the plain words are stored.

use crate::bits::{ceil_div, select0_in_word, select_in_word};
use crate::{BitVec, SpaceUsage};
use sxsi_io::{corrupt, read_u64_vec, read_usize, write_usize, IoError, ReadFrom, WriteInto};

/// Payload words per block (two of the cache line's eight words are the
/// absolute-rank header and the packed in-block counts).
const WORDS_PER_BLOCK: usize = 6;
/// Block stride in `u64`s: two header words plus six payload words.
const STRIDE: usize = 8;
/// Header words preceding the payload inside each block.
const HEADER_WORDS: usize = 2;
/// Payload bits covered by one block.
const BLOCK_BITS: usize = WORDS_PER_BLOCK * 64;
/// Bits per packed in-block count lane (counts range over 0..=384, and six
/// 10-bit lanes fit one header word).
const LANE_BITS: usize = 10;
/// One select sample per this many ones/zeros.
const SELECT_SAMPLE: usize = 8192;

/// Length of the interleaved storage for `words` payload words: full
/// blocks, then the final block's headers, its payload words and one zero
/// word (which `rank1(len)` may read), at most six.  Trimming the final
/// block keeps a short bitmap — a rare tag's sarray — from paying for a
/// whole cache line.
fn data_len(words: usize) -> usize {
    let full = words.saturating_sub(1) / WORDS_PER_BLOCK;
    full * STRIDE + HEADER_WORDS + (words - full * WORDS_PER_BLOCK + 1).min(WORDS_PER_BLOCK)
}

/// Immutable bitvector whose rank counters live inline with the bit words,
/// making `rank1` a single cache-line fetch and a single popcount
/// (`O(1)`, one memory access); `select1`/`select0` are
/// `O(log(8192/384))`-with-samples, i.e. near-constant in practice.
#[derive(Clone, Debug)]
pub struct InterleavedRsBitVector {
    /// Interleaved storage: for block `b`, `data[b * 8]` is the absolute
    /// rank1 before the block, `data[b * 8 + 1]` packs the cumulative ones
    /// before each payload word into 10-bit lanes (lane `w` = ones in the
    /// block's words `0..w`), and `data[b * 8 + 2 ..= b * 8 + 7]` are the
    /// payload words.
    data: Vec<u64>,
    len: usize,
    ones: usize,
    /// Block index containing the `(i * SELECT_SAMPLE + 1)`-th one.
    select1_samples: Vec<u32>,
    /// Block index containing the `(i * SELECT_SAMPLE + 1)`-th zero.
    select0_samples: Vec<u32>,
}

impl InterleavedRsBitVector {
    /// Builds the structure from a construction-time [`BitVec`].
    pub fn new(bits: &BitVec) -> Self {
        Self::from_words(bits.words().to_vec(), bits.len())
    }

    /// Builds from raw (non-interleaved) words and a bit length.  Unused
    /// high bits of the last word must be zero (they are masked off anyway).
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        let needed = ceil_div(len, 64);
        words.truncate(needed);
        words.resize(needed, 0);
        if len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        let n_blocks = ceil_div(needed.max(1), WORDS_PER_BLOCK);
        let mut data = vec![0u64; data_len(needed)];
        let mut total: u64 = 0;
        for b in 0..n_blocks {
            data[b * STRIDE] = total;
            let mut lanes = 0u64;
            let mut in_block = 0u64;
            for w in 0..WORDS_PER_BLOCK {
                lanes |= in_block << (LANE_BITS * w);
                let idx = b * WORDS_PER_BLOCK + w;
                if idx >= needed {
                    continue;
                }
                let word = words[idx];
                data[b * STRIDE + HEADER_WORDS + w] = word;
                in_block += word.count_ones() as u64;
            }
            data[b * STRIDE + 1] = lanes;
            total += in_block;
        }
        let ones = total as usize;

        // Select samples: block containing each sampled 1 / 0.
        let mut select1_samples = Vec::new();
        let mut select0_samples = Vec::new();
        {
            let mut next1 = 1usize;
            let mut next0 = 1usize;
            let mut seen1 = 0usize;
            for b in 0..n_blocks {
                let block_end_bits = ((b + 1) * BLOCK_BITS).min(len);
                let block_bits = block_end_bits.saturating_sub(b * BLOCK_BITS);
                let next_rank = if b + 1 < n_blocks {
                    data[(b + 1) * STRIDE] as usize
                } else {
                    ones
                };
                let block_ones = next_rank - seen1;
                let block_zeros = block_bits - block_ones;
                let seen0 = b * BLOCK_BITS - seen1;
                while next1 <= seen1 + block_ones && next1 <= ones {
                    select1_samples.push(b as u32);
                    next1 += SELECT_SAMPLE;
                }
                while next0 <= seen0 + block_zeros && next0 <= len - ones {
                    select0_samples.push(b as u32);
                    next0 += SELECT_SAMPLE;
                }
                seen1 += block_ones;
            }
        }

        Self { data, len, ones, select1_samples, select0_samples }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of ones in the whole bitvector.
    #[inline]
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    /// Number of blocks (header + payload cache lines).
    #[inline]
    fn n_blocks(&self) -> usize {
        ceil_div(self.data.len(), STRIDE)
    }

    /// Absolute rank1 before block `b` (reading one past the last block
    /// yields the total).
    #[inline]
    fn block_rank(&self, b: usize) -> usize {
        if b >= self.n_blocks() {
            self.ones
        } else {
            self.data[b * STRIDE] as usize
        }
    }

    /// Cumulative ones before payload word `w` of block `b` (from the
    /// packed 10-bit lanes of the block's second header word).
    #[inline]
    fn lane(&self, base: usize, w: usize) -> usize {
        ((self.data[base + 1] >> (LANE_BITS * w)) & ((1 << LANE_BITS) - 1)) as usize
    }

    /// Payload word `w` (0-based over the plain, non-interleaved layout).
    #[inline]
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.data[(w / WORDS_PER_BLOCK) * STRIDE + HEADER_WORDS + (w % WORDS_PER_BLOCK)]
    }

    /// The payload words in order, `ceil(len / 64)` of them: bit `k` of
    /// word `w` is position `64 * w + k`.
    pub fn words(&self) -> impl Iterator<Item = u64> + '_ {
        let payload = self.data.chunks(STRIDE).flat_map(|block| block[HEADER_WORDS..].iter().copied());
        payload.take(ceil_div(self.len, 64))
    }

    /// Bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        (self.word(i / 64) >> (i % 64)) & 1 == 1
    }

    /// The eight bits at positions `i..i + 8`, bit `k` of the result
    /// holding position `i + k`; `i + 8` may equal `len()`.
    #[inline]
    pub fn byte_at(&self, i: usize) -> u8 {
        debug_assert!(i + 8 <= self.len, "byte at {i} out of range (len {})", self.len);
        let (w, offset) = (i / 64, i % 64);
        let mut bits = self.word(w) >> offset;
        if offset > 56 {
            bits |= self.word(w + 1) << (64 - offset);
        }
        bits as u8
    }

    /// Number of ones in positions `[0, i)`; `i` may equal `len()`.
    ///
    /// `O(1)` with exactly one popcount: the absolute counter, the packed
    /// in-block lane and the data word all live in the same 64-byte block,
    /// so the whole computation is one cache-line fetch.
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len, "rank index {i} out of range (len {})", self.len);
        let b = i / BLOCK_BITS;
        if b >= self.n_blocks() {
            return self.ones;
        }
        let base = b * STRIDE;
        let word_in_block = (i % BLOCK_BITS) / 64;
        let offset = i % 64;
        // `(1 << offset) - 1` is an all-zeros mask when `offset == 0`, so no
        // branch is needed for word-aligned positions.
        let partial = self.data[base + HEADER_WORDS + word_in_block]
            & (1u64 << offset).wrapping_sub(1);
        self.data[base] as usize + self.lane(base, word_in_block) + partial.count_ones() as usize
    }

    /// Position of the `k`-th one (1-based `k`), or `None` if `k` exceeds
    /// the number of ones.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k == 0 || k > self.ones {
            return None;
        }
        // Narrow to a block range with the sample, then binary search the
        // inline headers: block_rank(b) < k <= block_rank(b + 1).
        let sample_idx = (k - 1) / SELECT_SAMPLE;
        let mut lo = self.select1_samples.get(sample_idx).map(|&s| s as usize).unwrap_or(0);
        let mut hi = self
            .select1_samples
            .get(sample_idx + 1)
            .map(|&s| s as usize + 1)
            .unwrap_or(self.n_blocks());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.block_rank(mid + 1) < k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let b = lo;
        let base = b * STRIDE;
        let remaining = k - self.data[base] as usize;
        // The packed lanes locate the word without popcounting the payload.
        let mut w = 0;
        while w + 1 < WORDS_PER_BLOCK && self.lane(base, w + 1) < remaining {
            w += 1;
        }
        let in_word = remaining - self.lane(base, w);
        let word = self.data[base + HEADER_WORDS + w];
        let bit = select_in_word(word, in_word as u32) as usize;
        debug_assert!(bit < 64, "select1 ran past the block located by the headers");
        Some(b * BLOCK_BITS + w * 64 + bit)
    }

    /// Position of the `k`-th zero (1-based `k`).
    pub fn select0(&self, k: usize) -> Option<usize> {
        if k == 0 || k > self.len - self.ones {
            return None;
        }
        let zeros_before = |b: usize| -> usize {
            (b * BLOCK_BITS).min(self.len) - self.block_rank(b)
        };
        let sample_idx = (k - 1) / SELECT_SAMPLE;
        let mut lo = self.select0_samples.get(sample_idx).map(|&s| s as usize).unwrap_or(0);
        let mut hi = self
            .select0_samples
            .get(sample_idx + 1)
            .map(|&s| s as usize + 1)
            .unwrap_or(self.n_blocks());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if zeros_before(mid + 1) < k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let b = lo;
        let base = b * STRIDE;
        let remaining = k - zeros_before(b);
        // Zeros before word `w` of the block = bits before it minus the
        // packed ones count; the lanes locate the word without popcounting.
        let mut w = 0;
        while w + 1 < WORDS_PER_BLOCK && 64 * (w + 1) - self.lane(base, w + 1) < remaining {
            w += 1;
        }
        let bit_base = b * BLOCK_BITS + w * 64;
        debug_assert!(bit_base < self.len, "select0 ran past the block located by the headers");
        let in_word = remaining - (64 * w - self.lane(base, w));
        let valid_bits = (self.len - bit_base).min(64);
        let word = self.data[base + HEADER_WORDS + w];
        // Bits past the logical length are stored as zero; mask them to
        // ones so they are never selected.
        let masked = if valid_bits == 64 { word } else { word | !((1u64 << valid_bits) - 1) };
        let bit = select0_in_word(masked, in_word as u32) as usize;
        debug_assert!(bit < 64, "select0 ran past the word located by the headers");
        Some(bit_base + bit)
    }

    /// The payload words in plain (non-interleaved) order.
    fn to_plain_words(&self) -> Vec<u64> {
        let needed = ceil_div(self.len, 64);
        (0..needed).map(|w| self.word(w)).collect()
    }
}

impl sxsi_verify::Verify for InterleavedRsBitVector {
    /// Recomputes the inline block headers (absolute counters and packed
    /// lanes) and the select samples from the payload words.  The
    /// directories are rebuilt on load, so these checks guard in-memory
    /// drift; all run at `Quick` depth.
    fn verify_into(&self, _depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let needed = ceil_div(self.len, 64);
        let n_blocks = ceil_div(needed.max(1), WORDS_PER_BLOCK);
        ctx.check("bitvec-block-count", self.data.len() == data_len(needed), || {
            format!("{} bits need {} interleaved words, holding {}", self.len, data_len(needed), self.data.len())
        });
        if self.data.len() != data_len(needed) {
            return;
        }
        // Payload bits past the logical length (including the final block's
        // zero word) must be all zero.
        let stored = self.data.len() - n_blocks * HEADER_WORDS;
        let mut trailing_ok = self.len % 64 == 0 || self.word(needed - 1) >> (self.len % 64) == 0;
        for w in needed..stored {
            trailing_ok &= self.word(w) == 0;
        }
        ctx.check("bitvec-trailing-bits", trailing_ok, || {
            format!("non-zero payload bits past the {}-bit length", self.len)
        });
        let mut total: u64 = 0;
        let mut block_ok = true;
        let mut lane_ok = true;
        for b in 0..n_blocks {
            let base = b * STRIDE;
            block_ok &= self.data[base] == total;
            let mut in_block = 0u64;
            for w in 0..WORDS_PER_BLOCK {
                lane_ok &= self.lane(base, w) as u64 == in_block;
                in_block += self.data.get(base + HEADER_WORDS + w).map_or(0, |word| word.count_ones() as u64);
            }
            total += in_block;
        }
        ctx.check("bitvec-block-rank", block_ok, || {
            "inline absolute rank counters disagree with the payload popcounts".into()
        });
        ctx.check("bitvec-lane", lane_ok, || {
            "packed in-block count lanes disagree with the payload popcounts".into()
        });
        ctx.check("bitvec-ones", total as usize == self.ones, || {
            format!("payload holds {total} ones, cached count says {}", self.ones)
        });
        // Each select sample must point at the block containing its sampled
        // one/zero.
        let zeros = self.len - self.ones;
        let expect1 = ceil_div(self.ones, SELECT_SAMPLE);
        let expect0 = ceil_div(zeros, SELECT_SAMPLE);
        let mut sel_ok = self.select1_samples.len() == expect1 && self.select0_samples.len() == expect0;
        let zeros_before = |b: usize| (b * BLOCK_BITS).min(self.len) - self.block_rank(b);
        for (i, &s) in self.select1_samples.iter().enumerate() {
            let k = i * SELECT_SAMPLE + 1;
            let b = s as usize;
            sel_ok &= b < n_blocks && self.block_rank(b) < k && k <= self.block_rank(b + 1);
        }
        for (i, &s) in self.select0_samples.iter().enumerate() {
            let k = i * SELECT_SAMPLE + 1;
            let b = s as usize;
            sel_ok &= b < n_blocks && zeros_before(b) < k && k <= zeros_before(b + 1);
        }
        ctx.check("bitvec-select-sample", sel_ok, || {
            "select samples do not bracket their sampled positions".into()
        });
    }
}

impl SpaceUsage for InterleavedRsBitVector {
    fn size_bytes(&self) -> usize {
        crate::slice_bytes(&self.data)
            + crate::slice_bytes(&self.select1_samples)
            + crate::slice_bytes(&self.select0_samples)
    }
}

impl From<&BitVec> for InterleavedRsBitVector {
    fn from(bits: &BitVec) -> Self {
        Self::new(bits)
    }
}

impl WriteInto for InterleavedRsBitVector {
    /// Only the bit length and the raw bits are stored (in plain word
    /// order); the interleaved layout and select samples are rebuilt in one
    /// linear pass on load, so the encoding is independent of the directory.
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_usize(w, self.len)?;
        sxsi_io::write_u64_slice(w, &self.to_plain_words())
    }
}

impl ReadFrom for InterleavedRsBitVector {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let len = read_usize(r)?;
        let words = read_u64_vec(r)?;
        if words.len() != ceil_div(len, 64) {
            return Err(corrupt(format!(
                "InterleavedRsBitVector of {len} bits needs {} words, found {}",
                ceil_div(len, 64),
                words.len()
            )));
        }
        if len % 64 != 0 {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(corrupt("InterleavedRsBitVector has non-zero bits past its length"));
                }
            }
        }
        Ok(Self::from_words(words, len))
    }
}

#[cfg(test)]
impl InterleavedRsBitVector {
    /// Iterator over the positions of set bits, one `select1` each.
    pub(crate) fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (1..=self.ones).map(move |k| self.select1(k).expect("k <= ones"))
    }

    /// Copies of `self` with one in-memory directory field drifted each,
    /// paired with the verify code that must catch the drift.  `self` must
    /// span at least three blocks.
    pub(crate) fn drifted_copies(&self) -> Vec<(Self, &'static str)> {
        let mut block_rank = self.clone();
        block_rank.data[2 * STRIDE] += 1; // absolute counter of block 2
        let mut lane = self.clone();
        lane.data[2 * STRIDE + 1] += 1; // packed lanes of block 2
        let mut ones = self.clone();
        ones.ones += 1;
        let mut trailing = self.clone();
        let last = trailing.data.len() - 1;
        trailing.data[last] |= 1u64 << 63; // padding word of the final block
        let mut select = self.clone();
        select.select1_samples.push(0);
        vec![
            (block_rank, "bitvec-block-rank"),
            (lane, "bitvec-lane"),
            (ones, "bitvec-ones"),
            (trailing, "bitvec-trailing-bits"),
            (select, "bitvec-select-sample"),
        ]
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use sxsi_verify::{Verify, VerifyDepth};

    fn sample() -> InterleavedRsBitVector {
        let bits: BitVec = (0..4000).map(|i| i % 5 == 1).collect();
        InterleavedRsBitVector::new(&bits)
    }

    #[test]
    fn clean_bitvector_verifies() {
        let report = sample().verify(VerifyDepth::Deep);
        assert!(report.is_ok(), "{report}");
        assert!(report.checks_run >= 5);
    }

    #[test]
    fn drifted_headers_are_caught() {
        let drifted = sample().drifted_copies();
        assert_eq!(drifted.len(), 5);
        for (rs, code) in drifted {
            assert!(rs.verify(VerifyDepth::Quick).has_code(code), "{code}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(pattern: impl Iterator<Item = bool>) -> (InterleavedRsBitVector, Vec<bool>) {
        let bits: Vec<bool> = pattern.collect();
        let bv: BitVec = bits.iter().copied().collect();
        (InterleavedRsBitVector::new(&bv), bits)
    }

    fn check_all(rs: &InterleavedRsBitVector, bits: &[bool]) {
        let mut ones = 0;
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(rs.rank1(i), ones, "rank1({i})");
            assert_eq!(rs.get(i), b, "get({i})");
            if let Some(window) = bits.get(i..i + 8) {
                let expected = window.iter().rev().fold(0u8, |acc, &bit| acc << 1 | bit as u8);
                assert_eq!(rs.byte_at(i), expected, "byte_at({i})");
            }
            if b {
                ones += 1;
                assert_eq!(rs.select1(ones), Some(i), "select1({ones})");
            } else {
                assert_eq!(rs.select0(i + 1 - ones), Some(i), "select0({})", i + 1 - ones);
            }
        }
        assert_eq!(rs.rank1(bits.len()), ones);
        assert_eq!(rs.count_ones(), ones);
        assert_eq!(rs.select1(ones + 1), None);
        assert_eq!(rs.select1(0), None);
        assert_eq!(rs.select0(bits.len() - ones + 1), None);
    }

    #[test]
    fn empty() {
        let (rs, _) = build(std::iter::empty());
        assert_eq!(rs.len(), 0);
        assert_eq!(rs.rank1(0), 0);
        assert_eq!(rs.select1(1), None);
        assert_eq!(rs.select0(1), None);
    }

    #[test]
    fn block_boundary_lengths() {
        // 384-bit block boundaries are this layout's critical geometry, on
        // top of the 64-bit word boundaries.
        for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 383, 384, 385, 447, 448, 449, 767, 768, 769, 1000] {
            let (rs, bits) = build((0..n).map(|i| i % 7 == 0 || i % 3 == 1));
            check_all(&rs, &bits);
        }
    }

    #[test]
    fn final_block_holds_only_the_words_it_needs() {
        // Headers, the payload words and one zero word, at most a full block.
        for (n, words) in [(0usize, 3usize), (64, 4), (320, 8), (383, 8), (384, 8), (385, 12), (768, 16)] {
            let (rs, bits) = build((0..n).map(|i| i % 5 == 0));
            assert_eq!(rs.data.len(), words, "n={n}");
            check_all(&rs, &bits);
        }
    }

    #[test]
    fn all_ones_and_all_zeros() {
        for n in [383usize, 384, 385, 767, 768, 769, 900] {
            let (rs, bits) = build((0..n).map(|_| true));
            check_all(&rs, &bits);
            let (rs, bits) = build((0..n).map(|_| false));
            check_all(&rs, &bits);
        }
    }

    #[test]
    fn sparse_crossing_select_samples() {
        let n = 200_000;
        let (rs, bits) = build((0..n).map(|i| i % 9973 == 0));
        check_all(&rs, &bits);
    }

    #[test]
    fn dense_large_spot_checks() {
        let n = 100_000;
        let (rs, bits) = build((0..n).map(|i| (i * 2654435761usize) % 5 != 0));
        let mut ones = 0;
        for (i, &b) in bits.iter().enumerate() {
            if i % 997 == 0 {
                assert_eq!(rs.rank1(i), ones);
            }
            if b {
                ones += 1;
                if ones % 1000 == 0 {
                    assert_eq!(rs.select1(ones), Some(i));
                }
            }
        }
    }

    #[test]
    fn iter_ones_collects_positions() {
        let (rs, bits) = build((0..900).map(|i| i % 13 == 4));
        let expected: Vec<usize> = bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        assert_eq!(rs.iter_ones().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn serialization_roundtrip_preserves_rank_select() {
        for n in [0usize, 1, 383, 384, 385, 767, 768, 769, 5000] {
            let (rs, bits) = build((0..n).map(|i| i % 7 == 0));
            let back = InterleavedRsBitVector::from_bytes(&rs.to_bytes()).unwrap();
            check_all(&back, &bits);
        }
    }

    #[test]
    fn serialization_matches_classic_layout() {
        // The body every bitmap of the format has: the bit length, then the
        // plain (non-interleaved) words as a length-prefixed `u64` slice.
        let bits: BitVec = (0..1000).map(|i| i % 11 == 3).collect();
        let mut expected = Vec::new();
        write_usize(&mut expected, bits.len()).unwrap();
        sxsi_io::write_u64_slice(&mut expected, bits.words()).unwrap();
        assert_eq!(InterleavedRsBitVector::new(&bits).to_bytes(), expected);
        let back = InterleavedRsBitVector::from_bytes(&expected).unwrap();
        assert_eq!(back.count_ones(), bits.count_ones());
    }

    #[test]
    fn serialization_rejects_truncation_and_trailing_bits() {
        let (rs, _) = build((0..1000).map(|i| i % 3 == 0));
        let bytes = rs.to_bytes();
        for cut in 0..bytes.len() {
            assert!(InterleavedRsBitVector::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Non-zero bits past the declared length are rejected.
        let mut dirty = bytes.clone();
        let last = dirty.len() - 1;
        dirty[last] |= 0x80;
        assert!(InterleavedRsBitVector::from_bytes(&dirty).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn rank_select_agree_with_naive(bits in proptest::collection::vec(any::<bool>(), 0..2000)) {
            let rs = InterleavedRsBitVector::new(&bits.iter().copied().collect());
            let mut ones = 0usize;
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(rs.rank1(i), ones);
                if b {
                    ones += 1;
                    prop_assert_eq!(rs.select1(ones), Some(i));
                } else {
                    prop_assert_eq!(rs.select0(i + 1 - ones), Some(i));
                }
            }
            prop_assert_eq!(rs.count_ones(), ones);
        }
    }
}
