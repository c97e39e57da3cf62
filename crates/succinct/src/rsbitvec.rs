//! Static bitvector with constant-time rank and fast select.
//!
//! The structure follows the classical two-level rank directory used by the
//! practical implementations the paper builds on (Claude & Navarro, SPIRE
//! 2008): the bit array is divided into 512-bit *superblocks*; for each
//! superblock we store the absolute number of ones before it, and for each
//! 64-bit word inside a superblock we store a 16-bit relative count.  `rank`
//! is then two array reads plus one masked popcount.  `select` uses a sampled
//! position array (one sample every 8192 ones/zeros) to narrow down the
//! superblock, then scans words; this is the "darray-light" strategy that is
//! near-constant time in practice.  In the index it is the upper-bits
//! bitmap of [`crate::EliasFano`]; every other bitmap is a
//! [`crate::InterleavedRsBitVector`].

use crate::bits::{ceil_div, select0_in_word, select_in_word};
use crate::{BitVec, SpaceUsage};
use sxsi_io::{corrupt, read_u64_vec, read_usize, write_u64_slice, write_usize, IoError, ReadFrom, WriteInto};

const WORDS_PER_SUPERBLOCK: usize = 8; // 512 bits
const SELECT_SAMPLE: usize = 8192;

/// Immutable bitvector supporting `rank0/rank1/select0/select1/access`.
#[derive(Clone, Debug)]
pub struct RsBitVector {
    words: Vec<u64>,
    len: usize,
    ones: usize,
    /// Absolute rank1 before each superblock.
    superblock_rank: Vec<u64>,
    /// Relative rank1 of each word within its superblock (16 bits suffice for 512-bit blocks).
    word_rank: Vec<u16>,
    /// Superblock index containing the (i*SELECT_SAMPLE + 1)-th one.
    select1_samples: Vec<u32>,
    /// Superblock index containing the (i*SELECT_SAMPLE + 1)-th zero.
    select0_samples: Vec<u32>,
}

impl RsBitVector {
    /// Builds the rank/select structure from a construction-time [`BitVec`].
    pub fn new(bits: &BitVec) -> Self {
        Self::from_words(bits.words().to_vec(), bits.len())
    }

    /// Builds from raw words and a bit length.  Unused high bits of the last
    /// word must be zero.
    pub fn from_words(mut words: Vec<u64>, len: usize) -> Self {
        let needed = ceil_div(len, 64);
        words.truncate(needed);
        words.resize(needed, 0);
        if len % 64 != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (len % 64)) - 1;
            }
        }
        let n_super = ceil_div(needed.max(1), WORDS_PER_SUPERBLOCK);
        let mut superblock_rank = Vec::with_capacity(n_super + 1);
        let mut word_rank = Vec::with_capacity(needed);
        let mut total: u64 = 0;
        for sb in 0..n_super {
            superblock_rank.push(total);
            let mut within: u16 = 0;
            for w in 0..WORDS_PER_SUPERBLOCK {
                let idx = sb * WORDS_PER_SUPERBLOCK + w;
                if idx >= needed {
                    break;
                }
                word_rank.push(within);
                let ones = words[idx].count_ones();
                within += ones as u16;
                total += ones as u64;
            }
        }
        superblock_rank.push(total);
        let ones = total as usize;

        // Select samples: superblock containing each sampled 1 / 0.
        let mut select1_samples = Vec::new();
        let mut select0_samples = Vec::new();
        {
            let mut next1 = 1usize;
            let mut next0 = 1usize;
            let mut seen1 = 0usize;
            for sb in 0..n_super {
                let sb_ones = (superblock_rank[sb + 1] - superblock_rank[sb]) as usize;
                let sb_bits = ((sb + 1) * WORDS_PER_SUPERBLOCK * 64).min(len).saturating_sub(sb * WORDS_PER_SUPERBLOCK * 64);
                let sb_zeros = sb_bits - sb_ones;
                let seen0 = sb * WORDS_PER_SUPERBLOCK * 64 - seen1;
                while next1 <= seen1 + sb_ones && next1 <= ones {
                    select1_samples.push(sb as u32);
                    next1 += SELECT_SAMPLE;
                }
                while next0 <= seen0 + sb_zeros && next0 <= len - ones {
                    select0_samples.push(sb as u32);
                    next0 += SELECT_SAMPLE;
                }
                seen1 += sb_ones;
            }
        }

        Self { words, len, ones, superblock_rank, word_rank, select1_samples, select0_samples }
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

    /// Number of zeros in the whole bitvector.
    #[inline]
    pub fn count_zeros(&self) -> usize {
        self.len - self.ones
    }

    /// Bit at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of ones in positions `[0, i)` (i.e. strictly before `i`).
    ///
    /// `i` may equal `len()`, in which case the total number of ones is
    /// returned.
    #[inline]
    pub fn rank1(&self, i: usize) -> usize {
        debug_assert!(i <= self.len, "rank index {i} out of range (len {})", self.len);
        if i == 0 {
            return 0;
        }
        let word = i / 64;
        let offset = i % 64;
        if word >= self.words.len() {
            return self.ones;
        }
        let sb = word / WORDS_PER_SUPERBLOCK;
        let mut r = self.superblock_rank[sb] as usize + self.word_rank[word] as usize;
        if offset > 0 {
            r += (self.words[word] & ((1u64 << offset) - 1)).count_ones() as usize;
        }
        r
    }

    /// Number of zeros in positions `[0, i)`.
    #[inline]
    pub fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// Position of the `k`-th one (1-based `k`), or `None` if `k` exceeds the
    /// number of ones.
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k == 0 || k > self.ones {
            return None;
        }
        // Narrow to a superblock using the sample, then binary search.
        let sample_idx = (k - 1) / SELECT_SAMPLE;
        let mut lo = self.select1_samples.get(sample_idx).map(|&s| s as usize).unwrap_or(0);
        let mut hi = self
            .select1_samples
            .get(sample_idx + 1)
            .map(|&s| s as usize + 1)
            .unwrap_or(self.superblock_rank.len() - 1);
        // superblock_rank[sb] < k <= superblock_rank[sb+1]
        while lo < hi {
            let mid = (lo + hi) / 2;
            if (self.superblock_rank[mid + 1] as usize) < k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let sb = lo;
        let remaining = k - self.superblock_rank[sb] as usize;
        let start = sb * WORDS_PER_SUPERBLOCK;
        let end = (start + WORDS_PER_SUPERBLOCK).min(self.words.len());
        // Locate the word via the precomputed u16 counts (no data-word
        // popcounts): largest w with word_rank[w] < remaining.
        let mut w = start;
        while w + 1 < end && (self.word_rank[w + 1] as usize) < remaining {
            w += 1;
        }
        let in_word = remaining - self.word_rank[w] as usize;
        let bit = select_in_word(self.words[w], in_word as u32) as usize;
        Some(w * 64 + bit)
    }

    /// Position of the `k`-th zero (1-based `k`).
    pub fn select0(&self, k: usize) -> Option<usize> {
        if k == 0 || k > self.len - self.ones {
            return None;
        }
        let sample_idx = (k - 1) / SELECT_SAMPLE;
        let zeros_before = |sb: usize| -> usize { sb * WORDS_PER_SUPERBLOCK * 64 - self.superblock_rank[sb] as usize };
        let n_super = self.superblock_rank.len() - 1;
        let mut lo = self.select0_samples.get(sample_idx).map(|&s| s as usize).unwrap_or(0);
        let mut hi = self
            .select0_samples
            .get(sample_idx + 1)
            .map(|&s| s as usize + 1)
            .unwrap_or(n_super);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let z_end = ((mid + 1) * WORDS_PER_SUPERBLOCK * 64).min(self.len) - self.superblock_rank[mid + 1] as usize;
            if z_end < k {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let sb = lo;
        let remaining = k - zeros_before(sb);
        let start = sb * WORDS_PER_SUPERBLOCK;
        let end = (start + WORDS_PER_SUPERBLOCK).min(self.words.len());
        // Zeros inside the superblock before word w, from the u16 one-counts.
        // Exact for every complete word; only the vector's final word can be
        // partial, and that word is handled by the mask below.
        let mut w = start;
        while w + 1 < end && (w + 1 - start) * 64 - (self.word_rank[w + 1] as usize) < remaining {
            w += 1;
        }
        let in_word = remaining - ((w - start) * 64 - self.word_rank[w] as usize);
        let valid_bits = (self.len - w * 64).min(64);
        let masked = if valid_bits == 64 { self.words[w] } else { self.words[w] | !((1u64 << valid_bits) - 1) };
        let bit = select0_in_word(masked, in_word as u32) as usize;
        Some(w * 64 + bit)
    }

    /// Position of the first one at position `>= i`, or `None`.
    pub fn next_one(&self, i: usize) -> Option<usize> {
        if i >= self.len {
            return None;
        }
        let r = self.rank1(i);
        self.select1(r + 1)
    }

    /// Underlying words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterator over the positions of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        (1..=self.ones).map(move |k| self.select1(k).expect("k <= ones"))
    }
}

impl sxsi_verify::Verify for RsBitVector {
    /// Recomputes the whole rank directory and the select samples from the
    /// payload words.  Disk corruption cannot reach the directories (they
    /// are rebuilt on load), so these checks guard against in-memory drift
    /// and construction bugs; all of them run at `Quick` depth.
    fn verify_into(&self, _depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let needed = ceil_div(self.len, 64);
        ctx.check("bitvec-word-count", self.words.len() == needed, || {
            format!("{} bits need {needed} words, holding {}", self.len, self.words.len())
        });
        let trailing_ok = self.len % 64 == 0
            || self.words.last().map_or(true, |&w| w >> (self.len % 64) == 0);
        ctx.check("bitvec-trailing-bits", trailing_ok, || {
            format!("non-zero bits past the {}-bit length", self.len)
        });
        let popcount: usize = self.words.iter().map(|w| w.count_ones() as usize).sum();
        ctx.check("bitvec-ones", popcount == self.ones, || {
            format!("payload holds {popcount} ones, cached count says {}", self.ones)
        });
        let n_super = ceil_div(needed.max(1), WORDS_PER_SUPERBLOCK);
        let dims_ok = self.superblock_rank.len() == n_super + 1
            && self.word_rank.len() == self.words.len();
        ctx.check("bitvec-directory-shape", dims_ok, || {
            format!(
                "{n_super} superblocks need {} absolute and {} relative counters, holding {} and {}",
                n_super + 1,
                self.words.len(),
                self.superblock_rank.len(),
                self.word_rank.len()
            )
        });
        if !dims_ok {
            return;
        }
        let mut total: u64 = 0;
        let mut super_ok = true;
        let mut word_ok = true;
        for sb in 0..n_super {
            super_ok &= self.superblock_rank[sb] == total;
            let mut within: u16 = 0;
            for w in 0..WORDS_PER_SUPERBLOCK {
                let idx = sb * WORDS_PER_SUPERBLOCK + w;
                if idx >= self.words.len() {
                    break;
                }
                word_ok &= self.word_rank[idx] == within;
                let ones = self.words[idx].count_ones();
                within += ones as u16;
                total += ones as u64;
            }
        }
        super_ok &= self.superblock_rank[n_super] == total;
        ctx.check("bitvec-superblock-rank", super_ok, || {
            "superblock rank directory disagrees with the payload popcounts".into()
        });
        ctx.check("bitvec-word-rank", word_ok, || {
            "per-word rank directory disagrees with the payload popcounts".into()
        });
        // Each select sample must point at the superblock containing its
        // sampled one/zero: superblock_rank[sb] < k <= superblock_rank[sb+1].
        let zeros = self.len - self.ones;
        let expect1 = ceil_div(self.ones, SELECT_SAMPLE);
        let expect0 = ceil_div(zeros, SELECT_SAMPLE);
        let mut sel_ok = self.select1_samples.len() == expect1 && self.select0_samples.len() == expect0;
        for (i, &s) in self.select1_samples.iter().enumerate() {
            let k = (i * SELECT_SAMPLE + 1) as u64;
            let sb = s as usize;
            sel_ok &= sb < n_super
                && self.superblock_rank[sb] < k
                && k <= self.superblock_rank[sb + 1];
        }
        for (i, &s) in self.select0_samples.iter().enumerate() {
            let k = i * SELECT_SAMPLE + 1;
            let sb = s as usize;
            let zeros_before = |b: usize| {
                (b * WORDS_PER_SUPERBLOCK * 64).min(self.len) - self.superblock_rank[b] as usize
            };
            sel_ok &= sb < n_super && zeros_before(sb) < k && k <= zeros_before(sb + 1);
        }
        ctx.check("bitvec-select-sample", sel_ok, || {
            "select samples do not bracket their sampled positions".into()
        });
    }
}

impl SpaceUsage for RsBitVector {
    fn size_bytes(&self) -> usize {
        crate::slice_bytes(&self.words)
            + crate::slice_bytes(&self.superblock_rank)
            + crate::slice_bytes(&self.word_rank)
            + crate::slice_bytes(&self.select1_samples)
            + crate::slice_bytes(&self.select0_samples)
    }
}

impl From<&BitVec> for RsBitVector {
    fn from(bits: &BitVec) -> Self {
        Self::new(bits)
    }
}

impl WriteInto for RsBitVector {
    /// Only the raw bits are stored; the rank directory and select samples
    /// are rebuilt in one linear pass on load (they are derived data, and
    /// rebuilding keeps the format independent of directory layout).
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_usize(w, self.len)?;
        write_u64_slice(w, &self.words)
    }
}

impl ReadFrom for RsBitVector {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let len = read_usize(r)?;
        let words = read_u64_vec(r)?;
        if words.len() != ceil_div(len, 64) {
            return Err(corrupt(format!(
                "RsBitVector of {len} bits needs {} words, found {}",
                ceil_div(len, 64),
                words.len()
            )));
        }
        if len % 64 != 0 {
            if let Some(&last) = words.last() {
                if last >> (len % 64) != 0 {
                    return Err(corrupt("RsBitVector has non-zero bits past its length"));
                }
            }
        }
        Ok(Self::from_words(words, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(pattern: impl Iterator<Item = bool>) -> (RsBitVector, Vec<bool>) {
        let bits: Vec<bool> = pattern.collect();
        let bv: BitVec = bits.iter().copied().collect();
        (RsBitVector::new(&bv), bits)
    }

    fn check_all(rs: &RsBitVector, bits: &[bool]) {
        let mut ones = 0;
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(rs.rank1(i), ones, "rank1({i})");
            assert_eq!(rs.rank0(i), i - ones, "rank0({i})");
            assert_eq!(rs.get(i), b, "get({i})");
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
    fn small_patterns() {
        for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1000] {
            let (rs, bits) = build((0..n).map(|i| i % 7 == 0 || i % 3 == 1));
            check_all(&rs, &bits);
        }
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let (rs, bits) = build((0..700).map(|_| true));
        check_all(&rs, &bits);
        let (rs, bits) = build((0..700).map(|_| false));
        check_all(&rs, &bits);
    }

    #[test]
    fn sparse_bits() {
        let n = 200_000;
        let (rs, bits) = build((0..n).map(|i| i % 9973 == 0));
        check_all(&rs, &bits);
    }

    #[test]
    fn dense_large() {
        let n = 100_000;
        let (rs, bits) = build((0..n).map(|i| (i * 2654435761usize) % 5 != 0));
        // Spot-check rather than full check for speed.
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
    fn next_one_works() {
        let (rs, _) = build((0..100).map(|i| i == 10 || i == 50 || i == 99));
        assert_eq!(rs.next_one(0), Some(10));
        assert_eq!(rs.next_one(10), Some(10));
        assert_eq!(rs.next_one(11), Some(50));
        assert_eq!(rs.next_one(51), Some(99));
        assert_eq!(rs.next_one(100), None);
    }

    #[test]
    fn serialization_roundtrip_preserves_rank_select() {
        for n in [0usize, 1, 511, 512, 513, 5000] {
            let (rs, bits) = build((0..n).map(|i| i % 7 == 0));
            let back = RsBitVector::from_bytes(&rs.to_bytes()).unwrap();
            check_all(&back, &bits);
        }
    }

    #[test]
    fn serialization_rejects_truncation() {
        let (rs, _) = build((0..1000).map(|i| i % 3 == 0));
        let bytes = rs.to_bytes();
        assert!(RsBitVector::from_bytes(&bytes[..bytes.len() / 2]).is_err());
    }

    #[test]
    fn iter_ones_collects_positions() {
        let (rs, bits) = build((0..300).map(|i| i % 13 == 4));
        let expected: Vec<usize> = bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i).collect();
        let got: Vec<usize> = rs.iter_ones().collect();
        assert_eq!(expected, got);
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use sxsi_verify::{Verify, VerifyDepth};

    fn sample() -> RsBitVector {
        let bits: BitVec = (0..4000).map(|i| i % 5 == 1).collect();
        RsBitVector::new(&bits)
    }

    #[test]
    fn clean_bitvector_verifies() {
        let rs = sample();
        let report = rs.verify(VerifyDepth::Deep);
        assert!(report.is_ok(), "{report}");
        assert!(report.checks_run >= 6);
    }

    #[test]
    fn drifted_directories_are_caught() {
        let mut rs = sample();
        rs.superblock_rank[2] += 1;
        assert!(rs.verify(VerifyDepth::Quick).has_code("bitvec-superblock-rank"));

        let mut rs = sample();
        rs.word_rank[3] += 1;
        assert!(rs.verify(VerifyDepth::Quick).has_code("bitvec-word-rank"));

        let mut rs = sample();
        rs.ones += 1;
        assert!(rs.verify(VerifyDepth::Quick).has_code("bitvec-ones"));

        let mut rs = sample();
        let last = rs.words.len() - 1;
        rs.words[last] |= 1u64 << 63;
        assert!(rs.verify(VerifyDepth::Quick).has_code("bitvec-trailing-bits"));

        let mut rs = sample();
        rs.select1_samples.push(0);
        assert!(rs.verify(VerifyDepth::Quick).has_code("bitvec-select-sample"));
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
            let bv: BitVec = bits.iter().copied().collect();
            let rs = RsBitVector::new(&bv);
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
