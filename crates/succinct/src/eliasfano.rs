//! Elias–Fano encoding of monotone integer sequences.
//!
//! This is the structure the paper calls *sarray* (Okanohara & Sadakane,
//! ALENEX 2007): a strictly compressed representation of a sparse set of
//! positions supporting
//!
//! * `select(k)` — the k-th smallest stored position (constant time via a
//!   select directory on the upper bits), and
//! * `rank(p)` / `successor(p)` — how many stored positions are `< p`, and
//!   the first stored position `>= p`.
//!
//! SXSI uses one sarray per tag symbol to answer `TaggedDesc`, `TaggedFoll`
//! and `SubtreeTags` (Section 4.1.2), and one for the text-start positions
//! used by the auxiliary plain-text store (Section 3.4).
//!
//! For `m` values in a universe of size `u` the space is
//! `m * (2 + ceil(log2(u/m)))` bits plus a small select directory.

use crate::bits::{bits_for, ceil_div};
use crate::{RsBitVector, SpaceUsage};
use sxsi_io::{corrupt, read_u32, read_u64, read_u64_vec, read_usize, write_u32, write_u64, write_u64_slice, write_usize, IoError, ReadFrom, WriteInto};

/// Compressed monotone sequence (a.k.a. sparse bit set) with rank/select.
#[derive(Clone, Debug)]
pub struct EliasFano {
    /// Low `low_bits` bits of each value, packed.
    low: Vec<u64>,
    low_bits: u32,
    /// Upper bits in unary: value `i` contributes a 1 at position
    /// `(values[i] >> low_bits) + i`.
    upper: RsBitVector,
    len: usize,
    universe: u64,
}

/// Streaming constructor: the number of values is fixed up front (it sets
/// the low/high split), then values are pushed in non-decreasing order.
/// Memory is the finished structure's own — no staging copy of the values —
/// which is what lets the tree build one sarray per tag in two passes over
/// the tag sequence (count, then fill).
#[derive(Debug)]
pub struct EliasFanoBuilder {
    low: Vec<u64>,
    low_bits: u32,
    upper: Vec<u64>,
    capacity: usize,
    len: usize,
    prev: u64,
    universe: u64,
}

impl EliasFanoBuilder {
    /// A builder for exactly `len` values, each less than `universe`.
    pub fn new(len: usize, universe: u64) -> Self {
        let low_bits = if len == 0 { 1 } else { bits_for(universe / len as u64).saturating_sub(1).max(1) };
        // The split keeps `universe >> low_bits` below `2 * len`, so the
        // upper bitmap stays linear in `len` (an empty sequence needs none
        // of its universe's buckets).
        let max_high = if len == 0 { 0 } else { (universe.saturating_sub(1) >> low_bits) as usize };
        Self {
            low: vec![0u64; ceil_div(len * low_bits as usize, 64).max(1)],
            low_bits,
            upper: vec![0u64; ceil_div(max_high + len + 1, 64)],
            capacity: len,
            len: 0,
            prev: 0,
            universe,
        }
    }

    /// Appends the next value.
    ///
    /// # Panics
    /// Panics if `v` is smaller than its predecessor, not below the
    /// universe, or more values are pushed than announced.
    pub fn push(&mut self, v: u64) {
        let i = self.len;
        assert!(i < self.capacity, "EliasFano builder was sized for {} values", self.capacity);
        assert!(v >= self.prev, "EliasFano input must be non-decreasing (index {i})");
        assert!(
            v < self.universe || (v == 0 && self.universe == 0),
            "value {v} exceeds universe {}",
            self.universe
        );
        self.prev = v;
        let lv = v & ((1u64 << self.low_bits) - 1);
        let bit = i * self.low_bits as usize;
        let (word, offset) = (bit / 64, (bit % 64) as u32);
        self.low[word] |= lv << offset;
        if offset + self.low_bits > 64 {
            self.low[word + 1] |= lv >> (64 - offset);
        }
        // Upper bits: value `i` sets the bit at `high + i` (unary buckets).
        let target = (v >> self.low_bits) as usize + i;
        self.upper[target / 64] |= 1u64 << (target % 64);
        self.len += 1;
    }

    /// Freezes the structure.
    ///
    /// # Panics
    /// Panics if fewer values were pushed than announced.
    pub fn finish(self) -> EliasFano {
        assert!(self.len == self.capacity, "EliasFano builder holds {} of {} values", self.len, self.capacity);
        // The bitmap ends one zero past the last value's bit, so select0 on
        // the last bucket and rank at the end behave.
        let upper_len = if self.len == 0 { 1 } else { (self.prev >> self.low_bits) as usize + self.len + 1 };
        EliasFano {
            low: self.low,
            low_bits: self.low_bits,
            upper: RsBitVector::from_words(self.upper, upper_len),
            len: self.len,
            universe: self.universe,
        }
    }
}

impl EliasFano {
    /// Builds the structure from a non-decreasing slice of values, each less
    /// than `universe`.
    ///
    /// # Panics
    /// Panics if the values are not non-decreasing or exceed the universe.
    pub fn new(values: &[u64], universe: u64) -> Self {
        let mut builder = EliasFanoBuilder::new(values.len(), universe);
        for &v in values {
            builder.push(v);
        }
        builder.finish()
    }

    /// Number of stored values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Universe (exclusive upper bound on values).
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    #[inline]
    fn low_value(&self, i: usize) -> u64 {
        let mask = (1u64 << self.low_bits) - 1;
        let bit = i * self.low_bits as usize;
        let word = bit / 64;
        let offset = (bit % 64) as u32;
        let lo = self.low[word] >> offset;
        if offset + self.low_bits <= 64 {
            lo & mask
        } else {
            (lo | (self.low[word + 1] << (64 - offset))) & mask
        }
    }

    /// The value of index `k`, whose bit sits at `pos` in the upper bitmap.
    #[inline]
    fn value_at(&self, k: usize, pos: usize) -> u64 {
        (((pos - k) as u64) << self.low_bits) | self.low_value(k)
    }

    /// The `k`-th stored value, 0-based.  `None` if `k >= len()`.
    #[inline]
    pub fn get(&self, k: usize) -> Option<u64> {
        if k >= self.len {
            return None;
        }
        let pos = self.upper.select1(k + 1)?;
        Some(self.value_at(k, pos))
    }

    /// Number of consecutive ones of the upper bitmap starting at `pos`
    /// (the length of the bucket that starts there).
    #[inline]
    fn ones_run(&self, pos: usize) -> usize {
        let words = self.upper.words();
        let mut word = pos / 64;
        let mut offset = pos % 64;
        let mut run = 0;
        while word < words.len() {
            let ones = (words[word] >> offset).trailing_ones() as usize;
            run += ones;
            if ones < 64 - offset {
                break;
            }
            word += 1;
            offset = 0;
        }
        run
    }

    /// Locates `bound`: the number `k` of stored values `< bound`, and the
    /// position in the upper bitmap of the bit of value `k` when that value
    /// shares `bound`'s high part (so a caller wanting it need not select).
    ///
    /// One `select0` finds the bucket of `bound`'s high part; the bucket —
    /// a run of ones — is then binary searched on the low bits.
    #[inline]
    fn locate(&self, bound: u64) -> (usize, Option<usize>) {
        let high = bound >> self.low_bits;
        let (start, pos) = if high == 0 {
            (0, 0)
        } else {
            match usize::try_from(high).ok().and_then(|h| self.upper.select0(h).map(|p| (p + 1 - h, p + 1))) {
                Some(found) => found,
                // Fewer than `high` buckets: every value is smaller.
                None => return (self.len, None),
            }
        };
        let run = self.ones_run(pos);
        let low_bound = bound & ((1u64 << self.low_bits) - 1);
        let (mut lo, mut hi) = (0, run);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.low_value(start + mid) < low_bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (start + lo, (lo < run).then_some(pos + lo))
    }

    /// Number of stored values strictly less than `bound`.
    pub fn rank(&self, bound: u64) -> usize {
        self.locate(bound).0
    }

    /// Smallest stored value `>= bound` together with its index, or `None`.
    pub fn successor(&self, bound: u64) -> Option<(usize, u64)> {
        match self.locate(bound) {
            (k, Some(pos)) => Some((k, self.value_at(k, pos))),
            // The successor lives in a later bucket.
            (k, None) => self.get(k).map(|v| (k, v)),
        }
    }

    /// Largest stored value `< bound` together with its index, or `None`.
    pub fn predecessor(&self, bound: u64) -> Option<(usize, u64)> {
        let k = self.rank(bound).checked_sub(1)?;
        self.get(k).map(|v| (k, v))
    }

    /// Whether `value` is stored.
    pub fn contains(&self, value: u64) -> bool {
        self.successor(value).map(|(_, v)| v == value).unwrap_or(false)
    }

    /// Iterator over the stored values in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter_from(0)
    }

    /// Iterator over the stored values of index `k` and up: one `select1`,
    /// then a walk over the set bits of the upper bitmap.
    pub fn iter_from(&self, k: usize) -> impl Iterator<Item = u64> + '_ {
        let words = self.upper.words();
        let start = if k < self.len { self.upper.select1(k + 1).expect("k < len") } else { 0 };
        let mut word = start / 64;
        let mut bits = words.get(word).map_or(0, |w| w & (u64::MAX << (start % 64)));
        (k..self.len).map(move |k| {
            while bits == 0 {
                word += 1;
                bits = words[word];
            }
            let pos = word * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            self.value_at(k, pos)
        })
    }
}

impl sxsi_verify::Verify for EliasFano {
    /// Checks the upper/lower-bits agreement the loader skips: besides the
    /// shape checks `read_from` already enforces, the decoded sequence must
    /// be non-decreasing and stay inside the declared universe — a
    /// perturbed low word passes every byte-level check but breaks both.
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        ctx.check("ef-low-bits", (1..=63).contains(&self.low_bits), || {
            format!("low_bits {} not in 1..=63", self.low_bits)
        });
        let expected_low = ceil_div(self.len.saturating_mul(self.low_bits as usize), 64).max(1);
        ctx.check("ef-low-words", self.low.len() == expected_low, || {
            format!("{} values need {expected_low} low words, holding {}", self.len, self.low.len())
        });
        ctx.check("ef-upper-ones", self.upper.count_ones() == self.len, || {
            format!("upper bitmap holds {} ones for {} values", self.upper.count_ones(), self.len)
        });
        ctx.enter("upper", |ctx| self.upper.verify_into(depth, ctx));
        if ctx.issue_count() > issues_before {
            return;
        }
        let mut prev = 0u64;
        let mut monotone = true;
        let mut in_universe = true;
        for v in self.iter() {
            monotone &= v >= prev;
            in_universe &= v < self.universe.max(1);
            prev = v;
        }
        ctx.check("ef-monotone", monotone, || {
            "decoded sequence is not non-decreasing".into()
        });
        ctx.check("ef-universe", in_universe, || {
            format!("decoded value exceeds the declared universe {}", self.universe)
        });
    }
}

impl SpaceUsage for EliasFano {
    fn size_bytes(&self) -> usize {
        crate::slice_bytes(&self.low) + self.upper.size_bytes()
    }
}

impl WriteInto for EliasFano {
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_u32(w, self.low_bits)?;
        write_usize(w, self.len)?;
        write_u64(w, self.universe)?;
        write_u64_slice(w, &self.low)?;
        self.upper.write_into(w)
    }
}

impl ReadFrom for EliasFano {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let low_bits = read_u32(r)?;
        if !(1..=63).contains(&low_bits) {
            return Err(corrupt(format!("EliasFano low_bits {low_bits} not in 1..=63")));
        }
        let len = read_usize(r)?;
        let universe = read_u64(r)?;
        let low = read_u64_vec(r)?;
        let expected_low = ceil_div(
            len.checked_mul(low_bits as usize)
                .ok_or_else(|| corrupt("EliasFano low-bit array overflows the address space"))?,
            64,
        )
        .max(1);
        if low.len() != expected_low {
            return Err(corrupt(format!(
                "EliasFano of {len} values needs {expected_low} low words, found {}",
                low.len()
            )));
        }
        let upper = RsBitVector::read_from(r)?;
        if upper.count_ones() != len {
            return Err(corrupt(format!(
                "EliasFano upper bitmap holds {} ones for {len} values",
                upper.count_ones()
            )));
        }
        Ok(Self { low, low_bits, upper, len, universe })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(values: &[u64], universe: u64) {
        let ef = EliasFano::new(values, universe);
        assert_eq!(ef.len(), values.len());
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(k), Some(v), "get({k})");
        }
        assert_eq!(ef.get(values.len()), None);
        // rank / successor at every boundary and a few interior points.
        let mut probes: Vec<u64> = values.to_vec();
        probes.push(0);
        probes.push(universe.saturating_sub(1));
        probes.extend(values.iter().map(|v| v.saturating_add(1)));
        probes.extend(values.iter().map(|v| v.saturating_sub(1)));
        for &p in &probes {
            let expected_rank = values.iter().filter(|&&v| v < p).count();
            assert_eq!(ef.rank(p), expected_rank, "rank({p})");
            let expected_succ = values.iter().copied().find(|&v| v >= p);
            assert_eq!(ef.successor(p).map(|(_, v)| v), expected_succ, "successor({p})");
            let expected_pred = values.iter().copied().rfind(|&v| v < p);
            assert_eq!(ef.predecessor(p).map(|(_, v)| v), expected_pred, "predecessor({p})");
        }
        let collected: Vec<u64> = ef.iter().collect();
        assert_eq!(collected, values);
    }

    #[test]
    fn empty_sequence() {
        let ef = EliasFano::new(&[], 100);
        assert!(ef.is_empty());
        assert_eq!(ef.rank(50), 0);
        assert_eq!(ef.successor(0), None);
        assert_eq!(ef.get(0), None);
    }

    #[test]
    fn single_value() {
        check(&[0], 1);
        check(&[42], 100);
        check(&[99], 100);
    }

    #[test]
    fn dense_run() {
        let values: Vec<u64> = (0..1000).collect();
        check(&values, 1000);
    }

    #[test]
    fn sparse_values() {
        let values: Vec<u64> = (0..200).map(|i| i * 997 + 13).collect();
        check(&values, 997 * 200 + 100);
    }

    #[test]
    fn with_duplicates() {
        check(&[3, 3, 3, 7, 7, 20], 30);
    }

    #[test]
    fn clustered_values() {
        let mut values = vec![];
        for c in 0..10u64 {
            for i in 0..50u64 {
                values.push(c * 100_000 + i);
            }
        }
        check(&values, 1_000_001);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_decreasing() {
        EliasFano::new(&[5, 3], 10);
    }

    #[test]
    fn serialization_roundtrip() {
        for values in [vec![], vec![0u64], (0..500).map(|i| i * 37 + 5).collect::<Vec<_>>()] {
            let universe = values.last().map_or(10, |&v| v + 1);
            let ef = EliasFano::new(&values, universe);
            let back = EliasFano::from_bytes(&ef.to_bytes()).unwrap();
            assert_eq!(back.len(), values.len());
            assert_eq!(back.universe(), universe);
            assert_eq!(back.iter().collect::<Vec<_>>(), values);
            for probe in [0, universe / 2, universe] {
                assert_eq!(back.rank(probe), ef.rank(probe));
            }
        }
        let ef = EliasFano::new(&[1, 5, 9], 10);
        let bytes = ef.to_bytes();
        assert!(EliasFano::from_bytes(&bytes[..bytes.len() - 2]).is_err());
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use sxsi_verify::{Verify, VerifyDepth};

    #[test]
    fn clean_sequence_verifies() {
        let values: Vec<u64> = (0..500).map(|i| i * 37 + 5).collect();
        let ef = EliasFano::new(&values, 500 * 37 + 6);
        let report = ef.verify(VerifyDepth::Quick);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn perturbed_low_words_break_monotonicity_or_universe() {
        // A perturbed low word passes every loader check (word counts and
        // upper-bitmap cardinality are unchanged) but decodes wrong values:
        // a dense sequence has equal high parts, so swapped low bits break
        // the order.
        let values: Vec<u64> = (0..500).collect();
        let mut ef = EliasFano::new(&values, 500);
        ef.low[0] = !ef.low[0];
        let report = ef.verify(VerifyDepth::Quick);
        assert!(report.has_code("ef-monotone") || report.has_code("ef-universe"), "{report}");
    }

    #[test]
    fn shrunk_universe_is_caught() {
        let values: Vec<u64> = (0..100).map(|i| i * 10).collect();
        let mut ef = EliasFano::new(&values, 1000);
        ef.universe = 500;
        assert!(ef.verify(VerifyDepth::Quick).has_code("ef-universe"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn matches_naive(mut values in proptest::collection::vec(0u64..100_000, 0..300), probe in 0u64..100_001) {
            values.sort_unstable();
            let ef = EliasFano::new(&values, 100_000);
            for (k, &v) in values.iter().enumerate() {
                prop_assert_eq!(ef.get(k), Some(v));
            }
            let expected_rank = values.iter().filter(|&&v| v < probe).count();
            prop_assert_eq!(ef.rank(probe), expected_rank);
            let expected_succ = values.iter().copied().find(|&v| v >= probe);
            prop_assert_eq!(ef.successor(probe).map(|(_, v)| v), expected_succ);
        }
    }
}
