//! Differential-testing oracle harness for the succinct primitives.
//!
//! Swapping the innermost rank/select loops of the engine is only safe if
//! the swap is drowned in oracles.  This module is the reusable half of that
//! story: generic drivers that take *any two* implementations of the
//! [`RankSelect`] trait (or of [`crate::wavelet::SequenceIndex`]) and
//! exhaustively cross-check them, plus deterministic corpus generators
//! covering the geometries succinct directories get wrong — all-zero,
//! all-one, runs, alternating patterns, random densities, and lengths
//! straddling every word and cache-line-block boundary.
//!
//! The harness is `pub` (not `#[cfg(test)]`) so both the unit suites in this
//! crate and the integration suites of downstream crates can drive it, and
//! so future primitive variants get coverage for free: implement
//! [`RankSelect`], feed [`bit_corpora`] through
//! [`check_rank_select_equivalence`], done.
//!
//! Case counts are env-tunable: `SXSI_ORACLE_CASES` scales the number of
//! random corpora (see [`oracle_cases`]); CI runs the suites in `--release`
//! with an elevated count.

// lint:allow-file(dead-pub: test oracle harness for the rank/select and wavelet primitives)
use crate::interleaved::InterleavedRsBitVector;
use crate::wavelet::SequenceIndex;
use crate::BitVec;

/// Minimal rank/select interface the differential driver checks.
///
/// Every operation is specified against [`NaiveBitVector`], the
/// obviously-correct reference: `rank1(i)` counts ones in `[0, i)` (`O(i)`
/// naively, `O(1)` for the real structures), `select1(k)`/`select0(k)` find
/// the 1-based `k`-th one/zero or `None`.
pub trait RankSelect {
    /// Number of bits.
    fn len(&self) -> usize;

    /// True if there are no bits.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bit at position `i < len()`.
    fn get(&self, i: usize) -> bool;

    /// Number of ones in `[0, i)`; `i` may equal `len()`.
    fn rank1(&self, i: usize) -> usize;

    /// Number of zeros in `[0, i)`.
    fn rank0(&self, i: usize) -> usize {
        i - self.rank1(i)
    }

    /// Position of the `k`-th one (1-based), or `None` if out of range.
    fn select1(&self, k: usize) -> Option<usize>;

    /// Position of the `k`-th zero (1-based), or `None` if out of range.
    fn select0(&self, k: usize) -> Option<usize>;

    /// Total number of ones.
    fn count_ones(&self) -> usize {
        self.rank1(self.len())
    }
}

impl RankSelect for InterleavedRsBitVector {
    fn len(&self) -> usize {
        InterleavedRsBitVector::len(self)
    }
    fn get(&self, i: usize) -> bool {
        InterleavedRsBitVector::get(self, i)
    }
    fn rank1(&self, i: usize) -> usize {
        InterleavedRsBitVector::rank1(self, i)
    }
    fn select1(&self, k: usize) -> Option<usize> {
        InterleavedRsBitVector::select1(self, k)
    }
    fn select0(&self, k: usize) -> Option<usize> {
        InterleavedRsBitVector::select0(self, k)
    }
}

/// The obviously-correct reference: a plain `Vec<bool>` answering every
/// query by linear scan (`O(n)` per operation, trusted by inspection).
#[derive(Clone, Debug)]
pub struct NaiveBitVector(pub Vec<bool>);

impl RankSelect for NaiveBitVector {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn get(&self, i: usize) -> bool {
        self.0[i]
    }
    fn rank1(&self, i: usize) -> usize {
        self.0[..i].iter().filter(|&&b| b).count()
    }
    fn select1(&self, k: usize) -> Option<usize> {
        if k == 0 {
            return None;
        }
        let mut seen = 0;
        self.0.iter().position(|&b| {
            if b {
                seen += 1;
            }
            b && seen == k
        })
    }
    fn select0(&self, k: usize) -> Option<usize> {
        if k == 0 {
            return None;
        }
        let mut seen = 0;
        self.0.iter().position(|&b| {
            if !b {
                seen += 1;
            }
            !b && seen == k
        })
    }
}

/// SplitMix64: the fixed-seed deterministic generator shared with the
/// datagen crate, so every oracle run is reproducible.
pub struct OracleRng(u64);

impl OracleRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// True with probability `num / denom`.
    pub fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }
}

/// Number of random corpora per family the oracle suites generate: the
/// value of the `SXSI_ORACLE_CASES` environment variable, or `default` if
/// unset or unparsable.  CI sets an elevated count in `--release` runs.
pub fn oracle_cases(default: usize) -> usize {
    std::env::var("SXSI_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Bit lengths straddling every directory boundary of the interleaved
/// layout: the 64-bit word, the 384-bit cache-line block and the first
/// word of the next block (`n ∈ {0, 1, 63, 64, 65, 383, 384, 385, 447,
/// 448, 449, 767, 768, 769, …}`).
pub fn boundary_sizes() -> Vec<usize> {
    vec![
        0, 1, 2, 63, 64, 65, 127, 128, 129, 383, 384, 385, 447, 448, 449, 767, 768, 769, 1151,
        1152, 1153, 4096, 10_000,
    ]
}

/// Deterministic structured bit corpora: for each boundary size, the
/// adversarial families (all-zero, all-one, alternating, runs of several
/// widths) plus `random_per_size` random-density vectors drawn from a
/// fixed-seed [`OracleRng`].  Returns `(label, bits)` pairs; the label makes
/// assertion failures self-describing.
pub fn bit_corpora(random_per_size: usize) -> Vec<(String, Vec<bool>)> {
    let mut rng = OracleRng::new(0x000A_C1E5_EED5);
    let mut out = Vec::new();
    for n in boundary_sizes() {
        out.push((format!("all-zero/{n}"), vec![false; n]));
        out.push((format!("all-one/{n}"), vec![true; n]));
        out.push((format!("alternating/{n}"), (0..n).map(|i| i % 2 == 0).collect()));
        for run in [3usize, 64, 384, 512] {
            out.push((format!("runs-{run}/{n}"), (0..n).map(|i| (i / run) % 2 == 0).collect()));
        }
        for case in 0..random_per_size {
            let density = [1u64, 10, 300, 500, 700, 990][case % 6];
            out.push((
                format!("random-{density}permille-{case}/{n}"),
                (0..n).map(|_| rng.chance(density, 1000)).collect(),
            ));
        }
    }
    out
}

/// Cross-checks two [`RankSelect`] implementations built from the same bits
/// on *every* position: `get`, `rank1`/`rank0` at each `i` (including
/// `i = len`), `select1`/`select0` for each 1-based `k` including one past
/// the end and `k = 0`.  `label` names the corpus in assertion messages.
///
/// `O(n)` probes per corpus; with [`NaiveBitVector`] as one side this is the
/// classic oracle test, with two real structures it is a differential test.
pub fn check_rank_select_equivalence<A: RankSelect, B: RankSelect>(label: &str, a: &A, b: &B) {
    assert_eq!(a.len(), b.len(), "[{label}] len");
    let n = a.len();
    for i in 0..n {
        assert_eq!(a.get(i), b.get(i), "[{label}] get({i})");
        assert_eq!(a.rank1(i), b.rank1(i), "[{label}] rank1({i})");
        assert_eq!(a.rank0(i), b.rank0(i), "[{label}] rank0({i})");
    }
    assert_eq!(a.rank1(n), b.rank1(n), "[{label}] rank1(len)");
    assert_eq!(a.count_ones(), b.count_ones(), "[{label}] count_ones");
    let ones = a.count_ones();
    let zeros = n - ones;
    assert_eq!(a.select1(0), None, "[{label}] a.select1(0)");
    assert_eq!(b.select1(0), None, "[{label}] b.select1(0)");
    for k in 1..=ones + 1 {
        assert_eq!(a.select1(k), b.select1(k), "[{label}] select1({k})");
    }
    for k in 1..=zeros + 1 {
        assert_eq!(a.select0(k), b.select0(k), "[{label}] select0({k})");
    }
    // Out-of-range k far past the end must also agree (and be None).
    assert_eq!(a.select1(n + 2), None, "[{label}] select1 far out");
    assert_eq!(b.select0(n + 2), None, "[{label}] select0 far out");
}

/// Cross-checks two [`SequenceIndex`] implementations built from the same
/// sequence: `access` at every position, `rank` at every position and
/// `select` for every occurrence of every symbol in `alphabet` (which
/// should include at least one absent symbol).  `O(n · |alphabet|)`.
pub fn check_sequence_equivalence<Sym, A, B>(label: &str, alphabet: &[Sym], a: &A, b: &B)
where
    Sym: Copy + Eq + std::fmt::Debug,
    A: SequenceIndex<Sym>,
    B: SequenceIndex<Sym>,
{
    assert_eq!(a.len(), b.len(), "[{label}] len");
    let n = a.len();
    for i in 0..n {
        assert_eq!(a.access(i), b.access(i), "[{label}] access({i})");
    }
    for &sym in alphabet {
        for i in 0..=n {
            assert_eq!(a.rank(sym, i), b.rank(sym, i), "[{label}] rank({sym:?}, {i})");
        }
        let total = a.rank(sym, n);
        assert_eq!(a.select(sym, 0), None, "[{label}] a.select({sym:?}, 0)");
        for k in 1..=total + 1 {
            assert_eq!(a.select(sym, k), b.select(sym, k), "[{label}] select({sym:?}, {k})");
        }
    }
}

/// Builds the rank/select bitvector from `bits` and cross-checks it against
/// the naive reference.
pub fn check_rank_select_against_naive(label: &str, bits: &[bool]) {
    let bv: BitVec = bits.iter().copied().collect();
    let interleaved = InterleavedRsBitVector::new(&bv);
    check_rank_select_equivalence(&format!("{label}/interleaved-vs-naive"), &interleaved, &NaiveBitVector(bits.to_vec()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_reference_is_self_consistent() {
        let bits = vec![true, false, false, true, true];
        let naive = NaiveBitVector(bits);
        assert_eq!(naive.len(), 5);
        assert_eq!(naive.count_ones(), 3);
        assert_eq!(naive.rank1(3), 1);
        assert_eq!(naive.rank0(3), 2);
        assert_eq!(naive.select1(2), Some(3));
        assert_eq!(naive.select0(2), Some(2));
        assert_eq!(naive.select1(4), None);
        assert_eq!(naive.select1(0), None);
    }

    #[test]
    fn corpora_cover_boundary_sizes_and_families() {
        let corpora = bit_corpora(2);
        let sizes = boundary_sizes();
        // Every family appears at every size.
        for n in &sizes {
            assert!(corpora.iter().any(|(l, b)| l == &format!("all-zero/{n}") && b.len() == *n));
            assert!(corpora.iter().any(|(l, b)| l == &format!("all-one/{n}") && b.iter().all(|&x| x) && b.len() == *n));
        }
        assert_eq!(corpora.len(), sizes.len() * (3 + 4 + 2));
    }

    #[test]
    fn oracle_cases_reads_env_or_default() {
        // Only the default path is asserted here (env mutation would race
        // with parallel tests); the env path is exercised by CI.
        assert_eq!(oracle_cases(7), oracle_cases(7));
    }
}
