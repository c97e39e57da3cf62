//! Randomized oracle tests for the succinct building blocks.
//!
//! Every structure is checked against a naive, obviously-correct
//! re-implementation over inputs drawn from a fixed-seed generator, covering
//! the corner densities (all-zeros, all-ones, sparse, dense) the paper's
//! rank/select machinery has to survive.

use sxsi_succinct::oracle::{
    bit_corpora, check_all_rank_variants, check_rank_select_equivalence, check_sequence_equivalence,
    oracle_cases, NaiveBitVector, OracleRng,
};
use sxsi_succinct::wavelet::SequenceIndex;
use sxsi_succinct::{
    BalancedWaveletTree, BitVec, EliasFano, HuffmanWaveletTree, InterleavedRsBitVector, RankBackend,
    RankBitmap, RsBitVector, WaveletMatrix,
};
use sxsi_io::{ReadFrom, WriteInto};

/// SplitMix64: the same deterministic generator the datagen crate uses.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    fn chance(&mut self, num: u64, denom: u64) -> bool {
        self.below(denom) < num
    }
}

fn random_bits(rng: &mut Rng, len: usize, ones_per_1000: u64) -> Vec<bool> {
    (0..len).map(|_| rng.chance(ones_per_1000, 1000)).collect()
}

fn check_rsbitvec(bits: &[bool]) {
    let bv: BitVec = bits.iter().copied().collect();
    let rs = RsBitVector::new(&bv);
    assert_eq!(rs.len(), bits.len());

    let total_ones = bits.iter().filter(|&&b| b).count();
    assert_eq!(rs.count_ones(), total_ones);
    assert_eq!(rs.count_zeros(), bits.len() - total_ones);

    let mut ones = 0usize;
    for (i, &b) in bits.iter().enumerate() {
        assert_eq!(rs.get(i), b, "get({i})");
        assert_eq!(rs.rank1(i), ones, "rank1({i})");
        assert_eq!(rs.rank0(i), i - ones, "rank0({i})");
        if b {
            ones += 1;
            assert_eq!(rs.select1(ones), Some(i), "select1({ones})");
        } else {
            assert_eq!(rs.select0(i + 1 - ones), Some(i), "select0({})", i + 1 - ones);
        }
    }
    assert_eq!(rs.rank1(bits.len()), total_ones);
    assert_eq!(rs.select1(0), None);
    assert_eq!(rs.select1(total_ones + 1), None);
    assert_eq!(rs.select0(bits.len() - total_ones + 1), None);

    // next_one against a forward scan from a handful of positions.
    let mut rng = Rng::new(7);
    for _ in 0..64.min(bits.len()) {
        let i = rng.below(bits.len() as u64) as usize;
        let expected = (i..bits.len()).find(|&j| bits[j]);
        assert_eq!(rs.next_one(i), expected, "next_one({i})");
    }
}

#[test]
fn rsbitvec_matches_naive_across_densities() {
    let mut rng = Rng::new(0xB17_5EED);
    for &density in &[0u64, 1, 50, 500, 950, 1000] {
        for &len in &[1usize, 63, 64, 65, 511, 512, 1000, 4096, 10_000] {
            check_rsbitvec(&random_bits(&mut rng, len, density));
        }
    }
    check_rsbitvec(&[]);
}

#[test]
fn eliasfano_matches_naive() {
    let mut rng = Rng::new(0xEF_5EED);
    for &(count, universe) in &[(0usize, 100u64), (1, 1), (10, 10), (100, 1 << 14), (500, 1 << 20), (2000, 3000)] {
        let mut values: Vec<u64> = (0..count).map(|_| rng.below(universe)).collect();
        values.sort_unstable();
        let ef = EliasFano::new(&values, universe);
        assert_eq!(ef.len(), values.len());

        // `get` (a.k.a. select) reproduces every stored value.
        for (k, &v) in values.iter().enumerate() {
            assert_eq!(ef.get(k), Some(v), "get({k})");
        }
        assert_eq!(ef.get(values.len()), None);

        // rank / successor / predecessor / contains versus linear scans,
        // probing both random points and every stored value ±1.
        let mut probes: Vec<u64> = (0..200).map(|_| rng.below(universe + 2)).collect();
        for &v in &values {
            probes.push(v);
            probes.push(v.saturating_sub(1));
            probes.push(v + 1);
        }
        for &p in &probes {
            let naive_rank = values.iter().filter(|&&v| v < p).count();
            assert_eq!(ef.rank(p), naive_rank, "rank({p})");

            let naive_succ = values.iter().copied().enumerate().find(|&(_, v)| v >= p);
            assert_eq!(ef.successor(p), naive_succ, "successor({p})");

            // `predecessor` is strict: largest stored value `< p`.
            let naive_pred = values.iter().copied().enumerate().rev().find(|&(_, v)| v < p);
            assert_eq!(ef.predecessor(p), naive_pred, "predecessor({p})");

            assert_eq!(ef.contains(p), values.contains(&p), "contains({p})");
        }

        assert_eq!(ef.iter().collect::<Vec<_>>(), values);
    }
}

/// `rank`, `successor`, `predecessor` and `iter_from` against linear scans.
fn check_sarray_probes(label: &str, values: &[u64], universe: u64, probes: &[u64]) {
    let ef = EliasFano::new(values, universe);
    assert_eq!(ef.iter().collect::<Vec<_>>(), values, "{label}: iter");
    for &p in probes {
        let rank = values.iter().filter(|&&v| v < p).count();
        assert_eq!(ef.rank(p), rank, "{label}: rank({p})");
        let succ = values.iter().copied().enumerate().find(|&(_, v)| v >= p);
        assert_eq!(ef.successor(p), succ, "{label}: successor({p})");
        let pred = values.iter().copied().enumerate().rev().find(|&(_, v)| v < p);
        assert_eq!(ef.predecessor(p), pred, "{label}: predecessor({p})");
        assert_eq!(ef.iter_from(rank).collect::<Vec<_>>(), &values[rank..], "{label}: iter_from({rank})");
    }
}

/// The probes every sarray edge case is checked at: each stored value and
/// its neighbours, both ends of the universe and beyond, and every multiple
/// of every power of two up to 2^16 — whatever the low/high split, that
/// includes each bucket's first position and the one before it.
fn sarray_edge_probes(values: &[u64], universe: u64) -> Vec<u64> {
    let mut probes = vec![0, 1, universe.saturating_sub(1), universe, universe + 1, universe + 777, u64::MAX];
    for &v in values {
        probes.extend([v.saturating_sub(1), v, v + 1]);
    }
    for shift in 1..=16u32 {
        let step = 1u64 << shift;
        for multiple in (0..=universe / step).take(200) {
            probes.extend([(multiple * step).saturating_sub(1), multiple * step]);
        }
    }
    probes
}

#[test]
fn eliasfano_sarray_edges_match_naive() {
    let cases: Vec<(&str, Vec<u64>, u64)> = vec![
        ("empty sequence", vec![], 1000),
        ("single value at zero", vec![0], 1),
        ("single value mid-universe", vec![4242], 1 << 16),
        ("single value at the end", vec![(1 << 16) - 1], 1 << 16),
        // 100 values in 2^14 positions split 7 low bits: a value on every
        // bucket's first and last position.
        ("values on bucket boundaries", (0..50).flat_map(|b| [b * 256, b * 256 + 127]).collect(), 1 << 14),
        ("empty buckets between occupied ones", vec![5, 6, 7, 40_000, 40_001, 900_000, 900_002], 1 << 20),
        // Long buckets (binary-searched) and a run that crosses buckets.
        ("one run of consecutive values", (70_000..70_600).collect(), 1 << 20),
        ("runs of consecutive values", (0..6).flat_map(|r| r * 150_000..r * 150_000 + 200).collect(), 1 << 20),
        ("dense: every position", (0..3000).collect(), 3000),
        // A cluster, then more than a select sample's worth of empty
        // buckets before the last value: the neighbour is many words away.
        ("long gap after a cluster", (0..1000).chain([(1 << 20) - 1]).collect(), 1 << 20),
        ("long gap before a cluster", [3].into_iter().chain((1 << 20) - 1000..1 << 20).collect(), 1 << 20),
        ("duplicates", vec![9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 500, 500, 70_000], 1 << 17),
    ];
    for (label, values, universe) in &cases {
        check_sarray_probes(label, values, *universe, &sarray_edge_probes(values, *universe));
    }
}

fn check_wavelet<Sym: Copy + Eq + std::fmt::Debug, S: SequenceIndex<Sym>>(seq: &[Sym], wt: &S, alphabet: &[Sym]) {
    assert_eq!(wt.len(), seq.len());
    for (i, &s) in seq.iter().enumerate() {
        assert_eq!(wt.access(i), s, "access({i})");
    }
    for &sym in alphabet {
        let mut seen = 0usize;
        for (i, &s) in seq.iter().enumerate() {
            assert_eq!(wt.rank(sym, i), seen, "rank({i})");
            if s == sym {
                seen += 1;
                assert_eq!(wt.select(sym, seen), Some(i), "select({seen})");
            }
        }
        assert_eq!(wt.rank(sym, seq.len()), seen, "full rank");
        assert_eq!(wt.select(sym, seen + 1), None, "select past end");
        assert_eq!(wt.select(sym, 0), None, "select(0)");
    }
}

#[test]
fn huffman_wavelet_matches_naive() {
    let mut rng = Rng::new(0x33F_5EED);
    // Skewed distribution: symbol 0 dominates, exercising deep Huffman leaves.
    for &len in &[0usize, 1, 100, 2000] {
        let seq: Vec<u8> = (0..len)
            .map(|_| {
                if rng.chance(3, 4) {
                    0
                } else {
                    rng.below(250) as u8
                }
            })
            .collect();
        let wt = HuffmanWaveletTree::new(&seq);
        let mut alphabet: Vec<u8> = seq.clone();
        alphabet.sort_unstable();
        alphabet.dedup();
        alphabet.push(251); // a symbol that never occurs
        check_wavelet(&seq, &wt, &alphabet);
    }
}

#[test]
fn balanced_wavelet_matches_naive() {
    let mut rng = Rng::new(0xBA1_5EED);
    for &(len, sigma) in &[(0usize, 4u32), (1, 1), (300, 3), (1500, 257), (800, 70_000)] {
        let seq: Vec<u32> = (0..len).map(|_| rng.below(sigma as u64) as u32).collect();
        let wt = BalancedWaveletTree::new(&seq, sigma);
        let mut alphabet: Vec<u32> = seq.clone();
        alphabet.sort_unstable();
        alphabet.dedup();
        if sigma > 1 {
            alphabet.push(sigma - 1); // possibly-absent top symbol
            alphabet.dedup();
        }
        check_wavelet(&seq, &wt, &alphabet);
    }
}

// ---------------------------------------------------------------------------
// PR 7: differential oracle harness over every rank/select variant
// ---------------------------------------------------------------------------

/// The full differential matrix: every structured corpus (all-zero, all-one,
/// alternating, runs, random densities at every directory-boundary size) is
/// run through classic-vs-naive, interleaved-vs-naive and
/// interleaved-vs-classic.  `SXSI_ORACLE_CASES` scales the random corpora.
#[test]
fn all_rank_variants_agree_on_structured_corpora() {
    for (label, bits) in bit_corpora(oracle_cases(2)) {
        check_all_rank_variants(&label, &bits);
    }
}

/// The `RankBitmap` dispatch enum answers identically to whichever backend
/// it wraps, for both backends, on the adversarial corpora.
#[test]
fn rank_bitmap_dispatch_matches_backends() {
    for (label, bits) in bit_corpora(1) {
        let bv: BitVec = bits.iter().copied().collect();
        let naive = NaiveBitVector(bits.clone());
        for backend in [RankBackend::Classic, RankBackend::Interleaved] {
            let bm = RankBitmap::build(&bv, backend);
            check_rank_select_equivalence(&format!("{label}/{}", backend.name()), &bm, &naive);
        }
    }
}

/// Deterministic proptest-style random cases driven by the shared SplitMix64
/// generator: random lengths (biased toward directory boundaries) and random
/// densities, cross-checking all variants.
#[test]
fn random_cases_cross_check_all_variants() {
    let mut rng = OracleRng::new(0xD1FF_0AC1E);
    let cases = oracle_cases(48);
    for case in 0..cases {
        let len = match rng.below(4) {
            // Snap near a boundary: word, interleaved block, superblock.
            0 => {
                let base = [64usize, 448, 512, 896, 1024][rng.below(5) as usize];
                let mult = 1 + rng.below(8) as usize;
                (base * mult + rng.below(3) as usize).saturating_sub(1)
            }
            _ => rng.below(6000) as usize,
        };
        let density = 1 + rng.below(999);
        let bits: Vec<bool> = (0..len).map(|_| rng.chance(density, 1000)).collect();
        check_all_rank_variants(&format!("random-case-{case}/{len}/{density}"), &bits);
    }
}

/// Wavelet matrix vs balanced wavelet tree vs a naive scan, over byte-like
/// and wide alphabets, through the generic sequence-equivalence driver.
#[test]
fn wavelet_matrix_agrees_with_pointer_tree() {
    struct NaiveSeq(Vec<u64>);
    impl SequenceIndex<u64> for NaiveSeq {
        fn len(&self) -> usize {
            self.0.len()
        }
        fn access(&self, i: usize) -> u64 {
            self.0[i]
        }
        fn rank(&self, sym: u64, i: usize) -> usize {
            self.0[..i].iter().filter(|&&s| s == sym).count()
        }
        fn select(&self, sym: u64, k: usize) -> Option<usize> {
            if k == 0 {
                return None;
            }
            let mut seen = 0;
            self.0.iter().position(|&s| {
                if s == sym {
                    seen += 1;
                }
                s == sym && seen == k
            })
        }
    }
    /// Adapter: the balanced tree speaks u32, the matrix u64.
    struct BalancedAsU64(BalancedWaveletTree);
    impl SequenceIndex<u64> for BalancedAsU64 {
        fn len(&self) -> usize {
            SequenceIndex::len(&self.0)
        }
        fn access(&self, i: usize) -> u64 {
            self.0.access(i) as u64
        }
        fn rank(&self, sym: u64, i: usize) -> usize {
            u32::try_from(sym).map(|s| self.0.rank(s, i)).unwrap_or(0)
        }
        fn select(&self, sym: u64, k: usize) -> Option<usize> {
            u32::try_from(sym).ok().and_then(|s| self.0.select(s, k))
        }
    }

    let mut rng = OracleRng::new(0x3A7_0AC1E);
    let cases = oracle_cases(2);
    for case in 0..cases {
        for &(len, sigma) in &[(0usize, 4u64), (1, 1), (300, 3), (777, 11), (1500, 256), (900, 1000)] {
            let seq: Vec<u64> = (0..len).map(|_| rng.below(sigma)).collect();
            let mut alphabet: Vec<u64> = seq.clone();
            alphabet.sort_unstable();
            alphabet.dedup();
            alphabet.push(sigma - 1); // possibly absent
            alphabet.dedup();
            let label = format!("wm-case-{case}/{len}x{sigma}");
            let wm = WaveletMatrix::new(&seq, sigma);
            let naive = NaiveSeq(seq.clone());
            check_sequence_equivalence(&label, &alphabet, &wm, &naive);
            if sigma <= u32::MAX as u64 {
                let seq32: Vec<u32> = seq.iter().map(|&v| v as u32).collect();
                let wt = BalancedAsU64(BalancedWaveletTree::new(&seq32, sigma as u32));
                check_sequence_equivalence(&format!("{label}/vs-balanced"), &alphabet, &wm, &wt);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PR 7 satellite: RsBitVector edge geometry pinned explicitly
// ---------------------------------------------------------------------------

/// Rank/select on the empty bitvector: every query is total and `None`/0.
#[test]
fn rsbitvec_edge_empty() {
    let rs = RsBitVector::new(&BitVec::new());
    assert_eq!(rs.len(), 0);
    assert!(rs.is_empty());
    assert_eq!(rs.rank1(0), 0);
    assert_eq!(rs.rank0(0), 0);
    assert_eq!(rs.select1(0), None);
    assert_eq!(rs.select1(1), None);
    assert_eq!(rs.select0(1), None);
    assert_eq!(rs.next_one(0), None);
    assert_eq!(rs.count_ones(), 0);
}

/// Lengths straddling the 64-bit word and 512-bit superblock boundaries,
/// all-zeros and all-ones, with select of the *last* one/zero and the first
/// out-of-range k pinned at every length.
#[test]
fn rsbitvec_edge_boundary_geometry() {
    for n in [1usize, 63, 64, 65, 511, 512, 513, 1023, 1024, 1025] {
        // All ones.
        let ones = RsBitVector::new(&BitVec::filled(n, true));
        assert_eq!(ones.count_ones(), n, "n={n}");
        assert_eq!(ones.rank1(n), n);
        assert_eq!(ones.select1(1), Some(0));
        assert_eq!(ones.select1(n), Some(n - 1), "select of last 1, n={n}");
        assert_eq!(ones.select1(n + 1), None, "out-of-range select1, n={n}");
        assert_eq!(ones.select0(1), None, "no zeros, n={n}");

        // All zeros.
        let zeros = RsBitVector::new(&BitVec::filled(n, false));
        assert_eq!(zeros.count_ones(), 0);
        assert_eq!(zeros.rank0(n), n);
        assert_eq!(zeros.select0(1), Some(0));
        assert_eq!(zeros.select0(n), Some(n - 1), "select of last 0, n={n}");
        assert_eq!(zeros.select0(n + 1), None, "out-of-range select0, n={n}");
        assert_eq!(zeros.select1(1), None);

        // Single one at the very last position.
        let mut bv = BitVec::filled(n, false);
        bv.set(n - 1, true);
        let last = RsBitVector::new(&bv);
        assert_eq!(last.select1(1), Some(n - 1), "lone trailing 1, n={n}");
        assert_eq!(last.rank1(n), 1);
        assert_eq!(last.rank1(n - 1), 0);
        assert_eq!(last.next_one(0), Some(n - 1));
        if n > 1 {
            assert_eq!(last.select0(n - 1), Some(n - 2), "last 0 before trailing 1, n={n}");
        }
    }
}

// ---------------------------------------------------------------------------
// PR 7 satellite: persistence sweeps for the new structures
// ---------------------------------------------------------------------------

fn interleaved_corpus() -> InterleavedRsBitVector {
    let bv: BitVec = (0..1000).map(|i| i % 7 == 0 || i % 11 == 3).collect();
    InterleavedRsBitVector::new(&bv)
}

fn matrix_corpus() -> WaveletMatrix {
    let seq: Vec<u64> = (0..600).map(|i| ((i * 131) % 41) as u64).collect();
    WaveletMatrix::new(&seq, 41)
}

/// Every-byte truncation: no prefix of a valid encoding decodes.
#[test]
fn new_structures_reject_every_truncation() {
    let bytes = interleaved_corpus().to_bytes();
    for cut in 0..bytes.len() {
        assert!(InterleavedRsBitVector::from_bytes(&bytes[..cut]).is_err(), "interleaved cut {cut}");
    }
    let bytes = matrix_corpus().to_bytes();
    for cut in 0..bytes.len() {
        assert!(WaveletMatrix::from_bytes(&bytes[..cut]).is_err(), "matrix cut {cut}");
    }
}

/// Bit-flip sweep: flipping any single bit of the encoding either fails to
/// decode or decodes to a *self-consistent* structure (rank/select agree
/// with a naive scan of whatever bits were decoded).  Structure-level
/// encodings carry no checksum — end-to-end corruption detection is the
/// container's FNV-checksummed section framing, tested in the core crate.
#[test]
fn interleaved_bit_flips_error_or_stay_consistent() {
    let bytes = interleaved_corpus().to_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok(decoded) = InterleavedRsBitVector::from_bytes(&flipped) {
                let bits: Vec<bool> = (0..decoded.len()).map(|i| decoded.get(i)).collect();
                let naive = NaiveBitVector(bits);
                check_rank_select_equivalence(
                    &format!("interleaved-flip-{byte}-{bit}"),
                    &decoded,
                    &naive,
                );
            }
        }
    }
}

/// Same sweep for the wavelet matrix: any decodable mutation must stay
/// internally consistent (`access`/`rank`/`select` mutually agree).
#[test]
fn wavelet_matrix_bit_flips_error_or_stay_consistent() {
    let wm = matrix_corpus();
    let bytes = wm.to_bytes();
    // The encoding is ~level_count * n/8 bytes; sweep a deterministic
    // subset of bytes (every 7th) with all 8 bit positions to keep the
    // test fast while still crossing every field boundary.
    for byte in (0..bytes.len()).step_by(7).chain([1, 7, 8, 9, 15, 16, 17]) {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            if let Ok(decoded) = WaveletMatrix::from_bytes(&flipped) {
                // Rebuild the sequence via access and verify rank/select
                // against it.
                let seq: Vec<u64> = (0..SequenceIndex::len(&decoded))
                    .map(|i| decoded.access_sym(i))
                    .collect();
                let mut alphabet: Vec<u64> = seq.clone();
                alphabet.sort_unstable();
                alphabet.dedup();
                // A flipped level bit can make `access` spell a symbol
                // outside the declared alphabet; `rank`/`select` guard those
                // to 0/`None` by contract, so check that and then restrict
                // the mutual-consistency sweep to in-alphabet symbols.
                for &sym in alphabet.iter().filter(|&&s| s >= decoded.alphabet_size()) {
                    assert_eq!(decoded.rank_sym(sym, seq.len()), 0, "flip {byte}:{bit} oob rank({sym})");
                    assert_eq!(decoded.select_sym(sym, 1), None, "flip {byte}:{bit} oob select({sym})");
                }
                alphabet.retain(|&s| s < decoded.alphabet_size());
                for &sym in &alphabet {
                    let mut seen = 0usize;
                    for (i, &s) in seq.iter().enumerate() {
                        assert_eq!(decoded.rank_sym(sym, i), seen, "flip {byte}:{bit} rank({sym},{i})");
                        if s == sym {
                            seen += 1;
                            assert_eq!(
                                decoded.select_sym(sym, seen),
                                Some(i),
                                "flip {byte}:{bit} select({sym},{seen})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Round-trips across backends: a serialized `RankBitmap` re-opens with the
/// same backend and identical answers, for both backends.
#[test]
fn rank_bitmap_roundtrip_across_backends() {
    let bv: BitVec = (0..2000).map(|i| i % 13 == 5).collect();
    for backend in [RankBackend::Classic, RankBackend::Interleaved] {
        let bm = RankBitmap::build(&bv, backend);
        let back = RankBitmap::from_bytes(&bm.to_bytes()).unwrap();
        assert_eq!(back.backend(), backend);
        check_rank_select_equivalence(&format!("roundtrip/{}", backend.name()), &bm, &back);
    }
}
