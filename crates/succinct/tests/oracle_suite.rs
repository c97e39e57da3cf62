//! Randomized oracle tests for the succinct building blocks.
//!
//! Every structure is checked against a naive, obviously-correct
//! re-implementation over inputs drawn from a fixed-seed generator, covering
//! the corner densities (all-zeros, all-ones, sparse, dense) the paper's
//! rank/select machinery has to survive.

use sxsi_succinct::oracle::{
    bit_corpora, check_rank_select_against_naive, check_rank_select_equivalence, check_sequence_equivalence,
    oracle_cases, NaiveBitVector, OracleRng,
};
use sxsi_succinct::wavelet::SequenceIndex;
use sxsi_succinct::{BitVec, EliasFano, HuffmanWavelet, InterleavedRsBitVector};
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

fn check_rank_select(bits: &[bool]) {
    let bv: BitVec = bits.iter().copied().collect();
    let rs = InterleavedRsBitVector::new(&bv);
    assert_eq!(rs.len(), bits.len());

    let total_ones = bits.iter().filter(|&&b| b).count();
    assert_eq!(rs.count_ones(), total_ones);

    let mut ones = 0usize;
    for (i, &b) in bits.iter().enumerate() {
        assert_eq!(rs.get(i), b, "get({i})");
        assert_eq!(rs.rank1(i), ones, "rank1({i})");
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
}

#[test]
fn rsbitvec_matches_naive_across_densities() {
    let mut rng = Rng::new(0xB17_5EED);
    for &density in &[0u64, 1, 50, 500, 950, 1000] {
        for &len in &[1usize, 63, 64, 65, 383, 384, 385, 767, 768, 769, 1000, 4096, 10_000] {
            check_rank_select(&random_bits(&mut rng, len, density));
        }
    }
    check_rank_select(&[]);
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

/// One bucket — a run of equal high parts, i.e. of ones in the upper
/// bitmap — longer than a 384-bit block, so `locate`'s run scan and
/// `iter_from`'s word walk cross block edges.  With about 1000 values in a
/// 2^20 universe the low part is 10 bits wide: 1000 values below 1024 past
/// a bucket start share one high part.  Every `iter_from(k)` is checked.
#[test]
fn eliasfano_bucket_longer_than_a_block() {
    let universe = 1u64 << 20;
    let bucket = 300 * 1024;
    let before: Vec<u64> = (0..10).map(|i| i * 1000).collect();
    let after = [900_000u64, 900_001, universe - 1];
    let cases: Vec<(&str, Vec<u64>)> = vec![
        ("distinct low parts", before.iter().copied().chain(bucket..bucket + 1000).chain(after).collect()),
        ("equal values", before.iter().copied().chain(std::iter::repeat(bucket + 7).take(1000)).chain(after).collect()),
    ];
    for (label, values) in &cases {
        let mut probes = sarray_edge_probes(values, universe);
        probes.extend([bucket - 1, bucket, bucket + 500, bucket + 1023, bucket + 1024]);
        check_sarray_probes(label, values, universe, &probes);
        let ef = EliasFano::new(values, universe);
        for k in 0..=values.len() {
            assert!(ef.iter_from(k).eq(values[k..].iter().copied()), "{label}: iter_from({k})");
        }
    }
}

// ---------------------------------------------------------------------------
// Differential oracle harness for the rank/select bitvector
// ---------------------------------------------------------------------------

/// Every structured corpus (all-zero, all-one, alternating, runs, random
/// densities at every directory-boundary size) through interleaved-vs-naive.
/// `SXSI_ORACLE_CASES` scales the random corpora.
#[test]
fn all_rank_variants_agree_on_structured_corpora() {
    for (label, bits) in bit_corpora(oracle_cases(2)) {
        check_rank_select_against_naive(&label, &bits);
    }
}

/// Deterministic proptest-style random cases driven by the shared SplitMix64
/// generator: random lengths (biased toward directory boundaries) and random
/// densities, against the naive reference.
#[test]
fn random_cases_cross_check_all_variants() {
    let mut rng = OracleRng::new(0xD1FF_0AC1E);
    let cases = oracle_cases(48);
    for case in 0..cases {
        let len = match rng.below(4) {
            // Snap near a boundary: word, one and two 384-bit blocks.
            0 => {
                let base = [64usize, 384, 768][rng.below(3) as usize];
                let mult = 1 + rng.below(8) as usize;
                (base * mult + rng.below(3) as usize).saturating_sub(1)
            }
            _ => rng.below(6000) as usize,
        };
        let density = 1 + rng.below(999);
        let bits: Vec<bool> = (0..len).map(|_| rng.chance(density, 1000)).collect();
        check_rank_select_against_naive(&format!("random-case-{case}/{len}/{density}"), &bits);
    }
}

/// The naive sequence reference: every query is a linear scan.
struct NaiveSeq(Vec<u8>);

impl SequenceIndex<u8> for NaiveSeq {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn access(&self, i: usize) -> u8 {
        self.0[i]
    }
    fn rank(&self, sym: u8, i: usize) -> usize {
        self.0[..i].iter().filter(|&&s| s == sym).count()
    }
    fn select(&self, sym: u8, k: usize) -> Option<usize> {
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

/// Builds the Huffman wavelet tree over `seq` and checks every `access`,
/// `rank` and `select` against [`NaiveSeq`], for each present byte plus one
/// absent byte, and `access_rank` at every position.
fn check_against_naive(label: &str, seq: &[u8]) -> HuffmanWavelet {
    let mut alphabet = seq.to_vec();
    alphabet.sort_unstable();
    alphabet.dedup();
    if let Some(absent) = (0..=255u8).find(|b| !alphabet.contains(b)) {
        alphabet.push(absent);
    }
    let wt = HuffmanWavelet::new(seq);
    check_sequence_equivalence(label, &alphabet, &wt, &NaiveSeq(seq.to_vec()));
    // The fused descent: the symbol and its rank at every position.
    let mut seen = [0usize; 256];
    for (i, &c) in seq.iter().enumerate() {
        assert_eq!(wt.access_rank(i), (c, seen[c as usize]), "[{label}] access_rank({i})");
        seen[c as usize] += 1;
    }
    wt
}

/// Huffman wavelet tree vs a naive scan on the shapes that matter: no
/// symbol, one, two and all 256 distinct symbols, Zipf-skewed bytes (the
/// BWT-of-text case) and uniformly random bytes (the eight-level worst
/// case), through the generic sequence-equivalence driver.
#[test]
fn huffman_wavelet_matches_naive() {
    let mut rng = OracleRng::new(0x3A7_0AC1E);
    check_against_naive("empty", &[]);
    check_against_naive("one-symbol", &[b'q'; 700]);
    let all: Vec<u8> = (0..=255u8).chain((0..500).map(|i| (i * 89 % 256) as u8)).collect();
    check_against_naive("all-256", &all);
    // Zipf over the byte alphabet: weight of rank r is proportional to 1/(r+1).
    let zipf_cdf: Vec<u64> = (0..256u64)
        .scan(0, |acc, r| {
            *acc += 1_000_000 / (r + 1);
            Some(*acc)
        })
        .collect();
    for case in 0..oracle_cases(2) {
        let two: Vec<u8> = (0..900).map(|_| if rng.chance(1, 5) { b'x' } else { b'y' }).collect();
        check_against_naive(&format!("two-symbols-{case}"), &two);
        let zipf: Vec<u8> = (0..1500)
            .map(|_| {
                let u = rng.below(*zipf_cdf.last().unwrap());
                zipf_cdf.iter().position(|&c| u < c).unwrap() as u8
            })
            .collect();
        let wt = check_against_naive(&format!("zipf-{case}"), &zipf);
        assert!(wt.level_bits() < 7 * zipf.len(), "zipf-{case}: a skewed alphabet must beat 8 bits/symbol");
        let uniform: Vec<u8> = (0..1000).map(|_| rng.below(256) as u8).collect();
        let wt = check_against_naive(&format!("uniform-{case}"), &uniform);
        assert!(wt.level_count() <= 12, "uniform-{case}: {} levels", wt.level_count());
    }
}

/// Level lengths on the interleaved 384-bit block edge: the root level
/// (two symbols) and a deeper level (a one-bit byte plus two two-bit bytes
/// whose node holds exactly `n` bits).
#[test]
fn huffman_wavelet_levels_straddle_block_edges() {
    for n in [383usize, 384, 385] {
        let root: Vec<u8> = (0..n).map(|i| if i % 3 == 0 { b'a' } else { b'b' }).collect();
        check_against_naive(&format!("root-level/{n}"), &root);
        let mut deep: Vec<u8> = (0..n).map(|i| if i % 2 == 0 { b'b' } else { b'c' }).collect();
        deep.extend(std::iter::repeat(b'a').take(2 * n));
        let wt = check_against_naive(&format!("second-level/{n}"), &deep);
        assert_eq!((wt.code_len(b'a'), wt.code_len(b'b'), wt.level_bits()), (1, 2, 3 * n + n));
    }
}

// ---------------------------------------------------------------------------
// Rank/select bitvector edge geometry pinned explicitly
// ---------------------------------------------------------------------------

/// Rank/select on the empty bitvector: every query is total and `None`/0.
#[test]
fn rsbitvec_edge_empty() {
    let rs = InterleavedRsBitVector::new(&BitVec::new());
    assert_eq!(rs.len(), 0);
    assert!(rs.is_empty());
    assert_eq!(rs.rank1(0), 0);
    assert_eq!(rs.select1(0), None);
    assert_eq!(rs.select1(1), None);
    assert_eq!(rs.select0(1), None);
    assert_eq!(rs.count_ones(), 0);
}

/// Lengths straddling the 64-bit word and 384-bit block boundaries,
/// all-zeros and all-ones, with select of the *last* one/zero and the first
/// out-of-range k pinned at every length.
#[test]
fn rsbitvec_edge_boundary_geometry() {
    for n in [1usize, 63, 64, 65, 383, 384, 385, 767, 768, 769, 1023, 1024, 1025] {
        // All ones.
        let ones = InterleavedRsBitVector::new(&BitVec::filled(n, true));
        assert_eq!(ones.count_ones(), n, "n={n}");
        assert_eq!(ones.rank1(n), n);
        assert_eq!(ones.select1(1), Some(0));
        assert_eq!(ones.select1(n), Some(n - 1), "select of last 1, n={n}");
        assert_eq!(ones.select1(n + 1), None, "out-of-range select1, n={n}");
        assert_eq!(ones.select0(1), None, "no zeros, n={n}");

        // All zeros.
        let zeros = InterleavedRsBitVector::new(&BitVec::filled(n, false));
        assert_eq!(zeros.count_ones(), 0);
        assert_eq!(zeros.select0(1), Some(0));
        assert_eq!(zeros.select0(n), Some(n - 1), "select of last 0, n={n}");
        assert_eq!(zeros.select0(n + 1), None, "out-of-range select0, n={n}");
        assert_eq!(zeros.select1(1), None);

        // Single one at the very last position.
        let mut bv = BitVec::filled(n, false);
        bv.set(n - 1, true);
        let last = InterleavedRsBitVector::new(&bv);
        assert_eq!(last.select1(1), Some(n - 1), "lone trailing 1, n={n}");
        assert_eq!(last.rank1(n), 1);
        assert_eq!(last.rank1(n - 1), 0);
        if n > 1 {
            assert_eq!(last.select0(n - 1), Some(n - 2), "last 0 before trailing 1, n={n}");
        }
    }
}

// ---------------------------------------------------------------------------
// Persistence sweeps
// ---------------------------------------------------------------------------

fn interleaved_corpus() -> InterleavedRsBitVector {
    let bv: BitVec = (0..1000).map(|i| i % 7 == 0 || i % 11 == 3).collect();
    InterleavedRsBitVector::new(&bv)
}

fn wavelet_corpus() -> HuffmanWavelet {
    let seq: Vec<u8> = (0..400).map(|i| ((i * 131) % 13 + (i % 3) * 50) as u8).collect();
    HuffmanWavelet::new(&seq)
}

/// Every-byte truncation: no prefix of a valid encoding decodes.
#[test]
fn new_structures_reject_every_truncation() {
    let bytes = interleaved_corpus().to_bytes();
    for cut in 0..bytes.len() {
        assert!(InterleavedRsBitVector::from_bytes(&bytes[..cut]).is_err(), "interleaved cut {cut}");
    }
    let bytes = wavelet_corpus().to_bytes();
    for cut in 0..bytes.len() {
        assert!(HuffmanWavelet::from_bytes(&bytes[..cut]).is_err(), "wavelet cut {cut}");
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

/// Same sweep for the Huffman wavelet tree: any decodable mutation must
/// stay internally consistent (`access`/`rank`/`select` mutually agree).
/// Flips in the code lengths must be refused by the completeness check;
/// flips in a level either break a level length or re-route symbols.
#[test]
fn huffman_wavelet_bit_flips_error_or_stay_consistent() {
    let wt = wavelet_corpus();
    let bytes = wt.to_bytes();
    // Length and shape, all 256 code lengths, then every 7th level byte
    // with all 8 bit positions, crossing every field boundary.
    for byte in (0..9 + 256).chain((9 + 256..bytes.len()).step_by(7)) {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            let Ok(decoded) = HuffmanWavelet::from_bytes(&flipped) else { continue };
            assert!((9..9 + 256).all(|b| flipped[b] == bytes[b]), "flip {byte}:{bit} changed the code yet decoded");
            let seq: Vec<u8> = (0..SequenceIndex::len(&decoded)).map(|i| decoded.access(i)).collect();
            let mut alphabet = seq.clone();
            alphabet.sort_unstable();
            alphabet.dedup();
            alphabet.push(255); // absent from the corpus
            for &sym in &alphabet {
                let mut seen = 0usize;
                for (i, &s) in seq.iter().enumerate() {
                    assert_eq!(decoded.rank(sym, i), seen, "flip {byte}:{bit} rank({sym},{i})");
                    if s == sym {
                        seen += 1;
                        assert_eq!(decoded.select(sym, seen), Some(i), "flip {byte}:{bit} select({sym},{seen})");
                    }
                }
                assert_eq!(decoded.count(sym), seen, "flip {byte}:{bit} count({sym})");
            }
        }
    }
}
