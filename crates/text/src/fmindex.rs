//! The FM-index: backward search, LF-mapping and position location over the
//! BWT of the text collection (Section 3.1 of the paper).
//!
//! The BWT is stored, as in the paper, in a Huffman-shaped wavelet tree over
//! the byte alphabet (about `n·H₀` bits; one single-cache-line rank per code
//! bit, 4–5 on average for XML text), plus the `C` array of cumulative
//! symbol counts (derived from the wavelet tree, never stored), a sampling
//! bitmap `Bs` marking rows whose text position is a multiple of the
//! sampling step `l`, and the corresponding samples array `Ps`.  Locating an occurrence walks backwards with `LF`
//! until it hits a sample (at most `l` steps) or an end-marker, in which case
//! the paper's `Doc` array resolves the text directly (that resolution lives
//! in [`crate::collection::TextCollection`], which owns `Doc`).

use sxsi_io::{corrupt, read_usize, write_usize, IoError, ReadFrom, WriteInto};
use sxsi_succinct::{BitVec, HuffmanWavelet, InterleavedRsBitVector, IntVector, SpaceUsage};

/// Default sampling step for locate queries (the paper uses 64 in Table II
/// and 4 in Table III).
pub const DEFAULT_SAMPLE_RATE: usize = 64;

/// A half-open row range `[start, end)` of the conceptual matrix `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowRange {
    /// First matching row.
    pub start: usize,
    /// One past the last matching row.
    pub end: usize,
}

impl RowRange {
    /// Number of rows in the range.
    #[inline]
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// True if the range matches nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// FM-index over the collection BWT (end-markers rendered as byte 0).
#[derive(Debug, Clone)]
pub struct FmIndex {
    /// The BWT as a Huffman-shaped wavelet tree over the byte alphabet.
    bwt: HuffmanWavelet,
    /// `c[s]` = number of symbols strictly smaller than `s` in the text,
    /// with one extra slot so `c[s + 1] - c[s]` is the count of `s`.
    c: Vec<usize>,
    /// Marks rows whose suffix position is a multiple of `sample_rate`.
    sampled: InterleavedRsBitVector,
    /// Global text position for each sampled row, in row order.
    samples: IntVector,
    sample_rate: usize,
}

/// What a backward walk used to locate a row terminated on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocateOutcome {
    /// The walk hit a sampled row holding `position`, after `steps` LF steps,
    /// so the located position is `position + steps`.
    Sample {
        /// Global position stored at the sample.
        position: usize,
        /// Number of LF steps taken before reaching it.
        steps: usize,
    },
    /// The walk hit an end-marker: the located position is `steps` symbols
    /// after the start of the text whose `$`-rank is `dollar_rank`.
    EndMarker {
        /// Rank (0-based) of the end-marker among all end-markers in the BWT,
        /// to be resolved through the collection's `Doc` array.
        dollar_rank: usize,
        /// Number of LF steps taken before reaching it.
        steps: usize,
    },
}

impl FmIndex {
    /// Builds the index from the collection BWT and its locate samples (see
    /// [`crate::bwt::build_collection_bwt`]): the rows marked in `sampled`
    /// hold `samples`, in row order, every position that is a multiple of
    /// `sample_rate`.
    pub fn new(bwt: &[u8], sampled: &BitVec, samples: &[u64], sample_rate: usize) -> Self {
        assert!(sample_rate >= 1, "sample rate must be positive");
        assert_eq!(bwt.len(), sampled.len());
        let sampled = InterleavedRsBitVector::new(sampled);
        debug_assert_eq!(sampled.count_ones(), samples.len());
        Self::from_parts(HuffmanWavelet::new(bwt), sampled, IntVector::from_values(samples), sample_rate)
    }

    /// Assembles the index from its stored parts, deriving the `C` array
    /// from the wavelet tree's symbol counts.  [`FmIndex::new`] and the
    /// loader both assemble the index here.
    fn from_parts(bwt: HuffmanWavelet, sampled: InterleavedRsBitVector, samples: IntVector, sample_rate: usize) -> Self {
        let mut c = vec![0usize; 257];
        for b in 0..=255u8 {
            c[b as usize + 1] = c[b as usize] + bwt.count(b);
        }
        Self { bwt, c, sampled, samples, sample_rate }
    }

    /// Length of the indexed text (terminators included).
    #[inline]
    pub fn len(&self) -> usize {
        self.bwt.len()
    }

    /// True when the index holds no text.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bwt.is_empty()
    }

    /// The sampling step used for locate queries.
    #[inline]
    pub fn sample_rate(&self) -> usize {
        self.sample_rate
    }

    /// Number of occurrences of byte `b` in the whole text.
    #[inline]
    pub fn symbol_count(&self, b: u8) -> usize {
        self.c[b as usize + 1] - self.c[b as usize]
    }

    /// Number of occurrences of `b` in `bwt[0, i)`.
    #[inline]
    pub fn occ(&self, b: u8, i: usize) -> usize {
        self.bwt.rank(b, i)
    }

    /// BWT symbol at `row`.
    #[inline]
    pub fn bwt_symbol(&self, row: usize) -> u8 {
        self.bwt.access(row)
    }

    /// The LF-mapping: the row of the suffix starting one position earlier.
    #[inline]
    pub fn lf(&self, row: usize) -> usize {
        debug_assert!(row < self.len(), "LF-mapping of row {row} in a {}-row index", self.len());
        let b = self.bwt_symbol(row);
        let mapped = self.c[b as usize] + self.occ(b, row);
        // In range because the C array is the BWT's own symbol counts.
        debug_assert!(mapped < self.len(), "LF-mapping left the index: {row} -> {mapped}");
        mapped
    }

    /// One backward-search step: restrict `range` to rows whose suffix starts
    /// with `b` followed by the current match.
    #[inline]
    pub fn backward_step(&self, range: RowRange, b: u8) -> RowRange {
        RowRange {
            start: self.c[b as usize] + self.occ(b, range.start),
            end: self.c[b as usize] + self.occ(b, range.end),
        }
    }

    /// The full-matrix range.
    #[inline]
    pub fn full_range(&self) -> RowRange {
        RowRange { start: 0, end: self.len() }
    }

    /// Backward search of `pattern` starting from `start` (usually the full
    /// range).  Returns the matching row range; it is empty if the pattern
    /// does not occur.
    ///
    /// Even when the range becomes empty, the search keeps stepping so that
    /// the returned `start` is the *insertion point* of the pattern — the
    /// number of suffixes lexicographically smaller than it — which the
    /// collection's ordering operators (`<`, `<=`, …) rely on.
    pub fn backward_search_from(&self, pattern: &[u8], start: RowRange) -> RowRange {
        let mut range = start;
        for &b in pattern.iter().rev() {
            range = self.backward_step(range, b);
        }
        range
    }

    /// Backward search over the whole index (the paper's `FM-Count` without
    /// the final subtraction).
    pub fn backward_search(&self, pattern: &[u8]) -> RowRange {
        self.backward_search_from(pattern, self.full_range())
    }

    /// Number of occurrences of `pattern` in the whole collection, in
    /// `O(|pattern| log σ)` time.
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.backward_search(pattern).len()
    }

    /// Walks backwards from `row` until a sampled row or an end-marker is
    /// found; the caller converts the outcome into a `(text, offset)` pair.
    pub fn locate_walk(&self, mut row: usize) -> LocateOutcome {
        let mut steps = 0usize;
        loop {
            if self.sampled.get(row) {
                let position = self.samples.get(self.sampled.rank1(row)) as usize;
                return LocateOutcome::Sample { position, steps };
            }
            let b = self.bwt_symbol(row);
            if b == 0 {
                let dollar_rank = self.occ(0, row);
                return LocateOutcome::EndMarker { dollar_rank, steps };
            }
            row = self.c[b as usize] + self.occ(b, row);
            steps += 1;
            // Every `sample_rate`-th text position is sampled (the
            // verifier's `fm-sample-rate` invariant), so the walk must hit
            // a sample or an end-marker within `sample_rate` steps.
            debug_assert!(
                steps <= self.sample_rate,
                "locate walk ran {steps} steps past the sampling guarantee"
            );
        }
    }

    /// Heap size of the index in bytes.
    pub fn size_bytes(&self) -> usize {
        let (bwt, sampled, samples) = self.size_parts();
        bwt + sampled + samples
    }

    /// Heap bytes of the BWT (wavelet tree and `C` array), of the sampling
    /// bitmap and of the samples; they sum to [`FmIndex::size_bytes`].
    pub fn size_parts(&self) -> (usize, usize, usize) {
        (
            self.bwt.size_bytes() + std::mem::size_of_val(&self.c[..]),
            self.sampled.size_bytes(),
            self.samples.size_bytes(),
        )
    }
}

impl FmIndex {
    /// Whether `row` is marked in the sampling bitmap (verification support).
    pub(crate) fn row_is_sampled(&self, row: usize) -> bool {
        self.sampled.get(row)
    }

    /// The sampled text position stored for `row`; `row` must be sampled.
    pub(crate) fn sample_value(&self, row: usize) -> usize {
        self.samples.get(self.sampled.rank1(row)) as usize
    }
}

impl sxsi_verify::Verify for FmIndex {
    /// Structural checks mirroring (and exceeding) what `read_from`
    /// validates: sampling bitmap/array cardinality and sample value
    /// ranges.  The `C` array is derived from the BWT, so it agrees with it
    /// by construction.  The per-sample *position* check needs the text
    /// layout and lives in the collection's deep verification walk.
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        let len = self.len();
        ctx.check("fm-sample-rate", self.sample_rate >= 1, || {
            "sampling rate must be positive".into()
        });
        ctx.enter("bwt", |ctx| self.bwt.verify_into(depth, ctx));
        ctx.enter("sampled", |ctx| self.sampled.verify_into(depth, ctx));
        ctx.enter("samples", |ctx| self.samples.verify_into(depth, ctx));
        ctx.check("fm-sampled-len", self.sampled.len() == len, || {
            format!("sampling bitmap covers {} rows, the BWT {len}", self.sampled.len())
        });
        ctx.check("fm-sample-count", self.samples.len() == self.sampled.count_ones(), || {
            format!("{} samples stored for {} sampled rows", self.samples.len(), self.sampled.count_ones())
        });
        if ctx.issue_count() > issues_before {
            return;
        }
        let bad_sample = self.samples.iter().find(|&v| v as usize >= len);
        ctx.check("fm-sample-range", bad_sample.is_none(), || {
            format!("sample {} lies outside the {len}-symbol text", bad_sample.unwrap_or_default())
        });
    }
}

impl WriteInto for FmIndex {
    /// The sample rate, the BWT, the sampling bitmap and the samples; the
    /// text length is the BWT's and `C` is rebuilt from its symbol counts.
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_usize(w, self.sample_rate)?;
        self.bwt.write_into(w)?;
        self.sampled.write_into(w)?;
        self.samples.write_into(w)
    }
}

impl ReadFrom for FmIndex {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let sample_rate = read_usize(r)?;
        if sample_rate == 0 {
            return Err(corrupt("FM-index sample rate must be positive"));
        }
        let bwt = HuffmanWavelet::read_from(r)?;
        let len = bwt.len();
        let sampled = InterleavedRsBitVector::read_from(r)?;
        if sampled.len() != len {
            return Err(corrupt(format!(
                "FM-index sampling bitmap covers {} rows, expected {len}",
                sampled.len()
            )));
        }
        let samples = IntVector::read_from(r)?;
        if samples.len() != sampled.count_ones() {
            return Err(corrupt(format!(
                "FM-index holds {} samples for {} sampled rows",
                samples.len(),
                sampled.count_ones()
            )));
        }
        // Sample values are text positions; an out-of-range one would make
        // locate silently report positions past the end of the collection.
        if let Some(bad) = samples.iter().find(|&v| v as usize >= len) {
            return Err(corrupt(format!("FM-index sample {bad} lies outside the {len}-symbol text")));
        }
        Ok(Self::from_parts(bwt, sampled, samples, sample_rate))
    }
}

#[cfg(test)]
impl FmIndex {
    /// Swaps two locate-sample values (collection-level verify tests).
    pub(crate) fn corrupt_swap_samples_for_tests(&mut self, i: usize, j: usize) {
        let (a, b) = (self.samples.get(i), self.samples.get(j));
        self.samples.set(i, b);
        self.samples.set(j, a);
    }

    /// Overrides the declared sampling rate (collection-level verify tests).
    pub(crate) fn corrupt_sample_rate_for_tests(&mut self, rate: usize) {
        self.sample_rate = rate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwt::build_collection_bwt;

    fn build(texts: &[&str], sample_rate: usize) -> (FmIndex, Vec<u8>) {
        let concat: Vec<u8> = texts
            .iter()
            .flat_map(|t| t.bytes().chain(std::iter::once(0u8)))
            .collect();
        let out = build_collection_bwt(&concat, sample_rate);
        (FmIndex::new(&out.bwt, &out.sampled, &out.samples, sample_rate), concat)
    }

    fn naive_count(concat: &[u8], pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return concat.len();
        }
        concat.windows(pattern.len()).filter(|w| *w == pattern).count()
    }

    #[test]
    fn bwt_sequence_serialization_roundtrip_and_truncation() {
        let (fm, _) = build(&["annb", "aa"], 2);
        let bytes = fm.to_bytes();
        let back = FmIndex::from_bytes(&bytes).expect("roundtrip");
        for row in 0..fm.len() {
            assert_eq!(back.bwt_symbol(row), fm.bwt_symbol(row), "row {row}");
        }
        // Truncated input must fail structurally, never panic.
        assert!(FmIndex::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        // The tree's 256 code lengths follow `sample_rate`, the tree's
        // `len` and its shape byte.  Giving the absent byte `z` a code
        // breaks the Kraft equality, so the loader must refuse the code
        // before reading any level.
        assert_eq!(bytes[16], 2, "four distinct BWT symbols need a coded tree");
        let mut forged = bytes.clone();
        forged[17 + b'z' as usize] = 1;
        let err = FmIndex::from_bytes(&forged).unwrap_err();
        assert!(err.to_string().contains("complete prefix code"), "{err}");
    }

    #[test]
    fn count_matches_naive() {
        let texts = ["pen", "Soon discontinued", "blue", "40", "rubber", "30"];
        let (fm, concat) = build(&texts, 4);
        for pattern in ["n", "on", "ue", "pen", "blue", "rubber", "zzz", "Soon", "o", "e", "0"] {
            assert_eq!(fm.count(pattern.as_bytes()), naive_count(&concat, pattern.as_bytes()), "pattern {pattern}");
        }
        assert_eq!(fm.count(b""), concat.len());
    }

    #[test]
    fn paper_figure2_example() {
        // Single text "discontinued" as in Figure 2 of the paper.
        let (fm, concat) = build(&["discontinued"], 3);
        assert_eq!(fm.len(), 13);
        assert_eq!(fm.count(b"n"), 2);
        assert_eq!(fm.count(b"discontinued"), 1);
        assert_eq!(fm.count(b"d"), 2);
        assert_eq!(naive_count(&concat, b"n"), 2);
    }

    #[test]
    fn lf_walk_reconstructs_text_backwards() {
        let (fm, concat) = build(&["discontinued"], 3);
        // Find the row of the terminator (the only 0 byte): row 0 in F holds
        // the smallest rotation which starts with $.
        let mut row = 0usize;
        let mut rebuilt = Vec::new();
        for _ in 0..concat.len() {
            let b = fm.bwt_symbol(row);
            rebuilt.push(b);
            row = fm.lf(row);
        }
        rebuilt.reverse();
        // Walking LF from the $-row yields the text preceded (cyclically) by
        // its terminator.
        assert_eq!(rebuilt[0], 0);
        assert_eq!(&rebuilt[1..], b"discontinued");
    }

    #[test]
    fn locate_walk_terminates_within_sample_rate() {
        let texts = ["abcabcabcabc", "xyzxyzxyz"];
        for rate in [1usize, 2, 4, 16] {
            let (fm, _) = build(&texts, rate);
            for row in 0..fm.len() {
                match fm.locate_walk(row) {
                    LocateOutcome::Sample { steps, .. } => assert!(steps < rate.max(1) * 2),
                    LocateOutcome::EndMarker { steps, .. } => assert!(steps <= fm.len()),
                }
            }
        }
    }

    #[test]
    fn backward_step_shrinks_range() {
        let (fm, _) = build(&["banana"], 2);
        let all = fm.full_range();
        let a = fm.backward_step(all, b'a');
        assert_eq!(a.len(), 3);
        let na = fm.backward_search(b"na");
        assert_eq!(na.len(), 2);
        let nothing = fm.backward_search(b"nab");
        assert!(nothing.is_empty());
    }

    #[test]
    fn serialization_roundtrip_preserves_search_and_locate() {
        let texts = ["pen", "Soon discontinued", "blue", "40", "rubber", "30"];
        let (fm, concat) = build(&texts, 4);
        let back = FmIndex::from_bytes(&fm.to_bytes()).unwrap();
        assert_eq!(back.len(), fm.len());
        assert_eq!(back.sample_rate(), fm.sample_rate());
        assert_eq!(back.c, fm.c, "C is rebuilt from the BWT's symbol counts");
        for pattern in ["n", "on", "blue", "zzz", "0"] {
            assert_eq!(back.count(pattern.as_bytes()), naive_count(&concat, pattern.as_bytes()));
        }
        for row in 0..fm.len() {
            assert_eq!(back.locate_walk(row), fm.locate_walk(row), "row {row}");
        }
    }

    #[test]
    fn serialization_rejects_truncation() {
        let (fm, _) = build(&["banana"], 2);
        let bytes = fm.to_bytes();
        for cut in [0, 8, 20, bytes.len() - 1] {
            assert!(FmIndex::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    mod verify_tests {
        use super::*;
        use sxsi_verify::{Verify, VerifyDepth};

        fn sample_fm() -> FmIndex {
            build(&["pen", "Soon discontinued", "blue", "40", "rubber", "30"], 4).0
        }

        #[test]
        fn clean_index_verifies() {
            let report = sample_fm().verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "{report}");
            assert!(report.checks_run >= 8);
        }

        #[test]
        fn out_of_range_sample_is_caught() {
            let mut fm = sample_fm();
            fm.samples.set(0, fm.len() as u64);
            let report = fm.verify(VerifyDepth::Quick);
            assert!(report.has_code("fm-sample-range"), "{report}");
        }

        #[test]
        fn bwt_length_drift_is_caught() {
            // The text length is the BWT's; a sampling bitmap one row
            // longer than it is caught.
            let mut fm = sample_fm();
            let longer: BitVec = (0..=fm.len()).map(|row| row < fm.len() && fm.sampled.get(row)).collect();
            fm.sampled = InterleavedRsBitVector::new(&longer);
            let report = fm.verify(VerifyDepth::Quick);
            assert!(report.has_code("fm-sampled-len"), "{report}");
        }
    }

    #[test]
    fn symbol_counts() {
        let (fm, concat) = build(&["mississippi"], 4);
        for b in [b'm', b'i', b's', b'p', 0u8, b'z'] {
            assert_eq!(fm.symbol_count(b), concat.iter().filter(|&&c| c == b).count());
        }
    }
}
