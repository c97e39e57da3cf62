//! The SXSI text collection index (Section 3.2 of the paper).
//!
//! [`TextCollection`] ties the FM-index together with the `Doc` array, the
//! per-text start offsets and (optionally) a plain copy of the texts, and
//! exposes the XPath-level string predicates: `contains`, `starts-with`,
//! `ends-with`, `=` and the lexicographic comparison operators, each
//! returning the identifiers of the matching texts, plus existential and
//! counting variants.

use crate::bwt::build_collection_bwt;
use crate::fmindex::{FmIndex, LocateOutcome, RowRange, DEFAULT_SAMPLE_RATE};
use crate::plain::{contains_slice, PlainTexts, TextId};
use sxsi_io::{corrupt, read_u32_vec, read_u8, write_u32_slice, write_u8, IoError, ReadFrom, WriteInto};
use sxsi_succinct::EliasFano;

/// A text-predicate as it appears in an XPath filter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextPredicate {
    /// `contains(., "pattern")`
    Contains(Vec<u8>),
    /// `starts-with(., "pattern")`
    StartsWith(Vec<u8>),
    /// `ends-with(., "pattern")`
    EndsWith(Vec<u8>),
    /// `. = "pattern"`
    Equals(Vec<u8>),
    /// `. < "pattern"` (lexicographic)
    LessThan(Vec<u8>),
    /// `. <= "pattern"`
    LessEq(Vec<u8>),
    /// `. > "pattern"`
    GreaterThan(Vec<u8>),
    /// `. >= "pattern"`
    GreaterEq(Vec<u8>),
}

impl TextPredicate {
    /// The raw pattern bytes of the predicate.
    pub fn pattern(&self) -> &[u8] {
        match self {
            TextPredicate::Contains(p)
            | TextPredicate::StartsWith(p)
            | TextPredicate::EndsWith(p)
            | TextPredicate::Equals(p)
            | TextPredicate::LessThan(p)
            | TextPredicate::LessEq(p)
            | TextPredicate::GreaterThan(p)
            | TextPredicate::GreaterEq(p) => p,
        }
    }

    /// Evaluates the predicate directly against a string value (used for the
    /// XPath string-value semantics over mixed content, where the searched
    /// value may span several text nodes).
    pub fn matches_value(&self, value: &[u8]) -> bool {
        match self {
            TextPredicate::Contains(p) => contains_slice(value, p),
            TextPredicate::StartsWith(p) => value.starts_with(p),
            TextPredicate::EndsWith(p) => value.ends_with(p),
            TextPredicate::Equals(p) => value == &p[..],
            TextPredicate::LessThan(p) => value < &p[..],
            TextPredicate::LessEq(p) => value <= &p[..],
            TextPredicate::GreaterThan(p) => value > &p[..],
            TextPredicate::GreaterEq(p) => value >= &p[..],
        }
    }
}

/// Build-time space/time trade-offs of a [`TextCollection`] (Section 3.4,
/// Tables II and III).
///
/// Neither value is stored on its own: the FM-index records its sampling
/// step and the collection records whether it kept a plain copy, so a
/// reloaded collection behaves exactly like the one that was built.
#[derive(Debug, Clone)]
pub struct TextCollectionOptions {
    /// Locate sampling step (`l` in the paper; Tables II and III use 64 / 4).
    pub sample_rate: usize,
    /// Keep a plain copy of the texts (Section 3.4).  Costs `|T|` bytes but
    /// makes extraction constant-time per symbol and enables the scan-based
    /// evaluation of high-frequency `contains` patterns.
    pub keep_plain_text: bool,
}

impl Default for TextCollectionOptions {
    fn default() -> Self {
        Self { sample_rate: DEFAULT_SAMPLE_RATE, keep_plain_text: true }
    }
}

/// Occurrence count above which `contains` and its variants scan the plain
/// copy (when one is kept) instead of locating every occurrence through the
/// FM-index — the cut-off discussion of Section 6.3.
const SCAN_CUTOFF: usize = 50_000;

/// Heap bytes of each component of a [`TextCollection`]'s index, the
/// optional plain store excluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextIndexSpace {
    /// The BWT: its wavelet tree and the `C` array.
    pub bwt: usize,
    /// The locate sampling bitmap.
    pub sampled: usize,
    /// The locate samples.
    pub samples: usize,
    /// The `Doc` array.
    pub doc: usize,
    /// The text start offsets.
    pub starts: usize,
}

impl TextIndexSpace {
    /// Sum of the components: [`TextCollection::index_size_bytes`].
    pub fn total(&self) -> usize {
        self.bwt + self.sampled + self.samples + self.doc + self.starts
    }
}

/// Self-indexed text collection: FM-index + `Doc` + text boundaries
/// (+ optional plain copy).
#[derive(Debug, Clone)]
pub struct TextCollection {
    fm: FmIndex,
    /// `doc[j]` = id of the text whose first symbol starts the row of the
    /// `j`-th `$` in the BWT.
    doc: Vec<u32>,
    /// Start offsets of each text in the concatenation (terminators counted).
    starts: EliasFano,
    plain: Option<PlainTexts>,
}

impl TextCollection {
    /// Builds the collection index with default options.
    pub fn new<S: AsRef<[u8]>>(texts: &[S]) -> Self {
        Self::with_options(texts, TextCollectionOptions::default())
    }

    /// Builds the collection index.
    pub fn with_options<S: AsRef<[u8]>>(texts: &[S], options: TextCollectionOptions) -> Self {
        let bwt = build_collection_bwt(texts);
        let fm = FmIndex::new(&bwt.bwt, &bwt.sa, options.sample_rate);
        let starts_vals: Vec<u64> = bwt.starts.iter().map(|&s| s as u64).collect();
        let starts = EliasFano::new(&starts_vals, bwt.len.max(1) as u64);
        let plain = options.keep_plain_text.then(|| PlainTexts::new(texts));
        Self { fm, doc: bwt.doc, starts, plain }
    }

    /// Number of texts (the paper's `d`): one end-marker each in the BWT.
    pub fn num_texts(&self) -> usize {
        self.fm.symbol_count(0)
    }

    /// Total length of the concatenation, terminators included.
    pub fn total_len(&self) -> usize {
        self.fm.len()
    }

    /// The underlying FM-index.
    pub fn fm_index(&self) -> &FmIndex {
        &self.fm
    }

    /// The plain-text store, if it was kept.
    pub fn plain(&self) -> Option<&PlainTexts> {
        self.plain.as_ref()
    }

    /// Heap size in bytes (FM-index + Doc + boundaries), excluding the
    /// optional plain store.
    pub fn index_size_bytes(&self) -> usize {
        self.index_space().total()
    }

    /// [`TextCollection::index_size_bytes`] broken down by component.
    pub fn index_space(&self) -> TextIndexSpace {
        use sxsi_succinct::SpaceUsage;
        let (bwt, sampled, samples) = self.fm.size_parts();
        TextIndexSpace {
            bwt,
            sampled,
            samples,
            doc: std::mem::size_of_val(&self.doc[..]),
            starts: self.starts.size_bytes(),
        }
    }

    // ------------------------------------------------------------------
    // Position arithmetic
    // ------------------------------------------------------------------

    /// Length of text `id` (excluding the terminator).
    pub fn text_len(&self, id: TextId) -> usize {
        let start = self.starts.get(id).expect("text id in range") as usize;
        let end = self
            .starts
            .get(id + 1)
            .map(|e| e as usize)
            .unwrap_or(self.total_len());
        // Strict monotonicity of the start offsets (the verifier's
        // `text-starts` invariant) keeps this subtraction in range.
        debug_assert!(end > start, "text {id} spans [{start}, {end})");
        end - start - 1
    }

    /// Converts a global concatenation position into `(text, offset)`.
    pub fn global_to_text(&self, pos: usize) -> (TextId, usize) {
        debug_assert!(pos < self.total_len());
        // rank gives the number of starts <= pos ... we need the last start <= pos.
        let (id, start) = self.starts.predecessor(pos as u64 + 1).expect("pos within collection");
        (id, pos - start as usize)
    }

    /// Resolves the text and offset of the suffix at `row` of the BWT matrix.
    pub fn locate_row(&self, row: usize) -> (TextId, usize) {
        match self.fm.locate_walk(row) {
            LocateOutcome::Sample { position, steps } => self.global_to_text(position + steps),
            LocateOutcome::EndMarker { dollar_rank, steps } => (self.doc[dollar_rank] as usize, steps),
        }
    }

    // ------------------------------------------------------------------
    // Extraction
    // ------------------------------------------------------------------

    /// Returns the content of text `id`.
    ///
    /// Uses the plain store when available, otherwise extracts from the
    /// BWT by walking `LF` from the text's terminator row (`O(log σ)` per
    /// symbol, Section 3.3).
    pub fn get_text(&self, id: TextId) -> Vec<u8> {
        assert!(id < self.num_texts(), "text id {id} out of range");
        if let Some(plain) = &self.plain {
            return plain.text(id).to_vec();
        }
        // Row `id` of F is the terminator of text `id` (the fixed end-marker
        // ordering); walk backwards collecting symbols until the previous
        // terminator.
        let mut out = Vec::new();
        let mut row = id;
        loop {
            let b = self.fm.bwt_symbol(row);
            if b == 0 {
                break;
            }
            out.push(b);
            row = self.fm.lf(row);
        }
        out.reverse();
        out
    }

    /// Evaluates `pred` against the full content of text `id`.
    pub fn text_matches(&self, id: TextId, pred: &TextPredicate) -> bool {
        if let Some(plain) = &self.plain {
            pred.matches_value(plain.text(id))
        } else {
            pred.matches_value(&self.get_text(id))
        }
    }

    // ------------------------------------------------------------------
    // Counting and search primitives
    // ------------------------------------------------------------------

    /// Total number of occurrences of `pattern` across all texts
    /// (the paper's `GlobalCount`); `O(|pattern| log σ)`.
    pub fn global_count(&self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return 0;
        }
        self.fm.count(pattern)
    }

    /// Identifiers of texts containing `pattern` (`ContainsReport` reduced to
    /// distinct texts, as used by the XPath `contains` predicate).
    pub fn contains(&self, pattern: &[u8]) -> Vec<TextId> {
        if pattern.is_empty() {
            return (0..self.num_texts()).collect();
        }
        // Decide between FM-locate and plain scan based on the global count
        // (Section 6.3): counting is cheap, so use it as the planner — the
        // backward search that produces the count is the same one the locate
        // path consumes.
        let range = self.fm.backward_search(pattern);
        if let Some(plain) = &self.plain {
            if range.len() > SCAN_CUTOFF {
                return plain.scan_contains(pattern);
            }
        }
        let mut ids: Vec<TextId> = (range.start..range.end).map(|row| self.locate_row(row).0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of texts containing `pattern`, without materializing the
    /// full id vector: the scan path counts matching texts directly, and the
    /// locate path deduplicates through a hash set instead of building and
    /// sorting one entry per occurrence.
    pub fn contains_count(&self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return self.num_texts();
        }
        let range = self.fm.backward_search(pattern);
        if range.is_empty() {
            return 0;
        }
        if let Some(plain) = &self.plain {
            if range.len() > SCAN_CUTOFF {
                return plain.scan_contains_count(pattern);
            }
        }
        let mut seen = std::collections::HashSet::with_capacity(range.len().min(self.num_texts()));
        for row in range.start..range.end {
            seen.insert(self.locate_row(row).0);
        }
        seen.len()
    }

    /// Positions `(text, offset)` of every occurrence of `pattern`
    /// (the paper's `ContainsReport`).
    ///
    /// Uses the same plan as [`TextCollection::contains`]: counting through
    /// the FM-index is cheap, and when the pattern occurs more often than
    /// the scan cut-off a sequential pass over the plain store beats
    /// locating every occurrence through the BWT (Section 6.3).
    pub fn contains_positions(&self, pattern: &[u8]) -> Vec<(TextId, usize)> {
        if pattern.is_empty() {
            return Vec::new();
        }
        let range = self.fm.backward_search(pattern);
        if let Some(plain) = &self.plain {
            if range.len() > SCAN_CUTOFF {
                return plain.scan_contains_positions(pattern);
            }
        }
        let mut out: Vec<(TextId, usize)> = (range.start..range.end).map(|row| self.locate_row(row)).collect();
        out.sort_unstable();
        out
    }

    /// Whether any text contains `pattern`.
    pub fn contains_exists(&self, pattern: &[u8]) -> bool {
        !self.fm.backward_search(pattern).is_empty()
    }

    /// Identifiers of texts starting with `pattern`.
    pub fn starts_with(&self, pattern: &[u8]) -> Vec<TextId> {
        if pattern.is_empty() {
            return (0..self.num_texts()).collect();
        }
        let range = self.fm.backward_search(pattern);
        self.dollar_rows_to_ids(range)
    }

    /// Identifiers of texts ending with `pattern`.
    pub fn ends_with(&self, pattern: &[u8]) -> Vec<TextId> {
        if pattern.is_empty() {
            return (0..self.num_texts()).collect();
        }
        // Start the backward search from the terminator block [0, d): row i
        // is the terminator of text i, so surviving rows are occurrences of
        // `pattern` immediately followed by a terminator.
        let start = RowRange { start: 0, end: self.num_texts() };
        let range = self.fm.backward_search_from(pattern, start);
        let mut ids: Vec<TextId> = (range.start..range.end).map(|row| self.locate_row(row).0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Identifiers of texts exactly equal to `pattern`.
    pub fn equals(&self, pattern: &[u8]) -> Vec<TextId> {
        if pattern.is_empty() {
            return (0..self.num_texts()).filter(|&id| self.text_len(id) == 0).collect();
        }
        let start = RowRange { start: 0, end: self.num_texts() };
        let range = self.fm.backward_search_from(pattern, start);
        self.dollar_rows_to_ids(range)
    }

    /// Identifiers of texts lexicographically smaller than `pattern`.
    pub fn less_than(&self, pattern: &[u8]) -> Vec<TextId> {
        // A text X is < P iff its full suffix (X followed by its terminator)
        // sorts before the insertion point of P: the terminator is smaller
        // than every character, so X$ < P exactly when X < P (proper prefixes
        // included).  The backward search keeps `start` equal to the number
        // of suffixes smaller than P even when P does not occur, so the
        // texts < P are the `$`-labelled rows before `start`.
        let range = self.fm.backward_search(pattern);
        let upto = self.fm.occ(0, range.start);
        let mut ids: Vec<TextId> = self.doc[..upto].iter().map(|&x| x as usize).collect();
        ids.sort_unstable();
        ids
    }

    /// Identifiers of texts `<= pattern`.
    pub fn less_equal(&self, pattern: &[u8]) -> Vec<TextId> {
        let mut ids = self.less_than(pattern);
        ids.extend(self.equals(pattern));
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Identifiers of texts `> pattern`.
    pub fn greater_than(&self, pattern: &[u8]) -> Vec<TextId> {
        self.complement(&self.less_equal(pattern))
    }

    /// Identifiers of texts `>= pattern`.
    pub fn greater_equal(&self, pattern: &[u8]) -> Vec<TextId> {
        self.complement(&self.less_than(pattern))
    }

    /// Evaluates an arbitrary [`TextPredicate`], returning matching text ids
    /// in increasing order.
    pub fn matching_texts(&self, pred: &TextPredicate) -> Vec<TextId> {
        match pred {
            TextPredicate::Contains(p) => self.contains(p),
            TextPredicate::StartsWith(p) => self.starts_with(p),
            TextPredicate::EndsWith(p) => self.ends_with(p),
            TextPredicate::Equals(p) => self.equals(p),
            TextPredicate::LessThan(p) => self.less_than(p),
            TextPredicate::LessEq(p) => self.less_equal(p),
            TextPredicate::GreaterThan(p) => self.greater_than(p),
            TextPredicate::GreaterEq(p) => self.greater_equal(p),
        }
    }

    /// Number of texts matching the predicate.
    pub fn count_matching(&self, pred: &TextPredicate) -> usize {
        self.matching_texts(pred).len()
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    /// Rows in `range` whose BWT symbol is `$` correspond to whole texts
    /// (their suffix starts at a text start); map them to text ids via `Doc`.
    fn dollar_rows_to_ids(&self, range: RowRange) -> Vec<TextId> {
        if range.is_empty() {
            return Vec::new();
        }
        let lo = self.fm.occ(0, range.start);
        let hi = self.fm.occ(0, range.end);
        let mut ids: Vec<TextId> = self.doc[lo..hi].iter().map(|&x| x as usize).collect();
        ids.sort_unstable();
        ids
    }

    /// Assembles a collection from deserialized parts, used by the
    /// [`ReadFrom`] implementation after cross-validating them against the
    /// FM-index, whose end-markers count the texts.
    fn from_parts(
        fm: FmIndex,
        doc: Vec<u32>,
        starts: EliasFano,
        plain: Option<PlainTexts>,
    ) -> Result<Self, IoError> {
        let num_texts = fm.symbol_count(0);
        if doc.len() != num_texts {
            return Err(corrupt(format!("Doc array holds {} entries for {num_texts} texts", doc.len())));
        }
        if doc.iter().any(|&d| d as usize >= num_texts.max(1)) {
            return Err(corrupt("Doc array references a text id out of range"));
        }
        if starts.len() != num_texts {
            return Err(corrupt(format!(
                "start-offset sequence holds {} entries for {num_texts} texts",
                starts.len()
            )));
        }
        if starts.iter().any(|s| s as usize >= fm.len().max(1)) {
            return Err(corrupt("text start offset lies outside the concatenation"));
        }
        match &plain {
            Some(p) if p.num_texts() != num_texts => {
                return Err(corrupt(format!(
                    "plain store holds {} texts, the BWT {num_texts}",
                    p.num_texts()
                )));
            }
            _ => {}
        }
        Ok(Self { fm, doc, starts, plain })
    }

    /// Deep verification: replays every text backwards through the LF
    /// mapping, cross-checking the sampling structures, the `Doc` array and
    /// (when kept) the plain store against the position the walk tracks.
    /// Visits every BWT row exactly once, `O(total_len)` rank operations.
    fn verify_walk(&self, ctx: &mut sxsi_verify::VerifyContext) {
        let rate = self.fm.sample_rate();
        let mut sample_row: Option<String> = None;
        let mut sample_value: Option<String> = None;
        let mut doc_mismatch: Option<String> = None;
        let mut plain_mismatch: Option<String> = None;
        let mut walk_broken: Option<String> = None;
        for id in 0..self.num_texts() {
            let Some(start) = self.starts.get(id) else {
                walk_broken.get_or_insert_with(|| format!("start offset of text {id} is unreadable"));
                continue;
            };
            let start = start as usize;
            let tlen = self.text_len(id);
            let plain = self.plain.as_ref().map(|p| p.text(id));
            if let Some(p) = plain {
                if p.len() != tlen {
                    plain_mismatch.get_or_insert_with(|| {
                        format!("plain text {id} holds {} bytes, boundaries declare {tlen}", p.len())
                    });
                    continue;
                }
            }
            let mut row = id;
            let mut offset = tlen;
            loop {
                let pos = start + offset;
                let marked = self.fm.row_is_sampled(row);
                if marked != (pos % rate == 0) {
                    sample_row.get_or_insert_with(|| {
                        format!(
                            "row of position {pos} (text {id}) is {}sampled for rate {rate}",
                            if marked { "" } else { "not " }
                        )
                    });
                }
                if marked {
                    let v = self.fm.sample_value(row);
                    if v != pos {
                        sample_value
                            .get_or_insert_with(|| format!("sample at position {pos} (text {id}) stores {v}"));
                    }
                }
                let b = self.fm.bwt_symbol(row);
                if offset == 0 {
                    if b != 0 {
                        walk_broken.get_or_insert_with(|| {
                            format!("walk of text {id} reached its start over symbol {b}, expected an end-marker")
                        });
                    } else {
                        let dollar_rank = self.fm.occ(0, row);
                        let d = self.doc[dollar_rank] as usize;
                        if d != id {
                            doc_mismatch.get_or_insert_with(|| {
                                format!("Doc maps end-marker {dollar_rank} to text {d}, the walk of text {id} reached it")
                            });
                        }
                    }
                    break;
                }
                if b == 0 {
                    walk_broken.get_or_insert_with(|| {
                        format!("walk of text {id} hit an end-marker {offset} symbols early")
                    });
                    break;
                }
                if let Some(p) = plain {
                    if p[offset - 1] != b {
                        plain_mismatch.get_or_insert_with(|| {
                            format!(
                                "BWT stores {b:#04x} at offset {} of text {id}, plain store holds {:#04x}",
                                offset - 1,
                                p[offset - 1]
                            )
                        });
                    }
                }
                row = self.fm.lf(row);
                offset -= 1;
            }
        }
        ctx.check("fm-sample-row", sample_row.is_none(), || sample_row.unwrap_or_default());
        ctx.check("fm-sample-value", sample_value.is_none(), || sample_value.unwrap_or_default());
        ctx.check("text-doc-mismatch", doc_mismatch.is_none(), || doc_mismatch.unwrap_or_default());
        ctx.check("text-walk", walk_broken.is_none(), || walk_broken.unwrap_or_default());
        if self.plain.is_some() {
            ctx.check("plain-text-mismatch", plain_mismatch.is_none(), || {
                plain_mismatch.unwrap_or_default()
            });
        }
    }

    fn complement(&self, sorted_ids: &[TextId]) -> Vec<TextId> {
        let mut out = Vec::with_capacity(self.num_texts() - sorted_ids.len());
        let mut it = sorted_ids.iter().copied().peekable();
        for id in 0..self.num_texts() {
            if it.peek() == Some(&id) {
                it.next();
            } else {
                out.push(id);
            }
        }
        out
    }
}

impl sxsi_verify::Verify for TextCollection {
    /// Cross-structure checks over the paper's text apparatus: the FM-index,
    /// the `Doc` array, the text boundaries and the optional plain store
    /// must all describe the same collection.  Deep verification replays
    /// every text through the LF mapping.
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        ctx.enter("fm", |ctx| self.fm.verify_into(depth, ctx));
        ctx.enter("starts", |ctx| self.starts.verify_into(depth, ctx));
        if let Some(p) = &self.plain {
            ctx.enter("plain", |ctx| p.verify_into(depth, ctx));
        }
        let (num_texts, total_len) = (self.num_texts(), self.total_len());
        ctx.check(
            "text-count",
            self.doc.len() == num_texts && self.starts.len() == num_texts,
            || {
                format!(
                    "the BWT holds {num_texts} end-markers, Doc holds {}, boundaries hold {}",
                    self.doc.len(),
                    self.starts.len()
                )
            },
        );
        let bad_doc = self.doc.iter().position(|&d| d as usize >= num_texts.max(1));
        ctx.check("text-doc-range", bad_doc.is_none(), || {
            format!(
                "Doc entry {} references text {} of {num_texts}",
                bad_doc.unwrap_or_default(),
                self.doc.get(bad_doc.unwrap_or_default()).copied().unwrap_or_default(),
            )
        });
        let starts_ok = num_texts == 0
            || (self.starts.get(0) == Some(0)
                && (1..num_texts).all(|i| {
                    match (self.starts.get(i - 1), self.starts.get(i)) {
                        (Some(a), Some(b)) => b > a,
                        _ => false,
                    }
                })
                && self.starts.get(num_texts - 1).is_some_and(|last| (last as usize) < total_len));
        ctx.check("text-starts", starts_ok, || {
            "text start offsets are not strictly increasing from 0 within the concatenation".into()
        });
        if let Some(p) = &self.plain {
            ctx.check(
                "plain-text-count",
                p.num_texts() == num_texts && p.total_bytes() + num_texts == total_len,
                || {
                    format!(
                        "plain store holds {} texts / {} bytes, the BWT {num_texts} texts / {} bytes",
                        p.num_texts(),
                        p.total_bytes(),
                        total_len.saturating_sub(num_texts)
                    )
                },
            );
        }
        if ctx.issue_count() > issues_before {
            return;
        }
        if depth.is_deep() {
            self.verify_walk(ctx);
        }
    }
}

impl WriteInto for TextCollection {
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        self.fm.write_into(w)?;
        write_u32_slice(w, &self.doc)?;
        self.starts.write_into(w)?;
        match &self.plain {
            Some(plain) => {
                write_u8(w, 1)?;
                plain.write_into(w)
            }
            None => write_u8(w, 0),
        }
    }
}

impl ReadFrom for TextCollection {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let fm = FmIndex::read_from(r)?;
        let doc = read_u32_vec(r)?;
        let starts = EliasFano::read_from(r)?;
        let plain = match read_u8(r)? {
            0 => None,
            1 => Some(PlainTexts::read_from(r)?),
            other => return Err(corrupt(format!("invalid plain-store flag {other}"))),
        };
        Self::from_parts(fm, doc, starts, plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection(texts: &[&str]) -> TextCollection {
        TextCollection::new(texts)
    }

    fn collection_no_plain(texts: &[&str]) -> TextCollection {
        TextCollection::with_options(
            texts,
            TextCollectionOptions { keep_plain_text: false, sample_rate: 4 },
        )
    }

    const PAPER_TEXTS: [&str; 6] = ["pen", "Soon discontinued", "blue", "40", "rubber", "30"];

    /// The locate answer for `pattern`: every occurrence resolved through
    /// the FM-index, whatever the collection's scan cut-off would choose.
    fn located(tc: &TextCollection, pattern: &[u8]) -> Vec<(TextId, usize)> {
        let range = tc.fm_index().backward_search(pattern);
        let mut out: Vec<_> = (range.start..range.end).map(|row| tc.locate_row(row)).collect();
        out.sort_unstable();
        out
    }

    fn ids_of(positions: &[(TextId, usize)]) -> Vec<TextId> {
        let mut ids: Vec<TextId> = positions.iter().map(|&(id, _)| id).collect();
        ids.dedup();
        ids
    }

    #[test]
    fn options_serialization_roundtrip_and_truncation() {
        // The options are not written on their own: the body begins with
        // the FM-index, which carries the sample rate, and the plain flag
        // says whether a copy was kept.
        let options = TextCollectionOptions { sample_rate: 8, keep_plain_text: false };
        let tc = TextCollection::with_options(&PAPER_TEXTS, options);
        let bytes = tc.to_bytes();
        assert_eq!(bytes[..tc.fm.to_bytes().len()], tc.fm.to_bytes()[..]);
        let back = TextCollection::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.fm_index().sample_rate(), 8);
        assert!(back.plain().is_none());
        // Truncated input must fail structurally, never panic.
        for cut in 0..bytes.len() {
            assert!(TextCollection::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A zero sample rate (the FM-index's second word) is rejected even
        // when framing is intact.
        let mut zero = bytes.clone();
        zero[8..16].copy_from_slice(&0u64.to_le_bytes());
        assert!(TextCollection::from_bytes(&zero).is_err());
    }

    #[test]
    fn get_text_roundtrip_plain_and_fm() {
        for tc in [collection(&PAPER_TEXTS), collection_no_plain(&PAPER_TEXTS)] {
            for (i, t) in PAPER_TEXTS.iter().enumerate() {
                assert_eq!(tc.get_text(i), t.as_bytes(), "text {i}");
                assert_eq!(tc.text_len(i), t.len());
            }
        }
    }

    #[test]
    fn contains_queries() {
        let tc = collection(&PAPER_TEXTS);
        assert_eq!(tc.contains(b"on"), vec![1]);
        assert_eq!(tc.contains(b"e"), vec![0, 1, 2, 4]);
        assert_eq!(tc.contains(b"0"), vec![3, 5]);
        assert_eq!(tc.contains(b"zzz"), Vec::<usize>::new());
        assert_eq!(tc.global_count(b"o"), 3);
        assert_eq!(tc.contains_count(b"o"), 1);
        assert!(tc.contains_exists(b"rubber"));
        assert!(!tc.contains_exists(b"rubbers"));
    }

    #[test]
    fn contains_positions_are_exact() {
        let tc = collection(&["banana", "bandana"]);
        let mut expected = vec![(0usize, 1usize), (0, 3), (1, 1), (1, 4)];
        expected.sort_unstable();
        assert_eq!(tc.contains_positions(b"an"), expected);
    }

    #[test]
    fn scan_cutoff_path_agrees_with_fm_locate() {
        // Both arms of `contains` on the same collection: the plain scans
        // against the locate answer built from the FM-index.
        let texts: Vec<String> = (0..60).map(|i| format!("abc abca cabx {}", i % 7)).collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let tc = collection(&refs);
        let plain = tc.plain().expect("plain copy kept by default");
        for pattern in ["abc", "a", "ca", "x 3", "zzz", "abca"] {
            let p = pattern.as_bytes();
            let positions = located(&tc, p);
            let ids = ids_of(&positions);
            assert_eq!(plain.scan_contains(p), ids, "contains {pattern:?}");
            assert_eq!(plain.scan_contains_positions(p), positions, "positions {pattern:?}");
            assert_eq!(plain.scan_contains_count(p), ids.len(), "count {pattern:?}");
            assert_eq!(tc.contains(p), ids, "collection contains {pattern:?}");
        }
    }

    #[test]
    fn contains_takes_the_scan_arm_above_the_cutoff() {
        // 1 000 texts of 60 `a`: the pattern `a` occurs 60 000 times, more
        // than the cut-off, so every contains variant scans the plain copy.
        let texts = vec!["a".repeat(60); 1_000];
        let mut tc = TextCollection::new(&texts);
        let p = b"a";
        assert!(tc.global_count(p) > SCAN_CUTOFF);
        let positions = located(&tc, p);
        let ids = ids_of(&positions);
        assert_eq!(tc.contains(p), ids);
        assert_eq!(tc.contains_count(p), ids.len());
        assert_eq!(tc.contains_positions(p), positions);
        // Drift one plain byte: the answers now follow the plain copy, not
        // the FM-index, which proves the scan arm ran.
        tc.plain.as_mut().expect("plain copy kept by default").corrupt_byte_for_tests(0);
        let scanned = tc.plain().expect("plain copy kept by default").scan_contains_positions(p);
        assert_eq!(scanned.len(), positions.len() - 1);
        assert_eq!(tc.contains_positions(p), scanned);
        assert_eq!(tc.contains_count(p), ids.len());
        assert_eq!(tc.contains(p), ids);
    }

    #[test]
    fn contains_count_without_plain_store() {
        let tc = collection_no_plain(&PAPER_TEXTS);
        assert_eq!(tc.contains_count(b"e"), 4);
        assert_eq!(tc.contains_count(b""), PAPER_TEXTS.len());
        assert_eq!(tc.contains_count(b"zzz"), 0);
    }

    #[test]
    fn starts_ends_equals() {
        let texts = ["foo", "foobar", "barfoo", "foo", "bar"];
        let tc = collection(&texts);
        assert_eq!(tc.starts_with(b"foo"), vec![0, 1, 3]);
        assert_eq!(tc.ends_with(b"foo"), vec![0, 2, 3]);
        assert_eq!(tc.ends_with(b"bar"), vec![1, 4]);
        assert_eq!(tc.equals(b"foo"), vec![0, 3]);
        assert_eq!(tc.equals(b"bar"), vec![4]);
        assert_eq!(tc.equals(b"fo"), Vec::<usize>::new());
        assert_eq!(tc.starts_with(b"fo"), vec![0, 1, 3]);
    }

    #[test]
    fn lexicographic_operators_match_naive() {
        let texts = ["apple", "banana", "apricot", "cherry", "", "banana"];
        let tc = collection(&texts);
        for pattern in ["banana", "b", "a", "cherry", "zzz", "", "apples", "ap"] {
            let p = pattern.as_bytes();
            let naive_lt: Vec<usize> =
                (0..texts.len()).filter(|&i| texts[i].as_bytes() < p).collect();
            let naive_le: Vec<usize> =
                (0..texts.len()).filter(|&i| texts[i].as_bytes() <= p).collect();
            let naive_gt: Vec<usize> =
                (0..texts.len()).filter(|&i| texts[i].as_bytes() > p).collect();
            let naive_ge: Vec<usize> =
                (0..texts.len()).filter(|&i| texts[i].as_bytes() >= p).collect();
            assert_eq!(tc.less_than(p), naive_lt, "lt {pattern:?}");
            assert_eq!(tc.less_equal(p), naive_le, "le {pattern:?}");
            assert_eq!(tc.greater_than(p), naive_gt, "gt {pattern:?}");
            assert_eq!(tc.greater_equal(p), naive_ge, "ge {pattern:?}");
        }
    }

    #[test]
    fn matching_texts_dispatch() {
        let tc = collection(&PAPER_TEXTS);
        assert_eq!(tc.matching_texts(&TextPredicate::Contains(b"ue".to_vec())), vec![1, 2]);
        assert_eq!(tc.matching_texts(&TextPredicate::Equals(b"40".to_vec())), vec![3]);
        assert_eq!(tc.matching_texts(&TextPredicate::StartsWith(b"ru".to_vec())), vec![4]);
        assert_eq!(tc.matching_texts(&TextPredicate::EndsWith(b"ued".to_vec())), vec![1]);
        assert_eq!(tc.count_matching(&TextPredicate::Contains(b"e".to_vec())), 4);
    }

    #[test]
    fn text_matches_predicate() {
        let tc = collection(&PAPER_TEXTS);
        assert!(tc.text_matches(1, &TextPredicate::Contains(b"disc".to_vec())));
        assert!(!tc.text_matches(0, &TextPredicate::Contains(b"disc".to_vec())));
        assert!(tc.text_matches(3, &TextPredicate::GreaterEq(b"3".to_vec())));
    }

    #[test]
    fn global_to_text_is_inverse_of_layout() {
        let tc = collection(&PAPER_TEXTS);
        let mut global = 0usize;
        for (id, t) in PAPER_TEXTS.iter().enumerate() {
            for off in 0..=t.len() {
                assert_eq!(tc.global_to_text(global), (id, off));
                global += 1;
            }
        }
    }

    #[test]
    fn empty_pattern_behaviour() {
        let tc = collection(&PAPER_TEXTS);
        assert_eq!(tc.contains(b"").len(), 6);
        assert_eq!(tc.starts_with(b"").len(), 6);
        assert_eq!(tc.global_count(b""), 0);
    }

    #[test]
    fn works_without_plain_store() {
        let tc = collection_no_plain(&PAPER_TEXTS);
        assert_eq!(tc.contains(b"ue"), vec![1, 2]);
        assert_eq!(tc.ends_with(b"0"), vec![3, 5]);
        assert!(tc.plain().is_none());
        assert!(tc.index_size_bytes() > 0);
    }

    #[test]
    fn serialization_roundtrip_with_and_without_plain_store() {
        for tc in [collection(&PAPER_TEXTS), collection_no_plain(&PAPER_TEXTS)] {
            let back = TextCollection::from_bytes(&tc.to_bytes()).unwrap();
            assert_eq!(back.num_texts(), tc.num_texts());
            assert_eq!(back.total_len(), tc.total_len());
            assert_eq!(back.plain().is_some(), tc.plain().is_some());
            for (i, t) in PAPER_TEXTS.iter().enumerate() {
                assert_eq!(back.get_text(i), t.as_bytes());
            }
            for pattern in ["on", "e", "0", "zzz"] {
                let p = pattern.as_bytes();
                assert_eq!(back.contains(p), tc.contains(p));
                assert_eq!(back.starts_with(p), tc.starts_with(p));
                assert_eq!(back.ends_with(p), tc.ends_with(p));
                assert_eq!(back.less_than(p), tc.less_than(p));
            }
        }
    }

    #[test]
    fn serialization_rejects_truncation_and_mismatch() {
        let tc = collection(&PAPER_TEXTS);
        let bytes = tc.to_bytes();
        for cut in [0, 5, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(TextCollection::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A Doc array with one entry more than the BWT has end-markers.
        let fm_len = tc.fm.to_bytes().len();
        let mut doc = tc.doc.clone();
        doc.push(0);
        let mut wrong = bytes[..fm_len].to_vec();
        write_u32_slice(&mut wrong, &doc).unwrap();
        wrong.extend_from_slice(&bytes[fm_len + 8 + 4 * tc.doc.len()..]);
        assert!(TextCollection::from_bytes(&wrong).is_err());
    }

    #[test]
    fn larger_collection_consistency() {
        // Build a few hundred short texts and cross-check all predicates
        // against naive evaluation.
        let words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"];
        let texts: Vec<String> = (0..300)
            .map(|i| {
                let a = words[i % words.len()];
                let b = words[(i * 7 + 3) % words.len()];
                format!("{a} {b} {}", i % 10)
            })
            .collect();
        let refs: Vec<&str> = texts.iter().map(|s| s.as_str()).collect();
        let tc = collection(&refs);
        for pattern in ["alpha", "a be", "ta 7", "zzz", "epsilon gamma"] {
            let p = pattern.as_bytes();
            let naive: Vec<usize> = (0..texts.len()).filter(|&i| texts[i].contains(pattern)).collect();
            assert_eq!(tc.contains(p), naive, "contains {pattern:?}");
            let naive_sw: Vec<usize> = (0..texts.len()).filter(|&i| texts[i].starts_with(pattern)).collect();
            assert_eq!(tc.starts_with(p), naive_sw, "starts_with {pattern:?}");
            let naive_ew: Vec<usize> = (0..texts.len()).filter(|&i| texts[i].ends_with(pattern)).collect();
            assert_eq!(tc.ends_with(p), naive_ew, "ends_with {pattern:?}");
        }
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use sxsi_verify::{Verify, VerifyDepth};

    const PAPER_TEXTS: [&str; 6] = ["pen", "Soon discontinued", "blue", "40", "rubber", "30"];

    fn sampled_collection() -> TextCollection {
        TextCollection::with_options(
            &PAPER_TEXTS,
            TextCollectionOptions { sample_rate: 4, ..Default::default() },
        )
    }

    #[test]
    fn clean_collection_verifies() {
        for keep_plain in [true, false] {
            let tc = TextCollection::with_options(
                &PAPER_TEXTS,
                TextCollectionOptions { sample_rate: 4, keep_plain_text: keep_plain },
            );
            let report = tc.verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "keep_plain={keep_plain}: {report}");
            assert!(report.checks_run >= 15);
        }
    }

    #[test]
    fn options_rate_mismatch_is_caught() {
        // The sample rate is stored once, in the FM-index (the body's second
        // word): a drifted copy loads, and with no second copy to compare
        // against only the deep walk can tell.
        let mut bytes = sampled_collection().to_bytes();
        bytes[8..16].copy_from_slice(&8u64.to_le_bytes());
        let tc = TextCollection::from_bytes(&bytes).expect("a positive rate loads");
        assert_eq!(tc.fm_index().sample_rate(), 8);
        assert!(tc.verify(VerifyDepth::Quick).is_ok());
        let report = tc.verify(VerifyDepth::Deep);
        assert!(report.has_code("fm-sample-row"), "{report}");
    }

    #[test]
    fn doc_swap_passes_quick_but_fails_the_deep_walk() {
        let mut tc = sampled_collection();
        tc.doc.swap(0, 1);
        assert!(tc.verify(VerifyDepth::Quick).is_ok());
        let report = tc.verify(VerifyDepth::Deep);
        assert!(report.has_code("text-doc-mismatch"), "{report}");
    }

    #[test]
    fn swapped_sample_values_fail_the_deep_walk() {
        let mut tc = sampled_collection();
        tc.fm.corrupt_swap_samples_for_tests(0, 1);
        assert!(tc.verify(VerifyDepth::Quick).is_ok());
        let report = tc.verify(VerifyDepth::Deep);
        assert!(report.has_code("fm-sample-value"), "{report}");
    }

    #[test]
    fn drifted_sample_rate_fails_the_deep_walk() {
        let mut tc = sampled_collection();
        // The quick checks pass while the bitmap was built for a different
        // rate.
        tc.fm.corrupt_sample_rate_for_tests(3);
        assert!(tc.verify(VerifyDepth::Quick).is_ok());
        let report = tc.verify(VerifyDepth::Deep);
        assert!(report.has_code("fm-sample-row"), "{report}");
    }

    #[test]
    fn plain_store_drift_fails_the_deep_walk() {
        let mut tc = sampled_collection();
        if let Some(p) = tc.plain.as_mut() {
            p.corrupt_byte_for_tests(2);
        }
        assert!(tc.verify(VerifyDepth::Quick).is_ok());
        let report = tc.verify(VerifyDepth::Deep);
        assert!(report.has_code("plain-text-mismatch"), "{report}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn text_strategy() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec("[a-d]{0,8}", 1..40)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn predicates_match_naive(texts in text_strategy(), pattern in "[a-d]{1,4}") {
            let refs: Vec<&[u8]> = texts.iter().map(|s| s.as_bytes()).collect();
            let tc = TextCollection::new(&refs);
            let p = pattern.as_bytes();
            let naive_contains: Vec<usize> = (0..texts.len()).filter(|&i| texts[i].contains(&pattern)).collect();
            prop_assert_eq!(tc.contains(p), naive_contains);
            let naive_eq: Vec<usize> = (0..texts.len()).filter(|&i| texts[i] == pattern).collect();
            prop_assert_eq!(tc.equals(p), naive_eq);
            let naive_sw: Vec<usize> = (0..texts.len()).filter(|&i| texts[i].starts_with(&pattern)).collect();
            prop_assert_eq!(tc.starts_with(p), naive_sw);
            let naive_ew: Vec<usize> = (0..texts.len()).filter(|&i| texts[i].ends_with(&pattern)).collect();
            prop_assert_eq!(tc.ends_with(p), naive_ew);
            let naive_lt: Vec<usize> = (0..texts.len()).filter(|&i| texts[i].as_bytes() < p).collect();
            prop_assert_eq!(tc.less_than(p), naive_lt);
            let total_occ: usize = texts.iter().map(|t| {
                if p.len() > t.len() { 0 } else { t.as_bytes().windows(p.len()).filter(|w| *w == p).count() }
            }).sum();
            prop_assert_eq!(tc.global_count(p), total_occ);
        }
    }
}
