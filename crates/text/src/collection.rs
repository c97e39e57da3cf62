//! The SXSI text collection index (Section 3.2 of the paper).
//!
//! [`TextCollection`] ties the FM-index together with the `Doc` array and
//! the collection text `T` itself (every text followed by its terminator,
//! the sequence the BWT is built from, from which the per-text start
//! offsets are derived), and
//! exposes the XPath-level string predicates: `contains`, `starts-with`,
//! `ends-with`, `=` and the lexicographic comparison operators, each
//! returning the identifiers of the matching texts, plus the positions of
//! `contains`.  Texts are read from `T`; the FM-index answers the searches,
//! or the one search over `T` when a pattern is too frequent to locate.

use crate::bwt::build_collection_bwt;
use crate::fmindex::{FmIndex, LocateOutcome, RowRange, DEFAULT_SAMPLE_RATE};
use crate::plain::{Occurrences, PlainTexts, TextId, Texts, TERMINATOR};
use sxsi_io::{corrupt, read_u32_vec, write_u32_slice, IoError, ReadFrom, WriteInto};

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
            TextPredicate::Contains(p) => p.is_empty() || Occurrences::new(value, p).next().is_some(),
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

/// Occurrence count above which `contains` and `contains_positions` scan
/// `T` instead of locating every occurrence through the FM-index — the
/// cut-off discussion of Section 6.3.
const SCAN_CUTOFF: usize = 50_000;

/// Heap bytes of each component of a [`TextCollection`]'s index, the plain
/// text `T` excluded.
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

/// Reads texts in increasing id order as runs of `T`: a later id continues
/// the run from the previous text's terminator, reading past the texts in
/// between; an earlier or first id starts a new run with one `starts`
/// lookup (an Elias–Fano `select`).  Serialization and string values visit
/// a subtree's texts this way.  Serialization asks for every id; a string
/// value skips only the attribute values between its texts, and on the
/// XMark, Treebank, Medline and Wiki corpora those gaps are at most 2 ids
/// and under 4 % of the bytes read.
#[derive(Debug, Clone)]
pub struct TextCursor<'a> {
    collection: &'a TextCollection,
    /// The id `run` yields next.
    next: TextId,
    run: Texts<'a>,
}

impl<'a> TextCursor<'a> {
    /// The bytes of text `id`, borrowed from `T`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn text(&mut self, id: TextId) -> &'a [u8] {
        let text = match id.checked_sub(self.next) {
            Some(gap) => self.run.nth(gap),
            None => {
                let tc = self.collection;
                let start = tc.plain.starts().get(id).map_or(tc.total_len(), |s| s as usize);
                self.run = tc.plain.texts_at(start);
                self.run.next()
            }
        };
        self.next = id + 1;
        text.unwrap_or_else(|| panic!("text id {id} out of range"))
    }
}

/// Self-indexed text collection: FM-index + `Doc` + the collection text `T`
/// (with the text boundaries derived from it).
#[derive(Debug, Clone)]
pub struct TextCollection {
    fm: FmIndex,
    /// `doc[j]` = id of the text whose first symbol starts the row of the
    /// `j`-th `$` in the BWT.
    doc: Vec<u32>,
    /// `T`: text `i` is `plain[starts[i]..]` up to its terminator.
    plain: PlainTexts,
}

/// Joins `texts` into `T`, each followed by its terminator.
///
/// # Panics
/// Panics if a text contains byte 0, which is reserved for the terminator.
fn join_texts<S: AsRef<[u8]>>(texts: &[S]) -> Vec<u8> {
    let mut t = Vec::with_capacity(texts.iter().map(|x| x.as_ref().len() + 1).sum());
    for (i, text) in texts.iter().enumerate() {
        let text = text.as_ref();
        if let Some(off) = text.iter().position(|&b| b == TERMINATOR) {
            panic!("text {i} contains a zero byte at offset {off}; byte 0 is reserved for the terminator");
        }
        t.extend_from_slice(text);
        t.push(TERMINATOR);
    }
    t
}

impl TextCollection {
    /// Builds the collection index of `T`, every text followed by a byte-0
    /// terminator, sampling every `sample_rate`-th text position for locate
    /// (`l` in the paper; Tables II and III use 64 and 4).  `T` is kept as
    /// the plain text.
    ///
    /// # Panics
    /// Panics if `T` is neither empty nor ends with a terminator, if it is
    /// longer than [`crate::suffix::MAX_LEN`], or if `sample_rate` is 0.
    pub fn from_t(t: Vec<u8>, sample_rate: usize) -> Self {
        assert!(!t.last().is_some_and(|&b| b != TERMINATOR), "T must end with a terminator");
        let bwt = build_collection_bwt(&t, sample_rate);
        let fm = FmIndex::new(&bwt.bwt, &bwt.sampled, &bwt.samples, sample_rate);
        Self { fm, doc: bwt.doc, plain: PlainTexts::from_t(t) }
    }

    /// Builds the collection index of `texts` with the default locate
    /// sampling step: a convenience that joins them into `T`.
    ///
    /// # Panics
    /// Panics if a text contains byte 0, which is reserved for the
    /// terminator.
    pub fn new<S: AsRef<[u8]>>(texts: &[S]) -> Self {
        Self::from_t(join_texts(texts), DEFAULT_SAMPLE_RATE)
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

    /// The collection text `T`.
    ///
    /// Always `Some`: the plain copy is a fact of the format, kept by every
    /// collection.  The `Option` is what the paper's optional copy (Section
    /// 3.4) looked like, and it stays because the benchmark harness
    /// (`perfbench/`) is written against this signature.
    pub fn plain(&self) -> Option<&PlainTexts> {
        Some(&self.plain)
    }

    /// Heap size in bytes (FM-index + Doc + boundaries), excluding `T`.
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
            starts: self.plain.starts().size_bytes(),
        }
    }

    // ------------------------------------------------------------------
    // Position arithmetic
    // ------------------------------------------------------------------

    /// Converts a global concatenation position into `(text, offset)`.
    fn global_to_text(&self, pos: usize) -> (TextId, usize) {
        debug_assert!(pos < self.total_len());
        // rank gives the number of starts <= pos ... we need the last start <= pos.
        let (id, start) = self.plain.starts().predecessor(pos as u64 + 1).expect("pos within collection");
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

    /// The bytes of text `id`, borrowed from `T`: one `starts` lookup, then
    /// a search for its terminator.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn text(&self, id: TextId) -> &[u8] {
        self.cursor().text(id)
    }

    /// A reader of texts requested in increasing id order, such as the
    /// texts of one subtree: see [`TextCursor`].
    pub fn cursor(&self) -> TextCursor<'_> {
        TextCursor { collection: self, next: TextId::MAX, run: Texts::default() }
    }

    /// Returns a copy of text `id` (the paper's `GetText`).
    pub fn get_text(&self, id: TextId) -> Vec<u8> {
        self.text(id).to_vec()
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

    /// Every occurrence of a non-empty `pattern` as `(text, offset)`, from
    /// one plan (Section 6.3): the backward search counts the occurrences,
    /// and above the scan cut-off one pass over `T` (which yields them in
    /// increasing order) beats locating each of them through the BWT (which
    /// yields them in row order).
    fn occurrences<'a>(&'a self, pattern: &'a [u8]) -> Box<dyn Iterator<Item = (TextId, usize)> + 'a> {
        let range = self.fm.backward_search(pattern);
        if range.len() > SCAN_CUTOFF {
            return Box::new(self.plain.occurrences(pattern));
        }
        Box::new((range.start..range.end).map(|row| self.locate_row(row)))
    }

    /// Identifiers of texts containing `pattern` (`ContainsReport` reduced to
    /// distinct texts, as used by the XPath `contains` predicate).
    pub fn contains(&self, pattern: &[u8]) -> Vec<TextId> {
        if pattern.is_empty() {
            return (0..self.num_texts()).collect();
        }
        let mut ids: Vec<TextId> = self.occurrences(pattern).map(|(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Positions `(text, offset)` of every occurrence of `pattern`
    /// (the paper's `ContainsReport`), in increasing order.
    pub fn contains_positions(&self, pattern: &[u8]) -> Vec<(TextId, usize)> {
        if pattern.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<(TextId, usize)> = self.occurrences(pattern).collect();
        out.sort_unstable();
        out
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
            // A text is empty when its first byte in `T` is its terminator.
            let t = self.plain.as_bytes();
            return self
                .plain
                .starts()
                .iter()
                .enumerate()
                .filter(|&(_, s)| t[s as usize] == TERMINATOR)
                .map(|(id, _)| id)
                .collect();
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
    fn from_parts(fm: FmIndex, doc: Vec<u32>, plain: PlainTexts) -> Result<Self, IoError> {
        let num_texts = fm.symbol_count(0);
        if doc.len() != num_texts {
            return Err(corrupt(format!("Doc array holds {} entries for {num_texts} texts", doc.len())));
        }
        if doc.iter().any(|&d| d as usize >= num_texts.max(1)) {
            return Err(corrupt("Doc array references a text id out of range"));
        }
        let tc = Self { fm, doc, plain };
        if let Some(problem) = tc.plain_count_problem() {
            return Err(corrupt(format!("plain-text-count: {problem}")));
        }
        Ok(tc)
    }

    /// The layout check of `T` against the BWT, verifier code
    /// `plain-text-count`: as long as the BWT, one terminator per text.
    /// The text boundaries are derived from the terminators, so where each
    /// one sits, like the text bytes between them, is left to the deep
    /// walk.
    fn plain_count_problem(&self) -> Option<String> {
        let (num_texts, total_len) = (self.num_texts(), self.total_len());
        let (plain_texts, plain_len) = (self.plain.num_texts(), self.plain.as_bytes().len());
        (plain_texts != num_texts || plain_len != total_len)
            .then(|| format!("T holds {plain_texts} texts / {plain_len} bytes, the BWT {num_texts} / {total_len}"))
    }

    /// One past each text's terminator in `T`: the next text's start, or
    /// the end of `T` for the last text.
    fn text_ends(&self) -> impl Iterator<Item = usize> + '_ {
        let starts = self.plain.starts();
        let last = std::iter::once(self.total_len());
        starts.iter().skip(1).map(|s| s as usize).chain(last).take(starts.len())
    }

    /// Deep verification: replays every text backwards through the LF
    /// mapping, cross-checking the sampling structures, the `Doc` array and
    /// every byte of `T`, terminators included, against the position the
    /// walk tracks.  Visits every BWT row exactly once, `O(total_len)` rank
    /// operations.  Runs only once the quick checks passed, so `T` is as
    /// long as the BWT and holds one terminator per text.
    fn verify_walk(&self, ctx: &mut sxsi_verify::VerifyContext) {
        let rate = self.fm.sample_rate();
        let t = self.plain.as_bytes();
        let total_len = self.total_len();
        let mut sample_row: Option<String> = None;
        let mut sample_value: Option<String> = None;
        let mut doc_mismatch: Option<String> = None;
        let mut plain_mismatch: Option<String> = None;
        let mut walk_broken: Option<String> = None;
        let starts = self.plain.starts().iter().map(|s| s as usize);
        for (id, (start, end)) in starts.zip(self.text_ends()).enumerate() {
            let mut row = id;
            let mut offset = end - start - 1;
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
                // The BWT symbol of the row is the byte of `T` before `pos`
                // (cyclically: text 0 is preceded by the last terminator).
                let b = self.fm.bwt_symbol(row);
                let before = (pos + total_len - 1) % total_len;
                if t[before] != b {
                    plain_mismatch.get_or_insert_with(|| {
                        format!("BWT stores {b:#04x} at byte {before} of T, the plain copy holds {:#04x}", t[before])
                    });
                }
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
                row = self.fm.lf(row);
                offset -= 1;
            }
        }
        ctx.check("fm-sample-row", sample_row.is_none(), || sample_row.unwrap_or_default());
        ctx.check("fm-sample-value", sample_value.is_none(), || sample_value.unwrap_or_default());
        ctx.check("text-doc-mismatch", doc_mismatch.is_none(), || doc_mismatch.unwrap_or_default());
        ctx.check("text-walk", walk_broken.is_none(), || walk_broken.unwrap_or_default());
        ctx.check("plain-text-mismatch", plain_mismatch.is_none(), || plain_mismatch.unwrap_or_default());
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
    /// the `Doc` array and `T` must all describe the same collection.  Deep
    /// verification replays every text through the LF mapping.
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        ctx.enter("fm", |ctx| self.fm.verify_into(depth, ctx));
        ctx.enter("starts", |ctx| self.plain.starts().verify_into(depth, ctx));
        let num_texts = self.num_texts();
        ctx.check("text-count", self.doc.len() == num_texts, || {
            format!("the BWT holds {num_texts} end-markers, Doc holds {}", self.doc.len())
        });
        let bad_doc = self.doc.iter().position(|&d| d as usize >= num_texts.max(1));
        ctx.check("text-doc-range", bad_doc.is_none(), || {
            format!(
                "Doc entry {} references text {} of {num_texts}",
                bad_doc.unwrap_or_default(),
                self.doc.get(bad_doc.unwrap_or_default()).copied().unwrap_or_default(),
            )
        });
        let plain_count = self.plain_count_problem();
        ctx.check("plain-text-count", plain_count.is_none(), || plain_count.unwrap_or_default());
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
        self.plain.write_into(w)
    }
}

impl ReadFrom for TextCollection {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let fm = FmIndex::read_from(r)?;
        let doc = read_u32_vec(r)?;
        let plain = PlainTexts::read_from(r)?;
        Self::from_parts(fm, doc, plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection(texts: &[&str]) -> TextCollection {
        TextCollection::new(texts)
    }

    fn collection_sampled(texts: &[&str]) -> TextCollection {
        with_sample_rate(texts, 4)
    }

    pub(super) fn with_sample_rate<S: AsRef<[u8]>>(texts: &[S], sample_rate: usize) -> TextCollection {
        TextCollection::from_t(join_texts(texts), sample_rate)
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
    fn body_is_fm_index_then_t_and_truncation_fails() {
        // The sample rate is not written on its own: the body begins with
        // the FM-index, which carries it, and ends with `T`.
        let tc = with_sample_rate(&PAPER_TEXTS, 8);
        let bytes = tc.to_bytes();
        assert_eq!(bytes[..tc.fm.to_bytes().len()], tc.fm.to_bytes()[..]);
        assert!(bytes.ends_with(tc.plain.as_bytes()));
        let back = TextCollection::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.fm_index().sample_rate(), 8);
        assert_eq!(back.plain.as_bytes(), tc.plain.as_bytes());
        // Truncated input must fail structurally, never panic.
        for cut in 0..bytes.len() {
            assert!(TextCollection::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // A zero sample rate (the FM-index's first word) is rejected even
        // when framing is intact.
        let mut zero = bytes.clone();
        zero[..8].copy_from_slice(&0u64.to_le_bytes());
        assert!(TextCollection::from_bytes(&zero).is_err());
    }

    #[test]
    fn texts_read_back_at_both_sample_rates() {
        // Texts come from `T`; the FM-index's LF extraction is covered by
        // `fmindex::tests::lf_walk_reconstructs_text_backwards`.
        for tc in [collection(&PAPER_TEXTS), collection_sampled(&PAPER_TEXTS)] {
            for (i, t) in PAPER_TEXTS.iter().enumerate() {
                assert_eq!(tc.get_text(i), t.as_bytes(), "text {i}");
                assert_eq!(tc.text(i), t.as_bytes(), "text {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn text_out_of_range_panics() {
        collection(&["a"]).text(1);
    }

    #[test]
    fn contains_queries() {
        let tc = collection(&PAPER_TEXTS);
        assert_eq!(tc.contains(b"on"), vec![1]);
        assert_eq!(tc.contains(b"e"), vec![0, 1, 2, 4]);
        assert_eq!(tc.contains(b"0"), vec![3, 5]);
        assert_eq!(tc.contains(b"zzz"), Vec::<usize>::new());
        assert_eq!(tc.global_count(b"o"), 3);
        assert_eq!(tc.contains(b"o").len(), 1);
        assert!(!tc.contains(b"rubber").is_empty());
        assert!(tc.contains(b"rubbers").is_empty());
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
        let plain = tc.plain().expect("T is always kept");
        for pattern in ["abc", "a", "ca", "x 3", "zzz", "abca"] {
            let p = pattern.as_bytes();
            let positions = located(&tc, p);
            let ids = ids_of(&positions);
            assert_eq!(plain.scan_contains(p), ids, "contains {pattern:?}");
            assert_eq!(plain.occurrences(p).collect::<Vec<_>>(), positions, "positions {pattern:?}");
            assert_eq!(tc.contains(p), ids, "collection contains {pattern:?}");
        }
    }

    #[test]
    fn contains_takes_the_scan_arm_above_the_cutoff() {
        // 1 000 texts of 60 `a`: the pattern `a` occurs 60 000 times, more
        // than the cut-off, so `contains` and `contains_positions` scan `T`.
        let texts = vec!["a".repeat(60); 1_000];
        let mut tc = TextCollection::new(&texts);
        let p = b"a";
        assert!(tc.global_count(p) > SCAN_CUTOFF);
        let positions = located(&tc, p);
        let ids = ids_of(&positions);
        assert_eq!(tc.contains(p), ids);
        assert_eq!(tc.contains(p).len(), ids.len());
        assert_eq!(tc.contains_positions(p), positions);
        // Drift every byte of text 0 in `T`: the answers now follow `T`,
        // not the FM-index, which proves the scan arm ran.
        for i in 0..60 {
            tc.plain.set_byte_for_tests(i, b'b');
        }
        let scanned: Vec<_> = tc.plain.occurrences(p).collect();
        assert_eq!(scanned.len(), positions.len() - 60);
        assert_eq!(tc.contains_positions(p), scanned);
        assert_eq!(tc.contains(p).len(), ids.len() - 1);
        assert_eq!(tc.contains(p), ids[1..]);
    }

    #[test]
    fn contains_len_counts_the_matching_texts() {
        let tc = collection_sampled(&PAPER_TEXTS);
        assert_eq!(tc.contains(b"e").len(), 4);
        assert_eq!(tc.contains(b"").len(), PAPER_TEXTS.len());
        assert_eq!(tc.contains(b"zzz").len(), 0);
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
        assert_eq!(tc.matching_texts(&TextPredicate::Contains(b"e".to_vec())).len(), 4);
    }

    #[test]
    fn text_matches_predicate() {
        let tc = collection(&PAPER_TEXTS);
        assert!(TextPredicate::Contains(b"disc".to_vec()).matches_value(tc.text(1)));
        assert!(!TextPredicate::Contains(b"disc".to_vec()).matches_value(tc.text(0)));
        assert!(TextPredicate::GreaterEq(b"3".to_vec()).matches_value(tc.text(3)));
        assert!(TextPredicate::Contains(Vec::new()).matches_value(b""));
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
    fn t_is_kept_outside_the_index_size() {
        // `T` is always kept and is not part of the index's own size.
        let tc = collection_sampled(&PAPER_TEXTS);
        assert_eq!(tc.contains(b"ue"), vec![1, 2]);
        assert_eq!(tc.ends_with(b"0"), vec![3, 5]);
        let plain = tc.plain().expect("T is always kept");
        assert_eq!(plain.as_bytes().len(), tc.total_len());
        assert_eq!(plain.total_bytes(), tc.total_len() - tc.num_texts());
        assert!(tc.index_size_bytes() > 0);
    }

    #[test]
    fn serialization_roundtrip_at_both_sample_rates() {
        for tc in [collection(&PAPER_TEXTS), collection_sampled(&PAPER_TEXTS)] {
            let back = TextCollection::from_bytes(&tc.to_bytes()).unwrap();
            assert_eq!(back.num_texts(), tc.num_texts());
            assert_eq!(back.total_len(), tc.total_len());
            assert_eq!(back.plain.as_bytes(), tc.plain.as_bytes());
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
        // A cursor reads ids forwards, continuing one run, and backwards,
        // starting a new run at every id.
        for step in [1, 9, 10, 37] {
            let mut cursor = tc.cursor();
            for id in (0..texts.len()).step_by(step).chain((0..texts.len()).rev().step_by(step)) {
                assert_eq!(cursor.text(id), texts[id].as_bytes(), "step {step} id {id}");
            }
        }
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
    use super::tests::with_sample_rate;
    use super::*;
    use sxsi_verify::{Verify, VerifyDepth};

    const PAPER_TEXTS: [&str; 6] = ["pen", "Soon discontinued", "blue", "40", "rubber", "30"];

    fn sampled_collection() -> TextCollection {
        with_sample_rate(&PAPER_TEXTS, 4)
    }

    #[test]
    fn clean_collection_verifies() {
        for sample_rate in [4, 64] {
            let tc = with_sample_rate(&PAPER_TEXTS, sample_rate);
            let report = tc.verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "sample_rate={sample_rate}: {report}");
            assert!(report.checks_run >= 15);
        }
    }

    #[test]
    fn options_rate_mismatch_is_caught() {
        // The sample rate is stored once, in the FM-index (the body's first
        // word): a drifted copy loads, and with no second copy to compare
        // against only the deep walk can tell.
        let mut bytes = sampled_collection().to_bytes();
        bytes[..8].copy_from_slice(&8u64.to_le_bytes());
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
        // A drifted text byte keeps every terminator in place: it loads,
        // passes the quick checks, and only the deep walk sees it.
        let mut bytes = sampled_collection().to_bytes();
        let pen = bytes.len() - sampled_collection().total_len(); // `T` ends the body
        bytes[pen + 2] = b'x';
        let tc = TextCollection::from_bytes(&bytes).expect("a drifted text byte loads");
        assert_eq!(tc.text(0), b"pex");
        assert!(tc.verify(VerifyDepth::Quick).is_ok());
        let report = tc.verify(VerifyDepth::Deep);
        assert!(report.has_code("plain-text-mismatch"), "{report}");
        assert_eq!(report.codes(), vec!["plain-text-mismatch"], "{report}");
    }

    #[test]
    fn terminator_drift_fails_the_load_or_else_the_deep_walk() {
        let tc = sampled_collection();
        let clean = tc.to_bytes();
        let t0 = clean.len() - tc.total_len();
        // "pen\0Soon…": byte 3 of `T` closes text 0.  A terminator lost or
        // gained changes the count the BWT pins.
        for (label, edits, message) in [
            ("terminator overwritten", vec![(3, b'x')], "plain-text-count"),
            ("text byte turned into a terminator", vec![(1, 0)], "plain-text-count"),
            ("last terminator overwritten", vec![(tc.total_len() - 1, b'x')], "plain-terminator"),
        ] {
            let mut bytes = clean.clone();
            for &(at, b) in &edits {
                bytes[t0 + at] = b;
            }
            let err = TextCollection::from_bytes(&bytes).expect_err(label);
            assert!(err.to_string().contains(message), "{label}: {err}");
        }
        // A moved terminator keeps the count: the text boundaries are
        // derived from where it now sits, so the file loads and passes the
        // quick checks, and the deep walk finds `T` disagreeing with the
        // BWT.
        let mut bytes = clean.clone();
        bytes[t0 + 2] = 0;
        bytes[t0 + 3] = b'n';
        let moved = TextCollection::from_bytes(&bytes).expect("a moved terminator loads");
        assert_eq!((moved.text(0), moved.text(1)), (&b"pe"[..], &b"nSoon discontinued"[..]));
        assert!(moved.verify(VerifyDepth::Quick).is_ok());
        let report = moved.verify(VerifyDepth::Deep);
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

        #[test]
        fn plain_store_is_t_and_scans_match_naive(
            texts in proptest::collection::vec("[ab]{0,2}", 0..8),
            pattern in "[ab]{0,2}",
        ) {
            // Small texts over a tiny alphabet: zero texts, one text, empty
            // texts and 1-byte texts all come up.
            let tc = TextCollection::new(&texts);
            let plain = tc.plain().expect("T is always kept");
            let t: Vec<u8> = texts.iter().flat_map(|s| s.bytes().chain([0])).collect();
            prop_assert_eq!(plain.as_bytes(), &t[..]);
            prop_assert_eq!(plain.total_bytes(), t.len() - texts.len());
            let mut cursor = tc.cursor();
            for (id, s) in texts.iter().enumerate() {
                prop_assert_eq!(tc.text(id), s.as_bytes());
                prop_assert_eq!(tc.get_text(id), s.as_bytes());
                prop_assert_eq!(cursor.text(id), s.as_bytes());
            }
            let report = sxsi_verify::Verify::verify(&tc, sxsi_verify::VerifyDepth::Deep);
            prop_assert!(report.is_ok(), "{report} {texts:?}");
            let p = pattern.as_bytes();
            let ids = |keep: &dyn Fn(&str) -> bool| -> Vec<usize> {
                (0..texts.len()).filter(|&i| keep(&texts[i])).collect()
            };
            let contains = ids(&|s| s.contains(&pattern));
            prop_assert_eq!(plain.scan_contains(p), contains);
            prop_assert_eq!(tc.starts_with(p), ids(&|s| s.starts_with(&pattern)));
            prop_assert_eq!(tc.ends_with(p), ids(&|s| s.ends_with(&pattern)));
            prop_assert_eq!(tc.equals(p), ids(&|s| s == pattern));
            let mut positions = Vec::new();
            for (id, s) in texts.iter().enumerate() {
                for off in 0..s.len() {
                    if !p.is_empty() && s.as_bytes()[off..].starts_with(p) {
                        positions.push((id, off));
                    }
                }
            }
            prop_assert_eq!(plain.occurrences(p).collect::<Vec<_>>(), positions.clone());
            prop_assert_eq!(plain.occurrences(p).count(), positions.len());
        }
    }
}
