//! Keyword search fused with structure: the SXSI full-text subsystem.
//!
//! The FM-index already answers "which texts contain this byte pattern";
//! this crate lifts those hits to the tree. A query is a set of *tokens*
//! (maximal runs of token bytes, see [`is_token_byte`]) combined under one
//! of three modes:
//!
//! * [`FtMode::All`] — every token occurs somewhere in the subtree,
//! * [`FtMode::Any`] — at least one token occurs in the subtree,
//! * [`FtMode::Phrase`] — the tokens occur consecutively inside one text.
//!
//! Token occurrences are found with [`TextCollection::contains_positions`]
//! and verified against token boundaries by extracting the surrounding
//! bytes, so `"art"` never matches inside `"cart"`. Matching is
//! case-sensitive and byte-exact; texts include attribute values (the `%`
//! leaves of the document model).
//!
//! [`PreparedFt::matches`] answers subtree filtering for the `ft:` XPath
//! predicates through the tree's text-id ranges, and [`PreparedFt::search`]
//! computes ranked result elements: for [`FtMode::All`] the *smallest
//! lowest common ancestors* (SLCA) — deepest elements whose subtree covers
//! every token, no result an ancestor of another — and for the other modes
//! the nearest element ancestor of each matching text. Results are scored
//! `Σ_t tf(t, e) · ln(1 + N / df(t))` (term frequency inside the element's
//! subtree, dampened by how common the token is across the collection's
//! `N` texts) and ordered by descending score, ties broken in document
//! order. See `docs/search.md` for the full specification.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::ops::Range;

use sxsi_text::{TextCollection, TextId};
use sxsi_tree::{reserved, NodeId, XmlTree};

/// Whether `b` participates in tokens: ASCII alphanumerics and every
/// non-ASCII byte (so multi-byte UTF-8 sequences stay inside one token).
/// Everything else — whitespace, punctuation, control bytes — separates
/// tokens.
#[inline]
pub fn is_token_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b >= 0x80
}

/// Splits `bytes` into tokens: maximal runs of token bytes, in order.
pub fn tokenize(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &b) in bytes.iter().enumerate() {
        if is_token_byte(b) {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            // lint:allow(index: s < i <= len by construction of the run)
            out.push(bytes[s..i].to_vec());
        }
    }
    if let Some(s) = start {
        // lint:allow(index: s indexes an in-bounds run start)
        out.push(bytes[s..].to_vec());
    }
    out
}

/// How the tokens of a query combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtMode {
    /// Every token must occur in the subtree (the default).
    All,
    /// At least one token must occur in the subtree.
    Any,
    /// The tokens must occur consecutively inside a single text.
    Phrase,
}

impl FtMode {
    /// Canonical lowercase name (`all`, `any`, `phrase`).
    pub fn as_str(self) -> &'static str {
        match self {
            FtMode::All => "all",
            FtMode::Any => "any",
            FtMode::Phrase => "phrase",
        }
    }

    /// Parses a canonical name back into a mode.
    pub fn parse(s: &str) -> Option<FtMode> {
        match s {
            "all" => Some(FtMode::All),
            "any" => Some(FtMode::Any),
            "phrase" => Some(FtMode::Phrase),
            _ => None,
        }
    }
}

/// A parsed keyword query: a mode plus the token list obtained by
/// tokenizing each input literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FtQuery {
    /// How the tokens combine.
    pub mode: FtMode,
    /// The tokens, in input order (order matters for [`FtMode::Phrase`]).
    pub tokens: Vec<Vec<u8>>,
}

impl FtQuery {
    /// Builds a query by tokenizing each literal. A literal may contribute
    /// several tokens (`"fast search"` → `fast`, `search`); a literal with
    /// no token bytes contributes none. A query with zero tokens matches
    /// nothing, by definition.
    pub fn new<S: AsRef<[u8]>>(mode: FtMode, literals: &[S]) -> Self {
        let tokens = literals.iter().flat_map(|l| tokenize(l.as_ref())).collect();
        Self { mode, tokens }
    }
}

/// Hit lists of one token (or of the whole phrase): the distinct texts it
/// occurs in and one entry per occurrence, both sorted by text id.
#[derive(Debug, Clone)]
struct TermHits {
    /// Distinct texts containing the term (sorted).
    texts: Vec<TextId>,
    /// One text id per occurrence (sorted; repeats for multiple hits in a
    /// text). Drives the `tf` factor of the ranking.
    occurrences: Vec<TextId>,
}

impl TermHits {
    fn any_in(&self, range: &Range<usize>) -> bool {
        let i = self.texts.partition_point(|&t| t < range.start);
        // lint:allow(index: guarded by i < len on the same expression)
        i < self.texts.len() && self.texts[i] < range.end
    }

    fn count_in(&self, range: &Range<usize>) -> usize {
        self.occurrences.partition_point(|&t| t < range.end)
            - self.occurrences.partition_point(|&t| t < range.start)
    }
}

/// A keyword query resolved against one document's text collection:
/// per-term verified hit lists, ready for cheap subtree checks and for
/// ranked SLCA search. Preparing is the expensive step (FM-index locate +
/// boundary verification); every [`PreparedFt::matches`] call afterwards is
/// a handful of binary searches.
#[derive(Debug, Clone)]
pub struct PreparedFt {
    mode: FtMode,
    /// One entry per token for `All`/`Any`; a single entry holding the
    /// phrase hits for `Phrase`. Empty when the query has no tokens.
    terms: Vec<TermHits>,
    /// Number of texts in the collection (the ranking's `N`).
    num_texts: usize,
    /// Zero-token queries match nothing; distinguish them from token lists
    /// that simply have no hits.
    no_tokens: bool,
}

/// One ranked search result: a tree node and its relevance score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// The result element.
    pub node: NodeId,
    /// The tf·idf-style score (see the crate docs for the formula).
    pub score: f64,
}

impl PreparedFt {
    /// Resolves `query` against `texts`: locates every token occurrence,
    /// verifies token boundaries, and (for phrases) checks consecutive
    /// continuation inside the text.
    pub fn prepare(texts: &TextCollection, query: &FtQuery) -> Self {
        let no_tokens = query.tokens.is_empty();
        let terms = if no_tokens {
            Vec::new()
        } else {
            match query.mode {
                FtMode::All | FtMode::Any => {
                    query.tokens.iter().map(|t| phrase_hits(texts, std::slice::from_ref(t))).collect()
                }
                FtMode::Phrase => vec![phrase_hits(texts, &query.tokens)],
            }
        };
        Self { mode: query.mode, terms, num_texts: texts.num_texts(), no_tokens }
    }

    /// The query mode this plan was prepared for.
    pub fn mode(&self) -> FtMode {
        self.mode
    }

    /// Whether an element whose subtree spans the text-id `range` (as
    /// returned by [`XmlTree::text_ids`]) satisfies the query.
    pub fn matches(&self, range: &Range<usize>) -> bool {
        if self.no_tokens {
            return false;
        }
        match self.mode {
            FtMode::All => self.terms.iter().all(|t| t.any_in(range)),
            FtMode::Any | FtMode::Phrase => self.terms.iter().any(|t| t.any_in(range)),
        }
    }

    /// Whether the query can match anywhere in the document at all.
    pub fn any_possible(&self) -> bool {
        match self.mode {
            FtMode::All => !self.no_tokens && self.terms.iter().all(|t| !t.texts.is_empty()),
            FtMode::Any | FtMode::Phrase => self.terms.iter().any(|t| !t.texts.is_empty()),
        }
    }

    /// Ranked result elements for the query (see the crate docs): SLCA
    /// elements for [`FtMode::All`], nearest containing elements otherwise,
    /// scored and sorted by descending score then document order.
    pub fn search(&self, tree: &XmlTree) -> Vec<SearchHit> {
        if !self.any_possible() {
            return Vec::new();
        }
        let nodes = match self.mode {
            FtMode::All => self.slca_nodes(tree),
            FtMode::Any | FtMode::Phrase => self.containing_nodes(tree),
        };
        let mut hits: Vec<SearchHit> =
            nodes.into_iter().map(|node| SearchHit { node, score: self.score(tree, node) }).collect();
        hits.sort_by(|a, b| {
            b.score.total_cmp(&a.score).then_with(|| a.node.cmp(&b.node))
        });
        hits
    }

    /// The score of one element: `Σ_t tf(t, node) · ln(1 + N / df(t))`,
    /// summed over terms that occur in the collection.
    pub fn score(&self, tree: &XmlTree, node: NodeId) -> f64 {
        let range = tree.text_ids(node);
        let n = self.num_texts as f64;
        self.terms
            .iter()
            .filter(|t| !t.texts.is_empty())
            .map(|t| t.count_in(&range) as f64 * (1.0 + n / t.texts.len() as f64).ln())
            .sum()
    }

    /// Smallest elements whose subtree contains every term: for each text of
    /// the rarest term (any SLCA contains one of them), walk up from its
    /// containing element to the deepest covering ancestor, then drop
    /// candidates that are ancestors of other candidates.
    fn slca_nodes(&self, tree: &XmlTree) -> Vec<NodeId> {
        let rarest = self
            .terms
            .iter()
            .min_by_key(|t| t.texts.len())
            .expect("any_possible guarantees at least one term"); // lint:allow(panic: search() returns early unless any_possible)
        let mut candidates: Vec<NodeId> = Vec::new();
        for &text in &rarest.texts {
            let mut e = containing_element(tree, text);
            while !self.matches(&tree.text_ids(e)) {
                // The document element covers every text, and the query is
                // globally satisfiable, so a covering ancestor exists.
                e = tree.parent(e).unwrap_or_else(|| tree.root());
            }
            candidates.push(e);
        }
        candidates.sort_unstable();
        candidates.dedup();
        // Minimality sweep: in ascending node order an ancestor always
        // precedes its descendants, so a single look-back per push suffices.
        let mut out: Vec<NodeId> = Vec::with_capacity(candidates.len());
        for c in candidates {
            while out.last().is_some_and(|&p| tree.is_ancestor(p, c)) {
                out.pop();
            }
            out.push(c);
        }
        out
    }

    /// Nearest element ancestor of every matching text, deduplicated, for
    /// the `any`/`phrase` modes.
    fn containing_nodes(&self, tree: &XmlTree) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = Vec::new();
        for term in &self.terms {
            nodes.extend(term.texts.iter().map(|&t| containing_element(tree, t)));
        }
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// The nearest ancestor of text `text` that is a proper element: skips the
/// `#`/`%` leaf itself and, for attribute values, the attribute-name node
/// and the `@` container.
fn containing_element(tree: &XmlTree, text: TextId) -> NodeId {
    // lint:allow(panic: text ids come from this document's own hit lists)
    let leaf = tree.node_of_text(text).expect("text id maps to a leaf");
    let mut node = leaf;
    loop {
        let parent_is_attributes =
            tree.parent(node).is_some_and(|p| tree.tag(p) == reserved::ATTRIBUTES);
        let tag = tree.tag(node);
        let is_element = tag != reserved::TEXT
            && tag != reserved::ATTRIBUTE_VALUE
            && tag != reserved::ATTRIBUTES
            && tag != reserved::ROOT
            && !parent_is_attributes;
        if is_element {
            return node;
        }
        match tree.parent(node) {
            Some(p) => node = p,
            // Only the super-root has no parent; reaching it means the text
            // hangs directly below it, so it is the best container we have.
            None => return node,
        }
    }
}

/// Verified hit lists of a phrase: occurrences of the first token that are
/// whole tokens and are followed, across single separator runs, by the
/// remaining tokens.  A single token is a one-token phrase.
fn phrase_hits(texts: &TextCollection, tokens: &[Vec<u8>]) -> TermHits {
    // lint:allow(index: callers pass a non-empty token list)
    let first = &tokens[0];
    let mut occurrences: Vec<TextId> = Vec::new();
    let mut current: Option<(TextId, &[u8])> = None;
    for (tid, offset) in texts.contains_positions(first) {
        let content = match current {
            Some((id, c)) if id == tid => c,
            _ => current.insert((tid, texts.text(tid))).1,
        };
        if is_whole_token(content, offset, first.len())
            // lint:allow(index: a slice from 1 of a non-empty list)
            && phrase_continues(content, offset + first.len(), &tokens[1..])
        {
            occurrences.push(tid);
        }
    }
    // `contains_positions` returns positions sorted by (text, offset), so
    // the filtered occurrence list is already sorted by text id.
    let mut texts = occurrences.clone();
    texts.dedup();
    TermHits { texts, occurrences }
}

/// Whether `content[start .. start + len]` is bounded by non-token bytes
/// (or the text ends) on both sides.
fn is_whole_token(content: &[u8], start: usize, len: usize) -> bool {
    let end = start + len;
    debug_assert!(end <= content.len(), "occurrence must lie inside the text");
    (start == 0 || !is_token_byte(content[start - 1])) // lint:allow(index: guarded by start == 0)
        && (end >= content.len() || !is_token_byte(content[end])) // lint:allow(index: guarded by end >= len)
}

/// Whether the tokens of `rest` follow consecutively in `content` starting
/// at `pos` (the end of the previous token), each separated by at least one
/// non-token byte and ending on a token boundary.
fn phrase_continues(content: &[u8], mut pos: usize, rest: &[Vec<u8>]) -> bool {
    for token in rest {
        while pos < content.len() && !is_token_byte(content[pos]) { // lint:allow(index: guarded by pos < len)
            pos += 1;
        }
        // lint:allow(index: the loop leaves pos <= len, a valid slice start)
        if !content[pos..].starts_with(token) {
            return false;
        }
        pos += token.len();
        if pos < content.len() && is_token_byte(content[pos]) { // lint:allow(index: guarded by pos < len)
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi_xml::parse_document;

    const DOC: &str = r#"<lib>
  <book id="rust systems">
    <title>Fast compressed indexes</title>
    <note>compressed text, fast search</note>
  </book>
  <book>
    <title>Slow scans</title>
    <note>naive search is slow</note>
  </book>
  <mixed>fast<b>search</b>tail</mixed>
</lib>"#;

    fn index() -> (XmlTree, TextCollection) {
        let doc = parse_document(DOC.as_bytes()).unwrap();
        let texts = TextCollection::from_t(doc.t, sxsi_text::fmindex::DEFAULT_SAMPLE_RATE);
        (doc.tree, texts)
    }

    fn prepared(mode: FtMode, literals: &[&str]) -> (XmlTree, PreparedFt) {
        let (tree, texts) = index();
        let q = FtQuery::new(mode, literals);
        let p = PreparedFt::prepare(&texts, &q);
        (tree, p)
    }

    fn tag_names(tree: &XmlTree, hits: &[SearchHit]) -> Vec<String> {
        hits.iter().map(|h| tree.tag_name(tree.tag(h.node)).to_string()).collect()
    }

    #[test]
    fn tokenizer_splits_on_non_token_bytes() {
        let toks = tokenize("fast, compressed-indexes\u{a0}now".as_bytes());
        let toks: Vec<&[u8]> = toks.iter().map(|t| t.as_slice()).collect();
        // The NBSP bytes (C2 A0) are >= 0x80 and therefore glue the
        // surrounding tokens together — tokenization is byte-level.
        assert_eq!(toks, vec![&b"fast"[..], b"compressed", b"indexes\xc2\xa0now"]);
        assert!(tokenize(b" ,;- ").is_empty());
        assert!(tokenize(b"").is_empty());
    }

    #[test]
    fn whole_token_matching_rejects_substrings() {
        let (tree, p) = prepared(FtMode::All, &["fast"]);
        // "fast" occurs as a token, so the document root matches.
        assert!(p.matches(&tree.text_ids(tree.root())));
        let (tree, p) = prepared(FtMode::All, &["fas"]);
        // "fas" only occurs inside "fast" — never as a whole token.
        assert!(!p.matches(&tree.text_ids(tree.root())));
        assert!(p.search(&tree).is_empty());
    }

    #[test]
    fn all_mode_computes_slca() {
        let (tree, p) = prepared(FtMode::All, &["compressed", "search"]);
        // Both books' subtrees contain them only jointly under book 1's
        // note ("compressed text, fast search"); lib also covers both but
        // is an ancestor of the note, so SLCA keeps the note alone.
        let hits = p.search(&tree);
        assert_eq!(tag_names(&tree, &hits), vec!["note"]);
    }

    #[test]
    fn slca_keeps_independent_subtrees() {
        let (tree, p) = prepared(FtMode::All, &["search", "slow"]);
        // book2/note holds both; "slow" also sits in book2/title, and
        // "search" in book1/note and mixed/b — their joint covers are
        // note(2) and lib; lib is an ancestor and must be swept away.
        let hits = p.search(&tree);
        assert_eq!(tag_names(&tree, &hits), vec!["note"]);
        let range = tree.text_ids(hits[0].node);
        assert!(p.matches(&range));
    }

    #[test]
    fn any_mode_returns_nearest_elements() {
        let (tree, p) = prepared(FtMode::Any, &["slow", "missing"]);
        let hits = p.search(&tree);
        // "slow" occurs (lowercase — matching is case-sensitive, so the
        // title's "Slow" does not count) only in book2's note; "missing"
        // occurs nowhere.
        assert_eq!(tag_names(&tree, &hits), vec!["note"]);
    }

    #[test]
    fn phrase_requires_consecutive_tokens() {
        let (tree, p) = prepared(FtMode::Phrase, &["fast search"]);
        // "fast search" is consecutive only inside book1's note text.
        let hits = p.search(&tree);
        assert_eq!(tag_names(&tree, &hits), vec!["note"]);
        // "compressed search" is not consecutive anywhere.
        let (tree, p) = prepared(FtMode::Phrase, &["compressed search"]);
        assert!(p.search(&tree).is_empty());
        assert!(!p.matches(&tree.text_ids(tree.root())));
    }

    #[test]
    fn attribute_values_are_searched() {
        let (tree, p) = prepared(FtMode::All, &["systems"]);
        let hits = p.search(&tree);
        // The token only occurs in book1's id attribute; the nearest
        // element above the `%` value leaf is the book element itself.
        assert_eq!(tag_names(&tree, &hits), vec!["book"]);
    }

    #[test]
    fn ranking_prefers_denser_subtrees() {
        let (tree, p) = prepared(FtMode::Any, &["fast"]);
        let hits = p.search(&tree);
        // Lowercase "fast" occurs in book1's note and in mixed (the title's
        // "Fast" differs in case); every hit has tf 1 within its own
        // element, so scores tie and document order decides.
        assert_eq!(tag_names(&tree, &hits), vec!["note", "mixed"]);
        assert!(hits.windows(2).all(|w| w[0].score == w[1].score));
        // The root aggregates both occurrences.
        let root_score = p.score(&tree, tree.root());
        assert!((root_score - 2.0 * hits[0].score).abs() < 1e-9);
    }

    #[test]
    fn zero_token_query_matches_nothing() {
        let (tree, p) = prepared(FtMode::All, &[" ,; "]);
        assert!(!p.matches(&tree.text_ids(tree.root())));
        assert!(p.search(&tree).is_empty());
        let q = FtQuery::new(FtMode::Any, &[] as &[&str]);
        let (tree2, texts) = index();
        let p = PreparedFt::prepare(&texts, &q);
        assert!(p.search(&tree2).is_empty());
    }

    #[test]
    fn multi_token_literal_flattens_for_all() {
        let (tree, p) = prepared(FtMode::All, &["fast search"]);
        // As `all`, the two tokens need not be adjacent: book1/note has
        // both ("compressed text, fast search"), and so does mixed
        // ("fast" + "search" in separate texts).
        let hits = p.search(&tree);
        assert_eq!(tag_names(&tree, &hits), vec!["note", "mixed"]);
    }

    #[test]
    fn mode_names_roundtrip() {
        for mode in [FtMode::All, FtMode::Any, FtMode::Phrase] {
            assert_eq!(FtMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(FtMode::parse("bogus"), None);
    }
}
