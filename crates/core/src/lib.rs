//! SXSI — a Succinct XML Self-Index with fast in-memory XPath search.
//!
//! This crate is the public entry point of the SXSI reproduction: it ties
//! together the compressed text index ([`sxsi_text::TextCollection`]), the
//! succinct tree index ([`sxsi_tree::XmlTree`]) and the tree-automata query
//! engine ([`sxsi_xpath`]), mirroring the system described in
//! *"Fast in-memory XPath search using compressed indexes"* (Arroyuelo et
//! al.).
//!
//! # Quick start
//!
//! Queries go through a **prepared statement**: [`SxsiIndex::prepare`]
//! parses, rewrites, plans and compiles once; [`Prepared::run`] executes any
//! number of times (from any number of threads) with per-run
//! [`QueryOptions`] saying how much of the answer is needed — existence,
//! a count, or a `limit`/`offset` window of nodes.  The evaluators stop as
//! soon as the requested answer is decided.
//!
//! ```
//! use sxsi::{QueryOptions, SxsiIndex};
//!
//! let xml = r#"<parts>
//!   <part name="pen"><color>blue</color><stock>40</stock></part>
//!   <part name="rubber"><stock>30</stock></part>
//! </parts>"#;
//! let index = SxsiIndex::build_from_xml(xml.as_bytes()).unwrap();
//!
//! // Prepare once, run in any mode.
//! let stmt = index.prepare("//stock").unwrap();
//! assert!(stmt.run(&index, &QueryOptions::exists()).exists());
//! assert_eq!(stmt.run(&index, &QueryOptions::count()).count(), 2);
//! let first = stmt.run(&index, &QueryOptions::nodes().with_limit(1));
//! assert_eq!(first.cursor().len(), 1);
//!
//! // Convenience wrappers for one-shot queries.
//! assert_eq!(index.count(r#"//part[ .//color[ contains(., "blu") ] ]"#).unwrap(), 1);
//! assert!(index.exists("//color").unwrap());
//! assert_eq!(index.serialize("//color").unwrap(), "<color>blue</color>");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod io;
pub mod query;
pub mod serialize;

use std::fmt;

use sxsi_text::fmindex::DEFAULT_SAMPLE_RATE;
use sxsi_text::TextCollection;
use sxsi_tree::XmlTree;
use sxsi_xml::{parse_document_with_options, DocumentOptions, ParseError, ParsedDocument};
use sxsi_xpath::{
    compile, parse_query, requires_direct, rewrite_to_forward, Automaton, BottomUpPlan,
    CompileError, Predicate, Query, XPathParseError,
};

pub use io::{
    fnv1a64, scan_container, scan_container_file, section_name, ContainerScan, IoError, ReadFrom,
    SectionInfo, WriteInto, FORMAT_VERSION, MAGIC,
};
pub use sxsi_verify::{Verify, VerifyDepth, VerifyIssue, VerifyReport};
pub use query::{NodeCursor, Prepared, QueryMode, QueryOptions, ResultSet};
pub use sxsi_search::{FtMode, FtQuery, PreparedFt, SearchHit};
pub use serialize::{serialize_subtree, subtree_to_string};
pub use sxsi_text::{TextId, TextPredicate};
pub use sxsi_tree::{NodeId, TagId, TreeError};
pub use sxsi_xpath::eval::EvalStats;

/// Errors produced when building an index.
///
/// Malformed input can never panic the building process: XML syntax errors,
/// mismatched tags *and* tree-structure violations (unbalanced parentheses,
/// unclosed elements — see [`sxsi_tree::TreeError`]) all surface here as
/// structured errors.
#[derive(Debug)]
pub enum BuildError {
    /// The XML input could not be parsed, or the parsed events did not form
    /// a well-formed tree.
    Parse(ParseError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Parse(e) => write!(f, "failed to build index: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors produced when running a query.
#[derive(Debug)]
pub enum QueryError {
    /// The query string could not be parsed.
    Parse(XPathParseError),
    /// The query could not be compiled into an automaton.
    Compile(CompileError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<XPathParseError> for QueryError {
    fn from(e: XPathParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<CompileError> for QueryError {
    fn from(e: CompileError) -> Self {
        QueryError::Compile(e)
    }
}

/// What the index builder consumes: the locate sampling step and whether
/// whitespace-only texts are kept.
///
/// Neither is saved on its own — the structures they shape carry them (the
/// FM-index its sample rate, the tree its text leaves) — so a reloaded
/// index answers exactly like the one that was built.
#[derive(Debug, Clone)]
pub struct SxsiOptions {
    /// Locate sampling step of the FM-index (`l` in the paper; Tables II
    /// and III use 64 and 4).  Defaults to 64.
    pub sample_rate: usize,
    /// Keep whitespace-only text nodes (the paper keeps them; benchmarks
    /// usually drop them).
    pub keep_whitespace_text: bool,
}

impl Default for SxsiOptions {
    fn default() -> Self {
        Self { sample_rate: DEFAULT_SAMPLE_RATE, keep_whitespace_text: false }
    }
}

/// Which evaluation strategy answered a query (the paper's Figure 14
/// annotations: `↓` top-down, `↑` bottom-up; `Direct` covers the
/// reverse/ordered-axis extension beyond the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Automaton run from the root (with jumping).
    TopDown,
    /// Text-index seeds verified upward.
    BottomUp,
    /// Ordered per-context evaluation by direct BP-tree navigation —
    /// chosen for reverse/ordered axes and positional predicates that the
    /// forward rewrites could not eliminate.
    Direct,
    /// Keyword (`ft:`) queries: per-term hit lists are resolved from the
    /// FM-index at compile time, the residual query runs on whatever
    /// strategy fits it, and the text hits filter its results (beyond the
    /// paper — see `sxsi-search` and `docs/search.md`).
    TextFirst,
}

impl Strategy {
    /// Short lowercase name, as printed by the CLI and the bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::TopDown => "top-down",
            Strategy::BottomUp => "bottom-up",
            Strategy::Direct => "direct",
            Strategy::TextFirst => "text-first",
        }
    }
}

/// A query compiled against one index: the planner's strategy choice
/// frozen together with the artifacts needed to run it.
///
/// Produced by [`SxsiIndex::compile`] and executed through a [`Prepared`]
/// statement (see [`SxsiIndex::prepare`]) — including by the `sxsi-engine`
/// batch executor, which shares one prepared statement across its worker
/// threads (`CompiledPlan` is `Send + Sync`).  A plan is only meaningful
/// for the index it was compiled against: tag identifiers are baked in.
#[derive(Debug)]
pub enum CompiledPlan {
    /// Automaton run from the root (with jumping).
    TopDown(Automaton),
    /// Text-index seeds verified upward (Section 6.6).
    BottomUp(BottomUpPlan),
    /// Ordered direct-navigation evaluation of the (rewritten) query.
    Direct(Query),
    /// Keyword (`ft:`) query: the residual structural query plus the
    /// prepared per-term hit lists that filter its results by subtree
    /// containment.  The hit lists were resolved from the FM-index when the
    /// plan was compiled, so repeated runs pay no text-search cost.
    TextFirst {
        /// The query with the `ft:` conjuncts removed, compiled normally.
        residual: Box<CompiledPlan>,
        /// One prepared filter per extracted `ft:` predicate.
        predicates: Vec<PreparedFt>,
    },
}

impl CompiledPlan {
    /// The strategy this plan executes with.
    pub fn strategy(&self) -> Strategy {
        match self {
            CompiledPlan::TopDown(_) => Strategy::TopDown,
            CompiledPlan::BottomUp(_) => Strategy::BottomUp,
            CompiledPlan::Direct(_) => Strategy::Direct,
            CompiledPlan::TextFirst { .. } => Strategy::TextFirst,
        }
    }
}

/// Size report for an index (the paper's Figure 8 space accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of tree nodes (`n`), model nodes included.
    pub num_nodes: usize,
    /// Number of element nodes.
    pub num_elements: usize,
    /// Number of texts (`d`).
    pub num_texts: usize,
    /// Number of distinct tag/attribute names (`t`), reserved tags included.
    pub num_tags: usize,
    /// Heap bytes of the tree index.
    pub tree_bytes: usize,
    /// Heap bytes of the text self-index (FM-index + Doc + boundaries).
    pub text_index_bytes: usize,
    /// Heap bytes of the collection text `T` (terminators included).
    pub plain_text_bytes: usize,
}

impl IndexStats {
    /// Total heap bytes.
    pub fn total_bytes(&self) -> usize {
        self.tree_bytes + self.text_index_bytes + self.plain_text_bytes
    }
}

/// The SXSI index: a compressed, self-indexed representation of one XML
/// document supporting XPath Core+ search.
pub struct SxsiIndex {
    tree: XmlTree,
    texts: TextCollection,
}

impl SxsiIndex {
    /// Parses `xml` and builds the index with default options.
    ///
    /// ```
    /// use sxsi::SxsiIndex;
    ///
    /// let index = SxsiIndex::build_from_xml(b"<a><b>hi</b><b/></a>").unwrap();
    /// assert_eq!(index.count("//b").unwrap(), 2);
    /// ```
    pub fn build_from_xml(xml: &[u8]) -> Result<Self, BuildError> {
        Self::build_from_xml_with_options(xml, SxsiOptions::default())
    }

    /// Parses `xml` and builds the index.
    pub fn build_from_xml_with_options(xml: &[u8], options: SxsiOptions) -> Result<Self, BuildError> {
        let doc_options = DocumentOptions { keep_whitespace_text: options.keep_whitespace_text };
        let doc = parse_document_with_options(xml, &doc_options).map_err(BuildError::Parse)?;
        Ok(Self::from_parsed_document(doc, options))
    }

    /// Builds the index from an already-parsed document model.
    pub fn from_parsed_document(doc: ParsedDocument, options: SxsiOptions) -> Self {
        let texts = TextCollection::from_t(doc.t, options.sample_rate);
        Self { tree: doc.tree, texts }
    }

    /// The succinct tree index.
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The text collection index.
    pub fn texts(&self) -> &TextCollection {
        &self.texts
    }

    /// Space and cardinality statistics.
    pub fn stats(&self) -> IndexStats {
        // Non-reserved tags label element nodes plus one attribute-name node
        // per attribute, and every attribute contributes exactly one `%`
        // value leaf — so the tag sequence pins the element count exactly.
        // (Saturating: a loaded file's tag sequence is outside input.)
        let attributes = self.tree.tag_count(sxsi_tree::reserved::ATTRIBUTE_VALUE);
        IndexStats {
            num_nodes: self.tree.num_nodes(),
            num_elements: self.tree.count_elements().saturating_sub(attributes),
            num_texts: self.tree.num_texts(),
            num_tags: self.tree.num_tags(),
            tree_bytes: self.tree.size_bytes(),
            text_index_bytes: self.texts.index_size_bytes(),
            // `T` is the whole concatenation, terminators included.
            plain_text_bytes: self.texts.total_len(),
        }
    }

    // -----------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------

    /// Parses a query string.
    pub fn parse(&self, query: &str) -> Result<Query, QueryError> {
        Ok(parse_query(query)?)
    }

    /// Chooses the evaluation strategy for a query (Section 6.6: bottom-up
    /// whenever the shape and the content model allow it; direct ordered
    /// evaluation for reverse/ordered axes and positional predicates the
    /// forward rewrites cannot eliminate).
    ///
    /// This is [`SxsiIndex::compile`] minus the plan itself, so the two can
    /// never disagree; queries that fail to compile report `TopDown` (the
    /// strategy whose compiler produces the error).
    pub fn plan(&self, query: &Query) -> Strategy {
        self.compile(query).map_or(Strategy::TopDown, |plan| plan.strategy())
    }

    /// Compiles a parsed query into an executable plan, making the same
    /// strategy choice as [`SxsiIndex::plan`].
    ///
    /// Queries outside the forward automaton fragment are first rewritten
    /// toward it (`sxsi_xpath::rewrite`); shapes that stay outside — reverse
    /// or ordered axes without a provable forward equivalent, positional
    /// predicates — compile to a [`CompiledPlan::Direct`] plan carrying the
    /// rewritten query.
    ///
    /// Compile once, execute many times (possibly from many threads): see
    /// [`SxsiIndex::prepare`], [`Prepared::run`] and the `sxsi-engine`
    /// crate.
    ///
    /// Queries carrying `ft:` keyword predicates (legal only as top-level
    /// conjuncts of the last step's filters) compile to a
    /// [`CompiledPlan::TextFirst`] plan: the FM-index is searched *here*,
    /// once, and every run of the plan reuses the prepared hit lists.
    pub fn compile(&self, query: &Query) -> Result<CompiledPlan, QueryError> {
        if query_has_fulltext(query) {
            let (residual, ft_queries) = extract_fulltext(query)?;
            let predicates =
                ft_queries.iter().map(|q| PreparedFt::prepare(&self.texts, q)).collect();
            let residual = Box::new(self.compile_residual(&residual)?);
            return Ok(CompiledPlan::TextFirst { residual, predicates });
        }
        self.compile_residual(query)
    }

    fn compile_residual(&self, query: &Query) -> Result<CompiledPlan, QueryError> {
        let rewritten;
        let query = if requires_direct(query) {
            rewritten = rewrite_to_forward(query);
            if requires_direct(&rewritten) {
                return Ok(CompiledPlan::Direct(rewritten));
            }
            &rewritten
        } else {
            query
        };
        if let Some(plan) = BottomUpPlan::try_from_query(query, &self.tree) {
            return Ok(CompiledPlan::BottomUp(plan));
        }
        Ok(CompiledPlan::TopDown(compile(query, &self.tree)?))
    }

    /// Ranked keyword search over the whole document: resolves `query`
    /// against the FM-index and returns matching elements ordered by
    /// descending score (see `docs/search.md` for tokenization and the
    /// ranking formula).  For keyword search *inside* an XPath step, use
    /// the `ft:` predicate functions instead.
    pub fn search(&self, query: &FtQuery) -> Vec<SearchHit> {
        PreparedFt::prepare(&self.texts, query).search(&self.tree)
    }

    /// Number of nodes selected by `query` — a thin wrapper over
    /// [`Prepared::run`] with [`QueryOptions::count`].
    ///
    /// Counting mode never materializes node sets: wherever the automaton
    /// configuration allows it, whole regions are counted through the
    /// tag index (Section 5.5.3 of the paper).
    ///
    /// ```
    /// use sxsi::SxsiIndex;
    ///
    /// let index = SxsiIndex::build_from_xml(
    ///     br#"<cd><track len="3:01"/><track len="4:10"/></cd>"#,
    /// ).unwrap();
    /// assert_eq!(index.count("/cd/track").unwrap(), 2);
    /// assert_eq!(index.count(r#"//track[ @len = "4:10" ]"#).unwrap(), 1);
    /// ```
    pub fn count(&self, query: &str) -> Result<u64, QueryError> {
        Ok(self.run(query, &QueryOptions::count())?.count())
    }

    /// Whether `query` selects at least one node — a thin wrapper over
    /// [`Prepared::run`] with [`QueryOptions::exists`], which stops at the
    /// first match wherever the plan allows it.
    ///
    /// ```
    /// use sxsi::SxsiIndex;
    ///
    /// let index = SxsiIndex::build_from_xml(b"<a><b>x</b></a>").unwrap();
    /// assert!(index.exists("//b").unwrap());
    /// assert!(!index.exists("//c").unwrap());
    /// ```
    pub fn exists(&self, query: &str) -> Result<bool, QueryError> {
        Ok(self.run(query, &QueryOptions::exists())?.exists())
    }

    /// The nodes selected by `query`, in document order — a thin wrapper
    /// over [`Prepared::run`] with [`QueryOptions::nodes`].
    ///
    /// ```
    /// use sxsi::SxsiIndex;
    ///
    /// let index = SxsiIndex::build_from_xml(b"<a><b>x</b><c/><b/></a>").unwrap();
    /// let nodes = index.materialize("//b").unwrap();
    /// assert_eq!(nodes.len(), 2);
    /// assert!(nodes[0] < nodes[1]); // document order
    /// assert_eq!(index.node_name(nodes[0]), "b");
    /// assert_eq!(index.get_subtree(nodes[0]), "<b>x</b>");
    /// ```
    pub fn materialize(&self, query: &str) -> Result<Vec<NodeId>, QueryError> {
        Ok(self
            .run(query, &QueryOptions::nodes())?
            .into_nodes()
            .expect("a Nodes-mode run returns nodes"))
    }

    /// Serializes every node selected by `query`, concatenated in document
    /// order (the paper's materialization + serialization phase) — a thin
    /// wrapper over [`Prepared::run`].
    pub fn serialize(&self, query: &str) -> Result<String, QueryError> {
        let nodes = self.materialize(query)?;
        let mut out = String::new();
        for node in nodes {
            serialize_subtree(&self.tree, &self.texts, node, &mut out);
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Content access
    // -----------------------------------------------------------------

    /// The content of text `d` (the paper's `GetText`).
    pub fn get_text(&self, d: TextId) -> Vec<u8> {
        self.texts.get_text(d)
    }

    /// The XML serialization of the subtree rooted at `node` (the paper's
    /// `GetSubtree`).
    pub fn get_subtree(&self, node: NodeId) -> String {
        subtree_to_string(&self.tree, &self.texts, node)
    }

    /// The tag name of `node`.
    pub fn node_name(&self, node: NodeId) -> &str {
        self.tree.tag_name(self.tree.tag(node))
    }

    /// Runs the deep structural verifier over every index component and the
    /// cross-section invariants tying them together, returning a structured
    /// [`VerifyReport`] (inherent convenience over the [`Verify`] trait).
    ///
    /// [`VerifyDepth::Quick`] recomputes directories, C-arrays and shape
    /// invariants; [`VerifyDepth::Deep`] additionally replays the tag-table
    /// construction and walks every text through the LF mapping.
    ///
    /// ```
    /// use sxsi::{SxsiIndex, VerifyDepth};
    ///
    /// let index = SxsiIndex::build_from_xml(b"<a><b>hi</b></a>").unwrap();
    /// assert!(index.verify(VerifyDepth::Deep).is_ok());
    /// ```
    pub fn verify(&self, depth: VerifyDepth) -> VerifyReport {
        Verify::verify(self, depth)
    }
}

impl Verify for SxsiIndex {
    /// Cross-section checks: the tree and the text collection must describe
    /// the same document.  Component invariants are checked recursively.
    fn verify_into(&self, depth: VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        ctx.enter("tree", |ctx| self.tree.verify_into(depth, ctx));
        ctx.enter("texts", |ctx| self.texts.verify_into(depth, ctx));
        ctx.check("tree-text-count", self.tree.num_texts() == self.texts.num_texts(), || {
            format!(
                "tree references {} texts, collection holds {}",
                self.tree.num_texts(),
                self.texts.num_texts()
            )
        });
    }
}

/// Whether `pred` holds an `ft:` predicate anywhere — including positions
/// (under `not`/`or`, inside nested paths) where text-first filtering would
/// be unsound and compilation must fail instead.
fn contains_fulltext(pred: &Predicate) -> bool {
    match pred {
        Predicate::FullText { .. } => true,
        Predicate::Not(inner) => contains_fulltext(inner),
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            contains_fulltext(a) || contains_fulltext(b)
        }
        Predicate::Exists(path) | Predicate::TextCompare { path, .. } => {
            path.steps.iter().any(|s| s.predicates.iter().any(contains_fulltext))
        }
        Predicate::Position(_) => false,
    }
}

fn query_has_fulltext(query: &Query) -> bool {
    query.path.steps.iter().any(|s| s.predicates.iter().any(contains_fulltext))
}

/// Splits a predicate into its top-level `and`-conjunct list.
fn flatten_conjuncts(pred: Predicate, out: &mut Vec<Predicate>) {
    match pred {
        Predicate::And(a, b) => {
            flatten_conjuncts(*a, out);
            flatten_conjuncts(*b, out);
        }
        other => out.push(other),
    }
}

/// Removes the `ft:` predicates from `query`, returning the residual
/// structural query and the extracted keyword queries.
///
/// `ft:` predicates are only sound where the result set of the *final* step
/// is filtered by plain conjunction — anywhere else (an earlier step, under
/// `not(...)`/`or`, inside a nested path) the text-first filter would change
/// the query's meaning, so extraction fails with a [`CompileError`].
fn extract_fulltext(query: &Query) -> Result<(Query, Vec<FtQuery>), CompileError> {
    const MISPLACED: &str =
        "ft: predicates are only supported as top-level conjuncts of the last step's filters";
    let mut residual = query.clone();
    let num_steps = residual.path.steps.len();
    let mut extracted = Vec::new();
    for (i, step) in residual.path.steps.iter_mut().enumerate() {
        if i + 1 < num_steps {
            if step.predicates.iter().any(contains_fulltext) {
                return Err(CompileError { message: MISPLACED.into() });
            }
            continue;
        }
        let mut kept = Vec::new();
        for pred in std::mem::take(&mut step.predicates) {
            let mut conjuncts = Vec::new();
            flatten_conjuncts(pred, &mut conjuncts);
            for conjunct in conjuncts {
                match conjunct {
                    Predicate::FullText { mode, literals } => {
                        extracted.push(FtQuery::new(mode, &literals));
                    }
                    other => {
                        if contains_fulltext(&other) {
                            return Err(CompileError { message: MISPLACED.into() });
                        }
                        kept.push(other);
                    }
                }
            }
        }
        // Separate filters conjoin, so the surviving conjuncts re-attach as
        // one predicate each without regrouping.
        step.predicates = kept;
    }
    Ok((residual, extracted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi_xpath::eval::{EvalOptions, Evaluator};

    const DOC: &str = r#"<library>
  <book id="b1" year="2001"><title>Compressed Indexes</title>
    <author><last>Navarro</last></author>
    <abstract>self indexes in practice</abstract></book>
  <book id="b2" year="2005"><title>Tree Automata</title>
    <author><last>Maneth</last></author>
    <abstract>alternating automata for xpath</abstract></book>
  <journal id="j1"><title>Practice and Experience</title></journal>
</library>"#;

    fn index() -> SxsiIndex {
        SxsiIndex::build_from_xml(DOC.as_bytes()).unwrap()
    }

    #[test]
    fn counting_and_materializing() {
        let idx = index();
        assert_eq!(idx.count("//book").unwrap(), 2);
        assert_eq!(idx.count("//title").unwrap(), 3);
        assert_eq!(idx.count("/library/book/title").unwrap(), 2);
        assert_eq!(idx.count("//book[ author/last ]").unwrap(), 2);
        let nodes = idx.materialize("//last").unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(idx.node_name(nodes[0]), "last");
        assert_eq!(idx.get_subtree(nodes[0]), "<last>Navarro</last>");
    }

    #[test]
    fn planner_chooses_bottom_up_for_selective_text_queries() {
        let idx = index();
        let q = idx.parse(r#"//book[ .//last[ . = "Navarro" ] ]"#).unwrap();
        assert_eq!(idx.plan(&q), Strategy::BottomUp);
        let q = idx.parse("//book[ author/last ]").unwrap();
        assert_eq!(idx.plan(&q), Strategy::TopDown);
        // Both strategies agree on the answer.
        let result = idx.run(r#"//book[ .//last[ . = "Navarro" ] ]"#, &QueryOptions::count()).unwrap();
        assert_eq!(result.strategy(), Strategy::BottomUp);
        assert_eq!(result.count(), 1);
        let q = idx.parse(r#"//book[ .//last[ . = "Navarro" ] ]"#).unwrap();
        let automaton = compile(&q, idx.tree()).unwrap();
        let mut top_down =
            Evaluator::new(&automaton, idx.tree(), Some(idx.texts()), EvalOptions::default());
        assert_eq!(top_down.count(), 1);
    }

    #[test]
    fn serialization_of_results() {
        let idx = index();
        let s = idx.serialize(r#"//book[ .//last[ . = "Maneth" ] ]/title"#).unwrap();
        assert_eq!(s, "<title>Tree Automata</title>");
        let s = idx.serialize("//journal").unwrap();
        assert_eq!(s, r#"<journal id="j1"><title>Practice and Experience</title></journal>"#);
    }

    #[test]
    fn attribute_queries() {
        let idx = index();
        assert_eq!(idx.count("//book/@id").unwrap(), 2);
        assert_eq!(idx.count("//*/@*").unwrap(), 5);
        assert_eq!(idx.count(r#"//book[ @year = "2005" ]"#).unwrap(), 1);
    }

    #[test]
    fn stats_are_populated() {
        let idx = index();
        let stats = idx.stats();
        assert_eq!(stats.num_elements, 13);
        assert_eq!(stats.num_texts, 5 + 7); // 5 attribute values + 7 element texts
        assert!(stats.num_nodes > stats.num_elements);
        assert!(stats.tree_bytes > 0);
        assert!(stats.text_index_bytes > 0);
        assert!(stats.total_bytes() > stats.tree_bytes);
    }

    #[test]
    fn errors_are_reported() {
        let idx = index();
        assert!(matches!(idx.count("book"), Err(QueryError::Parse(_))));
        assert!(matches!(idx.count("//sideways::book"), Err(QueryError::Parse(_))));
        assert!(SxsiIndex::build_from_xml(b"<a><b></a>").is_err());
    }

    #[test]
    fn reverse_axes_and_positional_predicates() {
        let idx = index();
        // Rewritable shapes stay on the automaton path.
        let q = idx.parse("//last/ancestor::book").unwrap();
        assert_eq!(idx.plan(&q), Strategy::TopDown);
        assert_eq!(idx.count("//last/ancestor::book").unwrap(), 2);
        assert_eq!(idx.count("//title/parent::journal").unwrap(), 1);
        // Non-rewritable shapes run on the direct strategy.
        let q = idx.parse("//title/preceding-sibling::*").unwrap();
        assert_eq!(idx.plan(&q), Strategy::Direct);
        let result = idx.run("/library/book[last()]/title", &QueryOptions::nodes()).unwrap();
        assert_eq!(result.strategy(), Strategy::Direct);
        assert_eq!(result.count(), 1);
        assert_eq!(
            idx.serialize("/library/book[last()]/title").unwrap(),
            "<title>Tree Automata</title>"
        );
        assert_eq!(idx.count("/library/book[1]").unwrap(), 1);
        assert_eq!(idx.count("//book[position() <= 2]").unwrap(), 2);
        assert_eq!(idx.count("//author/following::journal").unwrap(), 1);
        assert_eq!(idx.count("//journal/preceding::book").unwrap(), 2);
        assert_eq!(idx.count("//abstract/..").unwrap(), 2);
    }

    #[test]
    fn prepared_statements_window_and_terminate() {
        let idx = index();
        // One prepared handle, every mode, repeated runs.
        let stmt = idx.prepare("//title").unwrap();
        let full = idx.materialize("//title").unwrap();
        assert_eq!(full.len(), 3);
        assert!(stmt.run(&idx, &QueryOptions::exists()).exists());
        assert_eq!(stmt.run(&idx, &QueryOptions::count()).count(), 3);
        for offset in 0..4u64 {
            for limit in 0..4u64 {
                let result =
                    stmt.run(&idx, &QueryOptions::nodes().with_limit(limit).with_offset(offset));
                let lo = (offset as usize).min(full.len());
                let hi = (offset + limit).min(full.len() as u64) as usize;
                assert_eq!(result.nodes().unwrap(), &full[lo..hi], "limit {limit} offset {offset}");
                // Count mode reports the same window arithmetic.
                let counted =
                    stmt.run(&idx, &QueryOptions::count().with_limit(limit).with_offset(offset));
                assert_eq!(counted.count(), (hi - lo) as u64);
            }
        }
        // The cursor yields the nodes lazily, in document order.
        let result = stmt.run(&idx, &QueryOptions::nodes());
        let collected: Vec<_> = result.cursor().collect();
        assert_eq!(collected, full);
        assert_eq!(result.cursor().len(), 3);
        // Truncation flag: a cut window reports more may exist.
        assert!(stmt.run(&idx, &QueryOptions::nodes().with_limit(1)).truncated());
        assert!(!stmt.run(&idx, &QueryOptions::nodes()).truncated());
    }

    #[test]
    fn exists_agrees_with_count_on_every_strategy() {
        let idx = index();
        let queries = [
            ("//book", Strategy::TopDown),
            (r#"//book[ .//last[ . = "Navarro" ] ]"#, Strategy::BottomUp),
            ("/library/book[last()]", Strategy::Direct),
            ("//nonexistent", Strategy::TopDown),
            (r#"//book[ .//last[ . = "Nobody" ] ]"#, Strategy::BottomUp),
            ("/library/journal[7]", Strategy::Direct),
        ];
        for (query, expected_strategy) in queries {
            let stmt = idx.prepare(query).unwrap();
            assert_eq!(stmt.strategy(), expected_strategy, "{query}");
            let result = stmt.run(&idx, &QueryOptions::exists());
            assert_eq!(result.exists(), idx.count(query).unwrap() > 0, "{query}");
            assert_eq!(result.strategy(), expected_strategy, "{query}");
        }
    }

    #[test]
    fn verify_passes_clean_and_catches_cross_section_drift() {
        let idx = index();
        let report = idx.verify(VerifyDepth::Deep);
        assert!(report.is_ok(), "{report}");
        assert!(report.checks_run > 30, "only {} checks ran", report.checks_run);

        let mut drifted = index();
        drifted.texts = TextCollection::new(&["one text"]);
        assert!(drifted.verify(VerifyDepth::Quick).has_code("tree-text-count"));
    }

    #[test]
    fn get_text_and_subtree() {
        let idx = index();
        let first_title = idx.materialize("//title").unwrap()[0];
        assert_eq!(idx.get_subtree(first_title), "<title>Compressed Indexes</title>");
    }

    #[test]
    fn fulltext_predicates_plan_text_first_and_filter() {
        let idx = index();
        // Token matching is case-sensitive: "indexes" only hits the lower
        // case abstract of b1, not the "Compressed Indexes" title.
        let q = idx.parse(r#"//book[ ft:all("indexes") ]"#).unwrap();
        assert_eq!(idx.plan(&q), Strategy::TextFirst);
        let result = idx.run(r#"//book[ ft:all("indexes") ]"#, &QueryOptions::count()).unwrap();
        assert_eq!(result.strategy(), Strategy::TextFirst);
        assert_eq!(result.count(), 1);
        assert_eq!(
            idx.serialize(r#"//book[ ft:all("indexes") ]/@id"#).unwrap_err().to_string(),
            QueryError::Compile(CompileError {
                message: "ft: predicates are only supported as top-level conjuncts of the last \
                          step's filters"
                    .into()
            })
            .to_string()
        );
        assert_eq!(idx.count(r#"//book[ ft:any("automata", "Navarro") ]"#).unwrap(), 2);
        assert_eq!(idx.count(r#"//book[ ft:phrase("automata for xpath") ]"#).unwrap(), 1);
        assert_eq!(idx.count(r#"//book[ ft:all("automata", "Navarro") ]"#).unwrap(), 0);
        // ft: conjoins with structural and text predicates on the same step.
        assert_eq!(
            idx.count(r#"//book[ ft:all("automata") and author/last ]"#).unwrap(),
            1
        );
        assert!(idx
            .serialize(r#"//book[ ft:phrase("self indexes") ]/author/last/text()"#)
            .map(|_| ())
            .unwrap_err()
            .to_string()
            .contains("last step"));
        // A term absent from the whole collection short-circuits to empty.
        let stmt = idx.prepare(r#"//book[ ft:all("zzzmissing") ]"#).unwrap();
        assert_eq!(stmt.strategy(), Strategy::TextFirst);
        assert!(!stmt.run(&idx, &QueryOptions::exists()).exists());
        assert_eq!(stmt.run(&idx, &QueryOptions::count()).count(), 0);
    }

    #[test]
    fn fulltext_misplaced_predicates_fail_to_compile() {
        let idx = index();
        for query in [
            // Not the last step.
            r#"//book[ ft:all("indexes") ]/title"#,
            // Under negation / disjunction the text-first filter is unsound.
            r#"//book[ not( ft:all("indexes") ) ]"#,
            r#"//book[ ft:all("indexes") or author/last ]"#,
            // Inside a nested path.
            r#"//book[ author[ ft:all("Navarro") ] ]"#,
        ] {
            let parsed = idx.parse(query).unwrap();
            assert!(
                matches!(idx.compile(&parsed), Err(QueryError::Compile(_))),
                "{query} should be rejected"
            );
            assert_eq!(idx.plan(&parsed), Strategy::TopDown, "{query}");
        }
        // But and-chains of ft: conjuncts are fine, wherever the parens sit.
        let ok = idx
            .parse(r#"//book[ ft:all("indexes") and ft:any("Navarro") and author/last ]"#)
            .unwrap();
        assert_eq!(idx.plan(&ok), Strategy::TextFirst);
        assert_eq!(
            idx.count(r#"//book[ ft:all("indexes") and ft:any("Navarro") and author/last ]"#)
                .unwrap(),
            1
        );
    }

    #[test]
    fn fulltext_windows_agree_with_full_runs() {
        let idx = index();
        let query = r#"//*[ ft:any("indexes", "automata", "Practice") ]"#;
        let stmt = idx.prepare(query).unwrap();
        let full = stmt
            .run(&idx, &QueryOptions::nodes())
            .into_nodes()
            .expect("a Nodes-mode run returns nodes");
        assert!(full.len() >= 3, "expected several matching elements, got {}", full.len());
        for offset in 0..=full.len() as u64 {
            for limit in 0..=full.len() as u64 {
                let result =
                    stmt.run(&idx, &QueryOptions::nodes().with_limit(limit).with_offset(offset));
                let lo = (offset as usize).min(full.len());
                let hi = ((offset + limit) as usize).min(full.len());
                assert_eq!(result.nodes().unwrap(), &full[lo..hi], "limit {limit} offset {offset}");
                assert_eq!(result.truncated(), hi < full.len(), "limit {limit} offset {offset}");
            }
        }
    }

    #[test]
    fn ranked_search_orders_by_score() {
        let idx = index();
        let hits = idx.search(&FtQuery::new(FtMode::All, &["indexes"]));
        assert!(!hits.is_empty());
        for pair in hits.windows(2) {
            assert!(
                pair[0].score > pair[1].score
                    || (pair[0].score == pair[1].score && pair[0].node < pair[1].node),
                "hits must sort by (score desc, node asc): {pair:?}"
            );
        }
        // Every hit's subtree really contains the token.
        let prepared = PreparedFt::prepare(idx.texts(), &FtQuery::new(FtMode::All, &["indexes"]));
        for hit in &hits {
            assert!(prepared.matches(&idx.tree().text_ids(hit.node)), "{hit:?}");
            assert!(hit.score > 0.0);
        }
        // Unknown terms produce no hits.
        assert!(idx.search(&FtQuery::new(FtMode::All, &["zzzmissing"])).is_empty());
    }
}
