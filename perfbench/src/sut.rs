//! The adapter: every call into the program under test is in this file.
//!
//! It names only surfaces the ROADMAP keeps — `SxsiIndex` (build, parse,
//! compile, prepare, save, load, verify, stats), `Prepared::run` with
//! `QueryOptions`, `XmlTree` / `TextCollection` / `FmIndex` navigation,
//! `FtQuery` / `PreparedFt`, `Collection::{build, open}`, `Server` and
//! `Client` — and never a succinct backend variant, so a change that
//! collapses the backends or merges the engine's lanes is measured by code
//! it does not edit.  The one exception is the last section, [`lanes`]:
//! today's engine lane functions, used by the traced run's `engine.*` rows
//! only; no end-to-end metric depends on them.
//!
//! With a recording [`Tracer`], each wrapper records a span around the call
//! into the layer (`layer.name`, start, end, parent, request id).

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use sxsi::{FtMode, FtQuery, PreparedFt, QueryOptions, SxsiIndex, SxsiOptions, VerifyDepth};
use sxsi_baseline::NaiveEvaluator;
use sxsi_collection::Collection;
use sxsi_datagen::{medline, treebank, wiki, xmark};
use sxsi_datagen::{MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig};
use sxsi_engine::server::client::Client;
use sxsi_engine::server::protocol::{escape_query, Response};
use sxsi_engine::server::{Listener, ServeOptions, ServedIndex, Server};
use sxsi_xml::ParsedDocument;
use sxsi_xpath::{MEDLINE_QUERIES, ORDERED_QUERIES, TREEBANK_QUERIES, WORD_QUERIES, XMARK_QUERIES};

use crate::trace::Tracer;

/// The index under test.
pub type Index = SxsiIndex;
/// A prepared statement of the index under test.
pub type Prepared = sxsi::Prepared;
/// A tree node (a balanced-parentheses position).
pub type Node = usize;
/// A tag identifier.
pub type Tag = u32;

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

// ---------------------------------------------------------------------------
// Corpora and the query catalogue
// ---------------------------------------------------------------------------

/// The four corpus kinds of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corpus {
    /// XMark auction site (tree-oriented).
    XMark,
    /// Penn Treebank (deep, tag-rich trees).
    Treebank,
    /// Medline citations (text-oriented).
    Medline,
    /// Wiki pages (long texts).
    Wiki,
}

impl Corpus {
    /// Every kind, in slot order.
    pub const ALL: [Corpus; 4] = [
        Corpus::XMark,
        Corpus::Treebank,
        Corpus::Medline,
        Corpus::Wiki,
    ];

    /// The catalogue's name for the corpus.
    pub fn name(self) -> &'static str {
        match self {
            Corpus::XMark => "xmark",
            Corpus::Treebank => "treebank",
            Corpus::Medline => "medline",
            Corpus::Wiki => "wiki",
        }
    }

    /// Position in [`Corpus::ALL`].
    pub fn slot(self) -> usize {
        self as usize
    }

    /// Generates the corpus: `units` is the XMark scale factor, or the
    /// number of sentences / citations / pages.
    pub fn generate(self, units: f64, seed: u64) -> String {
        let count = (units.round() as usize).max(1);
        match self {
            Corpus::XMark => xmark::generate(&XMarkConfig { scale: units, seed }),
            Corpus::Treebank => treebank::generate(&TreebankConfig {
                num_sentences: count,
                seed,
            }),
            Corpus::Medline => medline::generate(&MedlineConfig {
                num_citations: count,
                seed,
            }),
            Corpus::Wiki => wiki::generate(&WikiConfig {
                num_pages: count,
                seed,
            }),
        }
    }
}

/// One query of the 63-query catalogue.
#[derive(Debug, Clone, Copy)]
pub struct CatQuery {
    /// The paper's identifier, e.g. `X04`.
    pub id: &'static str,
    /// The corpus it runs on.
    pub corpus: Corpus,
    /// The XPath expression.
    pub xpath: &'static str,
}

impl CatQuery {
    /// The query set: `X`, `T`, `M`, `W` or `O`.
    pub fn set(&self) -> char {
        self.id.chars().next().unwrap_or('?')
    }

    /// Whether the query carries a text predicate (every text predicate of
    /// the catalogue has a string literal, and nothing else has).
    pub fn has_text_predicate(&self) -> bool {
        self.xpath.contains('"')
    }
}

/// The catalogue: X01–X17, T01–T05, M01–M11, W01–W10, O01–O20.
pub fn catalogue() -> Vec<CatQuery> {
    let mut out = Vec::new();
    let mut add = |corpus, id, xpath| out.push(CatQuery { id, corpus, xpath });
    XMARK_QUERIES
        .iter()
        .for_each(|q| add(Corpus::XMark, q.id, q.xpath));
    TREEBANK_QUERIES
        .iter()
        .for_each(|q| add(Corpus::Treebank, q.id, q.xpath));
    MEDLINE_QUERIES
        .iter()
        .for_each(|q| add(Corpus::Medline, q.id, q.xpath));
    // W01–W05 run over Medline, W06–W10 over the wiki corpus (Figure 16).
    for (i, q) in WORD_QUERIES.iter().enumerate() {
        add(
            if i < 5 { Corpus::Medline } else { Corpus::Wiki },
            q.id,
            q.xpath,
        );
    }
    for q in ORDERED_QUERIES {
        if let Some(corpus) = Corpus::ALL.into_iter().find(|c| c.name() == q.corpus) {
            add(corpus, q.id, q.xpath);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Build, persist, inspect
// ---------------------------------------------------------------------------

/// Parses and indexes `xml` (the set-up path).
pub fn build(xml: &str) -> Result<Index, String> {
    SxsiIndex::build_from_xml(xml.as_bytes()).map_err(text)
}

/// `xml.parse`: the parser alone.
pub fn parse_xml(xml: &str, t: &mut Tracer, req: u32) -> Result<ParsedDocument, String> {
    t.span("xml.parse", req, |_| {
        sxsi_xml::parse_document(xml.as_bytes()).map_err(text)
    })
}

/// `core.build`: index construction from a parsed document.
pub fn build_from_parsed(doc: ParsedDocument, t: &mut Tracer, req: u32) -> Index {
    t.span("core.build", req, |_| {
        SxsiIndex::from_parsed_document(doc, SxsiOptions::default())
    })
}

/// `core.save`: writes the `.sxsi` container.
pub fn save(index: &Index, out: &mut impl Write, t: &mut Tracer, req: u32) -> Result<(), String> {
    t.span("core.save", req, |_| index.save_to(out).map_err(text))
}

/// `core.load`: reads a `.sxsi` container.
pub fn load(from: &mut impl Read, t: &mut Tracer, req: u32) -> Result<Index, String> {
    t.span("core.load", req, |_| {
        SxsiIndex::load_from(from).map_err(text)
    })
}

/// Paranoid load: container checks plus deep structural verification.
pub fn load_verified_deep(from: &mut impl Read) -> Result<Index, String> {
    SxsiIndex::load_verified(from, VerifyDepth::Deep).map_err(text)
}

/// Quick structural verification; `true` when clean.
pub fn verify_quick(index: &Index) -> bool {
    index.verify(VerifyDepth::Quick).is_ok()
}

/// Heap bytes of the index (`IndexStats::total_bytes`).
pub fn heap_bytes(index: &Index) -> usize {
    index.stats().total_bytes()
}

/// Node, element, text and tag counts — what must survive a save/load.
pub fn shape(index: &Index) -> [usize; 4] {
    let s = index.stats();
    [s.num_nodes, s.num_elements, s.num_texts, s.num_tags]
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

/// What a run produces: the four windows the daemon and the CLI offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Whether any node matches.
    Exists,
    /// The number of matches.
    Count,
    /// The matching nodes.
    Nodes,
    /// The first ten matching nodes.
    Limit10,
}

impl Mode {
    /// Every mode.
    pub const ALL: [Mode; 4] = [Mode::Exists, Mode::Count, Mode::Nodes, Mode::Limit10];

    /// Lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Exists => "exists",
            Mode::Count => "count",
            Mode::Nodes => "nodes",
            Mode::Limit10 => "limit10",
        }
    }

    fn options(self) -> QueryOptions {
        match self {
            Mode::Exists => QueryOptions::exists(),
            Mode::Count => QueryOptions::count(),
            Mode::Nodes => QueryOptions::nodes(),
            Mode::Limit10 => QueryOptions::nodes().with_limit(10),
        }
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ran {
    /// Result count of the window (0/1 for `Exists`).
    pub count: u64,
    /// Whether anything matched.
    pub exists: bool,
    /// The nodes (`Nodes` and `Limit10` runs).
    pub nodes: Option<Vec<Node>>,
    /// `EvalStats::visited_nodes`.
    pub visited: u64,
    /// `EvalStats::marked_nodes`.
    pub marked: u64,
}

/// `core.parse`: the XPath parser alone (the result is dropped).
pub fn parse_query(index: &Index, xpath: &str, t: &mut Tracer, req: u32) -> Result<(), String> {
    t.span("core.parse", req, |_| {
        index.parse(xpath).map(drop).map_err(text)
    })
}

/// `core.compile`: rewrite, plan and compile an already parsed query.  The
/// parse happens outside the span.
pub fn compile_query(index: &Index, xpath: &str, t: &mut Tracer, req: u32) -> Result<(), String> {
    let parsed = index.parse(xpath).map_err(text)?;
    t.span("core.compile", req, |_| {
        index.compile(&parsed).map(drop).map_err(text)
    })
}

/// Parse, plan and compile once.
pub fn prepare(index: &Index, xpath: &str) -> Result<Prepared, String> {
    index.prepare(xpath).map_err(text)
}

/// The strategy the planner froze into the statement.
pub fn strategy(prepared: &Prepared) -> &'static str {
    prepared.strategy().name()
}

/// `core.run`: one run of a prepared statement.
#[inline]
pub fn run(prepared: &Prepared, index: &Index, mode: Mode, t: &mut Tracer, req: u32) -> Ran {
    let result = t.span("core.run", req, |_| prepared.run(index, &mode.options()));
    let stats = result.stats().unwrap_or_default();
    Ran {
        count: result.count(),
        exists: result.exists(),
        visited: stats.visited_nodes,
        marked: stats.marked_nodes,
        nodes: result.into_nodes(),
    }
}

/// The naive evaluator's answer (the correctness oracle).
pub fn oracle_nodes(index: &Index, xpath: &str) -> Result<Vec<Node>, String> {
    let parsed = sxsi_xpath::parse_query(xpath).map_err(text)?;
    Ok(NaiveEvaluator::new(index.tree(), index.texts()).evaluate(&parsed))
}

/// `core.serialize`: the XML of `nodes`, concatenated; returns its length.
pub fn serialize_nodes(index: &Index, nodes: &[Node], t: &mut Tracer, req: u32) -> usize {
    t.span("core.serialize", req, |_| {
        let mut out = String::new();
        for &node in nodes {
            sxsi::serialize_subtree(index.tree(), index.texts(), node, &mut out);
        }
        out.len()
    })
}

/// `SxsiIndex::serialize`: evaluate and serialize in one call.
pub fn serialize_query(index: &Index, xpath: &str) -> Result<usize, String> {
    index.serialize(xpath).map(|s| s.len()).map_err(text)
}

/// The XML of the subtree of `node`.
pub fn subtree_xml(index: &Index, node: Node) -> String {
    index.get_subtree(node)
}

/// Preorder number of `node` (the paper's global identifier; stable across
/// encodings, so answer digests use it).
#[inline]
pub fn preorder(index: &Index, node: Node) -> usize {
    index.tree().preorder(node)
}

// ---------------------------------------------------------------------------
// Ranked keyword search
// ---------------------------------------------------------------------------

/// How search terms combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FtKind {
    /// Every term.
    All,
    /// At least one term.
    Any,
    /// The terms as one phrase.
    Phrase,
}

impl FtKind {
    /// The wire and XPath token (`all`, `any`, `phrase`).
    pub fn name(self) -> &'static str {
        match self {
            FtKind::All => "all",
            FtKind::Any => "any",
            FtKind::Phrase => "phrase",
        }
    }
}

/// One ranked search.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Search {
    /// How the terms combine.
    pub kind: FtKind,
    /// The terms.
    pub terms: Vec<String>,
}

impl Search {
    fn query(&self) -> FtQuery {
        let mode = match self.kind {
            FtKind::All => FtMode::All,
            FtKind::Any => FtMode::Any,
            FtKind::Phrase => FtMode::Phrase,
        };
        FtQuery::new(mode, &self.terms)
    }

    /// The search as an `ft:` predicate on `step`, e.g.
    /// `//Article[ ft:all("blood", "cell") ]`.
    pub fn as_xpath(&self, step: &str) -> String {
        let terms: Vec<String> = self.terms.iter().map(|t| format!("\"{t}\"")).collect();
        format!("{step}[ ft:{}({}) ]", self.kind.name(), terms.join(", "))
    }
}

/// One ranked hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// The result element.
    pub node: Node,
    /// Its score.
    pub score: f64,
}

/// A ranked search end to end: `search.prepare` (token matching on the
/// FM-index) then `search.lift` (SLCA / ancestor lifting and scoring on the
/// tree) — the two calls `SxsiIndex::search` makes.
pub fn search(index: &Index, search: &Search, t: &mut Tracer, req: u32) -> Vec<Hit> {
    let query = search.query();
    let prepared = t.span("search.prepare", req, |_| {
        PreparedFt::prepare(index.texts(), &query)
    });
    let hits = t.span("search.lift", req, |_| prepared.search(index.tree()));
    hits.into_iter()
        .map(|h| Hit {
            node: h.node,
            score: h.score,
        })
        .collect()
}

/// `SxsiIndex::search` in one call; returns the number of hits.
pub fn search_whole(index: &Index, search: &Search) -> usize {
    index.search(&search.query()).len()
}

// ---------------------------------------------------------------------------
// Collections
// ---------------------------------------------------------------------------

/// An open multi-document collection.
#[derive(Clone)]
pub struct Coll(Arc<Collection>);

impl Coll {
    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.0.num_docs()
    }

    /// Every document's name and index, in document order (loads the
    /// segments that are not loaded yet).
    pub fn docs(&self) -> Result<Vec<(String, Arc<Index>)>, String> {
        (0..self.0.num_docs())
            .map(|doc| {
                let index = self.0.segment(doc).map_err(text)?;
                Ok((self.0.doc_name(doc).to_string(), index))
            })
            .collect()
    }
}

/// `collection.build`: writes one segment per document plus the manifest.
pub fn collection_build(
    manifest: &Path,
    docs: Vec<(String, Index)>,
    t: &mut Tracer,
    req: u32,
) -> Result<Coll, String> {
    t.span("collection.build", req, |_| {
        Collection::build(manifest, docs).map_err(text)
    })
    .map(|c| Coll(Arc::new(c)))
}

/// Opens a collection by its manifest (segments load lazily).
pub fn collection_open(manifest: &Path) -> Result<Coll, String> {
    Collection::open(manifest)
        .map(|c| Coll(Arc::new(c)))
        .map_err(text)
}

// ---------------------------------------------------------------------------
// The daemon
// ---------------------------------------------------------------------------

/// What the daemon serves under one id.
#[derive(Clone)]
pub enum Target {
    /// One warm index.
    Single(Arc<Index>),
    /// A collection answering as one logical index.
    Collection(Coll),
}

/// The four output shapes of the `query` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Output {
    /// `<query>: <count>`
    Count,
    /// `<query>: <true|false>`
    Exists,
    /// `<query>: <n> nodes [...]`
    Nodes,
    /// The serialized subtrees.
    Serialize,
}

impl Output {
    /// Every shape.
    pub const ALL: [Output; 4] = [
        Output::Count,
        Output::Exists,
        Output::Nodes,
        Output::Serialize,
    ];

    /// The wire token.
    pub fn name(self) -> &'static str {
        match self {
            Output::Count => "count",
            Output::Exists => "exists",
            Output::Nodes => "nodes",
            Output::Serialize => "serialize",
        }
    }
}

/// A `query` request payload (protocol v1, `docs/protocol.md`).
pub fn query_payload(
    target: &str,
    output: Output,
    limit: Option<u64>,
    offset: u64,
    xpath: &str,
) -> Vec<u8> {
    let limit = limit.map_or("none".to_string(), |l| l.to_string());
    format!(
        "query index={target} output={} limit={limit} offset={offset}\n{}",
        output.name(),
        escape_query(xpath)
    )
    .into_bytes()
}

/// A `search` request payload.
pub fn search_payload(target: &str, search: &Search, limit: u64) -> Vec<u8> {
    let mut payload = format!(
        "search index={target} mode={} limit={limit}",
        search.kind.name()
    );
    for term in &search.terms {
        payload.push('\n');
        payload.push_str(&escape_query(term));
    }
    payload.into_bytes()
}

/// A decoded response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// `false` for an error frame or a transport failure.
    pub ok: bool,
    /// Whether the response's detail reports a cache hit.
    pub hit: bool,
    /// The body (the error text when `ok` is false).
    pub body: String,
}

impl Reply {
    fn of(response: Result<Response, String>) -> Reply {
        match response {
            Ok(Response::Ok { detail, body }) => Reply {
                ok: true,
                hit: detail.contains("cache_hits=1"),
                body,
            },
            Ok(Response::Err { code, message }) => Reply {
                ok: false,
                hit: false,
                body: format!("{code}: {message}"),
            },
            Err(e) => Reply {
                ok: false,
                hit: false,
                body: e,
            },
        }
    }
}

/// An in-process daemon on a Unix socket.
pub struct Daemon {
    server: Server,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    socket: PathBuf,
}

impl Daemon {
    /// Starts a daemon (`threads: 1`, default 128-entry caches) serving
    /// `targets` on `socket`.
    pub fn start(targets: Vec<(String, Target)>, socket: &Path) -> Result<Daemon, String> {
        let served = targets
            .into_iter()
            .map(|(id, target)| {
                let served = match target {
                    Target::Single(index) => ServedIndex::Single(index),
                    Target::Collection(coll) => ServedIndex::Collection(coll.0),
                };
                (id, served)
            })
            .collect();
        let server = Server::new_served(
            served,
            ServeOptions {
                threads: 1,
                ..ServeOptions::default()
            },
        )?;
        let listener = Listener::bind_unix(socket).map_err(text)?;
        let serving = server.clone();
        let thread = std::thread::spawn(move || serving.serve(listener));
        Ok(Daemon {
            server,
            thread: Some(thread),
            socket: socket.to_path_buf(),
        })
    }

    /// A new client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Client::connect_unix(&self.socket).map(Conn).map_err(text)
    }

    /// `engine.server.handle_command`: one request without a socket.
    pub fn handle(&self, payload: &[u8], t: &mut Tracer, req: u32) -> Reply {
        let (frame, _) = t.span("engine.server.handle_command", req, |_| {
            self.server.handle_command(payload)
        });
        Reply::of(Response::parse(&frame).ok_or_else(|| "unparsable response".to_string()))
    }

    /// Value of `key=` in the `stats` body.
    pub fn stat(&self, key: &str) -> Option<f64> {
        self.server
            .render_stats()
            .lines()
            .find_map(|l| {
                l.strip_prefix(key)
                    .and_then(|r| r.strip_prefix('='))
                    .map(str::to_string)
            })
            .and_then(|v| v.parse().ok())
    }

    /// Graceful shutdown: the accept loop and every connection handler are
    /// joined before this returns.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        self.server.shutdown();
        let result = match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| "serve thread panicked".to_string())?
                .map_err(text),
            None => Ok(()),
        };
        let _ = std::fs::remove_file(&self.socket);
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // An error path dropped the daemon without `stop`: still join the
        // serve thread, so no thread outlives the run.
        let _ = self.shutdown();
    }
}

/// One client connection, past the handshake.
pub struct Conn(Client);

impl Conn {
    /// `engine.server.rtt`: one closed-loop round trip.
    #[inline]
    pub fn request(&mut self, payload: &[u8], t: &mut Tracer, req: u32) -> Reply {
        Reply::of(t.span("engine.server.rtt", req, |_| {
            self.0.request(payload).map_err(text)
        }))
    }

    /// A `ping` round trip: framing and socket, no work.
    pub fn ping(&mut self) -> bool {
        self.0.ping().is_ok()
    }
}

// ---------------------------------------------------------------------------
// Layer primitives (traced run): thin call-site wrappers, one per row
// ---------------------------------------------------------------------------

/// One-call wrappers around the `XmlTree`, `TextCollection` and `FmIndex`
/// navigation methods, for the ns/op rows.  Each returns a `usize` the
/// timing loop folds into a checksum so the call cannot be optimised away.
pub mod prim {
    use super::{Index, Node, Tag};

    /// Number of tree nodes.
    pub fn num_nodes(i: &Index) -> usize {
        i.tree().num_nodes()
    }
    /// Number of texts.
    pub fn num_texts(i: &Index) -> usize {
        i.tree().num_texts()
    }
    /// Rows of the BWT.
    pub fn bwt_len(i: &Index) -> usize {
        i.texts().fm_index().len()
    }
    /// The root node.
    pub fn root(i: &Index) -> Node {
        i.tree().root()
    }

    /// `succinct.bp_rank`: `XmlTree::preorder`.
    #[inline]
    pub fn preorder(i: &Index, x: Node) -> usize {
        i.tree().preorder(x)
    }
    /// `succinct.bp_select`: `XmlTree::node_at_preorder`.
    #[inline]
    pub fn node_at_preorder(i: &Index, p: usize) -> Node {
        i.tree().node_at_preorder(p).unwrap_or(0)
    }
    /// `succinct.leaf_rank`: `XmlTree::leaf_number`.
    #[inline]
    pub fn leaf_number(i: &Index, x: Node) -> usize {
        i.tree().leaf_number(x)
    }
    /// `succinct.leaf_select`: `XmlTree::node_of_text`.
    #[inline]
    pub fn node_of_text(i: &Index, d: usize) -> Node {
        i.tree().node_of_text(d).unwrap_or(0)
    }
    /// `succinct.tag_access`: `XmlTree::tag`.
    #[inline]
    pub fn tag(i: &Index, x: Node) -> Tag {
        i.tree().tag(x)
    }
    /// `succinct.tag_rank`: `XmlTree::subtree_tags`.
    #[inline]
    pub fn subtree_tags(i: &Index, x: Node, tag: Tag) -> usize {
        i.tree().subtree_tags(x, tag)
    }
    /// `succinct.tag_succ`: `XmlTree::tagged_next`.
    #[inline]
    pub fn tagged_next(i: &Index, tag: Tag, from: usize) -> usize {
        i.tree().tagged_next(tag, from).unwrap_or(0)
    }
    /// `succinct.bwt_rank`: `FmIndex::occ`.
    #[inline]
    pub fn occ(i: &Index, symbol: u8, row: usize) -> usize {
        i.texts().fm_index().occ(symbol, row)
    }
    /// `succinct.bwt_access`: `FmIndex::bwt_symbol`.
    #[inline]
    pub fn bwt_symbol(i: &Index, row: usize) -> u8 {
        i.texts().fm_index().bwt_symbol(row)
    }

    /// `tree.close`
    #[inline]
    pub fn close(i: &Index, x: Node) -> usize {
        i.tree().close(x)
    }
    /// `tree.parent`
    #[inline]
    pub fn parent(i: &Index, x: Node) -> usize {
        i.tree().parent(x).unwrap_or(0)
    }
    /// `tree.first_child`
    #[inline]
    pub fn first_child(i: &Index, x: Node) -> Option<Node> {
        i.tree().first_child(x)
    }
    /// `tree.next_sibling`
    #[inline]
    pub fn next_sibling(i: &Index, x: Node) -> Option<Node> {
        i.tree().next_sibling(x)
    }
    /// `tree.subtree_size`
    #[inline]
    pub fn subtree_size(i: &Index, x: Node) -> usize {
        i.tree().subtree_size(x)
    }
    /// `tree.tagged_desc`
    #[inline]
    pub fn tagged_desc(i: &Index, x: Node, tag: Tag) -> usize {
        i.tree().tagged_desc(x, tag).unwrap_or(0)
    }
    /// `tree.tagged_foll`
    #[inline]
    pub fn tagged_foll(i: &Index, x: Node, tag: Tag) -> usize {
        i.tree().tagged_foll(x, tag).unwrap_or(0)
    }
    /// `tree.tagged_prec`
    #[inline]
    pub fn tagged_prec(i: &Index, x: Node, tag: Tag) -> usize {
        i.tree().tagged_prec(x, tag).unwrap_or(0)
    }
    /// `tree.text_ids`
    #[inline]
    pub fn text_ids(i: &Index, x: Node) -> usize {
        i.tree().text_ids(x).len()
    }
    /// `tree.lca`
    #[inline]
    pub fn lca(i: &Index, x: Node, y: Node) -> usize {
        i.tree().lca(x, y)
    }

    /// `text.backward_step` / `text.count`: `FmIndex::count` (one backward
    /// step per pattern byte).
    #[inline]
    pub fn fm_count(i: &Index, pattern: &[u8]) -> usize {
        i.texts().fm_index().count(pattern)
    }
    /// `text.locate`: `TextCollection::locate_row`.
    #[inline]
    pub fn locate_row(i: &Index, row: usize) -> usize {
        i.texts().locate_row(row).1
    }
    /// `text.extract`: `TextCollection::get_text`.
    #[inline]
    pub fn get_text(i: &Index, d: usize) -> Vec<u8> {
        i.texts().get_text(d)
    }
    /// `text.contains_*`: `TextCollection::contains`.
    pub fn contains(i: &Index, pattern: &[u8]) -> usize {
        i.texts().contains(pattern).len()
    }
    /// `text.scan`: `PlainTexts::scan_contains`; `(hits, bytes scanned)`.
    pub fn scan_contains(i: &Index, pattern: &[u8]) -> Option<(usize, usize)> {
        i.texts()
            .plain()
            .map(|p| (p.scan_contains(pattern).len(), p.total_bytes()))
    }
    /// `text.starts_with`
    pub fn starts_with(i: &Index, pattern: &[u8]) -> usize {
        i.texts().starts_with(pattern).len()
    }
    /// `text.equals`
    pub fn equals(i: &Index, pattern: &[u8]) -> usize {
        i.texts().equals(pattern).len()
    }
}

// ---------------------------------------------------------------------------
// Today's engine lanes (traced run only)
// ---------------------------------------------------------------------------

/// The engine's current lane functions — `BatchExecutor`,
/// `CollectionExecutor`, `search_collection`, `render_batch_result` — which
/// the ROADMAP plans to merge.  Only the `engine.*` per-layer rows use
/// them; a PR that merges the lanes updates this module and nothing else.
pub mod lanes {
    use sxsi::QueryOptions;
    use sxsi_engine::collection::CollectionExecutor;
    use sxsi_engine::search::search_collection;
    use sxsi_engine::server::{render_batch_result, OutputKind};
    use sxsi_engine::{BatchExecutor, BatchResult, QueryBatch, QuerySpec};

    use super::{text, Coll, Index, Search};
    use crate::trace::Tracer;

    /// A compiled batch of counting queries.
    pub struct Batch(QueryBatch);

    /// `QueryBatch::compile` over counting specs.
    pub fn batch_compile(index: &Index, xpaths: &[&str]) -> Result<Batch, String> {
        let specs = xpaths.iter().map(|x| QuerySpec::count(*x, *x)).collect();
        QueryBatch::compile(index, specs).map(Batch).map_err(text)
    }

    /// `BatchExecutor::run` with `threads` workers; returns the summed counts.
    pub fn batch_run(index: &Index, batch: &Batch, threads: usize) -> u64 {
        BatchExecutor::new(threads)
            .run(index, &batch.0)
            .iter()
            .map(|r| r.result.count())
            .sum()
    }

    /// One materialized result to render.
    pub struct Rendered(BatchResult);

    /// Runs `xpath` in `Nodes` mode through the batch lane.
    pub fn batch_nodes(index: &Index, xpath: &str) -> Result<Rendered, String> {
        let batch =
            QueryBatch::compile(index, vec![QuerySpec::nodes(xpath, xpath)]).map_err(text)?;
        BatchExecutor::new(1)
            .run(index, &batch)
            .into_iter()
            .next()
            .map(Rendered)
            .ok_or_else(|| "empty batch result".to_string())
    }

    /// `engine.render`: `render_batch_result` in the `nodes` shape.
    pub fn render(index: &Index, result: &Rendered, t: &mut Tracer, req: u32) -> usize {
        t.span("engine.render", req, |_| {
            let mut out = String::new();
            render_batch_result(index, &result.0, OutputKind::Nodes, &mut out);
            out.len()
        })
    }

    /// `CollectionExecutor::run` (count) with `threads` shard workers.
    pub fn collection_count(coll: &Coll, xpath: &str, threads: usize) -> Result<u64, String> {
        CollectionExecutor::new(threads)
            .run(&coll.0, xpath, &QueryOptions::count())
            .map(|r| r.count())
            .map_err(text)
    }

    /// `CollectionExecutor::run_sequential` (count).
    pub fn collection_count_sequential(coll: &Coll, xpath: &str) -> Result<u64, String> {
        CollectionExecutor::run_sequential(&coll.0, xpath, &QueryOptions::count())
            .map(|r| r.count())
            .map_err(text)
    }

    /// `search_collection`, top ten; returns the total number of hits.
    pub fn collection_search(
        coll: &Coll,
        search: &Search,
        threads: usize,
    ) -> Result<usize, String> {
        search_collection(
            &BatchExecutor::new(threads),
            &coll.0,
            &search.query(),
            Some(10),
        )
        .map(|o| o.total)
        .map_err(text)
    }
}
