//! One request from argv or frame to body.  A [`Request`] is a query
//! batch or a keyword search, and three pieces serve the in-process
//! commands, the client and the daemon alike, so they cannot drift apart:
//! [`parse_args`] (argv → `Request`), [`Request::encode`] /
//! [`Request::decode`] (`Request` ↔ payload, `docs/protocol.md`) and
//! [`answer`] (`Request` → `ok` detail and body; the daemon adds its
//! caches and metrics as a [`Memo`]).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sxsi::{FtMode, FtQuery, QueryError, QueryMode, QueryOptions, SxsiIndex};

use crate::collection::{CollectionQueryError, CollectionResult, DocRun};
use crate::search::{query_display, render_search_outcome, search_target};
use crate::server::protocol::{escape_query, unescape_query, ErrorCode};
use crate::{prepare_plans, BatchExecutor, BatchResult, Plans, QueryBatch, QuerySpec, Target};

/// An error answered as an `error code=…` frame, printed by the CLI as an
/// `error=…` line.
pub type CommandError = (ErrorCode, String);

/// How a query's answer is rendered in the response body — exactly the
/// four output shapes of the CLI (`query`, `query --materialize`,
/// `query --serialize`, `exists`), so daemon responses are byte-
/// identical to in-process CLI output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OutputKind {
    /// `<query>: <count>` per query (the CLI's default).
    Count,
    /// `<query>: <n> nodes [<preorders>]` per query (`--materialize`).
    Nodes,
    /// `<query>:` then one line per serialized subtree (`--serialize`).
    Serialize,
    /// `<query>: <true|false>` per query (the `exists` subcommand).
    Exists,
}

impl OutputKind {
    /// The wire token (`output=<token>` in the `query` command).
    pub fn as_str(self) -> &'static str {
        match self {
            OutputKind::Count => "count",
            OutputKind::Nodes => "nodes",
            OutputKind::Serialize => "serialize",
            OutputKind::Exists => "exists",
        }
    }

    /// Parses a wire token.
    pub fn parse(token: &str) -> Option<Self> {
        Some(match token {
            "count" => OutputKind::Count,
            "nodes" => OutputKind::Nodes,
            "serialize" => OutputKind::Serialize,
            "exists" => OutputKind::Exists,
            _ => return None,
        })
    }

    /// The [`QueryMode`] this output needs from the evaluator.
    pub fn query_mode(self) -> QueryMode {
        match self {
            OutputKind::Count => QueryMode::Count,
            OutputKind::Nodes | OutputKind::Serialize => QueryMode::Nodes,
            OutputKind::Exists => QueryMode::Exists,
        }
    }
}

/// One request, addressed to an index.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// A served index id (`index=`, `--index`; `None` addresses a daemon's
    /// only index), or the path `sxsi query|exists|search` open.
    pub index: Option<String>,
    /// What is asked.
    pub op: Op,
}

/// What a [`Request`] asks.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// XPath queries sharing one set of options and one output shape.
    Query {
        /// `(id, expression)` per query; a query renders under its id, or
        /// under its expression when it has none.  Only `sxsi query
        /// --queries-file` names queries, so ids do not travel.
        queries: Vec<(Option<String>, String)>,
        /// The options every query runs with.
        options: QueryOptions,
        /// How every answer renders.
        output: OutputKind,
    },
    /// A ranked keyword search.
    Search {
        /// The mode and tokens; never empty.
        query: FtQuery,
        /// Print at most this many best-scoring hits.
        limit: Option<usize>,
    },
}

impl Request {
    /// The request payload: the command line with its `key=value`
    /// arguments, then one escaped operand per line.
    pub fn encode(&self) -> String {
        let window = |limit: Option<String>| limit.unwrap_or_else(|| "none".into());
        let (mut payload, operands): (String, Vec<String>) = match &self.op {
            Op::Query { queries, options, output } => (
                format!(
                    "query output={} limit={} offset={}",
                    output.as_str(),
                    window(options.limit.map(|l| l.to_string())),
                    options.offset
                ),
                queries.iter().map(|(_, xpath)| xpath.clone()).collect(),
            ),
            Op::Search { query, limit } => (
                format!(
                    "search mode={} limit={}",
                    query.mode.as_str(),
                    window(limit.map(|l| l.to_string()))
                ),
                query.tokens.iter().map(|t| String::from_utf8_lossy(t).into_owned()).collect(),
            ),
        };
        if let Some(index) = &self.index {
            let _ = write!(payload, " index={index}");
        }
        for operand in operands {
            payload.push('\n');
            payload.push_str(&escape_query(&operand));
        }
        payload
    }

    /// Decodes a `query` or `search` payload, the inverse of
    /// [`Request::encode`]: every line after the command line is one
    /// operand, so an empty line is an empty operand.
    pub fn decode(payload: &str) -> Result<Request, CommandError> {
        let bad = |message: String| (ErrorCode::BadArgument, message);
        let mut lines = payload.split('\n');
        let mut args = lines.next().unwrap_or_default().split_whitespace();
        let mut draft = Draft::new(args.next().unwrap_or_default());
        for arg in args {
            match arg.split_once('=') {
                Some(("limit", "none")) => draft.limit = None,
                Some((key, value)) => draft.set(key, value).map_err(bad)?,
                None => return Err(bad(format!("malformed argument '{arg}' (expected key=value)"))),
            }
        }
        let noun = if draft.command == "search" { "term" } else { "expression" };
        let operands = lines
            .map(|line| {
                let operand = unescape_query(line)
                    .ok_or_else(|| bad(format!("malformed {noun} encoding '{line}'")))?;
                Ok((None, operand))
            })
            .collect::<Result<Vec<_>, CommandError>>()?;
        if operands.is_empty() {
            return Err(bad(format!("{} needs at least one {noun}", draft.command)));
        }
        draft.finish(operands).map_err(bad)
    }
}

/// The settings a [`Request`] is built from — by [`parse_args`] from
/// flags, by [`Request::decode`] from `key=value` arguments — each checked
/// here, once.
struct Draft<'a> {
    command: &'a str,
    index: Option<String>,
    output: OutputKind,
    mode: FtMode,
    limit: Option<u64>,
    offset: u64,
}

impl<'a> Draft<'a> {
    fn new(command: &'a str) -> Self {
        let output = if command == "exists" { OutputKind::Exists } else { OutputKind::Count };
        Draft { command, index: None, output, mode: FtMode::All, limit: None, offset: 0 }
    }

    /// Applies one setting; the error is the wire message.
    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let (search, bad) = (self.command == "search", || format!("bad {key} '{value}'"));
        match key {
            "index" => self.index = Some(value.to_string()),
            "limit" => self.limit = Some(value.parse().map_err(|_| bad())?),
            "offset" if !search => self.offset = value.parse().map_err(|_| bad())?,
            "output" if !search => {
                let unknown = || format!("unknown output kind '{value}'");
                self.output = OutputKind::parse(value).ok_or_else(unknown)?;
            }
            "mode" if search => {
                let unknown =
                    || format!("unknown search mode '{value}' (expected all, any or phrase)");
                self.mode = FtMode::parse(value).ok_or_else(unknown)?;
            }
            _ => return Err(format!("unknown {} argument '{key}'", self.command)),
        }
        Ok(())
    }

    /// The request over `operands`: a search fails when its terms hold no
    /// token; queries keep statistics on, for the daemon's visited-node
    /// histogram.
    fn finish(self, operands: Vec<(Option<String>, String)>) -> Result<Request, String> {
        let op = if self.command == "search" {
            let terms: Vec<&str> = operands.iter().map(|(_, term)| term.as_str()).collect();
            let query = FtQuery::new(self.mode, &terms);
            if query.tokens.is_empty() {
                return Err("search terms hold no indexable tokens".into());
            }
            let limit = self.limit.map(|l| usize::try_from(l).unwrap_or(usize::MAX));
            Op::Search { query, limit }
        } else {
            let (mode, limit, offset) = (self.output.query_mode(), self.limit, self.offset);
            let options = QueryOptions { mode, limit, offset, collect_stats: true };
            Op::Query { queries: operands, options, output: self.output }
        };
        Ok(Request { index: self.index, op })
    }
}

/// Why a command line makes no request.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// Bad flags or operands: `sxsi` prints its usage and exits 2.
    Usage(String),
    /// A well-formed command that cannot run: `sxsi` exits 1.
    Failed(String),
}

/// Parses the arguments of `sxsi <op>` (`local`: the first operand is the
/// index path, and `--threads` and `query --queries-file` are taken) or
/// of `sxsi client <op>` (which takes `--index`), for the ops `query`,
/// `exists` and `search`, into the request and the `--threads` count.
/// `exists` takes no window or output flag, `search` no offset.
pub fn parse_args(op: &str, args: &[String], local: bool) -> Result<(Request, usize), ArgError> {
    let mut draft = Draft::new(op);
    let (mut threads, mut queries_file, mut operands) = (1, None, Vec::new());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        let (key, expects) = match flag {
            // `--serialize` wins over `--materialize` in either order.
            "--materialize" | "--serialize" if op == "query" => {
                if flag == "--serialize" {
                    draft.output = OutputKind::Serialize;
                } else if draft.output == OutputKind::Count {
                    draft.output = OutputKind::Nodes;
                }
                continue;
            }
            "--index" if !local => ("index", "an index id"),
            "--limit" if op != "exists" => ("limit", "a non-negative integer"),
            "--offset" if op == "query" => ("offset", "a non-negative integer"),
            "--mode" if op == "search" => ("mode", "all, any or phrase"),
            "--threads" if local => ("threads", "a positive integer"),
            "--queries-file" if local && op == "query" => ("queries-file", "a path"),
            _ if flag.starts_with("--") => {
                return Err(ArgError::Usage(format!("unknown option '{flag}'")))
            }
            _ => {
                operands.push((None, arg.clone()));
                continue;
            }
        };
        let expected = || ArgError::Usage(format!("{flag} expects {expects}"));
        let value = it.next().ok_or_else(expected)?;
        match key {
            "threads" => threads = value.parse().ok().filter(|&n| n > 0).ok_or_else(expected)?,
            "queries-file" => queries_file = Some(value),
            _ => draft.set(key, value).map_err(|_| expected())?,
        }
    }
    let noun = if op == "search" { "term" } else { "XPath expression" };
    if local {
        if operands.is_empty() {
            let message = format!("{op} expects <index.sxsi> and at least one {noun}");
            return Err(ArgError::Usage(message));
        }
        draft.index = Some(operands.remove(0).1);
    }
    if let Some(file) = queries_file {
        operands.extend(read_queries_file(file)?);
    }
    if operands.is_empty() {
        return Err(ArgError::Usage(format!("{op} expects at least one {noun}")));
    }
    Ok((draft.finish(operands).map_err(ArgError::Failed)?, threads))
}

/// Reads a batch file for `--queries-file`: one query per line, either
/// `id<TAB>xpath` or a bare xpath (its own id), skipping blank lines and
/// `#` comments.  A file holding no query is an error of its own.
fn read_queries_file(file: &str) -> Result<Vec<(Option<String>, String)>, ArgError> {
    let text = std::fs::read_to_string(file).map_err(|e| {
        ArgError::Failed(format!("error code=batch-file-open file='{file}' detail='{e}'"))
    })?;
    let queries: Vec<(Option<String>, String)> = text
        .lines()
        // trim (not trim_end): an indented `# comment` or a line of only
        // spaces must be skipped, not submitted as a query.
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| match line.split_once('\t') {
            Some((id, xpath)) => (Some(id.to_string()), xpath.to_string()),
            None => (None, line.to_string()),
        })
        .collect();
    if queries.is_empty() {
        return Err(ArgError::Failed(format!(
            "error code=empty-batch file='{file}' \
             detail='no queries after blank lines and # comments'"
        )));
    }
    Ok(queries)
}

/// What a kept body is keyed on, besides the target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BodyKey {
    /// One query's expression, options and output shape.
    Query(String, QueryOptions, OutputKind),
    /// A search's display form and limit.
    Search(String),
}

/// What [`answer`] keeps across requests: the daemon's plan, result and
/// search caches, which also feed its metrics.  `()` keeps nothing, for
/// the in-process commands.
pub trait Memo {
    /// The body kept under `key`.
    fn body(&self, _key: BodyKey) -> Option<Arc<str>> {
        None
    }

    /// The statements of `xpath`, kept or from `prepare`.
    fn plans(
        &self,
        _xpath: &str,
        prepare: impl FnOnce() -> Result<Plans, CollectionQueryError>,
    ) -> Result<Plans, CollectionQueryError> {
        prepare()
    }

    /// Keeps a body just rendered from a run of `elapsed` that visited
    /// `visited` nodes.
    fn keep(&self, _key: BodyKey, _body: &Arc<str>, _elapsed: Duration, _visited: Option<u64>) {}
}

impl Memo for () {}

/// Answers `request` on `target` with the `ok` detail and the body:
/// `queries=<n> cache_hits=<h>[ all_found=<bool>]` for queries, whose
/// duplicates run once but render once per occurrence, and `terms=<n>
/// cache_hits=<0|1>` for a search, whose hits on an unlabelled
/// (single-index) target carry `label`.  The queries `memo` has no body
/// for all prepare before any runs, so one that does not prepare fails
/// the request.
pub fn answer<T: Target + ?Sized>(
    executor: &BatchExecutor,
    target: &T,
    label: &str,
    request: &Request,
    memo: &impl Memo,
) -> Result<(String, String), CommandError> {
    let (queries, options, output) = match &request.op {
        Op::Query { queries, options, output } => (queries, *options, *output),
        Op::Search { query, limit } => {
            let id = query_display(query);
            // The display form pins mode and tokens, the limit the window.
            let key = BodyKey::Search(format!("{id} limit={limit:?}"));
            let detail = |hits: u8| format!("terms={} cache_hits={hits}", query.tokens.len());
            if let Some(body) = memo.body(key.clone()) {
                return Ok((detail(1), body.to_string()));
            }
            let start = Instant::now();
            let outcome =
                search_target(executor, target, label, query, *limit).map_err(segment_error)?;
            let elapsed = start.elapsed();
            let mut body = String::new();
            render_search_outcome(&id, &outcome, &mut body);
            memo.keep(key, &Arc::from(body.as_str()), elapsed, None);
            return Ok((detail(0), body));
        }
    };
    let mut bodies: HashMap<&(Option<String>, String), Arc<str>> = HashMap::new();
    let mut misses: Vec<&(Option<String>, String)> = Vec::new();
    for query in queries {
        if bodies.contains_key(query) || misses.contains(&query) {
            continue;
        }
        match memo.body(BodyKey::Query(query.1.clone(), options, output)) {
            Some(body) => {
                bodies.insert(query, body);
            }
            None => misses.push(query),
        }
    }
    let cache_hits = bodies.len();
    if !misses.is_empty() {
        let specs = misses
            .iter()
            .map(|(id, xpath)| QuerySpec::new(id.as_deref().unwrap_or(xpath), xpath, options))
            .collect();
        let prepare = |xpath: &str| memo.plans(xpath, || prepare_plans(target, xpath));
        let batch = QueryBatch::prepare_with(specs, prepare).map_err(prepare_error)?;
        let results = executor.answer(target, &batch).map_err(segment_error)?;
        for ((&query, spec), result) in misses.iter().zip(batch.specs()).zip(&results) {
            let mut rendered = String::new();
            render_result(target, &spec.id, result, output, &mut rendered);
            let body: Arc<str> = Arc::from(rendered);
            let visited = result.stats().map(|s| s.visited_nodes);
            let key = BodyKey::Query(query.1.clone(), options, output);
            memo.keep(key, &body, result.elapsed(), visited);
            bodies.insert(query, body);
        }
    }
    let mut body = String::new();
    let mut all_found = true;
    for query in queries {
        let rendered = bodies.get(query).ok_or_else(|| {
            let message = format!("no rendered body for query '{}'", escape_query(&query.1));
            (ErrorCode::Internal, message)
        })?;
        all_found &= !rendered.trim_end().ends_with("false");
        body.push_str(rendered);
    }
    let mut detail = format!("queries={} cache_hits={cache_hits}", queries.len());
    if output == OutputKind::Exists {
        let _ = write!(detail, " all_found={all_found}");
    }
    Ok((detail, body))
}

/// Maps a batch's prepare failure onto the structured error taxonomy:
/// compile errors are `unsupported-query` (exit 3), parse errors
/// `parse-error`, segment loads `internal`.
fn prepare_error(e: crate::BatchError) -> CommandError {
    let query = escape_query(&e.id);
    match e.error.query_error() {
        Some(QueryError::Compile(detail)) => {
            (ErrorCode::UnsupportedQuery, format!("query='{query}' detail='{detail}'"))
        }
        Some(error) => (ErrorCode::ParseError, format!("query='{query}' detail='{error}'")),
        None => segment_error(e.error),
    }
}

/// A collection segment that failed to load mid-request.
fn segment_error(e: impl std::fmt::Display) -> CommandError {
    (ErrorCode::Internal, format!("collection segment failure: {e}"))
}

/// Renders one query's answer the way the `sxsi` CLI prints it — the
/// single formatting implementation behind [`answer`], for every target.
/// Nodes print as `label:preorder` on a labelled target (a collection:
/// the document's name) and as a bare `preorder` on a single index.
pub fn render_result<T: Target + ?Sized>(
    target: &T,
    id: &str,
    result: &CollectionResult,
    output: OutputKind,
    out: &mut String,
) {
    let more = if result.truncated() { " (more results exist)" } else { "" };
    match output {
        OutputKind::Exists => {
            let _ = writeln!(out, "{id}: {}", result.exists());
        }
        OutputKind::Count => {
            let _ = writeln!(out, "{id}: {}{more}", result.count());
        }
        OutputKind::Nodes => {
            let rendered: Vec<String> = result
                .nodes()
                .iter()
                .map(|dn| {
                    // The nodes were just produced from their segment, so
                    // it is loaded; the raw NodeId is a display fallback.
                    let preorder = target
                        .doc_index(dn.doc)
                        .map_or(dn.node, |index| index.tree().preorder(dn.node));
                    match target.doc_label(dn.doc) {
                        Some(label) => format!("{label}:{preorder}"),
                        None => preorder.to_string(),
                    }
                })
                .collect();
            let _ = writeln!(
                out,
                "{id}: {} nodes [{}]{more}",
                result.nodes().len(),
                rendered.join(", ")
            );
        }
        OutputKind::Serialize => {
            let _ = writeln!(out, "{id}:{more}");
            for dn in result.nodes() {
                match target.doc_index(dn.doc) {
                    Ok(index) => {
                        let _ = writeln!(out, "{}", index.get_subtree(dn.node));
                    }
                    Err(e) => {
                        let _ = writeln!(out, "<!-- doc {}: {e} -->", dn.doc);
                    }
                }
            }
        }
    }
}

/// [`render_result`] for one [`BatchExecutor::run`] result on `index`.
pub fn render_batch_result(
    index: &SxsiIndex,
    result: &BatchResult,
    output: OutputKind,
    out: &mut String,
) {
    let run = DocRun { doc: 0, result: result.result.clone(), elapsed: result.elapsed };
    render_result(index, &result.id, &CollectionResult::from_run(run), output, out);
}
