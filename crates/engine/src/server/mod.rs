//! The `sxsi serve` daemon: a long-lived process that loads `.sxsi`
//! indexes once, keeps them warm behind `Arc`, and answers XPath
//! queries over a length-prefixed framed protocol on a TCP or Unix
//! socket — so callers stop paying process startup plus a full index
//! load per query (the paper's headline latency is index-resident).
//!
//! Architecture (one connection = one thread; all shared state is the
//! immutable indexes plus three synchronized sinks):
//!
//! ```text
//!  clients ──frames──▶ accept loop ──▶ handler thread per connection
//!                                        │  hello → command loop
//!                                        ▼
//!                 ┌── plan cache (LRU: query string → Arc<Prepared>)
//!                 ├── result cache (LRU: (index, query, options, output)
//!                 │                       → rendered body)
//!                 ├── BatchExecutor fan-out for the cache misses
//!                 └── metrics sink (latency/visited histograms, counters)
//! ```
//!
//! Robustness is part of the contract: per-connection read timeouts,
//! structured `error code=…` frames for every failure (reusing the
//! CLI's exit-3 `unsupported-query` taxonomy), rejection of oversized
//! or truncated frames, and graceful shutdown with connection draining
//! (in-flight requests complete; idle connections are told
//! `shutting-down`).  See `docs/protocol.md` for the wire format and
//! `tests/integration_server.rs` for the equivalence and hostile-input
//! suites.

pub mod cache;
pub mod client;
pub mod metrics;
pub mod protocol;

use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sxsi::{Prepared, QueryError, QueryMode, QueryOptions, SxsiIndex};
use sxsi_collection::Collection;

use crate::collection::{render_collection_result, CollectionExecutor, CollectionQueryError};
use crate::search::{query_display, render_search_outcome, search_collection, search_index};
use crate::{BatchExecutor, BatchResult, QueryBatch, QuerySpec};
use sxsi::{FtMode, FtQuery};
use cache::LruCache;
use metrics::Metrics;
use protocol::{
    escape_query, read_frame, unescape_query, write_frame, ErrorCode, FrameError, Response,
    MAX_REQUEST_FRAME, PROTOCOL_VERSION,
};

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

/// Renders one batch result the way the `sxsi` CLI prints it — the
/// single formatting implementation shared by `sxsi query`/`sxsi
/// exists` and the daemon, so the two can never diverge byte-wise.
pub fn render_batch_result(
    index: &SxsiIndex,
    result: &BatchResult,
    output: OutputKind,
    out: &mut String,
) {
    let more = if result.result.truncated() { " (more results exist)" } else { "" };
    match output {
        OutputKind::Exists => {
            let _ = writeln!(out, "{}: {}", result.id, result.result.exists());
        }
        OutputKind::Count => {
            let _ = writeln!(out, "{}: {}{more}", result.id, result.result.count());
        }
        OutputKind::Nodes => {
            let nodes = result.result.nodes().unwrap_or(&[]);
            let preorders: Vec<String> =
                nodes.iter().map(|&n| index.tree().preorder(n).to_string()).collect();
            let _ = writeln!(
                out,
                "{}: {} nodes [{}]{more}",
                result.id,
                nodes.len(),
                preorders.join(", ")
            );
        }
        OutputKind::Serialize => {
            let _ = writeln!(out, "{}:{more}", result.id);
            for &node in result.result.nodes().unwrap_or(&[]) {
                let _ = writeln!(out, "{}", index.get_subtree(node));
            }
        }
    }
}

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads for each request's [`BatchExecutor`] fan-out;
    /// `0` means the machine's available parallelism.
    pub threads: usize,
    /// Capacity of the compiled-plan LRU (query string → `Prepared`).
    pub plan_cache_capacity: usize,
    /// Capacity of the result LRU (`(index, query, options, output)` →
    /// rendered body).
    pub result_cache_capacity: usize,
    /// How long a connection may idle between frames before the server
    /// sends a `timeout` error frame and closes it.
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            // The fxi daemon's 128-entry default has proven a good
            // size/hit-rate balance for interactive query workloads.
            plan_cache_capacity: 128,
            result_cache_capacity: 128,
            read_timeout: Duration::from_secs(30),
        }
    }
}

/// How often blocked reads and the accept loop wake up to check the
/// shutdown flag and the idle deadline.
const POLL_TICK: Duration = Duration::from_millis(50);

/// A socket the server accepts connections on.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener (e.g. `127.0.0.1:7878`).
    Tcp(TcpListener),
    /// A Unix-domain socket listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Binds a TCP listener.
    pub fn bind_tcp(addr: &str) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-domain socket listener, replacing a stale socket
    /// file (one nothing is listening on) if present.
    #[cfg(unix)]
    pub fn bind_unix(path: &std::path::Path) -> io::Result<Listener> {
        match UnixListener::bind(path) {
            Ok(l) => Ok(Listener::Unix(l)),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                if UnixStream::connect(path).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("{} is already being served", path.display()),
                    ));
                }
                std::fs::remove_file(path)?;
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            Err(e) => Err(e),
        }
    }

    /// A printable form of the bound address (for logs and tests; for
    /// TCP this includes the ephemeral port actually bound).
    pub fn local_addr_string(&self) -> String {
        match self {
            Listener::Tcp(l) => {
                l.local_addr().map_or_else(|_| "<tcp>".into(), |a| a.to_string())
            }
            #[cfg(unix)]
            Listener::Unix(l) => l
                .local_addr()
                .ok()
                .and_then(|a| a.as_pathname().map(|p| p.display().to_string()))
                .unwrap_or_else(|| "<unix>".into()),
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Conn::Unix(stream))
            }
        }
    }
}

/// One accepted connection, TCP or Unix.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_timeouts(&self) -> io::Result<()> {
        // Reads tick at POLL_TICK so the handler can notice shutdown
        // and enforce the idle deadline itself; writes get a generous
        // fixed timeout so a wedged peer cannot stall draining forever.
        let write = Some(Duration::from_secs(30));
        match self {
            Conn::Tcp(s) => {
                // Request/response over small frames: Nagle only adds
                // delayed-ACK latency here, so turn it off.
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(POLL_TICK))?;
                s.set_write_timeout(write)
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_read_timeout(Some(POLL_TICK))?;
                s.set_write_timeout(write)
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Wraps a connection so blocked reads wake up every [`POLL_TICK`]: a
/// frame-boundary wait aborts promptly on shutdown, and the configured
/// idle deadline is enforced without losing partially read frames
/// (all buffering lives in the caller's `read_frame`).
struct PollingReader<'a> {
    conn: &'a mut Conn,
    shutdown: &'a AtomicBool,
    deadline: Instant,
    started: bool,
}

/// Marker kind for "aborted because the server is shutting down".
const SHUTDOWN_ABORT: io::ErrorKind = io::ErrorKind::ConnectionAborted;

impl Read for PollingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.conn.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    self.started = true;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    // Between frames, shutdown closes the connection;
                    // mid-frame, the sender is given until the idle
                    // deadline to finish what it started.
                    if !self.started && self.shutdown.load(Ordering::SeqCst) {
                        return Err(io::Error::new(SHUTDOWN_ABORT, "server shutting down"));
                    }
                    if Instant::now() >= self.deadline {
                        return Err(io::Error::new(io::ErrorKind::TimedOut, "idle timeout"));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// What a server id resolves to: one warm index, or a whole collection
/// served as one logical index (queries fan out across its documents and
/// come back merged, DocId-qualified).
#[derive(Clone)]
pub enum ServedIndex {
    /// A single `.sxsi` index.
    Single(Arc<SxsiIndex>),
    /// A multi-document `.sxsic` collection.
    Collection(Arc<Collection>),
}

struct NamedIndex {
    id: String,
    served: ServedIndex,
}

type PlanKey = (usize, String);
/// The `u64` is the served identity folded into result-cache keys: `0`
/// for a single index (the slot already identifies it), the manifest
/// fingerprint for a collection — so cached bodies are keyed to the
/// exact manifest they were computed from.
type ResultKey = (usize, u64, String, QueryOptions, OutputKind);
/// Keyword-search results cache in their own LRU (same slot/fingerprint
/// scheme, canonical request string as the query component) rather than
/// widening [`ResultKey`]: a search body is not a query body, and keeping
/// the keyspaces apart means neither command can poison the other's
/// entries or skew its hit-rate counters.
type SearchKey = (usize, u64, String);

struct ServerInner {
    indexes: Vec<NamedIndex>,
    options: ServeOptions,
    executor: BatchExecutor,
    plan_cache: Mutex<LruCache<PlanKey, Arc<Prepared>>>,
    result_cache: Mutex<LruCache<ResultKey, Arc<str>>>,
    search_cache: Mutex<LruCache<SearchKey, Arc<str>>>,
    metrics: Metrics,
    shutdown: AtomicBool,
}

/// A warm-index query daemon.  Construct with [`Server::new`], then run
/// [`Server::serve`] on a bound [`Listener`]; `serve` returns after a
/// graceful shutdown (the `shutdown` protocol command or
/// [`Server::shutdown`]) once every in-flight connection has drained.
///
/// The handle is cheaply cloneable (it is an `Arc` internally), so a
/// controlling thread can keep one clone to call `shutdown` on.
#[derive(Clone)]
pub struct Server {
    inner: Arc<ServerInner>,
}

impl Server {
    /// Creates a server over the given `(id, index)` pairs.
    ///
    /// Fails if no index is given or two share an id.  The indexes stay
    /// warm behind `Arc` for the server's lifetime; queries address
    /// them by id (`index=<id>`), defaulting to the only index when
    /// exactly one is loaded.
    pub fn new(
        indexes: Vec<(String, Arc<SxsiIndex>)>,
        options: ServeOptions,
    ) -> Result<Server, String> {
        Server::new_served(
            indexes
                .into_iter()
                .map(|(id, index)| (id, ServedIndex::Single(index)))
                .collect(),
            options,
        )
    }

    /// Creates a server over a mix of single indexes and collections —
    /// a collection is addressed by one id and answers as one logical
    /// index, with nodes qualified as `doc-name:preorder`.
    pub fn new_served(
        indexes: Vec<(String, ServedIndex)>,
        options: ServeOptions,
    ) -> Result<Server, String> {
        if indexes.is_empty() {
            return Err("a server needs at least one index".into());
        }
        let mut seen = std::collections::HashSet::new();
        for (id, _) in &indexes {
            if !seen.insert(id.as_str()) {
                return Err(format!("duplicate index id '{id}'"));
            }
            if id.is_empty() || id.contains(|c: char| c.is_whitespace() || c == '=') {
                return Err(format!("index id '{id}' must be non-empty without spaces or '='"));
            }
        }
        let executor = if options.threads == 0 {
            BatchExecutor::with_available_parallelism()
        } else {
            BatchExecutor::new(options.threads)
        };
        Ok(Server {
            inner: Arc::new(ServerInner {
                indexes: indexes
                    .into_iter()
                    .map(|(id, served)| NamedIndex { id, served })
                    .collect(),
                plan_cache: Mutex::new(LruCache::new(options.plan_cache_capacity)),
                result_cache: Mutex::new(LruCache::new(options.result_cache_capacity)),
                search_cache: Mutex::new(LruCache::new(options.result_cache_capacity)),
                metrics: Metrics::new(),
                shutdown: AtomicBool::new(false),
                executor,
                options,
            }),
        })
    }

    /// The metrics sink (shared with every connection handler).
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Requests a graceful shutdown: the accept loop stops, idle
    /// connections are closed with a `shutting-down` error frame, and
    /// [`Server::serve`] returns once in-flight requests have drained.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one decoded request payload, returning the rendered response
    /// frame and whether the connection should close afterwards.
    ///
    /// This is the daemon's untrusted-input boundary (everything after
    /// frame length decoding), exposed so the structure-aware fuzzer and
    /// protocol tests can drive it directly with arbitrary payloads
    /// without a socket.
    pub fn handle_command(&self, payload: &[u8]) -> (Vec<u8>, bool) {
        self.inner.handle_command(payload)
    }

    /// Renders the `stats` body (also available without a connection,
    /// e.g. for tests): the metrics sink plus both caches' counters.
    pub fn render_stats(&self) -> String {
        self.inner.render_stats()
    }

    /// Runs the accept loop until shutdown, then drains: every
    /// connection handler is joined before this returns.
    pub fn serve(&self, listener: Listener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok(conn) => {
                    self.inner.metrics.record_connection();
                    let inner = Arc::clone(&self.inner);
                    handles.push(std::thread::spawn(move || inner.handle_connection(conn)));
                    // Reap finished handlers so a long-lived daemon does
                    // not accumulate join handles.
                    handles.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_TICK);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for handle in handles {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// An error a command handler reports back as an `error code=…` frame.
type CommandError = (ErrorCode, String);

impl ServerInner {
    fn handle_connection(self: Arc<Self>, mut conn: Conn) {
        if conn.set_timeouts().is_err() {
            return;
        }
        // Handshake: the first frame must be a matching `hello`.
        match self.read_request(&mut conn) {
            Ok(payload) => match parse_hello(&payload) {
                Ok(()) => {
                    let detail =
                        format!("sxsi-serve {PROTOCOL_VERSION} indexes={}", self.indexes.len());
                    if write_frame(&mut conn, &Response::render_ok(&detail, "")).is_err() {
                        return;
                    }
                }
                Err((code, message)) => {
                    self.metrics.record_error();
                    let _ = write_frame(&mut conn, &Response::render_error(code, &message));
                    return;
                }
            },
            Err(close) => {
                self.report_read_error(&mut conn, close);
                return;
            }
        }
        // Command loop.
        loop {
            let payload = match self.read_request(&mut conn) {
                Ok(payload) => payload,
                Err(close) => {
                    self.report_read_error(&mut conn, close);
                    return;
                }
            };
            self.metrics.record_request();
            let (response, close) = self.handle_command(&payload);
            if write_frame(&mut conn, &response).is_err() || close {
                return;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
    }

    /// Reads one request frame, waking every [`POLL_TICK`] to honor the
    /// shutdown flag and the idle deadline.
    fn read_request(&self, conn: &mut Conn) -> Result<Vec<u8>, Option<CommandError>> {
        let mut reader = PollingReader {
            conn,
            shutdown: &self.shutdown,
            deadline: Instant::now() + self.options.read_timeout,
            started: false,
        };
        match read_frame(&mut reader, MAX_REQUEST_FRAME) {
            Ok(payload) => Ok(payload),
            Err(FrameError::Closed) => Err(None),
            Err(FrameError::Truncated { got, expected }) => Err(Some((
                ErrorCode::TruncatedFrame,
                format!("connection closed mid-frame: got {got} of {expected} bytes"),
            ))),
            Err(FrameError::Oversized { len, max }) => Err(Some((
                ErrorCode::OversizedFrame,
                format!("announced frame of {len} bytes exceeds the {max}-byte cap"),
            ))),
            Err(FrameError::TimedOut) => Err(Some((
                ErrorCode::Timeout,
                format!("no frame within {:?}", self.options.read_timeout),
            ))),
            Err(FrameError::Io(e)) if e.kind() == SHUTDOWN_ABORT => {
                Err(Some((ErrorCode::ShuttingDown, "server is shutting down".into())))
            }
            Err(FrameError::Io(_)) => Err(None),
        }
    }

    /// Best-effort error frame for a connection being dropped; `None`
    /// means a clean close (no frame owed).
    fn report_read_error(&self, conn: &mut Conn, close: Option<CommandError>) {
        if let Some((code, message)) = close {
            self.metrics.record_error();
            let _ = write_frame(conn, &Response::render_error(code, &message));
        }
    }

    fn handle_command(&self, payload: &[u8]) -> (Vec<u8>, bool) {
        let outcome = self.dispatch(payload);
        match outcome {
            Ok((detail, body, close)) => (Response::render_ok(&detail, &body), close),
            Err((code, message)) => {
                self.metrics.record_error();
                (Response::render_error(code, &message), false)
            }
        }
    }

    /// Runs one command; `Ok` carries `(detail, body, close_after)`.
    fn dispatch(&self, payload: &[u8]) -> Result<(String, String, bool), CommandError> {
        let text = std::str::from_utf8(payload)
            .map_err(|_| (ErrorCode::BadFrame, "payload is not valid UTF-8".to_string()))?;
        let (command_line, rest) = text.split_once('\n').unwrap_or((text, ""));
        let mut tokens = command_line.split_whitespace();
        let command = tokens
            .next()
            .ok_or_else(|| (ErrorCode::BadFrame, "empty command".to_string()))?;
        match command {
            "hello" => {
                // A repeated hello is harmless: re-acknowledge.
                parse_hello(payload)?;
                Ok((
                    format!("sxsi-serve {PROTOCOL_VERSION} indexes={}", self.indexes.len()),
                    String::new(),
                    false,
                ))
            }
            "ping" => Ok(("pong".to_string(), String::new(), false)),
            "stats" => Ok((String::new(), self.render_stats(), false)),
            "info" => Ok((String::new(), self.render_info(), false)),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(("shutting-down".to_string(), String::new(), true))
            }
            "query" => self.handle_query(tokens, rest).map(|(detail, body)| (detail, body, false)),
            "search" => {
                self.handle_search(tokens, rest).map(|(detail, body)| (detail, body, false))
            }
            other => {
                Err((ErrorCode::UnknownCommand, format!("unknown command '{other}'")))
            }
        }
    }

    fn resolve_index(&self, id: Option<&str>) -> Result<usize, CommandError> {
        match id {
            Some(id) => self
                .indexes
                .iter()
                .position(|n| n.id == id)
                .ok_or_else(|| {
                    let loaded: Vec<&str> =
                        self.indexes.iter().map(|n| n.id.as_str()).collect();
                    (
                        ErrorCode::UnknownIndex,
                        format!("no index '{id}' (loaded: {})", loaded.join(", ")),
                    )
                }),
            None if self.indexes.len() == 1 => Ok(0),
            None => Err((
                ErrorCode::BadArgument,
                format!("index=<id> is required with {} indexes loaded", self.indexes.len()),
            )),
        }
    }

    fn handle_query<'a>(
        &self,
        args: impl Iterator<Item = &'a str>,
        rest: &str,
    ) -> Result<(String, String), CommandError> {
        let mut index_id: Option<&str> = None;
        let mut output = OutputKind::Count;
        let mut limit: Option<u64> = None;
        let mut offset: u64 = 0;
        for arg in args {
            let (key, value) = arg.split_once('=').ok_or_else(|| {
                (ErrorCode::BadArgument, format!("malformed argument '{arg}' (expected key=value)"))
            })?;
            match key {
                "index" => index_id = Some(value),
                "output" => {
                    output = OutputKind::parse(value).ok_or_else(|| {
                        (ErrorCode::BadArgument, format!("unknown output kind '{value}'"))
                    })?;
                }
                "limit" => {
                    limit = if value == "none" {
                        None
                    } else {
                        Some(value.parse().map_err(|_| {
                            (ErrorCode::BadArgument, format!("bad limit '{value}'"))
                        })?)
                    };
                }
                "offset" => {
                    offset = value.parse().map_err(|_| {
                        (ErrorCode::BadArgument, format!("bad offset '{value}'"))
                    })?;
                }
                other => {
                    return Err((
                        ErrorCode::BadArgument,
                        format!("unknown query argument '{other}'"),
                    ))
                }
            }
        }
        let slot = self.resolve_index(index_id)?;

        let mut xpaths = Vec::new();
        for line in rest.lines() {
            if line.is_empty() {
                continue;
            }
            let xpath = unescape_query(line).ok_or_else(|| {
                (ErrorCode::BadArgument, format!("malformed query encoding '{line}'"))
            })?;
            xpaths.push(xpath);
        }
        if xpaths.is_empty() {
            return Err((ErrorCode::BadArgument, "query needs at least one expression".into()));
        }

        let options = QueryOptions {
            mode: output.query_mode(),
            limit,
            offset,
            // Always collected: the visited-node histogram feeds on it.
            collect_stats: true,
        };

        // lint:allow(index: resolve_index returned a valid position)
        match &self.indexes[slot].served {
            ServedIndex::Single(index) => {
                self.answer_single(slot, &Arc::clone(index), xpaths, options, output)
            }
            ServedIndex::Collection(collection) => {
                self.answer_collection(slot, &Arc::clone(collection), xpaths, options, output)
            }
        }
    }

    /// Answers a query batch against one single index: result-cache
    /// lookups, plan-cached compilation, executor fan-out.
    fn answer_single(
        &self,
        slot: usize,
        index: &SxsiIndex,
        xpaths: Vec<String>,
        options: QueryOptions,
        output: OutputKind,
    ) -> Result<(String, String), CommandError> {
        // Phase 1: result-cache lookups, preserving request order.
        // Duplicate expressions within one request share a single
        // execution but are rendered once per occurrence, matching the
        // CLI printing one line per batch spec.
        let mut bodies: std::collections::HashMap<&str, Arc<str>> =
            std::collections::HashMap::new();
        let mut misses: Vec<&str> = Vec::new();
        {
            // lint:allow(panic: poisoning means another worker already panicked)
            let mut result_cache = self.result_cache.lock().expect("result cache poisoned");
            for xpath in &xpaths {
                if bodies.contains_key(xpath.as_str()) || misses.contains(&xpath.as_str()) {
                    continue;
                }
                let key: ResultKey = (slot, 0, xpath.clone(), options, output);
                match result_cache.get(&key) {
                    Some(body) => {
                        self.metrics.record_cached_query();
                        bodies.insert(xpath.as_str(), Arc::clone(body));
                    }
                    None => misses.push(xpath.as_str()),
                }
            }
        }
        let cache_hits = bodies.len();

        // Phase 2: prepare the misses through the plan cache (compile
        // errors reject the whole request, like the CLI's batch
        // compile), fan them out across the executor, render, insert.
        if !misses.is_empty() {
            let mut prepared_misses: Vec<(QuerySpec, Arc<Prepared>)> = Vec::new();
            for &xpath in &misses {
                let prepared = self.prepare_cached(slot, index, xpath)?;
                prepared_misses
                    .push((QuerySpec::new(xpath, xpath, options), prepared));
            }
            let batch = QueryBatch::from_prepared(prepared_misses);
            let results = self.executor.run(index, &batch);
            // lint:allow(panic: poisoning means another worker already panicked)
            let mut result_cache = self.result_cache.lock().expect("result cache poisoned");
            for result in &results {
                let mut rendered = String::new();
                render_batch_result(index, result, output, &mut rendered);
                let visited = result.result.stats().map(|s| s.visited_nodes);
                self.metrics.record_executed_query(result.elapsed, visited);
                let body: Arc<str> = Arc::from(rendered);
                result_cache
                    .insert((slot, 0, result.id.clone(), options, output), Arc::clone(&body));
                let Some(miss) = misses.iter().copied().find(|&m| m == result.id) else {
                    // Executor results always echo a requested id; if that
                    // ever breaks, answer with a structured server bug
                    // instead of panicking the worker.
                    return Err((
                        ErrorCode::Internal,
                        format!("executor returned unknown result id '{}'", escape_query(&result.id)),
                    ));
                };
                bodies.insert(miss, body);
            }
        }

        // Phase 3: assemble the body in request order.
        let mut body = String::new();
        let mut all_found = true;
        for xpath in &xpaths {
            let Some(rendered) = bodies.get(xpath.as_str()) else {
                return Err((
                    ErrorCode::Internal,
                    format!("no rendered body for query '{}'", escape_query(xpath)),
                ));
            };
            if output == OutputKind::Exists && rendered.trim_end().ends_with("false") {
                all_found = false;
            }
            body.push_str(rendered);
        }
        let mut detail = format!("queries={} cache_hits={cache_hits}", xpaths.len());
        if output == OutputKind::Exists {
            let _ = write!(detail, " all_found={all_found}");
        }
        Ok((detail, body))
    }

    /// Answers a query batch against a collection served as one logical
    /// index.  The result cache applies (keyed by the manifest
    /// fingerprint); the plan cache does not — a `Prepared` is only
    /// valid for the index it was compiled against, so collections
    /// prepare per document inside the fan-out.
    fn answer_collection(
        &self,
        slot: usize,
        collection: &Arc<Collection>,
        xpaths: Vec<String>,
        options: QueryOptions,
        output: OutputKind,
    ) -> Result<(String, String), CommandError> {
        let fingerprint = collection.fingerprint();
        let mut bodies: std::collections::HashMap<&str, Arc<str>> =
            std::collections::HashMap::new();
        let mut misses: Vec<&str> = Vec::new();
        {
            // lint:allow(panic: poisoning means another worker already panicked)
            let mut result_cache = self.result_cache.lock().expect("result cache poisoned");
            for xpath in &xpaths {
                if bodies.contains_key(xpath.as_str()) || misses.contains(&xpath.as_str()) {
                    continue;
                }
                let key: ResultKey = (slot, fingerprint, xpath.clone(), options, output);
                match result_cache.get(&key) {
                    Some(body) => {
                        self.metrics.record_cached_query();
                        bodies.insert(xpath.as_str(), Arc::clone(body));
                    }
                    None => misses.push(xpath.as_str()),
                }
            }
        }
        let cache_hits = bodies.len();

        let executor = CollectionExecutor::new(self.executor.threads());
        for &xpath in &misses {
            let start = Instant::now();
            let result = executor.run(collection, xpath, &options).map_err(|e| match e {
                CollectionQueryError::Prepare { error: QueryError::Compile(detail), .. } => (
                    ErrorCode::UnsupportedQuery,
                    format!("query='{}' detail='{detail}'", escape_query(xpath)),
                ),
                CollectionQueryError::Prepare { error, .. } => (
                    ErrorCode::ParseError,
                    format!("query='{}' detail='{error}'", escape_query(xpath)),
                ),
                CollectionQueryError::Load(e) => {
                    (ErrorCode::Internal, format!("collection segment failure: {e}"))
                }
            })?;
            let elapsed = start.elapsed();
            let mut rendered = String::new();
            render_collection_result(collection, xpath, &result, output, &mut rendered);
            let visited = result.stats().map(|s| s.visited_nodes);
            self.metrics.record_executed_query(elapsed, visited);
            let body: Arc<str> = Arc::from(rendered);
            self.result_cache
                .lock()
                .expect("result cache poisoned") // lint:allow(panic: poisoning means another worker already panicked)
                .insert((slot, fingerprint, xpath.to_string(), options, output), Arc::clone(&body));
            bodies.insert(xpath, body);
        }

        let mut body = String::new();
        let mut all_found = true;
        for xpath in &xpaths {
            let Some(rendered) = bodies.get(xpath.as_str()) else {
                return Err((
                    ErrorCode::Internal,
                    format!("no rendered body for query '{}'", escape_query(xpath)),
                ));
            };
            if output == OutputKind::Exists && rendered.trim_end().ends_with("false") {
                all_found = false;
            }
            body.push_str(rendered);
        }
        let mut detail = format!("queries={} cache_hits={cache_hits}", xpaths.len());
        if output == OutputKind::Exists {
            let _ = write!(detail, " all_found={all_found}");
        }
        Ok((detail, body))
    }

    /// Handles the `search` command: `search [index=<id>] [mode=all|any|
    /// phrase] [limit=<n>]` with one escaped search term per body line.
    /// Bodies render exactly like `sxsi search` prints them and cache in
    /// the dedicated search LRU (see [`SearchKey`]); hits and misses feed
    /// the same query counters and latency histograms as `query`.
    fn handle_search<'a>(
        &self,
        args: impl Iterator<Item = &'a str>,
        rest: &str,
    ) -> Result<(String, String), CommandError> {
        let mut index_id: Option<&str> = None;
        let mut mode = FtMode::All;
        let mut limit: Option<usize> = None;
        for arg in args {
            let (key, value) = arg.split_once('=').ok_or_else(|| {
                (ErrorCode::BadArgument, format!("malformed argument '{arg}' (expected key=value)"))
            })?;
            match key {
                "index" => index_id = Some(value),
                "mode" => {
                    mode = FtMode::parse(value).ok_or_else(|| {
                        (
                            ErrorCode::BadArgument,
                            format!("unknown search mode '{value}' (expected all, any or phrase)"),
                        )
                    })?;
                }
                "limit" => {
                    limit = if value == "none" {
                        None
                    } else {
                        Some(value.parse().map_err(|_| {
                            (ErrorCode::BadArgument, format!("bad limit '{value}'"))
                        })?)
                    };
                }
                other => {
                    return Err((
                        ErrorCode::BadArgument,
                        format!("unknown search argument '{other}'"),
                    ))
                }
            }
        }
        let slot = self.resolve_index(index_id)?;

        let mut terms = Vec::new();
        for line in rest.lines() {
            if line.is_empty() {
                continue;
            }
            let term = unescape_query(line).ok_or_else(|| {
                (ErrorCode::BadArgument, format!("malformed term encoding '{line}'"))
            })?;
            terms.push(term);
        }
        if terms.is_empty() {
            return Err((ErrorCode::BadArgument, "search needs at least one term".into()));
        }
        let query = FtQuery::new(mode, &terms);
        if query.tokens.is_empty() {
            return Err((
                ErrorCode::BadArgument,
                "search terms hold no indexable tokens".into(),
            ));
        }

        // lint:allow(index: resolve_index returned a valid position)
        let named = &self.indexes[slot];
        let fingerprint = match &named.served {
            ServedIndex::Single(_) => 0,
            ServedIndex::Collection(collection) => collection.fingerprint(),
        };
        // Canonical request string: the display form already pins mode and
        // token list; the limit changes the rendered window, so it is part
        // of the key too.
        let id = query_display(&query);
        let canonical = format!("{id} limit={limit:?}");
        let key: SearchKey = (slot, fingerprint, canonical);
        // lint:allow(panic: poisoning means another worker already panicked)
        if let Some(body) = self.search_cache.lock().expect("search cache poisoned").get(&key) {
            self.metrics.record_cached_query();
            let detail = format!("terms={} cache_hits=1", query.tokens.len());
            return Ok((detail, body.to_string()));
        }

        let start = Instant::now();
        let outcome = match &named.served {
            ServedIndex::Single(index) => search_index(index, &named.id, &query, limit),
            ServedIndex::Collection(collection) => {
                let executor = BatchExecutor::new(self.executor.threads());
                search_collection(&executor, collection, &query, limit).map_err(|e| {
                    (ErrorCode::Internal, format!("collection segment failure: {e}"))
                })?
            }
        };
        let elapsed = start.elapsed();
        let mut rendered = String::new();
        render_search_outcome(&id, &outcome, &mut rendered);
        // Searches never report visited-node counts (the FM-index does the
        // work), so only the latency histogram is fed.
        self.metrics.record_executed_query(elapsed, None);
        let body: Arc<str> = Arc::from(rendered);
        self.search_cache
            .lock()
            .expect("search cache poisoned") // lint:allow(panic: poisoning means another worker already panicked)
            .insert(key, Arc::clone(&body));
        Ok((format!("terms={} cache_hits=0", query.tokens.len()), body.to_string()))
    }

    /// Looks a query up in the plan cache, preparing and inserting on a
    /// miss.  Compilation happens outside the lock (it can be slow); a
    /// racing duplicate insert is benign.
    fn prepare_cached(
        &self,
        slot: usize,
        index: &SxsiIndex,
        xpath: &str,
    ) -> Result<Arc<Prepared>, CommandError> {
        let key: PlanKey = (slot, xpath.to_string());
        // lint:allow(panic: poisoning means another worker already panicked)
        if let Some(prepared) = self.plan_cache.lock().expect("plan cache poisoned").get(&key) {
            return Ok(Arc::clone(prepared));
        }
        let prepared = match index.prepare(xpath) {
            Ok(prepared) => Arc::new(prepared),
            Err(QueryError::Compile(e)) => {
                // The CLI's exit-3 taxonomy, as a structured frame.
                return Err((
                    ErrorCode::UnsupportedQuery,
                    format!("query='{}' detail='{e}'", escape_query(xpath)),
                ));
            }
            Err(e) => {
                return Err((
                    ErrorCode::ParseError,
                    format!("query='{}' detail='{e}'", escape_query(xpath)),
                ));
            }
        };
        self.plan_cache
            .lock()
            .expect("plan cache poisoned") // lint:allow(panic: poisoning means another worker already panicked)
            .insert(key, Arc::clone(&prepared));
        Ok(prepared)
    }

    fn render_stats(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "protocol_version={PROTOCOL_VERSION}");
        let _ = writeln!(out, "indexes={}", self.indexes.len());
        let _ = writeln!(out, "executor_threads={}", self.executor.threads());
        self.metrics.render(&mut out);
        render_cache_stats(&mut out, "plan_cache", &self.plan_cache);
        render_cache_stats(&mut out, "result_cache", &self.result_cache);
        render_cache_stats(&mut out, "search_cache", &self.search_cache);
        out
    }

    fn render_info(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "server protocol_version={PROTOCOL_VERSION} uptime_us={} indexes={}",
            self.metrics.uptime().as_micros(),
            self.indexes.len()
        );
        for named in &self.indexes {
            match &named.served {
                ServedIndex::Single(index) => {
                    let stats = index.stats();
                    let _ = writeln!(
                        out,
                        "index id={} nodes={} elements={} texts={} tags={} tree_bytes={} \
                         text_index_bytes={} plain_text_bytes={} total_bytes={}",
                        named.id,
                        stats.num_nodes,
                        stats.num_elements,
                        stats.num_texts,
                        stats.num_tags,
                        stats.tree_bytes,
                        stats.text_index_bytes,
                        stats.plain_text_bytes,
                        stats.total_bytes()
                    );
                    let report = index.verify(sxsi::VerifyDepth::Quick);
                    let _ = writeln!(
                        out,
                        "index-verify id={} verify={} verify_checks={}",
                        named.id,
                        if report.is_ok() {
                            "ok".to_string()
                        } else {
                            format!("{}-issues", report.issues.len())
                        },
                        report.checks_run
                    );
                }
                ServedIndex::Collection(collection) => {
                    let manifest = collection.manifest();
                    let nodes: u64 = manifest.docs.iter().map(|d| d.num_nodes).sum();
                    let _ = writeln!(
                        out,
                        "index id={} kind=collection docs={} nodes={nodes} elements={} \
                         texts={} fingerprint={:016x}",
                        named.id,
                        manifest.num_docs(),
                        manifest.total_elements,
                        manifest.total_texts,
                        collection.fingerprint()
                    );
                    for entry in &manifest.docs {
                        let _ = writeln!(
                            out,
                            "collection-doc id={} doc={} name={} segment={} nodes={}",
                            named.id, entry.id, entry.name, entry.segment, entry.num_nodes
                        );
                    }
                }
            }
        }
        out
    }
}

/// Appends one cache's `<name>_*` counter lines to a `stats` body.
fn render_cache_stats<K: std::hash::Hash + Eq, V>(
    out: &mut String,
    name: &str,
    cache: &Mutex<LruCache<K, V>>,
) {
    // lint:allow(panic: poisoning means another worker already panicked)
    let cache = cache.lock().expect("cache poisoned");
    let counters = cache.counters();
    let _ = writeln!(out, "{name}_capacity={}", cache.capacity());
    let _ = writeln!(out, "{name}_len={}", cache.len());
    let _ = writeln!(out, "{name}_hits={}", counters.hits);
    let _ = writeln!(out, "{name}_misses={}", counters.misses);
    let _ = writeln!(out, "{name}_evictions={}", counters.evictions);
    let _ = writeln!(out, "{name}_hit_rate={:.3}", counters.hit_rate());
}

/// Validates a `hello <version>` payload.
fn parse_hello(payload: &[u8]) -> Result<(), CommandError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| (ErrorCode::BadFrame, "hello payload is not valid UTF-8".to_string()))?;
    let mut tokens = text.split_whitespace();
    if tokens.next() != Some("hello") {
        return Err((
            ErrorCode::BadVersion,
            format!("expected 'hello {PROTOCOL_VERSION}' as the first frame"),
        ));
    }
    match tokens.next().and_then(|v| v.parse::<u32>().ok()) {
        Some(PROTOCOL_VERSION) => Ok(()),
        Some(other) => Err((
            ErrorCode::BadVersion,
            format!("protocol version {other} not supported (server speaks {PROTOCOL_VERSION})"),
        )),
        None => Err((
            ErrorCode::BadVersion,
            format!("expected 'hello {PROTOCOL_VERSION}' as the first frame"),
        )),
    }
}
