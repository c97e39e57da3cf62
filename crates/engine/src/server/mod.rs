//! The `sxsi serve` daemon: a long-lived process that loads `.sxsi`
//! indexes and `.sxsic` collections once, keeps them warm behind `Arc`,
//! and answers XPath queries and keyword searches over a length-prefixed
//! framed protocol on a TCP or Unix socket — so callers stop paying
//! process startup plus a full index load per query (the paper's headline
//! latency is index-resident).
//!
//! Architecture (one connection = one thread; all shared state is the
//! immutable targets plus four synchronized sinks).  Every request takes
//! the CLI's path ([`crate::request`]); the daemon adds its caches and
//! metrics around [`answer`] as a [`Memo`]:
//!
//! ```text
//!  clients ──frames──▶ accept loop ──▶ handler thread per connection
//!                                        │  hello → command loop
//!                                        ▼
//!     Request::decode → index=<id> → answer(executor, target, request, memo)
//!                 ┌── result cache (LRU: (index, fingerprint, query,
//!                 │                  options, output) → rendered body)
//!                 ├── plan cache (LRU: (index, query) → one prepared
//!                 │                statement per document)
//!                 ├── BatchExecutor fan-out for the cache misses: one
//!                 │   job per (query, document), merged per query
//!                 ├── search cache (LRU: (index, fingerprint, search)
//!                 │                  → rendered body)
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
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sxsi::SxsiIndex;
use sxsi_collection::{Collection, CollectionError, DocId};

use crate::collection::CollectionQueryError;
use crate::request::{answer, BodyKey, CommandError, Memo, Request};
pub use crate::request::{render_batch_result, render_result, OutputKind};
use crate::{BatchExecutor, Plans, Target};
use cache::LruCache;
use metrics::Metrics;
use protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Response, MAX_REQUEST_FRAME, PROTOCOL_VERSION,
};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads for each request's [`BatchExecutor`] fan-out;
    /// `0` means the machine's available parallelism.
    pub threads: usize,
    /// Capacity of the compiled-plan LRU (`(index, query)` → one
    /// `Prepared` per document).
    pub plan_cache_capacity: usize,
    /// Capacity of the result LRU (`(index, query, options, output)` →
    /// rendered body) and, separately, of the search LRU (`(index,
    /// search)` → rendered body).
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

/// One connection, TCP or Unix: accepted by the daemon or opened by a
/// [`client::Client`].
#[derive(Debug)]
pub(crate) enum Conn {
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

/// What a server id (or a CLI path) resolves to: one warm index, or a
/// whole collection served as one logical index (queries fan out across
/// its documents and come back merged, DocId-qualified).  Both answer
/// through the one query path as a [`Target`]; this impl block is the
/// only place the two kinds are told apart.
#[derive(Clone)]
pub enum ServedIndex {
    /// A single `.sxsi` index: one unlabelled document.
    Single(Arc<SxsiIndex>),
    /// A multi-document `.sxsic` collection.
    Collection(Arc<Collection>),
}

impl ServedIndex {
    fn target(&self) -> &dyn Target {
        match self {
            ServedIndex::Single(index) => &**index,
            ServedIndex::Collection(collection) => &**collection,
        }
    }

    /// Appends the `info` lines describing this target, served as `id`.
    fn describe(&self, id: &str, out: &mut String) {
        match self {
            ServedIndex::Single(index) => {
                let stats = index.stats();
                let _ = writeln!(
                    out,
                    "index id={id} nodes={} elements={} texts={} tags={} tree_bytes={} \
                     text_index_bytes={} plain_text_bytes={} total_bytes={}",
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
                    "index-verify id={id} verify={} verify_checks={}",
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
                    "index id={id} kind=collection docs={} nodes={nodes} elements={} \
                     texts={} fingerprint={:016x}",
                    manifest.num_docs(),
                    manifest.total_elements,
                    manifest.total_texts,
                    collection.fingerprint()
                );
                for entry in &manifest.docs {
                    let _ = writeln!(
                        out,
                        "collection-doc id={id} doc={} name={} segment={} nodes={}",
                        entry.id, entry.name, entry.segment, entry.num_nodes
                    );
                }
            }
        }
    }
}

impl Target for ServedIndex {
    fn num_docs(&self) -> usize {
        self.target().num_docs()
    }

    fn doc_index(&self, doc: DocId) -> Result<&SxsiIndex, CollectionError> {
        self.target().doc_index(doc)
    }

    fn doc_label(&self, doc: DocId) -> Option<&str> {
        self.target().doc_label(doc)
    }

    fn fingerprint(&self) -> u64 {
        self.target().fingerprint()
    }
}

struct NamedIndex {
    id: String,
    served: ServedIndex,
}

type PlanKey = (usize, String);
/// The `u64` is the target's [`Target::fingerprint`], so cached bodies
/// are keyed to the exact manifest they were computed from.  Query and
/// search bodies cache in LRUs of their own: a search body is not a query
/// body, and keeping the keyspaces apart means neither command can poison
/// the other's entries or skew its hit-rate counters.
type BodyCacheKey = (usize, u64, BodyKey);

struct ServerInner {
    indexes: Vec<NamedIndex>,
    options: ServeOptions,
    executor: BatchExecutor,
    plan_cache: Mutex<LruCache<PlanKey, Plans>>,
    result_cache: Mutex<LruCache<BodyCacheKey, Arc<str>>>,
    search_cache: Mutex<LruCache<BodyCacheKey, Arc<str>>>,
    metrics: Metrics,
    shutdown: AtomicBool,
}

/// A warm-index query daemon.  Construct with [`Server::new_served`], then run
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
    /// Creates a server over a mix of single indexes and collections —
    /// a collection is addressed by one id and answers as one logical
    /// index, with nodes qualified as `doc-name:preorder`.
    ///
    /// Fails if no index is given or two share an id.  The targets stay
    /// warm behind `Arc` for the server's lifetime; queries address
    /// them by id (`index=<id>`), defaulting to the only target when
    /// exactly one is loaded.
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

    /// Requests a graceful shutdown: the accept loop stops, idle
    /// connections are closed with a `shutting-down` error frame, and
    /// [`Server::serve`] returns once in-flight requests have drained.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
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
    /// e.g. for tests): the metrics sink plus the plan, result and
    /// search caches' counters.
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
        let mut tokens = text.split('\n').next().unwrap_or_default().split_whitespace();
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
            "query" | "search" => {
                let request = Request::decode(text)?;
                let (slot, named) = self.resolve_index(request.index.as_deref())?;
                let memo = Served { inner: self, slot, fingerprint: named.served.fingerprint() };
                let (detail, body) =
                    answer(&self.executor, &named.served, &named.id, &request, &memo)?;
                Ok((detail, body, false))
            }
            other => {
                Err((ErrorCode::UnknownCommand, format!("unknown command '{other}'")))
            }
        }
    }

    /// The slot and target a request addresses.
    fn resolve_index(&self, id: Option<&str>) -> Result<(usize, &NamedIndex), CommandError> {
        match id {
            Some(id) => {
                self.indexes.iter().enumerate().find(|(_, n)| n.id == id).ok_or_else(|| {
                    let loaded: Vec<&str> = self.indexes.iter().map(|n| n.id.as_str()).collect();
                    (
                        ErrorCode::UnknownIndex,
                        format!("no index '{id}' (loaded: {})", loaded.join(", ")),
                    )
                })
            }
            None => match self.indexes.as_slice() {
                [only] => Ok((0, only)),
                _ => Err((
                    ErrorCode::BadArgument,
                    format!("index=<id> is required with {} indexes loaded", self.indexes.len()),
                )),
            },
        }
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
            named.served.describe(&named.id, &mut out);
        }
        out
    }
}

/// The daemon's caches and metrics around [`answer`], for one request on
/// the target in `slot`.  Wire queries are labelled by their expression,
/// so the expression alone keys a query's body.
struct Served<'s> {
    inner: &'s ServerInner,
    slot: usize,
    fingerprint: u64,
}

impl Served<'_> {
    fn cache(&self, key: &BodyKey) -> &Mutex<LruCache<BodyCacheKey, Arc<str>>> {
        match key {
            BodyKey::Query(..) => &self.inner.result_cache,
            BodyKey::Search(_) => &self.inner.search_cache,
        }
    }
}

impl Memo for Served<'_> {
    fn body(&self, key: BodyKey) -> Option<Arc<str>> {
        let body = lock(self.cache(&key)).get(&(self.slot, self.fingerprint, key)).cloned();
        if body.is_some() {
            self.inner.metrics.record_cached_query();
        }
        body
    }

    /// Compilation happens outside the lock (it can be slow); a racing
    /// duplicate insert is benign.
    fn plans(
        &self,
        xpath: &str,
        prepare: impl FnOnce() -> Result<Plans, CollectionQueryError>,
    ) -> Result<Plans, CollectionQueryError> {
        let key: PlanKey = (self.slot, xpath.to_string());
        if let Some(plans) = lock(&self.inner.plan_cache).get(&key) {
            return Ok(Arc::clone(plans));
        }
        let plans = prepare()?;
        lock(&self.inner.plan_cache).insert(key, Arc::clone(&plans));
        Ok(plans)
    }

    fn keep(&self, key: BodyKey, body: &Arc<str>, elapsed: Duration, visited: Option<u64>) {
        self.inner.metrics.record_executed_query(elapsed, visited);
        lock(self.cache(&key)).insert((self.slot, self.fingerprint, key), Arc::clone(body));
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // lint:allow(panic: poisoning means another worker already panicked)
    mutex.lock().expect("cache poisoned")
}

/// Appends one cache's `<name>_*` counter lines to a `stats` body.
fn render_cache_stats<K: std::hash::Hash + Eq, V>(
    out: &mut String,
    name: &str,
    cache: &Mutex<LruCache<K, V>>,
) {
    let cache = lock(cache);
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
