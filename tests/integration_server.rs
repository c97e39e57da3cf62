//! The `sxsi serve` daemon contract, end to end:
//!
//! * every paper query (X/T/M/W sets) and every ordered query answered
//!   through the daemon is byte-identical to the in-process rendering,
//!   sequentially and from concurrent clients;
//! * repeated queries are served from the result cache (hit counters
//!   increment, the plan cache shares compilation across output modes);
//! * hostile input — garbage hellos, non-UTF-8 payloads, truncation at
//!   every byte boundary, oversized length prefixes, malformed query
//!   escapes — yields structured error frames and never kills the
//!   daemon;
//! * `shutdown` drains connections and stops the accept loop;
//! * the `sxsi query … | head -1` pipeline exits 0 (the broken-pipe
//!   regression that motivated routing CLI output through one shared
//!   renderer and a checked `BufWriter`).

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use sxsi::{QueryMode, QueryOptions, SxsiIndex};
use sxsi_datagen::{
    medline, treebank, wiki, xmark, MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig,
};
use sxsi_engine::server::client::Client;
use sxsi_engine::server::protocol::{
    escape_query, read_frame, write_frame, ErrorCode, Response, MAX_RESPONSE_FRAME,
    PROTOCOL_VERSION,
};
use sxsi_engine::request::{answer, parse_args, ArgError, Op, Request};
use sxsi_engine::server::{
    render_batch_result, Listener, OutputKind, ServeOptions, ServedIndex, Server,
};
use sxsi_engine::{BatchExecutor, QueryBatch, QuerySpec};
use sxsi_xpath::{
    CorpusQuery, NamedQuery, MEDLINE_QUERIES, ORDERED_QUERIES, TREEBANK_QUERIES, WORD_QUERIES,
    XMARK_QUERIES,
};

fn corpora() -> &'static Vec<(&'static str, Arc<SxsiIndex>)> {
    static CORPORA: OnceLock<Vec<(&'static str, Arc<SxsiIndex>)>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let build = |xml: &str| Arc::new(SxsiIndex::build_from_xml(xml.as_bytes()).unwrap());
        vec![
            ("xmark", build(&xmark::generate(&XMarkConfig { scale: 0.03, seed: 13 }))),
            (
                "treebank",
                build(&treebank::generate(&TreebankConfig { num_sentences: 60, seed: 13 })),
            ),
            ("medline", build(&medline::generate(&MedlineConfig { num_citations: 40, seed: 13 }))),
            ("wiki", build(&wiki::generate(&WikiConfig { num_pages: 40, seed: 13 }))),
        ]
    })
}

fn paper_queries() -> impl Iterator<Item = &'static NamedQuery> {
    XMARK_QUERIES
        .iter()
        .chain(TREEBANK_QUERIES)
        .chain(MEDLINE_QUERIES)
        .chain(WORD_QUERIES)
}

fn ordered_queries_for(corpus: &str) -> impl Iterator<Item = &'static CorpusQuery> + '_ {
    ORDERED_QUERIES.iter().filter(move |q| q.corpus == corpus)
}

/// Single indexes as served targets.
fn singles(indexes: Vec<(String, Arc<SxsiIndex>)>) -> Vec<(String, ServedIndex)> {
    indexes.into_iter().map(|(id, index)| (id, ServedIndex::Single(index))).collect()
}

/// Starts a daemon over the given indexes on an ephemeral TCP port.
/// Returns the handle (for shutdown/metrics), the address, and the
/// serve-loop thread (joined by [`stop`]).
fn start(
    indexes: Vec<(String, Arc<SxsiIndex>)>,
    options: ServeOptions,
) -> (Server, String, std::thread::JoinHandle<()>) {
    let listener = Listener::bind_tcp("127.0.0.1:0").unwrap();
    let addr = listener.local_addr_string();
    let server = Server::new_served(singles(indexes), options).unwrap();
    let serve = server.clone();
    let handle = std::thread::spawn(move || serve.serve(listener).unwrap());
    (server, addr, handle)
}

fn start_all_corpora() -> (Server, String, std::thread::JoinHandle<()>) {
    let indexes = corpora().iter().map(|(id, idx)| (id.to_string(), Arc::clone(idx))).collect();
    start(indexes, ServeOptions { threads: 2, ..ServeOptions::default() })
}

fn stop(server: &Server, handle: std::thread::JoinHandle<()>) {
    server.shutdown();
    handle.join().unwrap();
}

/// What the in-process CLI path prints for one query, via the same
/// shared renderer the daemon uses.
fn in_process_body(index: &SxsiIndex, xpath: &str, output: OutputKind, limit: Option<u64>) -> String {
    let options = QueryOptions {
        mode: output.query_mode(),
        limit,
        offset: 0,
        collect_stats: true,
    };
    let batch = QueryBatch::compile(
        index,
        vec![QuerySpec::new(xpath, xpath, options)],
    )
    .unwrap();
    let results = BatchExecutor::new(1).run(index, &batch);
    let mut body = String::new();
    render_batch_result(index, &results[0], output, &mut body);
    body
}

/// A query request, as `sxsi client query` sends it.
fn query_request(
    index: Option<&str>,
    output: OutputKind,
    limit: Option<u64>,
    offset: u64,
    xpaths: &[&str],
) -> Request {
    let options = QueryOptions { mode: output.query_mode(), limit, offset, collect_stats: true };
    let queries = xpaths.iter().map(|x| (None, x.to_string())).collect();
    Request { index: index.map(str::to_string), op: Op::Query { queries, options, output } }
}

/// A search request, as `sxsi client search` sends it.
fn search_request(index: Option<&str>, mode: &str, limit: Option<u64>, terms: &[&str]) -> Request {
    let query = sxsi::FtQuery::new(sxsi::FtMode::parse(mode).unwrap(), terms);
    let limit = limit.map(|l| l as usize);
    Request { index: index.map(str::to_string), op: Op::Search { query, limit } }
}

#[test]
fn daemon_bodies_match_in_process_rendering_for_every_query_set() {
    let (server, addr, handle) = start_all_corpora();
    let mut client = Client::connect_tcp(&addr).unwrap();
    for (corpus, index) in corpora() {
        let queries: Vec<&str> = paper_queries()
            .map(|q| q.xpath)
            .chain(ordered_queries_for(corpus).map(|q| q.xpath))
            .collect();
        for xpath in queries {
            for output in [OutputKind::Count, OutputKind::Nodes, OutputKind::Exists] {
                let expected = in_process_body(index, xpath, output, None);
                let request = query_request(Some(corpus), output, None, 0, &[xpath]);
                match client.send(&request).unwrap() {
                    Response::Ok { body, .. } => {
                        assert_eq!(body, expected, "{corpus} {xpath} {output:?}");
                    }
                    Response::Err { code, message } => {
                        panic!("{corpus} {xpath} {output:?}: error frame {code} {message}")
                    }
                }
            }
            // Serialization can be large; spot-check a bounded window.
            let expected = in_process_body(index, xpath, OutputKind::Serialize, Some(2));
            let request = query_request(Some(corpus), OutputKind::Serialize, Some(2), 0, &[xpath]);
            match client.send(&request).unwrap() {
                Response::Ok { body, .. } => {
                    assert_eq!(body, expected, "{corpus} {xpath} serialize");
                }
                Response::Err { code, message } => {
                    panic!("{corpus} {xpath} serialize: error frame {code} {message}")
                }
            }
        }
    }
    stop(&server, handle);
}

#[test]
fn concurrent_clients_read_identical_bytes() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) = start(
        vec![(corpus.to_string(), Arc::clone(index))],
        ServeOptions { threads: 4, ..ServeOptions::default() },
    );
    let queries: Vec<&str> = paper_queries().map(|q| q.xpath).collect();
    let expected: Vec<String> = queries
        .iter()
        .map(|q| in_process_body(index, q, OutputKind::Count, None))
        .collect();
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let addr = &addr;
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = Client::connect_tcp(addr).unwrap();
                // Each worker starts at a different point so cache hits
                // and misses interleave across connections.
                for i in 0..queries.len() {
                    let pick = (i + worker * 5) % queries.len();
                    match client
                        .send(&query_request(None, OutputKind::Count, None, 0, &[queries[pick]]))
                        .unwrap()
                    {
                        Response::Ok { body, .. } => {
                            assert_eq!(body, expected[pick], "worker {worker} {}", queries[pick]);
                        }
                        Response::Err { code, message } => {
                            panic!("worker {worker}: error frame {code} {message}")
                        }
                    }
                }
            });
        }
    });
    assert!(server.metrics().queries_served() >= (8 * queries.len()) as u64);
    stop(&server, handle);
}

/// Extracts `key=value` from a stats body.
fn stat(body: &str, key: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .unwrap_or_else(|| panic!("no {key}= in stats body:\n{body}"))
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a number"))
}

#[test]
fn repeated_queries_are_served_from_the_result_cache() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), Arc::clone(index))], ServeOptions::default());
    let mut first = Client::connect_tcp(&addr).unwrap();
    let mut second = Client::connect_tcp(&addr).unwrap();
    let xpath = "//item";
    let request = query_request(None, OutputKind::Count, None, 0, &[xpath]);
    let body_cold = match first.send(&request).unwrap() {
        Response::Ok { body, .. } => body,
        other => panic!("cold query failed: {other:?}"),
    };
    // Same query, different connection: must come from the result cache.
    let (body_warm, detail) =
        match second.send(&query_request(None, OutputKind::Count, None, 0, &[xpath])).unwrap() {
            Response::Ok { body, detail } => (body, detail),
            other => panic!("warm query failed: {other:?}"),
        };
    assert_eq!(body_cold, body_warm);
    assert!(detail.contains("cache_hits=1"), "detail was '{detail}'");
    let stats = first.stats().unwrap();
    assert_eq!(stat(&stats, "result_cache_hits"), 1);
    assert_eq!(stat(&stats, "result_cache_misses"), 1);
    assert_eq!(stat(&stats, "queries_cached"), 1);
    assert_eq!(stat(&stats, "queries_executed"), 1);
    assert_eq!(server.metrics().cached_queries_served(), 1);
    // The histograms saw the one executed query.
    assert!(stats.contains("latency_us_histogram=") && !stats.contains("latency_us_histogram=-"));
    assert!(stats.contains("visited_nodes_histogram="));
    // A different output mode misses the result cache but hits the plan
    // cache: same compiled statement, new rendering.
    match first.send(&query_request(None, OutputKind::Nodes, None, 0, &[xpath])).unwrap() {
        Response::Ok { .. } => {}
        other => panic!("nodes query failed: {other:?}"),
    }
    let stats = first.stats().unwrap();
    assert_eq!(stat(&stats, "plan_cache_hits"), 1);
    assert_eq!(stat(&stats, "result_cache_hits"), 1);
    stop(&server, handle);
}

#[test]
fn query_options_are_part_of_the_result_cache_key() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), Arc::clone(index))], ServeOptions::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let xpath = "//item";
    let expected_all = in_process_body(index, xpath, OutputKind::Nodes, None);
    let expected_one = in_process_body(index, xpath, OutputKind::Nodes, Some(1));
    for _ in 0..2 {
        match client.send(&query_request(None, OutputKind::Nodes, None, 0, &[xpath])).unwrap() {
            Response::Ok { body, .. } => assert_eq!(body, expected_all),
            other => panic!("{other:?}"),
        }
        match client.send(&query_request(None, OutputKind::Nodes, Some(1), 0, &[xpath])).unwrap() {
            Response::Ok { body, .. } => assert_eq!(body, expected_one),
            other => panic!("{other:?}"),
        }
    }
    stop(&server, handle);
}

// ---------------------------------------------------------------------
// Raw-socket protocol robustness.
// ---------------------------------------------------------------------

fn raw_connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

fn raw_hello(stream: &mut TcpStream) {
    write_frame(stream, format!("hello {PROTOCOL_VERSION}").as_bytes()).unwrap();
    match read_response(stream) {
        Response::Ok { .. } => {}
        other => panic!("handshake failed: {other:?}"),
    }
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = read_frame(stream, MAX_RESPONSE_FRAME).unwrap();
    Response::parse(&payload).expect("server responses always parse")
}

fn expect_error(stream: &mut TcpStream, code: ErrorCode) {
    match read_response(stream) {
        Response::Err { code: got, .. } => assert_eq!(got, code),
        other => panic!("expected error {code}, got {other:?}"),
    }
}

/// Asserts the daemon still answers a well-formed connection.
fn assert_still_serving(addr: &str) {
    let mut client = Client::connect_tcp(addr).unwrap();
    client.ping().unwrap();
}

#[test]
fn hostile_input_yields_structured_errors_and_the_daemon_survives() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), Arc::clone(index))], ServeOptions::default());

    // Wrong protocol version: structured bad-version, then close.
    let mut s = raw_connect(&addr);
    write_frame(&mut s, b"hello 999").unwrap();
    expect_error(&mut s, ErrorCode::BadVersion);
    assert_still_serving(&addr);

    // A first frame that is not a hello at all (e.g. an HTTP client).
    let mut s = raw_connect(&addr);
    write_frame(&mut s, b"GET / HTTP/1.1").unwrap();
    expect_error(&mut s, ErrorCode::BadVersion);
    assert_still_serving(&addr);

    // Non-UTF-8 payload after a good handshake: bad-frame, and the
    // connection stays usable.
    let mut s = raw_connect(&addr);
    raw_hello(&mut s);
    write_frame(&mut s, &[0xff, 0xfe, 0xfd]).unwrap();
    expect_error(&mut s, ErrorCode::BadFrame);
    write_frame(&mut s, b"ping").unwrap();
    match read_response(&mut s) {
        Response::Ok { detail, .. } => assert_eq!(detail, "pong"),
        other => panic!("connection should survive bad-frame: {other:?}"),
    }

    // Unknown command, unknown index, malformed escape, empty frame.
    write_frame(&mut s, b"frobnicate").unwrap();
    expect_error(&mut s, ErrorCode::UnknownCommand);
    write_frame(&mut s, b"query index=nope\n//a").unwrap();
    expect_error(&mut s, ErrorCode::UnknownIndex);
    write_frame(&mut s, b"query\n%zz").unwrap();
    expect_error(&mut s, ErrorCode::BadArgument);
    write_frame(&mut s, b"").unwrap();
    expect_error(&mut s, ErrorCode::BadFrame);
    // A query that parses but is not supported maps to the exit-3
    // analog; one that does not parse at all to parse-error.
    write_frame(&mut s, b"query\n//a[count(b) = 1]").unwrap();
    match read_response(&mut s) {
        Response::Err { code, .. } => {
            assert!(
                matches!(code, ErrorCode::UnsupportedQuery | ErrorCode::ParseError),
                "got {code}"
            );
        }
        other => panic!("expected a query-shape error, got {other:?}"),
    }
    write_frame(&mut s, format!("query\n{}", escape_query("///")).as_bytes()).unwrap();
    expect_error(&mut s, ErrorCode::ParseError);

    // Oversized announced length: structured error, then close.
    let mut s = raw_connect(&addr);
    raw_hello(&mut s);
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.flush().unwrap();
    expect_error(&mut s, ErrorCode::OversizedFrame);
    assert_still_serving(&addr);

    stop(&server, handle);
}

#[test]
fn truncation_at_every_byte_boundary_is_reported_and_survived() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), Arc::clone(index))], ServeOptions::default());
    let mut full = Vec::new();
    write_frame(&mut full, b"stats").unwrap();
    for cut in 0..full.len() {
        let mut s = raw_connect(&addr);
        raw_hello(&mut s);
        s.write_all(&full[..cut]).unwrap();
        s.flush().unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        if cut == 0 {
            // A clean close at the frame boundary earns no error frame.
            let mut rest = Vec::new();
            s.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "no frame owed on a clean close");
        } else {
            expect_error(&mut s, ErrorCode::TruncatedFrame);
        }
    }
    assert_still_serving(&addr);
    stop(&server, handle);
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), Arc::clone(index))], ServeOptions::default());
    let mut idle = Client::connect_tcp(&addr).unwrap();
    let mut controller = Client::connect_tcp(&addr).unwrap();
    controller.shutdown().unwrap();
    // The serve loop exits once every connection has drained (the idle
    // one is closed at its next frame boundary).
    handle.join().unwrap();
    assert!(server.is_shutting_down());
    // The listener is gone: new connections are refused.
    assert!(Client::connect_tcp(&addr).is_err());
    // The drained idle connection gets a shutting-down error or EOF,
    // never a hang or a panic.
    assert!(idle.ping().is_err(), "server answered a ping after shutdown");
}

#[test]
fn duplicate_and_invalid_index_ids_are_rejected() {
    let (_, index) = &corpora()[0];
    let dup = vec![
        ("a".to_string(), Arc::clone(index)),
        ("a".to_string(), Arc::clone(index)),
    ];
    assert!(Server::new_served(singles(dup), ServeOptions::default()).is_err());
    assert!(Server::new_served(Vec::new(), ServeOptions::default()).is_err());
    let spaced = vec![("has space".to_string(), Arc::clone(index))];
    assert!(Server::new_served(singles(spaced), ServeOptions::default()).is_err());
}

// ---------------------------------------------------------------------
// CLI regressions driven through the real binary.
// ---------------------------------------------------------------------

fn built_index_file(dir: &std::path::Path) -> std::path::PathBuf {
    let xml = xmark::generate(&XMarkConfig { scale: 0.03, seed: 13 });
    let xml_path = dir.join("doc.xml");
    let idx_path = dir.join("doc.sxsi");
    std::fs::write(&xml_path, xml).unwrap();
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_sxsi"))
        .args(["build", xml_path.to_str().unwrap(), idx_path.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    idx_path
}

/// `sxsi query … | head -1` must exit 0: a closed downstream pipe is
/// normal usage, not a panic (`println!` aborts on EPIPE) nor an error.
#[test]
fn query_into_closed_pipe_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("sxsi-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idx = built_index_file(&dir);

    // --serialize '//*' produces far more output than any pipe buffer
    // holds, so the child is guaranteed to hit EPIPE once we hang up.
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sxsi"))
        .args(["query", idx.to_str().unwrap(), "--serialize", "//*"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .unwrap();
    {
        // Read one line like `head -1`, then drop the pipe.
        let stdout = child.stdout.take().unwrap();
        let mut one = [0u8; 64];
        let mut reader = std::io::BufReader::new(stdout);
        let _ = reader.read(&mut one).unwrap();
    }
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "broken pipe must exit 0, got {status:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `stderr` diagnostics and exit taxonomy survive the daemon hop:
/// `exists` answers exit 4 through `client` via the `all_found` detail.
#[test]
fn client_exists_detail_reports_all_found() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), Arc::clone(index))], ServeOptions::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let request = query_request(None, OutputKind::Exists, None, 0, &["//item", "//no_such_tag"]);
    match client.send(&request).unwrap() {
        Response::Ok { detail, body } => {
            assert!(detail.contains("all_found=false"), "detail '{detail}'");
            assert!(body.contains("//item: true\n"));
            assert!(body.contains("//no_such_tag: false\n"));
        }
        other => panic!("{other:?}"),
    }
    match client.send(&query_request(None, OutputKind::Exists, None, 0, &["//item"])).unwrap() {
        Response::Ok { detail, .. } => {
            assert!(detail.contains("all_found=true"), "detail '{detail}'");
        }
        other => panic!("{other:?}"),
    }
    stop(&server, handle);
}

/// M11 carries literal newlines inside its query string; the escaping
/// layer must carry it to the daemon and back unchanged.
#[test]
fn newline_bearing_queries_roundtrip_through_the_wire() {
    let m11 = MEDLINE_QUERIES.iter().find(|q| q.id == "M11").expect("M11 exists");
    assert!(m11.xpath.contains('\n'), "M11 is the newline fixture");
    let (corpus, index) = corpora()
        .iter()
        .find(|(c, _)| *c == "medline")
        .map(|(c, i)| (*c, Arc::clone(i)))
        .unwrap();
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), index.clone())], ServeOptions::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let expected = in_process_body(&index, m11.xpath, OutputKind::Count, None);
    match client.send(&query_request(None, OutputKind::Count, None, 0, &[m11.xpath])).unwrap() {
        Response::Ok { body, .. } => assert_eq!(body, expected),
        other => panic!("{other:?}"),
    }
    stop(&server, handle);
}

/// A multi-query request preserves request order and renders duplicates
/// once per occurrence, exactly like the CLI batch.
#[test]
fn multi_query_requests_preserve_order_and_duplicates() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), Arc::clone(index))], ServeOptions::default());
    let mut client = Client::connect_tcp(&addr).unwrap();
    let queries = ["//item", "//person", "//item"];
    let expected: String =
        queries.iter().map(|q| in_process_body(index, q, OutputKind::Count, None)).collect();
    match client.send(&query_request(None, OutputKind::Count, None, 0, &queries)).unwrap() {
        Response::Ok { body, .. } => assert_eq!(body, expected),
        other => panic!("{other:?}"),
    }
    stop(&server, handle);
}

#[test]
fn info_command_describes_every_index() {
    let (server, addr, handle) = start_all_corpora();
    let mut client = Client::connect_tcp(&addr).unwrap();
    let info = client.info().unwrap();
    assert!(info.starts_with(&format!("server protocol_version={PROTOCOL_VERSION} ")));
    for (corpus, index) in corpora() {
        let stats = index.stats();
        assert!(
            info.contains(&format!("index id={corpus} nodes={} ", stats.num_nodes)),
            "info missing {corpus}:\n{info}"
        );
    }
    // QueryMode is part of the cache key; sanity-check the wire mapping.
    assert_eq!(OutputKind::Count.query_mode(), QueryMode::Count);
    assert_eq!(OutputKind::Exists.query_mode(), QueryMode::Exists);
    stop(&server, handle);
}

/// The daemon `search` command: bodies byte-identical to the in-process
/// renderer (the same one `sxsi search` prints through), a dedicated
/// result cache that hits on repeats across connections, and structured
/// errors for malformed requests.
#[test]
fn daemon_search_bodies_match_in_process_rendering_and_cache() {
    use sxsi::{FtMode, FtQuery};
    use sxsi_engine::search::{query_display, render_search_outcome, search_target};

    let (server, addr, handle) = start_all_corpora();
    let mut client = Client::connect_tcp(&addr).unwrap();
    let cases: &[(&str, &[&str], Option<u64>)] = &[
        ("all", &["the"], None),
        ("all", &["the", "of"], Some(3)),
        ("any", &["the", "of", "zzznope"], Some(5)),
        ("phrase", &["of the"], None),
    ];
    let mut total_hits = 0usize;
    for (corpus, index) in corpora() {
        for &(mode, terms, limit) in cases {
            let query = FtQuery::new(FtMode::parse(mode).unwrap(), terms);
            let mut expected = String::new();
            render_search_outcome(
                &query_display(&query),
                &search_target(
                    &BatchExecutor::new(1),
                    &**index,
                    corpus,
                    &query,
                    limit.map(|l| l as usize),
                )
                .unwrap(),
                &mut expected,
            );
            match client.send(&search_request(Some(corpus), mode, limit, terms)).unwrap() {
                Response::Ok { body, .. } => {
                    assert_eq!(body, expected, "{corpus} {mode} {terms:?}");
                    let hits: usize = body
                        .split(": ")
                        .nth(1)
                        .and_then(|r| r.split(' ').next())
                        .and_then(|n| n.parse().ok())
                        .unwrap_or_else(|| panic!("unparsable search body: {body}"));
                    total_hits += hits;
                }
                Response::Err { code, message } => {
                    panic!("{corpus} {mode} {terms:?}: error frame {code} {message}")
                }
            }
        }
    }
    // The shared terms are common English words, so the sweep must have
    // found something somewhere — otherwise the test is vacuous.
    assert!(total_hits > 0, "no hits across any corpus/case combination");

    // Repeats hit the dedicated search cache, from another connection too.
    let (corpus, _) = &corpora()[0];
    let mut second = Client::connect_tcp(&addr).unwrap();
    let detail = match second.send(&search_request(Some(corpus), "all", None, &["the"])).unwrap() {
        Response::Ok { detail, .. } => detail,
        other => panic!("{other:?}"),
    };
    assert!(detail.contains("cache_hits=1"), "detail was '{detail}'");
    let stats = second.stats().unwrap();
    assert!(stat(&stats, "search_cache_hits") >= 1, "stats:\n{stats}");
    assert!(stat(&stats, "search_cache_misses") >= 1, "stats:\n{stats}");

    // Malformed requests come back as structured error frames.
    for payload in [
        "search mode=bogus\nterm",
        "search",
        "search index=xmark\n...", // punctuation holds no token bytes
        "search index=nosuch\nterm",
    ] {
        match second.request(payload.as_bytes()).unwrap() {
            Response::Err { code, .. } => assert!(
                matches!(code, ErrorCode::BadArgument | ErrorCode::UnknownIndex),
                "{payload}: unexpected code {code}"
            ),
            other => panic!("{payload}: expected an error frame, got {other:?}"),
        }
    }
    stop(&server, handle);
}

/// `--queries-file` hygiene: indented `#` comments and whitespace-only
/// lines are skipped, not submitted as queries (the parse would
/// otherwise fail the whole batch), and surrounding whitespace is
/// stripped off real queries.
#[test]
fn queries_file_skips_indented_comments_and_blank_lines() {
    let dir = std::env::temp_dir().join(format!("sxsi-qfile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idx = built_index_file(&dir);
    let qfile = dir.join("batch.txt");
    std::fs::write(
        &qfile,
        "# plain comment\n  # indented comment\n\n   \n\t\n  //item  \nq1\t//person\n",
    )
    .unwrap();

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_sxsi"))
        .args(["query", idx.to_str().unwrap(), "--queries-file", qfile.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8(output.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    // Exactly the two real queries survive the filter.
    assert_eq!(lines.len(), 2, "stdout: {stdout}");
    assert!(lines[0].starts_with("//item: "), "stdout: {stdout}");
    assert!(lines[1].starts_with("q1: "), "stdout: {stdout}");

    // A file holding only comments and blanks is an empty batch, and says so.
    std::fs::write(&qfile, "  # only\n\n   \n").unwrap();
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_sxsi"))
        .args(["query", idx.to_str().unwrap(), "--queries-file", qfile.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("code=empty-batch"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// A small served collection beside a single index, for the tests that
/// pin the one query path on both target kinds.
fn collection_and_single(tag: &str, options: ServeOptions) -> (Server, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("sxsi-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let docs = vec![
        ("d1".to_string(), SxsiIndex::build_from_xml(b"<a><b>one</b><c/></a>").unwrap()),
        ("d2".to_string(), SxsiIndex::build_from_xml(b"<a><b/><b>two</b></a>").unwrap()),
    ];
    let collection = sxsi_collection::Collection::build(dir.join("col.sxsic"), docs).unwrap();
    let (_, single) = &corpora()[0];
    let server = Server::new_served(
        vec![
            ("col".to_string(), ServedIndex::Collection(Arc::new(collection))),
            ("single".to_string(), ServedIndex::Single(Arc::clone(single))),
        ],
        options,
    )
    .unwrap();
    (server, dir)
}

/// Collections prepare through the plan cache too: with the result cache
/// off, a repeated query re-runs but re-uses its per-document plans.
#[test]
fn collection_plans_are_served_from_the_plan_cache() {
    let options = ServeOptions { result_cache_capacity: 0, ..ServeOptions::default() };
    let (server, dir) = collection_and_single("plans", options);
    for output in ["count", "nodes"] {
        let payload = format!("query index=col output={output}\n//b");
        match Response::parse(&server.handle_command(payload.as_bytes()).0) {
            Some(Response::Ok { .. }) => {}
            other => panic!("{output}: {other:?}"),
        }
    }
    let stats = server.render_stats();
    assert_eq!(stat(&stats, "plan_cache_hits"), 1, "stats:\n{stats}");
    assert_eq!(stat(&stats, "plan_cache_misses"), 1, "stats:\n{stats}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A query that parses but compiles to an unsupported shape answers
/// `error code=unsupported-query` on every target kind — the daemon's
/// form of the CLI's exit 3.
#[test]
fn unsupported_queries_answer_unsupported_query_on_every_target_kind() {
    let (server, dir) = collection_and_single("unsupported", ServeOptions::default());
    for index in ["col", "single"] {
        let payload = format!("query index={index}\n//b\n//a/@id/b");
        let (frame, _) = server.handle_command(payload.as_bytes());
        assert!(String::from_utf8_lossy(&frame).starts_with("error code=unsupported-query "));
        match Response::parse(&frame) {
            Some(Response::Err { code, .. }) => assert_eq!(code, ErrorCode::UnsupportedQuery),
            other => panic!("{index}: {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An empty XPath expression is an operand like any other: the wire
/// carries it through to prepare, so the daemon answers `parse-error`
/// exactly as `sxsi query` exits 1 on it, and `sxsi client` does too.
#[test]
fn empty_expression_is_a_parse_error_on_every_path() {
    let (corpus, index) = &corpora()[0];
    let (server, addr, handle) =
        start(vec![(corpus.to_string(), Arc::clone(index))], ServeOptions::default());
    let (frame, _) = server.handle_command(b"query output=count\n\n//item");
    assert!(
        String::from_utf8_lossy(&frame).starts_with("error code=parse-error query=''"),
        "{}",
        String::from_utf8_lossy(&frame)
    );

    let dir = std::env::temp_dir().join(format!("sxsi-empty-xpath-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idx = built_index_file(&dir);
    let sxsi = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_sxsi")).args(args).output().unwrap()
    };
    for output in [
        sxsi(&["query", idx.to_str().unwrap(), "", "//item"]),
        sxsi(&["client", "--tcp", &addr, "query", "", "//item"]),
    ] {
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
        assert!(output.stdout.is_empty(), "printed before failing");
        assert!(stderr.contains("sxsi: error=parse-error query=''"), "stderr: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    stop(&server, handle);
}

/// The one request path: for every paper query in four output shapes and
/// for the search cases above, on a single index and on a 3-document
/// collection, the request `sxsi query|exists|search` parses from its
/// argv answers in process with exactly the body the daemon renders for
/// the hand-built frame, the request `sxsi client` parses survives the
/// wire codec unchanged (M11's newlines included), and the flags each
/// command has always rejected are still rejected.
#[test]
fn argv_and_frame_requests_share_one_answer_path() {
    let dir = std::env::temp_dir().join(format!("sxsi-one-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let docs = (1..=3)
        .map(|seed| {
            let xml = xmark::generate(&XMarkConfig { scale: 0.01, seed });
            (format!("doc{seed}"), SxsiIndex::build_from_xml(xml.as_bytes()).unwrap())
        })
        .collect();
    let collection =
        Arc::new(sxsi_collection::Collection::build(dir.join("col.sxsic"), docs).unwrap());
    let (_, single) = &corpora()[0];
    let targets = [
        ("single", ServedIndex::Single(Arc::clone(single))),
        ("col", ServedIndex::Collection(collection)),
    ];
    let server = Server::new_served(
        targets.iter().map(|(id, target)| (id.to_string(), target.clone())).collect(),
        ServeOptions { threads: 2, ..ServeOptions::default() },
    )
    .unwrap();
    let args = |argv: &[&str]| argv.iter().map(|a| a.to_string()).collect::<Vec<_>>();
    let daemon_body = |payload: &str| {
        match Response::parse(&server.handle_command(payload.as_bytes()).0) {
            Some(Response::Ok { body, .. }) => body,
            other => panic!("{payload:?}: {other:?}"),
        }
    };
    let executor = BatchExecutor::new(2);
    let shapes: &[(&str, &[&str], OutputKind, &str, u64)] = &[
        ("query", &[], OutputKind::Count, "none", 0),
        ("query", &["--materialize"], OutputKind::Nodes, "none", 0),
        ("query", &["--serialize", "--limit", "2", "--offset", "1"], OutputKind::Serialize, "2", 1),
        ("exists", &[], OutputKind::Exists, "none", 0),
    ];
    let searches: &[(&str, &[&str], Option<u64>)] = &[
        ("all", &["the"], None),
        ("all", &["the", "of"], Some(3)),
        ("any", &["the", "of", "zzznope"], Some(5)),
        ("phrase", &["of the"], None),
    ];
    for (id, target) in &targets {
        let path = format!("{id}.sxsi");
        // (op, flags then operands, the frame perfbench builds by hand)
        let mut cases: Vec<(&str, Vec<String>, String)> = Vec::new();
        for q in paper_queries() {
            for &(op, flags, output, limit, offset) in shapes {
                let payload = format!(
                    "query index={id} output={} limit={limit} offset={offset}\n{}",
                    output.as_str(),
                    escape_query(q.xpath)
                );
                cases.push((op, args(&[flags, &[q.xpath]].concat()), payload));
            }
        }
        for &(mode, terms, limit) in searches {
            let limit = limit.map_or("none".to_string(), |l| l.to_string());
            let mut tail = args(&["--mode", mode]);
            if limit != "none" {
                tail.extend(args(&["--limit", &limit]));
            }
            tail.extend(args(terms));
            let mut payload = format!("search index={id} mode={mode} limit={limit}");
            for term in terms {
                payload.push('\n');
                payload.push_str(&escape_query(term));
            }
            cases.push(("search", tail, payload));
        }
        for (op, tail, payload) in cases {
            let context = format!("{id} {op} {tail:?}");
            let local_argv = [vec![path.clone()], tail.clone()].concat();
            let (local, threads) = parse_args(op, &local_argv, true).unwrap();
            assert_eq!((local.index.as_deref(), threads), (Some(path.as_str()), 1), "{context}");
            let client_argv = [args(&["--index", id]), tail].concat();
            let (remote, _) = parse_args(op, &client_argv, false).unwrap();
            assert_eq!(remote.index.as_deref(), Some(*id), "{context}");
            assert_eq!(remote.op, local.op, "{context}");
            assert_eq!(Request::decode(&remote.encode()), Ok(remote.clone()), "{context}");
            assert_eq!(Request::decode(&payload).map(|r| r.op), Ok(remote.op.clone()), "{context}");
            let (_, body) = answer(&executor, target, id, &local, &())
                .unwrap_or_else(|e| panic!("{context}: {e:?}"));
            assert_eq!(body, daemon_body(&payload), "{context}");
            assert_eq!(body, daemon_body(&remote.encode()), "{context}");
        }
    }
    for (op, argv, local) in [
        ("exists", &["--limit", "1", "//a"][..], false),
        ("exists", &["x.sxsi", "--offset", "1", "//a"], true),
        ("query", &["x.sxsi", "--index", "a", "//a"], true),
        ("search", &["--offset", "1", "term"], false),
        ("search", &["x.sxsi", "--offset", "1", "term"], true),
    ] {
        let rejected = parse_args(op, &args(argv), local);
        assert!(matches!(rejected, Err(ArgError::Usage(_))), "{op} {argv:?}: {rejected:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
