//! The `sxsi` command-line tool: build, query and inspect `.sxsi` index
//! files.
//!
//! ```text
//! sxsi build   <input.xml> <output.sxsi> [--sample-rate N] [--keep-whitespace]
//! sxsi build-collection <output.sxsic> <doc.xml|doc.sxsi> ... [build options]
//! sxsi query   <index.sxsi|collection.sxsic> [<xpath> ...]
//!              [--queries-file FILE] [--materialize] [--serialize]
//!              [--limit N] [--offset N] [--threads N]
//! sxsi exists  <index.sxsi|collection.sxsic> <xpath> [<xpath> ...]
//!              [--threads N]
//! sxsi search  <index.sxsi|collection.sxsic> <term> [<term> ...]
//!              [--mode all|any|phrase] [--limit N] [--threads N]
//! sxsi info    <index.sxsi|collection.sxsic>
//! sxsi verify  <index.sxsi|collection.sxsic> [--deep]
//! sxsi serve   <[id=]index.sxsi|.sxsic> ... (--socket PATH | --tcp ADDR) [options]
//! sxsi client  (--socket PATH | --tcp ADDR) <op> [op options]
//! sxsi queries [--set paper|ordered] [--print0]
//! ```
//!
//! `build` parses the XML once and writes the versioned binary container;
//! `query` loads the container (no re-parsing, no BWT reconstruction) and
//! runs the given XPath expressions through the parallel
//! [`BatchExecutor`] (counts by default; `--limit`/`--offset` select a
//! document-order result window with early termination); `exists` answers
//! existence only, stopping at the first match; `info` prints the stats a
//! capacity planner needs (node/text/tag counts and per-component sizes).
//!
//! `search` runs ranked keyword (`ft:`) search straight off the FM-index:
//! hits print best-first as `{doc}:{preorder} score=…` lines, and on a
//! collection the per-document shards fan out across the batch pool and
//! merge into one globally ranked list (see `docs/search.md`).
//!
//! `serve` keeps the loaded indexes warm in a daemon answering requests
//! over a framed socket protocol (`docs/protocol.md`) with plan, result
//! and search LRU caches plus live metrics; `client` sends a daemon the
//! request `query`/`exists`/`search` parse from the same arguments and
//! answer in process, so it prints the same bytes (`sxsi_engine::request`);
//! `queries` lists the paper's query sets for scripting (`--print0`
//! because query M11 contains literal newlines).
//!
//! Exit codes (documented in `docs/guide.md`):
//!
//! * `0` — success (`exists`: every query matched at least one node)
//! * `1` — runtime failure (missing files, corrupt indexes, parse errors)
//! * `2` — usage error (unknown flags, missing operands)
//! * `3` — a query parsed but compiles to a shape this engine does not
//!   support; stderr carries a structured
//!   `sxsi: error=unsupported-query query='…' detail='…'` line
//! * `4` — `exists` ran fine but at least one query matched nothing
//! * `5` — `verify` loaded the index but found invariant violations; each
//!   is printed as an `error code=… path=… detail=…` line

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sxsi::{SxsiIndex, SxsiOptions, Verify, VerifyDepth};
use sxsi_collection::{is_collection_path, verify_collection_file, Collection};
use sxsi_engine::request::{answer, parse_args, ArgError};
use sxsi_engine::server::client::Client;
use sxsi_engine::server::protocol::Response;
use sxsi_engine::server::{Listener, ServeOptions, ServedIndex, Server};
use sxsi_engine::{BatchExecutor, Target};

const USAGE: &str = "\
usage:
  sxsi build   <input.xml> <output.sxsi> [--sample-rate N] [--keep-whitespace]
  sxsi build-collection <output.sxsic> <doc.xml|doc.sxsi> [<doc> ...]
               [build options]
  sxsi query   <index.sxsi|collection.sxsic> [<xpath> ...]
               [--queries-file FILE] [--materialize] [--serialize]
               [--limit N] [--offset N] [--threads N]
  sxsi exists  <index.sxsi|collection.sxsic> <xpath> [<xpath> ...]
               [--threads N]
  sxsi search  <index.sxsi|collection.sxsic> <term> [<term> ...]
               [--mode all|any|phrase] [--limit N] [--threads N]
  sxsi info    <index.sxsi|collection.sxsic>
  sxsi verify  <index.sxsi|collection.sxsic> [--deep]
  sxsi serve   <[id=]index.sxsi|.sxsic> [<[id=]index> ...]
               (--socket PATH | --tcp ADDR) [--threads N]
               [--plan-cache N] [--result-cache N] [--read-timeout SECS]
  sxsi client  (--socket PATH | --tcp ADDR) <op> [op options]
               ops: query [--index ID] [--materialize|--serialize]
                          [--limit N] [--offset N] <xpath> [<xpath> ...]
                    exists [--index ID] <xpath> [<xpath> ...]
                    search [--index ID] [--mode all|any|phrase] [--limit N]
                           <term> [<term> ...]
                    stats | info | ping | shutdown
  sxsi queries [--set paper|ordered] [--print0]

subcommands:
  build    parse the XML document and write a versioned .sxsi index file
  build-collection
           index several documents into per-document .sxsi segments plus
           a checksummed .sxsic manifest; inputs may be XML files (built
           with the build options) or prebuilt .sxsi indexes
  query    load a .sxsi file (or a .sxsic collection: queries fan out
           across its documents and come back merged in document order,
           DocId-qualified) and run XPath queries (counts by default)
  exists   report true/false per query, stopping at the first match
  search   ranked keyword search (the ft: predicates, standalone): terms
           are tokenized and matched whole against element subtrees via
           the FM-index; hits print best-first as {doc}:{preorder} with a
           tf-idf style score (collections merge per-document shards)
  info     print size and cardinality statistics of a .sxsi file, or the
           manifest summary of a .sxsic collection
  verify   audit a .sxsi file: per-section checksums, then the structural
           invariants of every loaded component (--deep adds full
           sequence/walk replays; see docs/verification.md); on a .sxsic
           collection, audit the manifest and every segment instead
  serve    answer queries from warm indexes over a framed socket protocol,
           with plan, result and search LRU caches and live metrics (see
           docs/protocol.md); a .sxsic collection is served as one warm
           logical index
  client   send ops to a running daemon; query/exists/search bodies are
           byte-identical to the in-process query/exists/search subcommands
  queries  list the paper's query sets as id<TAB>xpath records for
           scripting (--print0 emits NUL terminators: M11 contains newlines)

build options:
  --sample-rate N    locate sampling step (default 64; smaller = faster
                     locate, larger = smaller index)
  --keep-whitespace  keep whitespace-only text nodes

query options:
  --materialize      print the selected node identifiers, not just counts
  --serialize        print the XML serialization of every selected node
  --limit N          produce at most N result nodes (document order; the
                     evaluators stop early once the window is complete)
  --offset N         skip the first N result nodes (pagination)
  --threads N        worker threads for multi-query batches (default 1);
                     for collections, per-document shard workers
  --queries-file F   append queries from F: one per line, either
                     'id<TAB>xpath' or a bare xpath; blank lines and
                     lines starting with # are skipped

search options:
  --mode M           all (default: every term somewhere in the subtree),
                     any (at least one term), or phrase (terms consecutive
                     inside one text node)
  --limit N          print at most the N best-scoring hits
  --threads N        per-document shard workers on collections (default 1)

serve options:
  --socket PATH      listen on a Unix-domain socket (removed on shutdown)
  --tcp ADDR         listen on a TCP address (port 0 picks one; the bound
                     address is printed as 'listening on ...')
  --threads N        executor worker threads (default: available cores)
  --plan-cache N     compiled-plan LRU entries (default 128, 0 disables)
  --result-cache N   result LRU entries, and as many search LRU entries
                     (default 128, 0 disables both)
  --read-timeout S   per-connection idle timeout in seconds (default 30)

exit codes: 0 success, 1 runtime failure, 2 usage error,
            3 unsupported query shape, 4 exists found no match,
            5 verify found invariant violations

`sxsi query --help` additionally prints the supported XPath fragment.
";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("sxsi: {message}\n\n{USAGE}");
    ExitCode::from(2)
}

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("sxsi: {message}");
    ExitCode::FAILURE
}

/// Exits for a command line that makes no request.
fn arg_error(error: ArgError) -> ExitCode {
    match error {
        ArgError::Usage(message) => usage_error(&message),
        ArgError::Failed(message) => fail(message),
    }
}

/// Prints an answer, in process or from a daemon alike, and maps it onto
/// the exit taxonomy: a query that parses but compiles to a shape the
/// engine does not support exits 3, so callers can tell "fix the query"
/// apart from "engine limitation"; `exists` exits 4 when a query matched
/// nothing.
fn report(response: Response, note: &str) -> ExitCode {
    match response {
        // A closed pipe stops the printing, not the answer: `exists`
        // still reports through its exit code.
        Response::Ok { detail, body } => {
            if let Err(code) = print_stdout(body.as_bytes()) {
                return code;
            }
            if !detail.is_empty() {
                eprintln!("{note}: {detail}");
            }
            ExitCode::from(if detail.contains("all_found=false") { 4 } else { 0 })
        }
        Response::Err { code, message } => {
            eprintln!("sxsi: error={code} {message}");
            ExitCode::from(code.exit_code())
        }
    }
}

/// Prints usage plus the XPath fragment summary.  The summary is generated
/// by `sxsi_xpath::fragment_help` from the parser's own axis table, so this
/// help text cannot drift from what the parser accepts.
fn print_help() -> ExitCode {
    finish(&format!("{USAGE}\n{}\n", sxsi_xpath::fragment_help()), ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return print_help();
    }
    match args.first().map(String::as_str) {
        Some("build") => cmd_build(&args[1..]),
        Some("build-collection") => cmd_build_collection(&args[1..]),
        Some(op @ ("query" | "exists" | "search")) => cmd_request(op, &args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("queries") => cmd_queries(&args[1..]),
        Some("help") => print_help(),
        Some(other) => usage_error(&format!("unknown subcommand '{other}'")),
        None => usage_error("missing subcommand"),
    }
}

fn parse_number(args: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} expects a non-negative integer"))
}

/// Splits `build`/`build-collection` arguments into the build options
/// and the positional paths.
fn parse_build_args(args: &[String]) -> Result<(SxsiOptions, Vec<&String>), ExitCode> {
    let mut options = SxsiOptions::default();
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sample-rate" => match parse_number(&mut it, "--sample-rate") {
                Ok(n) if n > 0 => options.sample_rate = n,
                Ok(_) | Err(_) => {
                    return Err(usage_error("--sample-rate expects a positive integer"))
                }
            },
            "--keep-whitespace" => options.keep_whitespace_text = true,
            flag if flag.starts_with("--") => {
                return Err(usage_error(&format!("unknown option '{flag}'")))
            }
            _ => paths.push(arg),
        }
    }
    Ok((options, paths))
}

/// The file stem of `path`: a collection's document name, a served
/// index's default id, and a single index's search-hit label.
fn file_stem(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

fn cmd_build(args: &[String]) -> ExitCode {
    let (options, paths) = match parse_build_args(args) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let [input, output] = paths[..] else {
        return usage_error("build expects <input.xml> and <output.sxsi>");
    };

    let xml = match std::fs::read(input) {
        Ok(xml) => xml,
        Err(e) => return fail(format_args!("cannot read {input}: {e}")),
    };
    let xml_len = xml.len();
    let start = Instant::now();
    // Only the parse reads the XML: free it before the index build.
    let doc = SxsiIndex::parse_xml(&xml, &options);
    drop(xml);
    let index = match doc {
        Ok(doc) => SxsiIndex::from_parsed_document(doc, options),
        Err(e) => return fail(e),
    };
    let build_time = start.elapsed();
    let start = Instant::now();
    if let Err(e) = index.save_to_file(output) {
        return fail(format_args!("cannot write {output}: {e}"));
    }
    let write_time = start.elapsed();

    let stats = index.stats();
    let file_bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "indexed {input} ({xml_len} bytes of XML) in {build_time:.2?}");
    let _ = writeln!(
        out,
        "  {} nodes, {} elements, {} texts, {} tags",
        stats.num_nodes, stats.num_elements, stats.num_texts, stats.num_tags
    );
    let _ = writeln!(
        out,
        "  in-memory {} bytes (tree {} + text index {} + plain text {})",
        stats.total_bytes(),
        stats.tree_bytes,
        stats.text_index_bytes,
        stats.plain_text_bytes
    );
    let _ = writeln!(out, "wrote {output} ({file_bytes} bytes) in {write_time:.2?}");
    finish(&out, ExitCode::SUCCESS)
}

/// `sxsi build-collection`: index several documents into per-document
/// `.sxsi` segments plus a checksummed `.sxsic` manifest.  XML inputs
/// are built with the usual build options; `.sxsi` inputs are loaded
/// as-is.  Document names are the input file stems, in argument order
/// (which fixes DocId order and therefore global document order).
fn cmd_build_collection(args: &[String]) -> ExitCode {
    let (options, paths) = match parse_build_args(args) {
        Ok(parsed) => parsed,
        Err(code) => return code,
    };
    let Some((output, inputs)) = paths.split_first() else {
        return usage_error("build-collection expects <output.sxsic> and at least one document");
    };
    if inputs.is_empty() {
        return usage_error("build-collection expects at least one <doc.xml|doc.sxsi>");
    }

    let start = Instant::now();
    let mut docs: Vec<(String, SxsiIndex)> = Vec::new();
    for input in inputs {
        let name = file_stem(input);
        let index = if input.ends_with(".sxsi") {
            match SxsiIndex::load_from_file(input) {
                Ok(index) => index,
                Err(e) => return fail(format_args!("cannot load {input}: {e}")),
            }
        } else {
            let doc = match std::fs::read(input) {
                Ok(xml) => SxsiIndex::parse_xml(&xml, &options),
                Err(e) => return fail(format_args!("cannot read {input}: {e}")),
            };
            match doc {
                Ok(doc) => SxsiIndex::from_parsed_document(doc, options.clone()),
                Err(e) => return fail(format_args!("cannot index {input}: {e}")),
            }
        };
        docs.push((name, index));
    }
    let num_docs = docs.len();
    let collection = match Collection::build(output, docs) {
        Ok(collection) => collection,
        Err(e) => return fail(format_args!("cannot write {output}: {e}")),
    };
    let manifest = collection.manifest();
    let manifest_bytes = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "collected {num_docs} documents into {output} in {:.2?}",
        start.elapsed()
    );
    let _ = writeln!(
        out,
        "  {} elements, {} texts across the collection",
        manifest.total_elements, manifest.total_texts
    );
    for entry in &manifest.docs {
        let _ = writeln!(
            out,
            "  doc {}: {} (segment {}, {} nodes)",
            entry.id, entry.name, entry.segment, entry.num_nodes
        );
    }
    let _ = writeln!(
        out,
        "  manifest {manifest_bytes} bytes, fingerprint {:016x}",
        collection.fingerprint()
    );
    finish(&out, ExitCode::SUCCESS)
}

/// Opens the target of `query`, `exists`, `search` and `serve`: a `.sxsic`
/// collection (manifest only — segments load on first use) when the path
/// ends in `.sxsic` or the file opens with the manifest magic, a single
/// `.sxsi` index otherwise.
fn open_target(path: &str) -> Result<ServedIndex, ExitCode> {
    let cannot = |e: &dyn std::fmt::Display| fail(format_args!("cannot load {path}: {e}"));
    Ok(if is_collection_path(path) {
        ServedIndex::Collection(Arc::new(Collection::open(path).map_err(|e| cannot(&e))?))
    } else {
        ServedIndex::Single(Arc::new(SxsiIndex::load_from_file(path).map_err(|e| cannot(&e))?))
    })
}

/// `sxsi query`, `sxsi exists` and `sxsi search` over an index or a
/// collection, answered in process exactly as the daemon answers the same
/// request.  A single index labels its search hits with its file stem,
/// which is also the id `sxsi serve` derives for a bare path.
fn cmd_request(op: &str, args: &[String]) -> ExitCode {
    let (request, threads) = match parse_args(op, args, true) {
        Ok(parsed) => parsed,
        Err(e) => return arg_error(e),
    };
    let path = request.index.clone().unwrap_or_default();
    let start = Instant::now();
    let target = match open_target(&path) {
        Ok(target) => target,
        Err(code) => return code,
    };
    eprintln!("loaded {path} in {:.2?}", start.elapsed());
    let start = Instant::now();
    let executor = BatchExecutor::new(threads);
    let response = match answer(&executor, &target, &file_stem(&path), &request, &()) {
        Ok((detail, body)) => Response::Ok { detail, body },
        Err((code, message)) => Response::Err { code, message },
    };
    let note = format!(
        "answered across {} docs in {:.2?} on {threads} thread(s)",
        target.num_docs(),
        start.elapsed()
    );
    report(response, &note)
}

/// Writes `bytes` to stdout.  A closed downstream pipe
/// (`sxsi query … | head`) is normal usage, not a failure: printing
/// stops but the process exits cleanly.
fn print_stdout(bytes: &[u8]) -> Result<(), ExitCode> {
    let mut out = io::stdout().lock();
    match out.write_all(bytes).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            Err(fail(format_args!("cannot write to stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// Prints a command's output, then exits with `code`: only a failed
/// write other than a closed pipe changes it.
fn finish(out: &str, code: ExitCode) -> ExitCode {
    print_stdout(out.as_bytes()).err().unwrap_or(code)
}

fn cmd_info(args: &[String]) -> ExitCode {
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return usage_error(&format!("unknown option '{flag}'"));
    }
    let [path] = args else {
        return usage_error("info expects exactly one <index.sxsi>");
    };
    if is_collection_path(path.as_str()) {
        return cmd_info_collection(path);
    }
    let start = Instant::now();
    let index = match SxsiIndex::load_from_file(path) {
        Ok(index) => index,
        Err(e) => {
            // Structured (unlike the generic `cannot load` of query paths)
            // so scripts can tell "info target missing/corrupt" apart from
            // other failures without parsing prose.
            eprintln!("sxsi: error code=info-open path='{path}' detail='{e}'");
            return ExitCode::FAILURE;
        }
    };
    let load_time = start.elapsed();

    let stats = index.stats();
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(out, "{path} (format v{}, {file_bytes} bytes on disk, loaded in {load_time:.2?})", sxsi::FORMAT_VERSION);
    let _ = writeln!(out, "  nodes:        {}", stats.num_nodes);
    let _ = writeln!(out, "  elements:     {}", stats.num_elements);
    let _ = writeln!(out, "  texts:        {}", stats.num_texts);
    let _ = writeln!(out, "  tags:         {}", stats.num_tags);
    let _ = writeln!(out, "  tree index:   {} bytes", stats.tree_bytes);
    let _ = writeln!(out, "  text index:   {} bytes", stats.text_index_bytes);
    let space = index.texts().index_space();
    let symbols = index.texts().total_len();
    let bits_per_symbol = if symbols == 0 { 0.0 } else { space.bwt as f64 * 8.0 / symbols as f64 };
    let _ = writeln!(out, "    BWT:             {} bytes ({bits_per_symbol:.2} bits/symbol over {symbols} symbols)", space.bwt);
    let _ = writeln!(out, "    sampling bitmap: {} bytes", space.sampled);
    let _ = writeln!(out, "    samples:         {} bytes", space.samples);
    let _ = writeln!(out, "    Doc:             {} bytes", space.doc);
    let _ = writeln!(out, "    starts:          {} bytes", space.starts);
    let _ = writeln!(out, "  plain texts:  {} bytes", stats.plain_text_bytes);
    let _ = writeln!(out, "  total memory: {} bytes", stats.total_bytes());
    let _ = writeln!(out, "  options: sample_rate={}", index.texts().fm_index().sample_rate());
    // Per-section framing status straight from the file, independent of the
    // load above (a section the loader rebuilt fine can still be reported).
    match sxsi::scan_container_file(path) {
        Ok(scan) => {
            let _ = writeln!(out, "  sections:");
            for section in &scan.sections {
                let _ = writeln!(
                    out,
                    "    {:<8} {:>10} bytes  checksum {}",
                    section.name,
                    section.length,
                    if section.checksum_ok { "ok" } else { "BAD" }
                );
            }
            if !scan.clean_end {
                let _ = writeln!(out, "    (container does not end cleanly after the last section)");
            }
        }
        Err(e) => {
            let _ = writeln!(out, "  sections: unreadable ({e})");
        }
    }
    let report = index.verify(VerifyDepth::Quick);
    let _ = writeln!(out, "  verify (quick): {report}");
    finish(&out, ExitCode::SUCCESS)
}

/// `sxsi info` on a `.sxsic` collection: the manifest summary plus a
/// quick verification (manifest invariants, segment presence and
/// checksums — no segment loads).
fn cmd_info_collection(path: &str) -> ExitCode {
    let start = Instant::now();
    let collection = match Collection::open(path) {
        Ok(collection) => collection,
        Err(e) => {
            eprintln!("sxsi: error code=info-open path='{path}' detail='{e}'");
            return ExitCode::FAILURE;
        }
    };
    let load_time = start.elapsed();
    let manifest = collection.manifest();
    let file_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{path} (collection format v{}, {file_bytes} bytes on disk, loaded in {load_time:.2?})",
        sxsi_collection::manifest::COLLECTION_FORMAT_VERSION
    );
    let _ = writeln!(out, "  documents:      {}", manifest.num_docs());
    let _ = writeln!(out, "  total elements: {}", manifest.total_elements);
    let _ = writeln!(out, "  total texts:    {}", manifest.total_texts);
    let _ = writeln!(out, "  fingerprint:    {:016x}", collection.fingerprint());
    for entry in &manifest.docs {
        let _ = writeln!(
            out,
            "  doc {}: {} segment={} nodes={} elements={} texts={} checksum={:016x}",
            entry.id,
            entry.name,
            entry.segment,
            entry.num_nodes,
            entry.num_elements,
            entry.num_texts,
            entry.checksum
        );
    }
    let report = collection.verify(VerifyDepth::Quick);
    let _ = writeln!(out, "  verify (quick): {report}");
    finish(&out, ExitCode::SUCCESS)
}

/// `sxsi verify`: audit the container framing and every structural
/// invariant of the loaded index.  Exit 0 when clean, 1 when the file
/// cannot be loaded at all, 5 when the index loads but verification finds
/// violations (each printed as a structured `error code=…` line).
fn cmd_verify(args: &[String]) -> ExitCode {
    let mut deep = false;
    let mut positional: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--deep" => deep = true,
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown option '{flag}'"))
            }
            _ => positional.push(arg),
        }
    }
    let [path] = positional[..] else {
        return usage_error("verify expects exactly one <index.sxsi>");
    };
    let depth = if deep { VerifyDepth::Deep } else { VerifyDepth::Quick };

    if is_collection_path(path.as_str()) {
        // Collections: manifest invariants, segment presence and
        // checksums; --deep re-decodes every segment, cross-checks its
        // counts against the manifest, and verifies the loaded index.
        let start = Instant::now();
        let report = verify_collection_file(path.as_str(), depth);
        let out = format!(
            "{path}: collection verify ({}) in {:.2?}: {report}\n",
            if deep { "deep" } else { "quick" },
            start.elapsed()
        );
        return finish(&out, if report.is_ok() { ExitCode::SUCCESS } else { ExitCode::from(5) });
    }

    // Stage 1: container framing.  The scan does not stop at a bad
    // checksum, so every damaged section is reported, not just the first.
    let mut out = String::new();
    let mut framing_ok = true;
    match sxsi::scan_container_file(path) {
        Ok(scan) => {
            let _ = writeln!(out, "{path}: container format v{}", scan.version);
            for section in &scan.sections {
                let _ = writeln!(
                    out,
                    "  section {:<8} {:>10} bytes  checksum {}",
                    section.name,
                    section.length,
                    if section.checksum_ok { "ok" } else { "BAD" }
                );
                framing_ok &= section.checksum_ok;
            }
            if !scan.clean_end {
                let _ = writeln!(out, "  container does not end cleanly after the last section");
                framing_ok = false;
            }
        }
        Err(e) => return fail(format_args!("cannot scan {path}: {e}")),
    }

    // Stage 2: structural invariants of the loaded index.
    let start = Instant::now();
    let index = match SxsiIndex::load_from_file(path) {
        Ok(index) => index,
        Err(e) => return finish(&out, fail(format_args!("cannot load {path}: {e}"))),
    };
    let _ = writeln!(out, "loaded in {:.2?}", start.elapsed());
    let start = Instant::now();
    let report = index.verify(depth);
    let _ = writeln!(
        out,
        "verify ({}) in {:.2?}: {report}",
        if deep { "deep" } else { "quick" },
        start.elapsed()
    );
    finish(&out, if report.is_ok() && framing_ok { ExitCode::SUCCESS } else { ExitCode::from(5) })
}

/// `sxsi serve`: load the indexes once, then answer queries over a
/// framed socket until a `shutdown` command arrives.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut socket: Option<&String> = None;
    let mut tcp: Option<&String> = None;
    let mut options = ServeOptions::default();
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => match it.next() {
                Some(path) => socket = Some(path),
                None => return usage_error("--socket expects a path"),
            },
            "--tcp" => match it.next() {
                Some(addr) => tcp = Some(addr),
                None => return usage_error("--tcp expects an address like 127.0.0.1:7878"),
            },
            "--threads" => match parse_number(&mut it, "--threads") {
                Ok(n) => options.threads = n,
                Err(e) => return usage_error(&e),
            },
            "--plan-cache" => match parse_number(&mut it, "--plan-cache") {
                Ok(n) => options.plan_cache_capacity = n,
                Err(e) => return usage_error(&e),
            },
            "--result-cache" => match parse_number(&mut it, "--result-cache") {
                Ok(n) => options.result_cache_capacity = n,
                Err(e) => return usage_error(&e),
            },
            "--read-timeout" => match parse_number(&mut it, "--read-timeout") {
                Ok(n) if n > 0 => options.read_timeout = Duration::from_secs(n as u64),
                Ok(_) | Err(_) => return usage_error("--read-timeout expects seconds > 0"),
            },
            flag if flag.starts_with("--") => {
                return usage_error(&format!("unknown option '{flag}'"))
            }
            _ => positional.push(arg),
        }
    }
    if positional.is_empty() {
        return usage_error("serve expects at least one <[id=]index.sxsi>");
    }
    let (socket, tcp) = match (socket, tcp) {
        (Some(s), None) => (Some(s), None),
        (None, Some(t)) => (None, Some(t)),
        _ => return usage_error("serve expects exactly one of --socket or --tcp"),
    };

    let mut indexes: Vec<(String, ServedIndex)> = Vec::new();
    for spec in positional {
        // `id=path` names the index explicitly; a bare path uses its
        // file stem as the id.
        let (id, path) = match spec.split_once('=') {
            Some((id, path)) => (id.to_string(), path),
            None => (file_stem(spec), spec.as_str()),
        };
        let start = Instant::now();
        let target = match open_target(path) {
            Ok(target) => target,
            Err(code) => return code,
        };
        // Served warm: every segment of a collection is loaded (and
        // checksum-validated) up front so queries never pay a lazy load.
        if let Err(e) = (0..target.num_docs()).try_for_each(|doc| target.doc_index(doc).map(drop)) {
            return fail(format_args!("cannot load {path}: {e}"));
        }
        eprintln!(
            "loaded {path} as '{id}' ({} docs) in {:.2?}",
            target.num_docs(),
            start.elapsed()
        );
        indexes.push((id, target));
    }

    let server = match Server::new_served(indexes, options) {
        Ok(server) => server,
        Err(e) => return fail(e),
    };
    let listener = match (socket, tcp) {
        (Some(path), None) => {
            match Listener::bind_unix(std::path::Path::new(path.as_str())) {
                Ok(l) => l,
                Err(e) => return fail(format_args!("cannot bind {path}: {e}")),
            }
        }
        (None, Some(addr)) => match Listener::bind_tcp(addr) {
            Ok(l) => l,
            Err(e) => return fail(format_args!("cannot bind {addr}: {e}")),
        },
        _ => unreachable!("validated above"),
    };
    // Scripts wait for this line (and, for --tcp with port 0, parse the
    // actual address out of it) before connecting.
    println!("listening on {}", listener.local_addr_string());
    let _ = io::stdout().flush();

    let served = server.serve(listener);
    if let Some(path) = socket {
        let _ = std::fs::remove_file(path);
    }
    match served {
        Ok(()) => {
            eprintln!("shut down after draining connections");
            ExitCode::SUCCESS
        }
        Err(e) => fail(format_args!("serve failed: {e}")),
    }
}

/// Connection flags shared by every `sxsi client` op.
fn connect_client(socket: Option<&String>, tcp: Option<&String>) -> Result<Client, String> {
    match (socket, tcp) {
        (Some(path), None) => Client::connect_unix(std::path::Path::new(path.as_str()))
            .map_err(|e| format!("cannot connect to {path}: {e}")),
        (None, Some(addr)) => {
            Client::connect_tcp(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
        }
        _ => Err("client expects exactly one of --socket or --tcp before the op".into()),
    }
}

/// `sxsi client`: one op against a running daemon.
fn cmd_client(args: &[String]) -> ExitCode {
    let mut socket: Option<&String> = None;
    let mut tcp: Option<&String> = None;
    let mut it = args.iter();
    let op = loop {
        match it.next().map(String::as_str) {
            Some("--socket") => match it.next() {
                Some(path) => socket = Some(path),
                None => return usage_error("--socket expects a path"),
            },
            Some("--tcp") => match it.next() {
                Some(addr) => tcp = Some(addr),
                None => return usage_error("--tcp expects an address"),
            },
            Some(flag) if flag.starts_with("--") => {
                return usage_error(&format!("unknown option '{flag}' before the client op"))
            }
            Some(op) => break op,
            None => {
                return usage_error(
                    "client expects an op (query/exists/search/stats/info/ping/shutdown)",
                )
            }
        }
    };
    let request = match op {
        "query" | "exists" | "search" => match parse_args(op, it.as_slice(), false) {
            Ok((request, _)) => Some(request),
            Err(e) => return arg_error(e),
        },
        _ => None,
    };
    let mut client = match connect_client(socket, tcp) {
        Ok(client) => client,
        Err(e) => return fail(e),
    };
    let response = match (request, op) {
        (Some(request), _) => client.send(&request),
        (None, "stats" | "info" | "ping" | "shutdown") => client.request(op.as_bytes()),
        (None, other) => return usage_error(&format!("unknown client op '{other}'")),
    };
    match response {
        Ok(Response::Ok { .. }) if op == "ping" || op == "shutdown" => {
            finish(if op == "ping" { "pong\n" } else { "server shutting down\n" }, ExitCode::SUCCESS)
        }
        Ok(response) => report(response, "server"),
        Err(e) => fail(e),
    }
}

/// `sxsi queries`: dump the paper's query sets for shell scripting.
fn cmd_queries(args: &[String]) -> ExitCode {
    let mut set = "paper";
    let mut print0 = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--print0" => print0 = true,
            "--set" => match it.next().map(String::as_str) {
                Some(s @ ("paper" | "ordered")) => set = s,
                _ => return usage_error("--set expects 'paper' or 'ordered'"),
            },
            flag => return usage_error(&format!("unknown option '{flag}'")),
        }
    }
    let terminator = if print0 { '\0' } else { '\n' };
    let mut records = String::new();
    if set == "paper" {
        for group in [
            sxsi_xpath::XMARK_QUERIES,
            sxsi_xpath::TREEBANK_QUERIES,
            sxsi_xpath::MEDLINE_QUERIES,
            sxsi_xpath::WORD_QUERIES,
        ] {
            for q in group {
                let _ = write!(records, "{}\t{}{terminator}", q.id, q.xpath);
            }
        }
    } else {
        for q in sxsi_xpath::ORDERED_QUERIES {
            let _ = write!(records, "{}\t{}\t{}{terminator}", q.id, q.corpus, q.xpath);
        }
    }
    finish(&records, ExitCode::SUCCESS)
}
