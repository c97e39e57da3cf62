//! Machine-readable benchmark report: `cargo run -p sxsi-bench --bin report`.
//!
//! Three experiment families, written to `BENCH_pr7.json` at the repository
//! root, plus two written to files of their own:
//!
//! * the quick concurrency benches carried over from PR 2 (the X01–X17
//!   batch in counting and materializing mode at 1/2/4/8 worker threads
//!   over one shared XMark index), one entry per `(bench, threads)` pair;
//! * per-query timings for the O01–O20 reverse/ordered-axis and
//!   positional-predicate queries introduced in PR 4, on their own corpora
//!   (XMark / Treebank / Medline / wiki), with the strategy the planner
//!   chose;
//! * the PR 5 **early-termination** experiment: for all 43 paper queries
//!   (X01–X17, T01–T05, M01–M11, W01–W10) *and* O01–O20, the wall time and
//!   visited-node count of `Exists`, `limit 1` and `limit 10` runs against
//!   full materialization through the prepared-statement API — the
//!   "how much of the answer is needed" dimension the query redesign
//!   opened up;
//! * the PR 9 **collection fan-out** experiment, written separately to
//!   `BENCH_pr9.json`: the X01–X17 batch run through the
//!   `CollectionExecutor` over an eight-document XMark collection at
//!   1/2/4/8 shard workers, in counting and existence mode;
//! * the PR 10 **keyword-search** experiment, written separately to
//!   `BENCH_pr10.json`: ranked `ft:all` searches driven through the
//!   daemon's request handler at 1/2/4 terms, comparing a cold
//!   (empty-LRU) request against a cached repeat of the same request.
//!
//! The report also records the machine's available parallelism — on a
//! single-core host the thread-scaling curve is necessarily flat, and
//! readers of the trajectory need to know that.
//!
//! Options: `--scale <f64>` (XMark scale factor, default 0.15),
//! `--runs <n>` (timed runs per entry, default 5) and a repeatable
//! `--section <name>` restricting the run to named experiment sections
//! (`concurrency`, `ordered_axis_queries`, `early_termination`,
//! `collection_report`, `search_report`; unknown names exit with status 2).
//! Use `--release` for numbers worth recording.

use sxsi::{Prepared, QueryOptions, SxsiIndex};
use sxsi_bench::{measure_batch_qps, median_ms};
use sxsi_collection::Collection;
use sxsi_datagen::{
    medline, treebank, wiki, xmark, MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig,
};
use sxsi_engine::{BatchExecutor, QueryBatch, QuerySpec};
use sxsi_xpath::{
    NamedQuery, MEDLINE_QUERIES, ORDERED_QUERIES, TREEBANK_QUERIES, WORD_QUERIES, XMARK_QUERIES,
};

struct Entry {
    name: String,
    threads: usize,
    median_ns: u128,
    queries_per_sec: f64,
}

/// One per-query timing for the ordered-axes experiment.
struct QueryEntry {
    id: &'static str,
    corpus: &'static str,
    strategy: &'static str,
    count: u64,
    median_ns: u128,
}

/// One mode's measurement within the early-termination experiment.
struct ModeSample {
    median_ns: u128,
    visited: u64,
}

/// One per-query early-termination comparison.
struct EarlyEntry {
    id: &'static str,
    corpus: &'static str,
    strategy: &'static str,
    count: u64,
    full: ModeSample,
    exists: ModeSample,
    first1: ModeSample,
    first10: ModeSample,
}

/// Times `runs` executions of the batch and returns one report entry.
fn measure(
    name: &str,
    executor: &BatchExecutor,
    index: &SxsiIndex,
    batch: &QueryBatch,
    runs: usize,
) -> Entry {
    let (median_ns, queries_per_sec) = measure_batch_qps(executor, index, batch, runs);
    println!(
        "  {name} threads={} median={:.2} ms queries/s={queries_per_sec:.1}",
        executor.threads(),
        median_ns as f64 / 1e6
    );
    Entry { name: name.to_string(), threads: executor.threads(), median_ns, queries_per_sec }
}

const USAGE: &str = "usage: report [--scale <f64>] [--runs <n>] [--section <name>]...\n\
                     runs the X01-X17 concurrency batches, the O01-O20 \
                     ordered-axis queries, the early-termination \
                     comparison (exists / first-1 / first-10 vs full \
                     materialization) over all paper query sets, writing \
                     BENCH_pr7.json (and BENCH_pr9.json for the \
                     collection fan-out experiment, BENCH_pr10.json \
                     for the keyword-search experiment).  --section \
                     restricts the run to the named sections \
                     (concurrency, ordered_axis_queries, \
                     early_termination, collection_report, \
                     search_report)";

/// The experiment sections `--section` can select, each with the result
/// file (at the repository root) it is written to.
const SECTIONS: &[(&str, &str)] = &[
    ("concurrency", "BENCH_pr7.json"),
    ("ordered_axis_queries", "BENCH_pr7.json"),
    ("early_termination", "BENCH_pr7.json"),
    ("collection_report", "BENCH_pr9.json"),
    ("search_report", "BENCH_pr10.json"),
];

/// Whether `section` runs under the `--section` selection (none = all).
fn enabled(selected: &[String], section: &str) -> bool {
    selected.is_empty() || selected.iter().any(|s| s == section)
}

/// Whether the run rewrites `file`: only when one of the file's own
/// sections runs, so a partial run never replaces another experiment's
/// results with an empty section list.  `main` asks this before each of
/// its three writes.
fn writes_file(selected: &[String], file: &str) -> bool {
    SECTIONS.iter().any(|&(section, target)| target == file && enabled(selected, section))
}

fn usage_error(message: &str) -> ! {
    // The benchmark queries are plain XPath: print the supported fragment
    // alongside the usage so a typo'd query is debuggable from the terminal.
    let help = sxsi_xpath::fragment_help();
    sxsi_bench::usage_error("report", message, &format!("{USAGE}\n{help}"));
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(f64, usize, Vec<String>), String> {
    let mut scale = 0.15;
    let mut runs = 5;
    let mut sections: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => scale = v,
                None => return Err("--scale expects a floating-point factor".into()),
            },
            "--runs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => runs = v,
                _ => return Err("--runs expects a positive integer".into()),
            },
            "--section" => match args.next() {
                // An unknown section name is a hard error (exit status 2):
                // a typo'd CI invocation must fail loudly, not silently
                // skip the experiment it meant to run.
                Some(name) if SECTIONS.iter().any(|&(known, _)| known == name) => sections.push(name),
                Some(name) => {
                    let known: Vec<&str> = SECTIONS.iter().map(|&(known, _)| known).collect();
                    return Err(format!("unknown section '{name}' (known: {})", known.join(", ")));
                }
                None => return Err("--section expects a section name".into()),
            },
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok((scale, runs, sections))
}

/// Runs every O-query against its corpus index, `runs` times each.
fn measure_ordered_queries(corpora: &[(&'static str, SxsiIndex)], runs: usize) -> Vec<QueryEntry> {
    let mut entries = Vec::new();
    for (corpus, index) in corpora {
        for q in ORDERED_QUERIES.iter().filter(|q| q.corpus == *corpus) {
            // Prepare once and time execution only, like the concurrency
            // batches — parse/rewrite/plan overhead would otherwise drown
            // the cheap queries.
            let prepared = index.prepare(q.xpath).expect("ordered query prepares");
            let count_options = QueryOptions::count();
            let result = prepared.run(index, &count_options);
            let median = median_ms(runs, || {
                prepared.run(index, &count_options);
            });
            println!(
                "  {} [{}] count={} median={median:.3} ms  {}",
                q.id,
                prepared.strategy().name(),
                result.count(),
                q.xpath
            );
            entries.push(QueryEntry {
                id: q.id,
                corpus,
                strategy: prepared.strategy().name(),
                count: result.count(),
                median_ns: (median * 1e6) as u128,
            });
        }
    }
    entries
}

/// Times one options variant of a prepared query, returning the median wall
/// time and the visited-node counter of the run.
fn sample(prepared: &Prepared, index: &SxsiIndex, options: &QueryOptions, runs: usize) -> ModeSample {
    let visited = prepared.run(index, options).stats().map_or(0, |s| s.visited_nodes);
    let median = median_ms(runs, || {
        prepared.run(index, options);
    });
    ModeSample { median_ns: (median * 1e6) as u128, visited }
}

/// The PR 5 experiment: exists / first-1 / first-10 vs full materialization
/// for every paper query and every ordered query, on its corpus.
fn measure_early_termination(
    corpora: &[(&'static str, SxsiIndex)],
    runs: usize,
) -> Vec<EarlyEntry> {
    let sets: &[(&'static str, &[NamedQuery])] = &[
        ("xmark", XMARK_QUERIES),
        ("treebank", TREEBANK_QUERIES),
        ("medline", MEDLINE_QUERIES),
        ("medline", &WORD_QUERIES[..5]),
        ("wiki", &WORD_QUERIES[5..]),
    ];
    let index_of = |corpus: &str| {
        &corpora.iter().find(|(c, _)| *c == corpus).expect("corpus built").1
    };
    let mut work: Vec<(&'static str, &'static str, &'static str)> = Vec::new();
    for (corpus, set) in sets {
        for q in *set {
            work.push((q.id, corpus, q.xpath));
        }
    }
    for q in ORDERED_QUERIES {
        work.push((q.id, q.corpus, q.xpath));
    }

    let mut entries = Vec::new();
    for (id, corpus, xpath) in work {
        let index = index_of(corpus);
        let prepared = index.prepare(xpath).expect("paper query prepares");
        let full = sample(&prepared, index, &QueryOptions::nodes(), runs);
        let exists = sample(&prepared, index, &QueryOptions::exists(), runs);
        let first1 = sample(&prepared, index, &QueryOptions::nodes().with_limit(1), runs);
        let first10 = sample(&prepared, index, &QueryOptions::nodes().with_limit(10), runs);
        let count = prepared.run(index, &QueryOptions::count()).count();
        println!(
            "  {id} [{}] count={count} full={:.3}ms exists={:.3}ms first1={:.3}ms first10={:.3}ms \
             visited full/exists/first1 = {}/{}/{}",
            prepared.strategy().name(),
            full.median_ns as f64 / 1e6,
            exists.median_ns as f64 / 1e6,
            first1.median_ns as f64 / 1e6,
            first10.median_ns as f64 / 1e6,
            full.visited,
            exists.visited,
            first1.visited,
        );
        entries.push(EarlyEntry {
            id,
            corpus,
            strategy: prepared.strategy().name(),
            count,
            full,
            exists,
            first1,
            first10,
        });
    }
    entries
}

/// The PR 9 experiment: the X01–X17 batch fanned across an
/// eight-document XMark collection through the `CollectionExecutor` at
/// 1/2/4/8 shard workers, in counting and existence mode.  Returns the
/// per-`(mode, threads)` entries plus the collection's document count.
fn measure_collection(scale: f64, runs: usize) -> (Vec<Entry>, usize) {
    use sxsi_engine::collection::CollectionExecutor;

    const DOCS: usize = 8;
    let dir = std::env::temp_dir().join(format!("sxsi-bench-collection-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("collection bench dir is writable");
    // Eight same-shaped shards: one scaled-down XMark document per shard,
    // distinct seeds so the shards are not byte-identical.
    let per_doc_scale = scale / DOCS as f64;
    println!("building {DOCS}-document xmark collection (per-doc scale {per_doc_scale}) ...");
    let docs: Vec<(String, SxsiIndex)> = (0..DOCS)
        .map(|i| {
            let xml =
                xmark::generate(&XMarkConfig { scale: per_doc_scale, seed: 42 + i as u64 });
            (format!("xmark-{i}"), SxsiIndex::build_from_xml(xml.as_bytes()).expect("shard builds"))
        })
        .collect();
    let collection =
        Collection::build(dir.join("bench.sxsic"), docs).expect("collection builds");

    let mut entries = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let executor = CollectionExecutor::new(threads);
        for (mode, options) in
            [("count", QueryOptions::count()), ("exists", QueryOptions::exists())]
        {
            let work = || {
                for q in XMARK_QUERIES {
                    let result = executor
                        .run(&collection, q.xpath, &options)
                        .expect("benchmark query runs");
                    std::hint::black_box(result.count());
                }
            };
            work(); // warm-up: first touch loads lazy segments
            let median = median_ms(runs, work);
            let median_ns = (median * 1e6) as u128;
            let queries_per_sec = XMARK_QUERIES.len() as f64 / (median / 1e3);
            println!(
                "  xmark_x01_x17_collection_{mode} threads={threads} median={median:.2} ms \
                 queries/s={queries_per_sec:.1}"
            );
            entries.push(Entry {
                name: format!("xmark_x01_x17_collection_{mode}"),
                threads,
                median_ns,
                queries_per_sec,
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    (entries, DOCS)
}

/// One keyword-search row: cold vs cached daemon handling of one
/// `ft:all` request, at one term count.
struct SearchEntry {
    terms: usize,
    hits: u64,
    cold_median_ns: u128,
    cold_qps: f64,
    cached_median_ns: u128,
    cached_qps: f64,
}

/// The PR 10 experiment: ranked keyword search driven through the
/// daemon's request handler (`Server::handle_command`, the same
/// untrusted-input boundary the socket path uses), at 1/2/4 search
/// terms.  "Cold" requests run against a freshly constructed server so
/// every probe misses the search LRU; "cached" requests repeat one
/// request against a warm server so every probe after the first hits.
/// Returns the per-term-count rows plus the warm server's final
/// search-cache hit rate.
fn measure_search(scale: f64, runs: usize) -> (Vec<SearchEntry>, f64) {
    use std::sync::Arc;
    use sxsi_engine::server::{ServeOptions, Server};

    println!("building xmark index for keyword search (scale {scale}) ...");
    let xml = xmark::generate(&XMarkConfig { scale, seed: 42 });
    let index = Arc::new(SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds"));
    let make_server = || {
        Server::new(vec![("xmark".to_string(), Arc::clone(&index))], ServeOptions::default())
            .expect("in-process server constructs")
    };
    // All four terms come from the generators' COMMON_WORDS pool, so
    // even the conjunctive four-term request finds co-occurrences.
    let term_sets: &[&[&str]] = &[&["the"], &["the", "of"], &["the", "of", "and", "a"]];

    let warm = make_server();
    let mut entries = Vec::new();
    for terms in term_sets {
        let mut payload = String::from("search index=xmark mode=all limit=10");
        for term in *terms {
            payload.push('\n');
            payload.push_str(term);
        }
        // Cold: a fresh server per probe, so the search LRU never has
        // the answer.  Construction is two Arc clones and two empty
        // LRUs — noise next to a multi-term FM-index search.
        let cold_ms = median_ms(runs, || {
            let fresh = make_server();
            std::hint::black_box(fresh.handle_command(payload.as_bytes()));
        });
        // Cached: prime the warm server once, then every probe hits.
        let (first, _) = warm.handle_command(payload.as_bytes());
        let text = String::from_utf8_lossy(&first);
        assert!(text.starts_with("ok "), "search request succeeds: {text}");
        let hits: u64 = text
            .split(" hits")
            .next()
            .and_then(|head| head.rsplit(' ').next())
            .and_then(|n| n.parse().ok())
            .expect("search body reports a hit count");
        let cached_ms = median_ms(runs, || {
            std::hint::black_box(warm.handle_command(payload.as_bytes()));
        });
        println!(
            "  search_all_{}term hits={hits} cold={cold_ms:.3} ms cached={cached_ms:.3} ms",
            terms.len()
        );
        entries.push(SearchEntry {
            terms: terms.len(),
            hits,
            cold_median_ns: (cold_ms * 1e6) as u128,
            cold_qps: 1e3 / cold_ms,
            cached_median_ns: (cached_ms * 1e6) as u128,
            cached_qps: 1e3 / cached_ms,
        });
    }
    // The warm server saw one miss plus `runs` hits per term set — its
    // hit rate is the "caching actually engaged" proof CI asserts on.
    let stats = warm.render_stats();
    let hit_rate: f64 = stats
        .lines()
        .find_map(|line| line.strip_prefix("search_cache_hit_rate="))
        .and_then(|v| v.parse().ok())
        .expect("stats report a search cache hit rate");
    println!("  search_cache_hit_rate={hit_rate:.3}");
    (entries, hit_rate)
}

fn build(corpus: &str, xml: &str) -> SxsiIndex {
    println!("building {corpus} index ({} bytes of XML) ...", xml.len());
    SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds")
}

fn main() {
    let (scale, runs, selected) =
        parse_args(std::env::args().skip(1)).unwrap_or_else(|message| usage_error(&message));
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let enabled = |name: &str| enabled(&selected, name);
    let need_corpora =
        enabled("concurrency") || enabled("ordered_axis_queries") || enabled("early_termination");

    let corpora: Vec<(&'static str, SxsiIndex)> = if need_corpora {
        println!("generating corpora (XMark scale {scale}) ...");
        vec![
            ("xmark", build("xmark", &xmark::generate(&XMarkConfig { scale, seed: 42 }))),
            (
                "treebank",
                build(
                    "treebank",
                    &treebank::generate(&TreebankConfig { num_sentences: 400, seed: 42 }),
                ),
            ),
            (
                "medline",
                build(
                    "medline",
                    &medline::generate(&MedlineConfig { num_citations: 300, seed: 42 }),
                ),
            ),
            ("wiki", build("wiki", &wiki::generate(&WikiConfig { num_pages: 300, seed: 42 }))),
        ]
    } else {
        Vec::new()
    };

    let mut entries = Vec::new();
    if enabled("concurrency") {
        let xmark_index = &corpora[0].1;
        let count_batch = QueryBatch::compile(
            xmark_index,
            XMARK_QUERIES.iter().map(|q| QuerySpec::count(q.id, q.xpath)).collect(),
        )
        .expect("benchmark queries compile");
        let materialize_batch = QueryBatch::compile(
            xmark_index,
            XMARK_QUERIES.iter().map(|q| QuerySpec::nodes(q.id, q.xpath)).collect(),
        )
        .expect("benchmark queries compile");
        for threads in [1usize, 2, 4, 8] {
            let executor = BatchExecutor::new(threads);
            entries.push(measure(
                "xmark_x01_x17_count",
                &executor,
                xmark_index,
                &count_batch,
                runs,
            ));
            entries.push(measure(
                "xmark_x01_x17_materialize",
                &executor,
                xmark_index,
                &materialize_batch,
                runs,
            ));
        }
    }
    let ordered = if enabled("ordered_axis_queries") {
        println!("ordered-axis queries (O01-O20) ...");
        measure_ordered_queries(&corpora, runs)
    } else {
        Vec::new()
    };
    let early = if enabled("early_termination") {
        println!("early termination: exists / first-1 / first-10 vs full materialization ...");
        measure_early_termination(&corpora, runs)
    } else {
        Vec::new()
    };
    if writes_file(&selected, "BENCH_pr9.json") {
        println!("collection fan-out: X01-X17 across an 8-document collection ...");
        let (collection_entries, docs) = measure_collection(scale, runs);
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"pr\": 9,\n");
        json.push_str(
            "  \"bench\": \"collection fan-out: X01-X17 through the CollectionExecutor \
             over a multi-document XMark collection at 1/2/4/8 shard workers\",\n",
        );
        json.push_str(&format!(
            "  \"corpus\": \"{docs} xmark documents, per-doc scale {}, seeds 42..{}\",\n",
            scale / docs as f64,
            42 + docs
        ));
        json.push_str(&format!("  \"queries\": {},\n", XMARK_QUERIES.len()));
        json.push_str(&format!("  \"runs_per_entry\": {runs},\n"));
        json.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
        json.push_str(
            "  \"note\": \"shard fan-out scaling is bounded by available_parallelism: \
             on a 1-core host the 1/2/4/8-worker curve is necessarily flat and only \
             the per-shard early-termination deltas are meaningful\",\n",
        );
        json.push_str("  \"collection_report\": [\n");
        for (i, e) in collection_entries.iter().enumerate() {
            let comma = if i + 1 == collection_entries.len() { "" } else { "," };
            json.push_str(&format!(
                "    {{ \"name\": \"{}\", \"threads\": {}, \"median_ns\": {}, \"queries_per_sec\": {:.2} }}{comma}\n",
                e.name, e.threads, e.median_ns, e.queries_per_sec
            ));
        }
        json.push_str("  ]\n}\n");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json");
        std::fs::write(path, &json).expect("BENCH_pr9.json is writable");
        println!("wrote {path}");
    }
    if writes_file(&selected, "BENCH_pr10.json") {
        println!("keyword search: cold vs cached daemon requests at 1/2/4 terms ...");
        let (search_entries, hit_rate) = measure_search(scale, runs);
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"pr\": 10,\n");
        json.push_str(
            "  \"bench\": \"ranked keyword search: conjunctive ft:all requests through the \
             daemon request handler, cold (empty LRU) vs cached, at 1/2/4 terms\",\n",
        );
        json.push_str(&format!("  \"corpus\": \"xmark scale {scale} seed 42\",\n"));
        json.push_str(&format!("  \"runs_per_entry\": {runs},\n"));
        json.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
        json.push_str(&format!("  \"search_cache_hit_rate\": {hit_rate:.4},\n"));
        json.push_str(
            "  \"note\": \"cold probes rebuild the server (two Arc clones, empty LRUs) so \
             every request misses the search cache; cached probes repeat one request \
             against a warm server, so the delta is the render-and-rank cost the LRU \
             saves\",\n",
        );
        json.push_str("  \"search_report\": [\n");
        for (i, e) in search_entries.iter().enumerate() {
            let comma = if i + 1 == search_entries.len() { "" } else { "," };
            json.push_str(&format!(
                "    {{ \"name\": \"xmark_search_all_{}term\", \"terms\": {}, \"hits\": {}, \
                 \"cold_median_ns\": {}, \"cold_qps\": {:.2}, \
                 \"cached_median_ns\": {}, \"cached_qps\": {:.2} }}{comma}\n",
                e.terms, e.terms, e.hits, e.cold_median_ns, e.cold_qps, e.cached_median_ns,
                e.cached_qps
            ));
        }
        json.push_str("  ]\n}\n");
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json");
        std::fs::write(path, &json).expect("BENCH_pr10.json is writable");
        println!("wrote {path}");
    }
    if !writes_file(&selected, "BENCH_pr7.json") {
        return;
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 7,\n");
    json.push_str(
        "  \"bench\": \"batch throughput, ordered queries, early termination\",\n",
    );
    json.push_str(&format!(
        "  \"corpus\": \"xmark scale {scale} seed 42 (+ treebank/medline/wiki defaults)\",\n"
    ));
    json.push_str(&format!("  \"queries\": {},\n", XMARK_QUERIES.len()));
    json.push_str(&format!("  \"runs_per_entry\": {runs},\n"));
    json.push_str(&format!("  \"available_parallelism\": {parallelism},\n"));
    json.push_str(
        "  \"note\": \"thread scaling is bounded by available_parallelism\",\n",
    );
    let mut sections_json: Vec<String> = Vec::new();
    if enabled("concurrency") {
        let mut out = String::from("  \"entries\": [\n");
        for (i, e) in entries.iter().enumerate() {
            let comma = if i + 1 == entries.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"name\": \"{}\", \"threads\": {}, \"median_ns\": {}, \"queries_per_sec\": {:.2} }}{comma}\n",
                e.name, e.threads, e.median_ns, e.queries_per_sec
            ));
        }
        out.push_str("  ]");
        sections_json.push(out);
    }
    if enabled("ordered_axis_queries") {
        let mut out = String::from("  \"ordered_axis_queries\": [\n");
        for (i, e) in ordered.iter().enumerate() {
            let comma = if i + 1 == ordered.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"id\": \"{}\", \"corpus\": \"{}\", \"strategy\": \"{}\", \"count\": {}, \"median_ns\": {} }}{comma}\n",
                e.id, e.corpus, e.strategy, e.count, e.median_ns
            ));
        }
        out.push_str("  ]");
        sections_json.push(out);
    }
    if enabled("early_termination") {
        let mut out = String::from("  \"early_termination\": [\n");
        for (i, e) in early.iter().enumerate() {
            let comma = if i + 1 == early.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{ \"id\": \"{}\", \"corpus\": \"{}\", \"strategy\": \"{}\", \"count\": {}, \
                 \"full_ns\": {}, \"full_visited\": {}, \
                 \"exists_ns\": {}, \"exists_visited\": {}, \
                 \"first1_ns\": {}, \"first1_visited\": {}, \
                 \"first10_ns\": {}, \"first10_visited\": {} }}{comma}\n",
                e.id,
                e.corpus,
                e.strategy,
                e.count,
                e.full.median_ns,
                e.full.visited,
                e.exists.median_ns,
                e.exists.visited,
                e.first1.median_ns,
                e.first1.visited,
                e.first10.median_ns,
                e.first10.visited,
            ));
        }
        out.push_str("  ]");
        sections_json.push(out);
    }
    json.push_str(&sections_json.join(",\n"));
    json.push_str("\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr7.json");
    std::fs::write(path, &json).expect("BENCH_pr7.json is writable");
    println!("\nwrote {}", path);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter().map(|a| a.to_string()).collect::<Vec<_>>().into_iter()
    }

    /// Selecting one section rewrites that section's file and no other.
    #[test]
    fn a_section_writes_only_its_own_file() {
        let files = ["BENCH_pr7.json", "BENCH_pr9.json", "BENCH_pr10.json"];
        for &(section, target) in SECTIONS {
            let (_, _, selected) = parse_args(args(&["--section", section])).expect("known section");
            assert_eq!(selected, [section]);
            for file in files {
                assert_eq!(writes_file(&selected, file), file == target, "--section {section} / {file}");
            }
        }
    }

    #[test]
    fn no_selection_runs_every_section_and_writes_every_file() {
        let (scale, runs, selected) = parse_args(args(&["--scale", "0.5", "--runs", "3"])).unwrap();
        assert_eq!((scale, runs), (0.5, 3));
        assert!(SECTIONS.iter().all(|&(section, file)| enabled(&selected, section) && writes_file(&selected, file)));
    }

    #[test]
    fn sections_combine_and_bad_arguments_are_errors() {
        let (_, _, selected) =
            parse_args(args(&["--section", "early_termination", "--section", "search_report"])).unwrap();
        assert!(writes_file(&selected, "BENCH_pr7.json") && writes_file(&selected, "BENCH_pr10.json"));
        assert!(!writes_file(&selected, "BENCH_pr9.json") && !enabled(&selected, "concurrency"));
        for bad in [&["--section", "micro"][..], &["--section"], &["--runs", "0"], &["--scale", "x"], &["--out"]] {
            assert!(parse_args(args(bad)).is_err(), "{bad:?}");
        }
    }
}
