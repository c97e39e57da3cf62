//! Shared infrastructure for the paper-figure bench targets.
//!
//! Every bench target reproduces one table or figure of the paper's
//! evaluation section (the table in `ARCHITECTURE.md` maps each to its
//! code).  Since the absolute hardware and corpus sizes differ from the
//! paper's testbed, the harness reports its own measurements in the same
//! row/series layout so the *shape* of each result (who wins, by how much,
//! where the cross-overs are) can be compared directly.  Measured,
//! comparable performance numbers come from the stand-alone `perfbench`
//! package instead.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::OnceLock;
use std::time::Instant;

use sxsi::SxsiIndex;
use sxsi_datagen::{medline, treebank, wiki, xmark, MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig};
use sxsi_engine::{BatchExecutor, QueryBatch};

/// Milliseconds spent running `f` once.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Prints a usage error for a helper binary and exits with status 2 — a
/// benchmark driver must never panic on a typo'd flag (a panic looks like a
/// crash to CI and hides the usage text).
pub fn usage_error(program: &str, message: &str, usage: &str) -> ! {
    eprintln!("{program}: {message}\n{usage}");
    std::process::exit(2);
}

/// Milliseconds per run, averaged over `runs` executions after one warm-up.
pub fn time_avg_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let _ = f();
    let start = Instant::now();
    for _ in 0..runs {
        let _ = f();
    }
    start.elapsed().as_secs_f64() * 1e3 / runs as f64
}

/// Prints a table header row.
pub fn header(title: &str, columns: &[&str]) {
    println!();
    println!("== {title} ==");
    println!("{}", columns.join("\t"));
}

/// Prints one table row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// The XMark-like corpus used by most tree-oriented experiments.
pub fn xmark_xml() -> &'static str {
    static XML: OnceLock<String> = OnceLock::new();
    XML.get_or_init(|| xmark::generate(&XMarkConfig { scale: 0.6, seed: 42 }))
}

/// A smaller XMark-like corpus (the scale contrast of Figure 10).
pub fn xmark_small_xml() -> &'static str {
    static XML: OnceLock<String> = OnceLock::new();
    XML.get_or_init(|| xmark::generate(&XMarkConfig { scale: 0.15, seed: 42 }))
}

/// The Medline-like corpus for text-oriented experiments.
pub fn medline_xml() -> &'static str {
    static XML: OnceLock<String> = OnceLock::new();
    XML.get_or_init(|| medline::generate(&MedlineConfig { num_citations: 1500, seed: 42 }))
}

/// The Treebank-like corpus.
pub fn treebank_xml() -> &'static str {
    static XML: OnceLock<String> = OnceLock::new();
    XML.get_or_init(|| treebank::generate(&TreebankConfig { num_sentences: 2500, seed: 42 }))
}

/// The wiki-like corpus for the word-based queries.
pub fn wiki_xml() -> &'static str {
    static XML: OnceLock<String> = OnceLock::new();
    XML.get_or_init(|| wiki::generate(&WikiConfig { num_pages: 800, seed: 42 }))
}

/// A pre-built SXSI index over the XMark corpus.
pub fn xmark_index() -> &'static SxsiIndex {
    static INDEX: OnceLock<SxsiIndex> = OnceLock::new();
    INDEX.get_or_init(|| SxsiIndex::build_from_xml(xmark_xml().as_bytes()).expect("index builds"))
}

/// A pre-built SXSI index over the Medline corpus.
pub fn medline_index() -> &'static SxsiIndex {
    static INDEX: OnceLock<SxsiIndex> = OnceLock::new();
    INDEX.get_or_init(|| SxsiIndex::build_from_xml(medline_xml().as_bytes()).expect("index builds"))
}

/// A pre-built SXSI index over the Treebank corpus.
pub fn treebank_index() -> &'static SxsiIndex {
    static INDEX: OnceLock<SxsiIndex> = OnceLock::new();
    INDEX.get_or_init(|| SxsiIndex::build_from_xml(treebank_xml().as_bytes()).expect("index builds"))
}

/// A pre-built SXSI index over the wiki corpus.
pub fn wiki_index() -> &'static SxsiIndex {
    static INDEX: OnceLock<SxsiIndex> = OnceLock::new();
    INDEX.get_or_init(|| SxsiIndex::build_from_xml(wiki_xml().as_bytes()).expect("index builds"))
}

/// The measurement protocol of the `concurrency_throughput` bench: one warm-up
/// run, then `runs` timed executions of the whole batch.  Returns the
/// median wall time in nanoseconds and the derived queries/sec.
pub fn measure_batch_qps(
    executor: &BatchExecutor,
    index: &SxsiIndex,
    batch: &QueryBatch,
    runs: usize,
) -> (u128, f64) {
    let _ = executor.run(index, batch); // warm-up
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let start = Instant::now();
        let _ = executor.run(index, batch);
        samples.push(start.elapsed().as_nanos());
    }
    samples.sort_unstable();
    let median = samples[samples.len() / 2];
    (median, batch.len() as f64 * 1e9 / median as f64)
}
