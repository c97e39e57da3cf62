//! Persistence benchmark: `cargo run --release -p sxsi-bench --bin persistence_report`.
//!
//! Measures the cold-start story the persistence tentpole exists for: for
//! each corpus (XMark, Treebank, Medline), the time to *rebuild* the index
//! from XML (parse + suffix array + BWT + wavelet tree + BP) versus the
//! time to *load* it from a `.sxsi` file, verifying on the way that the
//! loaded index answers every paper query for that corpus identically.
//! Writes `BENCH_pr3.json` at the repository root.
//!
//! Options: `--runs <n>` (timed runs per measurement, default 3) and
//! `--scale <f64>` (XMark scale factor, default 0.3).  Use `--release` for
//! numbers worth recording.

use sxsi::{ReadFrom, SxsiIndex, WriteInto};
use sxsi_bench::median_ms;
use sxsi_datagen::{medline, treebank, xmark, MedlineConfig, TreebankConfig, XMarkConfig};
use sxsi_xpath::{NamedQuery, MEDLINE_QUERIES, TREEBANK_QUERIES, WORD_QUERIES, XMARK_QUERIES};

const USAGE: &str = "usage: persistence_report [--runs <n>] [--scale <f64>]";

fn usage_error(message: &str) -> ! {
    sxsi_bench::usage_error("persistence_report", message, USAGE)
}

fn parse_args() -> (usize, f64) {
    let mut runs = 3usize;
    let mut scale = 0.3f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--runs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => runs = v,
                _ => usage_error("--runs expects a positive integer"),
            },
            "--scale" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => scale = v,
                None => usage_error("--scale expects a floating-point factor"),
            },
            other => usage_error(&format!("unknown option '{other}'")),
        }
    }
    (runs, scale)
}

struct Entry {
    corpus: String,
    xml_bytes: usize,
    file_bytes: usize,
    build_ms: f64,
    save_ms: f64,
    load_ms: f64,
    speedup: f64,
    queries_verified: usize,
}

fn measure(corpus: &str, xml: &str, queries: &[&NamedQuery], runs: usize) -> Entry {
    println!("[{corpus}] building index over {} bytes of XML ...", xml.len());
    let built = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds");
    let build_ms = median_ms(runs, || {
        let _ = SxsiIndex::build_from_xml(xml.as_bytes()).expect("index builds");
    });
    let bytes = built.to_bytes();
    let save_ms = median_ms(runs, || {
        let _ = built.to_bytes();
    });
    let load_ms = median_ms(runs, || {
        let _ = SxsiIndex::from_bytes(&bytes).expect("index loads");
    });
    let loaded = SxsiIndex::from_bytes(&bytes).expect("index loads");
    for q in queries {
        assert_eq!(
            loaded.count(q.xpath).expect("query runs"),
            built.count(q.xpath).expect("query runs"),
            "{corpus} {} diverged after reload",
            q.id
        );
        assert_eq!(
            loaded.materialize(q.xpath).expect("query runs"),
            built.materialize(q.xpath).expect("query runs"),
            "{corpus} {} node set diverged after reload",
            q.id
        );
    }
    let speedup = build_ms / load_ms;
    println!(
        "[{corpus}] build {build_ms:.1} ms, save {save_ms:.1} ms, load {load_ms:.1} ms \
         ({speedup:.1}x faster than rebuilding), {} queries verified",
        queries.len()
    );
    Entry {
        corpus: corpus.to_string(),
        xml_bytes: xml.len(),
        file_bytes: bytes.len(),
        build_ms,
        save_ms,
        load_ms,
        speedup,
        queries_verified: queries.len(),
    }
}

fn main() {
    let (runs, scale) = parse_args();

    let xmark_xml = xmark::generate(&XMarkConfig { scale, seed: 42 });
    let treebank_xml = treebank::generate(&TreebankConfig { num_sentences: 2000, seed: 42 });
    let medline_xml = medline::generate(&MedlineConfig { num_citations: 1000, seed: 42 });

    let medline_queries: Vec<&NamedQuery> =
        MEDLINE_QUERIES.iter().chain(WORD_QUERIES[..5].iter()).collect();
    let entries = [
        measure("xmark", &xmark_xml, &XMARK_QUERIES.iter().collect::<Vec<_>>(), runs),
        measure("treebank", &treebank_xml, &TREEBANK_QUERIES.iter().collect::<Vec<_>>(), runs),
        measure("medline", &medline_xml, &medline_queries, runs),
    ];

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"pr\": 3,\n");
    json.push_str("  \"bench\": \"versioned .sxsi persistence: load vs rebuild per corpus\",\n");
    json.push_str(&format!(
        "  \"corpora\": \"xmark scale {scale}, treebank 2000 sentences, medline 1000 citations, seed 42\",\n"
    ));
    json.push_str(&format!("  \"runs_per_measurement\": {runs},\n"));
    json.push_str(
        "  \"note\": \"build_ms re-parses the XML and reconstructs BWT/wavelets/BP; \
         load_ms deserializes the .sxsi container (checksums verified, rank \
         directories rebuilt); every listed query was verified count- and \
         node-set-identical after reload\",\n",
    );
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{ \"corpus\": \"{}\", \"xml_bytes\": {}, \"file_bytes\": {}, \
             \"build_ms\": {:.2}, \"save_ms\": {:.2}, \"load_ms\": {:.2}, \
             \"load_speedup_vs_rebuild\": {:.2}, \"queries_verified\": {} }}{comma}\n",
            e.corpus, e.xml_bytes, e.file_bytes, e.build_ms, e.save_ms, e.load_ms, e.speedup,
            e.queries_verified
        ));
    }
    json.push_str("  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr3.json");
    std::fs::write(path, &json).expect("BENCH_pr3.json is writable");
    println!("\nwrote {path}");
}
