//! Text-oriented search over a Medline-like corpus (the paper's Section 6.6
//! scenario): highly selective `contains`/`starts-with` predicates answered
//! bottom-up from the FM-index.
//!
//! Run with `cargo run --release --example medline_text_search`.

use std::time::Instant;

use sxsi::{QueryOptions, SxsiIndex};
use sxsi_datagen::{medline, MedlineConfig};
use sxsi_xpath::MEDLINE_QUERIES;

fn main() {
    let xml = medline::generate(&MedlineConfig { num_citations: 800, seed: 7 });
    println!("generated Medline-like corpus: {} bytes", xml.len());

    let start = Instant::now();
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("valid XML");
    println!("index built in {:.1} ms", start.elapsed().as_secs_f64() * 1e3);
    let stats = index.stats();
    println!(
        "nodes={} texts={} index={} KiB (plain text copy {} KiB)",
        stats.num_nodes,
        stats.num_texts,
        (stats.tree_bytes + stats.text_index_bytes) / 1024,
        stats.plain_text_bytes / 1024
    );

    println!(
        "\n{:<6} {:>9} {:>10} {:>9} {:>10}  query",
        "id", "count", "strategy", "count ms", "exists ms"
    );
    for q in MEDLINE_QUERIES {
        let prepared = match index.prepare(q.xpath) {
            Ok(prepared) => prepared,
            Err(e) => {
                println!("{:<6} failed: {e}", q.id);
                continue;
            }
        };
        let start = Instant::now();
        let counted = prepared.run(&index, &QueryOptions::count());
        let count_ms = start.elapsed().as_secs_f64() * 1e3;
        // Existence stops at the first verified match — on selective text
        // queries this skips almost all of the seed verification work.
        let start = Instant::now();
        let found = prepared.run(&index, &QueryOptions::exists());
        let exists_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(found.exists(), counted.count() > 0);
        println!(
            "{:<6} {:>9} {:>10} {:>9.2} {:>10.2}  {}",
            q.id,
            counted.count(),
            prepared.strategy().name(),
            count_ms,
            exists_ms,
            q.xpath.chars().take(70).collect::<String>()
        );
    }

    // Direct use of the text collection: the paper's GlobalCount, and
    // ContainsReport reduced to distinct texts.
    println!("\nFM-index primitives:");
    for pattern in ["plus", "blood", "the"] {
        let global = index.texts().global_count(pattern.as_bytes());
        let texts = index.texts().contains(pattern.as_bytes()).len();
        println!("  pattern {pattern:>8}: {global:>7} occurrences in {texts:>6} texts");
    }
}
