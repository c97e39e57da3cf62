//! Table II: FM-index search times with sampling factor l = 64 —
//! GlobalCount vs ContainsCount vs ContainsReport vs the naive plain scan,
//! over patterns of increasing frequency.
use sxsi_bench::{header, medline_xml, row, time_avg_ms};
use sxsi_text::{TextCollection, TextCollectionOptions, TextId};
use sxsi_xml::parse_document;

/// Every occurrence of `pattern` located through the FM-index (backward
/// search, then one locate walk per row), sorted — the FM side of the table
/// even where `contains` would scan the plain copy instead.
fn locate_all(texts: &TextCollection, pattern: &[u8]) -> Vec<(TextId, usize)> {
    let range = texts.fm_index().backward_search(pattern);
    let mut out: Vec<_> = (range.start..range.end).map(|row| texts.locate_row(row)).collect();
    out.sort_unstable();
    out
}

pub fn run(sample_rate: usize, title: &str) {
    let doc = parse_document(medline_xml().as_bytes()).expect("parses");
    let texts = TextCollection::with_options(
        &doc.text_slices(),
        TextCollectionOptions { sample_rate, keep_plain_text: true },
    );
    header(title, &["pattern", "global count", "global ms", "contains count", "contains ms", "report ms", "plain scan ms"]);
    for pattern in ["epididymis", "ruminants", "AUSTRALIA", "plus", "blood", "human", "from", "with", "the", "a"] {
        let p = pattern.as_bytes();
        let global = texts.global_count(p);
        let g_ms = time_avg_ms(3, || texts.global_count(p));
        let cc = texts.contains_count(p);
        let cc_ms = time_avg_ms(3, || {
            let mut ids: Vec<TextId> = locate_all(&texts, p).into_iter().map(|(id, _)| id).collect();
            ids.dedup();
            ids
        });
        let rep_ms = time_avg_ms(3, || locate_all(&texts, p));
        let plain = texts.plain().expect("plain kept");
        let scan_ms = time_avg_ms(3, || plain.scan_contains(p));
        row(&[
            pattern.to_string(),
            format!("{global}"),
            format!("{g_ms:.4}"),
            format!("{cc}"),
            format!("{cc_ms:.3}"),
            format!("{rep_ms:.3}"),
            format!("{scan_ms:.3}"),
        ]);
    }
}

#[allow(dead_code)]
fn main() {
    run(64, "Table II: FM-index search times, sampling l=64");
}
