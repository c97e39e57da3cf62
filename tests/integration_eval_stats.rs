//! The traversal of the top-down evaluator is pinned, not just its answers.
//!
//! For every benchmark query (X01–X17, T01–T05, M01–M11, W01–W10, O01–O20)
//! that the planner runs top-down on its test corpus, the table below holds
//! the `(visited_nodes, marked_nodes, result_nodes)` counters of a `Count`,
//! a `Nodes` and an `Exists` run.  It was generated on the commit before the
//! evaluator's inner loop was rewritten (transition table, sarray tag jumps),
//! so a speed-up of that loop cannot come from — or hide — a different
//! traversal: the rewritten loop must visit, mark and return exactly the
//! same number of nodes.
//!
//! To regenerate after a *deliberate* traversal change:
//!
//! ```sh
//! cargo test -p sxsi --test integration_eval_stats -- --ignored --nocapture print_table
//! ```

use sxsi::{QueryOptions, Strategy, SxsiIndex};
use sxsi_datagen::{
    medline, treebank, wiki, xmark, MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig,
};
use sxsi_xpath::{
    MEDLINE_QUERIES, ORDERED_QUERIES, TREEBANK_QUERIES, WORD_QUERIES, XMARK_QUERIES,
};

/// `[visited, marked, result]` of one run.
type Counters = [u64; 3];

/// `(query id, Count run, Nodes run, Exists run)`.
const PINNED: &[(&str, Counters, Counters, Counters)] = &[
    ("X01", [7, 1, 1], [7, 1, 1], [7, 1, 1]),
    ("X02", [73, 60, 60], [73, 60, 60], [9, 1, 1]),
    ("X03", [53, 0, 0], [53, 0, 0], [53, 0, 0]),
    ("X04", [154, 38, 38], [154, 38, 38], [5, 1, 1]),
    ("X05", [53, 5, 0], [53, 5, 0], [53, 5, 0]),
    ("X06", [156, 5, 3], [156, 5, 3], [156, 5, 3]),
    ("X07", [131, 12, 4], [131, 12, 4], [131, 12, 4]),
    ("X08", [92, 12, 11], [92, 12, 11], [92, 12, 11]),
    ("X09", [92, 12, 5], [92, 12, 5], [92, 12, 5]),
    ("X10", [544, 27, 27], [544, 27, 27], [544, 27, 27]),
    ("X11", [544, 27, 17], [544, 27, 17], [544, 27, 17]),
    ("X12", [260, 12, 3], [260, 12, 3], [260, 12, 3]),
    ("X13", [2053, 1, 1], [2053, 1, 1], [2053, 1, 1]),
    ("X14", [2053, 1151, 1151], [2053, 1151, 1151], [8, 6, 1]),
    ("X15", [2053, 1150, 1150], [2053, 1150, 1150], [8, 5, 1]),
    ("X16", [2053, 1145, 1145], [2053, 1145, 1145], [8, 4, 1]),
    ("X17", [2053, 1112, 1112], [2053, 1112, 1112], [8, 3, 1]),
    ("T01", [1, 641, 641], [1, 641, 641], [1, 641, 1]),
    ("T02", [19248, 1, 0], [19248, 1, 0], [19248, 1, 0]),
    ("T03", [10037, 641, 327], [10037, 641, 327], [67, 5, 1]),
    ("T04", [1121, 560, 560], [1121, 560, 560], [3, 1, 1]),
    ("T05", [1179, 0, 0], [1179, 0, 0], [1179, 0, 0]),
    ("M01", [3253, 120, 25], [3253, 120, 25], [267, 9, 1]),
    ("M03", [3253, 120, 112], [3253, 120, 112], [23, 1, 1]),
    ("M04", [3253, 120, 15], [3253, 120, 15], [267, 9, 1]),
    ("M06", [5174, 3145, 74], [5174, 3145, 74], [975, 594, 1]),
    ("M08", [5174, 3145, 97], [5174, 3145, 97], [233, 142, 1]),
    ("M10", [121, 120, 4], [121, 120, 4], [11, 10, 1]),
    ("M11", [5174, 3144, 0], [5174, 3144, 0], [5174, 3144, 0]),
    ("W03", [3253, 120, 0], [3253, 120, 0], [3253, 120, 0]),
    ("W05", [3253, 120, 26], [3253, 120, 26], [23, 1, 1]),
    ("W07", [81, 80, 1], [81, 80, 1], [11, 10, 1]),
    ("O01", [1461, 60, 32], [1461, 60, 32], [19, 1, 1]),
    ("O02", [524, 155, 57], [524, 155, 57], [6, 1, 1]),
    ("O08", [2883, 860, 120], [2883, 860, 120], [43, 12, 1]),
    ("O09", [19248, 860, 274], [19248, 860, 274], [109, 8, 1]),
    ("O13", [5173, 120, 120], [5173, 120, 120], [39, 1, 1]),
    ("O14", [241, 120, 120], [241, 120, 120], [3, 1, 1]),
    ("O19", [801, 80, 80], [801, 80, 80], [11, 1, 1]),
];

fn corpora() -> Vec<(&'static str, SxsiIndex)> {
    let build = |xml: String| SxsiIndex::build_from_xml(xml.as_bytes()).expect("corpus builds");
    vec![
        ("xmark", build(xmark::generate(&XMarkConfig { scale: 0.05, seed: 21 }))),
        ("treebank", build(treebank::generate(&TreebankConfig { num_sentences: 200, seed: 21 }))),
        ("medline", build(medline::generate(&MedlineConfig { num_citations: 120, seed: 21 }))),
        ("wiki", build(wiki::generate(&WikiConfig { num_pages: 80, seed: 21 }))),
    ]
}

/// The 63 benchmark queries as `(id, corpus, xpath)`.
fn catalogue() -> Vec<(&'static str, &'static str, &'static str)> {
    let mut out = Vec::new();
    out.extend(XMARK_QUERIES.iter().map(|q| (q.id, "xmark", q.xpath)));
    out.extend(TREEBANK_QUERIES.iter().map(|q| (q.id, "treebank", q.xpath)));
    out.extend(MEDLINE_QUERIES.iter().map(|q| (q.id, "medline", q.xpath)));
    // The word queries W01–W05 run on medline, W06–W10 on wiki.
    out.extend(WORD_QUERIES[..5].iter().map(|q| (q.id, "medline", q.xpath)));
    out.extend(WORD_QUERIES[5..].iter().map(|q| (q.id, "wiki", q.xpath)));
    out.extend(ORDERED_QUERIES.iter().map(|q| (q.id, q.corpus, q.xpath)));
    out
}

/// The counters of every top-down-planned query, in catalogue order.
fn measure() -> Vec<(&'static str, Counters, Counters, Counters)> {
    let corpora = corpora();
    let catalogue = catalogue();
    assert_eq!(catalogue.len(), 63);
    let mut rows = Vec::new();
    for (id, corpus, xpath) in catalogue {
        let index = &corpora.iter().find(|(name, _)| *name == corpus).expect("known corpus").1;
        let stmt = index.prepare(xpath).unwrap_or_else(|e| panic!("{id}: {e}"));
        if stmt.strategy() != Strategy::TopDown {
            continue;
        }
        let run = |options: QueryOptions| -> Counters {
            let stats = stmt.run(index, &options).stats().expect("stats are collected by default");
            [stats.visited_nodes, stats.marked_nodes, stats.result_nodes]
        };
        rows.push((id, run(QueryOptions::count()), run(QueryOptions::nodes()), run(QueryOptions::exists())));
    }
    rows
}

#[test]
fn top_down_traversal_counters_are_pinned() {
    let measured = measure();
    assert_eq!(
        measured.iter().map(|r| r.0).collect::<Vec<_>>(),
        PINNED.iter().map(|r| r.0).collect::<Vec<_>>(),
        "the set of top-down-planned queries changed"
    );
    for (got, want) in measured.iter().zip(PINNED) {
        assert_eq!(got.1, want.1, "{} Count [visited, marked, result]", got.0);
        assert_eq!(got.2, want.2, "{} Nodes [visited, marked, result]", got.0);
        assert_eq!(got.3, want.3, "{} Exists [visited, marked, result]", got.0);
    }
}

#[test]
#[ignore = "prints the table to paste into PINNED"]
fn print_table() {
    for (id, count, nodes, exists) in measure() {
        println!("    ({id:?}, {count:?}, {nodes:?}, {exists:?}),");
    }
}
