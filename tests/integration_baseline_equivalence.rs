//! Cross-engine equivalence on a grid of corpora, seeds and generic queries:
//! the SXSI automaton engine, the bottom-up strategy and the naive evaluator
//! must always select the same nodes.

use sxsi::SxsiIndex;
use sxsi_baseline::{NaiveEvaluator, StreamingCounter};
use sxsi_datagen::{bio, medline, xmark};
use sxsi_datagen::{BioConfig, MedlineConfig, XMarkConfig};
use sxsi_xpath::eval::{EvalOptions, Evaluator};
use sxsi_xpath::{compile, parse_query};

const GENERIC_QUERIES: &[&str] = &[
    "//*",
    "//*//*",
    "/descendant::text()",
    "/descendant::*/attribute::*",
    "//name",
    "//person[address]/name",
    "//person[not(address)]",
    "//item[ .//keyword ]",
    r#"//person[ @id = "person3" ]"#,
    r#"//item[ .//keyword[ contains(., "the") ] ]"#,
];

#[test]
fn engines_agree_on_xmark_like_documents() {
    for seed in [1u64, 2, 3] {
        let xml = xmark::generate(&XMarkConfig { scale: 0.04, seed });
        let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
        let naive = NaiveEvaluator::new(index.tree(), index.texts());
        for query in GENERIC_QUERIES {
            let parsed = parse_query(query).unwrap();
            assert_eq!(
                index.materialize(query).unwrap(),
                naive.evaluate(&parsed),
                "query {query} seed {seed}"
            );
        }
    }
}

#[test]
fn engines_agree_on_other_corpora() {
    let medline_xml = medline::generate(&MedlineConfig { num_citations: 60, seed: 4 });
    let bio_xml = bio::generate(&BioConfig { num_genes: 20, seed: 4 });
    let queries = [
        "//*",
        "//Article//LastName",
        r#"//Author[ ./LastName[ starts-with(., "B") ] ]"#,
        "//gene/transcript/exon",
        r#"//gene[ ./biotype[ . = "protein_coding" ] ]/name"#,
    ];
    for xml in [medline_xml, bio_xml] {
        let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
        let naive = NaiveEvaluator::new(index.tree(), index.texts());
        for query in queries {
            let parsed = parse_query(query).unwrap();
            assert_eq!(index.materialize(query).unwrap(), naive.evaluate(&parsed), "query {query}");
        }
    }
}

#[test]
fn streaming_counter_matches_indexed_counts() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.05, seed: 5 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    for (query, path) in [
        ("//keyword", vec!["keyword"]),
        ("//listitem//keyword", vec!["listitem", "keyword"]),
        ("//site//person", vec!["site", "person"]),
    ] {
        let streamed = StreamingCounter::count_descendant_path(xml.as_bytes(), &path).unwrap();
        assert_eq!(index.count(query).unwrap() as usize, streamed, "query {query}");
    }
}

#[test]
fn force_top_down_matches_default_planner() {
    let xml = medline::generate(&MedlineConfig { num_citations: 50, seed: 10 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    for query in [
        r#"//Article[ .//AbstractText[ contains(., "plus") ] ]"#,
        r#"//Author[ ./LastName[ starts-with(., "Bar") ] ]"#,
        r#"//MedlineCitation[ .//Country[ contains(., "AUSTRALIA") ] ]"#,
    ] {
        // The automaton run from the root, whatever the planner picks.
        let automaton = compile(&parse_query(query).unwrap(), index.tree()).unwrap();
        let mut top_down =
            Evaluator::new(&automaton, index.tree(), Some(index.texts()), EvalOptions::default());
        assert_eq!(index.materialize(query).unwrap(), top_down.materialize(), "{query}");
    }
}
