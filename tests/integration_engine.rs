//! End-to-end equivalence of the SXSI engine and the naive reference
//! evaluator over the paper's structural query sets (X01–X17, T01–T05) on
//! synthetic XMark- and Treebank-like corpora.

use sxsi::{SxsiIndex, SxsiOptions};
use sxsi_baseline::NaiveEvaluator;
use sxsi_datagen::{
    medline, treebank, wiki, xmark, MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig,
};
use sxsi_xpath::eval::EvalOptions;
use sxsi_xpath::{
    parse_query, MEDLINE_QUERIES, ORDERED_QUERIES, TREEBANK_QUERIES, WORD_QUERIES, XMARK_QUERIES,
};

fn check_queries(index: &SxsiIndex, queries: &[sxsi_xpath::NamedQuery]) {
    let naive = NaiveEvaluator::new(index.tree(), index.texts());
    for q in queries {
        let parsed = parse_query(q.xpath).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        let expected = naive.evaluate(&parsed);
        let got = index.materialize(q.xpath).unwrap_or_else(|e| panic!("{}: {e}", q.id));
        assert_eq!(got, expected, "{} materialization differs", q.id);
        let count = index.count(q.xpath).unwrap();
        assert_eq!(count as usize, expected.len(), "{} count differs", q.id);
    }
}

#[test]
fn xmark_queries_match_reference() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.08, seed: 3 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    check_queries(&index, XMARK_QUERIES);
}

#[test]
fn treebank_queries_match_reference() {
    let xml = treebank::generate(&TreebankConfig { num_sentences: 250, seed: 3 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    check_queries(&index, TREEBANK_QUERIES);
}

/// The Figure 12 ablation is a pure performance experiment: every one of
/// the 63 benchmark queries selects the same nodes on its corpus whichever
/// evaluator optimizations are switched on.
#[test]
fn optimization_ablation_preserves_results_on_all_63_queries() {
    let corpora = [
        ("xmark", xmark::generate(&XMarkConfig { scale: 0.05, seed: 11 })),
        ("treebank", treebank::generate(&TreebankConfig { num_sentences: 150, seed: 11 })),
        ("medline", medline::generate(&MedlineConfig { num_citations: 80, seed: 11 })),
        ("wiki", wiki::generate(&WikiConfig { num_pages: 60, seed: 11 })),
    ];
    let configs = [
        EvalOptions::naive(),
        EvalOptions { jumping: true, memoization: false, lazy_regions: false, text_index_predicates: false },
        EvalOptions { jumping: false, memoization: true, lazy_regions: false, text_index_predicates: true },
        EvalOptions { jumping: true, memoization: true, lazy_regions: false, text_index_predicates: true },
        EvalOptions { jumping: true, memoization: false, lazy_regions: true, text_index_predicates: true },
    ];
    let mut checked = 0;
    for (corpus, xml) in &corpora {
        let paper: &[sxsi_xpath::NamedQuery] = match *corpus {
            "xmark" => XMARK_QUERIES,
            "treebank" => TREEBANK_QUERIES,
            "medline" => MEDLINE_QUERIES,
            _ => &[],
        };
        // The word queries W01–W05 run on medline, W06–W10 on wiki.
        let words: &[sxsi_xpath::NamedQuery] = match *corpus {
            "medline" => &WORD_QUERIES[..5],
            "wiki" => &WORD_QUERIES[5..],
            _ => &[],
        };
        let queries: Vec<(&str, &str)> = paper
            .iter()
            .chain(words)
            .map(|q| (q.id, q.xpath))
            .chain(ORDERED_QUERIES.iter().filter(|q| q.corpus == *corpus).map(|q| (q.id, q.xpath)))
            .collect();
        let reference = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
        for eval in configs {
            let index = SxsiIndex::build_from_xml_with_options(
                xml.as_bytes(),
                SxsiOptions { eval, ..Default::default() },
            )
            .expect("builds");
            for (id, xpath) in &queries {
                assert_eq!(
                    index.count(xpath).unwrap(),
                    reference.count(xpath).unwrap(),
                    "{id} count differs under {eval:?}"
                );
                assert_eq!(
                    index.materialize(xpath).unwrap(),
                    reference.materialize(xpath).unwrap(),
                    "{id} nodes differ under {eval:?}"
                );
            }
        }
        checked += queries.len();
    }
    assert_eq!(checked, 63);
}
