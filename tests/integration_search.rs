//! Differential suite for the keyword-search subsystem: on all four
//! corpora, the FM-index-driven search (`SxsiIndex::search`, the engine's
//! ranked `search_target`/`search_collection` fan-out) and the `ft:` XPath
//! predicates must agree with a from-first-principles oracle — an
//! independent tokenizer over extracted texts plus a DOM walk that
//! recomputes containing elements, SLCAs and the ranking formula of
//! `docs/search.md` without any index structure.  Sequential runs, the
//! parallel `BatchExecutor`, and sharded collection fan-out all go through
//! the same comparisons, and limited windows must equal slices of the
//! full runs.

use sxsi::{FtMode, FtQuery, QueryOptions, SxsiIndex};
use sxsi_baseline::NaiveEvaluator;
use sxsi_collection::Collection;
use sxsi_datagen::{
    medline, treebank, wiki, xmark, MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig,
};
use sxsi_engine::search::{search_collection, search_target, RankedHit};
use sxsi_engine::{BatchExecutor, QueryBatch, QuerySpec};
use sxsi_tree::{reserved, NodeId, XmlTree};
use sxsi_xpath::parse_query;

fn corpora() -> Vec<(&'static str, String)> {
    vec![
        ("xmark", xmark::generate(&XMarkConfig { scale: 0.02, seed: 19 })),
        ("treebank", treebank::generate(&TreebankConfig { num_sentences: 50, seed: 19 })),
        ("medline", medline::generate(&MedlineConfig { num_citations: 30, seed: 19 })),
        ("wiki", wiki::generate(&WikiConfig { num_pages: 30, seed: 19 })),
    ]
}

/// The search cases the differential runs: `(mode, literals)`, chosen so
/// every mode produces hits on every corpus (the generators draw from one
/// shared common-word pool) alongside deliberate no-match and zero-token
/// cases.
fn cases() -> Vec<(FtMode, Vec<&'static str>)> {
    vec![
        (FtMode::All, vec!["the"]),
        (FtMode::All, vec!["the", "of"]),
        (FtMode::All, vec!["the", "of", "and", "a"]),
        (FtMode::All, vec!["the of"]), // one literal, two tokens
        (FtMode::All, vec!["the", "zzznope"]),
        (FtMode::Any, vec!["the"]),
        (FtMode::Any, vec!["horse", "blood", "zzznope"]),
        (FtMode::Any, vec!["zzznope"]),
        (FtMode::Phrase, vec!["of the"]),
        (FtMode::Phrase, vec!["the"]),
        (FtMode::Phrase, vec!["the zzznope of"]),
        (FtMode::All, vec![" ,;- "]), // zero tokens: matches nothing
    ]
}

/// Tokenization reimplemented from the `docs/search.md` specification
/// (maximal runs of ASCII alphanumerics and bytes `>= 0x80`), deliberately
/// not calling into `sxsi-search`.
fn oracle_tokens(bytes: &[u8]) -> Vec<Vec<u8>> {
    bytes
        .split(|&b| !(b.is_ascii_alphanumeric() || b >= 0x80))
        .filter(|run| !run.is_empty())
        .map(|run| run.to_vec())
        .collect()
}

/// One query term as the oracle sees it: per-text occurrence counts (a
/// single token for `all`/`any`, the whole token sequence for `phrase`)
/// and the number of distinct texts it occurs in.
struct OracleTerm {
    per_text: Vec<usize>,
    df: usize,
}

/// The DOM-walk oracle over one document: token lists per text, matching
/// elements by exhaustive subtree checks, SLCA by the definition (no
/// matching proper descendant), scores by the documented formula.
struct Oracle<'a> {
    tree: &'a XmlTree,
    toks: Vec<Vec<Vec<u8>>>,
}

impl<'a> Oracle<'a> {
    fn new(index: &'a SxsiIndex) -> Oracle<'a> {
        let texts = index.texts();
        let toks =
            (0..texts.num_texts()).map(|t| oracle_tokens(&texts.get_text(t))).collect();
        Oracle { tree: index.tree(), toks }
    }

    /// The query's terms: each token separately for `all`/`any`, one
    /// phrase term for `phrase`.  Mirrors the term order of the engine so
    /// score sums accumulate in the same order.
    fn terms(&self, mode: FtMode, literals: &[&str]) -> Vec<OracleTerm> {
        let tokens: Vec<Vec<u8>> =
            literals.iter().flat_map(|l| oracle_tokens(l.as_bytes())).collect();
        if tokens.is_empty() {
            return Vec::new();
        }
        let groups: Vec<Vec<Vec<u8>>> = match mode {
            FtMode::All | FtMode::Any => tokens.into_iter().map(|t| vec![t]).collect(),
            FtMode::Phrase => vec![tokens],
        };
        groups
            .into_iter()
            .map(|group| {
                let per_text: Vec<usize> = self
                    .toks
                    .iter()
                    .map(|list| {
                        if list.len() < group.len() {
                            0
                        } else {
                            list.windows(group.len()).filter(|w| *w == &group[..]).count()
                        }
                    })
                    .collect();
                let df = per_text.iter().filter(|&&c| c > 0).count();
                OracleTerm { per_text, df }
            })
            .collect()
    }

    /// Whether `node` is a proper element: not the super-root, not a
    /// `#`/`%`/`@` reserved node, and not an attribute-name node (whose
    /// parent is the `@` container).
    fn is_element(&self, node: NodeId) -> bool {
        let tag = self.tree.tag(node);
        tag != reserved::ROOT
            && tag != reserved::TEXT
            && tag != reserved::ATTRIBUTES
            && tag != reserved::ATTRIBUTE_VALUE
            && !self.tree.parent(node).is_some_and(|p| self.tree.tag(p) == reserved::ATTRIBUTES)
    }

    fn elements(&self) -> Vec<NodeId> {
        self.tree.preorder_nodes().filter(|&n| self.is_element(n)).collect()
    }

    /// Whether the element's subtree satisfies the mode over the terms.
    fn matches(&self, node: NodeId, mode: FtMode, terms: &[OracleTerm]) -> bool {
        if terms.is_empty() {
            return false;
        }
        let range = self.tree.text_ids(node);
        let present =
            |term: &OracleTerm| range.clone().any(|t| term.per_text[t] > 0);
        match mode {
            FtMode::All => terms.iter().all(present),
            FtMode::Any | FtMode::Phrase => terms.iter().any(present),
        }
    }

    /// The documented score: `Σ_t tf(t, node) · ln(1 + N / df(t))` over
    /// terms that occur at all, mirroring the engine's evaluation order so
    /// the floating-point sums agree bitwise.
    fn score(&self, node: NodeId, terms: &[OracleTerm]) -> f64 {
        let range = self.tree.text_ids(node);
        let n = self.toks.len() as f64;
        terms
            .iter()
            .filter(|term| term.df > 0)
            .map(|term| {
                let tf: usize = range.clone().map(|t| term.per_text[t]).sum();
                tf as f64 * (1.0 + n / term.df as f64).ln()
            })
            .sum()
    }

    /// Expected ranked hits: SLCA elements for `all` (matching elements
    /// with no matching proper descendant element), nearest containing
    /// elements of each matching text otherwise, scored and sorted like
    /// the engine renders them.
    fn expected_hits(&self, mode: FtMode, literals: &[&str]) -> Vec<(NodeId, f64)> {
        let terms = self.terms(mode, literals);
        if terms.is_empty() {
            return Vec::new();
        }
        let nodes: Vec<NodeId> = match mode {
            FtMode::All => {
                let matching: Vec<NodeId> = self
                    .elements()
                    .into_iter()
                    .filter(|&e| self.matches(e, mode, &terms))
                    .collect();
                matching
                    .iter()
                    .copied()
                    .filter(|&e| {
                        !matching
                            .iter()
                            .any(|&d| d != e && self.tree.is_ancestor(e, d))
                    })
                    .collect()
            }
            FtMode::Any | FtMode::Phrase => {
                // Deepest element covering each matching text.  Elements
                // containing a text form an ancestor chain, so tracking
                // the deepest cover per text in one element sweep finds
                // the unique nearest container.
                let mut deepest: Vec<Option<NodeId>> = vec![None; self.toks.len()];
                for e in self.elements() {
                    for t in self.tree.text_ids(e) {
                        let covered = terms.iter().any(|term| term.per_text[t] > 0);
                        let deeper = match deepest[t] {
                            None => true,
                            Some(d) => self.tree.depth(e) > self.tree.depth(d),
                        };
                        if covered && deeper {
                            deepest[t] = Some(e);
                        }
                    }
                }
                let mut nodes: Vec<NodeId> = deepest.into_iter().flatten().collect();
                nodes.sort_unstable();
                nodes.dedup();
                nodes
            }
        };
        let mut hits: Vec<(NodeId, f64)> =
            nodes.into_iter().map(|n| (n, self.score(n, &terms))).collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        hits
    }
}

fn assert_hits_agree(
    engine: &[sxsi::SearchHit],
    expected: &[(NodeId, f64)],
    context: &str,
) {
    let engine_nodes: Vec<NodeId> = engine.iter().map(|h| h.node).collect();
    let expected_nodes: Vec<NodeId> = expected.iter().map(|&(n, _)| n).collect();
    assert_eq!(engine_nodes, expected_nodes, "node sets/order differ: {context}");
    for (h, &(_, score)) in engine.iter().zip(expected) {
        assert!(
            (h.score - score).abs() <= 1e-9 * score.abs().max(1.0),
            "score {} vs oracle {score}: {context}",
            h.score
        );
    }
}

/// `SxsiIndex::search` agrees with the DOM-walk oracle on every corpus,
/// every mode, hit sets, order and scores — and the engine's limited
/// windows are exact prefixes of the full ranking.
#[test]
fn search_results_match_dom_walk_oracle_on_all_corpora() {
    for (corpus, xml) in corpora() {
        let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
        let oracle = Oracle::new(&index);
        let mut nonempty = 0usize;
        for (mode, literals) in cases() {
            let context = format!("{corpus} ft:{}({literals:?})", mode.as_str());
            let query = FtQuery::new(mode, &literals);
            let engine = index.search(&query);
            let expected = oracle.expected_hits(mode, &literals);
            assert_hits_agree(&engine, &expected, &context);
            nonempty += usize::from(!engine.is_empty());

            // A limited window is exactly the prefix of the full run.
            let single = |limit| {
                search_target(&BatchExecutor::new(1), &index, corpus, &query, limit).unwrap()
            };
            let full = single(None);
            assert_eq!(full.total, engine.len(), "{context}");
            assert!(!full.truncated, "{context}");
            for limit in [0, 1, 3, engine.len(), engine.len() + 5] {
                let window = single(Some(limit));
                assert_eq!(
                    window.hits,
                    full.hits[..limit.min(full.hits.len())].to_vec(),
                    "{context} limit={limit}"
                );
                assert_eq!(window.truncated, limit < full.hits.len(), "{context} limit={limit}");
                assert_eq!(window.total, full.total, "{context} limit={limit}");
            }
        }
        // Vacuity guard: the common-word cases must actually match.
        assert!(nonempty >= 5, "only {nonempty} non-empty cases on {corpus}");
    }
}

/// The `ft:` XPath predicates agree with the naive evaluator's
/// from-first-principles `ft:` implementation — sequentially, through the
/// parallel batch executor, and for offset/limit windows.
#[test]
fn ft_predicates_match_naive_evaluator_sequentially_and_batched() {
    let queries: &[&str] = &[
        r#"//*[ft:all("the", "of")]"#,
        r#"//*[ft:any("horse", "blood")]"#,
        r#"//*[ft:phrase("of the")]"#,
        r#"//*[ft:all("the") and ft:any("horse", "blood")]"#,
        r#"//*[ft:all("the of and")]"#,
        r#"//*[ft:any("zzznope")]"#,
        r#"//*[ * and ft:all("of")]"#,
    ];
    for (corpus, xml) in corpora() {
        let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
        let naive = NaiveEvaluator::new(index.tree(), index.texts());
        for q in queries {
            let parsed = parse_query(q).unwrap();
            let expected = naive.evaluate(&parsed);
            assert_eq!(
                index.materialize(q).unwrap(),
                expected,
                "{q} on {corpus} (sequential)"
            );
            assert_eq!(index.count(q).unwrap() as usize, expected.len(), "{q} on {corpus}");

            // Windowed runs equal slices of the oracle's full evaluation.
            let stmt = index.prepare(q).unwrap();
            for (limit, offset) in [(0u64, 0u64), (1, 0), (5, 0), (3, 2), (100, 1)] {
                let window =
                    stmt.run(&index, &QueryOptions::nodes().with_limit(limit).with_offset(offset));
                let oracle_window = naive.evaluate_window(&parsed, Some(limit), offset);
                assert_eq!(
                    window.nodes().unwrap(),
                    oracle_window,
                    "{q} on {corpus} limit={limit} offset={offset}"
                );
            }
        }
        // Misplaced ft: predicates (earlier steps, negation) are refused
        // with the documented compile error, not silently mis-evaluated.
        for q in [r#"//*[ft:all("the")]/*"#, r#"//*[not(ft:any("the"))]"#] {
            let err = index.materialize(q).unwrap_err().to_string();
            assert!(err.contains("top-level conjuncts"), "{q}: {err}");
        }
        // The parallel executor returns the same node sets as the oracle.
        let specs: Vec<QuerySpec> =
            queries.iter().map(|q| QuerySpec::nodes(*q, *q)).collect();
        let batch = QueryBatch::compile(&index, specs).expect("batch compiles");
        for threads in [1, 4] {
            let results = BatchExecutor::new(threads).run(&index, &batch);
            for (q, result) in queries.iter().zip(&results) {
                let expected = naive.evaluate(&parse_query(q).unwrap());
                assert_eq!(
                    result.result.nodes().unwrap(),
                    expected,
                    "{q} on {corpus} with {threads} threads"
                );
            }
        }
    }
}

/// Sharded collection search merges exactly the per-document oracle
/// expectations, identically at every worker count, and its limited
/// windows are slices of the full merged ranking.
#[test]
fn collection_sharded_search_matches_per_document_oracle_merge() {
    let dir = std::env::temp_dir().join(format!("sxsi-search-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let docs = corpora();
    let collection = Collection::build(
        dir.join("diff.sxsic"),
        docs.iter()
            .map(|(name, xml)| {
                (name.to_string(), SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds"))
            })
            .collect(),
    )
    .expect("collection builds");
    // Independent per-document indexes for the oracle side.
    let indexes: Vec<(&str, SxsiIndex)> = docs
        .iter()
        .map(|(name, xml)| (*name, SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds")))
        .collect();

    for (mode, literals) in cases() {
        let context = format!("collection ft:{}({literals:?})", mode.as_str());
        let query = FtQuery::new(mode, &literals);
        // Expected merge: per-document oracle hits, concatenated in
        // document order, stable-sorted by score (ties keep doc order).
        let mut expected: Vec<RankedHit> = Vec::new();
        for (name, index) in &indexes {
            let oracle = Oracle::new(index);
            for (node, score) in oracle.expected_hits(mode, &literals) {
                expected.push(RankedHit {
                    doc: name.to_string(),
                    preorder: index.tree().preorder(node),
                    score,
                });
            }
        }
        expected.sort_by(|a, b| b.score.total_cmp(&a.score));

        let full = search_collection(&BatchExecutor::new(1), &collection, &query, None)
            .expect("search runs");
        assert_eq!(full.hits.len(), expected.len(), "{context}");
        for (got, want) in full.hits.iter().zip(&expected) {
            assert_eq!((got.doc.as_str(), got.preorder), (want.doc.as_str(), want.preorder), "{context}");
            assert!(
                (got.score - want.score).abs() <= 1e-9 * want.score.abs().max(1.0),
                "score {} vs oracle {}: {context}",
                got.score,
                want.score
            );
        }
        // Identical at every worker count, and windows slice the full run.
        for threads in [2, 4] {
            let again = search_collection(&BatchExecutor::new(threads), &collection, &query, None)
                .expect("search runs");
            assert_eq!(again, full, "{context} with {threads} threads");
        }
        for limit in [0, 1, 4, full.hits.len() + 3] {
            let window =
                search_collection(&BatchExecutor::new(2), &collection, &query, Some(limit))
                    .expect("search runs");
            assert_eq!(
                window.hits,
                full.hits[..limit.min(full.hits.len())].to_vec(),
                "{context} limit={limit}"
            );
            assert_eq!(window.truncated, limit < full.hits.len(), "{context} limit={limit}");
            assert_eq!(window.total, full.total, "{context} limit={limit}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
