//! The collection layer's differential suite: every corpus is split into
//! a per-subtree multi-document collection, and collection query results
//! (count / exists / nodes / windows) are checked against the oracle —
//! the concatenation of per-document single-index runs — sequentially
//! and through the parallel [`CollectionExecutor`] at several pool
//! sizes, over all 43 paper queries plus O01–O20 (63 queries total).
//!
//! Also pinned here: the per-shard early-termination criterion (summed
//! visited-node counters strictly lower for `exists`/first-1 than full
//! materialization on at least 50 of the 63 queries), that a single index
//! and a one-document collection of the same document answer alike (the
//! one query path), the `sxsi verify --deep` exit-5 contract on every
//! seeded manifest/segment corruption class, the distinct structured CLI
//! error codes, and byte-equivalence of CLI collection output with the
//! in-process renderer.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, OnceLock};

use sxsi::{QueryOptions, Strategy, SxsiIndex};
use sxsi_collection::{Collection, DocNode};
use sxsi_datagen::{
    medline, treebank, wiki, xmark, MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig,
};
use sxsi_engine::collection::CollectionExecutor;
use sxsi_engine::server::protocol::{escape_query, Response};
use sxsi_engine::server::{render_result, OutputKind, ServeOptions, ServedIndex, Server};
use sxsi_engine::{BatchExecutor, QueryBatch, QuerySpec};
use sxsi_xpath::{
    MEDLINE_QUERIES, ORDERED_QUERIES, TREEBANK_QUERIES, WORD_QUERIES, XMARK_QUERIES,
};

struct SplitCorpus {
    name: &'static str,
    collection: Collection,
    /// The whole document as a one-document collection (named
    /// `one-doc`); its only segment doubles as the single index.
    one_doc: Arc<Collection>,
}

/// The four corpora of the paper's evaluation, each split per-subtree
/// into a multi-document collection: the root's element children are
/// chunked into five documents, every document re-wrapped in the
/// original root tag, so per-document runs remain well-formed.
fn corpora() -> &'static Vec<SplitCorpus> {
    static CORPORA: OnceLock<Vec<SplitCorpus>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        let dir = std::env::temp_dir()
            .join(format!("sxsi-integration-collection-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        vec![
            split("xmark", &xmark::generate(&XMarkConfig { scale: 0.03, seed: 13 }), &dir),
            split(
                "treebank",
                &treebank::generate(&TreebankConfig { num_sentences: 60, seed: 13 }),
                &dir,
            ),
            split(
                "medline",
                &medline::generate(&MedlineConfig { num_citations: 40, seed: 13 }),
                &dir,
            ),
            split("wiki", &wiki::generate(&WikiConfig { num_pages: 40, seed: 13 }), &dir),
        ]
    })
}

/// The document's root element name, skipping any prolog.
fn root_tag(xml: &str) -> &str {
    let mut rest = xml;
    loop {
        let open = rest.find('<').expect("document has a root element");
        let after = &rest[open + 1..];
        if after.starts_with('?') || after.starts_with('!') {
            let close = after.find('>').expect("prolog closes");
            rest = &after[close + 1..];
            continue;
        }
        let end = after
            .find(|c: char| c.is_whitespace() || c == '>' || c == '/')
            .expect("root tag closes");
        return &after[..end];
    }
}

fn split(name: &'static str, xml: &str, dir: &Path) -> SplitCorpus {
    let whole = SxsiIndex::build_from_xml(xml.as_bytes()).expect("corpus builds");
    let children = whole.materialize("/*/*").expect("root children materialize");
    assert!(children.len() >= 5, "{name}: too few root children to split");
    let root = root_tag(xml);
    let per_doc = children.len().div_ceil(5);
    let mut docs = Vec::new();
    for (i, chunk) in children.chunks(per_doc).enumerate() {
        let mut doc = format!("<{root}>");
        for &child in chunk {
            doc.push_str(&whole.get_subtree(child));
        }
        doc.push_str(&format!("</{root}>"));
        docs.push((
            format!("{name}-{i}"),
            SxsiIndex::build_from_xml(doc.as_bytes()).expect("split doc builds"),
        ));
    }
    let collection =
        Collection::build(dir.join(format!("{name}.sxsic")), docs).expect("collection builds");
    let one_doc = Collection::build(
        dir.join(format!("{name}-one.sxsic")),
        vec![("one-doc".to_string(), whole)],
    )
    .expect("one-document collection builds");
    SplitCorpus { name, collection, one_doc: Arc::new(one_doc) }
}

/// The paper + ordered queries that run on `corpus` (63 across all four).
fn queries_for(corpus: &str) -> Vec<(&'static str, &'static str)> {
    let mut queries: Vec<(&'static str, &'static str)> = Vec::new();
    match corpus {
        "xmark" => queries.extend(XMARK_QUERIES.iter().map(|q| (q.id, q.xpath))),
        "treebank" => queries.extend(TREEBANK_QUERIES.iter().map(|q| (q.id, q.xpath))),
        "medline" => {
            queries.extend(MEDLINE_QUERIES.iter().map(|q| (q.id, q.xpath)));
            // W01–W05 run over Medline.
            queries
                .extend(WORD_QUERIES.iter().filter(|q| q.id < "W06").map(|q| (q.id, q.xpath)));
        }
        "wiki" => {
            // W06–W10 run over the wiki corpus.
            queries
                .extend(WORD_QUERIES.iter().filter(|q| q.id >= "W06").map(|q| (q.id, q.xpath)));
        }
        other => panic!("unknown corpus {other}"),
    }
    queries.extend(
        ORDERED_QUERIES.iter().filter(|q| q.corpus == corpus).map(|q| (q.id, q.xpath)),
    );
    queries
}

/// The differential oracle: concatenated per-document single-index full
/// materializations, doc-major (which is exactly the collection's
/// global document order).
fn oracle_full(collection: &Collection, xpath: &str) -> Vec<DocNode> {
    let mut nodes = Vec::new();
    for doc in 0..collection.num_docs() {
        let index = collection.segment(doc).expect("segment loads");
        for node in index.materialize(xpath).expect("oracle run") {
            nodes.push(DocNode { doc, node });
        }
    }
    nodes
}

/// All 63 queries exist across the four corpora, and together they
/// exercise all three evaluation strategies.
#[test]
fn the_suite_covers_63_queries_and_all_three_strategies() {
    let mut total = 0usize;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for corpus in corpora() {
        let index = corpus.collection.segment(0).expect("segment loads");
        for (id, xpath) in queries_for(corpus.name) {
            total += 1;
            let prepared = index.prepare(xpath).unwrap_or_else(|e| {
                panic!("{} {id} must compile against a split document: {e}", corpus.name)
            });
            seen.insert(format!("{:?}", prepared.strategy()));
        }
    }
    assert_eq!(total, 63, "43 paper queries + O01-O20");
    for strategy in [Strategy::TopDown, Strategy::BottomUp, Strategy::Direct] {
        assert!(
            seen.contains(&format!("{strategy:?}")),
            "suite exercises no {strategy:?} plan (saw {seen:?})"
        );
    }
}

/// The core differential: collection count/exists/nodes results equal
/// the concatenation of per-document single-index runs, sequentially
/// and through the parallel executor at 1/2/4 threads.
#[test]
fn collection_results_match_concatenated_per_document_runs() {
    for corpus in corpora() {
        let collection = &corpus.collection;
        for (id, xpath) in queries_for(corpus.name) {
            let full = oracle_full(collection, xpath);

            let seq = CollectionExecutor::run_sequential(collection, xpath, &QueryOptions::nodes())
                .expect("sequential nodes run");
            assert_eq!(seq.nodes(), &full[..], "{} {id} sequential nodes", corpus.name);
            assert!(!seq.truncated(), "{} {id} unlimited run truncated", corpus.name);
            let seq_count =
                CollectionExecutor::run_sequential(collection, xpath, &QueryOptions::count())
                    .expect("sequential count run");
            assert_eq!(
                seq_count.count(),
                full.len() as u64,
                "{} {id} sequential count",
                corpus.name
            );
            let seq_exists =
                CollectionExecutor::run_sequential(collection, xpath, &QueryOptions::exists())
                    .expect("sequential exists run");
            assert_eq!(
                seq_exists.exists(),
                !full.is_empty(),
                "{} {id} sequential exists",
                corpus.name
            );

            for threads in [1usize, 2, 4] {
                let executor = CollectionExecutor::new(threads);
                let nodes = executor
                    .run(collection, xpath, &QueryOptions::nodes())
                    .expect("parallel nodes run");
                assert_eq!(nodes.nodes(), &full[..], "{} {id} @{threads}t nodes", corpus.name);
                assert!(!nodes.truncated(), "{} {id} @{threads}t truncated", corpus.name);
                assert_eq!(
                    executor
                        .run(collection, xpath, &QueryOptions::count())
                        .expect("parallel count run")
                        .count(),
                    full.len() as u64,
                    "{} {id} @{threads}t count",
                    corpus.name
                );
                assert_eq!(
                    executor
                        .run(collection, xpath, &QueryOptions::exists())
                        .expect("parallel exists run")
                        .exists(),
                    !full.is_empty(),
                    "{} {id} @{threads}t exists",
                    corpus.name
                );
            }
        }
    }
}

/// A single index and a one-document collection of the same document
/// are one target shape: count, exists, truncation, node set and
/// evaluator statistics agree with each other and with a direct prepared
/// run, for all 63 queries in every mode, unwindowed and under `limit 2
/// offset 1` — in process and through the daemon, whose bodies differ
/// only by the collection's `one-doc:` node labels.
#[test]
fn single_index_and_one_document_collection_agree() {
    let executor = BatchExecutor::new(2);
    for corpus in corpora() {
        let one_doc = &corpus.one_doc;
        let single = one_doc.segment(0).expect("segment loads");
        let server = Server::new_served(
            vec![
                ("single".to_string(), ServedIndex::Single(Arc::clone(&single))),
                ("one".to_string(), ServedIndex::Collection(Arc::clone(one_doc))),
            ],
            ServeOptions { threads: 2, ..ServeOptions::default() },
        )
        .expect("server starts");
        for (id, xpath) in queries_for(corpus.name) {
            for output in [OutputKind::Count, OutputKind::Nodes, OutputKind::Exists] {
                for (limit, offset) in [(None, 0), (Some(2), 1)] {
                    let context = format!("{} {id} {output:?} {limit:?}+{offset}", corpus.name);
                    let options =
                        QueryOptions { mode: output.query_mode(), limit, offset };
                    let direct = single.run(xpath, &options).expect("direct run");
                    let spec = || vec![QuerySpec::new(id, xpath, options)];
                    let answers = [
                        executor.answer(&*single, &QueryBatch::prepare(&*single, spec()).unwrap()),
                        executor.answer(&**one_doc, &QueryBatch::prepare(&**one_doc, spec()).unwrap()),
                    ];
                    for answer in answers {
                        let answer = answer.expect("answers").remove(0);
                        assert_eq!(answer.count(), direct.count(), "{context}");
                        assert_eq!(answer.exists(), direct.exists(), "{context}");
                        assert_eq!(answer.truncated(), direct.truncated(), "{context}");
                        let nodes: Vec<usize> = answer.nodes().iter().map(|n| n.node).collect();
                        assert_eq!(nodes, direct.nodes().unwrap_or(&[]), "{context}");
                        let stats = |s: sxsi::EvalStats| (s.visited_nodes, s.marked_nodes, s.result_nodes);
                        assert_eq!(
                            Some(stats(answer.stats())),
                            direct.stats().map(stats),
                            "{context}: a one-document target runs the request's own options"
                        );
                    }
                    let body = |index: &str| {
                        let limit = limit.map_or_else(|| "none".to_string(), |l| l.to_string());
                        let payload = format!(
                            "query index={index} output={} limit={limit} offset={offset}\n{}",
                            output.as_str(),
                            escape_query(xpath)
                        );
                        match Response::parse(&server.handle_command(payload.as_bytes()).0) {
                            Some(Response::Ok { body, .. }) => body,
                            other => panic!("{context}: {other:?}"),
                        }
                    };
                    assert_eq!(body("single"), body("one").replace("one-doc:", ""), "{context}");
                }
            }
        }
    }
}

const WINDOWS: &[(u64, u64)] = &[(0, 0), (1, 0), (1, 1), (3, 2), (7, 0), (10_000, 0)];

/// Limit/offset windows equal the corresponding slice of the merged
/// full run, with an exact truncation flag — the PR-5 window-oracle
/// pattern lifted to collections, on both execution paths.
#[test]
fn windows_match_slices_of_the_merged_full_run() {
    let executor = CollectionExecutor::new(2);
    for corpus in corpora() {
        let collection = &corpus.collection;
        for (id, xpath) in queries_for(corpus.name) {
            let full = oracle_full(collection, xpath);
            for &(limit, offset) in WINDOWS {
                let lo = offset.min(full.len() as u64) as usize;
                let hi = offset.saturating_add(limit).min(full.len() as u64) as usize;
                let expected = &full[lo..hi];
                let expect_more = (full.len() as u64) > offset.saturating_add(limit);
                let options = QueryOptions::nodes().with_limit(limit).with_offset(offset);

                let parallel =
                    executor.run(collection, xpath, &options).expect("parallel window");
                assert_eq!(
                    parallel.nodes(),
                    expected,
                    "{} {id} limit {limit} offset {offset} parallel",
                    corpus.name
                );
                assert_eq!(
                    parallel.truncated(),
                    expect_more,
                    "{} {id} limit {limit} offset {offset} parallel truncation",
                    corpus.name
                );

                let sequential = CollectionExecutor::run_sequential(collection, xpath, &options)
                    .expect("sequential window");
                assert_eq!(
                    sequential.nodes(),
                    expected,
                    "{} {id} limit {limit} offset {offset} sequential",
                    corpus.name
                );
                assert_eq!(
                    sequential.truncated(),
                    expect_more,
                    "{} {id} limit {limit} offset {offset} sequential truncation",
                    corpus.name
                );

                let counted = executor
                    .run(
                        collection,
                        xpath,
                        &QueryOptions::count().with_limit(limit).with_offset(offset),
                    )
                    .expect("windowed count");
                assert_eq!(
                    counted.count(),
                    expected.len() as u64,
                    "{} {id} limit {limit} offset {offset} count",
                    corpus.name
                );
                assert_eq!(
                    counted.truncated(),
                    expect_more,
                    "{} {id} limit {limit} offset {offset} count truncation",
                    corpus.name
                );
            }
        }
    }
}

/// Early termination pays off: summed visited-node counters are never
/// higher for `exists`/first-1 than for full materialization, and
/// strictly lower on at least 50 of the 63 queries.  Both termination
/// layers count — the per-shard `Exists`/window pushdown of the
/// parallel executor and the cross-document stop of the sequential
/// path (which skips every document after the window is provably
/// settled).
#[test]
fn early_termination_beats_full_materialization_on_most_queries() {
    let executor = CollectionExecutor::new(2);
    let mut improved = 0usize;
    let mut total = 0usize;
    for corpus in corpora() {
        let collection = &corpus.collection;
        for (id, xpath) in queries_for(corpus.name) {
            total += 1;
            let par = |options: QueryOptions| {
                executor.run(collection, xpath, &options).expect("stats run").stats().visited_nodes
            };
            let seq = |options: QueryOptions| {
                CollectionExecutor::run_sequential(collection, xpath, &options)
                    .expect("sequential stats run")
                    .stats()
                    .visited_nodes
            };
            let full = par(QueryOptions::nodes());
            assert_eq!(
                seq(QueryOptions::nodes()),
                full,
                "{} {id}: an unbounded run visits the same nodes on both paths",
                corpus.name
            );
            let terminated = [
                par(QueryOptions::exists()),
                par(QueryOptions::nodes().with_limit(1)),
                seq(QueryOptions::exists()),
                seq(QueryOptions::nodes().with_limit(1)),
            ];
            for visited in terminated {
                assert!(
                    visited <= full,
                    "{} {id}: terminated run visited {visited} > full {full}",
                    corpus.name
                );
            }
            // The queries that cannot strictly improve are inherent:
            // zero-text-match word queries visit 0 nodes either way, and
            // a handful of bottom-up plans do text-match-driven work that
            // an existence probe cannot shrink.
            if terminated.iter().any(|&visited| visited < full) {
                improved += 1;
            }
        }
    }
    assert_eq!(total, 63);
    eprintln!("early termination strictly improved {improved}/{total} queries");
    assert!(
        improved >= 50,
        "early termination strictly improved only {improved}/{total} queries"
    );
}

// ---------------------------------------------------------------------------
// CLI contracts (exit codes, structured errors, rendering equivalence).
// ---------------------------------------------------------------------------

fn sxsi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sxsi"))
}

fn cli_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("sxsi-collection-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create CLI test dir");
    dir
}

/// Builds a three-document collection in `dir` via the CLI and returns
/// the manifest path.
fn build_cli_collection(dir: &Path) -> PathBuf {
    std::fs::write(dir.join("d1.xml"), "<a><b>one</b><c/></a>").unwrap();
    std::fs::write(dir.join("d2.xml"), "<a><b/><b>two</b></a>").unwrap();
    std::fs::write(dir.join("d3.xml"), "<a><c><b/></c></a>").unwrap();
    let manifest = dir.join("col.sxsic");
    let output = sxsi()
        .arg("build-collection")
        .arg(&manifest)
        .arg(dir.join("d1.xml"))
        .arg(dir.join("d2.xml"))
        .arg(dir.join("d3.xml"))
        .output()
        .expect("run build-collection");
    assert!(
        output.status.success(),
        "build-collection failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    manifest
}

/// Every seeded corruption class makes `sxsi verify --deep` exit 5 and
/// print a structured `collection-*` issue code — never a panic, never
/// a zero exit.
#[test]
fn cli_verify_deep_exits_5_on_each_corruption_class() {
    type Corruption<'a> = (&'a str, &'a dyn Fn(&Path), &'a str);
    let corruptions: &[Corruption] = &[
        (
            "manifest-bit-flip",
            &|dir| {
                let path = dir.join("col.sxsic");
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(&path, bytes).unwrap();
            },
            "collection-manifest-",
        ),
        (
            "manifest-truncation",
            &|dir| {
                let path = dir.join("col.sxsic");
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            },
            "collection-manifest-",
        ),
        (
            "manifest-bad-magic",
            &|dir| {
                let path = dir.join("col.sxsic");
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[0] = b'X';
                std::fs::write(&path, bytes).unwrap();
            },
            "collection-manifest-magic",
        ),
        (
            "manifest-wrong-version",
            &|dir| {
                let path = dir.join("col.sxsic");
                let mut bytes = std::fs::read(&path).unwrap();
                bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
                std::fs::write(&path, bytes).unwrap();
            },
            "collection-manifest-version",
        ),
        (
            "segment-missing",
            &|dir| {
                std::fs::remove_file(dir.join("col.d1.sxsi")).unwrap();
            },
            "collection-segment-missing",
        ),
        (
            "segment-renamed",
            &|dir| {
                std::fs::rename(dir.join("col.d2.sxsi"), dir.join("col.d2.renamed")).unwrap();
            },
            "collection-segment-missing",
        ),
        (
            "segment-bit-flip",
            &|dir| {
                let path = dir.join("col.d0.sxsi");
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
                std::fs::write(&path, bytes).unwrap();
            },
            "collection-segment-checksum",
        ),
    ];
    for (tag, corrupt, expected_code) in corruptions {
        let dir = cli_dir(&format!("corrupt-{tag}"));
        let manifest = build_cli_collection(&dir);
        corrupt(&dir);
        let output = sxsi().arg("verify").arg(&manifest).arg("--deep").output().unwrap();
        assert_eq!(
            output.status.code(),
            Some(5),
            "{tag}: expected exit 5, got {:?}\nstdout: {}\nstderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            stdout.contains(expected_code),
            "{tag}: expected a {expected_code} issue, got:\n{stdout}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A clean collection verifies with exit 0, quick and deep.
#[test]
fn cli_verify_accepts_a_clean_collection() {
    let dir = cli_dir("verify-clean");
    let manifest = build_cli_collection(&dir);
    for deep in [false, true] {
        let mut cmd = sxsi();
        cmd.arg("verify").arg(&manifest);
        if deep {
            cmd.arg("--deep");
        }
        let output = cmd.output().unwrap();
        assert_eq!(
            output.status.code(),
            Some(0),
            "deep={deep}: {}",
            String::from_utf8_lossy(&output.stdout)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `sxsi info` on a missing path and `sxsi query` with an empty batch
/// file report distinct structured `error code=` lines (both exit 1).
#[test]
fn cli_info_open_and_empty_batch_errors_are_distinct() {
    let dir = cli_dir("error-codes");
    let manifest = build_cli_collection(&dir);

    let missing = dir.join("nope.sxsi");
    let output = sxsi().arg("info").arg(&missing).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
    let info_err = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        info_err.contains("error code=info-open"),
        "info stderr must carry code=info-open, got:\n{info_err}"
    );

    let batch = dir.join("empty.txt");
    std::fs::write(&batch, "# only a comment\n\n").unwrap();
    let output =
        sxsi().arg("query").arg(&manifest).arg("--queries-file").arg(&batch).output().unwrap();
    assert_eq!(output.status.code(), Some(1));
    let batch_err = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(
        batch_err.contains("error code=empty-batch"),
        "query stderr must carry code=empty-batch, got:\n{batch_err}"
    );

    // A missing batch file is a third, distinct code.
    let output = sxsi()
        .arg("query")
        .arg(&manifest)
        .arg("--queries-file")
        .arg(dir.join("no-such-file.txt"))
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("error code=batch-file-open"),
        "missing batch file must carry code=batch-file-open"
    );

    assert!(!info_err.contains("empty-batch") && !batch_err.contains("info-open"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// CLI collection query output is byte-identical to the in-process
/// renderer (the same function the daemon uses) for every output kind.
#[test]
fn cli_collection_output_matches_in_process_rendering() {
    let dir = cli_dir("render-equiv");
    let manifest = build_cli_collection(&dir);
    let collection = Collection::open(&manifest).expect("open CLI-built collection");
    let executor = CollectionExecutor::new(2);
    let cases: &[(&[&str], OutputKind, QueryOptions)] = &[
        (&[], OutputKind::Count, QueryOptions::count()),
        (&["--materialize"], OutputKind::Nodes, QueryOptions::nodes()),
        (&["--serialize"], OutputKind::Serialize, QueryOptions::nodes()),
        (
            &["--materialize", "--limit", "2", "--offset", "1"],
            OutputKind::Nodes,
            QueryOptions::nodes().with_limit(2).with_offset(1),
        ),
    ];
    for (flags, output_kind, options) in cases {
        let output = sxsi()
            .arg("query")
            .arg(&manifest)
            .arg("//b")
            .args(*flags)
            .output()
            .expect("run CLI query");
        assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
        let result = executor.run(&collection, "//b", options).expect("in-process run");
        let mut expected = String::new();
        render_result(&collection, "//b", &result, *output_kind, &mut expected);
        assert_eq!(
            String::from_utf8_lossy(&output.stdout),
            expected,
            "flags {flags:?} must render byte-identically"
        );
    }
    // `exists` parity, including the exit-4 contract.
    let output = sxsi().arg("exists").arg(&manifest).arg("//b").arg("//zzz").output().unwrap();
    assert_eq!(output.status.code(), Some(4), "one query matched nothing");
    let body = String::from_utf8_lossy(&output.stdout);
    assert_eq!(body, "//b: true\n//zzz: false\n");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A batch holding an unsupported query fails before anything runs or
/// prints, on a collection exactly as on a single index: exit 3 and the
/// structured `error=unsupported-query` line.
#[test]
fn cli_unsupported_query_exits_3_before_printing() {
    let dir = cli_dir("unsupported");
    let manifest = build_cli_collection(&dir);
    let single = dir.join("d1.sxsi");
    let built = sxsi().arg("build").arg(dir.join("d1.xml")).arg(&single).output().unwrap();
    assert!(built.status.success(), "{}", String::from_utf8_lossy(&built.stderr));
    for target in [&manifest, &single] {
        let output = sxsi().arg("query").arg(target).arg("//b").arg("//a/@id/b").output().unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(3), "{target:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{target:?}: printed before failing");
        assert!(
            stderr.contains("sxsi: error=unsupported-query query='//a/@id/b' detail='"),
            "{target:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
