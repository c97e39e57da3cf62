//! Sharded query execution over a multi-document [`Collection`]: the
//! merge step of the one query path, plus its sequential reference.
//!
//! [`crate::BatchExecutor::answer`] fans a batch across every document:
//! each shard prepares the query against *its own* index (tag
//! identifiers are per-document, so a prepared statement never crosses
//! segments) and runs with the [`QueryOptions::per_shard`] pushdown —
//! existence probes stop at the first match per document, windowed
//! materializations stop at the global window end per document.  The
//! per-document document-ordered prefixes are then merged doc-major
//! ([`sxsi_collection::merge_window`]) into one DocId-qualified window
//! with an exact truncation flag, and the per-shard [`EvalStats`] are
//! summed into one aggregate report.  [`CollectionExecutor::run`] is that
//! path for one query.
//!
//! [`CollectionExecutor::run_sequential`] is the one-thread reference
//! path with stronger early termination: it walks documents in DocId
//! order, shrinks the window cap by what earlier documents already
//! produced, and downgrades to existence probes once the window is full —
//! the differential suite pins it result-identical to the parallel path.

use std::fmt;
use std::time::{Duration, Instant};

use sxsi::{EvalStats, NodeId, QueryError, QueryMode, QueryOptions, ResultSet};
use sxsi_collection::{
    merge_window, Collection, CollectionError, DocId, DocNode, DocNodeCursor, DocNodes,
};

use crate::{prepare_on, BatchExecutor, QueryBatch, QuerySpec};

/// A query that could not run: either a segment failed to load, or the
/// query failed to prepare against one document's index.
#[derive(Debug)]
pub enum CollectionQueryError {
    /// A segment could not be loaded or validated.
    Load(CollectionError),
    /// The query failed to parse or compile against one document.
    Prepare {
        /// The document the preparation failed on.
        doc: DocId,
        /// The document's name from the manifest (`None` on a single
        /// index).
        name: Option<String>,
        /// The underlying parse/compile error.
        error: QueryError,
    },
}

impl fmt::Display for CollectionQueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectionQueryError::Load(e) => write!(f, "{e}"),
            CollectionQueryError::Prepare { doc, name: Some(name), error } => {
                write!(f, "prepare against doc {doc} ({name}): {error}")
            }
            CollectionQueryError::Prepare { name: None, error, .. } => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for CollectionQueryError {}

impl CollectionQueryError {
    /// The underlying [`QueryError`] when the failure was a prepare
    /// failure (the CLI maps compile errors to its dedicated exit code).
    pub fn query_error(&self) -> Option<&QueryError> {
        match self {
            CollectionQueryError::Prepare { error, .. } => Some(error),
            CollectionQueryError::Load(_) => None,
        }
    }
}

/// One document's contribution to a query: the shard-local [`ResultSet`]
/// (strategy, stats, truncation flag included), tagged with its DocId.
#[derive(Debug, Clone)]
pub struct DocRun {
    /// The document this run evaluated.
    pub doc: DocId,
    /// The shard-local result, produced under the per-shard pushdown
    /// options (an existence probe, for sequential runs past a full
    /// window; the request's own options on a one-document target).
    pub result: ResultSet,
    /// Wall-clock time of the [`sxsi::Prepared::run`] call alone.
    pub elapsed: Duration,
}

/// The merged answer to one query: global payload plus the per-document
/// runs it was assembled from.
#[derive(Debug, Clone)]
pub struct CollectionResult {
    runs: Vec<DocRun>,
    nodes: Vec<DocNode>,
    exists: bool,
    count: u64,
    truncated: bool,
    stats: EvalStats,
}

impl CollectionResult {
    /// Whether at least one node matched in any document.
    pub fn exists(&self) -> bool {
        self.exists
    }

    /// The (globally windowed) result count.  In `Exists` mode this is
    /// `0` or `1`, mirroring [`ResultSet::count`].
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The merged, windowed DocId-qualified nodes (`Nodes` mode; empty
    /// otherwise), doc-major and in document order within each document.
    pub fn nodes(&self) -> &[DocNode] {
        &self.nodes
    }

    /// A streaming cursor over the merged window.
    pub fn cursor(&self) -> DocNodeCursor<'_> {
        DocNodeCursor::new(&self.nodes)
    }

    /// Whether matching nodes exist beyond the returned window (or beyond
    /// the clamped count) — exact, even though every shard only produced
    /// a window-sized prefix.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The per-shard statistics summed into one report.  Under early
    /// termination this reflects only the nodes the shards actually
    /// visited.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The per-document runs' evaluation time, summed.
    pub fn elapsed(&self) -> Duration {
        self.runs.iter().map(|r| r.elapsed).sum()
    }

    /// The per-document runs this result was merged from, in DocId order.
    /// Sequential runs may hold fewer entries than the collection has
    /// documents (early termination skips the tail) and may downgrade
    /// trailing entries to existence probes.
    pub fn runs(&self) -> &[DocRun] {
        &self.runs
    }

    /// The answer of a run made under the request's own options — a
    /// one-document target's, where there is nothing to merge.
    pub(crate) fn from_run(run: DocRun) -> Self {
        let result = &run.result;
        let nodes = result.nodes().unwrap_or(&[]);
        CollectionResult {
            nodes: nodes.iter().map(|&node| DocNode { doc: run.doc, node }).collect(),
            exists: result.exists(),
            count: result.count(),
            truncated: result.truncated(),
            stats: result.stats().unwrap_or_default(),
            runs: vec![run],
        }
    }
}

/// Fans one query across every document of a [`Collection`] on the
/// [`BatchExecutor`] thread pool and merges the per-document results.
///
/// ```
/// use sxsi::{QueryOptions, SxsiIndex};
/// use sxsi_collection::Collection;
/// use sxsi_engine::collection::CollectionExecutor;
///
/// let dir = std::env::temp_dir().join(format!("sxsi-doctest-cx-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let collection = Collection::build(
///     dir.join("pair.sxsic"),
///     vec![
///         ("one".into(), SxsiIndex::build_from_xml(b"<a><b>x</b></a>").unwrap()),
///         ("two".into(), SxsiIndex::build_from_xml(b"<a><b/><b/></a>").unwrap()),
///     ],
/// )
/// .unwrap();
///
/// let executor = CollectionExecutor::new(2);
/// let result = executor.run(&collection, "//b", &QueryOptions::count()).unwrap();
/// assert_eq!(result.count(), 3);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CollectionExecutor {
    executor: BatchExecutor,
}

impl CollectionExecutor {
    /// An executor with `threads` shard workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        Self { executor: BatchExecutor::new(threads) }
    }

    /// Runs `xpath` across every document in parallel and merges the
    /// shard results — a one-query batch through
    /// [`BatchExecutor::answer`].  Results are identical at every thread
    /// count and identical to [`CollectionExecutor::run_sequential`].
    pub fn run(
        &self,
        collection: &Collection,
        xpath: &str,
        options: &QueryOptions,
    ) -> Result<CollectionResult, CollectionQueryError> {
        let spec = QuerySpec::new(xpath, xpath, *options);
        let batch = QueryBatch::prepare(collection, vec![spec]).map_err(|e| e.error)?;
        let mut answers =
            self.executor.answer(collection, &batch).map_err(CollectionQueryError::Load)?;
        Ok(answers.remove(0))
    }

    /// Runs `xpath` across the documents in DocId order on the calling
    /// thread, with cross-document early termination: an existence query
    /// stops at the first matching document, a windowed materialization
    /// shrinks the per-document cap by what earlier documents produced
    /// and downgrades to existence probes once the window is full.
    pub fn run_sequential(
        collection: &Collection,
        xpath: &str,
        options: &QueryOptions,
    ) -> Result<CollectionResult, CollectionQueryError> {
        let shard_options = options.per_shard();
        let mut runs = Vec::new();
        let mut window_overflows = false;
        match options.mode {
            QueryMode::Exists => {
                for doc in 0..collection.num_docs() {
                    let run = run_shard(collection, doc, xpath, &shard_options)?;
                    let found = run.result.exists();
                    runs.push(run);
                    if found {
                        break;
                    }
                }
            }
            QueryMode::Count => {
                for doc in 0..collection.num_docs() {
                    runs.push(run_shard(collection, doc, xpath, &shard_options)?);
                }
            }
            QueryMode::Nodes => {
                // The global window is [offset, end); `produced` counts the
                // concatenated stream positions already covered by runs.
                let end = options.limit.map(|l| l.saturating_add(options.offset));
                let mut produced = 0u64;
                for doc in 0..collection.num_docs() {
                    match end {
                        Some(end) if produced >= end => {
                            // Window already full: only the truncation flag
                            // is open — probe the remaining documents for
                            // existence and stop at the first match.
                            let run = run_shard(collection, doc, xpath, &QueryOptions::exists())?;
                            let found = run.result.exists();
                            runs.push(run);
                            if found {
                                window_overflows = true;
                                break;
                            }
                        }
                        _ => {
                            // Cap this document at what the window still
                            // needs: earlier documents own the first
                            // `produced` positions of the merged stream.
                            let doc_options = QueryOptions {
                                limit: end.map(|e| e - produced),
                                ..shard_options
                            };
                            let run = run_shard(collection, doc, xpath, &doc_options)?;
                            produced += run.result.nodes().map_or(0, |n| n.len() as u64);
                            let truncated = run.result.truncated();
                            runs.push(run);
                            if truncated {
                                // The cap cut this document, so the merged
                                // stream provably extends past the window.
                                window_overflows = true;
                                break;
                            }
                        }
                    }
                }
            }
        }
        Ok(finish(options, runs, Some(window_overflows)))
    }
}

/// Loads one shard's segment, prepares the query on it and runs it.
fn run_shard(
    collection: &Collection,
    doc: DocId,
    xpath: &str,
    options: &QueryOptions,
) -> Result<DocRun, CollectionQueryError> {
    let (index, prepared) = prepare_on(collection, doc, xpath)?;
    let start = Instant::now();
    let result = prepared.run(index, options);
    Ok(DocRun { doc, result, elapsed: start.elapsed() })
}

/// Merges per-shard runs into the global result under the original
/// (pre-pushdown) options.  `known_overflow` is `Some` exactly on the
/// sequential path: it short-circuits the merge's truncation reasoning,
/// since adaptive caps don't satisfy the uniform-prefix contract
/// [`merge_window`] asserts.  A lone run of the parallel path was made
/// under the request's own options and is the answer as it stands.
pub(crate) fn finish(
    options: &QueryOptions,
    mut runs: Vec<DocRun>,
    known_overflow: Option<bool>,
) -> CollectionResult {
    if known_overflow.is_none() && runs.len() == 1 {
        if let Some(run) = runs.pop() {
            return CollectionResult::from_run(run);
        }
    }
    let mut stats = EvalStats::default();
    for run in &runs {
        stats.accumulate(&run.result.stats().unwrap_or_default());
    }
    let (nodes, count, truncated) = match options.mode {
        QueryMode::Exists => {
            let found = runs.iter().any(|r| r.result.exists());
            (Vec::new(), u64::from(found), false)
        }
        QueryMode::Count => {
            let raw: u64 = runs.iter().map(|r| r.result.count()).sum();
            let windowed =
                raw.saturating_sub(options.offset).min(options.limit.unwrap_or(u64::MAX));
            let truncated =
                options.limit.is_some_and(|l| raw.saturating_sub(options.offset) > l);
            (Vec::new(), windowed, truncated)
        }
        QueryMode::Nodes => match known_overflow {
            None => {
                // Parallel path: every shard produced a uniform prefix up
                // to the global window end, so the doc-major merge windows
                // exactly.
                let parts: Vec<DocNodes> = runs
                    .iter()
                    .map(|r| DocNodes {
                        doc: r.doc,
                        nodes: r.result.nodes().map(<[NodeId]>::to_vec).unwrap_or_default(),
                        truncated: r.result.truncated(),
                    })
                    .collect();
                let (nodes, truncated) = merge_window(parts, options.offset, options.limit);
                let count = nodes.len() as u64;
                (nodes, count, truncated)
            }
            Some(overflow) => {
                // Sequential path: runs already form the leading prefix of
                // the concatenated stream (adaptive caps never cut inside
                // the window), so the window is a plain slice and the
                // truncation flag was decided during the walk.
                let mut nodes = Vec::new();
                let mut pos = 0u64;
                let end = options.limit.map(|l| l.saturating_add(options.offset));
                'collect: for run in &runs {
                    for &node in run.result.nodes().unwrap_or(&[]) {
                        if let Some(end) = end {
                            if pos >= end {
                                break 'collect;
                            }
                        }
                        if pos >= options.offset {
                            nodes.push(DocNode { doc: run.doc, node });
                        }
                        pos += 1;
                    }
                }
                let count = nodes.len() as u64;
                (nodes, count, overflow)
            }
        },
    };
    // Mirror `ResultSet::exists` semantics per mode: for `Count` it is
    // "windowed count > 0", for `Nodes` "the merged window is non-empty".
    let exists = match options.mode {
        QueryMode::Exists => count > 0,
        QueryMode::Count => count > 0,
        QueryMode::Nodes => !nodes.is_empty(),
    };
    CollectionResult { runs, nodes, exists, count, truncated, stats }
}

#[allow(clippy::items_after_test_module)] // lint:allow-file exempt — test module is last
#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::OutputKind;
    use std::path::PathBuf;
    use sxsi::SxsiIndex;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sxsi-engine-collection-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn collection(dir: &std::path::Path) -> Collection {
        Collection::build(
            dir.join("col.sxsic"),
            vec![
                (
                    "alpha".into(),
                    SxsiIndex::build_from_xml(b"<a><b>x</b><b/><c><b/></c></a>").unwrap(),
                ),
                ("beta".into(), SxsiIndex::build_from_xml(b"<a><c>y</c></a>").unwrap()),
                ("gamma".into(), SxsiIndex::build_from_xml(b"<a><b/><b/></a>").unwrap()),
            ],
        )
        .unwrap()
    }

    #[test]
    fn parallel_and_sequential_agree_across_modes_and_windows() {
        let dir = temp_dir("agree");
        let col = collection(&dir);
        let windows: &[(Option<u64>, u64)] =
            &[(None, 0), (Some(0), 0), (Some(1), 0), (Some(2), 1), (Some(10), 0), (None, 3)];
        for mode in [QueryMode::Exists, QueryMode::Count, QueryMode::Nodes] {
            for &(limit, offset) in windows {
                let options = QueryOptions { mode, limit, offset };
                let seq = CollectionExecutor::run_sequential(&col, "//b", &options).unwrap();
                for threads in [1, 2, 4] {
                    let par =
                        CollectionExecutor::new(threads).run(&col, "//b", &options).unwrap();
                    assert_eq!(par.exists(), seq.exists(), "{mode:?} {limit:?}+{offset}");
                    assert_eq!(par.count(), seq.count(), "{mode:?} {limit:?}+{offset}");
                    assert_eq!(par.nodes(), seq.nodes(), "{mode:?} {limit:?}+{offset}");
                    assert_eq!(par.truncated(), seq.truncated(), "{mode:?} {limit:?}+{offset}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merged_window_matches_concatenated_runs() {
        let dir = temp_dir("window");
        let col = collection(&dir);
        // Oracle: concatenation of the three per-doc full materializations.
        let mut full = Vec::new();
        for doc in 0..col.num_docs() {
            let index = col.segment(doc).unwrap();
            for node in index.materialize("//b").unwrap() {
                full.push(DocNode { doc, node });
            }
        }
        assert_eq!(full.len(), 5);
        let result = CollectionExecutor::new(2)
            .run(&col, "//b", &QueryOptions::nodes())
            .unwrap();
        assert_eq!(result.nodes(), &full[..]);
        assert!(!result.truncated());

        let windowed = CollectionExecutor::new(2)
            .run(&col, "//b", &QueryOptions::nodes().with_limit(2).with_offset(2))
            .unwrap();
        assert_eq!(windowed.nodes(), &full[2..4]);
        assert!(windowed.truncated());
        assert_eq!(windowed.cursor().count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sequential_exists_skips_trailing_documents() {
        let dir = temp_dir("skip");
        collection(&dir);
        // Reopen cold: `build` returns a warm collection, but laziness is
        // the point of this test.
        let col = Collection::open(dir.join("col.sxsic")).unwrap();
        let result =
            CollectionExecutor::run_sequential(&col, "//b", &QueryOptions::exists()).unwrap();
        assert!(result.exists());
        assert_eq!(result.runs().len(), 1, "doc 0 matches, docs 1-2 must not run");
        assert!(col.segment_if_loaded(2).is_none(), "segment 2 must not even load");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aggregate_stats_sum_across_shards() {
        let dir = temp_dir("stats");
        let col = collection(&dir);
        let full = CollectionExecutor::new(2).run(&col, "//b", &QueryOptions::nodes()).unwrap();
        let total: u64 = full
            .runs()
            .iter()
            .map(|r| r.result.stats().unwrap().visited_nodes)
            .sum();
        assert_eq!(full.stats().visited_nodes, total);
        assert_eq!(full.stats().result_nodes, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prepare_errors_identify_the_document() {
        let dir = temp_dir("prepare");
        let col = collection(&dir);
        let err = CollectionExecutor::new(2)
            .run(&col, "b", &QueryOptions::count())
            .unwrap_err();
        assert!(err.query_error().is_some());
        assert!(err.to_string().contains("doc 0"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rendering_is_docid_qualified() {
        let dir = temp_dir("render");
        let col = collection(&dir);
        let result = CollectionExecutor::new(2)
            .run(&col, "//b", &QueryOptions::nodes().with_limit(2))
            .unwrap();
        let mut out = String::new();
        crate::server::render_result(&col, "//b", &result, OutputKind::Nodes, &mut out);
        assert!(out.starts_with("//b: 2 nodes [alpha:"), "{out}");
        assert!(out.trim_end().ends_with("(more results exist)"), "{out}");

        let mut count_out = String::new();
        let count = CollectionExecutor::new(2).run(&col, "//b", &QueryOptions::count()).unwrap();
        crate::server::render_result(&col, "//b", &count, OutputKind::Count, &mut count_out);
        assert_eq!(count_out, "//b: 5\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
