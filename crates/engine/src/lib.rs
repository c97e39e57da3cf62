//! Parallel query execution over one shared [`SxsiIndex`] or a
//! multi-document [`Collection`] — through one path.
//!
//! The SXSI index is immutable after construction: every structure on the
//! read path is `Send + Sync`, and all per-query mutable state lives inside
//! the evaluator each run creates locally.  Every [`Target`] — a single
//! index is a one-document collection — answers through one pipeline:
//! a [`QueryBatch`] **prepares** each *distinct* query string once per
//! document; a [`BatchExecutor`] **fans out** one job per (query,
//! document) pair across a `std::thread` pool and **merges** each query's
//! runs into one [`CollectionResult`]; [`request::render_result`]
//! **renders** it.  [`request::answer`] is that path for one
//! [`request::Request`], the way the CLI and the daemon both answer.
//! Parallelism is across jobs, never within one.
//!
//! Each [`QuerySpec`] carries its own [`QueryOptions`], so a batch can mix
//! existence probes, counts, and `limit`/`offset` windows; the early
//! termination of the underlying evaluators applies per spec.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use sxsi::{QueryOptions, SxsiIndex};
//! use sxsi_engine::{BatchExecutor, QueryBatch, QuerySpec};
//!
//! let xml = r#"<parts>
//!   <part name="pen"><color>blue</color><stock>40</stock></part>
//!   <part name="rubber"><stock>30</stock></part>
//! </parts>"#;
//! let index = Arc::new(SxsiIndex::build_from_xml(xml.as_bytes()).unwrap());
//!
//! let batch = QueryBatch::compile(
//!     &index,
//!     vec![
//!         QuerySpec::count("stocks", "//stock"),
//!         QuerySpec::exists("any-color", "//color"),
//!         QuerySpec::nodes("blue-parts", r#"//part[ .//color[ contains(., "blu") ] ]"#),
//!         QuerySpec::new("first-part", "//part", QueryOptions::nodes().with_limit(1)),
//!     ],
//! )
//! .unwrap();
//!
//! let results = BatchExecutor::new(2).run(&index, &batch);
//! assert_eq!(results[0].result.count(), 2);
//! assert!(results[1].result.exists());
//! assert_eq!(results[2].result.nodes().unwrap().len(), 1);
//! assert_eq!(results[3].result.cursor().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod collection;
pub mod request;
pub mod search;
pub mod server;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use sxsi::{Prepared, QueryOptions, ResultSet, SxsiIndex, Strategy};
use sxsi_collection::{Collection, CollectionError, DocId};

use crate::collection::{finish, CollectionQueryError, CollectionResult, DocRun};

/// What the one query path needs from whatever it runs on.  A single
/// [`SxsiIndex`] is a one-document target without labels; a
/// [`Collection`] (and a served [`server::ServedIndex`]) labels every
/// document with its manifest name.
pub trait Target: Sync {
    /// Number of documents (`1` for a single index).
    fn num_docs(&self) -> usize;

    /// The index of document `doc`, loading its segment on first use.
    fn doc_index(&self, doc: DocId) -> Result<&SxsiIndex, CollectionError>;

    /// The display label of document `doc`, or `None` on a single index,
    /// whose nodes render as bare preorder numbers.
    fn doc_label(&self, _doc: DocId) -> Option<&str> {
        None
    }

    /// The identity folded into the daemon's result-cache keys: `0` for a
    /// single index (its slot already identifies it), the manifest
    /// fingerprint for a collection — so cached bodies are keyed to the
    /// exact manifest they were computed from.
    fn fingerprint(&self) -> u64 {
        0
    }
}

impl Target for SxsiIndex {
    fn num_docs(&self) -> usize {
        1
    }

    fn doc_index(&self, _doc: DocId) -> Result<&SxsiIndex, CollectionError> {
        Ok(self)
    }
}

impl Target for Collection {
    fn num_docs(&self) -> usize {
        Collection::num_docs(self)
    }

    fn doc_index(&self, doc: DocId) -> Result<&SxsiIndex, CollectionError> {
        self.segment_ref(doc).map(|index| &**index)
    }

    fn doc_label(&self, doc: DocId) -> Option<&str> {
        Some(self.doc_name(doc))
    }

    fn fingerprint(&self) -> u64 {
        Collection::fingerprint(self)
    }
}

/// One query of a batch: an identifier (echoed back on the result), the
/// XPath expression and the run options.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// Caller-chosen identifier, copied onto the matching [`BatchResult`].
    pub id: String,
    /// The XPath Core+ expression.
    pub xpath: String,
    /// How the query runs: output mode, result window, statistics.
    pub options: QueryOptions,
}

impl QuerySpec {
    /// A query with explicit [`QueryOptions`].
    pub fn new(id: impl Into<String>, xpath: impl Into<String>, options: QueryOptions) -> Self {
        Self { id: id.into(), xpath: xpath.into(), options }
    }

    /// A counting query.
    pub fn count(id: impl Into<String>, xpath: impl Into<String>) -> Self {
        Self::new(id, xpath, QueryOptions::count())
    }

    /// An existence query (stops at the first match).
    pub fn exists(id: impl Into<String>, xpath: impl Into<String>) -> Self {
        Self::new(id, xpath, QueryOptions::exists())
    }

    /// A materializing query.
    pub fn nodes(id: impl Into<String>, xpath: impl Into<String>) -> Self {
        Self::new(id, xpath, QueryOptions::nodes())
    }
}

/// A query that failed to prepare, identified by its batch id.
#[derive(Debug)]
pub struct BatchError {
    /// The identifier of the offending [`QuerySpec`].
    pub id: String,
    /// What failed: a segment load, or the parse/compile against one
    /// document.
    pub error: CollectionQueryError,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query '{}': {}", self.id, self.error)
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// One query's prepared statements, one per document of the target they
/// were prepared against, in DocId order.
pub type Plans = Arc<[Prepared]>;

/// Prepares `xpath` against every document of `target` (through
/// [`SxsiIndex::prepare`], so each strategy choice is exactly the one
/// sequential execution makes), failing on the first document it does not
/// prepare against.
pub(crate) fn prepare_plans<T: Target + ?Sized>(
    target: &T,
    xpath: &str,
) -> Result<Plans, CollectionQueryError> {
    (0..target.num_docs()).map(|doc| prepare_on(target, doc, xpath).map(|(_, p)| p)).collect()
}

/// Loads document `doc` of `target` and prepares `xpath` against it.
pub(crate) fn prepare_on<'t, T: Target + ?Sized>(
    target: &'t T,
    doc: DocId,
    xpath: &str,
) -> Result<(&'t SxsiIndex, Prepared), CollectionQueryError> {
    let index = target.doc_index(doc).map_err(CollectionQueryError::Load)?;
    let prepared = index.prepare(xpath).map_err(|error| CollectionQueryError::Prepare {
        doc,
        name: target.doc_label(doc).map(str::to_string),
        error,
    })?;
    Ok((index, prepared))
}

/// One entry of a batch: the spec plus its shared per-document
/// statements — the same strategy choices sequential execution makes,
/// made once per *distinct* query string.
struct BatchQuery {
    spec: QuerySpec,
    plans: Plans,
}

/// A set of queries prepared against one target, ready to be executed
/// (any number of times) by a [`BatchExecutor`].
///
/// Identical XPath strings are compiled once: all their specs share one
/// set of [`Prepared`] statements, so a batch of a thousand repetitions of
/// one query pays one parse/plan/compile per document.
///
/// Compilation is tied to the target it was performed against: tag
/// identifiers baked into the plans are only meaningful for those
/// documents.  Running a batch against a different target is a logic
/// error (the answers would be meaningless).
///
/// ```
/// use sxsi::SxsiIndex;
/// use sxsi_engine::{QueryBatch, QuerySpec};
///
/// let index = SxsiIndex::build_from_xml(b"<a><b>x</b><b/><c/></a>").unwrap();
/// let batch = QueryBatch::compile(
///     &index,
///     vec![
///         QuerySpec::count("bs", "//b"),
///         QuerySpec::count("first", "/a/*[1]"),     // positional → direct strategy
///         QuerySpec::nodes("bs-again", "//b"),      // same string: shared handle
///     ],
/// )
/// .unwrap();
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.num_distinct(), 2);
/// ```
pub struct QueryBatch {
    queries: Vec<BatchQuery>,
    num_distinct: usize,
}

impl fmt::Debug for QueryBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.specs()).finish()
    }
}

impl QueryBatch {
    /// [`QueryBatch::prepare`] against a single index.
    pub fn compile(index: &SxsiIndex, specs: Vec<QuerySpec>) -> Result<Self, BatchError> {
        Self::prepare(index, specs)
    }

    /// Parses, plans and compiles every *distinct* query string against
    /// every document of `target`; repeated strings share one set of
    /// statements.
    ///
    /// Fails on the first query that does not prepare, identifying it by
    /// its `id` — before anything runs.
    pub fn prepare<T: Target + ?Sized>(
        target: &T,
        specs: Vec<QuerySpec>,
    ) -> Result<Self, BatchError> {
        Self::prepare_with(specs, |xpath| prepare_plans(target, xpath))
    }

    /// [`QueryBatch::prepare`] with the statements of each distinct query
    /// string taken from `plans` — the daemon's plan cache.
    pub(crate) fn prepare_with(
        specs: Vec<QuerySpec>,
        mut plans: impl FnMut(&str) -> Result<Plans, CollectionQueryError>,
    ) -> Result<Self, BatchError> {
        let mut plans_by_xpath: HashMap<String, Plans> = HashMap::new();
        let mut queries = Vec::with_capacity(specs.len());
        for spec in specs {
            let plans = match plans_by_xpath.get(&spec.xpath) {
                Some(shared) => Arc::clone(shared),
                None => {
                    let prepared = plans(&spec.xpath)
                        .map_err(|error| BatchError { id: spec.id.clone(), error })?;
                    plans_by_xpath.insert(spec.xpath.clone(), Arc::clone(&prepared));
                    prepared
                }
            };
            queries.push(BatchQuery { spec, plans });
        }
        Ok(Self { queries, num_distinct: plans_by_xpath.len() })
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Number of *distinct* query strings the batch compiled (each backed
    /// by one shared set of [`Prepared`] statements).
    pub fn num_distinct(&self) -> usize {
        self.num_distinct
    }

    /// The specs the batch was compiled from, in batch order.
    pub fn specs(&self) -> impl Iterator<Item = &QuerySpec> {
        self.queries.iter().map(|q| &q.spec)
    }
}

/// The result of one batch query on a single index.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// The identifier of the originating [`QuerySpec`].
    pub id: String,
    /// The strategy the planner chose at prepare time.
    pub strategy: Strategy,
    /// The run's [`ResultSet`] — identical to what a sequential
    /// [`Prepared::run`] produces.
    pub result: ResultSet,
    /// Wall-clock time this query's evaluation took on its worker
    /// thread (just the [`Prepared::run`] call — queueing, spawn and
    /// join overhead excluded), so per-query latency stays exact even
    /// through the batch fan-out.
    pub elapsed: Duration,
}

/// Fans a [`QueryBatch`] out across a pool of `std::thread` workers sharing
/// one immutable target.
///
/// Work distribution is dynamic: workers claim the next unstarted job
/// through an atomic cursor, so a batch mixing cheap and expensive queries
/// stays balanced.  Results are returned in batch order regardless of
/// completion order.
///
/// ```
/// use sxsi::SxsiIndex;
/// use sxsi_engine::{BatchExecutor, QueryBatch, QuerySpec};
///
/// let index = SxsiIndex::build_from_xml(b"<a><b>x</b><b/><c/></a>").unwrap();
/// let batch = QueryBatch::compile(
///     &index,
///     vec![QuerySpec::count("bs", "//b"), QuerySpec::count("last", "/a/*[last()]")],
/// )
/// .unwrap();
///
/// // Results are identical at every pool size, in batch order.
/// let sequential = BatchExecutor::new(1).run(&index, &batch);
/// let parallel = BatchExecutor::new(4).run(&index, &batch);
/// assert_eq!(sequential[0].result.count(), 2);
/// assert_eq!(sequential[1].result.count(), 1);
/// assert_eq!(parallel[0].result.count(), sequential[0].result.count());
/// assert_eq!(parallel[1].result.count(), sequential[1].result.count());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchExecutor {
    threads: usize,
}

impl BatchExecutor {
    /// An executor with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// An executor sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        Self::new(threads)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every query of `batch` against a single `index`, returning one
    /// result per query in batch order — [`BatchExecutor::answer`] on a
    /// one-document target, whose one run per query is the result.
    ///
    /// Workers are spawned afresh on every call (`std::thread::scope`), so
    /// each run pays roughly tens of microseconds per worker in spawn/join
    /// overhead; batches should be large enough to amortize that.  With
    /// one worker the pool is bypassed and the batch runs on the calling
    /// thread.
    pub fn run(&self, index: &SxsiIndex, batch: &QueryBatch) -> Vec<BatchResult> {
        let runs = self.fan_out(index, batch).expect("a single index has no segment to load");
        batch
            .queries
            .iter()
            .zip(runs)
            .flat_map(|(query, runs)| {
                runs.into_iter().map(|run| BatchResult {
                    id: query.spec.id.clone(),
                    strategy: run.result.strategy(),
                    result: run.result,
                    elapsed: run.elapsed,
                })
            })
            .collect()
    }

    /// Runs every query of `batch` against every document of `target` and
    /// merges each query's runs into one answer, in batch order — the
    /// fan-out and merge of the one query path.  Results are identical at
    /// every thread count.
    ///
    /// On two or more documents each run uses the
    /// [`QueryOptions::per_shard`] pushdown and the merge windows the
    /// doc-major concatenation; a one-document target runs the request's
    /// own options, so its work and statistics are exactly those of a
    /// direct [`Prepared::run`].
    pub fn answer<T: Target + ?Sized>(
        &self,
        target: &T,
        batch: &QueryBatch,
    ) -> Result<Vec<CollectionResult>, CollectionError> {
        let runs = self.fan_out(target, batch)?;
        let merged = batch.queries.iter().zip(runs);
        Ok(merged.map(|(query, runs)| finish(&query.spec.options, runs, None)).collect())
    }

    /// One job per (query, document) pair; returns each query's runs in
    /// DocId order.
    fn fan_out<T: Target + ?Sized>(
        &self,
        target: &T,
        batch: &QueryBatch,
    ) -> Result<Vec<Vec<DocRun>>, CollectionError> {
        let docs = target.num_docs();
        let jobs = self.run_jobs(batch.len() * docs, |job| {
            let (query, doc) = (&batch.queries[job / docs], job % docs);
            let options =
                if docs > 1 { query.spec.options.per_shard() } else { query.spec.options };
            let index = target.doc_index(doc)?;
            let start = Instant::now();
            let result = query.plans[doc].run(index, &options);
            Ok(DocRun { doc, result, elapsed: start.elapsed() })
        });
        let mut jobs = jobs.into_iter();
        (0..batch.len()).map(|_| jobs.by_ref().take(docs).collect()).collect()
    }

    /// The pool's generic fan-out: runs `count` jobs, each identified by
    /// its index, and returns their results in job order.  Work
    /// distribution is dynamic via an atomic claim cursor, and with one
    /// effective worker the jobs run on the calling thread.
    pub(crate) fn run_jobs<R, F>(&self, count: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(count.max(1));
        if workers <= 1 {
            return (0..count).map(&job).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::new();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let job = &job;
                    scope.spawn(move || {
                        let mut produced = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            produced.push((i, job(i)));
                        }
                        produced
                    })
                })
                .collect();
            slots.resize_with(count, || None);
            for handle in handles {
                let produced = handle.join().expect("batch worker panicked");
                for (i, result) in produced {
                    slots[i] = Some(result);
                }
            }
        });
        slots.into_iter().map(|r| r.expect("every job was claimed by a worker")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi::QueryMode;

    const DOC: &str = r#"<site>
  <regions>
    <africa><item id="i1"><name>drum</name><description>
      <parlist><listitem><text>a <keyword>rare</keyword> drum <emph>loud</emph></text></listitem>
      <listitem><keyword>old</keyword></listitem></parlist>
    </description></item></africa>
    <europe><item id="i2"><name>violin</name><description>classic string instrument</description></item></europe>
  </regions>
  <people>
    <person id="p1"><name>Alice</name><address>Oak street</address><phone>123</phone></person>
    <person id="p2"><name>Bob</name><homepage>http://b.example</homepage></person>
  </people>
</site>"#;

    fn index() -> Arc<SxsiIndex> {
        Arc::new(SxsiIndex::build_from_xml(DOC.as_bytes()).unwrap())
    }

    fn specs() -> Vec<QuerySpec> {
        vec![
            QuerySpec::count("keywords", "//keyword"),
            QuerySpec::nodes("items", "/site/regions/*/item"),
            QuerySpec::count("people", "/site/people/person[ phone or homepage]/name"),
            QuerySpec::nodes("alice", r#"//person[ .//name[ . = "Alice" ] ]"#),
            QuerySpec::count("all", "//*"),
            QuerySpec::nodes("texts", "/descendant::text()"),
            QuerySpec::exists("any-person", "//person"),
            QuerySpec::new("first-two", "//item", QueryOptions::nodes().with_limit(2)),
        ]
    }

    #[test]
    fn results_match_sequential_execution_at_every_thread_count() {
        let index = index();
        let batch = QueryBatch::compile(&index, specs()).unwrap();
        let reference = BatchExecutor::new(1).run(&index, &batch);
        for threads in [2, 3, 8] {
            let parallel = BatchExecutor::new(threads).run(&index, &batch);
            assert_eq!(parallel.len(), reference.len());
            for (p, r) in parallel.iter().zip(&reference) {
                assert_eq!(p.id, r.id);
                assert_eq!(p.strategy, r.strategy);
                assert_eq!(p.result.count(), r.result.count(), "query '{}'", p.id);
                assert_eq!(p.result.nodes(), r.result.nodes(), "query '{}'", p.id);
                assert_eq!(p.result.exists(), r.result.exists(), "query '{}'", p.id);
            }
        }
    }

    #[test]
    fn results_match_sequential_prepared_runs() {
        let index = index();
        let batch = QueryBatch::compile(&index, specs()).unwrap();
        let results = BatchExecutor::new(4).run(&index, &batch);
        for (spec, result) in specs().iter().zip(&results) {
            let expected = index.run(&spec.xpath, &spec.options).unwrap();
            assert_eq!(result.result.count(), expected.count(), "query '{}'", spec.id);
            assert_eq!(result.result.nodes(), expected.nodes(), "query '{}'", spec.id);
            assert_eq!(result.strategy, expected.strategy(), "query '{}'", spec.id);
        }
    }

    #[test]
    fn identical_queries_share_one_prepared_statement() {
        let index = index();
        let batch = QueryBatch::compile(
            &index,
            vec![
                QuerySpec::count("a", "//keyword"),
                QuerySpec::nodes("b", "//keyword"),
                QuerySpec::exists("c", "//keyword"),
                QuerySpec::new("d", "//keyword", QueryOptions::nodes().with_limit(1)),
                QuerySpec::count("e", "//person"),
            ],
        )
        .unwrap();
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.num_distinct(), 2);
        // The shared handle still honors each spec's own options.
        let results = BatchExecutor::new(2).run(&index, &batch);
        assert_eq!(results[0].result.count(), 2);
        assert_eq!(results[1].result.nodes().unwrap().len(), 2);
        assert!(results[2].result.exists());
        assert_eq!(results[3].result.nodes().unwrap().len(), 1);
        assert_eq!(results[4].result.count(), 2);
    }

    #[test]
    fn planner_choice_is_preserved() {
        let index = index();
        let batch = QueryBatch::compile(
            &index,
            vec![
                QuerySpec::count("bottom-up", r#"//person[ .//name[ . = "Alice" ] ]"#),
                QuerySpec::count("top-down", "//keyword"),
            ],
        )
        .unwrap();
        let results = BatchExecutor::new(2).run(&index, &batch);
        assert_eq!(results[0].strategy, Strategy::BottomUp);
        assert_eq!(results[1].strategy, Strategy::TopDown);
        assert_eq!(results[0].result.count(), 1);
        assert_eq!(results[1].result.count(), 2);
    }

    #[test]
    fn index_can_be_shared_across_plain_spawned_threads() {
        let index = index();
        let batch = Arc::new(QueryBatch::compile(&index, specs()).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let index = Arc::clone(&index);
                let batch = Arc::clone(&batch);
                std::thread::spawn(move || BatchExecutor::new(2).run(&index, &batch))
            })
            .collect();
        let reference = BatchExecutor::new(1).run(&index, &batch);
        for handle in handles {
            let results = handle.join().unwrap();
            for (p, r) in results.iter().zip(&reference) {
                assert_eq!(p.result.count(), r.result.count());
                assert_eq!(p.result.nodes(), r.result.nodes());
            }
        }
    }

    #[test]
    fn compile_errors_identify_the_query() {
        let index = index();
        let err = QueryBatch::compile(
            &index,
            vec![QuerySpec::count("good", "//keyword"), QuerySpec::count("bad", "keyword")],
        )
        .unwrap_err();
        assert_eq!(err.id, "bad");
        assert!(err.to_string().contains("bad"));
    }

    #[test]
    fn empty_batch_and_oversized_pool_are_fine() {
        let index = index();
        let empty = QueryBatch::compile(&index, Vec::new()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.num_distinct(), 0);
        assert!(BatchExecutor::new(8).run(&index, &empty).is_empty());
        let one = QueryBatch::compile(&index, vec![QuerySpec::count("k", "//keyword")]).unwrap();
        assert_eq!(one.len(), 1);
        let results = BatchExecutor::new(64).run(&index, &one);
        assert_eq!(results[0].result.count(), 2);
    }

    #[test]
    fn batch_options_window_results() {
        let index = index();
        let full = index.materialize("//*").unwrap();
        let batch = QueryBatch::compile(
            &index,
            vec![
                QuerySpec::new("w", "//*", QueryOptions::nodes().with_limit(4).with_offset(3)),
                QuerySpec::new(
                    "c",
                    "//*",
                    QueryOptions { mode: QueryMode::Count, limit: Some(4), offset: 3 },
                ),
            ],
        )
        .unwrap();
        let results = BatchExecutor::new(2).run(&index, &batch);
        assert_eq!(results[0].result.nodes().unwrap(), &full[3..7]);
        assert_eq!(results[1].result.count(), 4);
    }
}
