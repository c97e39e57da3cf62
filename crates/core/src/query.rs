//! The prepared-statement query surface: [`QueryOptions`], [`Prepared`],
//! [`ResultSet`] and [`NodeCursor`].
//!
//! A query is *prepared* once — parse → rewrite → plan → compile — and the
//! resulting [`Prepared`] handle is `Send + Sync`: it can be run any number
//! of times, from any number of threads, against the index it was compiled
//! for.  Every run takes a [`QueryOptions`] describing **how much of the
//! answer is needed** (`Exists` / `Count` / `Nodes`, plus `limit`/`offset`),
//! and the evaluators use that knowledge to stop early: existence queries
//! stop at the first match (on every strategy), `limit`-ed
//! materializations stop once the document-order prefix is complete on the
//! bottom-up and direct strategies (the top-down automaton windows after
//! its run — its mark emission order is not document order, so stopping
//! it early would be unsound), and [`EvalStats`] reports the nodes a
//! truncated run actually visited.
//!
//! ```
//! use sxsi::{QueryOptions, SxsiIndex};
//!
//! let index = SxsiIndex::build_from_xml(b"<a><b>x</b><b/><b/></a>").unwrap();
//! let prepared = index.prepare("//b").unwrap();
//!
//! assert!(prepared.run(&index, &QueryOptions::exists()).exists());
//! assert_eq!(prepared.run(&index, &QueryOptions::count()).count(), 3);
//!
//! // First two results only, as a lazy cursor over the result set.
//! let result = prepared.run(&index, &QueryOptions::nodes().with_limit(2));
//! let first_two: Vec<_> = result.cursor().collect();
//! assert_eq!(first_two.len(), 2);
//! assert!(result.truncated());
//! ```

use std::fmt;

use sxsi_tree::NodeId;
use sxsi_xpath::eval::{EvalOptions, EvalStats, Evaluator};
use sxsi_xpath::{DirectEvaluator, DirectRunOptions};

use crate::{CompiledPlan, PreparedFt, QueryError, Strategy, SxsiIndex};

/// What a query run should produce.
///
/// `Hash` is derived (together with `Eq`) so `(index, query, options)`
/// tuples can key result caches directly — the `sxsi serve` daemon relies
/// on this; see the `query_options_cache_key_fields` pin test before
/// adding fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QueryMode {
    /// Only whether at least one node matches — the run stops at the first
    /// match wherever the plan allows it.  `limit`/`offset` are ignored.
    Exists,
    /// Only the number of matching nodes (never materializes node sets);
    /// with `limit`/`offset` the reported count is that of the selected
    /// window, i.e. `min(limit, max(count - offset, 0))`.
    Count,
    /// The matching nodes in document order, windowed by `limit`/`offset`.
    #[default]
    Nodes,
}

/// Options for one run of a [`Prepared`] statement: the output mode and
/// the result window.
///
/// The window is applied in document order: `offset` nodes are skipped,
/// then at most `limit` nodes are produced.  Evaluators stop as soon as
/// `offset + limit` nodes are known (where the plan shape makes the prefix
/// provable), so `limit: Some(1)` on a selective query does O(first match)
/// work instead of O(answer).
///
/// `Hash` is derived so the full option set can serve as (part of) a
/// result-cache key: two runs with equal options over the same prepared
/// query on the same index produce the same payload.  Every field is
/// semantically part of that key; the `query_options_cache_key_fields`
/// test pins the field set so additions revisit cache-key semantics
/// deliberately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct QueryOptions {
    /// The output mode.
    pub mode: QueryMode,
    /// Produce at most this many nodes (`Nodes`) or cap the reported count
    /// (`Count`).  `None` means unbounded.
    pub limit: Option<u64>,
    /// Skip this many leading nodes of the result.
    pub offset: u64,
}

impl QueryOptions {
    /// Existence-only evaluation ([`QueryMode::Exists`]).
    pub fn exists() -> Self {
        Self { mode: QueryMode::Exists, ..Self::default() }
    }

    /// Counting evaluation ([`QueryMode::Count`]).
    pub fn count() -> Self {
        Self { mode: QueryMode::Count, ..Self::default() }
    }

    /// Materializing evaluation ([`QueryMode::Nodes`]).
    pub fn nodes() -> Self {
        Self { mode: QueryMode::Nodes, ..Self::default() }
    }

    /// Caps the result window at `limit` nodes.
    pub fn with_limit(mut self, limit: u64) -> Self {
        self.limit = Some(limit);
        self
    }

    /// Skips the first `offset` nodes of the result.
    // lint:allow(dead-pub: shown in docs/guide.md)
    pub fn with_offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// The options each shard of a multi-document fan-out runs with so the
    /// doc-major merge of the per-shard results reproduces a single run
    /// with `self` over the concatenated stream exactly.
    ///
    /// - `Exists`: unchanged — every shard stops at its first match.
    /// - `Count`: shards count *unclamped* (`limit`/`offset` cleared); the
    ///   merge sums the raw counts and applies the window clamp globally.
    /// - `Nodes`: each shard materializes the document-order prefix up to
    ///   the global window end (`offset + limit`, offset cleared) with an
    ///   exact per-shard truncation flag, so every node a shard suppresses
    ///   provably lies beyond the merged window.
    pub fn per_shard(&self) -> QueryOptions {
        match self.mode {
            QueryMode::Exists => *self,
            QueryMode::Count => QueryOptions { limit: None, offset: 0, ..*self },
            QueryMode::Nodes => QueryOptions {
                limit: self.limit.map(|l| l.saturating_add(self.offset)),
                offset: 0,
                ..*self
            },
        }
    }

    /// The number of leading document-order results to request from a
    /// truncating evaluator: one *past* the requested window
    /// (`offset + limit + 1`), so [`ResultSet::truncated`] can report
    /// exactly whether more results exist beyond it.
    fn needed_probe(&self) -> Option<usize> {
        self.limit.map(|l| {
            usize::try_from(l.saturating_add(self.offset).saturating_add(1))
                .unwrap_or(usize::MAX)
        })
    }
}

/// A query prepared against one index: parsed, rewritten, planned and
/// compiled exactly once.
///
/// The handle is `Send + Sync` and holds no evaluation state — every
/// [`Prepared::run`] creates its evaluator locally, so one handle can serve
/// concurrent runs from many threads (this is what the `sxsi-engine` batch
/// executor shares across its workers).  A prepared statement is only
/// meaningful for the index it was compiled against: tag identifiers are
/// baked into the plan.
#[derive(Debug)]
pub struct Prepared {
    xpath: String,
    plan: CompiledPlan,
}

impl Prepared {
    pub(crate) fn new(xpath: String, plan: CompiledPlan) -> Self {
        Self { xpath, plan }
    }

    /// The original query string.
    pub fn xpath(&self) -> &str {
        &self.xpath
    }

    /// The strategy the planner froze into this statement.
    pub fn strategy(&self) -> Strategy {
        self.plan.strategy()
    }

    /// The underlying compiled plan.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Runs the statement against `index` with the given options.
    ///
    /// All mutable state lives in the locally created evaluator, so `&self`
    /// runs may proceed concurrently.  Running against a different index
    /// than the one the statement was prepared on is a logic error (it
    /// cannot crash, but the answers would be meaningless).
    pub fn run(&self, index: &SxsiIndex, options: &QueryOptions) -> ResultSet {
        run_plan(&self.plan, index, options)
    }
}

/// Executes one compiled plan.  Free-standing (rather than a method) so the
/// [`CompiledPlan::TextFirst`] arm can recurse into its residual plan.
fn run_plan(plan: &CompiledPlan, index: &SxsiIndex, options: &QueryOptions) -> ResultSet {
    let needed = options.needed_probe();
    match plan {
        CompiledPlan::TopDown(automaton) => {
            let mut evaluator = Evaluator::new(
                automaton,
                index.tree(),
                Some(index.texts()),
                EvalOptions::default(),
            );
            let (payload, truncated) = match options.mode {
                QueryMode::Exists => (Payload::Exists(evaluator.exists()), false),
                QueryMode::Count => clamp_count(evaluator.count(), options),
                QueryMode::Nodes => window_nodes(evaluator.materialize(), options),
            };
            ResultSet { strategy: Strategy::TopDown, payload, truncated, stats: evaluator.stats() }
        }
        CompiledPlan::BottomUp(plan) => {
            let (tree, texts) = (index.tree(), index.texts());
            let outcome = match options.mode {
                QueryMode::Exists => plan.run_limited(tree, texts, Some(1)),
                QueryMode::Count => plan.run_limited(tree, texts, None),
                QueryMode::Nodes => plan.run_limited(tree, texts, needed),
            };
            finish_limited(Strategy::BottomUp, outcome.nodes, outcome.visited, options)
        }
        CompiledPlan::Direct(query) => {
            let evaluator = DirectEvaluator::new(index.tree(), Some(index.texts()));
            let run_options = match options.mode {
                QueryMode::Exists => DirectRunOptions { exists_only: true, max_nodes: None },
                QueryMode::Count => DirectRunOptions::default(),
                QueryMode::Nodes => DirectRunOptions { max_nodes: needed, exists_only: false },
            };
            let outcome = evaluator.run(query, &run_options);
            finish_limited(Strategy::Direct, outcome.nodes, outcome.visited, options)
        }
        CompiledPlan::TextFirst { residual, predicates } => {
            // A term absent from the whole collection empties the answer
            // before any structural work happens — the common case for
            // selective keyword queries.
            if !predicates.iter().all(PreparedFt::any_possible) {
                return finish_limited(Strategy::TextFirst, Vec::new(), 0, options);
            }
            // The residual runs unwindowed: the `ft:` filters drop nodes
            // *after* it, so any inner truncation would be unsound.
            let inner = QueryOptions::nodes();
            let result = run_plan(residual, index, &inner);
            let visited = result.stats.visited_nodes;
            let tree = index.tree();
            let nodes = result
                .into_nodes()
                .expect("a Nodes-mode run returns nodes")
                .into_iter()
                .filter(|&n| predicates.iter().all(|p| p.matches(&tree.text_ids(n))))
                .collect();
            // The filtered list is complete, so the window (and the
            // truncation flag) computed from it are exact.
            finish_limited(Strategy::TextFirst, nodes, visited, options)
        }
    }
}

impl SxsiIndex {
    /// Prepares a query: parse → rewrite → plan → compile, once.
    ///
    /// The returned [`Prepared`] handle is `Send + Sync` and reusable across
    /// threads and batches; see [`Prepared::run`].
    ///
    /// ```
    /// use sxsi::{QueryOptions, SxsiIndex};
    ///
    /// let index = SxsiIndex::build_from_xml(b"<a><b>hi</b><b/></a>").unwrap();
    /// let stmt = index.prepare("//b").unwrap();
    /// assert_eq!(stmt.run(&index, &QueryOptions::count()).count(), 2);
    /// ```
    pub fn prepare(&self, query: &str) -> Result<Prepared, QueryError> {
        let parsed = self.parse(query)?;
        let plan = self.compile(&parsed)?;
        Ok(Prepared::new(query.to_string(), plan))
    }

    /// One-shot convenience: prepare and run in a single call.
    pub fn run(&self, query: &str, options: &QueryOptions) -> Result<ResultSet, QueryError> {
        Ok(self.prepare(query)?.run(self, options))
    }
}

/// Turns the truncating evaluators' raw outcome (a document-order result
/// prefix — one node past the requested window, or complete — plus
/// counters) into the payload the options asked for.
fn finish_limited(
    strategy: Strategy,
    nodes: Vec<NodeId>,
    visited: u64,
    options: &QueryOptions,
) -> ResultSet {
    let produced = nodes.len() as u64;
    let (payload, truncated) = match options.mode {
        QueryMode::Exists => (Payload::Exists(!nodes.is_empty()), false),
        QueryMode::Count => clamp_count(produced, options),
        QueryMode::Nodes => window_nodes(nodes, options),
    };
    let stats = EvalStats {
        visited_nodes: visited,
        marked_nodes: produced,
        result_nodes: payload.count(),
    };
    ResultSet { strategy, payload, truncated, stats }
}

fn clamp_count(count: u64, options: &QueryOptions) -> (Payload, bool) {
    let windowed = count.saturating_sub(options.offset).min(options.limit.unwrap_or(u64::MAX));
    let truncated = options.limit.is_some_and(|l| count.saturating_sub(options.offset) > l);
    (Payload::Count(windowed), truncated)
}

/// Applies the `offset`/`limit` window to a document-order result prefix
/// that extends at least one node past the window (or is complete), so the
/// returned truncation flag is exact: `true` iff matching nodes exist
/// beyond the window.
fn window_nodes(mut nodes: Vec<NodeId>, options: &QueryOptions) -> (Payload, bool) {
    let offset = usize::try_from(options.offset).unwrap_or(usize::MAX).min(nodes.len());
    nodes.drain(..offset);
    let mut truncated = false;
    if let Some(limit) = options.limit {
        let limit = usize::try_from(limit).unwrap_or(usize::MAX);
        if nodes.len() > limit {
            nodes.truncate(limit);
            truncated = true;
        }
    }
    (Payload::Nodes(nodes), truncated)
}

/// The outcome of one [`Prepared::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Payload {
    Exists(bool),
    Count(u64),
    Nodes(Vec<NodeId>),
}

impl Payload {
    fn count(&self) -> u64 {
        match self {
            Payload::Exists(found) => u64::from(*found),
            Payload::Count(c) => *c,
            Payload::Nodes(n) => n.len() as u64,
        }
    }
}

/// The result of one [`Prepared::run`]: the payload of the requested
/// [`QueryMode`], the strategy that produced it, and (optionally) the
/// evaluator statistics of the run.
#[derive(Debug, Clone)]
pub struct ResultSet {
    strategy: Strategy,
    payload: Payload,
    truncated: bool,
    stats: EvalStats,
}

impl ResultSet {
    /// The strategy the planner chose for the statement.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Whether at least one node matched.  Meaningful in every mode: for
    /// `Count` it is `count > 0`, for `Nodes` it is "the window is
    /// non-empty".
    pub fn exists(&self) -> bool {
        match &self.payload {
            Payload::Exists(found) => *found,
            Payload::Count(c) => *c > 0,
            Payload::Nodes(n) => !n.is_empty(),
        }
    }

    /// The (windowed) result count.  In `Exists` mode this is `0` or `1` —
    /// an existence run learns no more than that.
    pub fn count(&self) -> u64 {
        self.payload.count()
    }

    /// The materialized nodes, if the run was in [`QueryMode::Nodes`].
    pub fn nodes(&self) -> Option<&[NodeId]> {
        match &self.payload {
            Payload::Nodes(n) => Some(n),
            _ => None,
        }
    }

    /// Consumes the result set into its node vector ([`QueryMode::Nodes`]
    /// runs only).
    pub fn into_nodes(self) -> Option<Vec<NodeId>> {
        match self.payload {
            Payload::Nodes(n) => Some(n),
            _ => None,
        }
    }

    /// A lazy cursor over the result nodes, in document order.  Empty for
    /// `Exists`/`Count` runs.
    pub fn cursor(&self) -> NodeCursor<'_> {
        NodeCursor { nodes: self.nodes().unwrap_or(&[]), pos: 0 }
    }

    /// Whether the `limit` window cut the result: `true` iff matching
    /// nodes exist beyond the returned window (`Nodes` mode; the
    /// truncating evaluators probe one node past the window to decide
    /// this exactly) or beyond the clamped count (`Count` mode).  Always
    /// `false` for `Exists` runs.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The evaluator statistics of the run; always `Some`.  Under early
    /// termination `visited_nodes` reports only the nodes the truncated
    /// run actually touched.
    pub fn stats(&self) -> Option<EvalStats> {
        Some(self.stats)
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.payload {
            Payload::Exists(found) => write!(f, "{found}"),
            Payload::Count(c) => write!(f, "{c}"),
            Payload::Nodes(n) => write!(f, "{} nodes", n.len()),
        }
    }
}

/// A lazy iterator over a [`ResultSet`]'s nodes in document order.
///
/// Borrow-based: iterating never copies the node list, and the cursor can
/// be re-created from the result set any number of times.
#[derive(Debug, Clone)]
pub struct NodeCursor<'a> {
    nodes: &'a [NodeId],
    pos: usize,
}

impl NodeCursor<'_> {
    /// Nodes not yet yielded.
    pub fn remaining(&self) -> usize {
        self.nodes.len() - self.pos
    }

    /// 0-based position of the next node within the result window.
    pub fn position(&self) -> usize {
        self.pos
    }
}

impl Iterator for NodeCursor<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let node = self.nodes.get(self.pos).copied()?;
        self.pos += 1;
        Some(node)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl ExactSizeIterator for NodeCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(value: &impl Hash) -> u64 {
        let mut hasher = DefaultHasher::new();
        value.hash(&mut hasher);
        hasher.finish()
    }

    /// Pins the exact field set that participates in `QueryOptions`'
    /// `Hash`/`Eq` — i.e. the result-cache key contract.  If this test
    /// fails to compile because a field was added, removed or renamed:
    /// decide whether the new field changes the produced payload (then it
    /// MUST keep participating in `Hash`/`Eq`, and caches keyed on the old
    /// shape must be considered invalidated) before updating the
    /// destructuring below.
    #[test]
    fn query_options_cache_key_fields() {
        let options = QueryOptions::default();
        let QueryOptions { mode, limit, offset } = options;
        assert_eq!(mode, QueryMode::Nodes);
        assert_eq!(limit, None);
        assert_eq!(offset, 0);
    }

    /// Equal options hash equal; each field flips the key.
    #[test]
    fn query_options_hash_distinguishes_every_field() {
        let base = QueryOptions::default();
        assert_eq!(hash_of(&base), hash_of(&QueryOptions::default()));
        let variants = [
            QueryOptions { mode: QueryMode::Count, ..base },
            QueryOptions { mode: QueryMode::Exists, ..base },
            QueryOptions { limit: Some(1), ..base },
            QueryOptions { offset: 1, ..base },
        ];
        for variant in variants {
            assert_ne!(variant, base);
            // Not a guarantee of the Hash trait, but with the std hasher a
            // collision here would mean the field is ignored by the derive.
            assert_ne!(hash_of(&variant), hash_of(&base), "{variant:?}");
        }
    }

    /// Pins the per-shard pushdown derivation: exists passes through,
    /// count unclamps, nodes caps at the global window end with the
    /// offset cleared (the merge re-applies it globally).
    #[test]
    fn per_shard_pushdown_semantics() {
        let exists = QueryOptions::exists().with_limit(3).with_offset(2);
        assert_eq!(exists.per_shard(), exists);

        let count = QueryOptions::count().with_limit(3).with_offset(2);
        assert_eq!(count.per_shard(), QueryOptions { limit: None, offset: 0, ..count });

        let nodes = QueryOptions::nodes().with_limit(3).with_offset(2);
        assert_eq!(nodes.per_shard(), QueryOptions { limit: Some(5), offset: 0, ..nodes });

        let unbounded = QueryOptions::nodes().with_offset(7);
        assert_eq!(unbounded.per_shard(), QueryOptions { limit: None, offset: 0, ..unbounded });
    }

    /// `QueryMode` itself is hashable and usable as a map key.
    #[test]
    fn query_mode_is_hashable() {
        let mut seen = std::collections::HashSet::new();
        for mode in [QueryMode::Exists, QueryMode::Count, QueryMode::Nodes] {
            assert!(seen.insert(mode));
        }
        assert_eq!(seen.len(), 3);
    }
}
