//! The automaton evaluator: `TopDownRun` with the optimizations of
//! Sections 5.4 and 5.5 of the paper.
//!
//! The evaluator walks the first-child / next-sibling binary view of the
//! document, maintaining for every visited node the set of automaton states
//! that can still produce an accepting run.  Three of the paper's
//! optimizations are implemented and individually switchable (the Figure 12
//! ablation):
//!
//! * **Jumping to relevant nodes** (Section 5.4.1) — when every state of the
//!   current configuration is a bottom state with a descendant-style
//!   self-loop, the run skips directly to the top-most nodes carrying a
//!   *relevant* label using `TaggedDesc`/`TaggedFoll`-style successor
//!   queries on the per-tag sarrays.
//! * **Memoization of transition selection** (Section 5.5.2, the paper's
//!   just-in-time compilation) — the applicable transitions and the child /
//!   sibling target configurations are compiled once per `(configuration,
//!   label)` into a flat transition table.
//! * **Lazy whole-region results** (Section 5.5.4) — when the configuration
//!   is a single pure accumulator state, the result for a region is produced
//!   as one lazy range (or one counter update) without visiting its nodes.
//!
//! Results are produced either as exact counts or as (lazily concatenated)
//! node sets; `marked`, `visited` and result statistics are recorded for the
//! Figure 13 experiment.
//!
//! # The cost of one visit
//!
//! Every distinct state set a run meets (a run meets tens) is *interned* to a
//! dense `ConfigId`, and what depends on the configuration alone — how its
//! forests are traversed (`Region`), its relevant tags, what it accepts on
//! an empty forest — is decided at that moment.  A visit is then one tag
//! access, one load from the table indexed `configuration * num_tags + tag`
//! (a `NodeConfig`; the table is the private `table` module beside this
//! one), at most one `find_close`, the recursion, and one
//! formula evaluation per applicable transition over results that live on a
//! reused value stack: no hashing, no reference counting, no allocation.
//! ARCHITECTURE.md ("The cost of one visit") has the step-by-step list.
//!
//! # Early termination
//!
//! When the compiled automaton is [`truncation_safe`](crate::Automaton::truncation_safe)
//! — every emitted mark provably survives into the output — the evaluator
//! can *stop the run* as soon as a mark budget is reached.  [`Evaluator::exists`]
//! uses a budget of one, turning existence queries from O(answer) into
//! O(first match) work; [`EvalStats::visited_nodes`] then reports the nodes
//! actually visited by the truncated run.  Unsafe automata (whose ancestors
//! can still discard accumulated results) transparently fall back to a full
//! counting run.

use crate::automaton::{Automaton, Formula, StateId, StateSet};
use crate::table::{Config, ConfigId, NodeConfig, Region, TransitionTable, EMPTY_CONFIG};
use sxsi_text::{TextCollection, TextId};
use sxsi_tree::{reserved, NodeId, TagId, TagRelation, XmlTree};

/// Which optimizations the evaluator uses: the Figure 12 ablation
/// switches, passed to [`Evaluator::new`].  Every product path (the index's
/// prepared statements, the CLI, the daemon) runs [`EvalOptions::default`];
/// only the ablation bench and tests pick another configuration.
#[derive(Debug, Clone, Copy)]
pub struct EvalOptions {
    /// Jump to relevant nodes instead of traversing every node.
    pub jumping: bool,
    /// Memoize transition selection per `(label, configuration)`.
    pub memoization: bool,
    /// Produce whole-region lazy results for pure accumulator states.
    pub lazy_regions: bool,
    /// Answer text predicates on PCDATA content through the text index
    /// (pre-computing the matching text identifiers once per predicate)
    /// instead of extracting and scanning each candidate value.
    pub text_index_predicates: bool,
}

impl Default for EvalOptions {
    fn default() -> Self {
        Self { jumping: true, memoization: true, lazy_regions: true, text_index_predicates: true }
    }
}

impl EvalOptions {
    /// The naive configuration of Figure 12 (full traversal, no caching).
    pub fn naive() -> Self {
        Self { jumping: false, memoization: false, lazy_regions: false, text_index_predicates: false }
    }
}

/// Counters reported by the evaluator (Figure 13).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvalStats {
    /// Number of nodes on which the run function was invoked.
    pub visited_nodes: u64,
    /// Number of nodes marked as potential results during evaluation.
    pub marked_nodes: u64,
    /// Number of result nodes (or the final count in counting mode).
    pub result_nodes: u64,
}

impl EvalStats {
    /// Adds another run's counters onto this one — how a multi-shard
    /// fan-out aggregates its per-document stats into one report.
    pub fn accumulate(&mut self, other: &EvalStats) {
        self.visited_nodes += other.visited_nodes;
        self.marked_nodes += other.marked_nodes;
        self.result_nodes += other.result_nodes;
    }
}

// ---------------------------------------------------------------------
// Result representations
// ---------------------------------------------------------------------

/// The per-state result values accumulated during a run — plain counters or
/// handles to lazily concatenated node sets.  Values are small and `Copy`;
/// whatever a value refers to lives in the store.
trait ResultStore {
    type Value: Copy;
    /// The value of a state that collected nothing.
    const EMPTY: Self::Value;
    fn is_empty(value: Self::Value) -> bool;
    fn singleton(&mut self, node: NodeId) -> Self::Value;
    /// Union of two non-empty values.
    fn union(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// The `count > 0` nodes labeled `tag` opening in `[lo, hi)`.
    fn tag_range(&mut self, tag: TagId, lo: usize, hi: usize, count: u64) -> Self::Value;
}

/// Counting results (Section 5.5.3: sets replaced by integer counters).
struct Counts;

impl ResultStore for Counts {
    type Value = u64;
    const EMPTY: u64 = 0;
    fn is_empty(value: u64) -> bool {
        value == 0
    }
    fn singleton(&mut self, _node: NodeId) -> u64 {
        1
    }
    fn union(&mut self, a: u64, b: u64) -> u64 {
        a + b
    }
    fn tag_range(&mut self, _tag: TagId, _lo: usize, _hi: usize, count: u64) -> u64 {
        count
    }
}

/// Handle to a lazily concatenated node set (Section 5.5.4): a single node
/// is held inline, anything larger is an index into [`NodeSets::arena`].
#[derive(Clone, Copy, Debug)]
struct NodeSet(u64);

impl NodeSet {
    const EMPTY: NodeSet = NodeSet(u64::MAX);
    /// Set on handles that index the arena; node ids never reach it.
    const IN_ARENA: u64 = 1 << 63;
}

#[derive(Clone, Copy, Debug)]
enum LazyNodes {
    /// Every `tag`-labeled node with opening parenthesis in `[lo, hi)`.
    TagRange { tag: TagId, lo: usize, hi: usize },
    Cat(NodeSet, NodeSet),
}

/// The arena behind [`NodeSet`] handles.
#[derive(Default)]
struct NodeSets {
    arena: Vec<LazyNodes>,
}

impl NodeSets {
    fn alloc(&mut self, nodes: LazyNodes) -> NodeSet {
        self.arena.push(nodes);
        NodeSet(NodeSet::IN_ARENA | (self.arena.len() - 1) as u64)
    }

    fn flatten(&self, set: NodeSet, tree: &XmlTree, out: &mut Vec<NodeId>) {
        let mut stack = vec![set];
        while let Some(NodeSet(handle)) = stack.pop() {
            if handle == NodeSet::EMPTY.0 {
                continue;
            }
            if handle & NodeSet::IN_ARENA == 0 {
                out.push(handle as NodeId);
                continue;
            }
            match self.arena[(handle & !NodeSet::IN_ARENA) as usize] {
                LazyNodes::TagRange { tag, lo, hi } => out.extend(tree.tag_nodes_in_range(tag, lo, hi)),
                LazyNodes::Cat(a, b) => {
                    stack.push(b);
                    stack.push(a);
                }
            }
        }
    }
}

impl ResultStore for NodeSets {
    type Value = NodeSet;
    const EMPTY: NodeSet = NodeSet::EMPTY;
    fn is_empty(value: NodeSet) -> bool {
        value.0 == NodeSet::EMPTY.0
    }
    fn singleton(&mut self, node: NodeId) -> NodeSet {
        NodeSet(node as u64)
    }
    fn union(&mut self, a: NodeSet, b: NodeSet) -> NodeSet {
        self.alloc(LazyNodes::Cat(a, b))
    }
    fn tag_range(&mut self, tag: TagId, lo: usize, hi: usize, _count: u64) -> NodeSet {
        self.alloc(LazyNodes::TagRange { tag, lo, hi })
    }
}

/// Result mapping for one forest/node: which states have accepting runs, and
/// which of them collected a (non-empty) value.  The values themselves sit
/// on the run's value stack at `base..`, in state order, so a lookup is a
/// bit rank and a map is three words that are passed by copy.
#[derive(Clone, Copy, Debug)]
struct ResMap {
    accepted: StateSet,
    valued: StateSet,
    base: usize,
}

impl ResMap {
    fn nil(accepted: StateSet) -> Self {
        Self { accepted, valued: StateSet::EMPTY, base: 0 }
    }
}

/// The result store of one run plus the value stack its [`ResMap`]s index.
///
/// Stack discipline: a function returning a `ResMap` leaves that map's
/// values as the top of the stack, starting where the stack ended when the
/// function was entered.
struct Results<S: ResultStore> {
    store: S,
    stack: Vec<S::Value>,
}

impl<S: ResultStore> Results<S> {
    fn new(store: S) -> Self {
        Self { store, stack: Vec::new() }
    }

    fn value(&self, map: ResMap, q: StateId) -> S::Value {
        if map.valued.contains(q) {
            self.stack[map.base + map.valued.rank(q)]
        } else {
            S::EMPTY
        }
    }

    fn union(&mut self, a: S::Value, b: S::Value) -> S::Value {
        if S::is_empty(a) {
            b
        } else if S::is_empty(b) {
            a
        } else {
            self.store.union(a, b)
        }
    }

    /// A map accepting `accepted`, ready to take values on top of the stack.
    fn open(&self, accepted: StateSet) -> ResMap {
        ResMap { accepted, valued: StateSet::EMPTY, base: self.stack.len() }
    }

    /// Records the outcome of state `q` in `map`, whose values are the top
    /// of the stack.  States must be recorded in increasing order.
    fn insert(&mut self, map: &mut ResMap, q: StateId, value: S::Value) {
        map.accepted.insert(q);
        if !S::is_empty(value) {
            map.valued.insert(q);
            self.stack.push(value);
        }
    }

    /// Moves `map`'s values (the top of the stack) down to `base`, dropping
    /// whatever dead values lay in between.
    fn settle(&mut self, base: usize, mut map: ResMap) -> ResMap {
        let count = map.valued.len();
        if count > 0 && map.base != base {
            self.stack.copy_within(map.base..map.base + count, base);
        }
        self.stack.truncate(base + count);
        map.base = base;
        map
    }

    /// The union of `a` (whose values start at `base`) and `b` (whose
    /// values follow as the top of the stack), settled at `base`.
    fn merge(&mut self, base: usize, a: ResMap, b: ResMap) -> ResMap {
        let accepted = a.accepted.union(b.accepted);
        if b.valued.is_empty() {
            return ResMap { accepted, ..a };
        }
        let mut out = self.open(accepted);
        for q in a.valued.union(b.valued).iter() {
            let (in_a, in_b) = (self.value(a, q), self.value(b, q));
            let value = self.union(in_a, in_b);
            self.stack.push(value);
            out.valued.insert(q);
        }
        self.settle(base, out)
    }
}

/// "No occurrence inside the scope" among jump candidates.
const NO_CANDIDATE: usize = usize::MAX;

// ---------------------------------------------------------------------
// The evaluator
// ---------------------------------------------------------------------

/// Evaluates a compiled automaton over a document.
pub struct Evaluator<'a> {
    automaton: &'a Automaton,
    tree: &'a XmlTree,
    texts: Option<&'a TextCollection>,
    options: EvalOptions,
    stats: EvalStats,
    table: TransitionTable<'a>,
    /// Whether an `@` container can occur below another one (never in a
    /// parsed document), in which case the nearest `@` *before* a node need
    /// not be the nearest one *around* it.
    nested_attributes: bool,
    /// Scratch of the sibling-chain traversal: `(node, node config, close)`.
    siblings: Vec<(NodeId, usize, Option<usize>)>,
    /// Scratch of the jumping traversal: the next candidate per relevant tag.
    candidates: Vec<usize>,
    /// Per predicate: the sorted text ids whose *whole* content satisfies it
    /// (only present when `text_index_predicates` is enabled).
    pred_text_matches: Vec<Option<Vec<TextId>>>,
    /// Marks emitted by the current run, net of the rollbacks performed when
    /// a formula branch fails.  For truncation-safe automata this equals the
    /// number of results accumulated so far.
    emitted_marks: u64,
    /// Abort the run once `emitted_marks` reaches this budget (only ever set
    /// for truncation-safe automata).
    mark_budget: Option<u64>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator.  `texts` may be `None` for purely structural
    /// queries; evaluating a text predicate without a text collection
    /// panics.
    pub fn new(
        automaton: &'a Automaton,
        tree: &'a XmlTree,
        texts: Option<&'a TextCollection>,
        options: EvalOptions,
    ) -> Self {
        Self {
            automaton,
            tree,
            texts,
            options,
            stats: EvalStats::default(),
            table: TransitionTable::new(automaton, tree, options),
            nested_attributes: tree.tag_relation_possible(
                reserved::ATTRIBUTES,
                reserved::ATTRIBUTES,
                TagRelation::Descendant,
            ),
            siblings: Vec::new(),
            candidates: Vec::new(),
            pred_text_matches: vec![None; automaton.predicates.len()],
            emitted_marks: 0,
            mark_budget: None,
        }
    }

    #[inline]
    fn budget_exhausted(&self) -> bool {
        self.mark_budget.is_some_and(|b| self.emitted_marks >= b)
    }

    /// Statistics of the last run.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// Runs the query in counting mode.
    ///
    /// For the rare query shapes where one result node may be reached
    /// through several witnesses (see [`Automaton::exact_counting`]),
    /// counters cannot simply be added, and the evaluator counts the
    /// distinct materialized nodes instead.
    pub fn count(&mut self) -> u64 {
        if !self.automaton.exact_counting {
            return self.materialize().len() as u64;
        }
        self.prepare_predicates();
        let mut results = Results::new(Counts);
        let res = self.run_root(&mut results);
        let total: u64 = self.automaton.top_states.iter().map(|q| results.value(res, q)).sum();
        self.stats.result_nodes = total;
        total
    }

    /// Runs the query and materializes the result nodes in document order.
    pub fn materialize(&mut self) -> Vec<NodeId> {
        self.prepare_predicates();
        let mut results = Results::new(NodeSets::default());
        let res = self.run_root(&mut results);
        let mut out = Vec::new();
        for q in self.automaton.top_states.iter() {
            results.store.flatten(results.value(res, q), self.tree, &mut out);
        }
        out.sort_unstable();
        out.dedup();
        self.stats.result_nodes = out.len() as u64;
        out
    }

    /// Whether the query selects at least one node.
    ///
    /// For [truncation-safe](crate::Automaton::truncation_safe) automata the
    /// run *stops at the first emitted mark* — O(first match) instead of
    /// O(answer) — and [`EvalStats::visited_nodes`] reports only the nodes
    /// the truncated run actually touched.  Other automata fall back to a
    /// full counting run.
    pub fn exists(&mut self) -> bool {
        if !self.automaton.truncation_safe {
            return self.count() > 0;
        }
        self.mark_budget = Some(1);
        self.prepare_predicates();
        self.run_root(&mut Results::new(Counts));
        self.mark_budget = None;
        let found = self.emitted_marks > 0;
        self.stats.result_nodes = u64::from(found);
        found
    }

    fn run_root<S: ResultStore>(&mut self, results: &mut Results<S>) -> ResMap {
        self.stats = EvalStats::default();
        self.emitted_marks = 0;
        let root = self.tree.root();
        let top = self.table.intern(self.automaton.top_states);
        let node_config = self.table.node_config(top, self.tree.tag(root));
        self.eval_node(results, root, node_config, None, ResMap::nil(StateSet::EMPTY))
    }

    // -----------------------------------------------------------------
    // Text predicates
    // -----------------------------------------------------------------

    /// Pre-computes, for every predicate of the automaton, the text ids whose
    /// whole content matches, using the text index (backward search +
    /// locate) — the strategy the paper uses for selective text predicates
    /// evaluated during a top-down run.
    fn prepare_predicates(&mut self) {
        if !self.options.text_index_predicates {
            return;
        }
        let Some(texts) = self.texts else { return };
        for (i, pred) in self.automaton.predicates.iter().enumerate() {
            if self.pred_text_matches[i].is_none() {
                self.pred_text_matches[i] = Some(texts.matching_texts(pred));
            }
        }
    }

    /// Evaluates predicate `id` on node `x`, following the XPath string-value
    /// semantics: the value of an element is the concatenation of all text
    /// descendants; the value of a text/attribute-value leaf is its text.
    fn eval_pred(&mut self, id: usize, x: NodeId) -> bool {
        let pred = &self.automaton.predicates[id];
        let texts = self.texts.expect("text predicates require a text collection");
        let ids = self.tree.string_value_texts(x);
        match ids.len() {
            0 => pred.matches_value(b""),
            1 => {
                let text_id = ids[0];
                if let Some(Some(matches)) = self.pred_text_matches.get(id) {
                    matches.binary_search(&text_id).is_ok()
                } else {
                    texts.text_matches(text_id, pred)
                }
            }
            _ => {
                // Mixed content: build the concatenated string value (the
                // paper's fallback to the naive text representation).
                let mut value = Vec::new();
                for t in ids {
                    value.extend_from_slice(&texts.get_text(t));
                }
                pred.matches_value(&value)
            }
        }
    }

    // -----------------------------------------------------------------
    // Core recursion
    // -----------------------------------------------------------------

    /// Evaluates the binary subtree rooted at node `x` given the sibling
    /// result `r2` (the evaluation of `x`'s next-sibling forest).  `close`
    /// is `x`'s closing parenthesis when the caller already had to find it.
    fn eval_node<S: ResultStore>(
        &mut self,
        results: &mut Results<S>,
        x: NodeId,
        node_config: usize,
        close: Option<usize>,
        r2: ResMap,
    ) -> ResMap {
        if self.budget_exhausted() {
            return ResMap::nil(StateSet::EMPTY);
        }
        self.stats.visited_nodes += 1;
        let NodeConfig { down1, first, end, .. } = self.table.compiled(node_config);
        let base = results.stack.len();
        let r1 = if down1 == EMPTY_CONFIG {
            ResMap::nil(StateSet::EMPTY)
        } else {
            match self.tree.first_child(x) {
                None => ResMap::nil(self.table.config(down1).at_nil),
                Some(child) => {
                    let scope_end = close.unwrap_or_else(|| self.tree.close(x));
                    self.eval_forest(results, child, down1, scope_end)
                }
            }
        };
        let mut out = results.open(StateSet::EMPTY);
        let mut i = first;
        while i < end {
            let (q, formula) = self.table.transition(i);
            i += 1;
            let emitted_before = self.emitted_marks;
            let (ok, value) = self.eval_formula(results, formula, x, r1, r2);
            if ok {
                results.insert(&mut out, q, value);
                // The first satisfied transition of a state provides its
                // result; skip the state's remaining ones.
                while i < end && self.table.transition(i).0 == q {
                    i += 1;
                }
            } else {
                // A failed transition's marks never reach the output.
                self.emitted_marks = emitted_before;
            }
        }
        results.settle(base, out)
    }

    /// Evaluates a non-empty forest (the node `first` and all its following
    /// siblings, with their subtrees).  `scope_end` is the parenthesis
    /// position just past the forest (the closing parenthesis of the
    /// enclosing node).
    fn eval_forest<S: ResultStore>(
        &mut self,
        results: &mut Results<S>,
        first: NodeId,
        config: ConfigId,
        scope_end: usize,
    ) -> ResMap {
        let Config { states, region, .. } = *self.table.config(config);
        match region {
            Region::Walk => self.eval_sibling_chain(results, first, config),
            Region::Lazy { state, tag } => {
                let count = self.tree.tag_count_in_range(tag, first, scope_end) as u64;
                self.stats.marked_nodes += count;
                self.emitted_marks += count;
                let mut res = results.open(states);
                if count > 0 {
                    let value = results.store.tag_range(tag, first, scope_end, count);
                    results.insert(&mut res, state, value);
                }
                res
            }
            Region::Jump { first: first_tag, end: end_tag } => {
                self.eval_jump_region(results, first, scope_end, config, first_tag..end_tag)
            }
        }
    }

    /// Jumping evaluation of a whole region `[start, scope_end)` for a
    /// configuration of descendant-loop bottom states: only the top-most
    /// nodes labeled with one of the relevant `tags` of the table are visited.
    fn eval_jump_region<S: ResultStore>(
        &mut self,
        results: &mut Results<S>,
        start: NodeId,
        scope_end: usize,
        config: ConfigId,
        tags: std::ops::Range<usize>,
    ) -> ResMap {
        let states = self.table.config(config).states;
        let base = results.stack.len();
        // Every state of a jumpable configuration is a bottom state, so all
        // of them accept over the region regardless of what is found; the
        // same holds for the (skipped) forest after each visited node.
        let mut res = results.open(states);
        let sibling_context = ResMap::nil(states);
        // Per relevant tag, its next occurrence at or after `search_from`
        // that no attribute container hides: found once, and again only
        // after the scan has moved past it.
        let candidates = self.candidates.len();
        self.candidates.resize(candidates + tags.len(), 0);
        let mut search_from = start;
        while !self.budget_exhausted() {
            let mut next = NO_CANDIDATE;
            let mut next_tag = reserved::ROOT;
            for (slot, i) in tags.clone().enumerate() {
                let (tag, below_attributes) = self.table.relevant(i);
                let mut candidate = self.candidates[candidates + slot];
                if candidate < search_from {
                    candidate = self.next_candidate(tag, below_attributes, search_from, scope_end);
                    self.candidates[candidates + slot] = candidate;
                }
                if candidate < next {
                    next = candidate;
                    next_tag = tag;
                }
            }
            if next == NO_CANDIDATE {
                break;
            }
            let compiled = self.table.mark();
            let node_config = self.table.node_config(config, next_tag);
            let close = self.tree.close(next);
            let node_res = self.eval_node(results, next, node_config, Some(close), sibling_context);
            self.table.release(compiled);
            res = results.merge(base, res, node_res);
            // Continue after the node's subtree: deeper relevant nodes were
            // handled by its own recursive evaluation.
            search_from = close + 1;
            if search_from >= scope_end {
                break;
            }
        }
        self.candidates.truncate(candidates);
        res
    }

    /// The first node labeled `tag` in `[from, scope_end)` that is not
    /// hidden inside an attribute container, or [`NO_CANDIDATE`].
    fn next_candidate(&self, tag: TagId, below_attributes: bool, from: usize, scope_end: usize) -> usize {
        let mut pos = from;
        while let Some(p) = self.tree.tagged_next(tag, pos) {
            if p >= scope_end {
                break;
            }
            match below_attributes.then(|| self.attribute_container_end(p)).flatten() {
                Some(end) => pos = end + 1,
                None => return p,
            }
        }
        NO_CANDIDATE
    }

    /// The closing parenthesis of the nearest `@` container around `x`, if
    /// any: the last `@` opening before `x` either encloses `x` or — as
    /// containers do not nest in a parsed document — shows that none does.
    fn attribute_container_end(&self, x: NodeId) -> Option<usize> {
        let mut container = self.tree.tagged_prev(reserved::ATTRIBUTES, x);
        while let Some(at) = container {
            let end = self.tree.close(at);
            if end > x {
                return Some(end);
            }
            if !self.nested_attributes {
                break;
            }
            container = self.tree.tagged_prev(reserved::ATTRIBUTES, at);
        }
        None
    }

    /// The exact sibling-chain traversal of a forest: a forward pass fixes
    /// the configuration of every sibling, a backward pass evaluates them,
    /// each with the result of the siblings after it.
    fn eval_sibling_chain<S: ResultStore>(
        &mut self,
        results: &mut Results<S>,
        first: NodeId,
        config: ConfigId,
    ) -> ResMap {
        let compiled = self.table.mark();
        let chain = self.siblings.len();
        let mut x = first;
        let mut config = config;
        // The configuration of the (empty) forest after the last sibling
        // the chain reaches.
        let tail = loop {
            let node_config = self.table.node_config(config, self.tree.tag(x));
            let down2 = self.table.compiled(node_config).down2;
            if down2 == EMPTY_CONFIG {
                self.siblings.push((x, node_config, None));
                break EMPTY_CONFIG;
            }
            let close = self.tree.close(x);
            self.siblings.push((x, node_config, Some(close)));
            config = down2;
            match self.tree.sibling_after(close) {
                Some(sibling) => x = sibling,
                None => break down2,
            }
        };
        let base = results.stack.len();
        let mut r2 = ResMap::nil(self.table.config(tail).at_nil);
        for i in (chain..self.siblings.len()).rev() {
            if self.budget_exhausted() {
                break;
            }
            let (x, node_config, close) = self.siblings[i];
            let res = self.eval_node(results, x, node_config, close, r2);
            r2 = results.settle(base, res);
        }
        self.siblings.truncate(chain);
        self.table.release(compiled);
        r2
    }

    // -----------------------------------------------------------------
    // Formula evaluation
    // -----------------------------------------------------------------

    fn eval_formula<S: ResultStore>(
        &mut self,
        results: &mut Results<S>,
        formula: &Formula,
        x: NodeId,
        r1: ResMap,
        r2: ResMap,
    ) -> (bool, S::Value) {
        match formula {
            Formula::True => (true, S::EMPTY),
            Formula::False => (false, S::EMPTY),
            Formula::Mark => {
                self.stats.marked_nodes += 1;
                self.emitted_marks += 1;
                (true, results.store.singleton(x))
            }
            Formula::Down1(q) => (r1.accepted.contains(*q), results.value(r1, *q)),
            Formula::Down2(q) => (r2.accepted.contains(*q), results.value(r2, *q)),
            Formula::Pred(id) => (self.eval_pred(*id, x), S::EMPTY),
            Formula::And(a, b) => {
                let (ok_a, val_a) = self.eval_formula(results, a, x, r1, r2);
                if !ok_a {
                    return (false, S::EMPTY);
                }
                let (ok_b, val_b) = self.eval_formula(results, b, x, r1, r2);
                if !ok_b {
                    return (false, S::EMPTY);
                }
                (true, results.union(val_a, val_b))
            }
            Formula::Or(a, b) => {
                let emitted_before = self.emitted_marks;
                let (ok_a, val_a) = self.eval_formula(results, a, x, r1, r2);
                if ok_a {
                    return (true, val_a);
                }
                // The failed branch's marks were discarded with its value.
                self.emitted_marks = emitted_before;
                self.eval_formula(results, b, x, r1, r2)
            }
            Formula::Not(a) => {
                let emitted_before = self.emitted_marks;
                let (ok, _) = self.eval_formula(results, a, x, r1, r2);
                // Marks inside a negation never produce results.
                self.emitted_marks = emitted_before;
                (!ok, S::EMPTY)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse_query;
    use sxsi_text::TextCollection;
    use sxsi_xml::parse_document;

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
  <closed_auctions>
    <closed_auction><annotation><description><text><keyword>bargain</keyword></text></description></annotation><date>01/01/2000</date></closed_auction>
    <closed_auction><date>02/02/2000</date></closed_auction>
  </closed_auctions>
</site>"#;

    struct Fixture {
        tree: sxsi_tree::XmlTree,
        texts: TextCollection,
    }

    fn fixture() -> Fixture {
        let doc = parse_document(DOC.as_bytes()).unwrap();
        let texts = TextCollection::new(&doc.text_slices());
        Fixture { tree: doc.tree, texts }
    }

    fn count(f: &Fixture, query: &str, options: EvalOptions) -> u64 {
        let q = parse_query(query).unwrap();
        let a = compile(&q, &f.tree).unwrap();
        let mut e = Evaluator::new(&a, &f.tree, Some(&f.texts), options);
        e.count()
    }

    fn nodes(f: &Fixture, query: &str, options: EvalOptions) -> Vec<NodeId> {
        let q = parse_query(query).unwrap();
        let a = compile(&q, &f.tree).unwrap();
        let mut e = Evaluator::new(&a, &f.tree, Some(&f.texts), options);
        e.materialize()
    }

    fn all_option_sets() -> Vec<EvalOptions> {
        let mut out = Vec::new();
        for jumping in [false, true] {
            for memoization in [false, true] {
                for lazy in [false, true] {
                    for text_idx in [false, true] {
                        out.push(EvalOptions {
                            jumping,
                            memoization,
                            lazy_regions: lazy,
                            text_index_predicates: text_idx,
                        });
                    }
                }
            }
        }
        out
    }

    /// Every query evaluated with every optimization combination must agree
    /// (the Figure 12 ablation is a pure performance experiment).
    #[test]
    fn optimizations_do_not_change_results() {
        let f = fixture();
        let queries = [
            "//keyword",
            "//listitem//keyword",
            "/site/regions/*/item",
            "/site/people/person[ phone or homepage]/name",
            "//listitem[not(.//keyword/emph)]",
            "/site/closed_auctions/closed_auction[ annotation/description/text/keyword ]/date",
            "//*",
            "//*//*",
            "/descendant::text()",
            "/descendant::*/attribute::*",
            r#"//person[ contains(., "Alice") ]"#,
            r#"//item[ .//keyword[ contains(., "rare") ] ]/name"#,
        ];
        for query in queries {
            let reference = nodes(&f, query, EvalOptions::naive());
            let ref_count = count(&f, query, EvalOptions::naive());
            assert_eq!(reference.len() as u64, ref_count, "count vs materialize for {query}");
            for opts in all_option_sets() {
                assert_eq!(nodes(&f, query, opts), reference, "{query} with {opts:?}");
                assert_eq!(count(&f, query, opts), ref_count, "{query} count with {opts:?}");
            }
        }
    }

    #[test]
    fn structural_counts_are_correct() {
        let f = fixture();
        let o = EvalOptions::default();
        assert_eq!(count(&f, "//keyword", o), 3);
        assert_eq!(count(&f, "//listitem//keyword", o), 2);
        assert_eq!(count(&f, "//listitem/keyword", o), 1);
        assert_eq!(count(&f, "/site/regions/*/item", o), 2);
        assert_eq!(count(&f, "/site/people/person", o), 2);
        assert_eq!(count(&f, "/site/people/person[ phone or homepage]/name", o), 2);
        assert_eq!(count(&f, "/site/people/person[ address and phone]/name", o), 1);
        assert_eq!(count(&f, "//person[not(address)]", o), 1);
        assert_eq!(count(&f, "//closed_auction[ .//keyword]/date", o), 1);
        assert_eq!(count(&f, "//closed_auction/date", o), 2);
        assert_eq!(count(&f, "/*", o), 1);
        assert_eq!(count(&f, "/*[ .//* ]", o), 1);
        assert_eq!(count(&f, "//item/@id", o), 2);
        assert_eq!(count(&f, "//person/@id", o), 2);
        assert_eq!(count(&f, "//nonexistent", o), 0);
    }

    #[test]
    fn text_predicate_queries() {
        let f = fixture();
        let o = EvalOptions::default();
        assert_eq!(count(&f, r#"//keyword[ contains(., "rare") ]"#, o), 1);
        assert_eq!(count(&f, r#"//keyword[ contains(., "zzz") ]"#, o), 0);
        assert_eq!(count(&f, r#"//person[ .//name[ . = "Alice" ] ]"#, o), 1);
        assert_eq!(count(&f, r#"//person[ starts-with(.//name, "B") ]"#, o), 1);
        assert_eq!(count(&f, r#"//name[ ends-with(., "ce") ]"#, o), 1);
        // String-value semantics over mixed content: the listitem's value is
        // the concatenation "a rare drum loud".
        assert_eq!(count(&f, r#"//listitem[ contains(., "rare drum") ]"#, o), 1);
        assert_eq!(count(&f, r#"//text[ contains(., "a rare") ]"#, o), 1);
        // Attribute values are texts too.
        assert_eq!(count(&f, r#"//person[ @id = "p1" ]"#, o), 1);
    }

    #[test]
    fn materialized_nodes_are_in_document_order_and_correct() {
        let f = fixture();
        let o = EvalOptions::default();
        let keyword_nodes = nodes(&f, "//keyword", o);
        assert_eq!(keyword_nodes.len(), 3);
        assert!(keyword_nodes.windows(2).all(|w| w[0] < w[1]));
        for &n in &keyword_nodes {
            assert_eq!(f.tree.tag_name(f.tree.tag(n)), "keyword");
        }
        let date_nodes = nodes(&f, "//closed_auction[ .//keyword]/date", o);
        assert_eq!(date_nodes.len(), 1);
        assert_eq!(f.tree.tag_name(f.tree.tag(date_nodes[0])), "date");
    }

    #[test]
    fn stats_reflect_jumping() {
        let f = fixture();
        let q = parse_query("//keyword").unwrap();
        let a = compile(&q, &f.tree).unwrap();
        let mut naive = Evaluator::new(&a, &f.tree, Some(&f.texts), EvalOptions::naive());
        let naive_count = naive.count();
        let naive_visited = naive.stats().visited_nodes;
        let mut fast = Evaluator::new(&a, &f.tree, Some(&f.texts), EvalOptions::default());
        let fast_count = fast.count();
        let fast_visited = fast.stats().visited_nodes;
        assert_eq!(naive_count, fast_count);
        assert!(
            fast_visited < naive_visited,
            "jumping should visit fewer nodes ({fast_visited} vs {naive_visited})"
        );
    }

    /// Jump candidates hidden in an attribute container are skipped by
    /// looking at the `@` openings *before* them — also in a hand-built tree
    /// where containers nest, so that the nearest `@` before a node is not
    /// the one around it.
    #[test]
    fn jumping_skips_candidates_inside_attribute_containers() {
        let mut b = sxsi_tree::XmlTreeBuilder::new();
        b.open("doc");
        for nested in [false, true] {
            b.open("item");
            b.open_tag_id(reserved::ATTRIBUTES);
            if nested {
                b.open_tag_id(reserved::ATTRIBUTES);
                b.open("name"); // hidden, two containers deep
                b.close();
                b.close();
            }
            b.open("name"); // hidden: after the inner container, inside the outer
            b.text_leaf(true);
            b.close();
            b.close();
            b.open("name"); // visible
            b.close();
            b.close();
        }
        b.close();
        let tree = b.finish();
        let a = compile(&parse_query("//name").unwrap(), &tree).unwrap();
        for opts in all_option_sets() {
            let mut e = Evaluator::new(&a, &tree, None, opts);
            let found = e.materialize();
            assert_eq!(found.len(), 2, "{opts:?}");
            assert!(found.iter().all(|&n| tree.tag(tree.parent(n).unwrap()) != reserved::ATTRIBUTES));
            assert_eq!(e.count(), 2, "{opts:?}");
        }
    }

    /// The transition table is dense in the number of tag names; a document
    /// with thousands of them (each query pays `configurations × tags` table
    /// slots) answers like any other.
    #[test]
    fn many_distinct_tags() {
        const TAGS: usize = 5000;
        let mut xml = String::from("<root>");
        for i in 0..TAGS {
            xml.push_str(&format!("<t{i}><leaf/></t{i}>"));
        }
        xml.push_str("<t17><t4999/></t17></root>");
        let doc = parse_document(xml.as_bytes()).unwrap();
        assert!(doc.tree.num_tags() > TAGS);
        let f = Fixture { texts: TextCollection::new(&doc.text_slices()), tree: doc.tree };
        let expected = [("//t17", 2), ("//t17//t4999", 1), ("/root/t4999", 1), ("//*[leaf]", TAGS as u64), ("//*", 2 * TAGS as u64 + 3)];
        for (query, expected) in expected {
            for opts in all_option_sets() {
                assert_eq!(count(&f, query, opts), expected, "{query} with {opts:?}");
                assert_eq!(nodes(&f, query, opts).len() as u64, expected, "{query} with {opts:?}");
            }
        }
    }

    /// `exists` agrees with `count > 0` on every query and every
    /// optimization combination (truncated or not).
    #[test]
    fn exists_agrees_with_count() {
        let f = fixture();
        let queries = [
            "//keyword",
            "//listitem//keyword",
            "/site/regions/*/item",
            "/site/people/person[ phone or homepage]/name",
            "//listitem[not(.//keyword/emph)]",
            "//nonexistent",
            "//keyword//nonexistent",
            r#"//person[ contains(., "Alice") ]"#,
            r#"//person[ contains(., "Zebulon") ]"#,
            "//*//*",
        ];
        for query in queries {
            let q = parse_query(query).unwrap();
            let a = compile(&q, &f.tree).unwrap();
            for opts in all_option_sets() {
                let mut counter = Evaluator::new(&a, &f.tree, Some(&f.texts), opts);
                let expected = counter.count() > 0;
                let mut e = Evaluator::new(&a, &f.tree, Some(&f.texts), opts);
                assert_eq!(e.exists(), expected, "{query} with {opts:?}");
            }
        }
    }

    /// On truncation-safe automata, an existence run visits no more nodes
    /// than a counting run — and strictly fewer when the first match comes
    /// early in a large document.
    #[test]
    fn exists_truncates_the_run() {
        // The no-jump evaluator processes sibling chains back to front, so
        // the match at the end of the document is the first node the run
        // sees — everything before it is skipped once the budget is hit.
        let mut xml = String::from("<root>");
        for _ in 0..500 {
            xml.push_str("<filler><a/><b/></filler>");
        }
        xml.push_str("<hit/></root>");
        let doc = parse_document(xml.as_bytes()).unwrap();
        let texts = TextCollection::new(&doc.text_slices());
        let q = parse_query("//hit").unwrap();
        let a = compile(&q, &doc.tree).unwrap();
        assert!(a.truncation_safe, "//hit should be truncation safe");
        // Disable jumping so the runs actually traverse; the existence run
        // must stop at the first match.
        let opts = EvalOptions { jumping: false, ..EvalOptions::default() };
        let mut counter = Evaluator::new(&a, &doc.tree, Some(&texts), opts);
        assert_eq!(counter.count(), 1);
        let full_visited = counter.stats().visited_nodes;
        let mut e = Evaluator::new(&a, &doc.tree, Some(&texts), opts);
        assert!(e.exists());
        let truncated_visited = e.stats().visited_nodes;
        assert!(
            truncated_visited < full_visited,
            "exists should visit fewer nodes ({truncated_visited} vs {full_visited})"
        );
    }

    /// The safety analysis accepts plain paths and locally-filtered results
    /// but rejects shapes whose marks an ancestor predicate may discard.
    #[test]
    fn truncation_safety_classification() {
        let f = fixture();
        let safe = ["//keyword", "/site/regions/*/item", "//listitem//keyword", "//keyword[emph]"];
        for query in safe {
            let q = parse_query(query).unwrap();
            let a = compile(&q, &f.tree).unwrap();
            assert!(a.truncation_safe, "{query} should be truncation safe");
        }
        let unsafe_queries = [
            "/site/people/person[ phone or homepage]/name", // ancestor filter discards
            "//listitem[not(.//keyword)]//text",            // negated ancestor filter
        ];
        for query in unsafe_queries {
            let q = parse_query(query).unwrap();
            let a = compile(&q, &f.tree).unwrap();
            assert!(!a.truncation_safe, "{query} must not be truncation safe");
        }
    }
}
