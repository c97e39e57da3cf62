//! Ordered, navigation-based query evaluation — the engine behind the
//! reverse axes (`parent`, `ancestor`, `ancestor-or-self`,
//! `preceding-sibling`, `preceding`), the `following` axis and the
//! positional predicates `[n]` / `[position() op n]` / `[last()]`.
//!
//! The tree automata of [`crate::eval`] process the document in one forward
//! pass and accumulate *sets* of result nodes; that is exactly why they are
//! fast, and exactly why they cannot express positional predicates (which
//! need the per-context *sequence* a step selects) or reverse axes (which
//! walk against the first-child/next-sibling grain).  This module is the
//! other half of the evaluation contract: a direct evaluator over the BP
//! tree's full navigation (`parent`, `prev_sibling`, subtree ranges) that
//! materializes each step's selection *per context node, in axis order* —
//! document order for forward axes, reverse document order for reverse axes
//! — so positional predicates index the exact sequence XPath prescribes.
//!
//! The `SxsiIndex` planner first tries to rewrite a query into the forward
//! fragment ([`crate::rewrite`]); only queries that remain outside it are
//! evaluated here.  Results are always returned deduplicated in document
//! order, like every other strategy.
//!
//! Model-specific semantics (shared with the naive baseline oracle):
//!
//! * the synthetic super-root `&` is never selectable by any node test;
//! * the attribute encoding (`@` containers, attribute-name nodes, `%`
//!   value leaves) is invisible to every axis except `attribute::` —
//!   `descendant`, `following` and `preceding` skip `@` subtrees, and
//!   `parent`/`ancestor` step over the `@` container so the parent of an
//!   attribute node is its owning element.

use crate::ast::{Axis, NodeTest, Path, Predicate, Query, Step};
use std::sync::atomic::{AtomicU64, Ordering};
use sxsi_text::{TextCollection, TextId, TextPredicate};
use sxsi_tree::{reserved, NodeId, XmlTree};

/// Options for a [`DirectEvaluator`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirectRunOptions {
    /// Stop once this many result nodes have been produced.  The returned
    /// nodes are an exact document-order prefix of the full result.
    pub max_nodes: Option<usize>,
    /// Stop as soon as *any* result node is found (existence queries); the
    /// returned prefix then holds at least one node but carries no ordering
    /// guarantee beyond being actual results.
    pub exists_only: bool,
}

/// The outcome of a [`DirectEvaluator`] run.
#[derive(Debug, Clone)]
pub struct DirectOutcome {
    /// Result nodes, deduplicated.  In document order — and, under
    /// `max_nodes` truncation, an exact prefix of the full result.
    pub nodes: Vec<NodeId>,
    /// Number of candidate nodes tested during the run (the direct
    /// strategy's equivalent of the automaton's visited-node counter).
    pub visited: u64,
}

/// Evaluates queries by direct tree navigation with XPath's ordered,
/// per-context semantics.
pub struct DirectEvaluator<'a> {
    tree: &'a XmlTree,
    texts: Option<&'a TextCollection>,
    /// Candidate tests performed by the current run (interior mutability so
    /// the recursive evaluation can stay `&self`; atomic only to keep the
    /// evaluator `Sync` — each run owns its evaluator).
    visited: AtomicU64,
}

/// A node test with the tag name resolved to its id once per step, so the
/// document-scale scans compare ids instead of hashing strings per node.
/// The one node-test matcher of the indexed evaluators (direct and
/// bottom-up).
#[derive(Clone, Copy, Debug)]
pub(crate) enum ResolvedTest {
    /// A name test; `None` when the name does not occur in the document.
    Name(Option<sxsi_tree::TagId>),
    /// `*`
    Wildcard,
    /// `text()`
    Text,
    /// `node()`
    Node,
}

impl ResolvedTest {
    /// Resolves a node test against `tree`'s tag registry.
    pub(crate) fn resolve(tree: &XmlTree, test: &NodeTest) -> Self {
        match test {
            NodeTest::Wildcard => Self::Wildcard,
            NodeTest::Name(name) => Self::Name(tree.tag_id(name)),
            NodeTest::Text => Self::Text,
            NodeTest::Node => Self::Node,
        }
    }

    /// Whether `node` passes the test: `*` is any element, `node()` any
    /// node but the root and the attribute containers.
    pub(crate) fn matches(&self, tree: &XmlTree, node: NodeId) -> bool {
        let tag = tree.tag(node);
        match self {
            Self::Wildcard => {
                tag != reserved::ROOT
                    && tag != reserved::TEXT
                    && tag != reserved::ATTRIBUTES
                    && tag != reserved::ATTRIBUTE_VALUE
            }
            Self::Name(id) => *id == Some(tag),
            Self::Text => tag == reserved::TEXT,
            Self::Node => {
                tag != reserved::ROOT
                    && tag != reserved::ATTRIBUTES
                    && tag != reserved::ATTRIBUTE_VALUE
            }
        }
    }
}

impl<'a> DirectEvaluator<'a> {
    /// Creates an evaluator.  `texts` may be `None` for purely structural
    /// queries; evaluating a text predicate without a text collection
    /// panics.
    pub fn new(tree: &'a XmlTree, texts: Option<&'a TextCollection>) -> Self {
        Self { tree, texts, visited: AtomicU64::new(0) }
    }

    /// Runs the query with the given truncation options.
    ///
    /// Early termination applies to the *final* location step: candidate
    /// enumeration stops once the budget is provably satisfied (leading
    /// positional predicates like `[1]` additionally cap enumeration at
    /// every step), so `//a[1]`-style and first-`k` queries do O(first
    /// match) instead of O(answer) work.
    pub fn run(&self, query: &Query, options: &DirectRunOptions) -> DirectOutcome {
        self.visited.store(0, Ordering::Relaxed);
        let budget = if options.exists_only { Some(1) } else { options.max_nodes };
        let mut nodes =
            self.eval_steps_budgeted(&[self.tree.root()], &query.path.steps, budget, options.exists_only);
        if let (Some(cap), false) = (options.max_nodes, options.exists_only) {
            nodes.truncate(cap);
        }
        DirectOutcome { nodes, visited: self.visited.load(Ordering::Relaxed) }
    }

    // -----------------------------------------------------------------
    // Step evaluation
    // -----------------------------------------------------------------

    /// Evaluates a chain of steps from a sorted, deduplicated context set;
    /// the result is again sorted and deduplicated (document order).  Used
    /// for filter paths, which always evaluate fully.
    fn eval_steps(&self, context: &[NodeId], steps: &[Step]) -> Vec<NodeId> {
        self.eval_steps_budgeted(context, steps, None, false)
    }

    /// [`DirectEvaluator::eval_steps`] with early termination on the final
    /// step: with a budget of `k`, iteration over the (document-ordered)
    /// context stops as soon as `k` produced nodes provably precede
    /// everything later contexts can select.  Returns the produced nodes
    /// (a guaranteed prefix of the full result up to the budget).
    fn eval_steps_budgeted(
        &self,
        context: &[NodeId],
        steps: &[Step],
        budget: Option<usize>,
        exists_only: bool,
    ) -> Vec<NodeId> {
        let mut context = context.to_vec();
        for (si, step) in steps.iter().enumerate() {
            let is_final = si == steps.len() - 1;
            let step_budget = if is_final { budget } else { None };
            // Enumeration caps must not under-collect: a budget cap is only
            // sound when no predicate can reject candidates.
            let budget_cap = if step.predicates.is_empty() { step_budget } else { None };
            let mut out = Vec::new();
            let positional = step.predicates.iter().any(Predicate::uses_position);
            if !positional
                && matches!(step.axis, Axis::Following | Axis::Preceding)
                && context.len() > 1
            {
                // Union fast path: `following` of a context set is everything
                // after the earliest subtree end, `preceding` everything that
                // closes before the latest context start — one scan instead
                // of one scan per context node.  Only valid without
                // positional predicates (positions are per context node).
                // Enumeration order matches axis order only for `following`;
                // `preceding` scans forward and reverses, so it cannot be
                // capped.
                let union_cap = if step.axis == Axis::Following { budget_cap } else { None };
                out = self.ordered_axis_union(&context, step.axis, &step.test, union_cap);
                out.retain(|&n| {
                    step.predicates.iter().all(|p| self.eval_predicate(n, p, 1, 1))
                });
            } else {
                // Forward "downward/rightward" axes only select nodes at or
                // after the context node, so a sorted context allows early
                // termination once the budget's worth of results precedes
                // every remaining context node.  For these axes enumeration
                // order is document order, so the budget may also cap the
                // per-context enumeration; for reverse axes it may not
                // (their axis-order prefix is not a document-order prefix) —
                // except under `exists_only`, where any one match suffices.
                let monotone = matches!(
                    step.axis,
                    Axis::Child
                        | Axis::Descendant
                        | Axis::DescendantOrSelf
                        | Axis::SelfAxis
                        | Axis::Attribute
                        | Axis::FollowingSibling
                        | Axis::Following
                );
                let enum_cap =
                    if monotone || (is_final && exists_only) { budget_cap } else { None };
                for (ci, &node) in context.iter().enumerate() {
                    let mut candidates = self.axis_nodes(node, step.axis, step, enum_cap);
                    for pred in &step.predicates {
                        let last = candidates.len();
                        let mut kept = Vec::with_capacity(candidates.len());
                        for (i, &cand) in candidates.iter().enumerate() {
                            if self.eval_predicate(cand, pred, i + 1, last) {
                                kept.push(cand);
                            }
                        }
                        candidates = kept;
                    }
                    out.extend(candidates);
                    if is_final && exists_only && !out.is_empty() {
                        break;
                    }
                    if let Some(cap) = step_budget {
                        if cap == 0 {
                            // An empty window needs no candidates at all.
                            out.clear();
                            break;
                        }
                        if monotone && out.len() >= cap {
                            out.sort_unstable();
                            out.dedup();
                            if out.len() >= cap
                                && context.get(ci + 1).is_some_and(|&next| out[cap - 1] < next)
                            {
                                break;
                            }
                        }
                    }
                }
            }
            out.sort_unstable();
            out.dedup();
            context = out;
            if context.is_empty() {
                break;
            }
        }
        context
    }

    /// The nodes a step's axis + node test select from one context node, in
    /// axis order (document order for forward axes, reverse document order
    /// for reverse axes).
    ///
    /// `budget_cap` optionally stops the enumeration after that many
    /// matches; callers only pass it when a prefix (in axis order) is
    /// provably sufficient.  Independently, a leading `[n]`-style positional
    /// predicate caps the enumeration at its own prefix bound: every
    /// candidate past the bound would be rejected by that predicate anyway,
    /// and because the predicates that have a bound (`=`, `<`, `<=`) never
    /// look at `last()`, the surviving set is unchanged.
    fn axis_nodes(
        &self,
        node: NodeId,
        axis: Axis,
        step: &Step,
        budget_cap: Option<usize>,
    ) -> Vec<NodeId> {
        let tree = self.tree;
        let positional_cap = match step.predicates.first() {
            Some(Predicate::Position(p)) => p.prefix_bound(),
            _ => None,
        };
        // Preceding enumerates by forward scan and reverses, so a prefix in
        // axis order cannot be obtained by stopping the scan early.
        let cap = if axis == Axis::Preceding {
            None
        } else {
            match (positional_cap, budget_cap) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        let full = |out: &Vec<NodeId>| cap.is_some_and(|c| out.len() >= c);
        // Resolve the tag name against the registry once — the loops below
        // visit up to the whole document, and a per-node HashMap lookup of
        // a constant name would dominate the scans.
        let test = &ResolvedTest::resolve(tree, &step.test);
        let mut out = Vec::new();
        match axis {
            Axis::Child => {
                for c in tree.children(node) {
                    if self.matches(c, test) {
                        out.push(c);
                        if full(&out) {
                            break;
                        }
                    }
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf && self.matches(node, test) {
                    out.push(node);
                }
                // Descendants are exactly the nodes opening inside this
                // node's parenthesis range; the iterative scan (unlike a
                // per-level recursion) cannot overflow the stack on deeply
                // nested documents.
                self.scan_range(node + 1, tree.close(node), None, test, cap, &mut out);
            }
            Axis::SelfAxis => {
                if self.matches(node, test) {
                    out.push(node);
                }
            }
            Axis::Attribute => {
                'attrs: for c in tree.children(node) {
                    if tree.tag(c) == reserved::ATTRIBUTES {
                        for attr in tree.children(c) {
                            self.visited.fetch_add(1, Ordering::Relaxed);
                            let name_matches = match test {
                                ResolvedTest::Wildcard | ResolvedTest::Node => true,
                                ResolvedTest::Name(id) => *id == Some(tree.tag(attr)),
                                ResolvedTest::Text => false,
                            };
                            if name_matches {
                                out.push(attr);
                                if full(&out) {
                                    break 'attrs;
                                }
                            }
                        }
                    }
                }
            }
            Axis::FollowingSibling => {
                let mut cur = tree.next_sibling(node);
                while let Some(s) = cur {
                    if self.matches(s, test) {
                        out.push(s);
                        if full(&out) {
                            break;
                        }
                    }
                    cur = tree.next_sibling(s);
                }
            }
            Axis::PrecedingSibling => {
                let mut cur = tree.prev_sibling(node);
                while let Some(s) = cur {
                    if self.matches(s, test) {
                        out.push(s);
                        if full(&out) {
                            break;
                        }
                    }
                    cur = tree.prev_sibling(s);
                }
            }
            Axis::Parent => {
                if let Some(p) = self.parent_element(node) {
                    if self.matches(p, test) {
                        out.push(p);
                    }
                }
            }
            Axis::Ancestor => {
                let mut cur = self.parent_element(node);
                while let Some(p) = cur {
                    if self.matches(p, test) {
                        out.push(p);
                        if full(&out) {
                            break;
                        }
                    }
                    cur = self.parent_element(p);
                }
            }
            Axis::AncestorOrSelf => {
                if self.matches(node, test) {
                    out.push(node);
                }
                let mut cur = self.parent_element(node);
                while let Some(p) = cur {
                    if full(&out) {
                        break;
                    }
                    if self.matches(p, test) {
                        out.push(p);
                    }
                    cur = self.parent_element(p);
                }
            }
            Axis::Following => {
                self.scan_range(self.following_start(node), usize::MAX, None, test, cap, &mut out);
            }
            Axis::Preceding => {
                // Nodes whose subtree closes before `node` opens; ancestors
                // close later and are therefore excluded automatically.
                self.scan_range(1, node, Some(node), test, None, &mut out);
                out.reverse();
            }
        }
        out
    }

    /// Union evaluation of `following`/`preceding` over a whole (sorted)
    /// context set: both axes are monotone in the context node, so the union
    /// is a single contiguous condition.
    fn ordered_axis_union(
        &self,
        context: &[NodeId],
        axis: Axis,
        test: &NodeTest,
        cap: Option<usize>,
    ) -> Vec<NodeId> {
        let test = &ResolvedTest::resolve(self.tree, test);
        let mut out = Vec::new();
        match axis {
            Axis::Following => {
                let from =
                    context.iter().map(|&x| self.following_start(x)).min().expect("non-empty");
                self.scan_range(from, usize::MAX, None, test, cap, &mut out);
            }
            Axis::Preceding => {
                let max_open = *context.last().expect("non-empty");
                self.scan_range(1, max_open, Some(max_open), test, None, &mut out);
            }
            _ => unreachable!("union evaluation only covers following/preceding"),
        }
        out
    }

    /// Where the `following` scan of `node` starts.  Normally just past the
    /// node's subtree — but when the context node sits *inside* an `@`
    /// attribute container (an attribute-name or `%` value node), starting
    /// there would expose the container's remaining attribute siblings: the
    /// scan's container-skip only triggers on a container's opening
    /// parenthesis, which lies before the start.  Jump past the enclosing
    /// container instead (its following region equals the attribute's).
    fn following_start(&self, node: NodeId) -> usize {
        let mut start = self.tree.close(node) + 1;
        let mut cur = self.tree.parent(node);
        while let Some(p) = cur {
            if self.tree.tag(p) == reserved::ATTRIBUTES {
                start = start.max(self.tree.close(p) + 1);
            }
            cur = self.tree.parent(p);
        }
        start
    }

    /// Collects, in document order, every node whose opening parenthesis
    /// lies in `[from, to)` and whose subtree closes before `close_before`
    /// (if given), skipping attribute-encoding subtrees.  An optional `cap`
    /// stops the scan once that many nodes were collected into `out`
    /// (total).
    fn scan_range(
        &self,
        from: usize,
        to: usize,
        close_before: Option<usize>,
        test: &ResolvedTest,
        cap: Option<usize>,
        out: &mut Vec<NodeId>,
    ) {
        let tree = self.tree;
        let end = to.min(2 * tree.num_nodes());
        let mut pos = from;
        while pos < end {
            if cap.is_some_and(|c| out.len() >= c) {
                return;
            }
            if !tree.is_node(pos) {
                pos += 1;
                continue;
            }
            if tree.tag(pos) == reserved::ATTRIBUTES {
                pos = tree.close(pos) + 1;
                continue;
            }
            if close_before.map_or(true, |bound| tree.close(pos) < bound) && self.matches(pos, test) {
                out.push(pos);
            }
            pos += 1;
        }
    }

    /// The parent for XPath purposes: steps over the `@` container so the
    /// parent of an attribute node is its owning element.
    fn parent_element(&self, x: NodeId) -> Option<NodeId> {
        let p = self.tree.parent(x)?;
        if self.tree.tag(p) == reserved::ATTRIBUTES {
            self.tree.parent(p)
        } else {
            Some(p)
        }
    }

    /// Counts a candidate test, then applies it.
    fn matches(&self, node: NodeId, test: &ResolvedTest) -> bool {
        self.visited.fetch_add(1, Ordering::Relaxed);
        test.matches(self.tree, node)
    }

    // -----------------------------------------------------------------
    // Predicates
    // -----------------------------------------------------------------

    /// Evaluates a filter on `node`, which sits at 1-based `position` of a
    /// selection of `last` nodes (axis order).
    fn eval_predicate(&self, node: NodeId, pred: &Predicate, position: usize, last: usize) -> bool {
        match pred {
            Predicate::And(a, b) => {
                self.eval_predicate(node, a, position, last)
                    && self.eval_predicate(node, b, position, last)
            }
            Predicate::Or(a, b) => {
                self.eval_predicate(node, a, position, last)
                    || self.eval_predicate(node, b, position, last)
            }
            Predicate::Not(p) => !self.eval_predicate(node, p, position, last),
            Predicate::Position(p) => p.matches(position, last),
            Predicate::Exists(path) => !self.eval_relative(node, path).is_empty(),
            Predicate::TextCompare { path, op } => {
                self.eval_relative(node, path).iter().any(|&n| self.text_matches(n, op))
            }
            // Unreachable through the core planner: `ft:` predicates are
            // either extracted into the text-first plan before evaluation or
            // rejected at compile time, and text-first never delegates them
            // to the direct evaluator.  Conservatively select nothing.
            Predicate::FullText { .. } => false,
        }
    }

    fn eval_relative(&self, node: NodeId, path: &Path) -> Vec<NodeId> {
        debug_assert!(!path.absolute, "filter paths are relative");
        self.eval_steps(&[node], &path.steps)
    }

    fn text_matches(&self, node: NodeId, op: &TextPredicate) -> bool {
        let texts = self.texts.expect("text predicates require a text collection");
        string_value_matches(texts, &self.tree.string_value_texts(node), op)
    }
}

/// Whether `pred` holds on the string value made of the texts `ids`
/// (increasing): one text is borrowed from `T`, and only mixed content is
/// concatenated (the paper's fallback to the naive text representation).
pub(crate) fn string_value_matches(texts: &TextCollection, ids: &[TextId], pred: &TextPredicate) -> bool {
    match ids {
        [] => pred.matches_value(b""),
        [id] => pred.matches_value(texts.text(*id)),
        _ => {
            let mut cursor = texts.cursor();
            let mut value = Vec::new();
            for &t in ids {
                value.extend_from_slice(cursor.text(t));
            }
            pred.matches_value(&value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    <person id="p3"><name>Eve</name><phone>456</phone></person>
  </people>
</site>"#;

    struct Fixture {
        tree: sxsi_tree::XmlTree,
        texts: TextCollection,
    }

    fn fixture() -> Fixture {
        let doc = parse_document(DOC.as_bytes()).unwrap();
        let texts = TextCollection::from_t(doc.t, sxsi_text::fmindex::DEFAULT_SAMPLE_RATE);
        Fixture { tree: doc.tree, texts }
    }

    fn count(f: &Fixture, query: &str) -> u64 {
        let q = parse_query(query).unwrap();
        DirectEvaluator::new(&f.tree, Some(&f.texts)).run(&q, &DirectRunOptions::default()).nodes.len() as u64
    }

    fn names(f: &Fixture, query: &str) -> Vec<String> {
        let q = parse_query(query).unwrap();
        DirectEvaluator::new(&f.tree, Some(&f.texts))
            .run(&q, &DirectRunOptions::default())
            .nodes
            .into_iter()
            .map(|n| f.tree.tag_name(f.tree.tag(n)).to_string())
            .collect()
    }

    #[test]
    fn forward_axes_match_expected_counts() {
        let f = fixture();
        assert_eq!(count(&f, "//keyword"), 2);
        assert_eq!(count(&f, "/site/regions/*/item"), 2);
        assert_eq!(count(&f, "//person[phone]"), 2);
        assert_eq!(count(&f, r#"//person[ .//name[ . = "Alice" ] ]"#), 1);
        assert_eq!(count(&f, "//item/@id"), 2);
    }

    #[test]
    fn parent_and_ancestor() {
        let f = fixture();
        assert_eq!(count(&f, "//keyword/parent::listitem"), 1);
        assert_eq!(count(&f, "//keyword/.."), 2); // text + listitem parents
        assert_eq!(count(&f, "//keyword/ancestor::item"), 1);
        // keyword "rare": text, listitem, parlist, description, item,
        // africa, regions, site; keyword "old" adds its own listitem.
        assert_eq!(count(&f, "//keyword/ancestor::*"), 9);
        assert_eq!(count(&f, "//name/ancestor-or-self::name"), 5);
        // Parent of an attribute node is its element (the @ container is
        // invisible).
        assert_eq!(count(&f, "//@id/parent::person"), 3);
        assert_eq!(count(&f, "//@id/.."), 5);
        // The super-root is never selectable.
        assert_eq!(count(&f, "/site/.."), 0);
        assert_eq!(count(&f, "/site/ancestor::*"), 0);
    }

    #[test]
    fn sibling_axes() {
        let f = fixture();
        assert_eq!(count(&f, "//address/preceding-sibling::name"), 1);
        assert_eq!(count(&f, "//address/following-sibling::phone"), 1);
        assert_eq!(count(&f, "//person/preceding-sibling::person"), 2);
        // Nearest-first ordering: [1] is the immediately preceding sibling.
        assert_eq!(names(&f, "//phone/preceding-sibling::*[1]"), ["address", "name"]);
    }

    #[test]
    fn following_and_preceding() {
        let f = fixture();
        // africa's following: europe subtree + people subtree contents.
        assert_eq!(count(&f, "//africa/following::item"), 1);
        assert_eq!(count(&f, "//europe/preceding::keyword"), 2);
        // preceding excludes ancestors.
        assert_eq!(count(&f, "//keyword/preceding::regions"), 0);
        // following/preceding never see the attribute encoding.
        assert_eq!(count(&f, "//africa/following::id"), 0);
        // Union fast path agrees with per-context evaluation.
        assert_eq!(count(&f, "//person/preceding::item"), 2);
        assert_eq!(count(&f, "//item/following::person"), 3);
    }

    #[test]
    fn following_from_attribute_context_skips_sibling_attributes() {
        // The scan starts inside the @ container here; it must not expose
        // the remaining attribute-name nodes of the same element.
        let doc = r#"<a><b id="1" name="n" class="c"><x/></b><c/></a>"#;
        let parsed = sxsi_xml::parse_document(doc.as_bytes()).unwrap();
        let texts = TextCollection::from_t(parsed.t, sxsi_text::fmindex::DEFAULT_SAMPLE_RATE);
        let f = Fixture { tree: parsed.tree, texts };
        assert_eq!(names(&f, "//@id/following::*"), ["x", "c"]);
        assert_eq!(names(&f, "//@name/following::*"), ["x", "c"]);
        // Union fast path (context of two attribute nodes) agrees.
        assert_eq!(names(&f, "//b/@*/following::*"), ["x", "c"]);
        // And preceding from an attribute context stays clean too.
        assert_eq!(names(&f, "//c/preceding::*"), ["b", "x"]);
        assert_eq!(count(&f, "//@class/preceding::x"), 0);
    }

    #[test]
    fn positional_predicates() {
        let f = fixture();
        assert_eq!(names(&f, "/site/people/person[1]/name"), ["name"]);
        assert_eq!(count(&f, "/site/people/person[2]"), 1);
        assert_eq!(count(&f, "/site/people/person[last()]"), 1);
        assert_eq!(count(&f, "/site/people/person[position() <= 2]"), 2);
        assert_eq!(count(&f, "/site/people/person[position() > 1]"), 2);
        assert_eq!(count(&f, "/site/people/person[position() != 2]"), 2);
        assert_eq!(count(&f, "/site/people/person[7]"), 0);
        // Positions re-index after each predicate: the 2nd person with a
        // phone is Eve, not Bob.
        let q = parse_query("/site/people/person[phone][2]/name").unwrap();
        let nodes = DirectEvaluator::new(&f.tree, Some(&f.texts)).run(&q, &DirectRunOptions::default()).nodes;
        assert_eq!(nodes.len(), 1);
        let texts: Vec<u8> = f
            .tree
            .string_value_texts(nodes[0])
            .into_iter()
            .flat_map(|t| f.texts.get_text(t))
            .collect();
        assert_eq!(texts, b"Eve");
        // Positional predicates inside filter paths.
        assert_eq!(count(&f, "//person[ *[1][self::phone] ]"), 0); // first child is name
        assert_eq!(count(&f, "//person[ *[2][self::phone] ]"), 1); // Eve: name, phone
    }

    #[test]
    fn positions_on_reverse_axes_count_backwards() {
        let f = fixture();
        // ancestor::*[1] is the nearest ancestor.
        assert_eq!(names(&f, "//keyword/ancestor::*[1]"), ["text", "listitem"]);
        // ancestor::*[last()] is the outermost element (site).
        assert_eq!(names(&f, "//keyword/ancestor::*[last()]"), ["site"]);
        // preceding::keyword[1] is the closest preceding keyword.
        assert_eq!(count(&f, "//people/preceding::keyword[1]"), 1);
    }

    #[test]
    fn deeply_nested_documents_do_not_overflow_the_stack() {
        // The direct strategy serves production queries (CLI, batch
        // executor); a 50k-deep chain must evaluate, not abort.
        let depth = 50_000;
        let mut xml = String::with_capacity(8 * depth);
        for _ in 0..depth {
            xml.push_str("<d>");
        }
        for _ in 0..depth {
            xml.push_str("</d>");
        }
        let doc = parse_document(xml.as_bytes()).unwrap();
        let e = DirectEvaluator::new(&doc.tree, None);
        let q = parse_query("//d[last()]").unwrap();
        assert_eq!(e.run(&q, &DirectRunOptions::default()).nodes.len(), 1);
        let q = parse_query("//d[1]/descendant::d").unwrap();
        assert_eq!(e.run(&q, &DirectRunOptions::default()).nodes.len(), depth - 1);
    }

    /// Limited runs return exact document-order prefixes for every budget,
    /// across forward, reverse and positional query shapes.
    #[test]
    fn limited_runs_produce_exact_prefixes() {
        let f = fixture();
        let e = DirectEvaluator::new(&f.tree, Some(&f.texts));
        let queries = [
            "//person",
            "//*",
            "//person/preceding-sibling::person",
            "//keyword/ancestor::*",
            "//person[phone]",
            "/site/people/person[position() > 1]",
            "//item/following::person",
            "//europe/preceding::keyword",
            "//name/..",
        ];
        for query in queries {
            let q = parse_query(query).unwrap();
            let full = e.run(&q, &DirectRunOptions::default()).nodes;
            for cap in 1..=full.len() + 1 {
                let limited =
                    e.run(&q, &DirectRunOptions { max_nodes: Some(cap), exists_only: false });
                let take = cap.min(full.len());
                assert_eq!(limited.nodes, &full[..take], "{query} cap {cap}");
            }
            let exists = !e.run(&q, &DirectRunOptions { exists_only: true, max_nodes: None }).nodes.is_empty();
            assert_eq!(exists, !full.is_empty(), "{query} exists");
        }
    }

    /// `//a[1]`-style queries stop at the first match: the positional
    /// prefix bound caps candidate enumeration.
    #[test]
    fn positional_prefix_bound_truncates_enumeration() {
        let f = fixture();
        let e = DirectEvaluator::new(&f.tree, Some(&f.texts));
        let first = parse_query("/site/people/person[1]").unwrap();
        let all = parse_query("/site/people/person").unwrap();
        let full = e.run(&all, &DirectRunOptions::default());
        let limited = e.run(&first, &DirectRunOptions::default());
        assert_eq!(limited.nodes.len(), 1);
        assert!(
            limited.visited < full.visited,
            "[1] should test fewer candidates ({} vs {})",
            limited.visited,
            full.visited
        );
        // exists stops even earlier than full evaluation.
        let exists_run = e.run(&all, &DirectRunOptions { exists_only: true, max_nodes: None });
        assert!(!exists_run.nodes.is_empty());
        assert!(exists_run.visited <= full.visited);
    }

    #[test]
    fn self_axis_steps() {
        let f = fixture();
        assert_eq!(count(&f, "/site/self::site"), 1);
        assert_eq!(count(&f, "/site/self::regions"), 0);
        assert_eq!(count(&f, "//person[ self::person ]"), 3);
        assert_eq!(count(&f, "//*[ self::keyword ]"), 2);
    }

    #[test]
    fn descendant_or_self_in_filters_includes_self() {
        let f = fixture();
        assert_eq!(count(&f, "//keyword[ descendant-or-self::keyword ]"), 2);
        assert_eq!(count(&f, "//keyword[ descendant::keyword ]"), 0);
        assert_eq!(count(&f, "//item/descendant-or-self::item"), 2);
    }
}
