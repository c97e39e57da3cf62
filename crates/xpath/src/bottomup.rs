//! The bottom-up evaluation strategy (Section 5.4.2 of the paper).
//!
//! For queries of the shape `/axis::step/.../axis::step[pred]` whose filter
//! ends in a highly selective text predicate, it is much cheaper to ask the
//! text index for the matching texts first and verify the *upward* path of
//! each hit than to run the automaton from the root.  [`BottomUpPlan`]
//! recognises the eligible shape (the paper's `↑` queries of Figure 14),
//! extracts the seed predicate, and verifies each seed by walking `Parent`
//! links — the shift-reduce style `MatchAbove` of Figure 6 specialised to
//! single-predicate paths.
//!
//! Eligibility additionally requires that the predicate's target is either a
//! `text()` node or an element with text-only content, so that a text-index
//! hit corresponds exactly to the target's string value (the "single text
//! node / PCDATA" condition of Section 6.6).

use crate::ast::{Axis, NodeTest, Predicate, Query, Step};
use crate::direct::ResolvedTest;
use sxsi_text::{TextCollection, TextId, TextPredicate};
use sxsi_tree::{reserved, NodeId, XmlTree};

/// The outcome of a (possibly truncated) bottom-up run.
#[derive(Debug, Clone)]
pub struct BottomUpOutcome {
    /// Result nodes, deduplicated, in document order.  Under truncation
    /// this is a prefix of the full result.
    pub nodes: Vec<NodeId>,
    /// Whether the seed verification stopped before processing every seed
    /// (more results may exist).
    pub truncated: bool,
    /// Number of tree nodes touched by the upward verifications and the
    /// trailing-step expansions.
    pub visited: u64,
}

/// One upward-verified step: the connecting axis and the node test,
/// resolved against the plan's document once.
#[derive(Debug, Clone)]
struct PlanStep {
    axis: Axis,
    test: ResolvedTest,
}

impl PlanStep {
    fn new(step: &Step, tree: &XmlTree) -> Self {
        Self { axis: step.axis, test: ResolvedTest::resolve(tree, &step.test) }
    }
}

/// A query decomposed for bottom-up evaluation.
#[derive(Debug, Clone)]
pub struct BottomUpPlan {
    /// Main-path steps up to and including the pivot (the step carrying the
    /// predicate), outermost first.
    main_steps: Vec<PlanStep>,
    /// Steps of the filter path (relative to the pivot), outermost first.
    filter_steps: Vec<PlanStep>,
    /// Steps after the pivot (evaluated downward from each verified pivot).
    trailing_steps: Vec<PlanStep>,
    /// The seed text predicate.
    predicate: TextPredicate,
}

impl BottomUpPlan {
    /// Attempts to build a bottom-up plan for `query` against `tree`.
    /// Returns `None` when the query does not have the eligible shape.
    pub fn try_from_query(query: &Query, tree: &XmlTree) -> Option<BottomUpPlan> {
        let steps = &query.path.steps;
        if steps.is_empty() {
            return None;
        }
        // Exactly one step may carry predicates, and exactly one predicate.
        let mut pivot_idx = None;
        for (i, s) in steps.iter().enumerate() {
            if !matches!(s.axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf) {
                return None;
            }
            if !s.predicates.is_empty() {
                if pivot_idx.is_some() || s.predicates.len() != 1 {
                    return None;
                }
                pivot_idx = Some(i);
            }
        }
        let pivot_idx = pivot_idx?;
        let pivot = &steps[pivot_idx];
        // The upward verification produces exactly one pivot candidate per
        // seed (the nearest matching ancestor), which is only complete when
        // pivot matches cannot nest: require a concrete, non-recursive tag.
        match &pivot.test {
            NodeTest::Name(name) => {
                if let Some(tag) = tree.tag_id(name) {
                    if tree.tag_relation_possible(tag, tag, sxsi_tree::TagRelation::Descendant) {
                        return None;
                    }
                }
            }
            _ => return None,
        }
        let (filter_steps, predicate) = Self::decompose_filter(&pivot.predicates[0], tree)?;
        // Verify the text-predicate target is a single-text value.
        let target_test =
            filter_steps.last().map_or(ResolvedTest::resolve(tree, &pivot.test), |s| s.test);
        if !Self::target_is_single_text(target_test, tree) {
            return None;
        }
        // Greedy upward matching is exact only when, reading the chain from
        // the target upwards, every `child` connection precedes every
        // `descendant` connection.
        let chain_axes: Vec<Axis> = steps[..=pivot_idx]
            .iter()
            .map(|s| s.axis)
            .chain(filter_steps.iter().map(|s| s.axis))
            .collect();
        let mut seen_descendant = false;
        for axis in chain_axes.iter().rev() {
            match axis {
                Axis::Child => {
                    if seen_descendant {
                        return None;
                    }
                }
                _ => seen_descendant = true,
            }
        }
        let main_steps = steps[..=pivot_idx].iter().map(|s| PlanStep::new(s, tree)).collect();
        let trailing: Vec<PlanStep> = steps[pivot_idx + 1..].iter().map(|s| PlanStep::new(s, tree)).collect();
        if trailing.iter().any(|s| !matches!(s.axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf)) {
            return None;
        }
        Some(BottomUpPlan { main_steps, filter_steps, trailing_steps: trailing, predicate })
    }

    /// Splits the pivot's predicate into (filter path steps, text predicate).
    fn decompose_filter(pred: &Predicate, tree: &XmlTree) -> Option<(Vec<PlanStep>, TextPredicate)> {
        match pred {
            Predicate::TextCompare { path, op } => {
                if path.absolute {
                    return None;
                }
                let mut out = Vec::new();
                for s in &path.steps {
                    if !s.predicates.is_empty()
                        || !matches!(s.axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf)
                    {
                        return None;
                    }
                    out.push(PlanStep::new(s, tree));
                }
                Some((out, op.clone()))
            }
            Predicate::Exists(path) => {
                if path.absolute || path.steps.is_empty() {
                    return None;
                }
                let mut out = Vec::new();
                let last = path.steps.len() - 1;
                let mut predicate = None;
                for (i, s) in path.steps.iter().enumerate() {
                    if !matches!(s.axis, Axis::Child | Axis::Descendant | Axis::DescendantOrSelf) {
                        return None;
                    }
                    if i == last {
                        if s.predicates.len() != 1 {
                            return None;
                        }
                        match &s.predicates[0] {
                            Predicate::TextCompare { path, op } if path.is_context_only() => {
                                predicate = Some(op.clone());
                            }
                            _ => return None,
                        }
                    } else if !s.predicates.is_empty() {
                        return None;
                    }
                    out.push(PlanStep::new(s, tree));
                }
                Some((out, predicate?))
            }
            _ => None,
        }
    }

    /// The predicate's target must be a text node or an element whose
    /// children are text only, so its string value is a single text.
    fn target_is_single_text(test: ResolvedTest, tree: &XmlTree) -> bool {
        match test {
            ResolvedTest::Text => true,
            ResolvedTest::Name(Some(tag)) => (0..tree.num_tags() as u32).all(|c| {
                c == reserved::TEXT || !tree.tag_relation_possible(tag, c, sxsi_tree::TagRelation::Child)
            }),
            ResolvedTest::Name(None) => true, // the tag does not occur: zero results either way
            _ => false,
        }
    }

    /// The seed text predicate.
    pub fn predicate(&self) -> &TextPredicate {
        &self.predicate
    }

    /// Text identifiers matching the seed predicate (the "Text" phase of the
    /// paper's Figure 15 timing split).
    pub fn seeds(&self, texts: &TextCollection) -> Vec<TextId> {
        texts.matching_texts(&self.predicate)
    }

    /// Verifies the seeds upward and applies the trailing steps (the "Auto"
    /// phase of Figure 15).  Returns result nodes in document order.
    pub fn run_from_seeds(&self, tree: &XmlTree, seeds: &[TextId]) -> Vec<NodeId> {
        self.run_from_seeds_limited(tree, seeds, None).nodes
    }

    /// Full materialization: seeds + verification in one call.
    pub fn materialize(&self, tree: &XmlTree, texts: &TextCollection) -> Vec<NodeId> {
        self.run_from_seeds(tree, &self.seeds(texts))
    }

    /// Number of result nodes.
    pub fn count(&self, tree: &XmlTree, texts: &TextCollection) -> u64 {
        self.materialize(tree, texts).len() as u64
    }

    /// Whether the query selects at least one node, verifying seeds only
    /// until the first survivor.
    pub fn exists(&self, tree: &XmlTree, texts: &TextCollection) -> bool {
        !self.run_limited(tree, texts, Some(1)).nodes.is_empty()
    }

    /// Runs with an optional result budget: seeds are verified in order and
    /// the run stops once `max_nodes` results are produced.
    pub fn run_limited(
        &self,
        tree: &XmlTree,
        texts: &TextCollection,
        max_nodes: Option<usize>,
    ) -> BottomUpOutcome {
        self.run_from_seeds_limited(tree, &self.seeds(texts), max_nodes)
    }

    /// The truncating core of the bottom-up strategy.
    ///
    /// Seeds arrive in text-identifier order, which normally is document
    /// order; and because the eligibility rules guarantee a non-nesting
    /// pivot tag, the verified pivots (and their disjoint trailing
    /// expansions) are then produced in document order too, so the run can
    /// stop as soon as the budget's worth of results exists.  The
    /// monotonicity is nevertheless *checked* as the pivots stream out:
    /// should it ever break, the run falls back to full evaluation with a
    /// final sort, never to a wrong prefix.
    pub fn run_from_seeds_limited(
        &self,
        tree: &XmlTree,
        seeds: &[TextId],
        max_nodes: Option<usize>,
    ) -> BottomUpOutcome {
        let mut visited = 0u64;
        let mut pivots: Vec<NodeId> = Vec::new();
        let mut out: Vec<NodeId> = Vec::new();
        let mut monotone = true;
        let mut truncated = false;
        for &d in seeds {
            let Some(leaf) = tree.node_of_text(d) else { continue };
            let Some(p) = self.verify_upward(tree, leaf, &mut visited) else { continue };
            if let Some(&last) = pivots.last() {
                if p == last {
                    continue; // adjacent duplicate pivot (several seeds below it)
                }
                if p < last {
                    monotone = false;
                }
            }
            pivots.push(p);
            if monotone {
                if self.trailing_steps.is_empty() {
                    out.push(p);
                } else {
                    let mut expansion = Vec::new();
                    self.apply_trailing(tree, p, 0, &mut expansion, &mut visited);
                    expansion.sort_unstable();
                    expansion.dedup();
                    out.extend(expansion);
                }
                if max_nodes.is_some_and(|cap| out.len() >= cap) {
                    truncated = true;
                    break;
                }
            }
        }
        if !monotone {
            // Order broke: recompute from the full pivot set.
            pivots.sort_unstable();
            pivots.dedup();
            out.clear();
            if self.trailing_steps.is_empty() {
                out = pivots;
            } else {
                for &p in &pivots {
                    self.apply_trailing(tree, p, 0, &mut out, &mut visited);
                }
                out.sort_unstable();
                out.dedup();
            }
        }
        BottomUpOutcome { nodes: out, truncated, visited }
    }

    /// Walks upward from a seed text leaf, matching the filter steps and the
    /// main steps; returns the pivot node on success.
    fn verify_upward(&self, tree: &XmlTree, leaf: NodeId, visited: &mut u64) -> Option<NodeId> {
        // The target node: the text leaf itself for a text() target, its
        // parent element otherwise.
        let target_is_text = matches!(self.target_test(), ResolvedTest::Text);
        *visited += 1;
        let mut current = if target_is_text {
            if tree.tag(leaf) != reserved::TEXT {
                return None;
            }
            leaf
        } else {
            // Element targets hold their value in a `#` child; attribute
            // values (`%` leaves) cannot seed an element target.
            if tree.tag(leaf) != reserved::TEXT {
                return None;
            }
            let parent = tree.parent(leaf)?;
            *visited += 1;
            if !self.target_test().matches(tree, parent) {
                return None;
            }
            parent
        };
        // Chain of steps above the target, bottom-up, paired with the axis
        // connecting them to the node below.
        let chain: Vec<&PlanStep> =
            self.main_steps.iter().chain(self.filter_steps.iter()).collect();
        let mut pivot = if self.filter_steps.is_empty() { Some(current) } else { None };
        // Walk from the last chain element (the target, already matched)
        // upwards.
        for i in (1..chain.len()).rev() {
            let connecting_axis = chain[i].axis;
            let above = &chain[i - 1];
            current = match connecting_axis {
                Axis::Child => {
                    let parent = tree.parent(current)?;
                    *visited += 1;
                    if !above.test.matches(tree, parent) {
                        return None;
                    }
                    parent
                }
                _ => {
                    // Nearest proper ancestor matching the test.
                    let mut anc = tree.parent(current)?;
                    loop {
                        *visited += 1;
                        if above.test.matches(tree, anc) {
                            break;
                        }
                        anc = tree.parent(anc)?;
                    }
                    anc
                }
            };
            if i - 1 == self.main_steps.len() - 1 && pivot.is_none() {
                pivot = Some(current);
            }
        }
        // The outermost step's own axis relates it to the document root.
        let outer_axis = chain[0].axis;
        match outer_axis {
            Axis::Child => {
                if tree.parent(current)? != tree.root() {
                    return None;
                }
            }
            _ => {
                if current == tree.root() {
                    return None;
                }
            }
        }
        pivot
    }

    fn target_test(&self) -> &ResolvedTest {
        &self.filter_steps.last().or(self.main_steps.last()).expect("non-empty").test
    }

    /// Evaluates the trailing steps downward from a verified pivot.
    fn apply_trailing(
        &self,
        tree: &XmlTree,
        node: NodeId,
        idx: usize,
        out: &mut Vec<NodeId>,
        visited: &mut u64,
    ) {
        if idx == self.trailing_steps.len() {
            out.push(node);
            return;
        }
        let step = &self.trailing_steps[idx];
        match step.axis {
            Axis::Child => {
                for c in tree.children(node) {
                    *visited += 1;
                    if step.test.matches(tree, c) {
                        self.apply_trailing(tree, c, idx + 1, out, visited);
                    }
                }
            }
            _ => {
                // Descendants: iterate matching nodes within the subtree.
                match step.test {
                    ResolvedTest::Name(Some(tag)) => {
                        for c in tree.tag_nodes_in_range(tag, node + 1, tree.close(node)) {
                            *visited += 1;
                            self.apply_trailing(tree, c, idx + 1, out, visited);
                        }
                    }
                    ResolvedTest::Name(None) => {}
                    _ => {
                        let mut stack: Vec<NodeId> = tree.children(node).collect();
                        while let Some(c) = stack.pop() {
                            *visited += 1;
                            if step.test.matches(tree, c) {
                                self.apply_trailing(tree, c, idx + 1, out, visited);
                            }
                            stack.extend(tree.children(c));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::eval::{EvalOptions, Evaluator};
    use crate::parser::parse_query;
    use sxsi_xml::parse_document;

    const MEDLINE_LIKE: &str = r#"<root>
<MedlineCitation><Article>
  <AbstractText>the plus pattern appears here</AbstractText>
  <AuthorList><Author><LastName>Barnes</LastName></Author>
  <Author><LastName>Smith</LastName></Author></AuthorList>
</Article></MedlineCitation>
<MedlineCitation><Article>
  <AbstractText>nothing interesting</AbstractText>
  <AuthorList><Author><LastName>Barlow</LastName></Author></AuthorList>
</Article></MedlineCitation>
<MedlineCitation><Article>
  <AbstractText>another plus here</AbstractText>
  <AbstractText>twice even: plus</AbstractText>
  <AuthorList><Author><LastName>Jones</LastName></Author></AuthorList>
</Article></MedlineCitation>
</root>"#;

    struct Fixture {
        tree: sxsi_tree::XmlTree,
        texts: TextCollection,
    }

    fn fixture() -> Fixture {
        let doc = parse_document(MEDLINE_LIKE.as_bytes()).unwrap();
        let texts = TextCollection::new(&doc.text_slices());
        Fixture { tree: doc.tree, texts }
    }

    fn top_down(f: &Fixture, query: &str) -> Vec<NodeId> {
        let q = parse_query(query).unwrap();
        let a = compile(&q, &f.tree).unwrap();
        Evaluator::new(&a, &f.tree, Some(&f.texts), EvalOptions::default()).materialize()
    }

    fn bottom_up(f: &Fixture, query: &str) -> Option<Vec<NodeId>> {
        let q = parse_query(query).unwrap();
        let plan = BottomUpPlan::try_from_query(&q, &f.tree)?;
        Some(plan.materialize(&f.tree, &f.texts))
    }

    #[test]
    fn eligible_queries_match_top_down() {
        let f = fixture();
        let queries = [
            r#"//Article[ .//AbstractText[ contains(., "plus") ] ]"#,
            r#"//MedlineCitation[ .//AbstractText[ contains(., "plus") ] ]"#,
            r#"//Author[ ./LastName[ starts-with(., "Bar") ] ]"#,
            r#"//MedlineCitation/Article/AuthorList/Author[ ./LastName[starts-with( . , "Bar")] ]"#,
            r#"//Article[ .//LastName[ . = "Jones" ] ]"#,
            r#"//AbstractText[ contains(., "plus") ]"#,
            r#"//Article[ .//AbstractText[ contains(., "plus") ] ]/AuthorList/Author"#,
        ];
        for query in queries {
            let expected = top_down(&f, query);
            let got = bottom_up(&f, query).unwrap_or_else(|| panic!("{query} should be eligible"));
            assert_eq!(got, expected, "{query}");
        }
    }

    #[test]
    fn ineligible_queries_are_rejected() {
        let f = fixture();
        let rejected = [
            // Two predicated steps.
            r#"//Article[ .//LastName[. = "Jones"] ]/AuthorList[ Author ]"#,
            // Predicate is not a text comparison.
            "//Article[ AuthorList ]",
            // Boolean combination.
            r#"//Article[ contains(.//AbstractText, "a") and contains(.//AbstractText, "b") ]"#,
            // Mixed-content target (Article has element children).
            r#"//MedlineCitation[ contains(./Article, "plus") ]"#,
        ];
        for query in rejected {
            let q = parse_query(query).unwrap();
            assert!(
                BottomUpPlan::try_from_query(&q, &f.tree).is_none(),
                "{query} should not be eligible"
            );
        }
    }

    #[test]
    fn seeds_and_counts() {
        let f = fixture();
        let q = parse_query(r#"//Article[ .//AbstractText[ contains(., "plus") ] ]"#).unwrap();
        let plan = BottomUpPlan::try_from_query(&q, &f.tree).unwrap();
        let seeds = plan.seeds(&f.texts);
        assert_eq!(seeds.len(), 3); // three abstract texts contain "plus"
        let result = plan.run_from_seeds(&f.tree, &seeds);
        assert_eq!(result.len(), 2); // but only two distinct articles
        assert_eq!(plan.count(&f.tree, &f.texts), 2);
    }

    #[test]
    fn limited_runs_produce_exact_prefixes_and_stop_early() {
        let f = fixture();
        for query in [
            r#"//Article[ .//AbstractText[ contains(., "plus") ] ]"#,
            r#"//Article[ .//AbstractText[ contains(., "plus") ] ]/AuthorList/Author"#,
            r#"//AbstractText[ contains(., "plus") ]"#,
        ] {
            let q = parse_query(query).unwrap();
            let plan = BottomUpPlan::try_from_query(&q, &f.tree).unwrap();
            let full = plan.materialize(&f.tree, &f.texts);
            let full_visited = plan.run_limited(&f.tree, &f.texts, None).visited;
            for cap in 1..=full.len() + 1 {
                let limited = plan.run_limited(&f.tree, &f.texts, Some(cap));
                let take = cap.min(full.len());
                assert_eq!(&limited.nodes[..take], &full[..take], "{query} cap {cap}");
                assert!(limited.visited <= full_visited, "{query} cap {cap} visited more");
            }
            assert!(plan.exists(&f.tree, &f.texts), "{query}");
            let first = plan.run_limited(&f.tree, &f.texts, Some(1));
            assert!(first.truncated || full.len() <= 1);
            assert!(
                first.visited < full_visited || full.len() <= 1,
                "{query}: first-match run should verify fewer nodes"
            );
        }
        // A query with no matches: exists is false, nothing is truncated.
        let q = parse_query(r#"//Article[ .//AbstractText[ contains(., "zzz") ] ]"#).unwrap();
        let plan = BottomUpPlan::try_from_query(&q, &f.tree).unwrap();
        assert!(!plan.exists(&f.tree, &f.texts));
        assert!(!plan.run_limited(&f.tree, &f.texts, Some(3)).truncated);
    }
}
