//! A conventional recursive XPath evaluator over the tree, used both as the
//! stand-in for the "classical in-memory engine" comparison of Figures 10,
//! 11 and 15, and as the correctness oracle for the SXSI engine.
//!
//! The evaluator materializes the full node list after every location step
//! (the textbook evaluation strategy), re-traverses subtrees for every
//! filter, and evaluates text predicates by extracting and scanning string
//! values — no succinct index operations, no automata, no jumping.
//!
//! Like the indexed engine it oracles, the evaluator implements XPath's
//! *ordered* step semantics: each step's selection is materialized per
//! context node in axis order (document order for forward axes, reverse
//! document order for reverse axes), predicates apply left to right with
//! re-indexing, and positional predicates (`[n]`, `[position() op n]`,
//! `[last()]`) index that exact sequence.  The reverse and ordered axes are
//! evaluated from first principles — `parent`/`ancestor` by parent loops,
//! `following`/`preceding` by full preorder enumeration with subtree-range
//! comparisons — deliberately *not* the BP-range scans the indexed direct
//! evaluator uses, so the two stay independent implementations.

use sxsi_text::{TextCollection, TextPredicate};
use sxsi_tree::{reserved, NodeId, XmlTree};
use sxsi_xpath::{Axis, FtMode, NodeTest, Path, Predicate, Query, Step};

/// Tokenization reimplemented from the specification in `docs/search.md`
/// (maximal runs of ASCII alphanumerics and bytes `>= 0x80`), deliberately
/// not shared with `sxsi-search` so the oracle and the engine can disagree.
fn naive_tokens(bytes: &[u8]) -> Vec<Vec<u8>> {
    bytes
        .split(|&b| !(b.is_ascii_alphanumeric() || b >= 0x80))
        .filter(|run| !run.is_empty())
        .map(|run| run.to_vec())
        .collect()
}

/// Naive recursive evaluator.
pub struct NaiveEvaluator<'a> {
    tree: &'a XmlTree,
    texts: &'a TextCollection,
}

impl<'a> NaiveEvaluator<'a> {
    /// Creates the evaluator over a document.
    pub fn new(tree: &'a XmlTree, texts: &'a TextCollection) -> Self {
        Self { tree, texts }
    }

    /// Evaluates an absolute query, returning result nodes in document order.
    pub fn evaluate(&self, query: &Query) -> Vec<NodeId> {
        self.eval_steps(&[self.tree.root()], &query.path.steps)
    }

    /// Number of nodes selected by the query.
    pub fn count(&self, query: &Query) -> usize {
        self.evaluate(query).len()
    }

    /// Whether the query selects at least one node.
    pub fn exists(&self, query: &Query) -> bool {
        !self.evaluate(query).is_empty()
    }

    /// The `[offset .. offset + limit]` document-order window of the
    /// query's result — the oracle for the indexed engine's truncation
    /// contract.  Deliberately the textbook implementation: evaluate fully,
    /// then slice; the indexed evaluators must produce the same window
    /// *without* the full evaluation.
    // lint:allow(dead-pub: test oracle for the indexed engines' result windows)
    pub fn evaluate_window(&self, query: &Query, limit: Option<u64>, offset: u64) -> Vec<NodeId> {
        let full = self.evaluate(query);
        let lo = (offset as usize).min(full.len());
        let hi = match limit {
            Some(limit) => (lo + limit as usize).min(full.len()),
            None => full.len(),
        };
        full[lo..hi].to_vec()
    }

    /// Evaluates a step chain with ordered per-context semantics.
    fn eval_steps(&self, context: &[NodeId], steps: &[Step]) -> Vec<NodeId> {
        let mut context = context.to_vec();
        for step in steps {
            let mut out = Vec::new();
            for &node in &context {
                let mut candidates = self.apply_step(node, step.axis, &step.test);
                for pred in &step.predicates {
                    let last = candidates.len();
                    let mut kept = Vec::new();
                    for (i, &cand) in candidates.iter().enumerate() {
                        if self.eval_predicate(cand, pred, i + 1, last) {
                            kept.push(cand);
                        }
                    }
                    candidates = kept;
                }
                out.extend(candidates);
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

    /// The nodes one context node's step selects, in axis order.
    fn apply_step(&self, node: NodeId, axis: Axis, test: &NodeTest) -> Vec<NodeId> {
        let mut out = Vec::new();
        match axis {
            Axis::Child => {
                for c in self.tree.children(node) {
                    if self.matches(c, test) {
                        out.push(c);
                    }
                }
            }
            Axis::Descendant | Axis::DescendantOrSelf => {
                if axis == Axis::DescendantOrSelf && self.matches(node, test) {
                    out.push(node);
                }
                self.collect_descendants(node, test, &mut out);
            }
            Axis::SelfAxis => {
                if self.matches(node, test) {
                    out.push(node);
                }
            }
            Axis::Attribute => {
                for c in self.tree.children(node) {
                    if self.tree.tag(c) == reserved::ATTRIBUTES {
                        for attr in self.tree.children(c) {
                            let name_matches = match test {
                                NodeTest::Wildcard | NodeTest::Node => true,
                                NodeTest::Name(n) => self.tree.tag_id(n) == Some(self.tree.tag(attr)),
                                NodeTest::Text => false,
                            };
                            if name_matches {
                                out.push(attr);
                            }
                        }
                    }
                }
            }
            Axis::FollowingSibling => {
                let mut cur = self.tree.next_sibling(node);
                while let Some(s) = cur {
                    if self.matches(s, test) {
                        out.push(s);
                    }
                    cur = self.tree.next_sibling(s);
                }
            }
            Axis::PrecedingSibling => {
                let mut cur = self.tree.prev_sibling(node);
                while let Some(s) = cur {
                    if self.matches(s, test) {
                        out.push(s);
                    }
                    cur = self.tree.prev_sibling(s);
                }
            }
            Axis::Parent => {
                if let Some(p) = self.parent_skipping_attributes(node) {
                    if self.matches(p, test) {
                        out.push(p);
                    }
                }
            }
            Axis::Ancestor | Axis::AncestorOrSelf => {
                if axis == Axis::AncestorOrSelf && self.matches(node, test) {
                    out.push(node);
                }
                let mut cur = self.parent_skipping_attributes(node);
                while let Some(p) = cur {
                    if self.matches(p, test) {
                        out.push(p);
                    }
                    cur = self.parent_skipping_attributes(p);
                }
            }
            Axis::Following => {
                // Everything whose whole subtree starts after this node's
                // subtree ends, by first-principles preorder enumeration.
                let node_end = self.tree.close(node);
                for y in self.tree.preorder_nodes() {
                    if y > node_end && self.matches(y, test) && !self.inside_attributes(y) {
                        out.push(y);
                    }
                }
            }
            Axis::Preceding => {
                // Everything that ends before this node starts (which
                // excludes ancestors by construction), reverse document
                // order.
                for y in self.tree.preorder_nodes() {
                    if y >= node {
                        break;
                    }
                    if self.tree.close(y) < node
                        && self.matches(y, test)
                        && !self.inside_attributes(y)
                    {
                        out.push(y);
                    }
                }
                out.reverse();
            }
        }
        out
    }

    /// Whether any ancestor of `y` is an `@` attribute container.
    fn inside_attributes(&self, y: NodeId) -> bool {
        let mut cur = self.tree.parent(y);
        while let Some(p) = cur {
            if self.tree.tag(p) == reserved::ATTRIBUTES {
                return true;
            }
            cur = self.tree.parent(p);
        }
        false
    }

    /// The XPath parent: the `@` container is part of the encoding, not of
    /// the logical tree, so the parent of an attribute node is its element.
    fn parent_skipping_attributes(&self, node: NodeId) -> Option<NodeId> {
        let p = self.tree.parent(node)?;
        if self.tree.tag(p) == reserved::ATTRIBUTES {
            self.tree.parent(p)
        } else {
            Some(p)
        }
    }

    fn collect_descendants(&self, node: NodeId, test: &NodeTest, out: &mut Vec<NodeId>) {
        for c in self.tree.children(node) {
            // The descendant axis never enters the attribute encoding.
            if self.tree.tag(c) == reserved::ATTRIBUTES {
                continue;
            }
            if self.matches(c, test) {
                out.push(c);
            }
            self.collect_descendants(c, test, out);
        }
    }

    fn matches(&self, node: NodeId, test: &NodeTest) -> bool {
        let tag = self.tree.tag(node);
        match test {
            NodeTest::Wildcard => {
                tag != reserved::ROOT
                    && tag != reserved::TEXT
                    && tag != reserved::ATTRIBUTES
                    && tag != reserved::ATTRIBUTE_VALUE
            }
            NodeTest::Name(name) => self.tree.tag_id(name) == Some(tag),
            NodeTest::Text => tag == reserved::TEXT,
            NodeTest::Node => {
                tag != reserved::ROOT && tag != reserved::ATTRIBUTES && tag != reserved::ATTRIBUTE_VALUE
            }
        }
    }

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
            Predicate::Exists(path) => !self.eval_relative_path(node, path).is_empty(),
            Predicate::TextCompare { path, op } => {
                self.eval_relative_path(node, path).iter().any(|&n| self.text_matches(n, op))
            }
            Predicate::FullText { mode, literals } => self.fulltext_matches(node, *mode, literals),
        }
    }

    /// From-first-principles `ft:` evaluation: extract every text of the
    /// subtree (attribute values included), tokenize it, and compare token
    /// lists — no FM-index, no position lifting, so it stays an independent
    /// oracle for the text-first engine path.
    fn fulltext_matches(&self, node: NodeId, mode: FtMode, literals: &[String]) -> bool {
        let query_tokens: Vec<Vec<u8>> =
            literals.iter().flat_map(|l| naive_tokens(l.as_bytes())).collect();
        if query_tokens.is_empty() {
            // A query with no tokens matches nothing (see docs/search.md).
            return false;
        }
        let text_tokens: Vec<Vec<Vec<u8>>> = self
            .tree
            .text_ids(node)
            .map(|d| naive_tokens(&self.texts.get_text(d)))
            .collect();
        let occurs =
            |tok: &Vec<u8>| text_tokens.iter().any(|toks| toks.iter().any(|t| t == tok));
        match mode {
            FtMode::All => query_tokens.iter().all(occurs),
            FtMode::Any => query_tokens.iter().any(occurs),
            FtMode::Phrase => text_tokens.iter().any(|toks| {
                toks.len() >= query_tokens.len()
                    && toks.windows(query_tokens.len()).any(|w| w == query_tokens.as_slice())
            }),
        }
    }

    fn eval_relative_path(&self, node: NodeId, path: &Path) -> Vec<NodeId> {
        self.eval_steps(&[node], &path.steps)
    }

    /// The XPath string value of a node, built by extraction.
    fn string_value(&self, node: NodeId) -> Vec<u8> {
        let mut out = Vec::new();
        for d in self.tree.string_value_texts(node) {
            out.extend_from_slice(&self.texts.get_text(d));
        }
        out
    }

    fn text_matches(&self, node: NodeId, op: &TextPredicate) -> bool {
        op.matches_value(&self.string_value(node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi_xml::parse_document;
    use sxsi_xpath::parse_query;

    fn fixture() -> (XmlTree, TextCollection) {
        let xml = r#"<site><people>
            <person id="p1"><name>Alice</name><address>Oak</address><phone>1</phone></person>
            <person id="p2"><name>Bob</name><homepage>h</homepage></person>
        </people>
        <regions><item><parlist><listitem><keyword>rare</keyword></listitem></parlist></item></regions></site>"#;
        let doc = parse_document(xml.as_bytes()).unwrap();
        let texts = TextCollection::from_t(doc.t, sxsi_text::fmindex::DEFAULT_SAMPLE_RATE);
        (doc.tree, texts)
    }

    #[test]
    fn basic_queries() {
        let (tree, texts) = fixture();
        let e = NaiveEvaluator::new(&tree, &texts);
        let count = |q: &str| e.count(&parse_query(q).unwrap());
        assert_eq!(count("//person"), 2);
        assert_eq!(count("/site/people/person"), 2);
        assert_eq!(count("//person[address]"), 1);
        assert_eq!(count("//person[ phone or homepage ]/name"), 2);
        assert_eq!(count("//person[not(address)]"), 1);
        assert_eq!(count("//listitem//keyword"), 1);
        assert_eq!(count("//*"), 14);
        assert_eq!(count("//person/@id"), 2);
        assert_eq!(count(r#"//person[ .//name[ . = "Alice" ] ]"#), 1);
        assert_eq!(count(r#"//keyword[ contains(., "ar") ]"#), 1);
        assert_eq!(count(r#"//keyword[ contains(., "zz") ]"#), 0);
    }

    #[test]
    fn reverse_axes_and_positions() {
        let (tree, texts) = fixture();
        let e = NaiveEvaluator::new(&tree, &texts);
        let count = |q: &str| e.count(&parse_query(q).unwrap());
        assert_eq!(count("//keyword/ancestor::item"), 1);
        assert_eq!(count("//keyword/parent::listitem"), 1);
        assert_eq!(count("//name/.."), 2);
        assert_eq!(count("//address/preceding-sibling::name"), 1);
        assert_eq!(count("//person/preceding-sibling::person"), 1);
        assert_eq!(count("//person[1]"), 1);
        assert_eq!(count("//person[last()]"), 1);
        assert_eq!(count("//person[position() <= 2]"), 2);
        assert_eq!(count("//item/following::person"), 0); // item comes after people
        assert_eq!(count("//item/preceding::person"), 2);
        assert_eq!(count("//keyword/ancestor-or-self::keyword"), 1);
        assert_eq!(count("//@id/.."), 2); // attribute parents skip the @ container
        assert_eq!(count("/site/.."), 0); // the super-root is unselectable
    }

    #[test]
    fn descendants_skip_attribute_encoding() {
        let (tree, texts) = fixture();
        let e = NaiveEvaluator::new(&tree, &texts);
        // `//*` must not report attribute-name nodes of the model.
        let nodes = e.evaluate(&parse_query("//*").unwrap());
        for n in nodes {
            let name = tree.tag_name(tree.tag(n));
            assert_ne!(name, "id");
            assert_ne!(name, "@");
        }
    }
}
