//! Property tests for the succinct tree: every navigation primitive of
//! [`XmlTree`] (and the raw [`BalancedParens`] operations underneath) is
//! checked against a pointer-based DOM built from the same parse, over
//! randomized tree shapes with fixed seeds.

use sxsi_tree::{BalancedParens, XmlTree, XmlTreeBuilder};

/// SplitMix64, fixed-seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// The pointer-based DOM oracle: one node per element/text leaf, indexed in
/// preorder, holding explicit parent/children links (what `PointerTree` in
/// the baseline crate models, re-derived independently here).
#[derive(Default)]
struct Dom {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    tag: Vec<String>,
}

impl Dom {
    fn add(&mut self, parent: Option<usize>, tag: &str) -> usize {
        let id = self.parent.len();
        self.parent.push(parent);
        self.children.push(Vec::new());
        self.tag.push(tag.to_string());
        if let Some(p) = parent {
            self.children[p].push(id);
        }
        id
    }

    fn subtree_size(&self, x: usize) -> usize {
        1 + self.children[x].iter().map(|&c| self.subtree_size(c)).sum::<usize>()
    }

    fn depth(&self, x: usize) -> usize {
        match self.parent[x] {
            Some(p) => 1 + self.depth(p),
            None => 0,
        }
    }

    fn is_ancestor(&self, x: usize, mut y: usize) -> bool {
        loop {
            if x == y {
                return true;
            }
            match self.parent[y] {
                Some(p) => y = p,
                None => return false,
            }
        }
    }
}

/// Grows a random tree, emitting the same parse events into the succinct
/// builder and the pointer DOM. Returns the DOM in preorder.
fn random_tree(rng: &mut Rng, max_nodes: usize) -> (XmlTree, Dom) {
    const TAGS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    let mut builder = XmlTreeBuilder::new();
    builder.intern("ghost"); // a registered tag that never occurs
    let mut dom = Dom::default();
    let root = dom.add(None, "&"); // mirror the builder's synthetic root

    let mut budget = max_nodes;
    fn grow(rng: &mut Rng, builder: &mut XmlTreeBuilder, dom: &mut Dom, parent: usize, depth: usize, budget: &mut usize) {
        // The root keeps growing until the budget is spent (so the tree has
        // about `max_nodes` nodes); inner nodes stop at random.
        while *budget > 0 && (depth == 0 || rng.below(100) < 70) {
            *budget -= 1;
            if depth < 12 && rng.below(100) < 75 {
                let tag = TAGS[rng.below(TAGS.len() as u64) as usize];
                builder.open(tag);
                let me = dom.add(Some(parent), tag);
                grow(rng, builder, dom, me, depth + 1, budget);
                builder.close();
            } else {
                let attr = rng.below(2) == 1;
                builder.text_leaf(attr);
                dom.add(Some(parent), if attr { "%" } else { "#" });
            }
        }
    }
    grow(rng, &mut builder, &mut dom, root, 0, &mut budget);
    (builder.finish(), dom)
}

fn check_tree(tree: &XmlTree, dom: &Dom) {
    assert_eq!(tree.num_nodes(), dom.parent.len(), "node count");

    // Map preorder rank -> NodeId. `preorder_nodes` yields document order,
    // which must equal the DOM's insertion (preorder) order. The tree's
    // `preorder` numbers are 1-based (the paper's global identifiers), the
    // DOM's indices 0-based.
    let nodes: Vec<_> = tree.preorder_nodes().collect();
    assert_eq!(nodes.len(), dom.parent.len());
    assert_eq!(nodes[0], tree.root());
    let pre0 = |x| tree.preorder(x) - 1;

    for (pre, &x) in nodes.iter().enumerate() {
        assert_eq!(pre0(x), pre, "preorder rank");
        assert_eq!(tree.node_at_preorder(pre + 1), Some(x), "preorder round-trip");
        assert_eq!(tree.tag_name(tree.tag(x)), dom.tag[pre], "tag at preorder {pre}");

        let parent = tree.parent(x).map(pre0);
        assert_eq!(parent, dom.parent[pre], "parent of {pre}");

        let first_child = tree.first_child(x).map(pre0);
        assert_eq!(first_child, dom.children[pre].first().copied(), "first_child of {pre}");

        let next_sibling = tree.next_sibling(x).map(pre0);
        let expected_sibling = dom.parent[pre].and_then(|p| {
            let sibs = &dom.children[p];
            let k = sibs.iter().position(|&c| c == pre).expect("in parent's child list");
            sibs.get(k + 1).copied()
        });
        assert_eq!(next_sibling, expected_sibling, "next_sibling of {pre}");

        let prev_sibling = tree.prev_sibling(x).map(pre0);
        let expected_prev = dom.parent[pre].and_then(|p| {
            let sibs = &dom.children[p];
            let k = sibs.iter().position(|&c| c == pre).expect("in parent's child list");
            k.checked_sub(1).map(|k| sibs[k])
        });
        assert_eq!(prev_sibling, expected_prev, "prev_sibling of {pre}");

        let children: Vec<usize> = tree.children(x).map(pre0).collect();
        assert_eq!(children, dom.children[pre], "children of {pre}");

        assert_eq!(tree.subtree_size(x), dom.subtree_size(pre), "subtree_size of {pre}");
        assert_eq!(tree.depth(x), dom.depth(pre), "depth of {pre}");
    }

    // is_ancestor over sampled pairs (quadratic on small trees is fine).
    let mut rng = Rng::new(99);
    for _ in 0..200 {
        let a = rng.below(nodes.len() as u64) as usize;
        let b = rng.below(nodes.len() as u64) as usize;
        assert_eq!(
            tree.is_ancestor(nodes[a], nodes[b]),
            dom.is_ancestor(a, b),
            "is_ancestor({a}, {b})"
        );
    }

    // Navigation consistency: walking first_child/next_sibling from the root
    // enumerates the whole tree in document order.
    let mut walked = Vec::new();
    let mut stack = vec![tree.root()];
    while let Some(x) = stack.pop() {
        walked.push(x);
        let mut kids: Vec<_> = tree.children(x).collect();
        kids.reverse();
        stack.extend(kids);
    }
    assert_eq!(walked, nodes, "first_child/next_sibling walk");
}

/// The tagged jumps and per-tag range queries, for every tag of the
/// registry (tags that never occur included) and one id past it, against
/// linear scans of the pointer DOM.
fn check_tagged(tree: &XmlTree, dom: &Dom) {
    let nodes: Vec<_> = tree.preorder_nodes().collect();
    let positions = 2 * nodes.len();
    let mut rng = Rng::new(0x7A6);
    for tag in 0..tree.num_tags() as u32 + 1 {
        let name = (tag as usize) < tree.num_tags();
        let has_tag = |pre: usize| name && dom.tag[pre] == tree.tag_name(tag);
        // The tag's nodes, as parenthesis positions, in document order.
        let occurrences: Vec<usize> = (0..nodes.len()).filter(|&pre| has_tag(pre)).map(|pre| nodes[pre]).collect();
        if name {
            assert_eq!(tree.tag_count(tag), occurrences.len(), "tag_count({tag})");
        }

        for (pre, &x) in nodes.iter().enumerate() {
            let end = pre + dom.subtree_size(pre); // preorder just past x's subtree
            let desc = (pre + 1..end).find(|&d| has_tag(d)).map(|d| nodes[d]);
            assert_eq!(tree.tagged_desc(x, tag), desc, "tagged_desc({pre}, {tag})");
            let foll = (end..nodes.len()).find(|&d| has_tag(d)).map(|d| nodes[d]);
            assert_eq!(tree.tagged_foll(x, tag), foll, "tagged_foll({pre}, {tag})");
            let prec = (0..pre).rev().find(|&d| has_tag(d) && !dom.is_ancestor(d, pre)).map(|d| nodes[d]);
            assert_eq!(tree.tagged_prec(x, tag), prec, "tagged_prec({pre}, {tag})");
            let inside = (pre..end).filter(|&d| has_tag(d)).count();
            assert_eq!(tree.subtree_tags(x, tag), inside, "subtree_tags({pre}, {tag})");
        }

        // Every position, opening or closing, occurrence or not, and past
        // the end.
        for from in 0..positions + 2 {
            let next = occurrences.iter().copied().find(|&p| p >= from);
            assert_eq!(tree.tagged_next(tag, from), next, "tagged_next({tag}, {from})");
            let prev = occurrences.iter().copied().rev().find(|&p| p < from);
            assert_eq!(tree.tagged_prev(tag, from), prev, "tagged_prev({tag}, {from})");
        }

        // Ranges: random ones, the whole sequence, empty and inverted ones,
        // and ones that start or end exactly on an occurrence.
        let mut ranges = vec![(0, positions), (0, 0), (positions, positions), (5, 2)];
        for _ in 0..60 {
            ranges.push((rng.below(positions as u64 + 1) as usize, rng.below(positions as u64 + 2) as usize));
        }
        for &p in &occurrences {
            ranges.extend([(p, positions), (p + 1, positions), (0, p), (0, p + 1), (p, p + 1), (p, p)]);
        }
        for (lo, hi) in ranges {
            let within: Vec<usize> = occurrences.iter().copied().filter(|&p| lo <= p && p < hi).collect();
            assert_eq!(tree.tag_count_in_range(tag, lo, hi), within.len(), "tag_count_in_range({tag}, {lo}, {hi})");
            assert_eq!(tree.tag_nodes_in_range(tag, lo, hi), within, "tag_nodes_in_range({tag}, {lo}, {hi})");
        }
    }
}

#[test]
fn tagged_operations_match_pointer_dom() {
    let mut rng = Rng::new(0x7A6_5EED);
    for &max_nodes in &[0usize, 1, 2, 5, 20, 100, 400] {
        let (tree, dom) = random_tree(&mut rng, max_nodes);
        assert!(tree.tag_id("ghost").is_some_and(|ghost| tree.tag_count(ghost) == 0));
        check_tagged(&tree, &dom);
    }
}

#[test]
fn navigation_matches_pointer_dom() {
    let mut rng = Rng::new(0x7EE_5EED);
    for &max_nodes in &[0usize, 1, 2, 5, 20, 100, 500, 2000] {
        let (tree, dom) = random_tree(&mut rng, max_nodes);
        check_tree(&tree, &dom);
    }
}

#[test]
fn deep_chain_and_wide_fanout() {
    // Degenerate shapes: a deep path (worst case for parent/depth) and a
    // star (worst case for next_sibling scans).
    let mut builder = XmlTreeBuilder::new();
    let mut dom = Dom::default();
    let root = dom.add(None, "&");
    let mut parent = root;
    for _ in 0..500 {
        builder.open("p");
        parent = dom.add(Some(parent), "p");
    }
    for _ in 0..500 {
        builder.close();
    }
    let _ = parent;
    let (tree, dom_deep) = (builder.finish(), dom);
    check_tree(&tree, &dom_deep);

    let mut builder = XmlTreeBuilder::new();
    let mut dom = Dom::default();
    let root = dom.add(None, "&");
    builder.open("hub");
    let hub = dom.add(Some(root), "hub");
    for _ in 0..1000 {
        builder.open("leaf");
        dom.add(Some(hub), "leaf");
        builder.close();
    }
    builder.close();
    check_tree(&builder.finish(), &dom);
}

/// Raw balanced-parentheses operations versus a naive stack scan.
#[test]
fn bp_primitives_match_naive() {
    let mut rng = Rng::new(0xB9_5EED);
    for &pairs in &[1usize, 2, 10, 200, 3000] {
        // Random balanced sequence via a random walk that never goes negative
        // and ends at zero.
        let mut bits = sxsi_succinct::BitVec::new();
        let mut opens_left = pairs;
        let mut excess = 0usize;
        while opens_left > 0 || excess > 0 {
            let must_open = excess == 0;
            let must_close = opens_left == 0;
            let open = must_open || (!must_close && rng.below(2) == 1);
            bits.push(open);
            if open {
                opens_left -= 1;
                excess += 1;
            } else {
                excess -= 1;
            }
        }
        let n = bits.len();
        let bools: Vec<bool> = (0..n).map(|i| bits.get(i)).collect();
        let bp = BalancedParens::new(&bits);
        assert_eq!(bp.len(), n);

        // Naive matching via a stack.
        let mut match_of = vec![usize::MAX; n];
        let mut stack = Vec::new();
        for (i, &b) in bools.iter().enumerate() {
            if b {
                stack.push(i);
            } else {
                let j = stack.pop().expect("balanced");
                match_of[i] = j;
                match_of[j] = i;
            }
        }

        let mut excess_prefix = vec![0i64; n + 1];
        for (i, &b) in bools.iter().enumerate() {
            excess_prefix[i + 1] = excess_prefix[i] + if b { 1 } else { -1 };
        }

        for i in 0..n {
            assert_eq!(bp.is_open(i), bools[i], "is_open({i})");
            // `excess(i)` is the prefix excess over `[0, i)`.
            assert_eq!(bp.excess(i), excess_prefix[i], "excess({i})");
            if bools[i] {
                assert_eq!(bp.find_close(i), match_of[i], "find_close({i})");
            } else {
                assert_eq!(bp.find_open(i), match_of[i], "find_open({i})");
            }
            // enclose: nearest enclosing open paren.
            let expected_enclose = if bools[i] {
                // Walk outward from the open position.
                (0..i).rev().find(|&j| bools[j] && match_of[j] > match_of[i].max(i))
            } else {
                None
            };
            if bools[i] {
                assert_eq!(bp.enclose(i), expected_enclose, "enclose({i})");
            }
        }
    }
}
