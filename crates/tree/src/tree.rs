//! The SXSI tree index: balanced parentheses + tags + leaf mapping
//! (Section 4 of the paper).
//!
//! [`XmlTree`] bundles every tree-side structure the query engine needs:
//!
//! * the [`BalancedParens`] sequence `Par` for structural navigation,
//! * the [`TagSequence`] `Tag` for label access and the tagged jumps
//!   (`TaggedDesc`, `TaggedFoll`, `TaggedPrec`, `SubtreeTags`),
//! * the leaf bitmap `B` connecting tree nodes to text identifiers
//!   (`LeafNumber`, `TextIds`, node ↔ text conversions), and
//! * the relative tag-position tables of Section 5.5.6 used to prune
//!   impossible jumps.
//!
//! Nodes are identified by the position of their opening parenthesis, as in
//! the paper.  [`XmlTreeBuilder`] provides the SAX-like construction
//! interface the XML parser drives.

use crate::bp::BalancedParens;
use crate::error::TreeError;
use crate::tags::{opening_width, reserved, TagId, TagRegistry, TagSequence};
use sxsi_io::{corrupt, IoError, ReadFrom, WriteInto};
use sxsi_succinct::{BitVec, InterleavedRsBitVector, IntVector, SpaceUsage};

/// A tree node: the position of its opening parenthesis in `Par`.
pub type NodeId = usize;

/// Which of the four relative tag-position tables to consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagRelation {
    /// `other` can occur as a child of `base`.
    Child,
    /// `other` can occur as a descendant of `base`.
    Descendant,
    /// `other` can occur as a following sibling of `base`.
    FollowingSibling,
    /// `other` can occur after `base`'s subtree in document order.
    Following,
}

/// Square boolean table over tag ids, stored as packed bit rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct TagTable {
    /// Row `base` is `bits[base * words..(base + 1) * words]`.
    bits: Vec<u64>,
    num_tags: usize,
}

impl TagTable {
    fn new(num_tags: usize) -> Self {
        Self { bits: vec![0u64; num_tags * num_tags.div_ceil(64)], num_tags }
    }

    fn row_mut(&mut self, base: TagId) -> &mut [u64] {
        let words = self.num_tags.div_ceil(64);
        &mut self.bits[base as usize * words..][..words]
    }

    #[inline]
    fn set(&mut self, base: TagId, other: TagId) {
        let o = other as usize;
        self.row_mut(base)[o / 64] |= 1u64 << (o % 64);
    }

    #[inline]
    fn get(&self, base: TagId, other: TagId) -> bool {
        let (b, o) = (base as usize, other as usize);
        if b >= self.num_tags || o >= self.num_tags {
            return false;
        }
        (self.bits[b * self.num_tags.div_ceil(64) + o / 64] >> (o % 64)) & 1 == 1
    }

    fn size_bytes(&self) -> usize {
        std::mem::size_of_val(&self.bits[..])
    }

    /// Writes the rows, each as a length-prefixed word array; the table's
    /// size is the registry's length, stored once, by the registry.
    fn write_rows<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        for row in self.bits.chunks(self.num_tags.div_ceil(64).max(1)) {
            sxsi_io::write_u64_slice(w, row)?;
        }
        Ok(())
    }

    /// Reads the `num_tags` rows [`TagTable::write_rows`] wrote, row by row,
    /// so a table is only as large as the bytes actually read.
    fn read_rows<R: std::io::Read + ?Sized>(r: &mut R, num_tags: usize) -> Result<Self, IoError> {
        let words = num_tags.div_ceil(64);
        let mut bits = Vec::new();
        for row_idx in 0..num_tags {
            let row = sxsi_io::read_u64_vec(r)?;
            if row.len() != words {
                return Err(corrupt(format!(
                    "tag table row {row_idx} holds {} words, expected {words}",
                    row.len()
                )));
            }
            bits.extend_from_slice(&row);
        }
        Ok(Self { bits, num_tags })
    }
}

/// The four relative tag-position tables of Section 5.5.6 — child,
/// descendant, following-sibling, following — in one pass over the tag
/// sequence.  The builder stores what this returns and the deep verifier
/// compares the stored tables against it.  The open nodes' tag sets live
/// in one flat stack, so the pass allocates nothing per node.
fn relation_tables(tags: &TagSequence) -> [TagTable; 4] {
    let num_tags = tags.num_tags();
    let words = num_tags.div_ceil(64);
    let [mut child, mut desc, mut foll_sibling, mut following] = std::array::from_fn(|_| TagTable::new(num_tags));
    // Per open node, in `sets`: the tags of its children so far, then the
    // tags of its descendants so far (`2 * words` words per node).
    let mut open: Vec<TagId> = Vec::new();
    let mut sets: Vec<u64> = Vec::new();
    let mut first_close = vec![usize::MAX; num_tags];
    let mut last_open = vec![None; num_tags];
    for i in 0..tags.len() {
        let code = tags.code(i) as usize;
        if code < num_tags {
            let t = code as TagId;
            if let Some(&parent) = open.last() {
                let children = &mut sets[(open.len() - 1) * 2 * words..][..words];
                for (w, &word) in children.iter().enumerate() {
                    let mut word = word;
                    while word != 0 {
                        foll_sibling.set((w * 64) as TagId + word.trailing_zeros(), t);
                        word &= word - 1;
                    }
                }
                children[code / 64] |= 1u64 << (code % 64);
                child.set(parent, t);
            }
            last_open[code] = Some(i);
            open.push(t);
            sets.resize(open.len() * 2 * words, 0);
        } else {
            let Some(t) = open.pop() else { break };
            let at = open.len() * 2 * words;
            let (parent, node) = sets.split_at_mut(at);
            let node_desc = &node[words..2 * words];
            desc.row_mut(t).iter_mut().zip(node_desc).for_each(|(d, s)| *d |= s);
            if let Some(parent_desc) = parent.len().checked_sub(words).map(|from| &mut parent[from..]) {
                parent_desc.iter_mut().zip(node_desc).for_each(|(d, s)| *d |= s);
                parent_desc[t as usize / 64] |= 1u64 << (t % 64);
            }
            sets.truncate(at);
            if first_close[t as usize] == usize::MAX {
                first_close[t as usize] = i;
            }
        }
    }
    // `b` can follow `a` iff the last `b` opens after the first `a` closes.
    for (a, &close_a) in first_close.iter().enumerate() {
        for (b, &open_b) in last_open.iter().enumerate() {
            if open_b.is_some_and(|open_b| open_b > close_a) {
                following.set(a as TagId, b as TagId);
            }
        }
    }
    [child, desc, foll_sibling, following]
}

/// The complete succinct tree index of an XML document.
#[derive(Debug, Clone)]
pub struct XmlTree {
    bp: BalancedParens,
    tags: TagSequence,
    registry: TagRegistry,
    /// Marks opening parenthesis positions of nodes that carry a text
    /// (the `#` and `%` leaves of the model).
    text_leaves: InterleavedRsBitVector,
    child_table: TagTable,
    desc_table: TagTable,
    foll_sibling_table: TagTable,
    following_table: TagTable,
}

impl XmlTree {
    /// Assembles a tree from its stored parts, the tag sequence already
    /// derived, and derives the text-leaf map: the text leaves are the `#`
    /// and `%` nodes, read off their sarrays.  The builder and the loader
    /// both assemble the tree here.
    fn new(bp: BalancedParens, registry: TagRegistry, tags: TagSequence, tables: [TagTable; 4]) -> Self {
        let mut leaves = BitVec::filled(bp.len(), false);
        for tag in [reserved::TEXT, reserved::ATTRIBUTE_VALUE] {
            for pos in tags.occurrences_from(tag, 0) {
                leaves.set(pos, true);
            }
        }
        let [child_table, desc_table, foll_sibling_table, following_table] = tables;
        Self {
            bp,
            tags,
            registry,
            text_leaves: InterleavedRsBitVector::new(&leaves),
            child_table,
            desc_table,
            foll_sibling_table,
            following_table,
        }
    }

    /// The synthetic super-root node (`&`), which always exists.
    #[inline]
    pub fn root(&self) -> NodeId {
        0
    }

    /// Number of tree nodes (the paper's `n`), including the super-root and
    /// the model's `#`/`@`/`%` nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.bp.len() / 2
    }

    /// Number of texts referenced by the tree (`d`).
    #[inline]
    pub fn num_texts(&self) -> usize {
        self.text_leaves.count_ones()
    }

    /// Number of distinct tag names, including the reserved model tags.
    #[inline]
    pub fn num_tags(&self) -> usize {
        self.registry.len()
    }

    /// Id of a tag name, if it occurs in the document.
    pub fn tag_id(&self, name: &str) -> Option<TagId> {
        self.registry.lookup(name)
    }

    /// Name of a tag id.
    pub fn tag_name(&self, tag: TagId) -> &str {
        self.registry.name(tag)
    }

    /// Total number of nodes labeled `tag` in the whole document.
    pub fn tag_count(&self, tag: TagId) -> usize {
        self.tags.count(tag)
    }

    /// Heap size in bytes of the tree index.
    pub fn size_bytes(&self) -> usize {
        self.bp.size_bytes()
            + self.tags.size_bytes()
            + self.text_leaves.size_bytes()
            + self.child_table.size_bytes()
            + self.desc_table.size_bytes()
            + self.foll_sibling_table.size_bytes()
            + self.following_table.size_bytes()
    }

    // ------------------------------------------------------------------
    // Basic navigation (Section 4.2.1)
    // ------------------------------------------------------------------

    /// The closing parenthesis matching node `x`.
    #[inline]
    pub fn close(&self, x: NodeId) -> usize {
        self.bp.find_close(x)
    }

    /// Preorder number of `x` (1-based, the paper's global identifier).
    #[inline]
    pub fn preorder(&self, x: NodeId) -> usize {
        self.bp.rank_open(x + 1)
    }

    /// The node with preorder number `p` (1-based).
    #[inline]
    pub fn node_at_preorder(&self, p: usize) -> Option<NodeId> {
        self.bp.select_open(p)
    }

    /// Number of nodes in the subtree rooted at `x` (including `x`).
    #[inline]
    pub fn subtree_size(&self, x: NodeId) -> usize {
        (self.close(x) - x).div_ceil(2)
    }

    /// Whether `x` is an ancestor of `y` (a node is an ancestor of itself).
    #[inline]
    pub fn is_ancestor(&self, x: NodeId, y: NodeId) -> bool {
        x <= y && y <= self.close(x)
    }

    /// Lowest common ancestor of `x` and `y`.
    ///
    /// Runs in O(depth) by first lifting the deeper node to the depth of the
    /// shallower one and then walking both up in lockstep. The fast path
    /// handles the (frequent) case where one argument already contains the
    /// other. Every pair of nodes shares at least the super-root, so the
    /// walk always terminates with a common ancestor.
    pub fn lca(&self, x: NodeId, y: NodeId) -> NodeId {
        if self.is_ancestor(x, y) {
            return x;
        }
        if self.is_ancestor(y, x) {
            return y;
        }
        let (mut a, mut b) = (x.min(y), x.max(y));
        // Neither contains the other, so both have a proper ancestor and
        // `parent` cannot return `None` before the walks meet at a common
        // ancestor (the super-root in the worst case).
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).unwrap_or_else(|| self.root());
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).unwrap_or_else(|| self.root());
        }
        while a != b {
            a = self.parent(a).unwrap_or_else(|| self.root());
            b = self.parent(b).unwrap_or_else(|| self.root());
        }
        a
    }

    /// Whether `i` is a valid node identifier (an opening parenthesis).
    #[inline]
    pub fn is_node(&self, i: usize) -> bool {
        i < self.bp.len() && self.bp.is_open(i)
    }

    /// First child of `x`, if any.
    #[inline]
    pub fn first_child(&self, x: NodeId) -> Option<NodeId> {
        self.bp.is_open(x + 1).then_some(x + 1)
    }

    /// Next sibling of `x`, if any.
    #[inline]
    pub fn next_sibling(&self, x: NodeId) -> Option<NodeId> {
        self.sibling_after(self.close(x))
    }

    /// The next sibling of the node whose closing parenthesis is `close`,
    /// for callers that already hold that position.
    #[inline]
    pub fn sibling_after(&self, close: usize) -> Option<NodeId> {
        let after = close + 1;
        (after < self.bp.len() && self.bp.is_open(after)).then_some(after)
    }

    /// Previous sibling of `x`, if any.
    ///
    /// In the balanced-parentheses encoding the position just before an
    /// opening parenthesis is either the parent's opening parenthesis (then
    /// `x` is a first child) or the closing parenthesis of the previous
    /// sibling, whose opening parenthesis `find_open` recovers in O(log n).
    #[inline]
    pub fn prev_sibling(&self, x: NodeId) -> Option<NodeId> {
        (x > 0 && !self.bp.is_open(x - 1)).then(|| self.bp.find_open(x - 1))
    }

    /// Parent of `x`, or `None` for the super-root.
    #[inline]
    pub fn parent(&self, x: NodeId) -> Option<NodeId> {
        self.bp.enclose(x)
    }

    /// Depth of `x` (the super-root has depth 0): the excess before the
    /// opening parenthesis.
    #[inline]
    pub fn depth(&self, x: NodeId) -> usize {
        self.bp.excess(x) as usize
    }

    /// Iterator over the children of `x` in document order.
    pub fn children(&self, x: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut cur = self.first_child(x);
        std::iter::from_fn(move || {
            let c = cur?;
            cur = self.next_sibling(c);
            Some(c)
        })
    }

    /// Iterator over all nodes in document (pre-)order.
    pub fn preorder_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..=self.num_nodes()).filter_map(move |k| self.bp.select_open(k))
    }

    // ------------------------------------------------------------------
    // Tag access and tagged jumps (Section 4.2.2)
    // ------------------------------------------------------------------

    /// Tag of node `x`.
    #[inline]
    pub fn tag(&self, x: NodeId) -> TagId {
        self.tags.opening_tag(x).expect("node id must point at an opening parenthesis")
    }

    /// Number of `tag`-labeled nodes within the subtree of `x` (including
    /// `x` itself).
    pub fn subtree_tags(&self, x: NodeId, tag: TagId) -> usize {
        if tag as usize >= self.tags.num_tags() {
            return 0;
        }
        let close = self.close(x);
        self.tags.rank_open(tag, close + 1) - self.tags.rank_open(tag, x)
    }

    /// The first node (in preorder) labeled `tag` strictly inside the subtree
    /// of `x`.
    pub fn tagged_desc(&self, x: NodeId, tag: TagId) -> Option<NodeId> {
        if tag as usize >= self.tags.num_tags() {
            return None;
        }
        let next = self.tags.next_occurrence(tag, x + 1)?;
        (next < self.close(x)).then_some(next)
    }

    /// The first node labeled `tag` with preorder larger than `x` that is not
    /// in the subtree of `x`.
    pub fn tagged_foll(&self, x: NodeId, tag: TagId) -> Option<NodeId> {
        if tag as usize >= self.tags.num_tags() {
            return None;
        }
        self.tags.next_occurrence(tag, self.close(x) + 1)
    }

    /// The first node labeled `tag` at a parenthesis position `>= from`
    /// (used by the jumping evaluator to continue a scan inside a scope).
    pub fn tagged_next(&self, tag: TagId, from: usize) -> Option<NodeId> {
        if tag as usize >= self.tags.num_tags() {
            return None;
        }
        self.tags.next_occurrence(tag, from)
    }

    /// Number of `tag`-labeled nodes whose opening parenthesis lies in the
    /// position range `[lo, hi)` (used by the lazy whole-region results of
    /// the query engine).
    pub fn tag_count_in_range(&self, tag: TagId, lo: usize, hi: usize) -> usize {
        if tag as usize >= self.tags.num_tags() || hi <= lo {
            return 0;
        }
        self.tags.rank_open(tag, hi) - self.tags.rank_open(tag, lo)
    }

    /// The `tag`-labeled nodes whose opening parenthesis lies in `[lo, hi)`,
    /// in document order.
    pub fn tag_nodes_in_range(&self, tag: TagId, lo: usize, hi: usize) -> Vec<NodeId> {
        if tag as usize >= self.tags.num_tags() || hi <= lo {
            return Vec::new();
        }
        self.tags.occurrences_from(tag, lo).take_while(|&p| p < hi).collect()
    }

    /// The last node labeled `tag` at a parenthesis position `< before`,
    /// ancestors of that position included (the mirror image of
    /// [`XmlTree::tagged_next`]).
    pub fn tagged_prev(&self, tag: TagId, before: usize) -> Option<NodeId> {
        if tag as usize >= self.tags.num_tags() {
            return None;
        }
        self.tags.prev_occurrence(tag, before)
    }

    /// The last node labeled `tag` with preorder smaller than `x` that is not
    /// an ancestor of `x`.
    pub fn tagged_prec(&self, x: NodeId, tag: TagId) -> Option<NodeId> {
        if tag as usize >= self.tags.num_tags() {
            return None;
        }
        let mut before = x;
        loop {
            let candidate = self.tags.prev_occurrence(tag, before)?;
            if !self.is_ancestor(candidate, x) {
                return Some(candidate);
            }
            before = candidate;
        }
    }

    // ------------------------------------------------------------------
    // Texts (Section 4.2.3)
    // ------------------------------------------------------------------

    /// Whether node `x` is a text-bearing leaf (`#` or `%` in the model).
    #[inline]
    pub fn is_text_leaf(&self, x: NodeId) -> bool {
        self.text_leaves.get(x)
    }

    /// Number of text leaves with opening parenthesis at position `<= x`.
    #[inline]
    pub fn leaf_number(&self, x: usize) -> usize {
        self.text_leaves.rank1((x + 1).min(self.text_leaves.len()))
    }

    /// The text identifier held by leaf `x`, if it is a text leaf.
    pub fn text_id_of_leaf(&self, x: NodeId) -> Option<usize> {
        self.is_text_leaf(x).then(|| self.leaf_number(x) - 1)
    }

    /// The range of text identifiers contained in the subtree of `x`
    /// (half-open `lo..hi`).
    pub fn text_ids(&self, x: NodeId) -> std::ops::Range<usize> {
        let lo = if x == 0 { 0 } else { self.leaf_number(x - 1) };
        let hi = self.leaf_number(self.close(x));
        lo..hi
    }

    /// The tree node holding text `d` (0-based).
    pub fn node_of_text(&self, d: usize) -> Option<NodeId> {
        self.text_leaves.select1(d + 1)
    }

    /// Text identifiers contributing to the XPath *string value* of `x`:
    /// for nodes inside the attribute encoding (`%` leaves or attribute-name
    /// nodes below `@`), the attribute value; for every other node, the `#`
    /// text leaves of its subtree — attribute values are not part of an
    /// element's string value.
    pub fn string_value_texts(&self, x: NodeId) -> Vec<usize> {
        let tag = self.tag(x);
        let in_attribute = tag == reserved::ATTRIBUTE_VALUE
            || self.parent(x).map(|p| self.tag(p) == reserved::ATTRIBUTES).unwrap_or(false);
        let range = self.text_ids(x);
        if in_attribute {
            return range.collect();
        }
        range
            .filter(|&d| {
                self.node_of_text(d).map(|n| self.tag(n) == reserved::TEXT).unwrap_or(false)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Relative tag-position tables (Section 5.5.6)
    // ------------------------------------------------------------------

    /// Whether a node labeled `other` can occur in the given relation to a
    /// node labeled `base` anywhere in this document.
    pub fn tag_relation_possible(&self, base: TagId, other: TagId, relation: TagRelation) -> bool {
        match relation {
            TagRelation::Child => self.child_table.get(base, other),
            TagRelation::Descendant => self.desc_table.get(base, other),
            TagRelation::FollowingSibling => self.foll_sibling_table.get(base, other),
            TagRelation::Following => self.following_table.get(base, other),
        }
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Number of element nodes: nodes whose tag lies outside the reserved
    /// `&`/`#`/`@`/`%` model set (so the count matches the source document's
    /// element count, attribute-name nodes included).
    pub fn count_elements(&self) -> usize {
        (reserved::NAMES.len()..self.num_tags()).map(|t| self.tags.count(t as TagId)).sum()
    }
}

impl sxsi_verify::Verify for XmlTree {
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        ctx.enter("bp", |ctx| self.bp.verify_into(depth, ctx));
        ctx.enter("tags", |ctx| self.tags.verify_into(depth, ctx));
        ctx.enter("registry", |ctx| self.registry.verify_into(depth, ctx));
        ctx.enter("text-leaves", |ctx| self.text_leaves.verify_into(depth, ctx));
        if ctx.issue_count() > issues_before || !depth.is_deep() {
            return;
        }

        // Deep: the four stored tables against a recompute from the tag
        // sequence.  The closing codes and the text leaves are derived from
        // the parentheses and the opening codes, so they agree by
        // construction.
        let [child, desc, foll_sibling, following] = relation_tables(&self.tags);
        ctx.check("tree-child-table", self.child_table == child, || {
            "child table disagrees with a recompute from the tag sequence".to_string()
        });
        ctx.check("tree-desc-table", self.desc_table == desc, || {
            "descendant table disagrees with a recompute from the tag sequence".to_string()
        });
        ctx.check("tree-foll-sibling-table", self.foll_sibling_table == foll_sibling, || {
            "following-sibling table disagrees with a recompute from the tag sequence".to_string()
        });
        ctx.check("tree-following-table", self.following_table == following, || {
            "following table disagrees with a recompute from the tag sequence".to_string()
        });
    }
}

impl WriteInto for XmlTree {
    /// The parentheses, the registry, one opening code per node and the
    /// four tables' rows; the closing codes, the sarrays and the text-leaf
    /// map are rebuilt on load.
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        self.bp.write_into(w)?;
        self.registry.write_into(w)?;
        self.tags.opening_codes(&self.bp).write_into(w)?;
        for table in [&self.child_table, &self.desc_table, &self.foll_sibling_table, &self.following_table] {
            table.write_rows(w)?;
        }
        Ok(())
    }
}

impl ReadFrom for XmlTree {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let bp = BalancedParens::read_from(r)?;
        // The registry's length is the tag count; the bytes read bound it.
        let registry = TagRegistry::read_from(r)?;
        let num_tags = registry.len();
        let opening = IntVector::read_from(r)?;
        if opening.width() != opening_width(num_tags) {
            return Err(corrupt(format!(
                "opening tag codes packed in {} bits, expected {} for {num_tags} tags",
                opening.width(),
                opening_width(num_tags)
            )));
        }
        let tags = TagSequence::from_opening(&bp, opening.iter().map(|c| c as TagId), num_tags)
            .map_err(|e| corrupt(e.to_string()))?;
        let mut table = || TagTable::read_rows(r, num_tags);
        let tables = [table()?, table()?, table()?, table()?];
        Ok(XmlTree::new(bp, registry, tags, tables))
    }
}

/// SAX-like builder for [`XmlTree`].
///
/// Call [`XmlTreeBuilder::open`]/[`XmlTreeBuilder::close`] for every element
/// event in document order; text and attribute-value leaves are opened with
/// the reserved `#`/`%` tags via [`XmlTreeBuilder::text_leaf`].  The builder
/// automatically wraps everything in the synthetic `&` root.
#[derive(Debug, Clone)]
pub struct XmlTreeBuilder {
    registry: TagRegistry,
    parens: BitVec,
    /// The tag of every node opened so far, in preorder.
    opening: Vec<TagId>,
    /// Number of open nodes, the synthetic root included.
    open: usize,
}

impl Default for XmlTreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl XmlTreeBuilder {
    /// Creates a builder with the synthetic `&` root already opened.
    pub fn new() -> Self {
        let mut b = Self { registry: TagRegistry::new(), parens: BitVec::new(), opening: Vec::new(), open: 0 };
        b.open_tag_id(reserved::ROOT);
        b
    }

    /// Interns a tag name (usable before or during building).
    pub fn intern(&mut self, name: &str) -> TagId {
        self.registry.intern(name)
    }

    /// Opens an element with the given tag name.
    pub fn open(&mut self, name: &str) -> TagId {
        let id = self.registry.intern(name);
        self.open_tag_id(id);
        id
    }

    /// Opens an element by pre-interned tag id.
    pub fn open_tag_id(&mut self, tag: TagId) {
        self.parens.push(true);
        self.opening.push(tag);
        self.open += 1;
    }

    /// Closes the current element.
    pub fn close(&mut self) {
        assert!(self.open > 0, "close without matching open");
        self.parens.push(false);
        self.open -= 1;
    }

    /// Adds a text-bearing leaf (`#` for ordinary text, `%` for attribute
    /// values).  The caller is responsible for pushing the corresponding
    /// string, in the same document order, into the text collection.
    pub fn text_leaf(&mut self, attribute_value: bool) {
        self.open_tag_id(if attribute_value { reserved::ATTRIBUTE_VALUE } else { reserved::TEXT });
        self.close();
    }

    /// Current element nesting depth, excluding the synthetic root.
    pub fn depth(&self) -> usize {
        self.open.saturating_sub(1)
    }

    /// Finishes the document and builds the immutable [`XmlTree`].
    ///
    /// # Panics
    /// Panics if elements are still open (besides the synthetic root);
    /// serving code should prefer [`XmlTreeBuilder::try_finish`].
    pub fn finish(self) -> XmlTree {
        self.try_finish().unwrap_or_else(|e| match e {
            TreeError::UnclosedElements { .. } => panic!("unclosed elements remain ({e})"),
            other => panic!("{other}"),
        })
    }

    /// Fallible counterpart of [`XmlTreeBuilder::finish`]: returns a
    /// structured [`TreeError`] instead of panicking when elements are still
    /// open or the recorded structure is not balanced, so malformed input
    /// can never panic a serving process.
    pub fn try_finish(mut self) -> Result<XmlTree, TreeError> {
        if self.open != 1 {
            return Err(TreeError::UnclosedElements { open: self.open.saturating_sub(1) });
        }
        self.close(); // close the synthetic root
        let bp = BalancedParens::try_new(&self.parens)?;
        let tags = TagSequence::from_opening(&bp, self.opening.iter().copied(), self.registry.len())?;
        let tables = relation_tables(&tags);
        Ok(XmlTree::new(bp, self.registry, tags, tables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_table_serialization_roundtrip_and_truncation() {
        let mut table = TagTable::new(70); // spans two 64-bit words per row
        table.set(0, 5);
        table.set(3, 69);
        table.set(69, 0);
        let mut bytes = Vec::new();
        table.write_rows(&mut bytes).unwrap();
        assert_eq!(bytes.len(), 70 * (8 + 2 * 8), "rows only, no table header");
        let back = TagTable::read_rows(&mut &bytes[..], 70).expect("roundtrip");
        assert_eq!(back, table);
        assert!(back.get(0, 5) && back.get(3, 69) && back.get(69, 0));
        assert!(!back.get(5, 0));
        // Truncated input must fail structurally, never panic.
        assert!(TagTable::read_rows(&mut &bytes[..bytes.len() - 1], 70).is_err());
        assert!(TagTable::read_rows(&mut &bytes[..9], 70).is_err());
        assert!(TagTable::read_rows(&mut &[][..], 70).is_err());
    }

    /// The byte offsets of a stored tree's parts: where the registry, the
    /// opening codes and the tables begin.
    fn layout(t: &XmlTree) -> (usize, usize, usize) {
        let registry_at = t.bp.to_bytes().len();
        let opening_at = registry_at + t.registry.to_bytes().len();
        (registry_at, opening_at, opening_at + t.tags.opening_codes(&t.bp).to_bytes().len())
    }

    /// Builds the paper's Figure 1 document model:
    ///
    /// ```text
    /// & > parts > part(name-attr, # "Soon discontinued", color>#, stock>#)
    ///           > part(name-attr, stock>#)
    /// ```
    fn figure1_tree() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        b.open("parts");
        {
            b.open("part");
            {
                b.open_tag_id(reserved::ATTRIBUTES);
                b.open("name");
                b.text_leaf(true); // "pen"
                b.close();
                b.close();
                b.text_leaf(false); // "Soon discontinued"
                b.open("color");
                b.text_leaf(false); // "blue"
                b.close();
                b.open("stock");
                b.text_leaf(false); // "40"
                b.close();
            }
            b.close();
            b.open("part");
            {
                b.open_tag_id(reserved::ATTRIBUTES);
                b.open("name");
                b.text_leaf(true); // "rubber"
                b.close();
                b.close();
                b.open("stock");
                b.text_leaf(false); // "30"
                b.close();
            }
            b.close();
        }
        b.close();
        b.finish()
    }

    #[test]
    fn figure1_structure() {
        let t = figure1_tree();
        assert_eq!(t.num_nodes(), 17);
        assert_eq!(t.num_texts(), 6);
        let root = t.root();
        assert_eq!(t.tag_name(t.tag(root)), "&");
        let parts = t.first_child(root).unwrap();
        assert_eq!(t.tag_name(t.tag(parts)), "parts");
        assert_eq!(t.subtree_size(root), 17);
        assert_eq!(t.subtree_size(parts), 16);
        let part1 = t.first_child(parts).unwrap();
        assert_eq!(t.tag_name(t.tag(part1)), "part");
        assert_eq!(t.subtree_size(part1), 9);
        let part2 = t.next_sibling(part1).unwrap();
        assert_eq!(t.tag_name(t.tag(part2)), "part");
        assert_eq!(t.next_sibling(part2), None);
        assert_eq!(t.parent(part1), Some(parts));
        assert_eq!(t.parent(root), None);
        assert!(t.is_ancestor(parts, part2));
        assert!(!t.is_ancestor(part1, part2));
        assert_eq!(t.depth(part1), 2);
        // Children of part1: @, #, color, stock
        let kids: Vec<String> =
            t.children(part1).map(|c| t.tag_name(t.tag(c)).to_string()).collect();
        assert_eq!(kids, vec!["@", "#", "color", "stock"]);
    }

    #[test]
    fn figure1_preorder_and_texts() {
        let t = figure1_tree();
        // Global identifiers are 1-based preorders; the root is 1.
        assert_eq!(t.preorder(t.root()), 1);
        let all: Vec<NodeId> = t.preorder_nodes().collect();
        assert_eq!(all.len(), 17);
        for (i, &x) in all.iter().enumerate() {
            assert_eq!(t.preorder(x), i + 1);
            assert_eq!(t.node_at_preorder(i + 1), Some(x));
        }
        // Texts are numbered left to right: pen, Soon discontinued, blue, 40, rubber, 30.
        for d in 0..6 {
            let node = t.node_of_text(d).unwrap();
            assert!(t.is_text_leaf(node));
            assert_eq!(t.text_id_of_leaf(node), Some(d));
        }
        // The text ids below the first part are 0..4 (pen, Soon…, blue, 40).
        let parts = t.first_child(t.root()).unwrap();
        let part1 = t.first_child(parts).unwrap();
        assert_eq!(t.text_ids(part1), 0..4);
        let part2 = t.next_sibling(part1).unwrap();
        assert_eq!(t.text_ids(part2), 4..6);
        assert_eq!(t.text_ids(t.root()), 0..6);
    }

    #[test]
    fn figure1_tagged_operations() {
        let t = figure1_tree();
        let stock = t.tag_id("stock").unwrap();
        let color = t.tag_id("color").unwrap();
        let part = t.tag_id("part").unwrap();
        let root = t.root();
        assert_eq!(t.subtree_tags(root, stock), 2);
        assert_eq!(t.subtree_tags(root, color), 1);
        assert_eq!(t.subtree_tags(root, part), 2);
        let parts = t.first_child(root).unwrap();
        let part1 = t.first_child(parts).unwrap();
        assert_eq!(t.subtree_tags(part1, stock), 1);
        assert_eq!(t.subtree_tags(part1, part), 1); // includes itself
        // TaggedDesc finds the first stock in document order.
        let first_stock = t.tagged_desc(root, stock).unwrap();
        assert_eq!(t.tag(first_stock), stock);
        assert!(t.is_ancestor(part1, first_stock));
        // TaggedFoll from the first part finds nodes after its subtree.
        let part2 = t.next_sibling(part1).unwrap();
        let foll_stock = t.tagged_foll(part1, stock).unwrap();
        assert!(t.is_ancestor(part2, foll_stock));
        assert_eq!(t.tagged_foll(part2, stock), None);
        // TaggedPrec from part2 finds the latest stock before it.
        let prec_stock = t.tagged_prec(part2, stock).unwrap();
        assert!(t.is_ancestor(part1, prec_stock));
        // TaggedDesc for a tag that is absent below the node.
        assert_eq!(t.tagged_desc(part2, color), None);
    }

    #[test]
    fn lca_matches_parent_chain_oracle() {
        let t = figure1_tree();
        let oracle = |x: NodeId, y: NodeId| -> NodeId {
            let chain = |mut n: NodeId| {
                let mut v = vec![n];
                while let Some(p) = t.parent(n) {
                    v.push(p);
                    n = p;
                }
                v
            };
            let ax = chain(x);
            *chain(y)
                .iter()
                .find(|c| ax.contains(c))
                .expect("every pair shares the super-root")
        };
        let nodes: Vec<NodeId> = t.preorder_nodes().collect();
        for &x in &nodes {
            for &y in &nodes {
                assert_eq!(t.lca(x, y), oracle(x, y), "lca({x}, {y})");
                assert_eq!(t.lca(x, y), t.lca(y, x));
            }
        }
        // Self and containment fast paths.
        let parts = t.first_child(t.root()).unwrap();
        let part1 = t.first_child(parts).unwrap();
        assert_eq!(t.lca(part1, part1), part1);
        assert_eq!(t.lca(parts, part1), parts);
        assert_eq!(t.lca(part1, parts), parts);
    }

    #[test]
    fn tag_relation_tables() {
        let t = figure1_tree();
        let parts = t.tag_id("parts").unwrap();
        let part = t.tag_id("part").unwrap();
        let stock = t.tag_id("stock").unwrap();
        let color = t.tag_id("color").unwrap();
        assert!(t.tag_relation_possible(parts, part, TagRelation::Child));
        assert!(!t.tag_relation_possible(part, parts, TagRelation::Child));
        assert!(t.tag_relation_possible(parts, stock, TagRelation::Descendant));
        assert!(!t.tag_relation_possible(stock, parts, TagRelation::Descendant));
        assert!(t.tag_relation_possible(color, stock, TagRelation::FollowingSibling));
        assert!(!t.tag_relation_possible(stock, color, TagRelation::FollowingSibling));
        // `stock` closes before the second `part` opens, so part follows stock.
        assert!(t.tag_relation_possible(stock, part, TagRelation::Following));
        // Nothing follows the root.
        let amp = t.tag_id("&").unwrap();
        assert!(!t.tag_relation_possible(amp, part, TagRelation::Following));
    }

    #[test]
    fn single_element_document() {
        let mut b = XmlTreeBuilder::new();
        b.open("a");
        b.close();
        let t = b.finish();
        assert_eq!(t.num_nodes(), 2);
        let a = t.first_child(t.root()).unwrap();
        assert_eq!(t.first_child(a), None);
        assert_eq!(t.next_sibling(a), None);
        assert_eq!(t.subtree_size(a), 1);
        assert_eq!(t.num_texts(), 0);
        assert_eq!(t.text_ids(a), 0..0);
    }

    #[test]
    fn deep_and_wide_tree() {
        let mut b = XmlTreeBuilder::new();
        // depth-200 chain each node also having a text child
        for _ in 0..200 {
            b.open("nest");
            b.text_leaf(false);
        }
        for _ in 0..200 {
            b.close();
        }
        // followed by 500 flat siblings
        for _ in 0..500 {
            b.open("item");
            b.text_leaf(false);
            b.close();
        }
        let t = b.finish();
        assert_eq!(t.num_texts(), 700);
        let nest = t.tag_id("nest").unwrap();
        let item = t.tag_id("item").unwrap();
        assert_eq!(t.tag_count(nest), 200);
        assert_eq!(t.tag_count(item), 500);
        assert_eq!(t.subtree_tags(t.root(), item), 500);
        // The deepest nest node has depth 200.
        let mut x = t.first_child(t.root()).unwrap();
        let mut depth = 1;
        while let Some(c) = t.children(x).find(|&c| t.tag(c) == nest) {
            x = c;
            depth += 1;
        }
        assert_eq!(depth, 200);
        assert_eq!(t.depth(x), 200);
        assert!(t.tag_relation_possible(nest, nest, TagRelation::Descendant));
        assert!(t.tag_relation_possible(nest, item, TagRelation::Following));
        assert!(!t.tag_relation_possible(item, nest, TagRelation::Descendant));
    }

    #[test]
    #[should_panic(expected = "unclosed elements")]
    fn unbalanced_builder_panics() {
        let mut b = XmlTreeBuilder::new();
        b.open("a");
        b.finish();
    }

    #[test]
    fn try_finish_reports_unclosed_elements() {
        let mut b = XmlTreeBuilder::new();
        b.open("a");
        b.open("b");
        assert_eq!(b.try_finish().unwrap_err(), TreeError::UnclosedElements { open: 2 });
    }

    mod verify_tests {
        use super::*;
        use sxsi_verify::{Verify, VerifyDepth};

        #[test]
        fn clean_tree_verifies() {
            let report = figure1_tree().verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "{report}");
            assert!(report.checks_run >= 10);
        }

        #[test]
        fn count_elements_excludes_model_nodes() {
            let t = figure1_tree();
            // parts, part×2, name×2, color, stock×2 = 8 element nodes
            // (the &/@/#/% model nodes are not elements).
            assert_eq!(t.count_elements(), 8);
        }

        #[test]
        fn extra_child_table_bit_is_caught() {
            let mut t = figure1_tree();
            let stock = t.tag_id("stock").unwrap();
            t.child_table.set(stock, reserved::ROOT);
            let report = t.verify(VerifyDepth::Deep);
            assert!(report.has_code("tree-child-table"), "{report}");
            // The quick pass does not replay the sequence, so it stays clean.
            assert!(t.verify(VerifyDepth::Quick).is_ok());
        }

        #[test]
        fn following_table_drift_is_caught() {
            let mut t = figure1_tree();
            let amp = t.tag_id("&").unwrap();
            let part = t.tag_id("part").unwrap();
            t.following_table.set(amp, part);
            let report = t.verify(VerifyDepth::Deep);
            assert!(report.has_code("tree-following-table"), "{report}");
        }

        #[test]
        fn table_shape_mismatch_is_caught() {
            // A table's size is the registry's length; a row of another
            // width fails the load.  The first row of the child table
            // claims one word more than its tag count needs.
            let t = figure1_tree();
            let (_, _, tables_at) = layout(&t);
            let mut bytes = t.to_bytes();
            bytes[tables_at] += 1;
            let err = XmlTree::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, IoError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("tag table row 0 holds 2 words, expected 1"), "{err}");
        }

        #[test]
        fn registry_count_mismatch_is_caught() {
            // An opening code the registry holds no name for fails the
            // load: the figure's nine tags take four bits, so code 15 fits
            // the width but not the registry.
            let t = figure1_tree();
            assert_eq!(t.num_tags(), 9);
            let (_, opening_at, _) = layout(&t);
            let mut bytes = t.to_bytes();
            // The codes' words follow the width (u32), the count and the
            // word count (u64 each); code 0 is the low four bits.
            bytes[opening_at + 20] |= 0x0f;
            let err = XmlTree::from_bytes(&bytes).unwrap_err();
            assert!(matches!(err, IoError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("tag code 15 at position 0 is out of range for 9 tags"), "{err}");
        }
    }

    #[test]
    fn opening_code_count_other_than_the_nodes_fails_the_load() {
        let t = figure1_tree();
        let (_, opening_at, tables_at) = layout(&t);
        let bytes = t.to_bytes();
        let stored = t.tags.opening_codes(&t.bp);
        let forge = |codes: &IntVector| {
            let mut forged = bytes[..opening_at].to_vec();
            forged.extend_from_slice(&codes.to_bytes());
            forged.extend_from_slice(&bytes[tables_at..]);
            let err = XmlTree::from_bytes(&forged).unwrap_err();
            assert!(matches!(err, IoError::Corrupt { .. }), "{err}");
            err.to_string()
        };
        for len in [stored.len() - 1, stored.len() + 1] {
            let mut codes = IntVector::new(len, stored.width());
            for k in 0..len.min(stored.len()) {
                codes.set(k, stored.get(k));
            }
            let err = forge(&codes);
            assert!(err.contains(&format!("{len} opening tag codes for {} nodes", t.num_nodes())), "{err}");
        }
        // Codes packed wider than the registry needs are refused too, so
        // the stored bytes of a tree are unique.
        let mut wide = IntVector::new(stored.len(), stored.width() + 1);
        for k in 0..stored.len() {
            wide.set(k, stored.get(k));
        }
        let err = forge(&wide);
        assert!(err.contains("packed in 5 bits, expected 4"), "{err}");
    }

    #[test]
    fn serialization_roundtrip_preserves_navigation_and_tags() {
        let t = figure1_tree();
        let back = XmlTree::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back.num_nodes(), t.num_nodes());
        assert_eq!(back.num_texts(), t.num_texts());
        assert_eq!(back.num_tags(), t.num_tags());
        for x in t.preorder_nodes() {
            assert_eq!(back.tag(x), t.tag(x));
            assert_eq!(back.parent(x), t.parent(x));
            assert_eq!(back.first_child(x), t.first_child(x));
            assert_eq!(back.next_sibling(x), t.next_sibling(x));
            assert_eq!(back.is_text_leaf(x), t.is_text_leaf(x));
            assert_eq!(back.text_ids(x), t.text_ids(x));
        }
        let stock = t.tag_id("stock").unwrap();
        assert_eq!(back.tag_id("stock"), Some(stock));
        assert_eq!(back.tagged_desc(back.root(), stock), t.tagged_desc(t.root(), stock));
        let part = t.tag_id("part").unwrap();
        let parts = t.tag_id("parts").unwrap();
        assert!(back.tag_relation_possible(parts, part, TagRelation::Child));
        assert!(!back.tag_relation_possible(part, parts, TagRelation::Child));
    }

    #[test]
    fn serialization_rejects_truncation_and_tampering() {
        let t = figure1_tree();
        let bytes = t.to_bytes();
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(XmlTree::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn implausible_tag_count_is_an_error_not_an_allocation() {
        // The tag count is the registry's length, and the registry reads
        // its names one by one: a registry declaring 2^31 names with nine
        // present fails at the tenth (whose length prefix is the opening
        // codes' header, far longer than the bytes left) before anything
        // is sized by the declared count.
        let t = figure1_tree();
        let bytes = t.to_bytes();
        let (registry_at, _, _) = layout(&t);
        let mut forged = bytes[..registry_at].to_vec();
        forged.extend_from_slice(&(1u64 << 31).to_le_bytes());
        forged.extend_from_slice(&bytes[registry_at + 8..]);
        assert!(XmlTree::from_bytes(&forged).is_err());
    }
}
