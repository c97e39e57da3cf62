//! Huffman-shaped, pointer-free wavelet tree over bytes.
//!
//! Every byte gets a canonical Huffman code of at most [`MAX_CODE_LEN`]
//! bits; the tree of those codes is stored *level-wise*: level `d` is one
//! [`InterleavedRsBitVector`] holding, concatenated in code-prefix order,
//! the bitmaps of the internal nodes at depth `d` (bit `d` of the code of
//! every symbol routed through the node, in sequence order).  A byte
//! alphabet has at most 255 internal nodes, so a small table gives each
//! node's start offset in its level, the level's `rank1` at that offset and
//! its two children — no per-node bitmaps, no pointers into the bit data.
//!
//! `access` and `rank` spend one interleaved rank (a single cache-line
//! fetch) per level, like a wavelet matrix, but descend only the symbol's
//! code length: about `H₀ + 1` levels on average instead of eight.  The
//! levels hold `Σ count(c) · codelen(c)` bits, i.e. roughly `n·H₀` — the
//! space of the paper's Huffman-shaped FM-index.
//!
//! `access_rank(i)` returns the symbol `c` at `i` together with
//! `rank(c, i)`: the descent that finds `c` carries the position of `i`
//! inside each node down to `c`'s leaf, and that position is the rank.  So
//! an LF step of the FM-index (symbol, then its rank) costs one descent of
//! `codelen(c)` ranks instead of two.  `access` is `access_rank(i).0`, at
//! the same cost; `rank(c, i)` descends `codelen(c)` levels along the known
//! code of `c` (backward search needs it for a symbol that is not at `i`).
//!
//! Construction ping-pongs two byte buffers level by level: each pass
//! writes one level's bits and stably moves every symbol whose code goes
//! deeper into its child's segment of the next level.  The node table is
//! derived data — a function of the code lengths and the level bits — and
//! is rebuilt, with every consistency check, on load.

use crate::interleaved::InterleavedRsBitVector;
use crate::wavelet::SequenceIndex;
use crate::SpaceUsage;
use sxsi_io::{corrupt, read_u8, read_usize, write_u8, write_usize, IoError, ReadFrom, WriteInto};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// Longest code the structure builds or loads (a format constant).  Real
/// BWTs need about 20 bits; only Fibonacci-like counts go deeper, and those
/// are flattened until their Huffman code fits, so a `u32` holds any code.
pub const MAX_CODE_LEN: u8 = 32;

/// Shape byte of the encoding: the empty sequence (no further fields).
const SHAPE_EMPTY: u8 = 0;
/// Shape byte: one distinct symbol (followed by that symbol, no levels).
const SHAPE_SINGLE: u8 = 1;
/// Shape byte: 256 code lengths, then one bitmap body per level.
const SHAPE_CODED: u8 = 2;

/// Child references at or above this value are leaves (`LEAF + symbol`);
/// below it they are internal node ids (a byte alphabet has at most 255).
const LEAF: u16 = 256;

/// One internal node of the code tree.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Node {
    /// Offset of the node's bitmap inside its level.
    start: usize,
    /// `rank1` of the level at `start`.
    rank: usize,
    /// Child reached by bit 0 and by bit 1 (node id, or `LEAF + symbol`).
    child: [u16; 2],
}

/// Huffman-shaped wavelet tree over a byte sequence: `access`/`rank` in
/// one cache-line rank per code bit, `select` in one select per code bit.
/// Space is `Σ count(c) · codelen(c)` bits plus the interleaved rank
/// counters (two header words per six payload words, 33 %) and a node
/// table of at most 255 entries.
#[derive(Clone, Debug)]
pub struct HuffmanWavelet {
    /// Number of symbols in the sequence.
    len: usize,
    /// Code length of each byte; 0 for a byte without a code.
    lengths: [u8; 256],
    /// Canonical code of each byte, `lengths[b]` bits, most significant
    /// bit first (bit `d` is the branch taken at depth `d`).
    codes: [u32; 256],
    /// Level `d`: the bitmaps of the depth-`d` internal nodes, in
    /// code-prefix order.
    levels: Vec<InterleavedRsBitVector>,
    /// Internal nodes level by level in code-prefix order (node 0 is the
    /// root); derived from `lengths` and `levels`.
    nodes: Vec<Node>,
    /// The symbol of a sequence with exactly one distinct byte, which needs
    /// no levels.
    single: Option<u8>,
}

impl HuffmanWavelet {
    /// Builds the tree over `seq`, shaped by the Huffman code of its byte
    /// counts.  Needs two bytes of scratch per symbol beyond the result.
    pub fn new(seq: &[u8]) -> Self {
        let counts = byte_counts(seq);
        let mut present = (0..=255u8).filter(|&b| counts[b as usize] > 0);
        match (present.next(), present.next()) {
            (None, _) => Self::degenerate(0, None),
            (Some(sym), None) => Self::degenerate(seq.len(), Some(sym)),
            _ => Self::with_lengths(seq, code_lengths(&counts)),
        }
    }

    /// The shapes without levels: the empty sequence and a single repeated
    /// symbol.
    fn degenerate(len: usize, single: Option<u8>) -> Self {
        Self { len, lengths: [0; 256], codes: [0; 256], levels: Vec::new(), nodes: Vec::new(), single }
    }

    /// Builds the levels for a complete code `lengths` covering every byte
    /// of `seq`.
    fn with_lengths(seq: &[u8], lengths: [u8; 256]) -> Self {
        let codes = canonical_codes(&lengths);
        let tree = code_tree(&lengths, &codes).expect("Huffman lengths form a complete code");
        // Node sizes from the byte counts: they fix where each node's
        // segment of its level starts, i.e. where the partition writes.
        let counts = byte_counts(seq);
        let mut size = vec![0usize; tree.len()];
        for sym in 0..256 {
            let mut node = 0usize;
            for d in 0..lengths[sym] {
                size[node] += counts[sym];
                node = tree[node].1[code_bit(codes[sym], lengths[sym], d)] as usize;
            }
        }
        let depth_count = lengths.iter().copied().max().unwrap_or(0);
        let mut levels = Vec::with_capacity(depth_count as usize);
        let mut cur = seq.to_vec();
        let mut next: Vec<u8> = Vec::with_capacity(seq.len());
        // `at[s]`: the depth-`d` node symbol `s` passes through.
        let mut at = [0u16; 256];
        for d in 0..depth_count {
            // Write cursors of the depth-`d + 1` nodes, in prefix order.
            let mut cursor = [0usize; 256];
            let mut next_len = 0usize;
            for (id, &(node_depth, _)) in tree.iter().enumerate() {
                if node_depth == d + 1 {
                    cursor[id] = next_len;
                    next_len += size[id];
                }
            }
            let mut bit_of = [0u8; 256];
            let mut child_of = [LEAF; 256];
            for sym in (0..256).filter(|&s| lengths[s] > d) {
                let bit = code_bit(codes[sym], lengths[sym], d);
                bit_of[sym] = bit as u8;
                child_of[sym] = tree[at[sym] as usize].1[bit];
            }
            let mut words = vec![0u64; cur.len().div_ceil(64)];
            next.clear();
            next.resize(next_len, 0);
            for (i, &sym) in cur.iter().enumerate() {
                words[i / 64] |= (bit_of[sym as usize] as u64) << (i % 64);
                let child = child_of[sym as usize];
                if child < LEAF {
                    next[cursor[child as usize]] = sym;
                    cursor[child as usize] += 1;
                }
            }
            levels.push(InterleavedRsBitVector::from_words(words, cur.len()));
            for sym in 0..256 {
                if lengths[sym] > d + 1 {
                    at[sym] = child_of[sym];
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        let nodes = place_nodes(&tree, &levels, seq.len()).expect("levels built from the counts");
        Self { len: seq.len(), lengths, codes, levels, nodes, single: None }
    }

    /// Number of symbols.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Code length of `sym` in bits (the number of levels its `rank`
    /// descends); 0 for an absent symbol or the single symbol of a
    /// one-symbol sequence.
    #[inline]
    // lint:allow(dead-pub: test probe: the Huffman code shape that tests/oracle_suite.rs pins)
    pub fn code_len(&self, sym: u8) -> u32 {
        self.lengths[sym as usize] as u32
    }

    /// Number of levels (the longest code length).
    #[inline]
    // lint:allow(dead-pub: test probe: the Huffman code shape that tests/oracle_suite.rs pins)
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Bits held by the levels: `Σ count(c) · codelen(c)`.
    // lint:allow(dead-pub: test probe: the Huffman code shape that tests/oracle_suite.rs pins)
    pub fn level_bits(&self) -> usize {
        self.levels.iter().map(|l| l.len()).sum()
    }

    /// Symbol at position `i`: [`HuffmanWavelet::access_rank`] without the
    /// rank.
    ///
    /// # Panics
    /// Debug-panics if `i >= len()`.
    #[inline]
    pub fn access(&self, i: usize) -> u8 {
        self.access_rank(i).0
    }

    /// Symbol `c` at position `i` and its rank there, `rank(c, i)`, in one
    /// descent of one interleaved rank per bit of `c`'s code: the position
    /// the descent carries into `c`'s leaf is that rank.
    ///
    /// # Panics
    /// Debug-panics if `i >= len()`.
    pub fn access_rank(&self, i: usize) -> (u8, usize) {
        debug_assert!(i < self.len, "index {i} out of range (len {})", self.len);
        if let Some(sym) = self.single {
            return (sym, i);
        }
        let mut node = &self.nodes[0];
        let mut pos = i;
        for level in &self.levels {
            let p = node.start + pos;
            let ones = level.rank1(p) - node.rank;
            let bit = level.get(p);
            pos = if bit { ones } else { pos - ones };
            let child = node.child[bit as usize];
            if child >= LEAF {
                return ((child - LEAF) as u8, pos);
            }
            node = &self.nodes[child as usize];
        }
        unreachable!("every code ends in a leaf by the deepest level")
    }

    /// Number of occurrences of `sym` in `[0, i)`: one interleaved rank per
    /// bit of `sym`'s code.
    pub fn rank(&self, sym: u8, i: usize) -> usize {
        debug_assert!(i <= self.len, "rank index {i} out of range (len {})", self.len);
        let len = self.lengths[sym as usize];
        if len == 0 {
            return if self.single == Some(sym) { i } else { 0 };
        }
        let code = self.codes[sym as usize];
        let mut node = &self.nodes[0];
        let mut pos = i;
        for (d, level) in self.levels.iter().enumerate().take(len as usize) {
            let ones = level.rank1(node.start + pos) - node.rank;
            let bit = code_bit(code, len, d as u8);
            pos = if bit == 1 { ones } else { pos - ones };
            if let Some(child) = self.nodes.get(node.child[bit] as usize) {
                node = child;
            }
        }
        pos
    }

    /// Total occurrences of `sym`.
    #[inline]
    pub fn count(&self, sym: u8) -> usize {
        self.rank(sym, self.len)
    }

    /// Position of the `k`-th occurrence (1-based) of `sym`, or `None`: one
    /// descent to find the nodes on `sym`'s path, then one select per level
    /// back up.
    pub fn select(&self, sym: u8, k: usize) -> Option<usize> {
        if k == 0 || k > self.count(sym) {
            return None;
        }
        let len = self.lengths[sym as usize];
        let code = self.codes[sym as usize];
        let mut path = [0u16; MAX_CODE_LEN as usize];
        for d in 1..len {
            let parent = &self.nodes[path[d as usize - 1] as usize];
            path[d as usize] = parent.child[code_bit(code, len, d - 1)];
        }
        let mut pos = k - 1;
        for d in (0..len).rev() {
            let node = &self.nodes[path[d as usize] as usize];
            let level = &self.levels[d as usize];
            pos = if code_bit(code, len, d) == 1 {
                level.select1(node.rank + pos + 1)?
            } else {
                level.select0(node.start - node.rank + pos + 1)?
            } - node.start;
        }
        Some(pos)
    }
}

/// Occurrences of every byte in `seq`.
fn byte_counts(seq: &[u8]) -> [usize; 256] {
    let mut counts = [0usize; 256];
    for &b in seq {
        counts[b as usize] += 1;
    }
    counts
}

/// Bit `d` (0 = most significant) of a `len`-bit code.
#[inline]
fn code_bit(code: u32, len: u8, d: u8) -> usize {
    ((code >> (len - 1 - d)) & 1) as usize
}

/// Huffman code lengths of the non-zero `counts` (at least two), limited
/// to [`MAX_CODE_LEN`]: while the optimal code is too deep, the counts are
/// flattened (halved, kept non-zero) and the code rebuilt.
fn code_lengths(counts: &[usize; 256]) -> [u8; 256] {
    let mut weights: [u64; 256] = counts.map(|c| c as u64);
    loop {
        let lengths = huffman_lengths(&weights);
        if lengths.iter().all(|&l| l <= MAX_CODE_LEN) {
            return lengths;
        }
        for w in weights.iter_mut().filter(|w| **w > 0) {
            *w = (*w / 2).max(1);
        }
    }
}

/// Unlimited Huffman code lengths (ties broken by node id, so the shape is
/// deterministic).  A length may exceed `u8` range only with more than 256
/// symbols, which a byte alphabet cannot have.
fn huffman_lengths(weights: &[u64; 256]) -> [u8; 256] {
    // Ids 0..256 are the leaves, internal nodes follow in creation order;
    // a parent is always created after its children.
    let mut parent = [0u16; 511];
    let mut heap: BinaryHeap<Reverse<(u64, u16)>> =
        (0..256u16).filter(|&s| weights[s as usize] > 0).map(|s| Reverse((weights[s as usize], s))).collect();
    let mut next = 256u16;
    while let (Some(Reverse((wa, a))), Some(Reverse((wb, b)))) = (heap.pop(), heap.pop()) {
        parent[a as usize] = next;
        parent[b as usize] = next;
        heap.push(Reverse((wa + wb, next)));
        next += 1;
    }
    let mut depth = [0u8; 511];
    for id in (0..next as usize - 1).rev() {
        depth[id] = depth[parent[id] as usize] + 1;
    }
    let mut lengths = [0u8; 256];
    for (s, len) in lengths.iter_mut().enumerate() {
        if weights[s] > 0 {
            *len = depth[s];
        }
    }
    lengths
}

/// Checks that `lengths` is a code the structure can hold: every length at
/// most [`MAX_CODE_LEN`], at least two symbols, and a *complete* prefix
/// code (Kraft sum exactly 1), so every internal node has two children.
fn check_lengths(lengths: &[u8; 256]) -> Result<(), String> {
    if let Some(sym) = (0..256).find(|&s| lengths[s] > MAX_CODE_LEN) {
        return Err(format!("code length {} of byte {sym} exceeds {MAX_CODE_LEN}", lengths[sym]));
    }
    let coded = lengths.iter().filter(|&&l| l > 0).count();
    let kraft: u64 = lengths.iter().filter(|&&l| l > 0).map(|&l| 1u64 << (MAX_CODE_LEN - l)).sum();
    if coded < 2 || kraft != 1u64 << MAX_CODE_LEN {
        return Err(format!(
            "{coded} code lengths do not form a complete prefix code (Kraft sum {kraft}/2^{MAX_CODE_LEN})"
        ));
    }
    Ok(())
}

/// Canonical codes for valid `lengths`: symbols ordered by (length, byte)
/// take consecutive code values.
fn canonical_codes(lengths: &[u8; 256]) -> [u32; 256] {
    let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    let mut codes = [0u32; 256];
    let mut code = 0u64;
    let mut prev = 0u8;
    for s in order {
        code <<= lengths[s] - prev;
        codes[s] = code as u32;
        code += 1;
        prev = lengths[s];
    }
    codes
}

/// The internal nodes of the code tree, level by level in code-prefix
/// order, as `(depth, children)`.  Fails if some internal node lacks a
/// child, i.e. the code is not complete.
fn code_tree(lengths: &[u8; 256], codes: &[u32; 256]) -> Result<Vec<(u8, [u16; 2])>, String> {
    let mut internal: BTreeMap<(u8, u64), u16> = BTreeMap::new();
    let mut leaves: BTreeMap<(u8, u64), u16> = BTreeMap::new();
    for sym in 0..256 {
        let len = lengths[sym];
        if len == 0 {
            continue;
        }
        leaves.insert((len, codes[sym] as u64), LEAF + sym as u16);
        for d in 0..len {
            internal.insert((d, codes[sym] as u64 >> (len - d)), 0);
        }
    }
    for (id, value) in internal.values_mut().enumerate() {
        *value = id as u16;
    }
    internal
        .keys()
        .map(|&(d, prefix)| {
            let mut child = [0u16; 2];
            for (bit, slot) in child.iter_mut().enumerate() {
                let key = (d + 1, prefix << 1 | bit as u64);
                *slot = *internal.get(&key).or_else(|| leaves.get(&key)).ok_or_else(|| {
                    format!("code tree node at depth {d} has no child for bit {bit}")
                })?;
            }
            Ok((d, child))
        })
        .collect()
}

/// Places the nodes of `tree` on `levels` top-down: the root spans all
/// `len` bits of level 0, a node's ones and zeros size its two children,
/// and every level must hold exactly the bits of its nodes.
fn place_nodes(
    tree: &[(u8, [u16; 2])],
    levels: &[InterleavedRsBitVector],
    len: usize,
) -> Result<Vec<Node>, String> {
    let depth_count = tree.last().map_or(0, |&(d, _)| d as usize + 1);
    if levels.len() != depth_count {
        return Err(format!("code tree has {depth_count} levels, found {}", levels.len()));
    }
    let mut size = vec![0usize; tree.len()];
    if let Some(root) = size.first_mut() {
        *root = len;
    }
    let mut nodes = Vec::with_capacity(tree.len());
    let mut offset = 0usize;
    for (id, &(d, child)) in tree.iter().enumerate() {
        let level = &levels[d as usize];
        let start = offset;
        let end = start + size[id];
        if end > level.len() {
            return Err(format!("level {d} holds {} bits, its nodes need more", level.len()));
        }
        let rank = level.rank1(start);
        let ones = level.rank1(end) - rank;
        for (c, part) in child.into_iter().zip([size[id] - ones, ones]) {
            if let Some(s) = size.get_mut(c as usize) {
                *s = part;
            }
        }
        nodes.push(Node { start, rank, child });
        offset = end;
        if tree.get(id + 1).map_or(true, |&(next, _)| next != d) {
            if offset != level.len() {
                return Err(format!("level {d} holds {} bits, its nodes hold {offset}", level.len()));
            }
            offset = 0;
        }
    }
    Ok(nodes)
}

impl SequenceIndex<u8> for HuffmanWavelet {
    fn len(&self) -> usize {
        self.len
    }

    fn access(&self, i: usize) -> u8 {
        HuffmanWavelet::access(self, i)
    }

    fn rank(&self, sym: u8, i: usize) -> usize {
        HuffmanWavelet::rank(self, sym, i)
    }

    fn select(&self, sym: u8, k: usize) -> Option<usize> {
        HuffmanWavelet::select(self, sym, k)
    }
}

impl sxsi_verify::Verify for HuffmanWavelet {
    /// Checks the code (complete, canonical, shape consistent with the
    /// length), the level lengths against the node sizes, and the node
    /// table against a fresh top-down derivation.
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        for level in &self.levels {
            ctx.enter("level", |ctx| level.verify_into(depth, ctx));
        }
        let coded = self.single.is_none() && self.len > 0;
        let code = if coded {
            check_lengths(&self.lengths)
        } else if self.lengths != [0; 256] || !self.levels.is_empty() || !self.nodes.is_empty() {
            Err("an empty or one-symbol sequence carries a code".into())
        } else {
            Ok(())
        };
        let code_ok = code.is_ok() && self.codes == canonical_codes(&self.lengths);
        ctx.check("wt-code-complete", code_ok, || {
            code.clone().err().unwrap_or_else(|| "codes are not the canonical code of the lengths".into())
        });
        if ctx.issue_count() > issues_before || !coded {
            return;
        }
        let placed = code_tree(&self.lengths, &self.codes)
            .and_then(|tree| place_nodes(&tree, &self.levels, self.len));
        ctx.check("wt-level-len", placed.is_ok(), || placed.clone().err().unwrap_or_default());
        if let Ok(nodes) = placed {
            ctx.check("wt-node-table", nodes == self.nodes, || {
                "node table disagrees with a derivation from the code and the levels".into()
            });
        }
    }
}

impl SpaceUsage for HuffmanWavelet {
    fn size_bytes(&self) -> usize {
        self.levels.iter().map(|l| l.size_bytes()).sum::<usize>() + crate::slice_bytes(&self.nodes)
    }
}

impl WriteInto for HuffmanWavelet {
    /// Encoding: `len`, a shape byte, then the single symbol (one distinct
    /// byte) or the 256 code lengths and one bitmap body per level (coded).
    /// Codes and node table are derived and rebuilt on load.
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_usize(w, self.len)?;
        match self.single {
            Some(sym) => {
                write_u8(w, SHAPE_SINGLE)?;
                write_u8(w, sym)
            }
            None if self.len == 0 => write_u8(w, SHAPE_EMPTY),
            None => {
                write_u8(w, SHAPE_CODED)?;
                w.write_all(&self.lengths)?;
                for level in &self.levels {
                    level.write_into(w)?;
                }
                Ok(())
            }
        }
    }
}

impl ReadFrom for HuffmanWavelet {
    /// Validates the code (lengths ≤ 32, complete, at least two symbols)
    /// before reading any level, reads at most 32 levels, then derives the
    /// node table top-down, checking every level length on the way.
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let len = read_usize(r)?;
        match read_u8(r)? {
            SHAPE_EMPTY if len == 0 => Ok(Self::degenerate(0, None)),
            SHAPE_SINGLE if len > 0 => Ok(Self::degenerate(len, Some(read_u8(r)?))),
            SHAPE_CODED if len > 0 => {
                let mut lengths = [0u8; 256];
                r.read_exact(&mut lengths)?;
                check_lengths(&lengths).map_err(|e| corrupt(format!("wavelet tree: {e}")))?;
                let codes = canonical_codes(&lengths);
                let tree = code_tree(&lengths, &codes).map_err(|e| corrupt(format!("wavelet tree: {e}")))?;
                let depth_count = lengths.iter().copied().max().unwrap_or(0);
                let mut levels = Vec::with_capacity(depth_count as usize);
                for _ in 0..depth_count {
                    levels.push(InterleavedRsBitVector::read_from(r)?);
                }
                let nodes = place_nodes(&tree, &levels, len).map_err(|e| corrupt(format!("wavelet tree: {e}")))?;
                Ok(Self { len, lengths, codes, levels, nodes, single: None })
            }
            other => Err(corrupt(format!("wavelet tree shape byte {other} does not fit length {len}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wavelet::check_sequence_index;
    use sxsi_verify::{Verify, VerifyDepth};

    /// The encoding of a coded tree with the given lengths and level bits.
    fn coded_bytes(len: usize, lengths: &[(u8, u8)], levels: &[&[bool]]) -> Vec<u8> {
        let mut out = Vec::new();
        write_usize(&mut out, len).unwrap();
        write_u8(&mut out, SHAPE_CODED).unwrap();
        let mut table = [0u8; 256];
        for &(sym, l) in lengths {
            table[sym as usize] = l;
        }
        out.extend_from_slice(&table);
        for bits in levels {
            let bv: crate::BitVec = bits.iter().copied().collect();
            InterleavedRsBitVector::new(&bv).write_into(&mut out).unwrap();
        }
        out
    }

    fn fibonacci_counts(symbols: usize) -> [usize; 256] {
        let mut counts = [0usize; 256];
        let (mut a, mut b) = (1usize, 1usize);
        for c in counts.iter_mut().take(symbols) {
            *c = a;
            (a, b) = (b, a + b);
        }
        counts
    }

    #[test]
    fn empty_sequence() {
        let wt = HuffmanWavelet::new(&[]);
        assert!(wt.is_empty());
        assert_eq!(wt.level_count(), 0);
        assert_eq!(wt.rank(3, 0), 0);
        assert_eq!(wt.select(3, 1), None);
        let back = HuffmanWavelet::from_bytes(&wt.to_bytes()).unwrap();
        assert!(back.is_empty());
        assert!(wt.verify(VerifyDepth::Deep).is_ok());
    }

    #[test]
    fn single_distinct_symbol() {
        let seq = vec![b'x'; 10];
        let wt = HuffmanWavelet::new(&seq);
        assert_eq!(wt.level_count(), 0);
        assert_eq!(wt.size_bytes(), 0);
        check_sequence_index(&seq, &wt);
        assert_eq!(wt.rank(b'y', 7), 0);
        let back = HuffmanWavelet::from_bytes(&wt.to_bytes()).unwrap();
        check_sequence_index(&seq, &back);
        assert!(back.verify(VerifyDepth::Deep).is_ok());
    }

    #[test]
    fn small_known_sequence() {
        let seq = b"abracadabra";
        let wt = HuffmanWavelet::new(seq);
        check_sequence_index(seq, &wt);
        // a:5 b:2 r:2 c:1 d:1 — the most frequent byte takes one bit.
        assert_eq!(wt.code_len(b'a'), 1);
        assert_eq!(wt.code_len(b'z'), 0);
        let bits: usize = seq.iter().map(|&b| wt.code_len(b) as usize).sum();
        assert_eq!(wt.level_bits(), bits);
        assert_eq!(wt.count(b'a'), 5);
        assert_eq!(wt.count(b'z'), 0);
        assert_eq!(wt.select(b'z', 1), None);
    }

    #[test]
    fn byte_alphabet_like_bwt() {
        let seq: Vec<u8> = (0..2000).map(|i| ((i * 131) % 251) as u8).collect();
        let wt = HuffmanWavelet::new(&seq);
        check_sequence_index(&seq, &wt);
    }

    #[test]
    fn skewed_distribution() {
        let seq: Vec<u8> = (0..1000).map(|i| if i % 50 == 0 { (i / 50) as u8 % 20 } else { 0 }).collect();
        let wt = HuffmanWavelet::new(&seq);
        check_sequence_index(&seq, &wt);
        assert!(wt.level_bits() < 2 * seq.len(), "skew must shrink the levels below 8 bits per symbol");
    }

    #[test]
    fn fibonacci_counts_hit_the_code_length_limit() {
        let counts = fibonacci_counts(40);
        // Unlimited, the 40 Fibonacci counts chain into a 39-deep code.
        let weights = counts.map(|c| c as u64);
        assert_eq!(huffman_lengths(&weights).iter().max(), Some(&39));
        let lengths = code_lengths(&counts);
        assert_eq!(lengths.iter().max(), Some(&MAX_CODE_LEN));
        assert!(check_lengths(&lengths).is_ok());
        // A short sequence over the same 40 symbols descends all 32 levels.
        let seq: Vec<u8> = (0..400).map(|i| ((i * 7) % 40) as u8).collect();
        let wt = HuffmanWavelet::with_lengths(&seq, lengths);
        assert_eq!(wt.level_count(), MAX_CODE_LEN as usize);
        check_sequence_index(&seq, &wt);
        let back = HuffmanWavelet::from_bytes(&wt.to_bytes()).unwrap();
        check_sequence_index(&seq, &back);
        assert!(back.verify(VerifyDepth::Deep).is_ok());
    }

    #[test]
    fn serialization_roundtrip() {
        for (n, sigma) in [(0usize, 4usize), (1, 4), (2, 2), (100, 3), (1000, 256)] {
            let seq: Vec<u8> = (0..n).map(|i| ((i * 17) % sigma) as u8).collect();
            let wt = HuffmanWavelet::new(&seq);
            let back = HuffmanWavelet::from_bytes(&wt.to_bytes()).unwrap();
            check_sequence_index(&seq, &back);
            assert_eq!(back.lengths, wt.lengths);
            assert_eq!(back.nodes, wt.nodes);
        }
    }

    #[test]
    fn serialization_rejects_truncation() {
        let seq: Vec<u8> = (0..300).map(|i| (i % 7) as u8).collect();
        let bytes = HuffmanWavelet::new(&seq).to_bytes();
        for cut in 0..bytes.len() {
            assert!(HuffmanWavelet::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let single = HuffmanWavelet::new(b"zzz").to_bytes();
        for cut in 0..single.len() {
            assert!(HuffmanWavelet::from_bytes(&single[..cut]).is_err(), "single cut {cut}");
        }
    }

    #[test]
    fn serialization_rejects_level_length_mismatch() {
        // "aabc": a = 0, b = 10, c = 11; level 1 holds the b/c node's two bits.
        let levels: [&[bool]; 2] = [&[false, false, true, true], &[false, true]];
        let good = coded_bytes(4, &[(b'a', 1), (b'b', 2), (b'c', 2)], &levels);
        let wt = HuffmanWavelet::from_bytes(&good).unwrap();
        check_sequence_index(b"aabc", &wt);
        let long: [&[bool]; 2] = [&[false, false, true, true], &[false, true, true]];
        let err = HuffmanWavelet::from_bytes(&coded_bytes(4, &[(b'a', 1), (b'b', 2), (b'c', 2)], &long));
        assert!(err.unwrap_err().to_string().contains("level 1 holds 3 bits"));
        // The root level must hold `len` bits.
        let err = HuffmanWavelet::from_bytes(&coded_bytes(5, &[(b'a', 1), (b'b', 2), (b'c', 2)], &levels));
        assert!(err.is_err());
    }

    #[test]
    fn hostile_code_lengths_are_rejected_before_any_level() {
        // No level bodies follow: the lengths alone must be refused.
        let cases: [(&[(u8, u8)], &str); 4] = [
            (&[(b'a', 1), (b'b', 2)], "complete prefix code"),
            (&[(b'a', 1), (b'b', 1), (b'c', 1)], "complete prefix code"),
            (&[(b'a', 1), (b'b', 33)], "exceeds 32"),
            (&[(b'a', 1)], "complete prefix code"),
        ];
        for (lengths, expected) in cases {
            let err = HuffmanWavelet::from_bytes(&coded_bytes(4, lengths, &[])).unwrap_err();
            assert!(matches!(err, IoError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains(expected), "{lengths:?}: {err}");
        }
        // Shape bytes that do not fit the length, or do not exist.
        for (len, shape) in [(3usize, SHAPE_EMPTY), (0, SHAPE_SINGLE), (3, 7)] {
            let mut bytes = Vec::new();
            write_usize(&mut bytes, len).unwrap();
            write_u8(&mut bytes, shape).unwrap();
            bytes.push(b'q');
            assert!(HuffmanWavelet::from_bytes(&bytes).is_err(), "len {len} shape {shape}");
        }
        // An empty sequence is written as the empty shape, never as a code.
        let empty_code = coded_bytes(0, &[(b'a', 1), (b'b', 1)], &[&[]]);
        assert!(HuffmanWavelet::from_bytes(&empty_code).is_err());
    }

    #[test]
    fn clean_tree_verifies() {
        let seq: Vec<u8> = (0..500).map(|i| ((i * 37) % 11) as u8).collect();
        let report = HuffmanWavelet::new(&seq).verify(VerifyDepth::Deep);
        assert!(report.is_ok(), "{report}");
    }

    #[test]
    fn drifted_code_lengths_and_node_table_are_caught() {
        let seq: Vec<u8> = (0..500).map(|i| ((i * 37) % 11) as u8).collect();
        let mut wt = HuffmanWavelet::new(&seq);
        wt.lengths[200] = 3;
        assert!(wt.verify(VerifyDepth::Quick).has_code("wt-code-complete"));

        let mut wt = HuffmanWavelet::new(&seq);
        wt.nodes[1].rank += 1;
        assert!(wt.verify(VerifyDepth::Quick).has_code("wt-node-table"));

        let mut wt = HuffmanWavelet::new(&seq);
        wt.levels.pop();
        assert!(wt.verify(VerifyDepth::Quick).has_code("wt-level-len"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn access_rank_is_access_and_its_rank(
            seq in proptest::collection::vec(any::<u8>(), 0..1500),
            modulus in 1u8..=255,
        ) {
            // A small modulus skews the bytes towards a few short codes.
            let seq: Vec<u8> = seq.iter().map(|&b| b % modulus).collect();
            let wt = HuffmanWavelet::new(&seq);
            for (i, &c) in seq.iter().enumerate() {
                prop_assert_eq!(wt.access_rank(i), (wt.access(i), wt.rank(c, i)));
                prop_assert_eq!(wt.access(i), c);
            }
        }
    }
}
