//! Balanced parentheses representation of the XML tree structure
//! (Section 4.1.1 of the paper).
//!
//! The tree is encoded as the sequence of `(`/`)` events of a depth-first
//! traversal; a node is identified by the position of its opening
//! parenthesis.  Navigation reduces to *excess searches* over the sequence:
//! `find_close`, `find_open` and `enclose` are forward/backward searches for
//! a target excess value.  We use the practical block-based range-min-max
//! scheme (Arroyuelo, Cánovas, Navarro & Sadakane, ALENEX 2010): the
//! parenthesis bitmap is cut into 512-bit blocks; each block stores the
//! minimum prefix excess reached inside it, with a second superblock level
//! so long searches skip whole regions.  Excess at an arbitrary position is
//! computed in constant time from `rank`.
//!
//! No maximum is kept: every search starts strictly above its target and
//! the excess moves in ±1 steps, so a region whose minimum is at or below
//! the target must contain it.  Inside a block the scan moves a byte at a
//! time through three 256-entry tables (excess change, minimum forward and
//! minimum backward prefix excess of each byte) and only the byte that
//! reaches the target is read bit by bit.

use crate::error::TreeError;
use sxsi_io::{IoError, ReadFrom, WriteInto};
use sxsi_succinct::{BitVec, InterleavedRsBitVector, SpaceUsage};

/// Bits per block of the min directory.
const BLOCK_BITS: usize = 512;
/// Blocks per superblock.
const SUPER_FACTOR: usize = 64;

/// Excess tables of the 256 bytes, bit `k` of a byte being parenthesis `k`
/// (least significant first, as the bitmap stores them).
struct ByteExcess {
    /// Excess change over the whole byte.
    total: [i8; 256],
    /// Minimum of the excess after the first `t` bits, `t` in `1..=8`.
    fwd_min: [i8; 256],
    /// Minimum of the excess before the last `t` bits relative to the end,
    /// `t` in `1..=8`.
    bwd_min: [i8; 256],
}

const fn byte_excess() -> ByteExcess {
    let mut tables = ByteExcess { total: [0; 256], fwd_min: [0; 256], bwd_min: [0; 256] };
    let mut byte = 0;
    while byte < 256 {
        let (mut fwd, mut fwd_min) = (0i8, i8::MAX);
        let (mut bwd, mut bwd_min) = (0i8, i8::MAX);
        let mut k = 0;
        while k < 8 {
            fwd += step((byte >> k) & 1 == 1) as i8;
            bwd -= step((byte >> (7 - k)) & 1 == 1) as i8;
            if fwd < fwd_min {
                fwd_min = fwd;
            }
            if bwd < bwd_min {
                bwd_min = bwd;
            }
            k += 1;
        }
        tables.total[byte] = fwd;
        tables.fwd_min[byte] = fwd_min;
        tables.bwd_min[byte] = bwd_min;
        byte += 1;
    }
    tables
}

static BYTE_EXCESS: ByteExcess = byte_excess();

/// Excess step of a parenthesis: +1 for an open, -1 for a close.
#[inline]
const fn step(open: bool) -> i64 {
    if open {
        1
    } else {
        -1
    }
}

/// Smallest `j` at or after the starting `j` and below `hi` with
/// `E(j + 1) == target`, given `excess == E(j)` and `excess >= target` on
/// entry.
fn fwd_scan(bits: &InterleavedRsBitVector, mut j: usize, hi: usize, mut excess: i64, target: i64) -> Option<usize> {
    while j + 8 <= hi {
        let byte = bits.byte_at(j);
        if excess + BYTE_EXCESS.fwd_min[byte as usize] as i64 <= target {
            let mut e = excess;
            for k in 0..8 {
                e += step((byte >> k) & 1 == 1);
                if e == target {
                    return Some(j + k);
                }
            }
        }
        excess += BYTE_EXCESS.total[byte as usize] as i64;
        j += 8;
    }
    while j < hi {
        excess += step(bits.get(j));
        if excess == target {
            return Some(j);
        }
        j += 1;
    }
    None
}

/// Largest `k` in `[lo, hi]` with `E(k) == target`, given `excess == E(hi)`
/// and `excess >= target`.
fn bwd_scan(bits: &InterleavedRsBitVector, lo: usize, mut k: usize, mut excess: i64, target: i64) -> Option<usize> {
    if excess == target {
        return Some(k);
    }
    while k >= lo + 8 {
        let byte = bits.byte_at(k - 8);
        if excess + BYTE_EXCESS.bwd_min[byte as usize] as i64 <= target {
            let mut e = excess;
            for t in (0..8).rev() {
                e -= step((byte >> t) & 1 == 1);
                if e == target {
                    return Some(k - 8 + t);
                }
            }
        }
        excess -= BYTE_EXCESS.total[byte as usize] as i64;
        k -= 8;
    }
    while k > lo {
        k -= 1;
        excess -= step(bits.get(k));
        if excess == target {
            return Some(k);
        }
    }
    None
}

/// Sweeps the excess over `[lo, hi)` from `excess == E(lo)`: returns
/// `E(hi)` and the minimum of `E(lo + 1 ..= hi)` (`i64::MAX` if empty).
fn sweep(bits: &InterleavedRsBitVector, lo: usize, hi: usize, mut excess: i64) -> (i64, i64) {
    let mut min = i64::MAX;
    let mut j = lo;
    while j + 8 <= hi {
        let byte = bits.byte_at(j) as usize;
        min = min.min(excess + BYTE_EXCESS.fwd_min[byte] as i64);
        excess += BYTE_EXCESS.total[byte] as i64;
        j += 8;
    }
    for j in j..hi {
        excess += step(bits.get(j));
        min = min.min(excess);
    }
    (excess, min)
}

/// Balanced parentheses sequence with navigation support.
///
/// An *open* parenthesis is stored as bit `1`, a *close* parenthesis as `0`.
#[derive(Debug, Clone)]
pub struct BalancedParens {
    bits: InterleavedRsBitVector,
    /// Minimum excess `E(k)` for `k` in `(block_start, block_end]`.
    block_min: Vec<i64>,
    /// Minimum over the blocks of each superblock.
    super_min: Vec<i64>,
}

impl BalancedParens {
    /// Builds the structure from a parenthesis bitmap (`true` = `(`).
    ///
    /// # Panics
    /// Panics if the sequence is not balanced; serving code should prefer
    /// [`BalancedParens::try_new`], which returns a structured error instead.
    pub fn new(parens: &BitVec) -> Self {
        Self::try_new(parens).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible counterpart of [`BalancedParens::new`]: returns
    /// [`TreeError::Unbalanced`] instead of panicking when the sequence has a
    /// non-zero final excess *or* dips below zero anywhere (a malformation
    /// such as `)(` that the navigation operations could otherwise trip
    /// over), so malformed input can never panic a serving process.
    pub fn try_new(parens: &BitVec) -> Result<Self, TreeError> {
        Self::try_from_bits(InterleavedRsBitVector::new(parens))
    }

    /// Builds the directories over an already-frozen bitmap, validating
    /// balance.  This is the reconstruction path used when loading a
    /// persisted index.
    fn try_from_bits(bits: InterleavedRsBitVector) -> Result<Self, TreeError> {
        let len = bits.len();
        let n_blocks = len.div_ceil(BLOCK_BITS).max(1);
        let mut block_min = vec![i64::MAX; n_blocks];
        let mut excess: i64 = 0;
        let mut first_dip: Option<usize> = None;
        for (b, min) in block_min.iter_mut().enumerate() {
            let lo = b * BLOCK_BITS;
            let hi = ((b + 1) * BLOCK_BITS).min(len);
            let (end, block) = sweep(&bits, lo, hi, excess);
            if block < 0 && first_dip.is_none() {
                // Not yet negative at `lo`, so the first dip reaches -1.
                first_dip = fwd_scan(&bits, lo, hi, excess, -1);
            }
            *min = block;
            excess = end;
        }
        if len > 0 && (excess != 0 || first_dip.is_some()) {
            return Err(TreeError::Unbalanced { position: first_dip, final_excess: excess });
        }
        let super_min = block_min.chunks(SUPER_FACTOR).map(|c| c.iter().copied().min().unwrap_or(i64::MAX)).collect();
        Ok(Self { bits, block_min, super_min })
    }

    /// Number of parentheses (twice the number of tree nodes).
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits.len() == 0
    }

    /// The parentheses 64 at a time: bit `k` of word `w` is position
    /// `64 * w + k`, set for an opening parenthesis.
    pub(crate) fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.bits.words()
    }

    /// Whether position `i` holds an opening parenthesis.
    #[inline]
    pub fn is_open(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Number of opening parentheses in `[0, i)`.
    #[inline]
    pub fn rank_open(&self, i: usize) -> usize {
        self.bits.rank1(i)
    }

    /// Position of the `k`-th (1-based) opening parenthesis.
    #[inline]
    pub fn select_open(&self, k: usize) -> Option<usize> {
        self.bits.select1(k)
    }

    /// Prefix excess `E(i)`: number of opens minus closes in `[0, i)`.
    #[inline]
    pub fn excess(&self, i: usize) -> i64 {
        2 * self.bits.rank1(i) as i64 - i as i64
    }

    /// The matching closing parenthesis of the open parenthesis at `i`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `i` is not an opening parenthesis.
    pub fn find_close(&self, i: usize) -> usize {
        debug_assert!(self.is_open(i), "find_close on a closing parenthesis at {i}");
        // Smallest j >= i with E(j + 1) == E(i); E(i+1) = E(i) + 1.
        let target = self.excess(i);
        self.fwd_excess(i, target)
            .unwrap_or_else(|| panic!("unbalanced sequence: no close for open at {i}"))
    }

    /// The matching opening parenthesis of the closing parenthesis at `j`.
    pub fn find_open(&self, j: usize) -> usize {
        debug_assert!(!self.is_open(j), "find_open on an opening parenthesis at {j}");
        // Largest i < j with E(i) == E(j + 1).
        let target = self.excess(j + 1);
        self.bwd_excess(j, target)
            .unwrap_or_else(|| panic!("unbalanced sequence: no open for close at {j}"))
    }

    /// The opening parenthesis of the closest enclosing pair of node `i`
    /// (i.e. the parent), or `None` for the root.
    pub fn enclose(&self, i: usize) -> Option<usize> {
        debug_assert!(self.is_open(i), "enclose on a closing parenthesis at {i}");
        let e = self.excess(i);
        if e == 0 {
            return None;
        }
        self.bwd_excess(i, e - 1)
    }

    /// Heap bytes retained by the structure.
    pub fn size_bytes(&self) -> usize {
        self.bits.size_bytes()
            + std::mem::size_of_val(&self.block_min[..])
            + std::mem::size_of_val(&self.super_min[..])
    }

    /// Smallest `j >= from` with `E(j + 1) == target`, for a `target` no
    /// greater than `E(from)`.
    fn fwd_excess(&self, from: usize, target: i64) -> Option<usize> {
        let len = self.len();
        if from >= len {
            return None;
        }
        // 1. Scan the remainder of the starting block.
        let start_block = from / BLOCK_BITS;
        let hi = ((start_block + 1) * BLOCK_BITS).min(len);
        if let Some(j) = fwd_scan(&self.bits, from, hi, self.excess(from), target) {
            return Some(j);
        }
        // 2. Every excess so far exceeds the target, so the first block
        //    whose minimum reaches it holds the answer.
        let n_blocks = self.block_min.len();
        let mut b = start_block + 1;
        while b < n_blocks {
            if b % SUPER_FACTOR == 0 && self.super_min[b / SUPER_FACTOR] > target {
                b += SUPER_FACTOR;
                continue;
            }
            if self.block_min[b] <= target {
                let lo = b * BLOCK_BITS;
                return fwd_scan(&self.bits, lo, (lo + BLOCK_BITS).min(len), self.excess(lo), target);
            }
            b += 1;
        }
        None
    }

    /// Largest `k < from` with `E(k) == target`, for a `target` below
    /// `E(from)`.
    ///
    /// The search visits, in decreasing order of position: the excess values
    /// at `[lo_start, from)` (the starting block), then the values at
    /// `[lo_b, hi_b]` of the latest earlier block `b` whose directory range
    /// `(lo_b, hi_b]` reaches the target, and finally position 0, whose
    /// excess is always 0.
    fn bwd_excess(&self, from: usize, target: i64) -> Option<usize> {
        if from == 0 {
            return None;
        }
        // 1. Scan `[lo_start, from)` backwards.
        let start_block = (from - 1) / BLOCK_BITS;
        let excess = self.excess(from) - step(self.bits.get(from - 1));
        if let Some(k) = bwd_scan(&self.bits, start_block * BLOCK_BITS, from - 1, excess, target) {
            return Some(k);
        }
        // 2. Walk earlier blocks backwards using the directories.
        let mut b = start_block;
        while b > 0 {
            b -= 1;
            if (b + 1) % SUPER_FACTOR == 0 && self.super_min[b / SUPER_FACTOR] > target {
                // Entering a superblock from its top: skip all of it.
                b -= SUPER_FACTOR - 1;
                continue;
            }
            if self.block_min[b] <= target {
                let lo = b * BLOCK_BITS;
                let hi = lo + BLOCK_BITS;
                return bwd_scan(&self.bits, lo, hi, self.excess(hi), target);
            }
        }
        // 3. Position 0 (excess 0) lies in no block's directory range.
        (target == 0).then_some(0)
    }
}

impl sxsi_verify::Verify for BalancedParens {
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        ctx.enter("bits", |ctx| self.bits.verify_into(depth, ctx));

        let len = self.len();
        let n_blocks = len.div_ceil(BLOCK_BITS).max(1);
        let n_super = n_blocks.div_ceil(SUPER_FACTOR);
        ctx.check(
            "bp-directory-shape",
            self.block_min.len() == n_blocks && self.super_min.len() == n_super,
            || {
                format!(
                    "directories hold {} block and {} super entries, expected {n_blocks} and {n_super}",
                    self.block_min.len(),
                    self.super_min.len()
                )
            },
        );
        if ctx.issue_count() > issues_before {
            return;
        }

        // Recompute the per-block minimum prefix excess and the balance
        // invariant in one sweep (this is what `try_from_bits` validates,
        // re-checked here against in-memory drift).
        let mut excess: i64 = 0;
        let mut dipped = false;
        let mut first_bad_block = None;
        for (b, &stored) in self.block_min.iter().enumerate() {
            let lo = b * BLOCK_BITS;
            let (end, min) = sweep(&self.bits, lo, ((b + 1) * BLOCK_BITS).min(len), excess);
            dipped |= min < 0;
            if stored != min && first_bad_block.is_none() {
                first_bad_block = Some(b);
            }
            excess = end;
        }
        ctx.check("bp-balance", len == 0 || (excess == 0 && !dipped), || {
            format!("sequence unbalanced: final excess {excess}, dipped below zero: {dipped}")
        });
        ctx.check("bp-block-min", first_bad_block.is_none(), || {
            format!("block {} minimum disagrees with a recompute from the bitmap", first_bad_block.unwrap_or_default())
        });
        let super_ok = self
            .block_min
            .chunks(SUPER_FACTOR)
            .zip(&self.super_min)
            .all(|(blocks, &stored)| blocks.iter().copied().min() == Some(stored));
        ctx.check("bp-super-min", super_ok, || {
            "superblock minimum directory disagrees with the block directory".to_string()
        });
    }
}

impl WriteInto for BalancedParens {
    /// Only the parenthesis bitmap is stored; the range-min-max directories
    /// are derived data and are rebuilt — with full balance validation — on
    /// load.
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        self.bits.write_into(w)
    }
}

impl ReadFrom for BalancedParens {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let bits = InterleavedRsBitVector::read_from(r)?;
        Self::try_from_bits(bits).map_err(|e| sxsi_io::corrupt(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds from a "(()...)" string.
    fn bp(s: &str) -> BalancedParens {
        let bits: BitVec = s.chars().map(|c| c == '(').collect();
        BalancedParens::new(&bits)
    }

    /// Naive matching-parenthesis computation.
    fn naive_matches(s: &str) -> Vec<usize> {
        let mut stack = Vec::new();
        let mut m = vec![usize::MAX; s.len()];
        for (i, c) in s.chars().enumerate() {
            if c == '(' {
                stack.push(i);
            } else {
                let o = stack.pop().unwrap();
                m[o] = i;
                m[i] = o;
            }
        }
        m
    }

    fn naive_enclose(s: &str) -> Vec<Option<usize>> {
        let mut stack: Vec<usize> = Vec::new();
        let mut e = vec![None; s.len()];
        for (i, c) in s.chars().enumerate() {
            if c == '(' {
                e[i] = stack.last().copied();
                stack.push(i);
            } else {
                stack.pop();
            }
        }
        e
    }

    fn check(s: &str) {
        let b = bp(s);
        let matches = naive_matches(s);
        let encloses = naive_enclose(s);
        for (i, c) in s.chars().enumerate() {
            if c == '(' {
                assert_eq!(b.find_close(i), matches[i], "find_close({i}) in {s}");
                assert_eq!(b.enclose(i), encloses[i], "enclose({i}) in {s}");
            } else {
                assert_eq!(b.find_open(i), matches[i], "find_open({i}) in {s}");
            }
        }
    }

    #[test]
    fn single_node() {
        check("()");
    }

    #[test]
    fn paper_like_small_trees() {
        check("(()())");
        check("((()())(()))");
        check("(((())))");
        check("(()()()())");
        check("((())(())(()()))");
    }

    #[test]
    fn excess_values() {
        let b = bp("(()())");
        assert_eq!(b.excess(0), 0);
        assert_eq!(b.excess(1), 1);
        assert_eq!(b.excess(2), 2);
        assert_eq!(b.excess(3), 1);
        assert_eq!(b.excess(6), 0);
    }

    #[test]
    fn deep_tree_crossing_blocks() {
        // A path of depth 2000: "(((...)))" forces searches across many blocks.
        let depth = 2000;
        let s: String = "(".repeat(depth) + &")".repeat(depth);
        check(&s);
    }

    #[test]
    fn wide_tree_crossing_blocks() {
        // Root with 3000 leaf children.
        let s: String = format!("({})", "()".repeat(3000));
        let b = bp(&s);
        assert_eq!(b.find_close(0), s.len() - 1);
        assert_eq!(b.enclose(1), Some(0));
        assert_eq!(b.enclose(2 * 1500 + 1), Some(0));
        check(&s);
    }

    #[test]
    fn mixed_random_trees() {
        // Deterministic pseudo-random balanced strings.
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let mut s = String::from("(");
            let mut depth = 1;
            while s.len() < 3000 || depth > 1 {
                if depth <= 1 || (next() % 2 == 0 && s.len() < 4000) {
                    s.push('(');
                    depth += 1;
                } else {
                    s.push(')');
                    depth -= 1;
                }
                if depth == 0 {
                    break;
                }
            }
            if depth == 1 {
                s.push(')');
            }
            check(&s);
        }
    }

    #[test]
    fn rank_select_open() {
        let b = bp("(()(()))");
        assert_eq!(b.rank_open(0), 0);
        assert_eq!(b.rank_open(4), 3);
        assert_eq!(b.select_open(1), Some(0));
        assert_eq!(b.select_open(4), Some(4));
        assert_eq!(b.select_open(5), None);
    }

    #[test]
    #[should_panic(expected = "not balanced")]
    fn unbalanced_rejected() {
        let bits: BitVec = "(()".chars().map(|c| c == '(').collect();
        BalancedParens::new(&bits);
    }

    #[test]
    fn try_new_returns_structured_errors() {
        let bits: BitVec = "(()".chars().map(|c| c == '(').collect();
        assert_eq!(
            BalancedParens::try_new(&bits).unwrap_err(),
            TreeError::Unbalanced { position: None, final_excess: 1 }
        );
        // ")(" has final excess zero but dips below zero at position 0:
        // the old assert-based constructor accepted it and navigation could
        // panic later; try_new rejects it up front.
        let bits: BitVec = ")(".chars().map(|c| c == '(').collect();
        assert_eq!(
            BalancedParens::try_new(&bits).unwrap_err(),
            TreeError::Unbalanced { position: Some(0), final_excess: 0 }
        );
        assert!(BalancedParens::try_new(&BitVec::new()).is_ok());
    }

    #[test]
    fn serialization_roundtrip() {
        for s in ["", "()", "((()())(()))", &("(".repeat(800) + &")".repeat(800))] {
            let b = if s.is_empty() {
                BalancedParens::try_new(&BitVec::new()).unwrap()
            } else {
                bp(s)
            };
            let back = BalancedParens::from_bytes(&b.to_bytes()).unwrap();
            assert_eq!(back.len(), b.len());
            for i in 0..b.len() {
                if b.is_open(i) {
                    assert_eq!(back.find_close(i), b.find_close(i));
                    assert_eq!(back.enclose(i), b.enclose(i));
                }
            }
        }
    }

    mod verify_tests {
        use super::*;
        use sxsi_verify::{Verify, VerifyDepth};

        fn sample() -> BalancedParens {
            // Crosses several 512-bit blocks so the directories are non-trivial.
            let s = "(".repeat(900) + &")".repeat(900);
            bp(&s)
        }

        #[test]
        fn clean_structure_verifies() {
            let report = sample().verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "{report}");
            assert!(report.checks_run >= 4);
        }

        #[test]
        fn corrupt_block_directory_is_caught() {
            let mut b = sample();
            b.block_min[1] -= 1;
            let report = b.verify(VerifyDepth::Quick);
            assert!(report.has_code("bp-block-min"), "{report}");
        }

        #[test]
        fn corrupt_super_directory_is_caught() {
            let mut b = sample();
            b.super_min[0] -= 1;
            let report = b.verify(VerifyDepth::Quick);
            assert!(report.has_code("bp-super-min"), "{report}");
        }

        #[test]
        fn wrong_directory_shape_is_caught() {
            let mut b = sample();
            b.block_min.push(0);
            let report = b.verify(VerifyDepth::Quick);
            assert!(report.has_code("bp-directory-shape"), "{report}");
        }
    }

    #[test]
    fn serialization_rejects_unbalanced_bits() {
        // Craft a serialized form of an unbalanced sequence by serializing
        // the raw bitmap of "(()" directly.
        let bits: BitVec = "(()".chars().map(|c| c == '(').collect();
        let rs = InterleavedRsBitVector::new(&bits);
        let err = BalancedParens::from_bytes(&rs.to_bytes()).unwrap_err();
        assert!(err.to_string().contains("not balanced"), "{err}");
    }
}
