//! The tag sequence and its rank/select support (Section 4.1.2).
//!
//! `Tag` is the sequence of tag identifiers aligned with the parenthesis
//! sequence: position `i` holds the opening code of the node's tag if
//! `Par[i] = '('` and the closing code otherwise.  Access uses a packed
//! [`IntVector`]; `rank`/`select` over each opening tag — the operations
//! behind `TaggedDesc`, `TaggedFoll`, `TaggedPrec` and `SubtreeTags` — are
//! answered by one Elias–Fano *sarray* of occurrence positions per tag,
//! mirroring the paper's per-row Okanohara–Sadakane structures.  Of all
//! this the index file stores only the opening codes, one per node in
//! preorder: `TagSequence::from_opening` derives the closing codes from
//! the parentheses and the sarrays from the codes.

use crate::bp::BalancedParens;
use crate::error::TreeError;
use std::collections::HashMap;
use sxsi_io::{corrupt, read_string, read_usize, write_str, write_usize, IoError, ReadFrom, WriteInto};
use sxsi_succinct::{EliasFano, EliasFanoBuilder, IntVector, SpaceUsage};

/// Numeric identifier of a tag name.
pub type TagId = u32;

/// Well-known tag identifiers of the SXSI document model.  The builder always
/// registers these four first so their ids are stable across documents.
pub mod reserved {
    use super::TagId;
    /// The synthetic super-root `&`.
    pub const ROOT: TagId = 0;
    /// A text node `#`.
    pub const TEXT: TagId = 1;
    /// The attribute container `@`.
    pub const ATTRIBUTES: TagId = 2;
    /// An attribute value leaf `%`.
    pub const ATTRIBUTE_VALUE: TagId = 3;
    /// Names of the reserved tags, in id order.
    pub const NAMES: [&str; 4] = ["&", "#", "@", "%"];
}

/// Mutable tag-name registry used while building a document.
#[derive(Debug, Clone)]
pub struct TagRegistry {
    names: Vec<String>,
    by_name: HashMap<String, TagId>,
}

impl Default for TagRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl TagRegistry {
    /// Creates a registry pre-populated with the reserved model tags.
    pub fn new() -> Self {
        let mut reg = Self { names: Vec::new(), by_name: HashMap::new() };
        for name in reserved::NAMES {
            reg.intern(name);
        }
        reg
    }

    /// Returns the id of `name`, interning it if necessary.
    pub fn intern(&mut self, name: &str) -> TagId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as TagId;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn lookup(&self, name: &str) -> Option<TagId> {
        self.by_name.get(name).copied()
    }

    /// The name of tag `id`.
    pub fn name(&self, id: TagId) -> &str {
        &self.names[id as usize]
    }

    /// Number of distinct tag names (the paper's `t`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if only the reserved names are present.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= reserved::NAMES.len()
    }

    /// All names in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

/// Immutable tag sequence aligned with the parenthesis sequence.
#[derive(Debug, Clone)]
pub struct TagSequence {
    /// Packed codes: `tag` for opening positions, `num_tags + tag` for
    /// closing positions.
    codes: IntVector,
    /// Per tag, the Elias–Fano *sarray* of its opening positions (the
    /// paper's per-row Okanohara–Sadakane layout): a successor query is one
    /// `select0` plus a search of one bucket, a rank the same, a select one
    /// `select1`.
    occurrences: Vec<EliasFano>,
}

/// The packing width of the codes of `num_tags` tags, closing codes
/// included.
fn code_width(num_tags: usize) -> u32 {
    sxsi_succinct::bits::bits_for((2 * num_tags).saturating_sub(1).max(1) as u64)
}

/// The packing width of the opening codes the index file stores:
/// `⌈log₂ num_tags⌉` bits.
pub(crate) fn opening_width(num_tags: usize) -> u32 {
    sxsi_succinct::bits::bits_for(num_tags.saturating_sub(1) as u64)
}

impl TagSequence {
    /// Derives the sequence from the parentheses and the tag of every node
    /// in preorder, the form the index file stores: each closing
    /// parenthesis gets the closing code of its matching open, and each tag
    /// its sarray of opening positions.  The tree builder and the tree
    /// loader both build the sequence here.  Fails when the opening codes
    /// are more or fewer than the nodes, or one is not below `num_tags`.
    ///
    /// One pass over the codes counts each tag, which sizes the sarrays;
    /// one walk over the parentheses, a word at a time, then writes every
    /// code and fills the sarrays.
    pub(crate) fn from_opening<I>(bp: &BalancedParens, opening: I, num_tags: usize) -> Result<Self, TreeError>
    where
        I: IntoIterator<Item = TagId>,
        I::IntoIter: Clone,
    {
        let nodes = bp.len() / 2;
        let mut opening = opening.into_iter();
        let mut counts = vec![0usize; num_tags];
        let mut seen = 0;
        for (k, tag) in opening.clone().enumerate() {
            if k < nodes {
                let count = counts.get_mut(tag as usize).ok_or_else(|| TreeError::TagCodeOutOfRange {
                    code: tag,
                    position: bp.select_open(k + 1).unwrap_or(k),
                    num_tags,
                })?;
                *count += 1;
            }
            seen = k + 1;
        }
        if seen != nodes {
            return Err(TreeError::OpeningCodeCount { codes: seen, nodes });
        }
        let universe = bp.len().max(1) as u64;
        let mut rows: Vec<EliasFanoBuilder> =
            counts.iter().map(|&count| EliasFanoBuilder::new(count, universe)).collect();
        let mut codes = IntVector::new(bp.len(), code_width(num_tags));
        // The tags of the open nodes: BP is balanced, so every close pops one.
        let mut open: Vec<TagId> = Vec::new();
        for (w, mut word) in bp.words().enumerate() {
            for i in w * 64..(w * 64 + 64).min(bp.len()) {
                let code = if word & 1 == 1 {
                    let tag = opening.next().expect("one code per open parenthesis, counted above");
                    rows[tag as usize].push(i as u64);
                    open.push(tag);
                    tag as usize
                } else {
                    open.pop().map_or(0, |tag| tag as usize + num_tags)
                };
                codes.set(i, code as u64);
                word >>= 1;
            }
        }
        let occurrences = rows.into_iter().map(EliasFanoBuilder::finish).collect();
        Ok(Self { codes, occurrences })
    }

    /// The opening codes in preorder, packed in [`opening_width`] bits:
    /// what the index file stores of the sequence.  Reads the code at each
    /// open parenthesis of `bp`, found a word at a time.
    pub(crate) fn opening_codes(&self, bp: &BalancedParens) -> IntVector {
        let mut packed = IntVector::new(self.codes.len() / 2, opening_width(self.num_tags()));
        let mut k = 0;
        for (w, mut word) in bp.words().enumerate() {
            while word != 0 {
                packed.set(k, self.codes.get(w * 64 + word.trailing_zeros() as usize));
                k += 1;
                word &= word - 1;
            }
        }
        packed
    }

    /// Number of parenthesis positions covered.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.codes.len() == 0
    }

    /// Number of distinct tags.
    pub fn num_tags(&self) -> usize {
        self.occurrences.len()
    }

    /// The opening tag id at position `i`, or `None` if `i` holds a closing
    /// code.
    #[inline]
    pub fn opening_tag(&self, i: usize) -> Option<TagId> {
        let c = self.codes.get(i) as usize;
        (c < self.num_tags()).then_some(c as TagId)
    }

    /// The raw code at position `i` (opening `< num_tags`, closing otherwise).
    pub fn code(&self, i: usize) -> u32 {
        self.codes.get(i) as u32
    }

    /// Number of opening occurrences of `tag` in positions `[0, i)`.
    #[inline]
    pub fn rank_open(&self, tag: TagId, i: usize) -> usize {
        self.occurrences[tag as usize].rank(i as u64)
    }

    /// Total number of opening occurrences of `tag`.
    pub fn count(&self, tag: TagId) -> usize {
        self.occurrences[tag as usize].len()
    }

    /// First opening occurrence of `tag` at a position `>= from`, if any.
    #[inline]
    pub fn next_occurrence(&self, tag: TagId, from: usize) -> Option<usize> {
        self.occurrences[tag as usize].successor(from as u64).map(|(_, v)| v as usize)
    }

    /// Last opening occurrence of `tag` at a position `< before`, if any.
    #[inline]
    pub fn prev_occurrence(&self, tag: TagId, before: usize) -> Option<usize> {
        self.occurrences[tag as usize].predecessor(before as u64).map(|(_, v)| v as usize)
    }

    /// The opening occurrences of `tag` at positions `>= from`, in order:
    /// one rank, then a walk over the sarray.
    pub fn occurrences_from(&self, tag: TagId, from: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.occurrences[tag as usize];
        row.iter_from(row.rank(from as u64)).map(|v| v as usize)
    }

    /// Heap bytes used.
    pub fn size_bytes(&self) -> usize {
        self.codes.size_bytes() + self.occurrences.iter().map(|ef| ef.size_bytes()).sum::<usize>()
    }
}

impl sxsi_verify::Verify for TagRegistry {
    fn verify_into(&self, _depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        ctx.check(
            "registry-reserved",
            self.names.len() >= reserved::NAMES.len()
                && self.names.iter().zip(reserved::NAMES).all(|(n, r)| n == r),
            || {
                format!(
                    "first names {:?} are not the reserved set {:?}",
                    &self.names[..self.names.len().min(reserved::NAMES.len())],
                    reserved::NAMES
                )
            },
        );
        let lookup_ok = self.by_name.len() == self.names.len()
            && self
                .names
                .iter()
                .enumerate()
                .all(|(id, n)| self.by_name.get(n) == Some(&(id as TagId)));
        ctx.check("registry-lookup", lookup_ok, || {
            format!(
                "lookup map holds {} entries for {} names, or maps a name to the wrong id",
                self.by_name.len(),
                self.names.len()
            )
        });
    }
}

impl sxsi_verify::Verify for TagSequence {
    fn verify_into(&self, depth: sxsi_verify::VerifyDepth, ctx: &mut sxsi_verify::VerifyContext) {
        let issues_before = ctx.issue_count();
        ctx.enter("codes", |ctx| self.codes.verify_into(depth, ctx));

        let num_tags = self.num_tags();
        let expected_width = code_width(num_tags);
        ctx.check("tag-width", self.codes.width() == expected_width, || {
            format!("codes packed in {} bits, expected {expected_width}", self.codes.width())
        });
        let bad_code = self.codes.iter().position(|c| c as usize >= 2 * num_tags);
        ctx.check("tag-code-range", bad_code.is_none(), || {
            let i = bad_code.unwrap();
            format!("code {} at position {i} is out of range for {num_tags} tags", self.codes.get(i))
        });
        if ctx.issue_count() > issues_before {
            return;
        }

        // Opening-occurrence counts recomputed from the code sequence; the
        // sarray rows must agree with them.
        let mut counts = vec![0usize; num_tags];
        for c in self.codes.iter() {
            if let Some(count) = counts.get_mut(c as usize) {
                *count += 1;
            }
        }
        ctx.check(
            "tag-occ-count",
            self.occurrences.iter().zip(&counts).all(|(r, &c)| r.len() == c),
            || "a sarray row length disagrees with the code sequence".to_string(),
        );
        if depth.is_deep() {
            let mut rows: Vec<_> = self.occurrences.iter().map(|r| r.iter()).collect();
            let positions_ok = self.codes.iter().enumerate().all(|(i, c)| match rows.get_mut(c as usize) {
                Some(row) => row.next() == Some(i as u64),
                None => true,
            });
            ctx.check("tag-occ-positions", positions_ok, || {
                "a sarray row decodes to positions other than the tag's occurrences".to_string()
            });
            for row in &self.occurrences {
                ctx.enter("row", |ctx| row.verify_into(depth, ctx));
            }
        }
    }
}

impl WriteInto for TagRegistry {
    fn write_into<W: std::io::Write + ?Sized>(&self, w: &mut W) -> std::io::Result<()> {
        write_usize(w, self.names.len())?;
        for name in &self.names {
            write_str(w, name)?;
        }
        Ok(())
    }
}

impl ReadFrom for TagRegistry {
    fn read_from<R: std::io::Read + ?Sized>(r: &mut R) -> Result<Self, IoError> {
        let len = read_usize(r)?;
        if len < reserved::NAMES.len() {
            return Err(corrupt(format!("tag registry holds {len} names, fewer than the reserved set")));
        }
        let mut names = Vec::with_capacity(len.min(1 << 16));
        let mut by_name = HashMap::new();
        for id in 0..len {
            let name = read_string(r)?;
            if id < reserved::NAMES.len() && name != reserved::NAMES[id] {
                return Err(corrupt(format!(
                    "reserved tag {id} is {name:?}, expected {:?}",
                    reserved::NAMES[id]
                )));
            }
            if by_name.insert(name.clone(), id as TagId).is_some() {
                return Err(corrupt(format!("duplicate tag name {name:?}")));
            }
            names.push(name);
        }
        Ok(Self { names, by_name })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi_succinct::BitVec;

    /// The sequence of `codes` (opening codes `< num_tags`, closing ones
    /// above), derived the way the builder and the loader derive it: from
    /// its parentheses and its opening codes.
    fn seq(codes: &[u32], num_tags: usize) -> TagSequence {
        let bits: BitVec = codes.iter().map(|&c| (c as usize) < num_tags).collect();
        let opening = codes.iter().copied().filter(|&c| (c as usize) < num_tags);
        TagSequence::from_opening(&BalancedParens::new(&bits), opening, num_tags).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Loads stored opening codes the way the tree loader does.
    fn load(bp: &BalancedParens, bytes: &[u8], num_tags: usize) -> Result<TagSequence, IoError> {
        let opening = IntVector::from_bytes(bytes)?;
        TagSequence::from_opening(bp, opening.iter().map(|c| c as TagId), num_tags).map_err(|e| corrupt(e.to_string()))
    }

    /// The parentheses of `codes`.
    fn parens(codes: &[u32], num_tags: usize) -> BalancedParens {
        BalancedParens::new(&codes.iter().map(|&c| (c as usize) < num_tags).collect())
    }

    #[test]
    fn registry_serialization_roundtrip_and_truncation() {
        let mut reg = TagRegistry::new();
        reg.intern("article");
        reg.intern("title");
        let bytes = reg.to_bytes();
        let back = TagRegistry::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.len(), reg.len());
        assert_eq!(back.lookup("title"), reg.lookup("title"));
        // Truncated input must fail structurally, never panic.
        assert!(TagRegistry::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(TagRegistry::from_bytes(&bytes[..3]).is_err());
        assert!(TagRegistry::from_bytes(&[]).is_err());
    }

    #[test]
    fn sequence_serialization_roundtrip_and_truncation() {
        // Two tags (0, 1); open0 open1 close1 open1 close1 close0.  Only
        // the three opening codes are stored, in one bit each.
        let codes = [0u32, 1, 3, 1, 3, 2];
        let seq = seq(&codes, 2);
        let bp = parens(&codes, 2);
        let stored = seq.opening_codes(&bp);
        assert_eq!((stored.len(), stored.width()), (3, 1));
        assert_eq!(stored.iter().collect::<Vec<_>>(), [0, 1, 1]);
        let bytes = stored.to_bytes();
        let back = load(&bp, &bytes, 2).expect("roundtrip");
        assert_eq!(back.len(), seq.len());
        for i in 0..codes.len() {
            assert_eq!(back.code(i), seq.code(i), "code {i}");
        }
        // Truncated input must fail structurally, never panic.
        assert!(load(&bp, &bytes[..bytes.len() - 1], 2).is_err());
        assert!(load(&bp, &bytes[..1], 2).is_err());
    }

    #[test]
    fn registry_interning() {
        let mut reg = TagRegistry::new();
        assert_eq!(reg.lookup("&"), Some(reserved::ROOT));
        assert_eq!(reg.lookup("#"), Some(reserved::TEXT));
        let a = reg.intern("article");
        let b = reg.intern("title");
        assert_eq!(reg.intern("article"), a);
        assert_ne!(a, b);
        assert_eq!(reg.name(a), "article");
        assert_eq!(reg.len(), 6);
        assert_eq!(reg.lookup("missing"), None);
    }

    #[test]
    fn sequence_rank_select() {
        // Two tags (0, 1); sequence: open0 open1 close1 open1 close1 close0
        // codes: 0, 1, 3, 1, 3, 2
        let codes = [0u32, 1, 3, 1, 3, 2];
        let seq = seq(&codes, 2);
        assert_eq!(seq.len(), 6);
        assert_eq!(seq.opening_tag(0), Some(0));
        assert_eq!(seq.opening_tag(1), Some(1));
        assert_eq!(seq.opening_tag(2), None);
        assert_eq!(seq.count(0), 1);
        assert_eq!(seq.count(1), 2);
        assert_eq!(seq.rank_open(1, 0), 0);
        assert_eq!(seq.rank_open(1, 2), 1);
        assert_eq!(seq.rank_open(1, 6), 2);
        assert_eq!(seq.next_occurrence(1, 2), Some(3));
        assert_eq!(seq.next_occurrence(1, 4), None);
        assert_eq!(seq.prev_occurrence(1, 3), Some(1));
        assert_eq!(seq.prev_occurrence(0, 0), None);
    }

    #[test]
    fn large_sequence_consistency() {
        // Pseudo-random tag stream over 5 tags.
        let num_tags = 5usize;
        let mut codes = Vec::new();
        let mut stack = Vec::new();
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..2000 {
            if stack.is_empty() || next() % 2 == 0 {
                let t = next() % num_tags;
                codes.push(t as u32);
                stack.push(t);
            } else {
                let t = stack.pop().unwrap();
                codes.push((t + num_tags) as u32);
            }
        }
        while let Some(t) = stack.pop() {
            codes.push((t + num_tags) as u32);
        }
        let seq = seq(&codes, num_tags);
        for tag in 0..num_tags as u32 {
            let naive: Vec<usize> =
                codes.iter().enumerate().filter(|(_, &c)| c == tag).map(|(i, _)| i).collect();
            assert_eq!(seq.count(tag), naive.len());
            let mut probe = 0usize;
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(seq.rank_open(tag, i), probe);
                if c == tag {
                    probe += 1;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_codes() {
        // One node "()" whose opening code names a third tag of two.
        TagSequence::from_opening(&parens(&[0, 2], 2), [7], 2).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn try_new_reports_bad_codes() {
        // The fallible derivation reports an out-of-range opening code and
        // a code count other than the node count.
        let bp = parens(&[0, 1, 3, 2], 2);
        assert_eq!(
            TagSequence::from_opening(&bp, [0, 7], 2).unwrap_err(),
            crate::TreeError::TagCodeOutOfRange { code: 7, position: 1, num_tags: 2 }
        );
        assert_eq!(
            TagSequence::from_opening(&bp, [0], 2).unwrap_err(),
            crate::TreeError::OpeningCodeCount { codes: 1, nodes: 2 }
        );
        assert_eq!(
            TagSequence::from_opening(&bp, [0, 1, 1, 0], 2).unwrap_err(),
            crate::TreeError::OpeningCodeCount { codes: 4, nodes: 2 }
        );
    }

    mod verify_tests {
        use super::*;
        use sxsi_verify::{Verify, VerifyDepth};

        fn sample() -> TagSequence {
            // open0 open1 close1 open1 close1 close0, twice.
            let codes = [0u32, 1, 3, 1, 3, 2, 0, 1, 3, 1, 3, 2];
            seq(&codes, 2)
        }

        #[test]
        fn clean_structures_verify() {
            let report = sample().verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "{report}");
            let report = TagRegistry::new().verify(VerifyDepth::Deep);
            assert!(report.is_ok(), "{report}");
        }

        #[test]
        fn registry_reserved_prefix_is_checked() {
            let mut reg = TagRegistry::new();
            reg.names[0] = "x".to_string();
            let report = reg.verify(VerifyDepth::Quick);
            assert!(report.has_code("registry-reserved"), "{report}");
        }

        #[test]
        fn registry_lookup_drift_is_caught() {
            let mut reg = TagRegistry::new();
            reg.intern("article");
            reg.by_name.insert("article".to_string(), 0);
            let report = reg.verify(VerifyDepth::Quick);
            assert!(report.has_code("registry-lookup"), "{report}");
        }

        #[test]
        fn out_of_range_code_is_caught() {
            let mut seq = sample();
            // Dropping a row shrinks the tag count, which puts every
            // closing code out of range.
            seq.occurrences.truncate(1);
            let report = seq.verify(VerifyDepth::Quick);
            assert!(
                report.has_code("tag-code-range") || report.has_code("tag-width"),
                "{report}"
            );
        }

        #[test]
        fn sarray_row_drift_is_caught() {
            let mut seq = sample();
            // Rebuild the occurrence rows from a different code sequence.
            let other = [0u32, 1, 3, 1, 3, 2, 1, 0, 2, 1, 3, 3];
            seq.occurrences = super::seq(&other, 2).occurrences;
            let report = seq.verify(VerifyDepth::Deep);
            assert!(
                report.has_code("tag-occ-count") || report.has_code("tag-occ-positions"),
                "{report}"
            );
        }
    }

    #[test]
    fn registry_serialization_roundtrip() {
        let mut reg = TagRegistry::new();
        reg.intern("article");
        reg.intern("tïtle");
        let back = TagRegistry::from_bytes(&reg.to_bytes()).unwrap();
        assert_eq!(back.names(), reg.names());
        assert_eq!(back.lookup("article"), reg.lookup("article"));
        assert_eq!(back.lookup("&"), Some(reserved::ROOT));
        // A registry whose reserved prefix was tampered with is rejected.
        let mut bytes = reg.to_bytes();
        // First name is "&" at offset 8 (count) + 8 (len prefix).
        bytes[16] = b'x';
        assert!(TagRegistry::from_bytes(&bytes).is_err());
    }

    #[test]
    fn sequence_serialization_roundtrip() {
        let codes = [0u32, 1, 3, 1, 3, 2];
        let seq = seq(&codes, 2);
        let bp = parens(&codes, 2);
        let back = load(&bp, &seq.opening_codes(&bp).to_bytes(), 2).unwrap();
        assert_eq!(back.len(), seq.len());
        assert_eq!(back.num_tags(), 2);
        for i in 0..codes.len() {
            assert_eq!(back.code(i), seq.code(i));
        }
        assert_eq!(back.next_occurrence(1, 2), Some(3));
        assert!(load(&bp, &seq.opening_codes(&bp).to_bytes()[..5], 2).is_err());
    }
}
