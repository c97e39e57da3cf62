//! Suffix array construction over the collection text `T`.
//!
//! The FM-index of Section 3 is derived from the Burrows–Wheeler transform,
//! which we compute through a suffix array.  The paper uses an incremental
//! BWT construction tailored to text collections (Sirén, SPIRE 2009); here we
//! use the linear-time SA-IS algorithm (Nong, Zhang & Chan, DCC 2009)
//! directly over the bytes of `T`, where every byte 0 is the terminator of
//! one text.
//!
//! The paper fixes the order of the end-markers: the terminator of the
//! `i`-th text sorts `i`-th, below every character, so that `F[i]` holds it.
//! That is the order of `T` with each terminator widened into its own
//! symbol, the `j`-th terminator into `j` and byte `b` into `d + b - 1`.  We
//! get this order by construction instead of by widening, following
//! gSACA-K's treatment of separators (Louza, Gog & Telles, 2017):
//!
//! * byte 0 is one bucket, its slots filled up front with the terminator
//!   positions in text order, and no induce pass ever writes into it;
//! * a terminator is S-type unless it is the last byte of `T`, since what
//!   follows it, a byte or a later terminator, is larger in the widened
//!   order;
//! * naming treats every LMS substring that holds a 0 as unique, as the
//!   widened terminator it holds is.
//!
//! With these rules every pass fills the suffix array exactly as SA-IS over
//! the widened symbols would, so the result is the widened suffix array.
//! Further levels recurse on the `u32` names of the LMS substrings with the
//! same function and no separators.
//!
//! Entries are `u32`, so `|T|` is limited to [`MAX_LEN`] bytes.  The
//! sentinel is virtual, the suffix types are one bit each, each level
//! allocates its bucket arrays once, and the names of the LMS substrings
//! live in the free half of the suffix array, where the level below runs.
//! Beyond `T`, the top level needs `4n` bytes of suffix array and `n / 8` of
//! types; a level below adds its own types and two `u32` per name.
//!
//! A naive `O(n² log n)` construction is kept for differential testing.

/// The longest `T` whose suffix array the `u32` entries hold: every
/// position and the length stay below the empty-slot marker `u32::MAX`.
pub const MAX_LEN: usize = u32::MAX as usize - 1;

/// A slot of the suffix array that holds no suffix yet.
const EMPTY: u32 = u32::MAX;

/// Builds the suffix array of `t`, where every byte 0 is a terminator that
/// sorts below every other byte and below every later terminator; a suffix
/// that is a proper prefix of another sorts first.
///
/// # Panics
/// Panics if `t` is longer than [`MAX_LEN`].
pub fn suffix_array(t: &[u8]) -> Vec<u32> {
    assert!(t.len() <= MAX_LEN, "T holds {} bytes, more than the {MAX_LEN} a u32 suffix array indexes", t.len());
    let mut sa = vec![EMPTY; t.len()];
    sais(t, &mut sa, 256, true);
    sa
}

/// Naive suffix array construction by comparison sort, used as the reference
/// implementation in tests.
// lint:allow(dead-pub: test oracle for SA-IS)
pub fn suffix_array_naive(s: &[u32]) -> Vec<usize> {
    let mut sa: Vec<usize> = (0..s.len()).collect();
    sa.sort_by(|&a, &b| s[a..].cmp(&s[b..]));
    sa
}

/// A symbol of one level: a byte of `T` at the top, the name of an LMS
/// substring below it.
trait Symbol: Copy + Ord + Into<u32> {}

impl<S: Copy + Ord + Into<u32>> Symbol for S {}

/// The bucket index of symbol `c`.
#[inline]
fn rank<S: Symbol>(c: S) -> usize {
    c.into() as usize
}

/// The type of every suffix, one bit each: set for S-type (smaller than
/// the suffix after it), clear for L-type.
struct Types {
    words: Vec<u64>,
}

impl Types {
    fn classify<S: Symbol>(s: &[S], separators: bool) -> Self {
        let mut words = vec![0u64; s.len().div_ceil(64)];
        // The last suffix is L-type: the virtual sentinel after it is smaller.
        let mut next_is_s = false;
        for i in (0..s.len().saturating_sub(1)).rev() {
            let (c, next) = (s[i], s[i + 1]);
            let is_s = (separators && rank(c) == 0) || c < next || (c == next && next_is_s);
            words[i / 64] |= u64::from(is_s) << (i % 64);
            next_is_s = is_s;
        }
        Self { words }
    }

    #[inline]
    fn is_s(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Whether `i` starts an LMS suffix (S-type after an L-type).  The
    /// virtual sentinel is not one: it takes no slot.
    #[inline]
    fn is_lms(&self, i: usize) -> bool {
        i > 0 && self.is_s(i) && !self.is_s(i - 1)
    }
}

/// The bucket of every symbol: `starts[c]..starts[c + 1]` is the slot range
/// of the suffixes beginning with `c`, and `next[c]` the slot an induce pass
/// writes next.
struct Buckets {
    starts: Vec<u32>,
    next: Vec<u32>,
}

impl Buckets {
    fn count<S: Symbol>(s: &[S], alphabet: usize) -> Self {
        let mut starts = vec![0u32; alphabet + 1];
        for &c in s {
            starts[rank(c) + 1] += 1;
        }
        for c in 0..alphabet {
            starts[c + 1] += starts[c];
        }
        Self { starts, next: vec![0; alphabet] }
    }

    fn at_heads(&mut self) {
        let alphabet = self.next.len();
        self.next.copy_from_slice(&self.starts[..alphabet]);
    }

    fn at_tails(&mut self) {
        self.next.copy_from_slice(&self.starts[1..]);
    }

    /// Puts suffix `p`, which begins with `c`, at the head of its bucket.
    #[inline]
    fn push_head(&mut self, sa: &mut [u32], c: usize, p: usize) {
        sa[self.next[c] as usize] = p as u32;
        self.next[c] += 1;
    }

    /// Puts suffix `p`, which begins with `c`, at the tail of its bucket.
    #[inline]
    fn push_tail(&mut self, sa: &mut [u32], c: usize, p: usize) {
        self.next[c] -= 1;
        sa[self.next[c] as usize] = p as u32;
    }
}

/// Fills the bucket of byte 0, the first `d` slots, with the positions of
/// the `d` terminators in text order: their final order.
fn place_terminators<S: Symbol>(s: &[S], sa: &mut [u32]) {
    let positions = s.iter().enumerate().filter(|&(_, &c)| rank(c) == 0);
    for (slot, (p, _)) in sa.iter_mut().zip(positions) {
        *slot = p as u32;
    }
}

/// Induces the L-type suffixes left to right, then the S-type ones right to
/// left, from the LMS suffixes placed at their bucket tails.  With
/// `separators` the bucket of 0 is already final and is never written.
fn induce<S: Symbol>(s: &[S], sa: &mut [u32], types: &Types, buckets: &mut Buckets, separators: bool) {
    let n = s.len();
    buckets.at_heads();
    // The virtual sentinel, smallest of all, induces the last suffix.
    let last = rank(s[n - 1]);
    if !(separators && last == 0) {
        buckets.push_head(sa, last, n - 1);
    }
    for i in 0..n {
        let p = sa[i];
        if p != EMPTY && p > 0 && !types.is_s(p as usize - 1) {
            // L-type: not a terminator, which is S-type unless it is last.
            let j = p as usize - 1;
            buckets.push_head(sa, rank(s[j]), j);
        }
    }
    buckets.at_tails();
    for i in (0..n).rev() {
        let p = sa[i];
        if p != EMPTY && p > 0 && types.is_s(p as usize - 1) {
            let j = p as usize - 1;
            let c = rank(s[j]);
            if !(separators && c == 0) {
                buckets.push_tail(sa, c, j);
            }
        }
    }
}

/// Whether the LMS substrings at `p` and `q`, both `len` symbols long up to
/// and including the next LMS position, are equal.  One that runs into the
/// virtual sentinel is unique, and so with `separators` is one that holds a
/// terminator.  Equal symbols over equal lengths imply equal types.
fn same_lms_substring<S: Symbol>(s: &[S], p: usize, q: usize, len: usize, separators: bool) -> bool {
    let n = s.len();
    if p + len > n || q + len > n {
        return false;
    }
    let (a, b) = (&s[p..p + len], &s[q..q + len]);
    a == b && !(separators && a.iter().any(|&c| rank(c) == 0))
}

/// SA-IS over `s`, whose symbols are below `alphabet`, into `sa` (as long
/// as `s`).  With `separators`, every 0 is a terminator ordered by its
/// position (see the module docs).
fn sais<S: Symbol>(s: &[S], sa: &mut [u32], alphabet: usize, separators: bool) {
    let n = s.len();
    if n == 0 {
        return;
    }
    let types = Types::classify(s, separators);
    let mut buckets = Buckets::count(s, alphabet);

    // 1. Sort the LMS substrings: place the LMS suffixes at their bucket
    //    tails in text order and induce.
    sa.fill(EMPTY);
    if separators {
        place_terminators(s, sa);
    }
    buckets.at_tails();
    for (p, &c) in s.iter().enumerate().skip(1) {
        if types.is_lms(p) && !(separators && rank(c) == 0) {
            buckets.push_tail(sa, rank(c), p);
        }
    }
    induce(s, sa, &types, &mut buckets, separators);

    // 2. Gather the sorted LMS positions into sa[..n1].  No two LMS
    //    positions are adjacent, so n1 <= n / 2.
    let mut n1 = 0;
    for i in 0..n {
        let p = sa[i];
        if p != EMPTY && types.is_lms(p as usize) {
            sa[n1] = p;
            n1 += 1;
        }
    }

    // 3. Name the LMS substrings in sorted order.  The free half holds, at
    //    slot p / 2, first the length of the substring at p, then its name.
    let (sorted, free) = sa.split_at_mut(n1);
    free.fill(EMPTY);
    let mut next_lms = n;
    for p in (1..n).rev() {
        if types.is_lms(p) {
            free[p / 2] = (next_lms - p + 1) as u32;
            next_lms = p;
        }
    }
    let mut names = 0u32;
    let mut prev: Option<(usize, usize)> = None;
    for &p in sorted.iter() {
        let p = p as usize;
        let len = free[p / 2] as usize;
        let same = prev.is_some_and(|(q, q_len)| q_len == len && same_lms_substring(s, p, q, len, separators));
        if !same {
            names += 1;
        }
        free[p / 2] = names - 1;
        prev = Some((p, len));
    }
    // The names in text order, moved to the end of sa: the reduced string.
    let mut end = n;
    for i in (n1..n).rev() {
        if sa[i] != EMPTY {
            end -= 1;
            sa[end] = sa[i];
        }
    }

    // 4. Sort the LMS suffixes: by their names when all differ, else by
    //    recursing on the reduced string.
    let (head, reduced) = sa.split_at_mut(n - n1);
    let sorted = &mut head[..n1];
    if names as usize == n1 {
        for (i, &name) in reduced.iter().enumerate() {
            sorted[name as usize] = i as u32;
        }
    } else {
        sais(reduced, sorted, names as usize, false);
    }
    // Map each rank in the reduced string back to its LMS position.
    for (slot, p) in reduced.iter_mut().zip((1..n).filter(|&p| types.is_lms(p))) {
        *slot = p as u32;
    }
    for r in sorted.iter_mut() {
        *r = reduced[*r as usize];
    }

    // 5. Induce the final order from the sorted LMS suffixes, placed at
    //    their bucket tails from the largest down: each lands at or after
    //    its own slot, so none is overwritten before it moves.
    sa[n1..].fill(EMPTY);
    buckets.at_tails();
    for i in (0..n1).rev() {
        let p = sa[i] as usize;
        sa[i] = EMPTY;
        let c = rank(s[p]);
        if !(separators && c == 0) {
            buckets.push_tail(sa, c, p);
        }
    }
    if separators {
        place_terminators(s, sa);
    }
    induce(s, sa, &types, &mut buckets, separators);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `t` with its terminators widened: the `j`-th into `j`, byte `b`
    /// into `d + b - 1`, the encoding whose plain suffix order the paper
    /// fixes.
    fn widen(t: &[u8]) -> Vec<u32> {
        let d = t.iter().filter(|&&b| b == 0).count() as u32;
        let mut j = 0;
        t.iter()
            .map(|&b| {
                if b == 0 {
                    j += 1;
                    j - 1
                } else {
                    d + b as u32 - 1
                }
            })
            .collect()
    }

    fn check(t: &[u8]) {
        let fast: Vec<usize> = suffix_array(t).into_iter().map(|p| p as usize).collect();
        assert_eq!(fast, suffix_array_naive(&widen(t)), "input: {t:?}");
    }

    /// The texts joined into `T`, each followed by its terminator.
    fn collection(texts: &[&[u8]]) -> Vec<u8> {
        texts.iter().flat_map(|t| t.iter().copied().chain([0])).collect()
    }

    /// SA-IS one level down: `u32` symbols, no separators.
    fn check_names(s: &[u32]) {
        let alphabet = s.iter().max().map_or(0, |&m| m as usize + 1);
        let mut sa = vec![EMPTY; s.len()];
        sais(s, &mut sa, alphabet, false);
        let sa: Vec<usize> = sa.into_iter().map(|p| p as usize).collect();
        assert_eq!(sa, suffix_array_naive(s), "input: {s:?}");
    }

    #[test]
    fn empty_and_tiny() {
        check(&[]);
        check(&[5]);
        check(&[5, 5]);
        check(&[5, 3]);
        check(&[3, 5]);
        check(&[0]);
        check(&[0, 0]);
        check(&[5, 0]);
        check(&[0, 5]);
    }

    #[test]
    fn classic_examples() {
        for s in ["banana", "mississippi", "abracadabra", "aaaaaa", "abcabcabc", "zyxwvutsrq"] {
            check(s.as_bytes());
            check(&collection(&[s.as_bytes()]));
        }
    }

    #[test]
    fn with_distinct_terminators() {
        // The text-collection encoding: three texts, each closed by a 0
        // that sorts by position.
        check(&collection(&[b"pen", b"soon discontinued", b"blue"]));
        check(&collection(&[b"pen", b"Soon discontinued", b"blue", b"40", b"rubber", b"30"]));
    }

    #[test]
    fn empty_texts_and_runs_of_terminators() {
        check(&collection(&[b"", b"ab", b"ab"]));
        check(&collection(&[b"ab", b"", b"ab"]));
        check(&collection(&[b"ab", b"ab", b""]));
        check(&collection(&[b"", b"", b"", b"a", b"", b"", b"a", b""]));
        check(&[0; 40]);
        check(&collection(&[&b"a"[..]; 30]));
    }

    #[test]
    fn one_repeated_byte_and_high_bytes() {
        check(&collection(&[&[b'x'; 100]]));
        check(&collection(&[&[0xff; 50], &[0xff; 49], &[0x80; 3]]));
        let high: Vec<u8> = (0x80..=0xffu8).chain((0x80..=0xffu8).rev()).collect();
        check(&collection(&[&high, &high[..64], b"", &high[60..]]));
    }

    #[test]
    fn repetitive_input() {
        check(&"ACGTACGT".repeat(50).into_bytes());
        let texts: Vec<&[u8]> = vec![b"ACGTACGT"; 50];
        check(&collection(&texts));
    }

    #[test]
    fn deep_recursion_case() {
        // A Thue–Morse sequence forces non-unique LMS names and recursion,
        // both as one text and cut into texts.
        let mut s = vec![1u8];
        for _ in 0..10 {
            let flipped: Vec<u8> = s.iter().map(|&b| 3 - b).collect();
            s.extend(flipped);
        }
        check(&s);
        check(&collection(&[&s]));
        let cut: Vec<&[u8]> = s.chunks(37).collect();
        check(&collection(&cut));
        check_names(&s.iter().map(|&b| b as u32).collect::<Vec<_>>());
    }

    #[test]
    fn medium_random_inputs() {
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for len in [10usize, 100, 1000] {
            for alpha in [2u32, 4, 26, 250] {
                // Bytes 0..alpha: every 0 a terminator, ending with one.
                let mut t: Vec<u8> = (0..len).map(|_| (next() % alpha) as u8).collect();
                t.push(0);
                check(&t);
                check_names(&t.iter().map(|&b| b as u32).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn lms_substrings_holding_a_terminator_are_unique() {
        // "bab$bab$baab$": the LMS substrings at the first two terminators
        // hold equal bytes, but the terminators differ; named alike, the
        // suffixes at 0 and 4 would come out in the wrong order.
        check(b"bab\0bab\0baab\0");
        // Texts drawn from a few short words repeat such substrings often.
        let words: [&[u8]; 4] = [b"", b"ab", b"bab", b"baab"];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..2_000 {
            let texts: Vec<&[u8]> = (0..8)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    words[(state >> 62) as usize]
                })
                .collect();
            check(&collection(&texts));
        }
    }

    #[test]
    fn many_random_collections() {
        // Differential run over small random collections: few symbols, so
        // empty texts, runs of terminators and repeats are common.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..2_000 {
            let len = next(60) as usize;
            let alpha = [2, 3, 5, 256][next(4) as usize];
            let mut t: Vec<u8> = (0..len).map(|_| next(alpha) as u8).collect();
            t.push(0);
            check(&t);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn naive(t: &[u8]) -> Vec<usize> {
        let d = t.iter().filter(|&&b| b == 0).count() as u32;
        let mut j = 0;
        let wide: Vec<u32> = t
            .iter()
            .map(|&b| if b == 0 { j += 1; j - 1 } else { d + b as u32 - 1 })
            .collect();
        suffix_array_naive(&wide)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn sais_matches_naive(mut t in proptest::collection::vec(0u8..12, 0..400)) {
            t.push(0);
            let sa: Vec<usize> = suffix_array(&t).into_iter().map(|p| p as usize).collect();
            prop_assert_eq!(sa, naive(&t));
        }

        #[test]
        fn sais_matches_naive_large_alphabet(s in proptest::collection::vec(0u32..50_000, 0..200)) {
            // One level down, over LMS names: a plain u32 alphabet.
            let mut sa = vec![EMPTY; s.len()];
            sais(&s, &mut sa, 50_000, false);
            let sa: Vec<usize> = sa.into_iter().map(|p| p as usize).collect();
            prop_assert_eq!(sa, suffix_array_naive(&s));
        }

        #[test]
        fn sais_matches_naive_on_collections(texts in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..6), 1..30)) {
            // Few symbols, high bytes among them: empty texts, runs of
            // terminators and repeats are common.
            let symbol = |k: u8| [b'a', b'b', 0x80, 0xff][k as usize];
            let t: Vec<u8> = texts.iter().flat_map(|x| x.iter().map(|&k| symbol(k)).chain([0])).collect();
            let sa: Vec<usize> = suffix_array(&t).into_iter().map(|p| p as usize).collect();
            prop_assert_eq!(sa, naive(&t));
        }
    }
}
