//! Suffix array construction.
//!
//! The FM-index of Section 3 is derived from the Burrows–Wheeler transform,
//! which we compute through a suffix array.  The paper uses an incremental
//! BWT construction tailored to text collections (Sirén, SPIRE 2009); here we
//! use the linear-time SA-IS algorithm (Nong, Zhang & Chan, DCC 2009) over an
//! integer alphabet, which lets us encode the per-text end-markers as
//! *distinct* symbols ordered by text identifier — exactly the end-marker
//! ordering the paper fixes so that `F[i]` holds the terminator of the `i`-th
//! text.
//!
//! A naive `O(n² log n)` construction is kept for differential testing.

/// Builds the suffix array of `s` (plain lexicographic order of suffixes,
/// where a proper prefix sorts before any extension).
///
/// Returns a permutation `sa` of `0..s.len()` such that the suffix starting
/// at `sa[k]` is the `k`-th smallest.
pub fn suffix_array(s: &[u32]) -> Vec<usize> {
    if s.is_empty() {
        return Vec::new();
    }
    // SA-IS needs a unique, smallest, final sentinel: shift symbols by +1 and
    // append 0.
    let max = *s.iter().max().expect("non-empty") as usize;
    let mut t: Vec<usize> = Vec::with_capacity(s.len() + 1);
    t.extend(s.iter().map(|&c| c as usize + 1));
    t.push(0);
    let sa = sais(&t, max + 2);
    // Drop the sentinel suffix (which is always first).
    sa.into_iter().filter(|&p| p < s.len()).collect()
}

/// Naive suffix array construction by comparison sort, used as the reference
/// implementation in tests.
// lint:allow(dead-pub: test oracle for SA-IS)
pub fn suffix_array_naive(s: &[u32]) -> Vec<usize> {
    let mut sa: Vec<usize> = (0..s.len()).collect();
    sa.sort_by(|&a, &b| s[a..].cmp(&s[b..]));
    sa
}

/// Core SA-IS over `text` whose last element must be the unique smallest
/// symbol (the sentinel, value 0).  `alphabet` bounds the symbol values.
fn sais(text: &[usize], alphabet: usize) -> Vec<usize> {
    let n = text.len();
    let mut sa = vec![usize::MAX; n];
    if n == 0 {
        return sa;
    }
    if n == 1 {
        sa[0] = 0;
        return sa;
    }
    if n == 2 {
        // Sentinel is last and smallest.
        sa[0] = 1;
        sa[1] = 0;
        return sa;
    }

    // 1. Classify suffixes: S-type (true) or L-type (false).
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        is_s[i] = text[i] < text[i + 1] || (text[i] == text[i + 1] && is_s[i + 1]);
    }
    let is_lms = |i: usize, is_s: &[bool]| -> bool { i > 0 && is_s[i] && !is_s[i - 1] };

    // Bucket sizes per symbol.
    let mut bucket_sizes = vec![0usize; alphabet];
    for &c in text {
        bucket_sizes[c] += 1;
    }
    let bucket_heads = |bucket_sizes: &[usize]| -> Vec<usize> {
        let mut heads = vec![0usize; alphabet];
        let mut sum = 0;
        for (c, &sz) in bucket_sizes.iter().enumerate() {
            heads[c] = sum;
            sum += sz;
        }
        heads
    };
    let bucket_tails = |bucket_sizes: &[usize]| -> Vec<usize> {
        let mut tails = vec![0usize; alphabet];
        let mut sum = 0;
        for (c, &sz) in bucket_sizes.iter().enumerate() {
            sum += sz;
            tails[c] = sum;
        }
        tails
    };

    // Induced sort given (approximately) sorted LMS suffixes placed at the
    // ends of their buckets.
    let induce = |sa: &mut Vec<usize>, lms_order: &[usize]| {
        sa.iter_mut().for_each(|x| *x = usize::MAX);
        // Place LMS suffixes at bucket tails, in the given order (reversed so
        // the smallest of each bucket ends up first).
        let mut tails = bucket_tails(&bucket_sizes);
        for &p in lms_order.iter().rev() {
            let c = text[p];
            tails[c] -= 1;
            sa[tails[c]] = p;
        }
        // Induce L-type suffixes left-to-right.
        let mut heads = bucket_heads(&bucket_sizes);
        for i in 0..n {
            let p = sa[i];
            if p != usize::MAX && p > 0 && !is_s[p - 1] {
                let c = text[p - 1];
                sa[heads[c]] = p - 1;
                heads[c] += 1;
            }
        }
        // Induce S-type suffixes right-to-left.
        let mut tails = bucket_tails(&bucket_sizes);
        for i in (0..n).rev() {
            let p = sa[i];
            if p != usize::MAX && p > 0 && is_s[p - 1] {
                let c = text[p - 1];
                tails[c] -= 1;
                sa[tails[c]] = p - 1;
            }
        }
    };

    // 2. First induction pass with LMS suffixes in text order to sort the LMS
    //    *substrings*.
    let lms_positions: Vec<usize> = (1..n).filter(|&i| is_lms(i, &is_s)).collect();
    induce(&mut sa, &lms_positions);

    // 3. Name the LMS substrings in the order they appear in `sa`.
    let mut lms_sorted: Vec<usize> = sa.iter().copied().filter(|&p| is_lms(p, &is_s)).collect();
    let mut names = vec![usize::MAX; n];
    let mut current_name = 0usize;
    let lms_substring_end = |p: usize| -> usize {
        // The LMS substring starting at p ends at the next LMS position
        // (inclusive), or at the end of the text.
        let mut j = p + 1;
        while j < n && !is_lms(j, &is_s) {
            j += 1;
        }
        j.min(n - 1)
    };
    let mut prev: Option<usize> = None;
    for &p in &lms_sorted {
        let equal = if let Some(q) = prev {
            let pe = lms_substring_end(p);
            let qe = lms_substring_end(q);
            pe - p == qe - q && text[p..=pe] == text[q..=qe] && is_s[p..=pe] == is_s[q..=qe]
        } else {
            false
        };
        if !equal {
            current_name += 1;
        }
        names[p] = current_name - 1;
        prev = Some(p);
    }

    // 4. Build the reduced problem and solve it (recursively if needed).
    let reduced: Vec<usize> = lms_positions.iter().map(|&p| names[p]).collect();
    let lms_order: Vec<usize> = if current_name == reduced.len() {
        // All names unique: the first induction already sorted the LMS
        // suffixes.
        std::mem::take(&mut lms_sorted)
    } else {
        let reduced_sa = sais(&reduced, current_name);
        reduced_sa.iter().map(|&r| lms_positions[r]).collect()
    };

    // 5. Final induction with correctly sorted LMS suffixes.
    induce(&mut sa, &lms_order);
    sa
}

/// Verifies that `sa` is the suffix array of `s`; used by tests.
// lint:allow(dead-pub: test oracle for SA-IS)
pub fn is_valid_suffix_array(s: &[u32], sa: &[usize]) -> bool {
    if sa.len() != s.len() {
        return false;
    }
    let mut seen = vec![false; s.len()];
    for &p in sa {
        if p >= s.len() || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    sa.windows(2).all(|w| s[w[0]..] < s[w[1]..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(s: &[u32]) {
        let fast = suffix_array(s);
        let naive = suffix_array_naive(s);
        assert_eq!(fast, naive, "input: {s:?}");
        assert!(is_valid_suffix_array(s, &fast));
    }

    fn bytes(s: &str) -> Vec<u32> {
        s.bytes().map(|b| b as u32).collect()
    }

    #[test]
    fn empty_and_tiny() {
        check(&[]);
        check(&[5]);
        check(&[5, 5]);
        check(&[5, 3]);
        check(&[3, 5]);
    }

    #[test]
    fn classic_examples() {
        check(&bytes("banana"));
        check(&bytes("mississippi"));
        check(&bytes("abracadabra"));
        check(&bytes("aaaaaa"));
        check(&bytes("abcabcabc"));
        check(&bytes("zyxwvutsrq"));
    }

    #[test]
    fn with_distinct_terminators() {
        // Simulates the text-collection encoding: three texts with distinct
        // $ symbols 0,1,2 and characters shifted by 3.
        let t = |s: &str, shift: u32| s.bytes().map(|b| b as u32 + shift).collect::<Vec<u32>>();
        let mut seq = Vec::new();
        seq.extend(t("pen", 3));
        seq.push(0);
        seq.extend(t("soon discontinued", 3));
        seq.push(1);
        seq.extend(t("blue", 3));
        seq.push(2);
        check(&seq);
    }

    #[test]
    fn repetitive_input() {
        let mut s = Vec::new();
        for _ in 0..50 {
            s.extend(bytes("ACGTACGT"));
        }
        check(&s);
    }

    #[test]
    fn deep_recursion_case() {
        // Thue-Morse-like sequence forces non-unique LMS names and recursion.
        let mut s = vec![0u32];
        for _ in 0..10 {
            let flipped: Vec<u32> = s.iter().map(|&b| 1 - b).collect();
            s.extend(flipped);
        }
        let s: Vec<u32> = s.iter().map(|&b| b + 1).collect();
        check(&s);
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
                let s: Vec<u32> = (0..len).map(|_| next() % alpha + 1).collect();
                check(&s);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn sais_matches_naive(s in proptest::collection::vec(0u32..12, 0..400)) {
            prop_assert_eq!(suffix_array(&s), suffix_array_naive(&s));
        }

        #[test]
        fn sais_matches_naive_large_alphabet(s in proptest::collection::vec(0u32..50_000, 0..200)) {
            prop_assert_eq!(suffix_array(&s), suffix_array_naive(&s));
        }
    }
}
