//! Oracle tests for the FM-index text collection: `count`, locate and
//! `extract` are checked against naive substring scans over text pools
//! generated with the datagen vocabulary (Medline-like abstracts and
//! wiki-like definition sentences), plus adversarial hand-picked pools.

use sxsi_datagen::text_pool::{paragraph, sentence};
use sxsi_datagen::SimRng;
use sxsi_text::TextCollection;

/// A Medline-like pool: abstract-sized paragraphs from the shared vocabulary.
fn medline_pool(seed: u64, n: usize) -> Vec<String> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let words = 8 + rng.random_range(0..25);
            paragraph(&mut rng, words)
        })
        .collect()
}

/// A wiki-like pool: short definition sentences, including duplicates and
/// empty glosses (empty strings are legal text leaves).
fn wiki_pool(seed: u64, n: usize) -> Vec<String> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.random_bool(0.05) {
                String::new()
            } else {
                let words = 3 + rng.random_range(0..9);
                sentence(&mut rng, words)
            }
        })
        .collect()
}

fn naive_occurrences(texts: &[String], pattern: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (id, t) in texts.iter().enumerate() {
        let bytes = t.as_bytes();
        if pattern.len() > bytes.len() {
            continue;
        }
        for off in 0..=(bytes.len() - pattern.len()) {
            if &bytes[off..off + pattern.len()] == pattern {
                out.push((id, off));
            }
        }
    }
    out
}

fn check_pool(texts: &[String], patterns: &[&str]) {
    let t: Vec<u8> = texts.iter().flat_map(|s| s.bytes().chain([0])).collect();
    for sample_rate in [64, 4] {
        let tc = TextCollection::from_t(t.clone(), sample_rate);
        assert_eq!(tc.num_texts(), texts.len());

        // Round-trip: extract returns every original text unchanged.
        for (id, t) in texts.iter().enumerate() {
            assert_eq!(tc.get_text(id), t.as_bytes(), "extract of text {id}");
            assert_eq!(tc.text(id), t.as_bytes(), "borrowed text {id}");
        }

        for &p in patterns {
            let pat = p.as_bytes();
            let naive = naive_occurrences(texts, pat);

            // count: total number of occurrences across the collection.
            assert_eq!(tc.global_count(pat), naive.len(), "global_count({p:?})");

            // locate: every (text, offset) occurrence, in order.
            assert_eq!(tc.contains_positions(pat), naive, "contains_positions({p:?})");

            // distinct containing texts.
            let mut ids: Vec<usize> = naive.iter().map(|&(id, _)| id).collect();
            ids.dedup();
            assert_eq!(tc.contains(pat), ids, "contains({p:?})");
        }
    }
}

#[test]
fn medline_pool_count_locate_extract() {
    let texts = medline_pool(42, 60);
    // Patterns: whole words from the pool, fragments, cross-word strings
    // with spaces, and strings that cannot occur.
    check_pool(
        &texts,
        &["the", "of", "ion", "a", "es ", " th", "data", "zzzqqq", "compression", ". "],
    );
}

#[test]
fn wiki_pool_count_locate_extract() {
    let texts = wiki_pool(7, 120);
    check_pool(&texts, &["in", "e", " ", "s.", "word", "xyzzy"]);
}

#[test]
fn adversarial_pools() {
    // Repetitive and overlapping content: the backward search must count
    // overlapping occurrences and the locate walk must resolve text
    // boundaries exactly.
    let texts: Vec<String> = vec![
        "aaaaaaa".into(),
        "".into(),
        "abababab".into(),
        "a".into(),
        "".into(),
        "ba".into(),
        "aaab".into(),
    ];
    check_pool(&texts, &["a", "aa", "aaa", "ab", "aba", "b", "bb", "abababab", "c"]);
}

#[test]
fn single_text_round_trip() {
    let texts = vec![String::from("the quick brown fox jumps over the lazy dog")];
    check_pool(&texts, &["the", "fox", " ", "dog", "the quick brown fox jumps over the lazy dog", "cat"]);
}
