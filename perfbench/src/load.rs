//! Seeded load generation: the random source, the Zipf request counts and
//! the search-term vocabulary.  Nothing here calls the program under test —
//! the program sees only what these generators produce.

use std::collections::HashMap;

/// SplitMix64: the benchmark's only source of randomness, so that one seed
/// fixes every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that the parts
    /// of one run (corpora, operands, each client's requests) do not share
    /// a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform integer below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How often each of `n` ranks occurs in a sequence of `length` requests
/// under Zipf(s = 1): rank `r` gets its expected share `length / (r+1) / H`,
/// rounded by largest remainder so that the counts add up to `length`.
///
/// Expected counts, not random draws: every seed then sends the same
/// multiset of ranks, and only which request holds which rank (and the order
/// of the sequence) depends on the seed.  A sequence of i.i.d. draws of this
/// length would differ between seeds by which rare requests it happened to
/// contain, and a pass's cost with it.
pub fn zipf_counts(n: usize, length: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let exact: Vec<f64> = (1..=n)
        .map(|r| length as f64 / r as f64 / harmonic)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b].fract())
            .total_cmp(&exact[a].fract())
            .then(a.cmp(&b))
    });
    let missing = length.saturating_sub(counts.iter().sum());
    for &rank in by_remainder.iter().take(missing) {
        counts[rank] += 1;
    }
    counts
}

/// The words of a corpus by document-frequency band, and its adjacent word
/// pairs, taken from the generated XML itself (character data only), so the
/// search terms are "the corpus's own tokens" whatever the generator does.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    /// The most frequent words that are not part of another word of the
    /// corpus.  A search for `the` also walks every `their` and `other` on
    /// the FM-index and costs three times a search for `with`, so whether a
    /// seed happened to draw it decided the cost of the seed's searches.
    pub frequent: Vec<String>,
    /// Words around the middle of the frequency order.
    pub mid: Vec<String>,
    /// Words that occur a handful of times.
    pub rare: Vec<String>,
    /// Adjacent word pairs that occur several times.
    pub pairs: Vec<(String, String)>,
}

impl Vocabulary {
    /// Scans `xml`, counting alphabetic words of three or more letters in
    /// character data (tags, attributes and entity references skipped).
    pub fn of(xml: &str) -> Vocabulary {
        let mut counts: HashMap<&str, u32> = HashMap::new();
        let mut pair_counts: HashMap<(&str, &str), u32> = HashMap::new();
        let bytes = xml.as_bytes();
        let (mut i, mut previous) = (0, None::<&str>);
        while i < bytes.len() {
            match bytes[i] {
                b'<' => {
                    while i < bytes.len() && bytes[i] != b'>' {
                        i += 1;
                    }
                    previous = None;
                }
                b'&' => {
                    while i < bytes.len() && bytes[i] != b';' {
                        i += 1;
                    }
                    previous = None;
                }
                b if b.is_ascii_alphanumeric() => {
                    let start = i;
                    while i < bytes.len() && bytes[i].is_ascii_alphanumeric() {
                        i += 1;
                    }
                    let word = &xml[start..i];
                    let wordlike = word.len() >= 3 && word.bytes().all(|b| b.is_ascii_alphabetic());
                    // Only a single space keeps two words adjacent enough
                    // to be searched as a phrase.
                    if wordlike {
                        *counts.entry(word).or_default() += 1;
                        if let Some(before) = previous {
                            *pair_counts.entry((before, word)).or_default() += 1;
                        }
                    }
                    previous = (wordlike && bytes.get(i) == Some(&b' ')).then_some(word);
                    continue;
                }
                b' ' => {}
                _ => previous = None,
            }
            i += 1;
        }
        // Deterministic order: by count, then alphabetically (HashMap
        // iteration order differs between runs).
        let mut words: Vec<(&str, u32)> = counts.into_iter().collect();
        words.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let own =
            |slice: &[(&str, u32)]| slice.iter().map(|(w, _)| w.to_string()).collect::<Vec<_>>();
        let n = words.len();
        let band = (n / 10).clamp(1, 40).min(n);
        let inside_another = |word: &str| {
            words
                .iter()
                .any(|(w, _)| w.len() > word.len() && w.contains(word))
        };
        let frequent: Vec<String> = words
            .iter()
            .filter(|(word, _)| !inside_another(word))
            .take(band)
            .map(|(word, _)| word.to_string())
            .collect();
        let mid_start = (n / 2).saturating_sub(band / 2);
        let rare_start = words
            .iter()
            .position(|(_, c)| *c <= 4)
            .unwrap_or(n.saturating_sub(band));
        let mut pairs: Vec<((&str, &str), u32)> =
            pair_counts.into_iter().filter(|(_, c)| *c >= 3).collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        Vocabulary {
            frequent,
            mid: own(&words[mid_start..(mid_start + band).min(n)]),
            rare: own(&words[rare_start.min(n)..(rare_start + band).min(n)]),
            pairs: pairs
                .iter()
                .take(200)
                .map(|((a, b), _)| (a.to_string(), b.to_string()))
                .collect(),
        }
    }

    /// `k` distinct words of `band` (fewer when the band is smaller), chosen
    /// by `rng`.
    pub fn draw(rng: &mut Rng, band: &[String], k: usize) -> Vec<String> {
        let mut shuffled: Vec<&String> = band.iter().collect();
        rng.shuffle(&mut shuffled);
        shuffled.into_iter().take(k).cloned().collect()
    }
}

/// FNV-1a 64-bit, the digest of every `answers_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer in.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn zipf_counts_follow_one_over_rank_and_add_up() {
        let counts = zipf_counts(512, 2000);
        assert_eq!(counts.iter().sum::<usize>(), 2000);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "monotone in rank");
        // weight(0) / weight(9) = 10
        assert!(
            (9..=11).contains(&(counts[0] / counts[9])),
            "{} vs {}",
            counts[0],
            counts[9]
        );
        assert!(counts[400] >= 1, "the tail of the pool is requested too");
        let mut order: Vec<usize> = (0..100).collect();
        Rng::new(1, 0).shuffle(&mut order);
        assert_ne!(order, (0..100).collect::<Vec<_>>());
        order.sort_unstable();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn vocabulary_reads_character_data_only() {
        let xml = "<doc id=\"attr\"><p>blood cell blood cell blood cell count &amp; more</p>\
                   <p>blood cell blood cell</p><p>blood cell</p><q>rareword</q></doc>";
        let v = Vocabulary::of(xml);
        assert_eq!(v.frequent[0], "blood");
        let nested = Vocabulary::of("<p>the the the the the the their other cell cell</p>");
        assert_eq!(nested.frequent, ["cell"], "`the` is inside `their`");
        assert!(v.pairs.contains(&("blood".into(), "cell".into())));
        let all: Vec<&String> = v.frequent.iter().chain(&v.mid).chain(&v.rare).collect();
        assert!(!all
            .iter()
            .any(|w| *w == "doc" || *w == "attr" || *w == "amp"));
        assert_eq!(
            v.rare,
            ["count"],
            "the first of the words seen at most four times"
        );
    }

    #[test]
    fn fnv_known_vector() {
        let mut f = Fnv::default();
        f.bytes(b"a");
        assert_eq!(f.0, 0xaf63dc4c8601ec8c);
    }
}
