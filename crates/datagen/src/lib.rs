//! Deterministic synthetic XML corpus generators.
//!
//! The paper evaluates SXSI on XMark documents, Medline bibliographic data,
//! the Penn Treebank, an English Wiktionary dump and a BioXML file combining
//! gene annotations with DNA sequences.  Those corpora cannot be shipped
//! here, so this crate generates documents with the same element
//! vocabulary, nesting structure and text characteristics, driven by a seed
//! and a scale factor so every experiment is reproducible.  The substitution
//! rationale is documented per corpus in `DESIGN.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bio;
pub mod medline;
pub mod text_pool;
pub mod treebank;
pub mod wiki;
pub mod xmark;

pub use bio::BioConfig;
pub use medline::MedlineConfig;
pub use treebank::TreebankConfig;
pub use wiki::WikiConfig;
pub use xmark::XMarkConfig;

/// A small deterministic generator (SplitMix64-based) used by every corpus
/// builder; keeping it internal avoids depending on an external RNG's
/// stability guarantees for reproducible corpora.
#[derive(Debug, Clone)]
pub struct SimRng(u64);

impl SimRng {
    /// Creates a generator from a seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub fn random(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in the half-open range.
    pub fn random_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.end > range.start, "empty range");
        range.start + (self.next_u64() as usize) % (range.end - range.start)
    }

    /// Bernoulli draw with probability `p`.
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random() < p
    }
}

/// Creates the deterministic random generator used by every corpus builder.
pub(crate) fn rng(seed: u64) -> SimRng {
    SimRng::seed_from_u64(seed)
}

/// A tiny helper collecting XML fragments.
#[derive(Debug, Default)]
pub(crate) struct XmlWriter {
    out: String,
    stack: Vec<&'static str>,
}

impl XmlWriter {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn open(&mut self, tag: &'static str) {
        self.out.push('<');
        self.out.push_str(tag);
        self.out.push('>');
        self.stack.push(tag);
    }

    pub(crate) fn open_with_attrs(&mut self, tag: &'static str, attrs: &[(&str, &str)]) {
        self.out.push('<');
        self.out.push_str(tag);
        for (k, v) in attrs {
            self.out.push(' ');
            self.out.push_str(k);
            self.out.push_str("=\"");
            self.out.push_str(v);
            self.out.push('"');
        }
        self.out.push('>');
        self.stack.push(tag);
    }

    pub(crate) fn close(&mut self) {
        let tag = self.stack.pop().expect("close without open");
        self.out.push_str("</");
        self.out.push_str(tag);
        self.out.push('>');
    }

    pub(crate) fn text(&mut self, text: &str) {
        for c in text.chars() {
            match c {
                '&' => self.out.push_str("&amp;"),
                '<' => self.out.push_str("&lt;"),
                '>' => self.out.push_str("&gt;"),
                _ => self.out.push(c),
            }
        }
    }

    pub(crate) fn element(&mut self, tag: &'static str, text: &str) {
        self.open(tag);
        self.text(text);
        self.close();
    }

    pub(crate) fn finish(self) -> String {
        assert!(self.stack.is_empty(), "unclosed elements in generator output");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_wellformed_fragments() {
        let mut w = XmlWriter::new();
        w.open("a");
        w.open_with_attrs("b", &[("id", "1")]);
        w.text("x < y & z");
        w.close();
        w.element("c", "plain");
        w.close();
        let s = w.finish();
        assert_eq!(s, "<a><b id=\"1\">x &lt; y &amp; z</b><c>plain</c></a>");
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            xmark::generate(&XMarkConfig { scale: 0.05, seed: 7 }),
            xmark::generate(&XMarkConfig { scale: 0.05, seed: 7 })
        );
        assert_ne!(
            xmark::generate(&XMarkConfig { scale: 0.05, seed: 7 }),
            xmark::generate(&XMarkConfig { scale: 0.05, seed: 8 })
        );
        assert_eq!(
            medline::generate(&MedlineConfig { num_citations: 50, seed: 3 }),
            medline::generate(&MedlineConfig { num_citations: 50, seed: 3 })
        );
        assert_eq!(
            treebank::generate(&TreebankConfig { num_sentences: 40, seed: 1 }),
            treebank::generate(&TreebankConfig { num_sentences: 40, seed: 1 })
        );
        assert_eq!(
            wiki::generate(&WikiConfig { num_pages: 20, seed: 2 }),
            wiki::generate(&WikiConfig { num_pages: 20, seed: 2 })
        );
        assert_eq!(
            bio::generate(&BioConfig { num_genes: 10, seed: 9 }),
            bio::generate(&BioConfig { num_genes: 10, seed: 9 })
        );
    }

    #[test]
    fn generated_documents_parse() {
        for xml in [
            xmark::generate(&XMarkConfig { scale: 0.05, seed: 1 }),
            medline::generate(&MedlineConfig { num_citations: 30, seed: 1 }),
            treebank::generate(&TreebankConfig { num_sentences: 30, seed: 1 }),
            wiki::generate(&WikiConfig { num_pages: 10, seed: 1 }),
            bio::generate(&BioConfig { num_genes: 5, seed: 1 }),
        ] {
            let doc = sxsi_xml::parse_document(xml.as_bytes()).expect("generated XML parses");
            assert!(doc.tree.num_nodes() > 10);
            assert!(doc.tree.num_texts() > 5);
        }
    }
}
