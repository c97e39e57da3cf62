//! Serialization integration tests: the index is a *self*-index, so the
//! original document (and any subtree) must be reconstructible from it.

use sxsi::{NodeId, SxsiIndex};
use sxsi_datagen::{medline, xmark, MedlineConfig, XMarkConfig};

#[test]
fn whole_document_roundtrips_through_the_index() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.03, seed: 21 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    let rendered = index.get_subtree(index.tree().root());
    // Re-indexing the rendered document gives the same structure and texts.
    let reindexed = SxsiIndex::build_from_xml(rendered.as_bytes()).expect("round-tripped XML parses");
    assert_eq!(reindexed.stats().num_nodes, index.stats().num_nodes);
    assert_eq!(reindexed.stats().num_texts, index.stats().num_texts);
    for query in ["//keyword", "//person", "//item", "//*"] {
        assert_eq!(reindexed.count(query).unwrap(), index.count(query).unwrap(), "{query}");
    }
}

#[test]
fn serialized_results_reparse_and_count_consistently() {
    let xml = medline::generate(&MedlineConfig { num_citations: 40, seed: 22 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    let fragment = index.serialize("//AuthorList").expect("runs");
    let wrapped = format!("<root>{fragment}</root>");
    let reparsed = SxsiIndex::build_from_xml(wrapped.as_bytes()).expect("fragment parses");
    assert_eq!(
        reparsed.count("//AuthorList").unwrap(),
        index.count("//AuthorList").unwrap(),
        "serialized fragments preserve the result set"
    );
    assert_eq!(
        reparsed.count("//Author").unwrap(),
        index.count("//AuthorList/Author").unwrap(),
        "nested content survives serialization"
    );
}

/// The XPath string value of `node`: its text descendants, in order.
fn string_value(index: &SxsiIndex, node: NodeId) -> String {
    let texts: Vec<u8> = index.tree().string_value_texts(node).into_iter().flat_map(|d| index.get_text(d)).collect();
    String::from_utf8_lossy(&texts).into_owned()
}

#[test]
fn node_values_match_serialized_text() {
    let xml = medline::generate(&MedlineConfig { num_citations: 10, seed: 23 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    for node in index.materialize("//LastName").expect("runs") {
        let value = string_value(&index, node);
        let rendered = index.get_subtree(node);
        assert_eq!(rendered, format!("<LastName>{value}</LastName>"));
    }
}

/// Deterministic pseudo-random XML document generator for the round-trip
/// property test: every document mixes plain text, predefined and numeric
/// entities, CDATA sections, attributes (single- and double-quoted) and
/// multi-byte UTF-8 in both content and attribute values.
mod docgen {
    pub struct Rng(u64);

    impl Rng {
        pub fn new(seed: u64) -> Self {
            Rng(seed.wrapping_add(0x9E3779B97F4A7C15))
        }

        pub fn next(&mut self) -> u64 {
            // splitmix64
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }

        pub fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        pub fn pick<'a>(&mut self, options: &[&'a str]) -> &'a str {
            options[self.below(options.len())]
        }
    }

    const TAGS: &[&str] = &["doc", "item", "entry", "ns:el", "x-y", "héader"];
    const ATTR_NAMES: &[&str] = &["id", "name", "lang", "data-x"];
    const ATTR_VALUES: &[&str] =
        &["v1", "a &amp; b", "&quot;quoted&quot;", "düsseldorf", "&#x42;are", "日本"];
    const TEXTS: &[&str] = &[
        "plain text",
        "a &amp; b &lt;tag&gt;",
        "numeric &#65;&#x42;C refs",
        "héllo wörld — ünïcode",
        "日本語テキスト",
        "emoji 🎉 piece",
        "bare & ampersand and &unknown; entity",
        "<![CDATA[<raw> & data]]>",
        "<![CDATA[x < y > z]]>",
    ];

    /// Writes one element (recursively) into `out`.
    fn element(rng: &mut Rng, depth: usize, out: &mut String) {
        let tag = rng.pick(TAGS);
        out.push('<');
        out.push_str(tag);
        for _ in 0..rng.below(3) {
            let quote = if rng.below(2) == 0 { '"' } else { '\'' };
            out.push(' ');
            out.push_str(rng.pick(ATTR_NAMES));
            out.push('=');
            out.push(quote);
            out.push_str(rng.pick(ATTR_VALUES));
            out.push(quote);
        }
        let children = if depth >= 4 { 0 } else { rng.below(4) };
        if children == 0 && rng.below(2) == 0 {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for _ in 0..children {
            if rng.below(3) == 0 {
                element(rng, depth + 1, out);
            } else {
                out.push_str(rng.pick(TEXTS));
            }
        }
        if rng.below(2) == 0 {
            out.push_str(rng.pick(TEXTS));
        }
        out.push_str("</");
        out.push_str(tag);
        out.push('>');
    }

    /// A complete pseudo-random document for `seed`.
    pub fn document(seed: u64) -> String {
        let mut rng = Rng::new(seed);
        let mut out = String::from("<?xml version=\"1.0\"?><root>");
        for _ in 0..1 + rng.below(5) {
            element(&mut rng, 1, &mut out);
        }
        out.push_str("</root>");
        out
    }
}

mod roundtrip_proptests {
    use super::{docgen, string_value};
    use proptest::prelude::*;
    use sxsi::SxsiIndex;

    /// parse → serialize_subtree → re-parse must preserve the document: the
    /// element structure, the tag set and the full text content (in document
    /// order) are unchanged, and a second serialization is byte-identical.
    ///
    /// Text-*node* counts are deliberately not compared: a CDATA section
    /// adjacent to character data parses as two text leaves but serializes
    /// as one contiguous run (CDATA is syntax, not structure), so the
    /// re-parse may legitimately merge neighbouring leaves.
    fn check_roundtrip(xml: &str) {
        let first = SxsiIndex::build_from_xml(xml.as_bytes())
            .unwrap_or_else(|e| panic!("generated document must parse: {e}\n{xml}"));
        let rendered = first.get_subtree(first.tree().root());
        let second = SxsiIndex::build_from_xml(rendered.as_bytes())
            .unwrap_or_else(|e| panic!("serialized document must re-parse: {e}\n{rendered}"));
        assert_eq!(second.stats().num_elements, first.stats().num_elements, "element count\n{xml}");
        assert_eq!(second.stats().num_tags, first.stats().num_tags, "tag count\n{xml}");
        let all_text = |idx: &SxsiIndex| -> Vec<u8> {
            (0..idx.tree().num_texts()).flat_map(|d| idx.get_text(d)).collect()
        };
        assert_eq!(
            String::from_utf8_lossy(&all_text(&second)),
            String::from_utf8_lossy(&all_text(&first)),
            "concatenated text content diverged\n{xml}"
        );
        assert_eq!(
            string_value(&second, second.tree().root()),
            string_value(&first, first.tree().root()),
            "root string value diverged\n{xml}"
        );
        let rendered_again = second.get_subtree(second.tree().root());
        assert_eq!(rendered_again, rendered, "serialization is not a fixpoint\n{xml}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn generated_documents_roundtrip(seed in any::<u64>()) {
            check_roundtrip(&docgen::document(seed));
        }
    }

    #[test]
    fn corpus_documents_roundtrip() {
        use sxsi_datagen::{medline, treebank, wiki, xmark};
        use sxsi_datagen::{MedlineConfig, TreebankConfig, WikiConfig, XMarkConfig};
        check_roundtrip(&xmark::generate(&XMarkConfig { scale: 0.02, seed: 31 }));
        check_roundtrip(&treebank::generate(&TreebankConfig { num_sentences: 60, seed: 31 }));
        check_roundtrip(&medline::generate(&MedlineConfig { num_citations: 25, seed: 31 }));
        check_roundtrip(&wiki::generate(&WikiConfig { num_pages: 20, seed: 31 }));
    }
}

#[test]
fn get_text_matches_document_order() {
    let xml = xmark::generate(&XMarkConfig { scale: 0.02, seed: 24 });
    let index = SxsiIndex::build_from_xml(xml.as_bytes()).expect("builds");
    let tree = index.tree();
    for d in 0..tree.num_texts().min(200) {
        let node = tree.node_of_text(d).expect("text leaf exists");
        assert_eq!(tree.text_id_of_leaf(node), Some(d));
        assert!(!index.get_text(d).is_empty() || index.get_text(d).is_empty());
    }
}
