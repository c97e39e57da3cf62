//! Serialization of query results back into XML (Section 4.3 of the paper:
//! `GetText` and `GetSubtree`).
//!
//! Given a result node, the serializer walks the succinct tree, emitting tag
//! names from the tag registry and text content from the text collection,
//! undoing the `@`/`%` attribute encoding of the document model and escaping
//! character data.

use sxsi_text::{TextCollection, TextCursor};
use sxsi_tree::{reserved, NodeId, XmlTree};
use sxsi_xml::{escape_attribute, escape_text};

/// Serializes the subtree rooted at `node` into `out`.
///
/// * text (`#`) and attribute-value (`%`) leaves emit their escaped text;
/// * the synthetic root (`&`) emits its children;
/// * elements emit `<name attr="…">…</name>`, reading attributes from the
///   model's `@` container.
pub fn serialize_subtree(tree: &XmlTree, texts: &TextCollection, node: NodeId, out: &mut String) {
    // The text and attribute-value leaves are visited in document order,
    // which is text-id order: one run of `T`.
    serialize_node(tree, &mut texts.cursor(), node, out);
}

fn serialize_node(tree: &XmlTree, texts: &mut TextCursor<'_>, node: NodeId, out: &mut String) {
    let tag = tree.tag(node);
    match tag {
        t if t == reserved::TEXT || t == reserved::ATTRIBUTE_VALUE => {
            if let Some(d) = tree.text_id_of_leaf(node) {
                out.push_str(&escape_text(&String::from_utf8_lossy(texts.text(d))));
            }
        }
        t if t == reserved::ROOT => {
            for child in tree.children(node) {
                serialize_node(tree, texts, child, out);
            }
        }
        t if t == reserved::ATTRIBUTES => {
            // An @ node serialized on its own renders nothing; attributes are
            // emitted by their owning element.
        }
        _ => serialize_element(tree, texts, node, out),
    }
}

fn serialize_element(tree: &XmlTree, texts: &mut TextCursor<'_>, node: NodeId, out: &mut String) {
    let name = tree.tag_name(tree.tag(node));
    out.push('<');
    out.push_str(name);
    let mut content_children = Vec::new();
    for child in tree.children(node) {
        if tree.tag(child) == reserved::ATTRIBUTES {
            for attr in tree.children(child) {
                let attr_name = tree.tag_name(tree.tag(attr));
                out.push(' ');
                out.push_str(attr_name);
                out.push_str("=\"");
                if let Some(value_leaf) = tree.first_child(attr) {
                    if let Some(d) = tree.text_id_of_leaf(value_leaf) {
                        out.push_str(&escape_attribute(&String::from_utf8_lossy(texts.text(d))));
                    }
                }
                out.push('"');
            }
        } else {
            content_children.push(child);
        }
    }
    if content_children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for child in content_children {
        serialize_node(tree, texts, child, out);
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// Serializes the subtree rooted at `node` into a new string.
pub fn subtree_to_string(tree: &XmlTree, texts: &TextCollection, node: NodeId) -> String {
    let mut out = String::new();
    serialize_subtree(tree, texts, node, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi_text::TextCollection;
    use sxsi_xml::parse_document;

    fn build(xml: &str) -> (XmlTree, TextCollection) {
        let doc = parse_document(xml.as_bytes()).unwrap();
        let texts = TextCollection::from_t(doc.t, sxsi_text::fmindex::DEFAULT_SAMPLE_RATE);
        (doc.tree, texts)
    }

    /// The XPath string value of `node`: its text descendants, in order.
    fn string_value(tree: &XmlTree, texts: &TextCollection, node: NodeId) -> String {
        let texts: Vec<u8> = tree.string_value_texts(node).into_iter().flat_map(|d| texts.get_text(d)).collect();
        String::from_utf8_lossy(&texts).into_owned()
    }

    #[test]
    fn roundtrip_simple_document() {
        let xml = r#"<parts><part name="pen"><color>blue</color><stock>40</stock></part></parts>"#;
        let (tree, texts) = build(xml);
        let rendered = subtree_to_string(&tree, &texts, tree.root());
        assert_eq!(rendered, xml);
    }

    #[test]
    fn escaping_special_characters() {
        let xml = r#"<a title="x &amp; &quot;y&quot;">1 &lt; 2 &amp; 3</a>"#;
        let (tree, texts) = build(xml);
        let rendered = subtree_to_string(&tree, &texts, tree.root());
        // Re-parsing the rendered output yields the same values.
        let (tree2, texts2) = build(&rendered);
        assert_eq!(string_value(&tree2, &texts2, tree2.root()), "1 < 2 & 3");
        assert!(rendered.contains("&amp;"));
        assert!(rendered.contains("&quot;") || rendered.contains("\"x & "));
    }

    #[test]
    fn empty_elements_self_close() {
        let (tree, texts) = build("<a><b/><c></c></a>");
        let rendered = subtree_to_string(&tree, &texts, tree.root());
        assert_eq!(rendered, "<a><b/><c/></a>");
    }

    #[test]
    fn string_values() {
        let (tree, texts) = build("<a>one<b>two</b>three</a>");
        let a = tree.first_child(tree.root()).unwrap();
        assert_eq!(string_value(&tree, &texts, a), "onetwothree");
        let b = tree.children(a).find(|&c| tree.tag_name(tree.tag(c)) == "b").unwrap();
        assert_eq!(string_value(&tree, &texts, b), "two");
    }

    #[test]
    fn serializing_a_text_leaf() {
        let (tree, texts) = build("<a>hello</a>");
        let a = tree.first_child(tree.root()).unwrap();
        let leaf = tree.first_child(a).unwrap();
        assert_eq!(subtree_to_string(&tree, &texts, leaf), "hello");
    }
}
