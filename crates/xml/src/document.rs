//! The SXSI document model (Section 2 of the paper).
//!
//! An XML document is modelled as a labeled tree plus an ordered set of
//! texts:
//!
//! * an extra root labeled `&` is added above the document element;
//! * each non-empty character-data run becomes a leaf labeled `#` holding a
//!   text;
//! * a node with attributes gets a first child labeled `@`; below it, one
//!   child per attribute labeled with the attribute name, each with a `%`
//!   leaf holding the attribute value;
//! * texts receive consecutive identifiers in document order.
//!
//! [`parse_document`] performs a single pass over the input, producing the
//! succinct tree structure (via [`sxsi_tree::XmlTreeBuilder`]) and the list
//! of texts, ready to be handed to the text index.

use crate::parser::{Event, ParseError, Parser};
use sxsi_succinct::SuccinctOptions;
use sxsi_tree::{XmlTree, XmlTreeBuilder};

/// Options controlling model construction.
#[derive(Debug, Clone)]
#[derive(Default)]
pub struct DocumentOptions {
    /// Keep character-data runs that consist solely of whitespace.  The paper
    /// keeps them (they are part of the document); benchmarks usually drop
    /// them to focus on meaningful text.  Default: `false`.
    pub keep_whitespace_text: bool,
    /// Succinct backends used for the tree's bitmaps and tag-occurrence
    /// index.  Default: the interleaved-rank / wavelet-matrix pair.
    pub succinct: SuccinctOptions,
}


/// The parsed document: tree structure plus texts in document order.
#[derive(Debug, Clone)]
pub struct ParsedDocument {
    /// The succinct tree index.
    pub tree: XmlTree,
    /// The texts, in the same order as the tree's text leaves.
    pub texts: Vec<Vec<u8>>,
    /// Number of element nodes (excluding the synthetic `&`, `#`, `@`, `%`
    /// model nodes).
    pub num_elements: usize,
    /// Number of attributes.
    pub num_attributes: usize,
}

impl ParsedDocument {
    /// Borrowed view of the texts (convenient for the text-index builder).
    pub fn text_slices(&self) -> Vec<&[u8]> {
        self.texts.iter().map(|t| t.as_slice()).collect()
    }
}

/// Parses `input` into the SXSI document model with default options.
pub fn parse_document(input: &[u8]) -> Result<ParsedDocument, ParseError> {
    parse_document_with_options(input, &DocumentOptions::default())
}

/// Parses `input` into the SXSI document model.
pub fn parse_document_with_options(
    input: &[u8],
    options: &DocumentOptions,
) -> Result<ParsedDocument, ParseError> {
    let mut parser = Parser::new(input);
    let mut builder = XmlTreeBuilder::new();
    let mut texts: Vec<Vec<u8>> = Vec::new();
    let mut open_names: Vec<String> = Vec::new();
    let mut num_elements = 0usize;
    let mut num_attributes = 0usize;

    loop {
        match parser.next_event()? {
            Event::StartElement { name, attributes, self_closing } => {
                num_elements += 1;
                builder.open(&name);
                if !attributes.is_empty() {
                    builder.open("@");
                    // Ensure we reuse the reserved id for "@": the registry
                    // already knows it, `open` simply looks it up.
                    for (attr_name, value) in &attributes {
                        num_attributes += 1;
                        builder.open(attr_name);
                        builder.text_leaf(true);
                        texts.push(value.clone().into_bytes());
                        builder.close();
                    }
                    builder.close();
                }
                if self_closing {
                    builder.close();
                } else {
                    open_names.push(name);
                }
            }
            Event::EndElement { name } => {
                match open_names.pop() {
                    Some(open) if open == name => builder.close(),
                    Some(open) => {
                        return Err(ParseError {
                            position: parser.position(),
                            message: format!("mismatched end tag </{name}>, expected </{open}>"),
                        })
                    }
                    None => {
                        return Err(ParseError {
                            position: parser.position(),
                            message: format!("unexpected end tag </{name}>"),
                        })
                    }
                }
            }
            Event::Text(text) => {
                if open_names.is_empty() {
                    // Text outside the document element (prolog/epilog
                    // whitespace): ignore.
                    continue;
                }
                if text.is_empty() {
                    continue;
                }
                if !options.keep_whitespace_text && text.chars().all(char::is_whitespace) {
                    continue;
                }
                builder.text_leaf(false);
                texts.push(text.into_bytes());
            }
            Event::Eof => break,
        }
    }
    if let Some(open) = open_names.pop() {
        return Err(ParseError {
            position: parser.position(),
            message: format!("element <{open}> is never closed"),
        });
    }
    // The event loop above already rejects mismatched and unclosed tags, so
    // this cannot fail on parser output — but routing through `try_finish`
    // guarantees that no input, however malformed, can panic the process.
    let tree = builder.try_finish_with(options.succinct.rank).map_err(|e| ParseError {
        position: parser.position(),
        message: format!("malformed tree structure: {e}"),
    })?;
    debug_assert_eq!(tree.num_texts(), texts.len(), "text leaves and texts must align");
    Ok(ParsedDocument { tree, texts, num_elements, num_attributes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi_tree::reserved;

    /// The running example of Figure 1 in the paper.
    const FIGURE1: &str = r#"<parts>
<part name="pen">
   <color>blue</color>
   <stock>40</stock>
   Soon discontinued.
</part>
<part name="rubber">
   <stock>30</stock>
</part>
</parts>"#;

    #[test]
    fn figure1_model_counts() {
        let doc = parse_document(FIGURE1.as_bytes()).unwrap();
        // Texts: pen, blue, 40, "Soon discontinued.", rubber, 30 (whitespace dropped).
        assert_eq!(doc.texts.len(), 6);
        assert_eq!(doc.tree.num_texts(), 6);
        assert_eq!(doc.num_elements, 6); // parts, part, color, stock, part, stock
        assert_eq!(doc.num_attributes, 2);
    }

    #[test]
    fn figure1_with_whitespace_kept() {
        let opts = DocumentOptions { keep_whitespace_text: true, ..DocumentOptions::default() };
        let doc = parse_document_with_options(FIGURE1.as_bytes(), &opts).unwrap();
        // The paper notes seven whitespace-only texts in this document.
        assert_eq!(doc.texts.len(), 13);
    }

    #[test]
    fn figure1_structure_and_text_order() {
        let doc = parse_document(FIGURE1.as_bytes()).unwrap();
        let t = &doc.tree;
        let root = t.root();
        assert_eq!(t.tag_name(t.tag(root)), "&");
        let parts = t.first_child(root).unwrap();
        assert_eq!(t.tag_name(t.tag(parts)), "parts");
        let part1 = t.first_child(parts).unwrap();
        let kids: Vec<&str> = t.children(part1).map(|c| t.tag_name(t.tag(c))).collect();
        assert_eq!(kids, vec!["@", "color", "stock", "#"]);
        // Attribute structure below @.
        let at = t.first_child(part1).unwrap();
        assert_eq!(t.tag(at), reserved::ATTRIBUTES);
        let name_attr = t.first_child(at).unwrap();
        assert_eq!(t.tag_name(t.tag(name_attr)), "name");
        let value_leaf = t.first_child(name_attr).unwrap();
        assert_eq!(t.tag(value_leaf), reserved::ATTRIBUTE_VALUE);
        // Text order: pen, blue, 40, Soon discontinued., rubber, 30.
        let texts: Vec<String> =
            doc.texts.iter().map(|t| String::from_utf8(t.clone()).unwrap()).collect();
        assert_eq!(texts[0], "pen");
        assert_eq!(texts[1], "blue");
        assert_eq!(texts[2], "40");
        assert!(texts[3].contains("Soon discontinued."));
        assert_eq!(texts[4], "rubber");
        assert_eq!(texts[5], "30");
        // The text ids attached to the first part are 0..4.
        assert_eq!(t.text_ids(part1), 0..4);
    }

    #[test]
    fn empty_elements_have_no_texts() {
        let doc = parse_document(b"<a></a>").unwrap();
        assert_eq!(doc.texts.len(), 0);
        assert_eq!(doc.tree.num_nodes(), 2); // & and a
        let doc = parse_document(b"<a><b/><c/></a>").unwrap();
        assert_eq!(doc.tree.num_nodes(), 4);
    }

    #[test]
    fn mismatched_tags_error() {
        assert!(parse_document(b"<a><b></a></b>").is_err());
        assert!(parse_document(b"<a>").is_err());
        assert!(parse_document(b"</a>").is_err());
    }

    #[test]
    fn mixed_content_keeps_every_run() {
        let doc = parse_document(b"<a>one<b>two</b>three</a>").unwrap();
        let texts: Vec<String> =
            doc.texts.iter().map(|t| String::from_utf8(t.clone()).unwrap()).collect();
        assert_eq!(texts, vec!["one", "two", "three"]);
        let t = &doc.tree;
        let a = t.first_child(t.root()).unwrap();
        let kids: Vec<&str> = t.children(a).map(|c| t.tag_name(t.tag(c))).collect();
        assert_eq!(kids, vec!["#", "b", "#"]);
    }

    #[test]
    fn prolog_comments_and_cdata() {
        let input = r#"<?xml version="1.0" encoding="UTF-8"?>
<!-- top comment -->
<doc><item id="1"><![CDATA[x < y]]></item></doc>"#;
        let doc = parse_document(input.as_bytes()).unwrap();
        assert_eq!(doc.texts.len(), 2); // the attribute value and the CDATA text
        assert_eq!(doc.texts[0], b"1");
        assert_eq!(doc.texts[1], b"x < y");
    }
}
