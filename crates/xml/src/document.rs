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
//! succinct tree structure (via [`sxsi_tree::XmlTreeBuilder`]) and the
//! collection text `T` — every text followed by a byte-0 terminator — ready
//! to be handed to the text index, which keeps `T` itself as its plain text.

use crate::parser::{Event, ParseError, Parser};
use sxsi_text::plain::TERMINATOR;
use sxsi_text::suffix::MAX_LEN;
use sxsi_tree::{XmlTree, XmlTreeBuilder};

/// Options controlling model construction.
#[derive(Debug, Clone, Default)]
pub struct DocumentOptions {
    /// Keep character-data runs that consist solely of whitespace.  The paper
    /// keeps them (they are part of the document); benchmarks usually drop
    /// them to focus on meaningful text.  Default: `false`.
    pub keep_whitespace_text: bool,
}

/// The parsed document: tree structure plus the texts in document order.
#[derive(Debug, Clone)]
pub struct ParsedDocument {
    /// The succinct tree index.
    pub tree: XmlTree,
    /// `T`: the texts, in the order of the tree's text leaves, each followed
    /// by a [`TERMINATOR`].  At most [`MAX_LEN`] bytes.
    pub t: Vec<u8>,
}

/// Appends `text` and its terminator to `t`, unless that would make `t`
/// longer than `max_len`.  The parser has already rejected NUL, so `text`
/// holds no terminator.
fn push_text(t: &mut Vec<u8>, text: &str, max_len: usize) -> bool {
    debug_assert!(!text.as_bytes().contains(&TERMINATOR), "the parser rejects NUL");
    if t.len() + text.len() + 1 > max_len {
        return false;
    }
    t.extend_from_slice(text.as_bytes());
    t.push(TERMINATOR);
    true
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
    let mut t: Vec<u8> = Vec::new();
    let too_long = |parser: &Parser| ParseError {
        position: parser.position(),
        message: format!("the texts with their terminators pass the {MAX_LEN} bytes the text index holds"),
    };
    let mut open_names: Vec<String> = Vec::new();

    loop {
        match parser.next_event()? {
            Event::StartElement { name, attributes, self_closing } => {
                builder.open(&name);
                if !attributes.is_empty() {
                    builder.open("@");
                    // Ensure we reuse the reserved id for "@": the registry
                    // already knows it, `open` simply looks it up.
                    for (attr_name, value) in &attributes {
                        builder.open(attr_name);
                        builder.text_leaf(true);
                        if !push_text(&mut t, value, MAX_LEN) {
                            return Err(too_long(&parser));
                        }
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
                if !push_text(&mut t, &text, MAX_LEN) {
                    return Err(too_long(&parser));
                }
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
    let tree = builder.try_finish().map_err(|e| ParseError {
        position: parser.position(),
        message: format!("malformed tree structure: {e}"),
    })?;
    debug_assert_eq!(tree.num_texts(), t.iter().filter(|&&b| b == TERMINATOR).count(), "text leaves and texts must align");
    Ok(ParsedDocument { tree, t })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi_tree::reserved;

    /// The texts of `T`, each up to its terminator.
    fn texts(doc: &ParsedDocument) -> Vec<String> {
        let mut texts: Vec<String> = doc.t.split(|&b| b == 0).map(|x| String::from_utf8(x.to_vec()).unwrap()).collect();
        assert_eq!(texts.pop().as_deref(), Some(""), "T ends with a terminator");
        texts
    }

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
        assert_eq!(texts(&doc).len(), 6);
        assert_eq!(doc.tree.num_texts(), 6);
        // The tree carries the element and attribute counts: one `%` value
        // per attribute, and one non-reserved node per element or
        // attribute name.
        let attributes = doc.tree.tag_count(reserved::ATTRIBUTE_VALUE);
        assert_eq!(attributes, 2);
        assert_eq!(doc.tree.count_elements() - attributes, 6); // parts, part, color, stock, part, stock
    }

    #[test]
    fn figure1_with_whitespace_kept() {
        let opts = DocumentOptions { keep_whitespace_text: true };
        let doc = parse_document_with_options(FIGURE1.as_bytes(), &opts).unwrap();
        // The paper notes seven whitespace-only texts in this document.
        assert_eq!(texts(&doc).len(), 13);
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
        let texts = texts(&doc);
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
        assert!(doc.t.is_empty());
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
        assert_eq!(texts(&doc), vec!["one", "two", "three"]);
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
        // The attribute value and the CDATA text.
        assert_eq!(doc.t, b"1\0x < y\0");
    }

    #[test]
    fn texts_are_written_into_t() {
        let doc = parse_document(b"<a x='v'>one<b/>two<c>three</c></a>").unwrap();
        assert_eq!(doc.t, b"v\0one\0two\0three\0");
        assert_eq!(doc.tree.num_texts(), 4);
    }

    #[test]
    fn nul_is_rejected_at_its_offset() {
        // NUL is no XML character, and byte 0 terminates texts in `T`.
        for (input, at) in [(&b"<a>x\0y</a>"[..], 4), (b"<a b='1\0x'/>", 7), (b"<a><![CDATA[\0]]></a>", 12)] {
            let err = parse_document(input).unwrap_err();
            assert_eq!(err.position, at, "{err}");
            assert!(err.message.contains("NUL"), "{err}");
        }
    }

    #[test]
    fn t_longer_than_the_limit_is_refused() {
        let mut t = Vec::new();
        assert!(push_text(&mut t, "abc", 8));
        assert!(push_text(&mut t, "abc", 8));
        assert_eq!(t, b"abc\0abc\0");
        assert!(!push_text(&mut t, "", 8));
        assert_eq!(t.len(), 8);
        assert!(!push_text(&mut Vec::new(), "abcdefgh", 8));
    }
}
