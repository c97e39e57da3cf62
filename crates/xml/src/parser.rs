//! A small, self-contained XML parser producing SAX-like events.
//!
//! SXSI builds its indexes from a single streaming pass over the document
//! (the paper uses libxml2's SAX interface); this module provides that pass
//! without external dependencies.  The parser covers the XML subset needed
//! for the paper's corpora: elements, attributes, character data, CDATA
//! sections, comments, processing instructions, an (ignored) DOCTYPE, and
//! the predefined plus numeric character entities.  A NUL byte is an error
//! wherever it appears in character data, CDATA, attribute values, comments
//! or processing instructions: it is no XML character, and the text index
//! terminates every text with it.

// lint:allow-file(index: the cursor invariant `pos <= input.len()` is
// established by eof()/peek() guards before every direct access; the
// fuzzer's xml driver exercises this file with arbitrary bytes)

use std::fmt;

/// A SAX-like event emitted by [`Parser`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name attr="value" …>` — attributes are `(name, unescaped value)`.
    StartElement {
        /// Element name.
        name: String,
        /// Attribute name/value pairs in document order.
        attributes: Vec<(String, String)>,
        /// Whether the element is self-closing (`<a/>`); no matching
        /// [`Event::EndElement`] will follow.
        self_closing: bool,
    },
    /// `</name>`
    EndElement {
        /// Element name.
        name: String,
    },
    /// Character data (entity references already resolved) or CDATA content.
    Text(String),
    /// End of the document.
    Eof,
}

/// Error raised on malformed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The error for a NUL byte: no XML character, and in `T` the terminator
/// of every text.
const NUL_MESSAGE: &str = "NUL byte: not an XML character";

/// Streaming XML parser.
pub struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// Creates a parser over the input bytes.
    pub fn new(input: &'a [u8]) -> Self {
        Self { input, pos: 0 }
    }

    /// Current byte offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { position: self.pos, message: message.into() })
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    #[inline]
    fn starts_with(&self, s: &[u8]) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &[u8]) -> Result<(), ParseError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            self.err(format!("expected {:?}", String::from_utf8_lossy(s)))
        }
    }

    /// Reads up to `delim` and past it.  Rejects NUL on the way: the
    /// constructs read this way (comments, processing instructions, CDATA,
    /// attribute values) hold XML characters only.
    fn read_until(&mut self, delim: &[u8]) -> Result<&'a [u8], ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == 0 {
                return self.err(NUL_MESSAGE);
            }
            if self.starts_with(delim) {
                let out = &self.input[start..self.pos];
                self.pos += delim.len();
                return Ok(out);
            }
            self.pos += 1;
        }
        self.err(format!("unterminated construct, expected {:?}", String::from_utf8_lossy(delim)))
    }

    fn read_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') || b >= 0x80 {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected a name");
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    /// Returns the next event, or `Event::Eof` at end of input.
    pub fn next_event(&mut self) -> Result<Event, ParseError> {
        loop {
            if self.pos >= self.input.len() {
                return Ok(Event::Eof);
            }
            if self.peek() == Some(b'<') {
                if self.starts_with(b"<!--") {
                    self.pos += 4;
                    self.read_until(b"-->")?;
                    continue;
                }
                if self.starts_with(b"<![CDATA[") {
                    self.pos += 9;
                    let content = self.read_until(b"]]>")?;
                    return Ok(Event::Text(String::from_utf8_lossy(content).into_owned()));
                }
                if self.starts_with(b"<!DOCTYPE") || self.starts_with(b"<!doctype") {
                    self.skip_doctype()?;
                    continue;
                }
                if self.starts_with(b"<?") {
                    self.pos += 2;
                    self.read_until(b"?>")?;
                    continue;
                }
                if self.starts_with(b"</") {
                    self.pos += 2;
                    let name = self.read_name()?;
                    self.skip_whitespace();
                    self.expect(b">")?;
                    return Ok(Event::EndElement { name });
                }
                return self.parse_start_element();
            }
            // Character data up to the next '<'.
            let start = self.pos;
            while let Some(b) = self.peek() {
                match b {
                    b'<' => break,
                    0 => return self.err(NUL_MESSAGE),
                    _ => self.pos += 1,
                }
            }
            let raw = &self.input[start..self.pos];
            return Ok(Event::Text(unescape(raw)));
        }
    }

    fn parse_start_element(&mut self) -> Result<Event, ParseError> {
        self.expect(b"<")?;
        let name = self.read_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Event::StartElement { name, attributes, self_closing: false });
                }
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b">")?;
                    return Ok(Event::StartElement { name, attributes, self_closing: true });
                }
                Some(_) => {
                    let attr_name = self.read_name()?;
                    self.skip_whitespace();
                    self.expect(b"=")?;
                    self.skip_whitespace();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return self.err("expected a quoted attribute value"),
                    };
                    self.pos += 1;
                    let value = self.read_until(&[quote])?;
                    attributes.push((attr_name, unescape(value)));
                }
                None => return self.err("unexpected end of input inside a tag"),
            }
        }
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        // Skip "<!DOCTYPE ... >" allowing one level of [...] internal subset.
        self.pos += 9;
        let mut depth = 0usize;
        while self.pos < self.input.len() {
            match self.input[self.pos] {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        self.err("unterminated DOCTYPE")
    }
}

/// Resolves entity and character references in raw character data.
///
/// Unrecognised or malformed references (`&unknown;`, `&#;`, `&#x;`, bare
/// `&`, out-of-range code points such as `&#x110000;`) are preserved
/// literally, matching the lenient behaviour real-world corpora require.
///
/// The lookahead after an `&` only walks bytes that can legally appear in an
/// entity body (ASCII alphanumerics and `#`), stopping at the first other
/// byte.  This keeps the function linear — character data full of bare
/// ampersands previously scanned ahead to the end of the run for a `;` that
/// never comes, giving O(n²) — while still decoding every reference the
/// unbounded scan decoded (entity bodies containing other bytes were never
/// recognised anyway).
pub fn unescape(raw: &[u8]) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'&' {
            let mut body_end = i + 1;
            while body_end < raw.len()
                && (raw[body_end].is_ascii_alphanumeric() || raw[body_end] == b'#')
            {
                body_end += 1;
            }
            if body_end < raw.len() && raw[body_end] == b';' {
                let end = body_end - i; // offset of ';' relative to the '&'
                let entity = &raw[i + 1..i + end];
                let replacement: Option<String> = match entity {
                    b"amp" => Some("&".into()),
                    b"lt" => Some("<".into()),
                    b"gt" => Some(">".into()),
                    b"quot" => Some("\"".into()),
                    b"apos" => Some("'".into()),
                    _ if entity.first() == Some(&b'#') => {
                        let digits = &entity[1..];
                        let code = if digits.first() == Some(&b'x') || digits.first() == Some(&b'X') {
                            u32::from_str_radix(&String::from_utf8_lossy(&digits[1..]), 16).ok()
                        } else {
                            String::from_utf8_lossy(digits).parse::<u32>().ok()
                        };
                        // NUL is excluded: XML 1.0 forbids it, and the text
                        // index reserves byte 0 for its end-markers.
                        code.filter(|&c| c != 0).and_then(char::from_u32).map(|c| c.to_string())
                    }
                    _ => None,
                };
                if let Some(rep) = replacement {
                    out.push_str(&rep);
                    i += end + 1;
                    continue;
                }
            }
            // Not a recognised entity: keep the ampersand literally.
            out.push('&');
            i += 1;
        } else {
            // Copy a run of plain bytes.
            let start = i;
            while i < raw.len() && raw[i] != b'&' {
                i += 1;
            }
            out.push_str(&String::from_utf8_lossy(&raw[start..i]));
        }
    }
    out
}

/// Escapes character data for serialization.
pub fn escape_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escapes an attribute value for serialization (double-quoted context).
pub fn escape_attribute(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Vec<Event> {
        let mut p = Parser::new(input.as_bytes());
        let mut out = Vec::new();
        loop {
            let e = p.next_event().expect("parse ok");
            let done = e == Event::Eof;
            out.push(e);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn simple_document() {
        let ev = events("<a><b>hi</b></a>");
        assert_eq!(
            ev,
            vec![
                Event::StartElement { name: "a".into(), attributes: vec![], self_closing: false },
                Event::StartElement { name: "b".into(), attributes: vec![], self_closing: false },
                Event::Text("hi".into()),
                Event::EndElement { name: "b".into() },
                Event::EndElement { name: "a".into() },
                Event::Eof,
            ]
        );
    }

    #[test]
    fn attributes_and_self_closing() {
        let ev = events(r#"<part name="pen" stock='40'><empty/></part>"#);
        assert_eq!(
            ev[0],
            Event::StartElement {
                name: "part".into(),
                attributes: vec![("name".into(), "pen".into()), ("stock".into(), "40".into())],
                self_closing: false,
            }
        );
        assert_eq!(
            ev[1],
            Event::StartElement { name: "empty".into(), attributes: vec![], self_closing: true }
        );
    }

    #[test]
    fn entities_are_resolved() {
        let ev = events("<a>x &amp; y &lt;z&gt; &#65;&#x42; &unknown;</a>");
        assert_eq!(ev[1], Event::Text("x & y <z> AB &unknown;".into()));
        let ev = events(r#"<a title="a &quot;b&quot;"/>"#);
        assert_eq!(
            ev[0],
            Event::StartElement {
                name: "a".into(),
                attributes: vec![("title".into(), "a \"b\"".into())],
                self_closing: true,
            }
        );
    }

    #[test]
    fn comments_pi_doctype_cdata() {
        let input = r#"<?xml version="1.0"?>
<!DOCTYPE parts [<!ELEMENT parts (part*)>]>
<!-- a comment -->
<parts><![CDATA[<raw> & data]]></parts>"#;
        let ev = events(input);
        let texts: Vec<&Event> = ev.iter().filter(|e| matches!(e, Event::Text(_))).collect();
        // Whitespace between constructs also shows up as text events.
        assert!(texts.iter().any(|e| matches!(e, Event::Text(t) if t == "<raw> & data")));
        assert!(ev.iter().any(|e| matches!(e, Event::StartElement { name, .. } if name == "parts")));
    }

    #[test]
    fn errors_are_reported() {
        let mut p = Parser::new(b"<a foo>");
        let mut last = Ok(Event::Eof);
        for _ in 0..3 {
            last = p.next_event();
            if last.is_err() {
                break;
            }
        }
        assert!(last.is_err());
        let mut p = Parser::new(b"<!-- never closed");
        assert!(p.next_event().is_err());
    }

    #[test]
    fn malformed_entities_are_literal() {
        // Empty numeric bodies, bare ampersands and out-of-range code points
        // all degrade to literal output, never a panic or a dropped byte.
        assert_eq!(unescape(b"&#;"), "&#;");
        assert_eq!(unescape(b"&#x;"), "&#x;");
        assert_eq!(unescape(b"&;"), "&;");
        assert_eq!(unescape(b"a & b && c"), "a & b && c");
        assert_eq!(unescape(b"trailing &"), "trailing &");
        assert_eq!(unescape(b"&#x110000;"), "&#x110000;"); // beyond char::MAX
        assert_eq!(unescape(b"&#0;"), "&#0;"); // NUL is not valid XML text
        assert_eq!(unescape(b"&#xD800;"), "&#xD800;"); // surrogate
        assert_eq!(unescape(b"&#9999999999;"), "&#9999999999;"); // overflows u32
        // Valid references still resolve, including heavily zero-padded
        // numeric forms the XML spec allows.
        assert_eq!(unescape(b"&#x0010FFFF;"), "\u{10FFFF}");
        assert_eq!(unescape(b"&#x000000000041;"), "A");
        assert_eq!(unescape(b"&#000000000065;"), "A");
        assert_eq!(unescape(b"&amp;&#65;"), "&A");
    }

    #[test]
    fn entity_lookahead_is_bounded() {
        // A semicolon far beyond an ampersand run must not turn every '&'
        // into a scan to the end of the run: the lookahead stops at the
        // first byte that cannot be part of an entity body, keeping
        // unescape linear.
        let mut input = vec![b'&'; 10_000];
        input.extend_from_slice(b" end;");
        let out = unescape(&input);
        assert_eq!(out.len(), input.len());
        assert!(out.starts_with("&&&&"));
        assert!(out.ends_with(" end;"));
        // A reference whose body contains a space was never recognised; the
        // bounded scan agrees.
        assert_eq!(unescape(b"&not an entity;"), "&not an entity;");
        assert_eq!(unescape(b"&unknownentityname;"), "&unknownentityname;");
    }

    #[test]
    fn escape_roundtrip() {
        let original = "a < b & c > d \"quoted\"";
        assert_eq!(unescape(escape_text(original).as_bytes()), original);
        assert_eq!(unescape(escape_attribute(original).as_bytes()), original);
    }

    #[test]
    fn unicode_text_passthrough() {
        let ev = events("<a>héllo wörld — ünïcode</a>");
        assert_eq!(ev[1], Event::Text("héllo wörld — ünïcode".into()));
    }
}
