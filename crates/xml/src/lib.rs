//! XML parsing and the SXSI document model.
//!
//! This crate turns raw XML bytes into the two structures the SXSI index is
//! built from: the succinct tree (via [`sxsi_tree::XmlTreeBuilder`]) and the
//! collection text `T`, every text followed by a byte-0 terminator (handed
//! to [`sxsi_text::TextCollection::from_t`]).
//!
//! * [`parser`] — a dependency-free SAX-style XML parser.
//! * [`document`] — the model of Section 2 (`&` root, `#` text leaves, `@`
//!   attribute containers, `%` attribute values) and [`parse_document`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod document;
pub mod parser;

pub use document::{parse_document, parse_document_with_options, DocumentOptions, ParsedDocument};
pub use parser::{escape_attribute, escape_text, unescape, Event, ParseError, Parser};
