//! Text-side indexes of SXSI (Section 3 of the paper).
//!
//! The textual content of the XML document — one string per `#`/`%` leaf —
//! is stored as a *self-index*: a generalized Burrows–Wheeler transform of
//! the concatenation of all texts, queried through an FM-index.  This crate
//! contains:
//!
//! * [`suffix`] — suffix-array construction (SA-IS) used to build the BWT;
//! * [`bwt`] — the collection BWT with the paper's fixed end-marker order;
//! * [`fmindex`] — backward search, LF-mapping and locate sampling;
//! * [`collection`] — [`TextCollection`], the public text index with the
//!   XPath string predicates (`contains`, `starts-with`, `ends-with`, `=`,
//!   lexicographic comparisons) returning text identifiers;
//! * [`plain`] — the collection text `T`, always kept, and the one search
//!   over it: the naive scanning baseline of Tables II/III.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bwt;
pub mod collection;
pub mod fmindex;
pub mod plain;
pub mod suffix;

pub use collection::{TextCollection, TextCursor, TextIndexSpace, TextPredicate};
pub use fmindex::{FmIndex, RowRange};
pub use plain::{PlainTexts, TextId};
