//! Structured construction errors for the tree index.
//!
//! Historically [`crate::BalancedParens::new`] and
//! [`crate::XmlTreeBuilder::finish`] asserted their invariants, so malformed
//! input (an unbalanced parenthesis sequence, an unclosed element) could
//! panic the process hosting the index.  A serving process must never die on
//! bad input: the `try_*` constructors return [`TreeError`] instead, and the
//! panicking entry points remain only as thin wrappers for test code.

use std::fmt;

/// Error raised when a tree structure cannot be built from its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The parenthesis sequence is not balanced.
    Unbalanced {
        /// Position of the first offending parenthesis (the first position
        /// where the running excess drops below zero), or `None` when the
        /// sequence simply ends with a non-zero excess.
        position: Option<usize>,
        /// The excess at the end of the sequence.
        final_excess: i64,
    },
    /// `finish` was called while elements were still open.
    UnclosedElements {
        /// Number of elements still open (synthetic root excluded).
        open: usize,
    },
    /// An opening tag code is not below the tag count.
    TagCodeOutOfRange {
        /// The offending code.
        code: u32,
        /// Position of the code in the tag sequence.
        position: usize,
        /// Number of distinct tags.
        num_tags: usize,
    },
    /// The opening tag codes are more or fewer than the nodes.
    OpeningCodeCount {
        /// Number of opening codes given.
        codes: usize,
        /// Number of nodes (opening parentheses).
        nodes: usize,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::Unbalanced { position: Some(p), final_excess } => write!(
                f,
                "parenthesis sequence is not balanced (excess drops below zero at position {p}, final excess {final_excess})"
            ),
            TreeError::Unbalanced { position: None, final_excess } => {
                write!(f, "parenthesis sequence is not balanced (final excess {final_excess})")
            }
            TreeError::UnclosedElements { open } => {
                write!(f, "{open} element(s) remain unclosed")
            }
            TreeError::TagCodeOutOfRange { code, position, num_tags } => write!(
                f,
                "tag code {code} at position {position} is out of range for {num_tags} tags"
            ),
            TreeError::OpeningCodeCount { codes, nodes } => {
                write!(f, "{codes} opening tag codes for {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for TreeError {}
