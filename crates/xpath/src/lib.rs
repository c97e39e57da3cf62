//! XPath Core+ query processing for SXSI (Section 5 of the paper).
//!
//! Queries are parsed into a small AST ([`ast`], [`parser`]), compiled into
//! alternating marking tree automata ([`automaton`], [`mod@compile`]) and
//! evaluated either top-down with relevant-node jumping and memoization
//! ([`eval`]) or bottom-up from text-index seeds ([`bottomup`]).  Queries
//! using reverse/ordered axes or positional predicates are first rewritten
//! toward the forward fragment ([`rewrite`]) and, where that is not enough,
//! evaluated with ordered per-context semantics by direct tree navigation
//! ([`direct`]).  The benchmark query sets of the paper are collected in
//! [`queries`].
//!
//! Compiled [`Automaton`]s are immutable and `Send + Sync`; every mutable
//! piece of a run (memo table, statistics, predicate caches) lives inside
//! the [`Evaluator`], so one compiled query can be evaluated from many
//! threads by giving each its own evaluator (see the `sxsi-engine` crate).
//!
//! ```
//! use sxsi_xml::parse_document;
//! use sxsi_xpath::{compile, parse_query};
//! use sxsi_xpath::eval::{EvalOptions, Evaluator};
//!
//! let doc = parse_document(b"<a><b><c/></b><c/></a>").unwrap();
//! let query = parse_query("/a//c").unwrap();
//! let automaton = compile(&query, &doc.tree).unwrap();
//! let mut evaluator = Evaluator::new(&automaton, &doc.tree, None, EvalOptions::default());
//! assert_eq!(evaluator.count(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod ast;
pub mod automaton;
pub mod bottomup;
pub mod compile;
pub mod direct;
pub mod eval;
pub mod parser;
pub mod queries;
pub mod rewrite;
mod table;

pub use ast::{Axis, NodeTest, Path, PositionPred, Predicate, Query, Step, AXIS_NAMES};
pub use sxsi_search::FtMode;
pub use automaton::{Automaton, Formula, Guard, StateId, StateSet};
pub use bottomup::{BottomUpOutcome, BottomUpPlan};
pub use compile::{compile, CompileError};
pub use direct::{DirectEvaluator, DirectOutcome, DirectRunOptions};
pub use eval::{EvalOptions, EvalStats, Evaluator};
pub use parser::{parse_query, XPathParseError};
pub use queries::{
    CorpusQuery, NamedQuery, MEDLINE_QUERIES, ORDERED_QUERIES, TREEBANK_QUERIES, WORD_QUERIES,
    XMARK_QUERIES,
};
pub use rewrite::{requires_direct, rewrite_to_forward};

/// A human-readable summary of the supported XPath fragment, generated from
/// the same tables that drive the parser ([`AXIS_NAMES`]) so CLI help text
/// cannot drift from what actually parses.
pub fn fragment_help() -> String {
    let axes: Vec<&str> = AXIS_NAMES.iter().map(|(name, _)| *name).collect();
    format!(
        "supported XPath fragment:\n\
         \x20 axes:        {}\n\
         \x20 node tests:  *, name, text(), node()\n\
         \x20 abbreviations: // (descendant), @name (attribute), . (self), .. (parent)\n\
         \x20 predicates:  [path], [not(...)], [... and ...], [... or ...],\n\
         \x20              [n], [position() =|!=|<|<=|>|>= n], [last()]\n\
         \x20 text:        contains(p, \"s\"), starts-with(p, \"s\"), ends-with(p, \"s\"),\n\
         \x20              p = \"s\", p < \"s\", p <= \"s\", p > \"s\", p >= \"s\"\n\
         \x20 full text:   ft:all(\"w\", ...), ft:any(\"w\", ...), ft:phrase(\"w\", ...)\n\
         \x20              (whole-token keyword search over the subtree; only as\n\
         \x20              top-level conjuncts of the last step's filters)\n\
         \x20 queries must be absolute (start with / or //)",
        axes.join(", ")
    )
}

#[cfg(test)]
mod fragment_help_tests {
    use super::*;

    /// Every axis listed in the help actually parses, and every axis the
    /// parser accepts is listed — the two are generated from one table.
    #[test]
    fn fragment_help_matches_parser() {
        let help = fragment_help();
        for (name, _) in AXIS_NAMES {
            assert!(help.contains(name), "{name} missing from fragment help");
            let query = format!("/{name}::node()");
            parse_query(&query).unwrap_or_else(|e| panic!("{query} should parse: {e}"));
        }
        // A name that is not in the table must not parse as an axis.
        assert!(parse_query("/sideways::node()").is_err());
    }
}
