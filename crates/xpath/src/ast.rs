//! Abstract syntax of the XPath fragment "Core+" (Section 5.1 of the paper).
//!
//! Core+ is forward Core XPath — the `child`, `descendant`, `self`,
//! `attribute` and `following-sibling` axes with `*`, tag-name, `text()` and
//! `node()` tests and nested boolean filters — extended with the text
//! predicates of XPath 1.0: `=`, `contains`, `starts-with` and `ends-with`.
//!
//! Beyond the paper, the fragment also covers the reverse and ordered axes
//! of full Core XPath (`parent`, `ancestor`, `ancestor-or-self`,
//! `preceding-sibling`, `following`, `preceding`) and the positional
//! predicates `[n]`, `[position() op n]` and `[last()]`, evaluated with
//! XPath's per-context ordered semantics (see [`crate::direct`]).

use sxsi_search::FtMode;
use sxsi_text::TextPredicate;

/// A navigation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::` (produced by the `//` abbreviation).
    DescendantOrSelf,
    /// `self::`
    SelfAxis,
    /// `attribute::` (or the `@` abbreviation).
    Attribute,
    /// `following-sibling::`
    FollowingSibling,
    /// `parent::` (or the `..` abbreviation).
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `ancestor-or-self::`
    AncestorOrSelf,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `following::` (everything after the context node's subtree, in
    /// document order).
    Following,
    /// `preceding::` (everything strictly before the context node except its
    /// ancestors, in reverse document order).
    Preceding,
}

/// The axis-name table: every named axis of the fragment paired with its AST
/// variant.  This single table drives the parser, the `Display`
/// implementation and the generated fragment help (`crate::fragment_help`),
/// so the three can never drift apart.
pub const AXIS_NAMES: &[(&str, Axis)] = &[
    ("child", Axis::Child),
    ("descendant", Axis::Descendant),
    ("descendant-or-self", Axis::DescendantOrSelf),
    ("self", Axis::SelfAxis),
    ("attribute", Axis::Attribute),
    ("following-sibling", Axis::FollowingSibling),
    ("parent", Axis::Parent),
    ("ancestor", Axis::Ancestor),
    ("ancestor-or-self", Axis::AncestorOrSelf),
    ("preceding-sibling", Axis::PrecedingSibling),
    ("following", Axis::Following),
    ("preceding", Axis::Preceding),
];

impl Axis {
    /// True for the axes of the paper's forward Core+ fragment, which the
    /// tree automata of [`crate::compile()`] can evaluate directly.
    pub fn is_forward_core(self) -> bool {
        matches!(
            self,
            Axis::Child
                | Axis::Descendant
                | Axis::DescendantOrSelf
                | Axis::SelfAxis
                | Axis::Attribute
                | Axis::FollowingSibling
        )
    }
}

/// A node test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// `*` — any element (for the attribute axis: any attribute).
    Wildcard,
    /// A tag or attribute name.
    Name(String),
    /// `text()`
    Text,
    /// `node()`
    Node,
}

/// One location step: `axis::test[pred]*`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Zero or more filters, implicitly conjoined.
    pub predicates: Vec<Predicate>,
}

impl Step {
    /// A step without predicates.
    pub fn simple(axis: Axis, test: NodeTest) -> Self {
        Self { axis, test, predicates: Vec::new() }
    }
}

/// A location path.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Whether the path starts at the root (`/` or `//`).  Relative paths
    /// (used inside predicates) start at the context node.
    pub absolute: bool,
    /// The steps, outermost first.
    pub steps: Vec<Step>,
}

impl Path {
    /// A relative path with the given steps.
    pub fn relative(steps: Vec<Step>) -> Self {
        Self { absolute: false, steps }
    }

    /// True when the path is just `.` (the context node itself).
    pub fn is_context_only(&self) -> bool {
        self.steps.is_empty()
            || (self.steps.len() == 1
                && self.steps[0].axis == Axis::SelfAxis
                && self.steps[0].predicates.is_empty())
    }
}

/// A positional predicate: a constraint on the context position of a node
/// within the node list its step selected *from one context node*, counted
/// in axis order (document order for forward axes, reverse document order
/// for reverse axes), 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PositionPred {
    /// `[n]` / `[position() = n]`
    Eq(u32),
    /// `[position() != n]`
    Ne(u32),
    /// `[position() < n]`
    Lt(u32),
    /// `[position() <= n]`
    Le(u32),
    /// `[position() > n]`
    Gt(u32),
    /// `[position() >= n]`
    Ge(u32),
    /// `[last()]` / `[position() = last()]`
    Last,
}

impl PositionPred {
    /// The smallest `N` such that the predicate rejects every position
    /// greater than `N`, independently of `last` — or `None` when no such
    /// bound exists (`!=`, `>`, `>=`, `last()`).
    ///
    /// When a step's *first* predicate has a prefix bound, only the first
    /// `N` nodes of the step's selection can survive it, so the evaluators
    /// may stop enumerating candidates after `N` hits — the early
    /// termination that turns `//a[1]` into "find the first `a`".
    pub fn prefix_bound(self) -> Option<usize> {
        match self {
            PositionPred::Eq(n) => Some(n as usize),
            PositionPred::Lt(n) => Some((n as usize).saturating_sub(1)),
            PositionPred::Le(n) => Some(n as usize),
            PositionPred::Ne(_) | PositionPred::Gt(_) | PositionPred::Ge(_) | PositionPred::Last => {
                None
            }
        }
    }

    /// Whether a node at 1-based `position` in a selection of `last` nodes
    /// satisfies the predicate.
    pub fn matches(self, position: usize, last: usize) -> bool {
        match self {
            PositionPred::Eq(n) => position == n as usize,
            PositionPred::Ne(n) => position != n as usize,
            PositionPred::Lt(n) => position < n as usize,
            PositionPred::Le(n) => position <= n as usize,
            PositionPred::Gt(n) => position > n as usize,
            PositionPred::Ge(n) => position >= n as usize,
            PositionPred::Last => position == last,
        }
    }
}

/// A filter expression (the content of `[...]`).
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation (`not(...)`).
    Not(Box<Predicate>),
    /// Existence of a relative path.
    Exists(Path),
    /// A text predicate applied to the string value selected by a relative
    /// path (`contains(path, "s")`, `path = "s"`, …).  The path is usually
    /// `.` or a short relative path.
    TextCompare {
        /// The value expression the predicate applies to.
        path: Path,
        /// The comparison itself (pattern included).
        op: TextPredicate,
    },
    /// A positional constraint (`[n]`, `[position() op n]`, `[last()]`).
    Position(PositionPred),
    /// A full-text keyword predicate over the context node's subtree:
    /// `ft:all("a", "b")`, `ft:any(...)`, `ft:phrase(...)`.  Pure syntax
    /// here — evaluation is seeded from FM-index text hits by the core
    /// crate's text-first plan (see `sxsi-search`), never by the automaton.
    FullText {
        /// How the keywords combine.
        mode: FtMode,
        /// The string literals, still untokenized.
        literals: Vec<String>,
    },
}

impl Predicate {
    /// True when the predicate (or any nested sub-expression) constrains the
    /// context position.
    pub fn uses_position(&self) -> bool {
        match self {
            Predicate::Position(_) => true,
            Predicate::FullText { .. } => false,
            Predicate::And(a, b) | Predicate::Or(a, b) => a.uses_position() || b.uses_position(),
            Predicate::Not(p) => p.uses_position(),
            Predicate::Exists(path) | Predicate::TextCompare { path, .. } => {
                path.steps.iter().any(|s| s.predicates.iter().any(Predicate::uses_position))
            }
        }
    }

    /// Visits the axis of every step nested anywhere inside the predicate.
    fn visit_axes(&self, f: &mut impl FnMut(Axis)) {
        match self {
            Predicate::Position(_) | Predicate::FullText { .. } => {}
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.visit_axes(f);
                b.visit_axes(f);
            }
            Predicate::Not(p) => p.visit_axes(f),
            Predicate::Exists(path) | Predicate::TextCompare { path, .. } => {
                for s in &path.steps {
                    f(s.axis);
                    for p in &s.predicates {
                        p.visit_axes(f);
                    }
                }
            }
        }
    }
}

/// A complete query: an absolute path whose last step selects the result
/// nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// The main path.
    pub path: Path,
}

impl Query {
    /// The number of location steps in the main path.
    pub fn num_steps(&self) -> usize {
        self.path.steps.len()
    }

    /// Visits the axis of every step of the query — main path and every
    /// nested filter path.
    pub fn visit_axes(&self, mut f: impl FnMut(Axis)) {
        for s in &self.path.steps {
            f(s.axis);
            for p in &s.predicates {
                p.visit_axes(&mut f);
            }
        }
    }

    /// True when any step (main path or nested) uses a reverse axis or one
    /// of the ordered axes `following`/`preceding`.
    pub fn uses_non_core_axes(&self) -> bool {
        let mut found = false;
        self.visit_axes(|a| found |= !a.is_forward_core());
        found
    }

    /// True when any predicate of the query constrains the context position.
    pub fn uses_position(&self) -> bool {
        self.path.steps.iter().any(|s| s.predicates.iter().any(Predicate::uses_position))
    }
}

/// Pretty-printing (used in error messages, benchmark reports and tests).
impl std::fmt::Display for Axis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = AXIS_NAMES
            .iter()
            .find(|(_, a)| a == self)
            .map(|(name, _)| *name)
            .expect("every axis variant appears in AXIS_NAMES");
        f.write_str(s)
    }
}

impl std::fmt::Display for NodeTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeTest::Wildcard => f.write_str("*"),
            NodeTest::Name(n) => f.write_str(n),
            NodeTest::Text => f.write_str("text()"),
            NodeTest::Node => f.write_str("node()"),
        }
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}::{}", self.axis, self.test)?;
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.absolute {
            f.write_str("/")?;
        } else if self.steps.is_empty() {
            return f.write_str(".");
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str("/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Predicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
            Predicate::Not(p) => write!(f, "not({p})"),
            Predicate::Exists(p) => write!(f, "{p}"),
            Predicate::TextCompare { path, op } => {
                let pat = String::from_utf8_lossy(op.pattern());
                match op {
                    TextPredicate::Contains(_) => write!(f, "contains({path}, \"{pat}\")"),
                    TextPredicate::StartsWith(_) => write!(f, "starts-with({path}, \"{pat}\")"),
                    TextPredicate::EndsWith(_) => write!(f, "ends-with({path}, \"{pat}\")"),
                    TextPredicate::Equals(_) => write!(f, "{path} = \"{pat}\""),
                    TextPredicate::LessThan(_) => write!(f, "{path} < \"{pat}\""),
                    TextPredicate::LessEq(_) => write!(f, "{path} <= \"{pat}\""),
                    TextPredicate::GreaterThan(_) => write!(f, "{path} > \"{pat}\""),
                    TextPredicate::GreaterEq(_) => write!(f, "{path} >= \"{pat}\""),
                }
            }
            Predicate::Position(p) => write!(f, "{p}"),
            Predicate::FullText { mode, literals } => {
                write!(f, "ft:{}(", mode.as_str())?;
                for (i, lit) in literals.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "\"{lit}\"")?;
                }
                f.write_str(")")
            }
        }
    }
}

impl std::fmt::Display for PositionPred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PositionPred::Eq(n) => write!(f, "{n}"),
            PositionPred::Ne(n) => write!(f, "position() != {n}"),
            PositionPred::Lt(n) => write!(f, "position() < {n}"),
            PositionPred::Le(n) => write!(f, "position() <= {n}"),
            PositionPred::Gt(n) => write!(f, "position() > {n}"),
            PositionPred::Ge(n) => write!(f, "position() >= {n}"),
            PositionPred::Last => write!(f, "last()"),
        }
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.path)
    }
}
