//! Parser for the Core+ XPath fragment.
//!
//! The grammar follows Section 5.1 of the paper: location paths built from
//! the forward axes with optional filters, where filters combine relative
//! paths, `and`/`or`/`not(..)` and the text predicates `=`, `contains`,
//! `starts-with`, `ends-with`.  Abbreviations are supported: `//` for the
//! descendant axis, `@name` for `attribute::name`, `.` for `self::node()`,
//! `..` for `parent::node()`, and a bare name for `child::name`.
//!
//! Beyond the paper's forward fragment, the full axis set of Core XPath is
//! accepted (`parent`, `ancestor`, `ancestor-or-self`, `preceding-sibling`,
//! `following`, `preceding` — see [`AXIS_NAMES`] for the authoritative
//! table), together with the positional predicates `[n]`,
//! `[position() op n]` and `[last()]`.
//!
//! `//` followed by a *bare* test keeps compiling to a single `descendant`
//! step (the paper's abbreviation); `//` followed by an explicit axis, `@`
//! or `..` expands to `descendant-or-self::node()/` plus that step, which
//! is the XPath 1.0 definition and the only reading that is correct for
//! reverse axes.

use crate::ast::{Axis, NodeTest, Path, Predicate, PositionPred, Query, Step, AXIS_NAMES};
use std::fmt;
use sxsi_search::FtMode;
use sxsi_text::TextPredicate;

/// Error produced when a query string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathParseError {
    /// Byte position in the query string.
    pub position: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for XPathParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath parse error at {}: {}", self.position, self.message)
    }
}

impl std::error::Error for XPathParseError {}

/// Parses a complete (absolute) query.
pub fn parse_query(input: &str) -> Result<Query, XPathParseError> {
    let mut p = PathParser::new(input);
    let path = p.parse_path(true)?;
    p.skip_ws();
    if !p.at_end() {
        return p.error("trailing input after query");
    }
    if !path.absolute {
        return Err(XPathParseError { position: 0, message: "query must start with '/' or '//'".into() });
    }
    Ok(Query { path })
}

struct PathParser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PathParser<'a> {
    fn new(input: &'a str) -> Self {
        Self { input, bytes: input.as_bytes(), pos: 0 }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T, XPathParseError> {
        Err(XPathParseError { position: self.pos, message: message.into() })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t') | Some(b'\r') | Some(b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn peek_str(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn is_name_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-') || b >= 0x80
    }

    fn read_name(&mut self) -> Result<String, XPathParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if Self::is_name_byte(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.error("expected a name");
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn read_string_literal(&mut self) -> Result<String, XPathParseError> {
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.error("expected a string literal"),
        };
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let s = self.input[start..self.pos].to_string();
                self.pos += 1;
                return Ok(s);
            }
            // NUL is no XML character, and it closes every text in the index.
            if b == 0 {
                return self.error("NUL in a string literal");
            }
            self.pos += 1;
        }
        self.error("unterminated string literal")
    }

    /// Parses a path.  `allow_absolute` is true at the top level.
    fn parse_path(&mut self, allow_absolute: bool) -> Result<Path, XPathParseError> {
        self.skip_ws();
        let mut steps = Vec::new();
        let mut absolute = false;
        let mut next_axis: Option<Axis> = None;
        if allow_absolute {
            if self.peek_str("//") {
                self.pos += 2;
                absolute = true;
                next_axis = Some(Axis::Descendant);
            } else if self.peek_str("/") {
                self.pos += 1;
                absolute = true;
                next_axis = Some(Axis::Child);
            }
        }
        loop {
            self.skip_ws();
            // Context step `.`: only meaningful in relative paths; it does not
            // move, so it only contributes when it is the whole path.
            if self.peek_str("..") {
                self.pos += 2;
                // `//..` means descendant-or-self::node()/parent::node().
                if next_axis.take() == Some(Axis::Descendant) {
                    steps.push(Step::simple(Axis::DescendantOrSelf, NodeTest::Node));
                }
                steps.push(Step::simple(Axis::Parent, NodeTest::Node));
            } else if self.peek() == Some(b'.') {
                self.pos += 1;
                if next_axis.is_some() {
                    return self.error("'.' cannot follow a slash");
                }
                // `.` followed by a path continues from the context node.
            } else {
                let axis_hint = next_axis.take().unwrap_or(Axis::Child);
                let (step, explicit) = self.parse_step(axis_hint)?;
                // `//` followed by an explicit axis (or `@`) is, per XPath
                // 1.0, `descendant-or-self::node()/` plus that step — the
                // single-descendant-step shortcut is only equivalent for a
                // bare (child-implied) test.
                if explicit && axis_hint == Axis::Descendant {
                    steps.push(Step::simple(Axis::DescendantOrSelf, NodeTest::Node));
                }
                steps.push(step);
            }
            self.skip_ws();
            if self.peek_str("//") {
                self.pos += 2;
                next_axis = Some(Axis::Descendant);
            } else if self.peek_str("/") {
                self.pos += 1;
                next_axis = Some(Axis::Child);
            } else {
                break;
            }
        }
        if next_axis.is_some() {
            return self.error("path ends with a slash");
        }
        Ok(Path { absolute, steps })
    }

    /// Parses one step.  `default_axis` is the axis implied by the preceding
    /// `/` or `//`.  The returned flag is true when the step named its axis
    /// explicitly (`axis::test` or the `@` abbreviation) rather than relying
    /// on the default.
    fn parse_step(&mut self, default_axis: Axis) -> Result<(Step, bool), XPathParseError> {
        self.skip_ws();
        let mut axis = default_axis;
        let mut explicit = false;
        let test;
        if self.eat("@") {
            axis = Axis::Attribute;
            explicit = true;
            test = if self.eat("*") { NodeTest::Wildcard } else { NodeTest::Name(self.read_name()?) };
        } else if self.eat("*") {
            test = NodeTest::Wildcard;
        } else {
            // Either `axisname::test` or a bare test.
            let checkpoint = self.pos;
            if self.peek().map(Self::is_name_byte).unwrap_or(false) {
                let name = self.read_name()?;
                if self.eat("::") {
                    axis = match AXIS_NAMES.iter().find(|(n, _)| *n == name) {
                        Some((_, a)) => *a,
                        None => return self.error(format!("unsupported axis '{name}'")),
                    };
                    explicit = true;
                    test = self.parse_node_test()?;
                } else {
                    // A bare name; it may still be `name()`-style node test.
                    self.pos = checkpoint;
                    test = self.parse_node_test()?;
                }
            } else {
                return self.error("expected a step");
            }
        }
        let mut predicates = Vec::new();
        loop {
            self.skip_ws();
            if self.eat("[") {
                let pred = self.parse_or_expr()?;
                self.skip_ws();
                if !self.eat("]") {
                    return self.error("expected ']' to close the filter");
                }
                predicates.push(pred);
            } else {
                break;
            }
        }
        Ok((Step { axis, test, predicates }, explicit))
    }

    fn parse_node_test(&mut self) -> Result<NodeTest, XPathParseError> {
        if self.eat("*") {
            return Ok(NodeTest::Wildcard);
        }
        let name = self.read_name()?;
        self.skip_ws();
        if self.peek() == Some(b'(') {
            // A node-type test.
            self.pos += 1;
            self.skip_ws();
            if !self.eat(")") {
                return self.error("expected ')' in node type test");
            }
            return match name.as_str() {
                "text" => Ok(NodeTest::Text),
                "node" => Ok(NodeTest::Node),
                other => self.error(format!("unsupported node type test '{other}()'")),
            };
        }
        Ok(NodeTest::Name(name))
    }

    fn parse_or_expr(&mut self) -> Result<Predicate, XPathParseError> {
        let mut left = self.parse_and_expr()?;
        loop {
            self.skip_ws();
            if self.peek_keyword("or") {
                self.pos += 2;
                let right = self.parse_and_expr()?;
                left = Predicate::Or(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    fn parse_and_expr(&mut self) -> Result<Predicate, XPathParseError> {
        let mut left = self.parse_unary_expr()?;
        loop {
            self.skip_ws();
            if self.peek_keyword("and") {
                self.pos += 3;
                let right = self.parse_unary_expr()?;
                left = Predicate::And(Box::new(left), Box::new(right));
            } else {
                return Ok(left);
            }
        }
    }

    /// True when the keyword occurs here as a word (not a name prefix).
    fn peek_keyword(&self, kw: &str) -> bool {
        if !self.peek_str(kw) {
            return false;
        }
        match self.bytes.get(self.pos + kw.len()) {
            Some(&b) => !Self::is_name_byte(b),
            None => true,
        }
    }

    fn parse_unary_expr(&mut self) -> Result<Predicate, XPathParseError> {
        self.skip_ws();
        if self.peek_keyword("not") {
            let checkpoint = self.pos;
            self.pos += 3;
            self.skip_ws();
            if self.eat("(") {
                let inner = self.parse_or_expr()?;
                self.skip_ws();
                if !self.eat(")") {
                    return self.error("expected ')' after not(...)");
                }
                return Ok(Predicate::Not(Box::new(inner)));
            }
            self.pos = checkpoint;
        }
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let inner = self.parse_or_expr()?;
            self.skip_ws();
            if !self.eat(")") {
                return self.error("expected ')'");
            }
            return Ok(inner);
        }
        // Positional predicates: `[n]`, `[last()]`, `[position() op n]`.
        if self.peek().map(|b| b.is_ascii_digit()).unwrap_or(false) {
            let n = self.read_position_number()?;
            return Ok(Predicate::Position(PositionPred::Eq(n)));
        }
        if self.peek_keyword("last") {
            let checkpoint = self.pos;
            self.pos += 4;
            if self.eat_call_parens() {
                return Ok(Predicate::Position(PositionPred::Last));
            }
            self.pos = checkpoint;
        }
        if self.peek_keyword("position") {
            let checkpoint = self.pos;
            self.pos += 8;
            if self.eat_call_parens() {
                return self.parse_position_comparison();
            }
            self.pos = checkpoint;
        }
        // Full-text extension functions: `ft:all("a", "b")`, `ft:any(...)`,
        // `ft:phrase(...)`.  A lone `:` is not valid anywhere else in a
        // filter, so the `ft:` prefix is unambiguous.
        if self.peek_str("ft:") {
            self.pos += 3;
            let name = self.read_name()?;
            let mode = match FtMode::parse(&name) {
                Some(mode) => mode,
                None => {
                    return self.error(format!(
                        "unsupported ft: function '{name}' (expected all, any or phrase)"
                    ))
                }
            };
            self.skip_ws();
            if !self.eat("(") {
                return self.error("expected '(' after ft: function name");
            }
            let mut literals = vec![self.read_string_literal()?];
            loop {
                self.skip_ws();
                if self.eat(",") {
                    literals.push(self.read_string_literal()?);
                } else {
                    break;
                }
            }
            if !self.eat(")") {
                return self.error("expected ')' to close the ft: function");
            }
            return Ok(Predicate::FullText { mode, literals });
        }
        // Text functions.
        for (kw, ctor) in [
            ("contains", TextFn::Contains),
            ("starts-with", TextFn::StartsWith),
            ("ends-with", TextFn::EndsWith),
        ] {
            if self.peek_keyword(kw) {
                let checkpoint = self.pos;
                self.pos += kw.len();
                self.skip_ws();
                if self.eat("(") {
                    let path = self.parse_path(false)?;
                    self.skip_ws();
                    if !self.eat(",") {
                        return self.error("expected ',' in text function");
                    }
                    let literal = self.read_string_literal()?;
                    self.skip_ws();
                    if !self.eat(")") {
                        return self.error("expected ')' to close the text function");
                    }
                    let op = match ctor {
                        TextFn::Contains => TextPredicate::Contains(literal.into_bytes()),
                        TextFn::StartsWith => TextPredicate::StartsWith(literal.into_bytes()),
                        TextFn::EndsWith => TextPredicate::EndsWith(literal.into_bytes()),
                    };
                    return Ok(Predicate::TextCompare { path, op });
                }
                self.pos = checkpoint;
            }
        }
        // A relative path, optionally compared against a literal.
        let path = self.parse_path(false)?;
        self.skip_ws();
        let op = if self.eat("<=") {
            Some(OpKind::Le)
        } else if self.eat(">=") {
            Some(OpKind::Ge)
        } else if self.eat("=") {
            Some(OpKind::Eq)
        } else if self.eat("<") {
            Some(OpKind::Lt)
        } else if self.eat(">") {
            Some(OpKind::Gt)
        } else {
            None
        };
        match op {
            None => Ok(Predicate::Exists(path)),
            Some(kind) => {
                let literal = self.read_string_literal()?.into_bytes();
                let op = match kind {
                    OpKind::Eq => TextPredicate::Equals(literal),
                    OpKind::Lt => TextPredicate::LessThan(literal),
                    OpKind::Le => TextPredicate::LessEq(literal),
                    OpKind::Gt => TextPredicate::GreaterThan(literal),
                    OpKind::Ge => TextPredicate::GreaterEq(literal),
                };
                Ok(Predicate::TextCompare { path, op })
            }
        }
    }
}

impl PathParser<'_> {
    /// Consumes `( )` (whitespace allowed inside), as in `last()`.
    fn eat_call_parens(&mut self) -> bool {
        let checkpoint = self.pos;
        self.skip_ws();
        if self.eat("(") {
            self.skip_ws();
            if self.eat(")") {
                return true;
            }
        }
        self.pos = checkpoint;
        false
    }

    /// Reads a positive integer literal for a positional predicate.
    fn read_position_number(&mut self) -> Result<u32, XPathParseError> {
        let start = self.pos;
        while self.peek().map(|b| b.is_ascii_digit()).unwrap_or(false) {
            self.pos += 1;
        }
        if self.pos == start {
            return self.error("expected a position number");
        }
        if self.peek().map(Self::is_name_byte).unwrap_or(false) {
            return self.error("a position number cannot be followed by a name character");
        }
        let n: u32 = self.input[start..self.pos]
            .parse()
            .map_err(|_| XPathParseError { position: start, message: "position number out of range".into() })?;
        if n == 0 {
            return self.error("positions are 1-based; [0] never selects anything");
        }
        Ok(n)
    }

    /// Parses the tail of `position() op …`.
    fn parse_position_comparison(&mut self) -> Result<Predicate, XPathParseError> {
        self.skip_ws();
        let op = if self.eat("!=") {
            PosOp::Ne
        } else if self.eat("<=") {
            PosOp::Le
        } else if self.eat(">=") {
            PosOp::Ge
        } else if self.eat("=") {
            PosOp::Eq
        } else if self.eat("<") {
            PosOp::Lt
        } else if self.eat(">") {
            PosOp::Gt
        } else {
            return self.error("expected a comparison operator after position()");
        };
        self.skip_ws();
        if self.peek_keyword("last") {
            let checkpoint = self.pos;
            self.pos += 4;
            if self.eat_call_parens() {
                return match op {
                    PosOp::Eq => Ok(Predicate::Position(PositionPred::Last)),
                    _ => self.error("only 'position() = last()' is supported with last()"),
                };
            }
            self.pos = checkpoint;
        }
        let n = self.read_position_number()?;
        let pred = match op {
            PosOp::Eq => PositionPred::Eq(n),
            PosOp::Ne => PositionPred::Ne(n),
            PosOp::Lt => PositionPred::Lt(n),
            PosOp::Le => PositionPred::Le(n),
            PosOp::Gt => PositionPred::Gt(n),
            PosOp::Ge => PositionPred::Ge(n),
        };
        Ok(Predicate::Position(pred))
    }
}

enum PosOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

enum TextFn {
    Contains,
    StartsWith,
    EndsWith,
}

enum OpKind {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(s: &str) -> Query {
        parse_query(s).unwrap_or_else(|e| panic!("parse {s:?}: {e}"))
    }

    #[test]
    fn simple_paths() {
        let query = q("/site/regions");
        assert!(query.path.absolute);
        assert_eq!(query.num_steps(), 2);
        assert_eq!(query.path.steps[0].axis, Axis::Child);
        assert_eq!(query.path.steps[0].test, NodeTest::Name("site".into()));
        assert_eq!(query.path.steps[1].test, NodeTest::Name("regions".into()));

        let query = q("//listitem//keyword");
        assert_eq!(query.path.steps[0].axis, Axis::Descendant);
        assert_eq!(query.path.steps[1].axis, Axis::Descendant);

        let query = q("/site/regions/*/item");
        assert_eq!(query.path.steps[2].test, NodeTest::Wildcard);
    }

    #[test]
    fn explicit_axes() {
        let query = q("/descendant::listitem/child::keyword");
        assert_eq!(query.path.steps[0].axis, Axis::Descendant);
        assert_eq!(query.path.steps[1].axis, Axis::Child);
        let query = q("/descendant::*/attribute::*");
        assert_eq!(query.path.steps[1].axis, Axis::Attribute);
        assert_eq!(query.path.steps[1].test, NodeTest::Wildcard);
        let query = q("//keyword/@id");
        assert_eq!(query.path.steps[1].axis, Axis::Attribute);
        assert_eq!(query.path.steps[1].test, NodeTest::Name("id".into()));
    }

    #[test]
    fn node_type_tests() {
        let query = q("/descendant::text()");
        assert_eq!(query.path.steps[0].test, NodeTest::Text);
        let query = q("//*");
        assert_eq!(query.path.steps[0].test, NodeTest::Wildcard);
        let query = q("//node()");
        assert_eq!(query.path.steps[0].test, NodeTest::Node);
    }

    #[test]
    fn filters_with_paths_and_booleans() {
        let query = q("/site/people/person[ profile/gender and profile/age]/name");
        assert_eq!(query.num_steps(), 4);
        let person = &query.path.steps[2];
        assert_eq!(person.predicates.len(), 1);
        match &person.predicates[0] {
            Predicate::And(a, b) => {
                assert!(matches!(**a, Predicate::Exists(_)));
                assert!(matches!(**b, Predicate::Exists(_)));
            }
            other => panic!("expected And, got {other:?}"),
        }

        let query = q("//listitem[not(.//keyword/emph)]//parlist");
        let li = &query.path.steps[0];
        match &li.predicates[0] {
            Predicate::Not(inner) => match &**inner {
                Predicate::Exists(p) => {
                    assert!(!p.absolute);
                    assert_eq!(p.steps.len(), 2);
                    assert_eq!(p.steps[0].axis, Axis::Descendant);
                    assert_eq!(p.steps[1].axis, Axis::Child);
                }
                other => panic!("expected Exists, got {other:?}"),
            },
            other => panic!("expected Not, got {other:?}"),
        }
    }

    #[test]
    fn fulltext_functions() {
        let query = q(r#"//book[ft:all("fast", "search")]"#);
        let book = &query.path.steps[0];
        assert_eq!(
            book.predicates[0],
            Predicate::FullText {
                mode: FtMode::All,
                literals: vec!["fast".into(), "search".into()]
            }
        );
        let query = q(r#"//book[ft:any('one')]"#);
        assert!(matches!(
            &query.path.steps[0].predicates[0],
            Predicate::FullText { mode: FtMode::Any, literals } if literals.len() == 1
        ));
        let query = q(r#"//book[ ft:phrase( "fast search" ) and title]"#);
        match &query.path.steps[0].predicates[0] {
            Predicate::And(a, _) => {
                assert!(matches!(**a, Predicate::FullText { mode: FtMode::Phrase, .. }));
            }
            other => panic!("expected And, got {other:?}"),
        }
        // Display → parse round-trips.
        let rendered = query.to_string();
        assert_eq!(parse_query(&rendered).unwrap(), query);
        // Unknown ft: function names and malformed argument lists fail.
        assert!(parse_query(r#"//book[ft:none("x")]"#).is_err());
        assert!(parse_query("//book[ft:all()]").is_err());
        assert!(parse_query(r#"//book[ft:all("x",)]"#).is_err());
        assert!(parse_query(r#"//book[ft:all("x""#).is_err());
    }

    #[test]
    fn nested_filters() {
        let query = q("//people[ .//person[not(address)] and .//person[not(watches)]]/person[watches]");
        assert_eq!(query.num_steps(), 2);
        let people = &query.path.steps[0];
        assert!(matches!(people.predicates[0], Predicate::And(_, _)));
        let person = &query.path.steps[1];
        assert!(matches!(person.predicates[0], Predicate::Exists(_)));
    }

    #[test]
    fn text_functions() {
        let query = q(r#"//Article[ .//AbstractText[ contains (., "foot") or contains( . , "feet") ] ]"#);
        let article = &query.path.steps[0];
        match &article.predicates[0] {
            Predicate::Exists(p) => {
                let abstract_text = &p.steps[0];
                match &abstract_text.predicates[0] {
                    Predicate::Or(a, b) => {
                        match &**a {
                            Predicate::TextCompare { path, op } => {
                                assert!(path.is_context_only());
                                assert_eq!(op, &TextPredicate::Contains(b"foot".to_vec()));
                            }
                            other => panic!("expected TextCompare, got {other:?}"),
                        }
                        assert!(matches!(**b, Predicate::TextCompare { .. }));
                    }
                    other => panic!("expected Or, got {other:?}"),
                }
            }
            other => panic!("expected Exists, got {other:?}"),
        }

        let query = q(r#"//MedlineCitation/Article/AuthorList/Author[ ./LastName[starts-with( . , "Bar")] ]"#);
        let author = &query.path.steps[3];
        match &author.predicates[0] {
            Predicate::Exists(p) => {
                assert_eq!(p.steps[0].axis, Axis::Child);
                assert_eq!(p.steps[0].test, NodeTest::Name("LastName".into()));
            }
            other => panic!("expected Exists, got {other:?}"),
        }
    }

    #[test]
    fn equality_comparison() {
        let query = q(r#"/site/people/person[ name = "Alice" ]"#);
        match &query.path.steps[2].predicates[0] {
            Predicate::TextCompare { path, op } => {
                assert_eq!(path.steps[0].test, NodeTest::Name("name".into()));
                assert_eq!(op, &TextPredicate::Equals(b"Alice".to_vec()));
            }
            other => panic!("expected TextCompare, got {other:?}"),
        }
    }

    #[test]
    fn crash_test_queries() {
        assert_eq!(q("/*[ .//* ]").num_steps(), 1);
        assert_eq!(q("//*//*//*//*").num_steps(), 4);
        assert_eq!(q("//S[.//VP and .//NP]/VP/PP[IN]/NP/VBN").num_steps(), 5);
        assert_eq!(q("//CC[ not(.//JJ) ]").num_steps(), 1);
        assert_eq!(q("//NN[.//VBZ or .//IN]/*[.//NN or .//_QUOTE_]").num_steps(), 2);
    }

    #[test]
    fn errors() {
        assert!(parse_query("site/regions").is_err()); // relative at top level
        assert!(parse_query("/site/").is_err());
        assert!(parse_query("/site[").is_err());
        assert!(parse_query("/site[foo").is_err());
        assert!(parse_query("/site]").is_err());
        assert!(parse_query("//after::x").is_err()); // not an axis
        assert!(parse_query(r#"//a[contains(., "x"]"#).is_err());
        assert!(parse_query("//a[contains(., \"a\0b\")]").is_err()); // NUL is no XML character
        assert!(parse_query("//a[. = 'x\0']").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_query("//item[0]").is_err()); // positions are 1-based
        assert!(parse_query("//item[position() < last()]").is_err());
        assert!(parse_query("//item[position()]").is_err());
    }

    #[test]
    fn reverse_and_ordered_axes_parse() {
        let query = q("//keyword/ancestor::item");
        assert_eq!(query.num_steps(), 2);
        assert_eq!(query.path.steps[1].axis, Axis::Ancestor);
        let query = q("/site/people/person/name/parent::person");
        assert_eq!(query.path.steps[4].axis, Axis::Parent);
        let query = q("//date/preceding-sibling::*");
        assert_eq!(query.path.steps[1].axis, Axis::PrecedingSibling);
        assert_eq!(query.path.steps[1].test, NodeTest::Wildcard);
        let query = q("//africa/following::item");
        assert_eq!(query.path.steps[1].axis, Axis::Following);
        let query = q("//date/preceding::keyword");
        assert_eq!(query.path.steps[1].axis, Axis::Preceding);
        let query = q("//name/ancestor-or-self::*");
        assert_eq!(query.path.steps[1].axis, Axis::AncestorOrSelf);
        assert!(query.uses_non_core_axes());
        assert!(!q("//keyword").uses_non_core_axes());
    }

    #[test]
    fn double_slash_with_explicit_axis_expands_to_descendant_or_self() {
        // `//parent::x` is descendant-or-self::node()/parent::x, NOT a bare
        // parent step from the root.
        let query = q("//parent::regions");
        assert_eq!(query.num_steps(), 2);
        assert_eq!(query.path.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(query.path.steps[0].test, NodeTest::Node);
        assert_eq!(query.path.steps[1].axis, Axis::Parent);
        // Same for `@` and `..`.
        let query = q("//@id");
        assert_eq!(query.num_steps(), 2);
        assert_eq!(query.path.steps[1].axis, Axis::Attribute);
        let query = q("//item//..");
        assert_eq!(query.num_steps(), 3);
        assert_eq!(query.path.steps[2].axis, Axis::Parent);
        // A bare test keeps the paper's single-descendant-step abbreviation.
        let query = q("//item");
        assert_eq!(query.num_steps(), 1);
        assert_eq!(query.path.steps[0].axis, Axis::Descendant);
    }

    #[test]
    fn parent_abbreviation() {
        let query = q("/site/regions/..");
        assert_eq!(query.num_steps(), 3);
        assert_eq!(query.path.steps[2].axis, Axis::Parent);
        assert_eq!(query.path.steps[2].test, NodeTest::Node);
        let query = q("/site/regions/../people");
        assert_eq!(query.num_steps(), 4);
        assert_eq!(query.path.steps[3].test, NodeTest::Name("people".into()));
        // `..` inside predicates.
        let query = q("//name[../address]");
        match &query.path.steps[0].predicates[0] {
            Predicate::Exists(p) => {
                assert_eq!(p.steps[0].axis, Axis::Parent);
                assert_eq!(p.steps[1].test, NodeTest::Name("address".into()));
            }
            other => panic!("expected Exists, got {other:?}"),
        }
    }

    #[test]
    fn positional_predicates_parse() {
        use crate::ast::PositionPred;
        let query = q("/site/regions/*/item[1]");
        assert_eq!(
            query.path.steps[3].predicates[0],
            Predicate::Position(PositionPred::Eq(1))
        );
        let query = q("//person[last()]");
        assert_eq!(query.path.steps[0].predicates[0], Predicate::Position(PositionPred::Last));
        let query = q("//person[position() = last()]");
        assert_eq!(query.path.steps[0].predicates[0], Predicate::Position(PositionPred::Last));
        for (text, expected) in [
            ("//person[position() = 2]", PositionPred::Eq(2)),
            ("//person[position() != 2]", PositionPred::Ne(2)),
            ("//person[position() < 3]", PositionPred::Lt(3)),
            ("//person[position() <= 3]", PositionPred::Le(3)),
            ("//person[position() > 1]", PositionPred::Gt(1)),
            ("//person[position() >= 2]", PositionPred::Ge(2)),
        ] {
            let query = q(text);
            assert_eq!(
                query.path.steps[0].predicates[0],
                Predicate::Position(expected),
                "{text}"
            );
            assert!(query.uses_position(), "{text}");
        }
        // Positional predicates combine with boolean filters.
        let query = q("//person[address and position() <= 2]");
        assert!(matches!(query.path.steps[0].predicates[0], Predicate::And(_, _)));
        assert!(!q("//person[address]").uses_position());
    }

    #[test]
    fn display_roundtrip_parses_again() {
        for s in [
            "/site/regions/*/item",
            "//listitem//keyword",
            r#"//Article[ .//AbstractText[ contains(., "plus") ] ]"#,
            "//people[ .//person[not(address)] ]/person[watches]",
            "/descendant::listitem/descendant::keyword[child::emph]",
        ] {
            let first = q(s);
            let rendered = first.to_string();
            let second = q(&rendered);
            assert_eq!(first, second, "roundtrip of {s}");
        }
    }
}
