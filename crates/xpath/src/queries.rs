//! The benchmark query sets of the paper's evaluation section.
//!
//! * `X01`–`X17`: the tree-oriented XMark / XPathMark queries of Figure 9
//!   (X01–X12 from XPathMark, X13–X17 the paper's "crash tests").
//! * `T01`–`T05`: the Treebank queries of Figure 9.
//! * `M01`–`M11`: the text-oriented Medline queries of Figure 14.
//! * `W01`–`W10`: the word-based queries of Figure 16 (W01–W05 over Medline,
//!   W06–W10 over the wiki corpus).
//! * `O01`–`O20`: reverse/ordered-axis and positional-predicate queries
//!   (beyond the paper's fragment), tagged with the corpus they run on.
//!
//! These constants are shared by the integration tests, the examples and the
//! benchmark harness so that every experiment runs exactly the queries the
//! paper lists.

/// A named benchmark query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamedQuery {
    /// The paper's identifier (e.g. "X04").
    pub id: &'static str,
    /// The XPath expression.
    pub xpath: &'static str,
}

/// XMark tree-oriented queries (Figure 9, X01–X17).
pub const XMARK_QUERIES: &[NamedQuery] = &[
    NamedQuery { id: "X01", xpath: "/site/regions" },
    NamedQuery { id: "X02", xpath: "/site/regions/*/item" },
    NamedQuery {
        id: "X03",
        xpath: "/site/closed_auctions/closed_auction/annotation/description/text/keyword",
    },
    NamedQuery { id: "X04", xpath: "//listitem//keyword" },
    NamedQuery {
        id: "X05",
        xpath: "/site/closed_auctions/closed_auction[ annotation/description/text/keyword ]/date",
    },
    NamedQuery { id: "X06", xpath: "/site/closed_auctions/closed_auction[ .//keyword]/date" },
    NamedQuery { id: "X07", xpath: "/site/people/person[ profile/gender and profile/age]/name" },
    NamedQuery { id: "X08", xpath: "/site/people/person[ phone or homepage]/name" },
    NamedQuery {
        id: "X09",
        xpath: "/site/people/person[ address and (phone or homepage) and (creditcard or profile)]/name",
    },
    NamedQuery { id: "X10", xpath: "//listitem[not(.//keyword/emph)]//parlist" },
    NamedQuery {
        id: "X11",
        xpath: "//listitem[ (.//keyword or .//emph) and (.//emph or .//bold)]/parlist",
    },
    NamedQuery {
        id: "X12",
        xpath: "//people[ .//person[not(address)] and .//person[not(watches)]]/person[watches]",
    },
    NamedQuery { id: "X13", xpath: "/*[ .//* ]" },
    NamedQuery { id: "X14", xpath: "//*" },
    NamedQuery { id: "X15", xpath: "//*//*" },
    NamedQuery { id: "X16", xpath: "//*//*//*" },
    NamedQuery { id: "X17", xpath: "//*//*//*//*" },
];

/// Treebank queries (Figure 9, T01–T05).
pub const TREEBANK_QUERIES: &[NamedQuery] = &[
    NamedQuery { id: "T01", xpath: "//NP" },
    NamedQuery { id: "T02", xpath: "//S[.//VP and .//NP]/VP/PP[IN]/NP/VBN" },
    NamedQuery { id: "T03", xpath: "//NP[.//JJ or .//CC]" },
    NamedQuery { id: "T04", xpath: "//CC[ not(.//JJ) ]" },
    NamedQuery { id: "T05", xpath: "//NN[.//VBZ or .//IN]/*[.//NN or .//_QUOTE_]" },
];

/// Medline text-oriented queries (Figure 14, M01–M11).
pub const MEDLINE_QUERIES: &[NamedQuery] = &[
    NamedQuery {
        id: "M01",
        xpath: r#"//Article[ .//AbstractText[ contains (., "foot") or contains( . , "feet") ] ]"#,
    },
    NamedQuery { id: "M02", xpath: r#"//Article[ .//AbstractText[ contains ( . , "plus") ] ]"# },
    NamedQuery {
        id: "M03",
        xpath: r#"//Article[ .//AbstractText[ contains ( . , "plus") or contains ( . , "for") ] ]"#,
    },
    NamedQuery {
        id: "M04",
        xpath: r#"//Article[ .//AbstractText[ contains ( . , "plus") and not(contains ( . , "for")) ] ]"#,
    },
    NamedQuery {
        id: "M05",
        xpath: r#"//MedlineCitation/Article/AuthorList/Author[ ./LastName[starts-with( . , "Bar")] ]"#,
    },
    NamedQuery { id: "M06", xpath: r#"//*[ .//LastName[ contains( ., "Nguyen") ] ]"# },
    NamedQuery { id: "M07", xpath: r#"//*//AbstractText[ contains( ., "epididymis") ]"# },
    NamedQuery { id: "M08", xpath: r#"//*[ .//PublicationType[ ends-with( ., "Article") ]]"# },
    NamedQuery { id: "M09", xpath: r#"//MedlineCitation[ .//Country[ contains( . , "AUSTRALIA") ] ]"# },
    NamedQuery { id: "M10", xpath: r#"//MedlineCitation[ contains( . , "blood cell") ]"# },
    NamedQuery {
        id: "M11",
        xpath: "//*/*[ contains( . , \"1999\n11\n26\") ]",
    },
];

/// Word-based queries (Figure 16, W01–W10).
pub const WORD_QUERIES: &[NamedQuery] = &[
    NamedQuery { id: "W01", xpath: r#"//Article[ .//AbstractText[ contains ( ., "blood sample") ] ]"# },
    NamedQuery { id: "W02", xpath: r#"//Article[ .//AbstractText[ contains ( ., "is such that") ] ]"# },
    NamedQuery {
        id: "W03",
        xpath: r#"//Article[ .//AbstractText[ contains( ., "various types of") and contains( ., "immune cells") ] ]"#,
    },
    NamedQuery { id: "W04", xpath: r#"//Article[ .//AbstractText[ contains( ., "of the bone marrow") ] ]"# },
    NamedQuery {
        id: "W05",
        xpath: r#"//Article[ .//AbstractText[ contains( ., "cell") and not(contains( ., "blood")) ] ]"#,
    },
    NamedQuery { id: "W06", xpath: r#"//text[ contains ( ., "dark horse")]"# },
    NamedQuery { id: "W07", xpath: r#"//text[ contains ( ., "horse") and contains( ., "princess") ]"# },
    NamedQuery { id: "W08", xpath: r#"//page/child::title[ contains ( ., "crude oil") ]"# },
    NamedQuery { id: "W09", xpath: r#"//page[.//text[ contains( ., "played on a board")]]/title"# },
    NamedQuery { id: "W10", xpath: r#"//page[.//text[ contains( ., "whether accidentally or purposefully")]]/title"# },
];

/// A named benchmark query bound to the corpus it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusQuery {
    /// Identifier (e.g. "O04").
    pub id: &'static str,
    /// The corpus the query targets: `"xmark"`, `"treebank"`, `"medline"`
    /// or `"wiki"`.
    pub corpus: &'static str,
    /// The XPath expression.
    pub xpath: &'static str,
}

/// Reverse/ordered-axis and positional-predicate queries (O01–O20).
///
/// These exercise the fragment extension beyond the paper: `parent`,
/// `ancestor`, `ancestor-or-self`, `preceding-sibling`, `following`,
/// `preceding`, `[n]`, `[position() op n]` and `[last()]`, across all four
/// corpora.  The leading `//s/ancestor::t` and `//s/parent::t` shapes
/// (O01, O02, O08, O09, O13, O14, O19) are rewritten to the forward
/// automaton fragment by `crate::rewrite`; the rest run on the ordered
/// direct evaluator — `Prepared::strategy` reports the one actually
/// chosen for each, and `tests/integration_collection.rs` checks that
/// the query sets exercise all three.
pub const ORDERED_QUERIES: &[CorpusQuery] = &[
    // XMark.
    CorpusQuery { id: "O01", corpus: "xmark", xpath: "//keyword/ancestor::item" },
    CorpusQuery { id: "O02", corpus: "xmark", xpath: "//keyword/parent::text" },
    CorpusQuery { id: "O03", corpus: "xmark", xpath: "/site/regions/*/item[1]/name" },
    CorpusQuery { id: "O04", corpus: "xmark", xpath: "/site/people/person[last()]" },
    CorpusQuery { id: "O05", corpus: "xmark", xpath: "//date/preceding-sibling::*" },
    CorpusQuery { id: "O06", corpus: "xmark", xpath: "//africa/following::item" },
    CorpusQuery { id: "O07", corpus: "xmark", xpath: "/site/people/person[position() <= 3]/name" },
    // Treebank.
    CorpusQuery { id: "O08", corpus: "treebank", xpath: "//VP/parent::S" },
    CorpusQuery { id: "O09", corpus: "treebank", xpath: "//NP/ancestor::S" },
    CorpusQuery { id: "O10", corpus: "treebank", xpath: "//JJ/preceding-sibling::NN" },
    CorpusQuery { id: "O11", corpus: "treebank", xpath: "//NP/*[last()]" },
    CorpusQuery { id: "O12", corpus: "treebank", xpath: "//NP/ancestor-or-self::NP" },
    // Medline.
    CorpusQuery { id: "O13", corpus: "medline", xpath: "//LastName/ancestor::MedlineCitation" },
    CorpusQuery { id: "O14", corpus: "medline", xpath: "//AbstractText/parent::Abstract" },
    CorpusQuery { id: "O15", corpus: "medline", xpath: "//AuthorList/Author[1]/LastName" },
    CorpusQuery { id: "O16", corpus: "medline", xpath: "//Day/preceding-sibling::*" },
    CorpusQuery { id: "O17", corpus: "medline", xpath: "//Country/preceding::PMID" },
    // Wiki.
    CorpusQuery { id: "O18", corpus: "wiki", xpath: "//revision/preceding-sibling::title" },
    CorpusQuery { id: "O19", corpus: "wiki", xpath: "//timestamp/ancestor::page" },
    CorpusQuery { id: "O20", corpus: "wiki", xpath: "//page[position() > 1]/title" },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    #[test]
    fn every_benchmark_query_parses() {
        for set in [XMARK_QUERIES, TREEBANK_QUERIES, MEDLINE_QUERIES, WORD_QUERIES] {
            for q in set {
                parse_query(q.xpath).unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
            }
        }
        for q in ORDERED_QUERIES {
            parse_query(q.xpath).unwrap_or_else(|e| panic!("{} failed to parse: {e}", q.id));
        }
    }

    #[test]
    fn query_sets_have_expected_sizes() {
        assert_eq!(XMARK_QUERIES.len(), 17);
        assert_eq!(TREEBANK_QUERIES.len(), 5);
        assert_eq!(MEDLINE_QUERIES.len(), 11);
        assert_eq!(WORD_QUERIES.len(), 10);
        assert_eq!(ORDERED_QUERIES.len(), 20);
        for corpus in ["xmark", "treebank", "medline", "wiki"] {
            assert!(
                ORDERED_QUERIES.iter().any(|q| q.corpus == corpus),
                "no ordered query targets {corpus}"
            );
        }
    }

    #[test]
    fn ordered_queries_exercise_every_new_construct() {
        use crate::ast::Axis;
        for axis in [
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::PrecedingSibling,
            Axis::Following,
            Axis::Preceding,
        ] {
            let covered = ORDERED_QUERIES.iter().any(|q| {
                let mut found = false;
                parse_query(q.xpath).unwrap().visit_axes(|a| found |= a == axis);
                found
            });
            assert!(covered, "no ordered query uses {axis}");
        }
        assert!(ORDERED_QUERIES
            .iter()
            .any(|q| parse_query(q.xpath).unwrap().uses_position()));
    }
}
