//! Ranked keyword (`ft:`) search execution: one shard fan-out over any
//! [`Target`] (a single index is one shard), and the one renderer shared
//! by `sxsi search` and the daemon's `search` command — so client output can be
//! byte-diffed against the CLI, scores included (they print with fixed
//! three-decimal precision for exactly that reason).
//!
//! Ranking comes from the `sxsi-search` crate (tf × ln(1 + N/df) summed
//! over the query terms); this module only adds document qualification
//! and the cross-document merge: per-document hit lists arrive sorted
//! by (score desc, node asc) and are merged with a stable sort on the
//! score alone, so ties stay in (DocId, preorder) order.

use std::fmt::Write as _;

use sxsi::FtQuery;
use sxsi_collection::{Collection, CollectionError};

use crate::{BatchExecutor, Target};

/// One ranked search hit, qualified for display: the owning document's
/// name (for a single index, whatever label the caller serves it under),
/// the node's preorder number within its document, and the tf·idf-style
/// score.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedHit {
    /// Display name of the document the hit belongs to.
    pub doc: String,
    /// 1-based preorder number of the element within its document.
    pub preorder: usize,
    /// The hit's relevance score (higher is better).
    pub score: f64,
}

/// The outcome of one keyword search: the ranked hit window plus how
/// much of the full answer it covers.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The ranked hits, best first, truncated to the requested limit.
    pub hits: Vec<RankedHit>,
    /// Whether hits beyond the returned window exist.
    pub truncated: bool,
    /// Total matching elements before the limit cut.
    pub total: usize,
}

/// The canonical display form of a keyword query, used as the result id
/// in rendered output: `ft:all("rust", "index")`.
pub fn query_display(query: &FtQuery) -> String {
    let terms: Vec<String> = query
        .tokens
        .iter()
        .map(|t| format!("\"{}\"", String::from_utf8_lossy(t)))
        .collect();
    format!("ft:{}({})", query.mode.as_str(), terms.join(", "))
}

/// Ranked search across every document of `target`, one shard per
/// document on the batch pool, merged into one globally ranked list.
/// Hits carry their document's label, or `label` on an unlabelled
/// (single-index) target.
///
/// Results are identical at every thread count: each shard searches its
/// own segment (term statistics are per-document, like the per-document
/// prepared statements of the query path), and the merge is a stable
/// sort by score over the DocId-ordered concatenation.
pub fn search_target<T: Target + ?Sized>(
    executor: &BatchExecutor,
    target: &T,
    label: &str,
    query: &FtQuery,
    limit: Option<usize>,
) -> Result<SearchOutcome, CollectionError> {
    let outcomes = executor.run_jobs(target.num_docs(), |doc| {
        let index = target.doc_index(doc)?;
        let doc_label = target.doc_label(doc).unwrap_or(label);
        let hits = index.search(query).into_iter().map(|h| RankedHit {
            doc: doc_label.to_string(),
            preorder: index.tree().preorder(h.node),
            score: h.score,
        });
        Ok::<Vec<RankedHit>, CollectionError>(hits.collect())
    });
    let mut all = Vec::new();
    for outcome in outcomes {
        all.extend(outcome?);
    }
    // Shards returned in DocId order and each list is already
    // (score desc, preorder asc): a stable sort on the score alone keeps
    // ties in (DocId, preorder) order.
    all.sort_by(|a, b| b.score.total_cmp(&a.score));
    let total = all.len();
    let truncated = limit.is_some_and(|l| all.len() > l);
    if let Some(l) = limit {
        all.truncate(l);
    }
    Ok(SearchOutcome { hits: all, truncated, total })
}

/// [`search_target`] over a collection, whose hits all carry document
/// names.
pub fn search_collection(
    executor: &BatchExecutor,
    collection: &Collection,
    query: &FtQuery,
    limit: Option<usize>,
) -> Result<SearchOutcome, CollectionError> {
    search_target(executor, collection, "", query, limit)
}

/// Renders a search outcome in the line format of the query path
/// (`<id>: <n> hits [<doc:preorder score=s>, ...]`), shared verbatim by
/// the CLI and the daemon.
pub fn render_search_outcome(id: &str, outcome: &SearchOutcome, out: &mut String) {
    let more = if outcome.truncated { " (more results exist)" } else { "" };
    let rendered: Vec<String> = outcome
        .hits
        .iter()
        .map(|h| format!("{}:{} score={:.3}", h.doc, h.preorder, h.score))
        .collect();
    let _ = writeln!(out, "{id}: {} hits [{}]{more}", outcome.hits.len(), rendered.join(", "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sxsi::{FtMode, SxsiIndex};

    const DOC: &str = r#"<site>
  <item><name>rare drum</name><note>a rare loud drum indeed</note></item>
  <item><name>violin</name><note>classic string instrument</note></item>
</site>"#;

    fn index() -> SxsiIndex {
        SxsiIndex::build_from_xml(DOC.as_bytes()).unwrap()
    }

    #[test]
    fn single_index_search_ranks_and_truncates() {
        let idx = index();
        let query = FtQuery::new(FtMode::All, &["rare"]);
        let full = search_target(&BatchExecutor::new(1), &idx, "doc", &query, None).unwrap();
        assert!(full.hits.len() >= 2, "{full:?}");
        assert!(!full.truncated);
        assert_eq!(full.total, full.hits.len());
        for pair in full.hits.windows(2) {
            assert!(pair[0].score >= pair[1].score, "{full:?}");
        }
        let capped = search_target(&BatchExecutor::new(1), &idx, "doc", &query, Some(1)).unwrap();
        assert_eq!(capped.hits, full.hits[..1].to_vec());
        assert!(capped.truncated);
        assert_eq!(capped.total, full.total);
    }

    #[test]
    fn rendering_is_stable() {
        let idx = index();
        let query = FtQuery::new(FtMode::Phrase, &["rare loud drum"]);
        let outcome = search_target(&BatchExecutor::new(1), &idx, "doc", &query, None).unwrap();
        let mut out = String::new();
        render_search_outcome(&query_display(&query), &outcome, &mut out);
        assert!(out.starts_with("ft:phrase(\"rare\", \"loud\", \"drum\"): 1 hits [doc:"), "{out}");
        assert!(out.contains(" score="), "{out}");
        // Three-decimal fixed precision, so daemon and CLI byte-agree.
        let score = out.split("score=").nth(1).unwrap().split(']').next().unwrap();
        assert_eq!(score.split('.').nth(1).unwrap().len(), 3, "{out}");
    }

    #[test]
    fn no_match_renders_empty_list() {
        let idx = index();
        let query = FtQuery::new(FtMode::All, &["zzzmissing"]);
        let outcome = search_target(&BatchExecutor::new(1), &idx, "doc", &query, Some(5)).unwrap();
        assert!(outcome.hits.is_empty());
        assert!(!outcome.truncated);
        let mut out = String::new();
        render_search_outcome("q", &outcome, &mut out);
        assert_eq!(out, "q: 0 hits []\n");
    }

    #[test]
    fn collection_search_merges_across_documents() {
        let dir = std::env::temp_dir()
            .join(format!("sxsi-engine-search-col-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let collection = Collection::build(
            dir.join("col.sxsic"),
            vec![
                ("alpha".into(), index()),
                (
                    "beta".into(),
                    SxsiIndex::build_from_xml(b"<a><b>rare gem</b><b>plain</b></a>").unwrap(),
                ),
            ],
        )
        .unwrap();
        let query = FtQuery::new(FtMode::All, &["rare"]);
        let merged =
            search_collection(&BatchExecutor::new(2), &collection, &query, None).unwrap();
        assert!(merged.hits.iter().any(|h| h.doc == "alpha"), "{merged:?}");
        assert!(merged.hits.iter().any(|h| h.doc == "beta"), "{merged:?}");
        for pair in merged.hits.windows(2) {
            assert!(pair[0].score >= pair[1].score, "{merged:?}");
        }
        // Identical at every thread count, and the limit cuts the merged
        // ranking (not any single shard's).
        for threads in [1, 3] {
            let again =
                search_collection(&BatchExecutor::new(threads), &collection, &query, None)
                    .unwrap();
            assert_eq!(again, merged);
        }
        let capped =
            search_collection(&BatchExecutor::new(2), &collection, &query, Some(2)).unwrap();
        assert_eq!(capped.hits, merged.hits[..2].to_vec());
        assert!(capped.truncated);
        assert_eq!(capped.total, merged.total);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
