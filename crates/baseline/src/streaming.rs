//! A single-pass streaming counter for simple descendant queries.
//!
//! Represents the streaming engines (GCX, SPEX) the paper's introduction
//! compares against: no index is built, every query reads the whole
//! document once.

// lint:allow-file(dead-pub: test oracle, a second baseline next to NaiveEvaluator)
use sxsi_xml::{Event, ParseError, Parser};

/// Streaming evaluation of `//tag1//tag2//…//tagk` queries.
pub struct StreamingCounter;

impl StreamingCounter {
    /// Counts the elements matched by the descendant-only path `tags` in one
    /// pass over `xml`, without building any data structure.
    pub fn count_descendant_path(xml: &[u8], tags: &[&str]) -> Result<usize, ParseError> {
        if tags.is_empty() {
            return Ok(0);
        }
        let mut parser = Parser::new(xml);
        let k = tags.len();
        // `level` = longest prefix of `tags` matched (greedily, in order) by
        // the currently open ancestors; greedy prefix matching is optimal on
        // a single ancestor path, so an element is a result exactly when its
        // proper ancestors reach level `k - 1` and its own name is the last
        // step.  Only levels up to `k - 1` ever need to be tracked.
        let mut open_progress: Vec<usize> = Vec::new();
        let mut level = 0usize;
        let mut count = 0usize;
        loop {
            match parser.next_event()? {
                Event::StartElement { name, self_closing, .. } => {
                    if level >= k - 1 && name == tags[k - 1] {
                        count += 1;
                    }
                    let advances = level < k - 1 && name == tags[level];
                    if advances {
                        level += 1;
                    }
                    if !self_closing {
                        open_progress.push(if advances { 1 } else { 0 });
                    } else if advances {
                        level -= 1;
                    }
                }
                Event::EndElement { .. } => {
                    if let Some(advanced) = open_progress.pop() {
                        level -= advanced;
                    }
                }
                Event::Text(_) => {}
                Event::Eof => break,
            }
        }
        Ok(count)
    }
}

impl StreamingCounter {
    /// Counts the matches of the descendant-only path `tags`, stopping the
    /// stream as soon as `max` matches were seen — the streaming engine's
    /// version of the truncation contract: an early answer means the rest
    /// of the document is never even parsed.  Returns the (possibly capped)
    /// count; a malformed tail *after* the cap is therefore never
    /// inspected.
    pub fn count_descendant_path_limited(
        xml: &[u8],
        tags: &[&str],
        max: usize,
    ) -> Result<usize, ParseError> {
        if tags.is_empty() || max == 0 {
            return Ok(0);
        }
        let mut parser = Parser::new(xml);
        let k = tags.len();
        let mut open_progress: Vec<usize> = Vec::new();
        let mut level = 0usize;
        let mut count = 0usize;
        loop {
            match parser.next_event()? {
                Event::StartElement { name, self_closing, .. } => {
                    if level >= k - 1 && name == tags[k - 1] {
                        count += 1;
                        if count >= max {
                            return Ok(count);
                        }
                    }
                    let advances = level < k - 1 && name == tags[level];
                    if advances {
                        level += 1;
                    }
                    if !self_closing {
                        open_progress.push(if advances { 1 } else { 0 });
                    } else if advances {
                        level -= 1;
                    }
                }
                Event::EndElement { .. } => {
                    if let Some(advanced) = open_progress.pop() {
                        level -= advanced;
                    }
                }
                Event::Text(_) => {}
                Event::Eof => break,
            }
        }
        Ok(count)
    }

    /// Whether the descendant-only path `tags` matches anywhere, reading
    /// the stream only up to the first match.
    pub fn exists_descendant_path(xml: &[u8], tags: &[&str]) -> Result<bool, ParseError> {
        Ok(Self::count_descendant_path_limited(xml, tags, 1)? > 0)
    }

    /// Counts the distinct elements named `parent` that have at least one
    /// child element named `child` — the streaming equivalent of
    /// `//child/parent::parent` — in one pass, without building any tree.
    pub fn count_parent_of(xml: &[u8], parent: &str, child: &str) -> Result<usize, ParseError> {
        let mut parser = Parser::new(xml);
        // For every open element: (is the parent tag, has a matching child).
        let mut open: Vec<(bool, bool)> = Vec::new();
        let mut count = 0usize;
        loop {
            match parser.next_event()? {
                Event::StartElement { name, self_closing, .. } => {
                    if name == child {
                        if let Some(top) = open.last_mut() {
                            top.1 = true;
                        }
                    }
                    if !self_closing {
                        open.push((name == parent, false));
                    }
                    // A self-closing parent candidate has no children and
                    // can never count.
                }
                Event::EndElement { .. } => {
                    if let Some((is_parent, has_child)) = open.pop() {
                        if is_parent && has_child {
                            count += 1;
                        }
                    }
                }
                Event::Text(_) => {}
                Event::Eof => break,
            }
        }
        Ok(count)
    }

    /// Counts the elements named `tag` that are the `n`-th (1-based)
    /// `tag`-named child of their (element) parent — the streaming
    /// equivalent of `//*/tag[n]` under the ordered positional semantics —
    /// in one pass.
    pub fn count_nth_child(xml: &[u8], tag: &str, n: usize) -> Result<usize, ParseError> {
        let mut parser = Parser::new(xml);
        // Per open element: how many `tag` children seen so far.  The
        // document element itself has no tracked parent, matching the
        // indexed query's `//*` context (the synthetic root is not `*`).
        let mut seen: Vec<usize> = Vec::new();
        let mut count = 0usize;
        loop {
            match parser.next_event()? {
                Event::StartElement { name, self_closing, .. } => {
                    if name == tag {
                        if let Some(top) = seen.last_mut() {
                            *top += 1;
                            if *top == n {
                                count += 1;
                            }
                        }
                    }
                    if !self_closing {
                        seen.push(0);
                    }
                }
                Event::EndElement { .. } => {
                    seen.pop();
                }
                Event::Text(_) => {}
                Event::Eof => break,
            }
        }
        Ok(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_simple_descendant_paths() {
        let xml = b"<a><b><c/><c/></b><b><d><c/></d></b><c/></a>";
        assert_eq!(StreamingCounter::count_descendant_path(xml, &["c"]).unwrap(), 4);
        assert_eq!(StreamingCounter::count_descendant_path(xml, &["b", "c"]).unwrap(), 3);
        assert_eq!(StreamingCounter::count_descendant_path(xml, &["a", "b", "c"]).unwrap(), 3);
        assert_eq!(StreamingCounter::count_descendant_path(xml, &["d", "c"]).unwrap(), 1);
        assert_eq!(StreamingCounter::count_descendant_path(xml, &["z"]).unwrap(), 0);
        assert_eq!(StreamingCounter::count_descendant_path(xml, &[]).unwrap(), 0);
    }

    #[test]
    fn nested_matches_count_each_occurrence() {
        let xml = b"<a><b><b><c/></b></b></a>";
        assert_eq!(StreamingCounter::count_descendant_path(xml, &["b"]).unwrap(), 2);
        assert_eq!(StreamingCounter::count_descendant_path(xml, &["b", "c"]).unwrap(), 1);
    }

    #[test]
    fn limited_counts_cap_and_stop_the_stream() {
        let xml = b"<a><b><c/><c/></b><b><d><c/></d></b><c/></a>";
        for max in 1..6 {
            let capped = StreamingCounter::count_descendant_path_limited(xml, &["c"], max).unwrap();
            assert_eq!(capped, 4.min(max));
        }
        assert!(StreamingCounter::exists_descendant_path(xml, &["b", "c"]).unwrap());
        assert!(!StreamingCounter::exists_descendant_path(xml, &["z"]).unwrap());
        // The stream truly stops early: garbage after the first match is
        // never parsed when the cap is already satisfied.
        let broken = b"<a><c/><truncated-in-tag";
        assert_eq!(
            StreamingCounter::count_descendant_path_limited(broken, &["c"], 1).unwrap(),
            1
        );
        assert!(StreamingCounter::count_descendant_path_limited(broken, &["c"], 2).is_err());
    }

    #[test]
    fn counts_parents_with_matching_children() {
        let xml = b"<a><p><c/><c/></p><p><d/></p><q><p><c/></p></q><p/></a>";
        assert_eq!(StreamingCounter::count_parent_of(xml, "p", "c").unwrap(), 2);
        assert_eq!(StreamingCounter::count_parent_of(xml, "p", "d").unwrap(), 1);
        assert_eq!(StreamingCounter::count_parent_of(xml, "q", "p").unwrap(), 1);
        assert_eq!(StreamingCounter::count_parent_of(xml, "p", "z").unwrap(), 0);
        // Only direct children count, and nesting is handled per element.
        assert_eq!(StreamingCounter::count_parent_of(xml, "a", "c").unwrap(), 0);
        assert_eq!(StreamingCounter::count_parent_of(xml, "q", "c").unwrap(), 0);
    }

    #[test]
    fn counts_positional_children() {
        let xml = b"<a><p><c/><c/><c/></p><p><d/><c/></p></a>";
        // Three c's in the first p (positions 1..3), one in the second
        // (position 1, the d does not advance c's position).
        assert_eq!(StreamingCounter::count_nth_child(xml, "c", 1).unwrap(), 2);
        assert_eq!(StreamingCounter::count_nth_child(xml, "c", 2).unwrap(), 1);
        assert_eq!(StreamingCounter::count_nth_child(xml, "c", 3).unwrap(), 1);
        assert_eq!(StreamingCounter::count_nth_child(xml, "c", 4).unwrap(), 0);
        // The document element has no tracked parent.
        assert_eq!(StreamingCounter::count_nth_child(xml, "a", 1).unwrap(), 0);
        assert_eq!(StreamingCounter::count_nth_child(xml, "p", 2).unwrap(), 1);
    }
}
