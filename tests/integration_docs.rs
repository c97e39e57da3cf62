//! Documentation validity checks, run in CI's docs job:
//!
//! 1. every intra-repo markdown link in `README.md`, `ARCHITECTURE.md` and
//!    `docs/*.md` points at a file that exists, and same-repo `#anchor`
//!    fragments match a real heading of the target file;
//! 2. every XPath example in `docs/xpath-fragment.md` and
//!    `docs/search.md` (inline code spans starting with `/`) parses with
//!    the real parser, so the references cannot drift from the grammar;
//! 3. the guide's collection walkthrough and the format doc's manifest
//!    section keep naming the real commands, output shapes and issue
//!    codes (the transcripts are held to the binary by
//!    `tests/integration_collection.rs`).

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/core; the repo root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md"), root.join("ARCHITECTURE.md")];
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    assert!(files.len() >= 5, "README, ARCHITECTURE and the three docs/ pages");
    files
}

/// Extracts `(link, target)` pairs of markdown inline links `[text](target)`
/// outside fenced code blocks.
fn markdown_links(text: &str) -> Vec<String> {
    let mut links = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                let start = i + 2;
                if let Some(len) = line[start..].find(')') {
                    links.push(line[start..start + len].to_string());
                    i = start + len;
                    continue;
                }
            }
            i += 1;
        }
    }
    links
}

/// GitHub-style anchor slug of a heading line.
fn slugify(heading: &str) -> String {
    let mut slug = String::new();
    for c in heading.trim().chars() {
        match c {
            'A'..='Z' => slug.push(c.to_ascii_lowercase()),
            'a'..='z' | '0'..='9' | '-' | '_' => slug.push(c),
            ' ' => slug.push('-'),
            _ => {}
        }
    }
    slug
}

fn anchors_of(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    let mut anchors = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if !in_fence && line.starts_with('#') {
            anchors.push(slugify(line.trim_start_matches('#')));
        }
    }
    anchors
}

#[test]
fn intra_repo_links_resolve() {
    let mut checked = 0;
    for file in doc_files() {
        let text = std::fs::read_to_string(&file).unwrap();
        let dir = file.parent().unwrap().to_path_buf();
        for link in markdown_links(&text) {
            // External links are not this test's business.
            if link.starts_with("http://") || link.starts_with("https://") || link.starts_with("mailto:") {
                continue;
            }
            let (path_part, fragment) = match link.split_once('#') {
                Some((p, f)) => (p, Some(f)),
                None => (link.as_str(), None),
            };
            let target = if path_part.is_empty() {
                file.clone() // same-file anchor
            } else {
                dir.join(path_part)
            };
            assert!(
                target.exists(),
                "{}: broken link '{link}' (missing {})",
                file.display(),
                target.display()
            );
            if let Some(fragment) = fragment {
                let target = target.canonicalize().unwrap();
                if target.extension().is_some_and(|e| e == "md") {
                    let anchors = anchors_of(&target);
                    assert!(
                        anchors.iter().any(|a| a == fragment),
                        "{}: link '{link}' names anchor '#{fragment}' but {} only has {anchors:?}",
                        file.display(),
                        target.display()
                    );
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 20, "expected to check a meaningful number of links, got {checked}");
}

/// Inline code spans of a markdown file, outside fenced blocks.
fn inline_code_spans(text: &str) -> Vec<String> {
    let mut spans = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else { break };
            spans.push(after[..close].to_string());
            rest = &after[close + 1..];
        }
    }
    spans
}

#[test]
fn fragment_reference_examples_parse() {
    let path = repo_root().join("docs/xpath-fragment.md");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut parsed = 0;
    for span in inline_code_spans(&text) {
        // Query examples are exactly the spans that start with a slash and
        // contain something beyond slashes (`/` and `//` name the
        // abbreviations themselves).
        if !span.starts_with('/') || span.chars().all(|c| c == '/') {
            continue;
        }
        sxsi_xpath::parse_query(&span)
            .unwrap_or_else(|e| panic!("docs/xpath-fragment.md example {span:?} does not parse: {e}"));
        parsed += 1;
    }
    assert!(parsed >= 25, "expected >= 25 runnable examples in the fragment reference, got {parsed}");
}

/// Every `/`-prefixed example in `docs/search.md` parses — including the
/// deliberately misplaced `ft:` form it shows (placement is a
/// compile-time check, not a parse error) — and the doc keeps its
/// load-bearing definitions: the three `ft:` modes, the tf×idf scoring
/// formula, the SLCA semantics, the placement restriction, the ranked
/// ordering, the daemon cache counters and the benchmark snapshot.  The
/// semantics themselves are held to an independent oracle by
/// `tests/integration_search.rs`; this test keeps the prose honest.
#[test]
fn search_doc_examples_parse_and_markers_hold() {
    let path = repo_root().join("docs/search.md");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut parsed = 0;
    for span in inline_code_spans(&text) {
        if !span.starts_with('/') || span.chars().all(|c| c == '/') {
            continue;
        }
        sxsi_xpath::parse_query(&span)
            .unwrap_or_else(|e| panic!("docs/search.md example {span:?} does not parse: {e}"));
        parsed += 1;
    }
    assert!(parsed >= 5, "expected >= 5 runnable ft: examples in docs/search.md, got {parsed}");
    for marker in [
        "ft:all",
        "ft:any",
        "ft:phrase",
        "tf(t, e) · ln(1 + N / df(t))",
        "smallest lowest common",
        "no covering proper descendant",
        "ties in document order",
        "top-level `and`-conjuncts of the last step's",
        "case-sensitive and byte-exact",
        "search_cache_*",
        "search_target",
        "tests/integration_search.rs",
    ] {
        assert!(text.contains(marker), "docs/search.md lost its {marker:?} marker");
    }
}

/// The guide's collection walkthrough (Step 6) stays in place and keeps
/// naming the real commands and output shapes: the CLI surface
/// (`build-collection`, `verify --deep`, `--queries-file`), the
/// doc-qualified node rendering (`store1:9`), the manifest vocabulary
/// (`.sxsic`, fingerprint, `collection-*` issue codes) and the Rust
/// entry point (`CollectionExecutor`).  The transcripts themselves are
/// held to the binary by `tests/integration_collection.rs`; this test
/// keeps the prose from silently dropping the walkthrough.
#[test]
fn guide_step6_collection_walkthrough_is_present() {
    let path = repo_root().join("docs/guide.md");
    let text = std::fs::read_to_string(&path).unwrap();
    let step6 = text
        .split("## Step 6")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("docs/guide.md lost its '## Step 6' collection section");
    for marker in [
        "sxsi build-collection",
        ".sxsic",
        "stores.d0.sxsi",
        "fingerprint",
        "store1:15, store2:9",
        "--limit 2 --offset 1",
        "verify --deep",
        "collection-*",
        "--queries-file",
        "empty-batch",
        "CollectionExecutor",
        "run_sequential",
        "tests/integration_collection.rs",
    ] {
        assert!(step6.contains(marker), "guide.md Step 6 lost its {marker:?} marker");
    }
    // The format doc keeps the manifest section the guide links to.
    let format = std::fs::read_to_string(repo_root().join("docs/format.md")).unwrap();
    for marker in ["SXSICOL\\0", "COLLECTION_FORMAT_VERSION", "num_texts", "collection-*"] {
        assert!(format.contains(marker), "format.md manifest section lost its {marker:?} marker");
    }
}

/// The fragment reference lists exactly the axes the parser accepts.
#[test]
fn fragment_reference_covers_every_axis() {
    let path = repo_root().join("docs/xpath-fragment.md");
    let text = std::fs::read_to_string(&path).unwrap();
    for (name, _) in sxsi_xpath::AXIS_NAMES {
        assert!(
            text.contains(&format!("`{name}::`")),
            "docs/xpath-fragment.md misses axis `{name}::`"
        );
    }
}
