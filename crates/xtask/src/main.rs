//! `xtask`: the repo-wide source-analysis gate and CI maintenance tasks.
//!
//! ```text
//! xtask lint [--root PATH]       run the analysis gate (exit 1 on findings)
//! xtask lines [--root PATH]      print non-test / test lines per crate
//! xtask corrupt [--plain] <in> <out>
//!                                write a semantically corrupted index copy
//! ```
//!
//! The `lint` gate enforces invariants `rustc` cannot see, by scanning
//! source text (non-test code only — everything from the first line that
//! *starts* with `#[cfg(test)]` on is exempt; a mention of the marker
//! inside a comment or indented code does not cut):
//!
//! * **panic** — no `.unwrap()` / `.expect(…)` / `panic!` family macros on
//!   the untrusted-input files (parser, container reader, protocol
//!   decoder, daemon dispatch): those surfaces promise "structured error
//!   or success, never a panic".
//! * **index** — no slice indexing on the same files (full-range `[..]`
//!   is allowed; it cannot be out of bounds).
//! * **roundtrip** — every `impl WriteInto for T` has truncation/bit-flip
//!   test evidence somewhere in the workspace: a file that calls
//!   `T::from_bytes` and exercises damaged input.
//! * **from-tag** — every `fn from_tag` decoder has a catch-all arm, so
//!   new on-disk tag bytes cannot silently alias an existing variant.
//! * **lints** — every crate keeps `#![forbid(unsafe_code)]` and
//!   `#![deny(missing_docs)]` at its root.
//! * **cut** — nothing shipped sits below the cut: every column-0 item
//!   after it in a crate's `src/` or `benches/` carries its own
//!   `#[cfg(test)]`, so the families above see all shipped code.
//! * **dead-pub** — every `pub` `fn`/`struct`/`enum`/`trait`/`type`/
//!   `const`/`static` in a crate's shipped `src/` code is referenced by
//!   shipped caller code: any crate's `src/` (binaries included) or
//!   `benches/`, the repository's `examples/`, or `perfbench/src/`.  The
//!   definition itself, `use` lines, comments, string literals and the
//!   type an `impl … for` header implements are not references.  Each
//!   file is tokenised once into the set of names it references, so a
//!   dead item whose name a live one shares goes unseen.
//!
//! Individual sites that are provably safe opt out with a trailing or
//! preceding `// lint:allow(<family>: <reason>)` comment; a whole file
//! opts one family out with `// lint:allow-file(<family>: <reason>)`
//! (used by the cursor-invariant XML parser for the `index` family).
//! The reason is mandatory: an annotation without a rationale is itself
//! reported.  See `docs/verification.md`.
//!
//! `lines` counts each workspace crate's `.rs` lines with the same cut:
//! `src/` (binaries included) before the cut, and any shipped item the
//! cut family would report below it, is non-test; the rest of `src/` and
//! all of `tests/`, `benches/` and `examples/` are test.  The
//! repository-level `examples/` and `tests/` directories get a row each.
//!
//! `corrupt` rewrites a `.sxsi` container so that every checksum still
//! matches but a structural invariant is broken, which only the deep walk
//! can tell: by default the FM-index sample rate is doubled (code
//! `fm-sample-row`); with `--plain` one text byte of the plain copy `T`
//! changes, never a terminator (code `plain-text-mismatch`).  The CI
//! `analysis` job feeds both copies to `sxsi verify --deep` and expects
//! exit code 5 and the code.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sxsi_io::fnv1a64;

/// Files whose input arrives from outside a trust boundary.  The panic
/// and index families apply only here.
const UNTRUSTED_FILES: &[&str] = &[
    "crates/xml/src/parser.rs",
    "crates/xml/src/document.rs",
    "crates/io/src/lib.rs",
    "crates/engine/src/server/protocol.rs",
    "crates/engine/src/server/mod.rs",
    "crates/engine/src/request.rs",
    "crates/core/src/io.rs",
    // Keyword search sits on the query hot path and consumes whatever
    // terms arrive over the wire, so it faces the same scrutiny.
    "crates/search/src/lib.rs",
];

/// One lint finding.
#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    family: &'static str,
    message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.family, self.message)
    }
}

// The markers are assembled at runtime so the scanner does not flag its
// own string literals when it lints this file.
fn cfg_test_marker() -> String {
    format!("#[cfg{}", "(test)]")
}

/// The portion of `source` before the first line that starts with a
/// `#[cfg(test)]` marker: lint families apply to shipped code, not to
/// tests.  Only a marker at column 0 cuts, so a comment that mentions it
/// does not exempt the code below.
fn non_test_prefix(source: &str) -> &str {
    let marker = cfg_test_marker();
    let cut = if source.starts_with(&marker) {
        Some(0)
    } else {
        source.find(&format!("\n{marker}")).map(|at| at + 1)
    };
    cut.map_or(source, |cut| &source[..cut])
}

/// Column-0 lines that open an item.
const ITEM_STARTS: &[&str] = &[
    "fn ", "pub ", "pub(", "impl ", "impl<", "mod ", "struct ", "enum ", "trait ", "type ", "const ", "static ",
    "use ", "macro_rules!", "extern ", "unsafe ", "async ",
];

/// The shipped items below the cut, as 0-based line ranges: every column-0
/// item there whose own attributes do not include `#[cfg(test)]`.  A range
/// opens at the item's doc comment or attributes and closes after its
/// first line when that ends in `;` or `}`, else after the next column-0
/// `}`.
fn shipped_below_cut(source: &str) -> Vec<std::ops::Range<usize>> {
    let marker = cfg_test_marker();
    let lines: Vec<&str> = source.lines().collect();
    let mut i = non_test_prefix(source).lines().count();
    let (mut header, mut gated) = (None, false);
    let mut out = Vec::new();
    while i < lines.len() {
        let line = lines[i];
        if line.starts_with("#[") || line.starts_with("//") {
            header.get_or_insert(i);
            gated |= line.trim_end() == marker;
            i += 1;
            continue;
        }
        let start = header.take().unwrap_or(i);
        let is_gated = std::mem::take(&mut gated);
        if !ITEM_STARTS.iter().any(|s| line.starts_with(s)) {
            i += 1;
            continue;
        }
        let end = if line.trim_end().ends_with([';', '}']) {
            i + 1
        } else {
            (i..lines.len()).find(|&j| lines[j].starts_with('}')).map_or(lines.len(), |j| j + 1)
        };
        if !is_gated {
            out.push(start..end);
        }
        i = end;
    }
    out
}

/// The `cut` family: shipped code below the `#[cfg(test)]` cut would
/// escape every other family and count as test in `lines`.
fn check_cut(file: &str, source: &str, out: &mut Vec<Violation>) {
    for range in shipped_below_cut(source) {
        out.push(Violation {
            file: file.to_string(),
            line: range.start + 1,
            family: "cut",
            message: "shipped item below the first #[cfg(test)] item (move it above the test items)".to_string(),
        });
    }
}

/// True if line `i` (0-based) of `lines` carries or follows a
/// `lint:allow(family: reason)` annotation, or the file carries a
/// `lint:allow-file(family: reason)` one.  Annotations without a
/// non-empty reason do not count (and are reported separately).
fn allowed(source: &str, lines: &[&str], i: usize, family: &str) -> bool {
    let site = format!("lint:allow({family}:");
    let file_wide = format!("lint:allow-file({family}:");
    let has_reason = |line: &str, marker: &str| {
        line.find(marker).is_some_and(|at| {
            let rest = &line[at + marker.len()..];
            rest.split(')').next().is_some_and(|reason| !reason.trim().is_empty())
        })
    };
    lines[i].contains(&site) && has_reason(lines[i], &site)
        || (i > 0 && lines[i - 1].contains(&site) && has_reason(lines[i - 1], &site))
        || source.lines().any(|l| has_reason(l, &file_wide))
}

/// Reports `lint:allow` annotations whose reason is empty: an opt-out
/// must say why.
fn check_annotations(file: &str, source: &str, out: &mut Vec<Violation>) {
    // Markers are assembled at runtime so this function does not flag its
    // own literals; test code may hold malformed annotations as fixtures.
    let markers = [format!("lint:{}(", "allow"), format!("lint:{}-file(", "allow")];
    for (i, line) in non_test_prefix(source).lines().enumerate() {
        for marker in &markers {
            let Some(at) = line.find(marker.as_str()) else { continue };
            let body = &line[at + marker.len()..];
            let Some(body) = body.split(')').next() else { continue };
            let reason = body.split_once(':').map(|(_, r)| r.trim());
            if reason.map_or(true, str::is_empty) {
                out.push(Violation {
                    file: file.to_string(),
                    line: i + 1,
                    family: "annotation",
                    message: format!("allow annotation '{marker}{body})' carries no reason"),
                });
            }
        }
    }
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// The `panic` family: panicking calls on untrusted-input files.
fn check_panics(file: &str, source: &str, out: &mut Vec<Violation>) {
    let code = non_test_prefix(source);
    let lines: Vec<&str> = code.lines().collect();
    let bang_macros = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("];
    for (i, line) in lines.iter().enumerate() {
        if is_comment(line) {
            continue;
        }
        let mut hit: Option<String> = None;
        if line.contains(".unwrap()") {
            hit = Some(".unwrap()".to_string());
        }
        for m in bang_macros {
            if line.contains(m) {
                hit.get_or_insert_with(|| m.to_string());
            }
        }
        // `.expect(b"…")` is the parser's own cursor method, not
        // `Option::expect`; everything else that looks like expect is
        // flagged.
        if let Some(at) = line.find(".expect(") {
            let rest = &line[at + ".expect(".len()..];
            if !rest.starts_with("b\"") && !rest.starts_with("b'") {
                hit.get_or_insert_with(|| ".expect(".to_string());
            }
        }
        if let Some(pattern) = hit {
            if !allowed(code, &lines, i, "panic") {
                out.push(Violation {
                    file: file.to_string(),
                    line: i + 1,
                    family: "panic",
                    message: format!(
                        "'{pattern}' on an untrusted-input path (return a structured error, \
                         or annotate with lint:allow(panic: reason))"
                    ),
                });
            }
        }
    }
}

/// The `index` family: slice/array indexing on untrusted-input files.
/// Full-range `[..]` cannot fail and is always allowed.
fn check_indexing(file: &str, source: &str, out: &mut Vec<Violation>) {
    let code = non_test_prefix(source);
    let lines: Vec<&str> = code.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if is_comment(line) || line.contains("#[") {
            continue;
        }
        let bytes = line.as_bytes();
        let mut flagged = false;
        for (p, &b) in bytes.iter().enumerate() {
            if b != b'[' || p == 0 {
                continue;
            }
            let prev = bytes[p - 1];
            if !(prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')') {
                continue; // array literal, generics, attribute…
            }
            let inner = &line[p + 1..];
            let Some(content) = inner.split(']').next() else { continue };
            if content.trim() == ".." {
                continue;
            }
            flagged = true;
        }
        if flagged && !allowed(code, &lines, i, "index") {
            out.push(Violation {
                file: file.to_string(),
                line: i + 1,
                family: "index",
                message: "slice indexing on an untrusted-input path (use get()/split \
                          helpers, or annotate with lint:allow(index: reason))"
                    .to_string(),
            });
        }
    }
}

/// The `roundtrip` family: every `WriteInto` impl needs damaged-input
/// test evidence — some workspace file calling `T::from_bytes` while
/// also exercising truncated or bit-flipped bytes.
fn check_roundtrips(files: &[(String, String)], out: &mut Vec<Violation>) {
    let impl_marker = format!("impl WriteInto{}", " for ");
    let damage_markers = ["truncat", "len() - ", "flip", "bytes.len()-"];
    for (file, source) in files {
        let code = non_test_prefix(source);
        let lines: Vec<&str> = code.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some(at) = line.find(&impl_marker) else { continue };
            let rest = &line[at + impl_marker.len()..];
            let ty: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if ty.is_empty() || allowed(code, &lines, i, "roundtrip") {
                continue;
            }
            let call = format!("{ty}::from_bytes");
            let evidence = files.iter().any(|(_, other)| {
                other.contains(&call) && damage_markers.iter().any(|m| other.contains(m))
            });
            if !evidence {
                out.push(Violation {
                    file: file.clone(),
                    line: i + 1,
                    family: "roundtrip",
                    message: format!(
                        "no truncation/bit-flip test found for '{ty}' (need a test calling \
                         {ty}::from_bytes on damaged bytes, or lint:allow(roundtrip: reason))"
                    ),
                });
            }
        }
    }
}

/// The `from-tag` family: every on-disk tag decoder must have a
/// catch-all arm so unknown bytes map to a structured error.
fn check_from_tag(file: &str, source: &str, out: &mut Vec<Violation>) {
    let code = non_test_prefix(source);
    let lines: Vec<&str> = code.lines().collect();
    let mut offset = 0usize;
    for (i, line) in lines.iter().enumerate() {
        if !is_comment(line) && line.contains("fn from_tag") && !allowed(code, &lines, i, "from-tag") {
            // The decoder body is short; a catch-all within the next 400
            // characters is required.
            let body_end = (offset + line.len() + 400).min(code.len());
            let body = &code[offset..body_end];
            if !body.contains("other =>") && !body.contains("_ =>") {
                out.push(Violation {
                    file: file.to_string(),
                    line: i + 1,
                    family: "from-tag",
                    message: "tag decoder has no catch-all arm for unknown bytes".to_string(),
                });
            }
        }
        offset += line.len() + 1;
    }
}

/// The `lints` family: every crate root forbids unsafe code and denies
/// missing docs.
fn check_crate_lints(crate_roots: &[(String, String)], out: &mut Vec<Violation>) {
    for (file, source) in crate_roots {
        for required in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
            if !source.contains(required) {
                out.push(Violation {
                    file: file.clone(),
                    line: 1,
                    family: "lints",
                    message: format!("crate root is missing '{required}'"),
                });
            }
        }
    }
}

/// Keywords whose next identifier is the name being defined, not a use.
const DEFINING_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union"];

/// Adds to `refs` every identifier in `code` that is a reference: not in
/// a comment, a string or char literal or a `use` declaration, not the
/// name right after a defining keyword, and not the type an item `impl`
/// header implements (its trait, before `for`, is a reference).
fn collect_references(code: &str, refs: &mut HashSet<String>) {
    let chars: Vec<char> = code.chars().collect();
    // `skip_to` holds the characters that end a `use` declaration or an
    // `impl` header, whose identifiers wait in `header` until it is known
    // whether a `for` follows; `last` is the previous token's last
    // character, with every identifier or literal read as 'a'.
    let (mut i, mut prev_ident, mut skip_to, mut last) = (0, String::new(), None, ';');
    let mut header: Vec<String> = Vec::new();
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        } else if c == '/' && next == Some('*') {
            i += 2;
            while i < chars.len() && !(chars[i] == '*' && chars.get(i + 1) == Some(&'/')) {
                i += 1;
            }
            i += 2;
            continue;
        } else if c.is_whitespace() {
            i += 1;
            continue;
        }
        let mut ident = String::new();
        if c == '"' {
            i += 1;
            while i < chars.len() && chars[i] != '"' {
                i += if chars[i] == '\\' { 2 } else { 1 };
            }
            i += 1;
        } else if c == '\'' {
            // A char literal ('x' or '\n'); otherwise a lifetime.
            if next == Some('\\') {
                i += 3;
                while i < chars.len() && chars[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else {
                i += if chars.get(i + 2) == Some(&'\'') { 3 } else { 1 };
            }
        } else if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            ident = chars[start..i].iter().collect();
            // A raw string: r"…", r#"…"#, br"…".
            let hashes = chars[i..].iter().take_while(|&&ch| ch == '#').count();
            if (ident == "r" || ident == "br") && chars.get(i + hashes) == Some(&'"') {
                let close: Vec<char> = std::iter::once('"').chain(std::iter::repeat('#').take(hashes)).collect();
                i += hashes + 1;
                while i < chars.len() && !chars[i..].starts_with(&close) {
                    i += 1;
                }
                i += close.len();
                ident.clear();
            }
        } else {
            if skip_to.is_some_and(|ends: &str| ends.contains(c)) {
                skip_to = None;
                let traits = header.iter().position(|id| id == "for").unwrap_or(0);
                refs.extend(header.drain(..).take(traits));
            }
            (last, i) = (c, i + 1);
            prev_ident.clear();
            continue;
        }
        if ident == "use" {
            skip_to = Some(";");
        } else if ident == "impl" && "};]{".contains(last) {
            skip_to = Some("{;");
        } else if skip_to == Some("{;") && !ident.is_empty() {
            header.push(ident.clone());
        } else if !ident.is_empty()
            && !c.is_ascii_digit()
            && skip_to.is_none()
            && !DEFINING_KEYWORDS.contains(&prev_ident.as_str())
        {
            refs.insert(ident.clone());
        }
        (prev_ident, last) = (ident, 'a');
    }
}

/// The `pub` item `line` defines, as `(kind, name)`: a `pub` (not
/// `pub(crate)`) `fn`, `struct`, `enum`, `trait`, `type`, `const` or
/// `static`.
fn pub_item(line: &str) -> Option<(&'static str, &str)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).filter(|r| r.starts_with("fn ")).unwrap_or(rest);
    }
    let (kind, rest) = ["fn", "struct", "enum", "trait", "type", "const", "static"]
        .into_iter()
        .find_map(|kind| Some((kind, rest.strip_prefix(kind)?.strip_prefix(' ')?)))?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len());
    (end > 0).then(|| (kind, &rest[..end]))
}

/// True for a file whose shipped code calls into the workspace: a crate's
/// `src/` (binaries included) or `benches/`, the repository's `examples/`,
/// or the benchmark harness's `perfbench/src/`.
fn is_caller(file: &str) -> bool {
    let in_crate = |dir: &str| file.starts_with("crates/") && file.contains(dir);
    in_crate("/src/") || in_crate("/benches/") || file.starts_with("examples/") || file.starts_with("perfbench/src/")
}

/// The `dead-pub` family: every `pub` item defined in a crate's shipped
/// `src/` code needs a reference from shipped caller code (see
/// [`is_caller`]).  Each file is tokenised once into the set of names it
/// references; an item is live when any reference carries its name, so a
/// name shared with a live item hides a dead one.
fn check_dead_pub(files: &[(String, String)], out: &mut Vec<Violation>) {
    let mut refs = HashSet::new();
    for (_, source) in files.iter().filter(|(file, _)| is_caller(file)) {
        collect_references(non_test_prefix(source), &mut refs);
        let lines: Vec<&str> = source.lines().collect();
        for range in shipped_below_cut(source) {
            collect_references(&lines[range].join("\n"), &mut refs);
        }
    }
    for (file, source) in files.iter().filter(|(file, _)| file.starts_with("crates/") && file.contains("/src/")) {
        let code = non_test_prefix(source);
        let lines: Vec<&str> = code.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let Some((kind, name)) = pub_item(line) else { continue };
            if !refs.contains(name) && !allowed(code, &lines, i, "dead-pub") {
                out.push(Violation {
                    file: file.clone(),
                    line: i + 1,
                    family: "dead-pub",
                    message: format!(
                        "pub {kind} '{name}' has no caller outside test code (delete it, or \
                         lint:allow(dead-pub: reason))"
                    ),
                });
            }
        }
    }
}

/// Collects `.rs` files under `dir`, recursively, as workspace-relative
/// `(path, contents)` pairs.
fn collect_sources(root: &Path, dir: &str, files: &mut Vec<(String, String)>) -> Result<(), String> {
    let mut pending = vec![root.join(dir)];
    while let Some(current) = pending.pop() {
        let entries = match std::fs::read_dir(&current) {
            Ok(entries) => entries,
            Err(_) if !current.exists() => continue,
            Err(e) => return Err(format!("cannot list {}: {e}", current.display())),
        };
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", current.display()))?;
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                pending.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                files.push((rel, text));
            }
        }
    }
    files.sort();
    Ok(())
}

/// Runs every lint family over the workspace at `root`.
fn run_lint(root: &Path) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    collect_sources(root, "crates", &mut files)?;
    collect_sources(root, "tests", &mut files)?;
    if files.is_empty() {
        return Err(format!("no sources found under {} (wrong --root?)", root.display()));
    }

    let mut out = Vec::new();
    for (file, source) in &files {
        check_annotations(file, source, &mut out);
        if UNTRUSTED_FILES.contains(&file.as_str()) {
            check_panics(file, source, &mut out);
            check_indexing(file, source, &mut out);
        }
        check_from_tag(file, source, &mut out);
        if is_caller(file) {
            check_cut(file, source, &mut out);
        }
    }
    check_roundtrips(&files, &mut out);
    // Callers outside the workspace crates feed only the dead-pub family.
    let mut callers = files.clone();
    collect_sources(root, "examples", &mut callers)?;
    collect_sources(root, "perfbench/src", &mut callers)?;
    check_dead_pub(&callers, &mut out);

    // Crate roots: lib.rs when present, the binary root otherwise.
    let mut crate_roots = Vec::new();
    for (file, source) in &files {
        if file.ends_with("src/lib.rs") || (file.ends_with("src/main.rs") && !files.iter().any(|(f, _)| f == &file.replace("main.rs", "lib.rs"))) {
            crate_roots.push((file.clone(), source.clone()));
        }
    }
    check_crate_lints(&crate_roots, &mut out);
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

/// Parses the `[--root PATH]` option of `lint` and `lines`; defaults to
/// the workspace root even when invoked from a crate directory.
fn parse_root(command: &str, args: &[String]) -> Result<PathBuf, ExitCode> {
    let mut root = PathBuf::from(".");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(path) => root = PathBuf::from(path),
                None => {
                    eprintln!("xtask: --root expects a path");
                    return Err(ExitCode::from(2));
                }
            },
            other => {
                eprintln!("xtask: unknown {command} option '{other}'");
                return Err(ExitCode::from(2));
            }
        }
    }
    if !root.join("crates").is_dir() && Path::new("../../crates").is_dir() {
        root = PathBuf::from("../..");
    }
    Ok(root)
}

fn cmd_lint(args: &[String]) -> ExitCode {
    let root = match parse_root("lint", args) {
        Ok(root) => root,
        Err(code) => return code,
    };
    match run_lint(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("xtask lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            eprintln!("xtask lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// lines: the tracked per-crate line counts
// ---------------------------------------------------------------------

/// `(non-test, test)` lines of `files`, paths relative to their crate
/// (or to the repository for its own `tests/` and `examples/`): `src/`
/// splits at the `#[cfg(test)]` cut, with any shipped item below it
/// counted as non-test; `tests/`, `benches/` and `examples/` are all
/// test, anything else (a build script) is non-test.
fn count_lines(files: &[(String, String)]) -> (usize, usize) {
    let (mut non_test, mut test) = (0, 0);
    for (path, source) in files {
        let total = source.lines().count();
        if path.starts_with("src/") {
            let below: usize = shipped_below_cut(source).iter().map(ExactSizeIterator::len).sum();
            let shipped = non_test_prefix(source).lines().count() + below;
            non_test += shipped;
            test += total - shipped;
        } else if ["tests/", "benches/", "examples/"].iter().any(|dir| path.starts_with(dir)) {
            test += total;
        } else {
            non_test += total;
        }
    }
    (non_test, test)
}

/// The package name in `Cargo.toml`'s `name = "…"` line, if any.
fn package_name(manifest: &str) -> Option<&str> {
    manifest.lines().find_map(|line| line.trim().strip_prefix("name = ")?.trim().strip_prefix('"')?.strip_suffix('"'))
}

/// One `(label, non-test, test)` row per workspace crate, sorted by
/// label, then one each for the repository-level `examples/` and
/// `tests/`.
fn line_table(root: &Path) -> Result<Vec<(String, usize, usize)>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir).map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
    let mut rows = Vec::new();
    for entry in entries {
        let dir = entry.map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?.path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let mut files = Vec::new();
        collect_sources(&dir, ".", &mut files)?;
        let label = package_name(&manifest).map(str::to_string).unwrap_or_else(|| dir.display().to_string());
        let (non_test, test) = count_lines(&files);
        rows.push((label, non_test, test));
    }
    rows.sort();
    for dir in ["examples", "tests"] {
        let mut files = Vec::new();
        collect_sources(root, dir, &mut files)?;
        let (non_test, test) = count_lines(&files);
        rows.push((format!("{dir}/"), non_test, test));
    }
    Ok(rows)
}

fn cmd_lines(args: &[String]) -> ExitCode {
    let root = match parse_root("lines", args) {
        Ok(root) => root,
        Err(code) => return code,
    };
    match line_table(&root) {
        Ok(rows) => {
            println!("{:<20} {:>9} {:>9}", "crate", "non-test", "test");
            for (label, non_test, test) in &rows {
                println!("{label:<20} {non_test:>9} {test:>9}");
            }
            let (non_test, test) = rows.iter().fold((0, 0), |(a, b), (_, n, t)| (a + n, b + t));
            println!("{:<20} {non_test:>9} {test:>9}", "total");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// corrupt: a checksum-valid semantic mutation for CI
// ---------------------------------------------------------------------

const SXSI_MAGIC: &[u8; 8] = b"SXSIIDX\0";
const TEXTS_TAG: u8 = 3;

/// Applies `mutate` to the payload of the texts section of a `.sxsi`
/// container in place, then recomputes the section checksum so only
/// `sxsi verify --deep` (not the loader) can tell.
fn corrupt_texts(
    bytes: &mut [u8],
    mutate: impl FnOnce(&mut [u8]) -> Result<(), String>,
) -> Result<(), String> {
    if bytes.len() < 13 || &bytes[..8] != SXSI_MAGIC {
        return Err("not a .sxsi container (bad magic)".to_string());
    }
    let mut pos = 12usize; // magic + version
    loop {
        let Some(&tag) = bytes.get(pos) else {
            return Err("container ends inside the section list".to_string());
        };
        if tag == 0 {
            return Err("no texts section found before the end marker".to_string());
        }
        let len_bytes = bytes
            .get(pos + 1..pos + 9)
            .ok_or("container ends inside a section header")?;
        let len = usize::try_from(u64::from_le_bytes(len_bytes.try_into().unwrap_or_default()))
            .map_err(|_| "section length overflows usize".to_string())?;
        let payload_start = pos + 9;
        let payload_end = payload_start
            .checked_add(len)
            .filter(|&end| end + 8 <= bytes.len())
            .ok_or("section payload runs past the end of the file")?;
        if tag == TEXTS_TAG {
            mutate(&mut bytes[payload_start..payload_end])?;
            let checksum = fnv1a64(&bytes[payload_start..payload_end]).to_le_bytes();
            bytes[payload_end..payload_end + 8].copy_from_slice(&checksum);
            return Ok(());
        }
        pos = payload_end + 8;
    }
}

/// Doubles the FM-index sample rate — the second word of the texts
/// section, whose body begins with the FM-index.
fn corrupt_sample_rate(bytes: &mut [u8]) -> Result<(), String> {
    corrupt_texts(bytes, |texts| {
        let rate = texts.get_mut(8..16).ok_or("texts section is shorter than two u64")?;
        let doubled = u64::from_le_bytes((&*rate).try_into().unwrap_or_default()).wrapping_mul(2);
        rate.copy_from_slice(&doubled.to_le_bytes());
        Ok(())
    })
}

/// Changes the last text byte of the plain copy `T` to another non-zero
/// byte, so every terminator (byte 0) stays in place and the loader accepts
/// it.  The texts body opens with the FM-index length, which is `|T|`, and
/// ends with `T`.
fn corrupt_plain_text(bytes: &mut [u8]) -> Result<(), String> {
    corrupt_texts(bytes, |texts| {
        let t_len = texts.get(..8).map(|w| u64::from_le_bytes(w.try_into().unwrap_or_default()));
        let t_start = t_len
            .and_then(|len| texts.len().checked_sub(usize::try_from(len).ok()?))
            .ok_or("texts section is shorter than the text length it declares")?;
        let at = t_start + texts[t_start..].iter().rposition(|&b| b != 0).ok_or("the plain copy holds no text byte")?;
        texts[at] = if texts[at] == 0xff { 1 } else { texts[at] + 1 };
        Ok(())
    })
}

fn cmd_corrupt(args: &[String]) -> ExitCode {
    let plain = args.first().is_some_and(|a| a == "--plain");
    let [input, output] = &args[usize::from(plain)..] else {
        eprintln!("usage: xtask corrupt [--plain] <in.sxsi> <out.sxsi>");
        return ExitCode::from(2);
    };
    let mut bytes = match std::fs::read(input) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("xtask: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (corrupted, what) = if plain {
        (corrupt_plain_text(&mut bytes), "one text byte of the plain copy changed")
    } else {
        (corrupt_sample_rate(&mut bytes), "FM-index sample rate doubled")
    };
    if let Err(e) = corrupted {
        eprintln!("xtask: {input}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(output, &bytes) {
        eprintln!("xtask: cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    println!("xtask: wrote semantically corrupted copy to {output} ({what})");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("lines") => cmd_lines(&args[1..]),
        Some("corrupt") => cmd_corrupt(&args[1..]),
        _ => {
            eprintln!("usage: xtask lint [--root PATH] | xtask lines [--root PATH] | xtask corrupt [--plain] <in.sxsi> <out.sxsi>");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_one(file: &str, source: &str) -> Vec<Violation> {
        let mut out = Vec::new();
        check_annotations(file, source, &mut out);
        check_panics(file, source, &mut out);
        check_indexing(file, source, &mut out);
        check_from_tag(file, source, &mut out);
        out
    }

    #[test]
    fn seeded_panic_violations_are_caught() {
        let source = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let hits = lint_one("crates/io/src/lib.rs", source);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].family, "panic");
        assert_eq!(hits[0].line, 2);

        let source = "fn f() {\n    panic!(\"boom\");\n}\n";
        assert_eq!(lint_one("x.rs", source).len(), 1);

        let source = "fn f(x: Option<u8>) {\n    x.expect(\"msg\");\n}\n";
        assert_eq!(lint_one("x.rs", source).len(), 1);
    }

    #[test]
    fn parser_cursor_expect_is_not_confused_with_option_expect() {
        let source = "fn f(p: &mut P) {\n    p.expect(b\">\");\n}\n";
        assert!(lint_one("x.rs", source).is_empty());
    }

    #[test]
    fn allow_annotations_suppress_with_a_reason_only() {
        let with_reason =
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint:allow(panic: test seeded)\n}\n";
        assert!(lint_one("x.rs", with_reason).is_empty());

        let without_reason =
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint:allow(panic:)\n}\n";
        let hits = lint_one("x.rs", without_reason);
        // Both the missing reason and the undampened unwrap are reported.
        assert!(hits.iter().any(|v| v.family == "annotation"), "{hits:?}");
        assert!(hits.iter().any(|v| v.family == "panic"), "{hits:?}");
    }

    #[test]
    fn file_wide_allow_covers_every_site_of_one_family() {
        let source = "// lint:allow-file(index: cursor invariant)\nfn f(d: &[u8]) -> u8 {\n    d[0]\n}\n";
        assert!(lint_one("x.rs", source).is_empty());
        // …but only that family.
        let source = "// lint:allow-file(index: cursor invariant)\nfn f(d: &[u8]) -> u8 {\n    d[0].wrapping_add(1);\n    panic!(\"boom\")\n}\n";
        let hits = lint_one("x.rs", source);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].family, "panic");
    }

    #[test]
    fn seeded_indexing_is_caught_but_full_range_is_not() {
        let source = "fn f(d: &[u8]) -> u8 {\n    d[3]\n}\n";
        let hits = lint_one("x.rs", source);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].family, "index");

        let source = "fn f(d: &[u8]) -> &[u8] {\n    &d[..]\n}\n";
        assert!(lint_one("x.rs", source).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let marker = cfg_test_marker();
        let source = format!("fn ok() {{}}\n{marker}\nmod t {{\n    fn f(x: Option<u8>) -> u8 {{ x.unwrap() }}\n}}\n");
        assert!(lint_one("x.rs", &source).is_empty());
    }

    #[test]
    fn only_a_column_zero_marker_cuts() {
        let marker = cfg_test_marker();
        let source = format!(
            "//! Not `{marker}` here.\nfn f(x: Option<u8>) -> u8 {{\n    x.unwrap()\n}}\n    {marker}\nfn g() {{}}\n{marker}\nmod t {{}}\n"
        );
        assert_eq!(non_test_prefix(&source).lines().count(), 6);
        let hits = lint_one("crates/io/src/lib.rs", &source);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert_eq!(non_test_prefix(&format!("{marker}\nmod t {{}}\n")), "");
    }

    #[test]
    fn lines_split_src_at_the_cut_and_count_test_dirs_as_test() {
        let marker = cfg_test_marker();
        let lib = format!("//! `{marker}` in a doc comment\nfn a() {{}}\n{marker}\nmod t {{}}\n");
        let files: Vec<(String, String)> = [
            ("src/lib.rs", lib.as_str()),
            ("src/bin/tool.rs", "fn main() {}\n"),
            ("tests/t.rs", "#[test]\nfn t() {}\n"),
            ("benches/b.rs", "fn main() {}\n"),
            ("examples/e.rs", "fn main() {}\n"),
        ]
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
        assert_eq!(count_lines(&files), (3, 6));
        assert_eq!(package_name("[package]\nname = \"sxsi-x\"\n"), Some("sxsi-x"));
    }

    #[test]
    fn from_tag_without_catch_all_is_caught() {
        let source = "fn from_tag(tag: u8) -> Self {\n    match tag {\n        0 => Self::A,\n        1 => Self::B,\n    }\n}\n";
        let hits = lint_one("x.rs", source);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].family, "from-tag");

        let source = "fn from_tag(tag: u8) -> Result<Self, E> {\n    match tag {\n        0 => Ok(Self::A),\n        other => Err(bad(other)),\n    }\n}\n";
        assert!(lint_one("x.rs", source).is_empty());

        // A comment naming the decoder is not a decoder.
        assert!(lint_one("x.rs", "//! every `fn from_tag` has a catch-all\n").is_empty());
    }

    #[test]
    fn roundtrip_without_evidence_is_caught() {
        let impl_line = format!("impl WriteInto{}Widget {{}}\n", " for ");
        let files = vec![("a.rs".to_string(), impl_line)];
        let mut out = Vec::new();
        check_roundtrips(&files, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].family, "roundtrip");

        let evidence = "fn t() { let _ = Widget::from_bytes(&bytes[..bytes.len() - 1]); } // truncation".to_string();
        let files = vec![files[0].clone(), ("b.rs".to_string(), evidence)];
        let mut out = Vec::new();
        check_roundtrips(&files, &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn crate_root_lints_are_required() {
        let roots = vec![("crates/x/src/lib.rs".to_string(), "//! docs\n".to_string())];
        let mut out = Vec::new();
        check_crate_lints(&roots, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.family == "lints"));
    }

    /// Runs the dead-pub family over `(path, source)` pairs.
    fn dead_pub(files: &[(&str, &str)]) -> Vec<Violation> {
        let files: Vec<(String, String)> = files.iter().map(|(p, s)| (p.to_string(), s.to_string())).collect();
        let mut out = Vec::new();
        check_dead_pub(&files, &mut out);
        out
    }

    #[test]
    fn seeded_dead_pub_fn_is_reported() {
        let lib = "pub fn live() {}\npub fn dead() {}\npub(crate) fn narrow() {}\npub struct Unused;\n";
        let main = "fn main() {\n    lib::live();\n}\n";
        let hits = dead_pub(&[("crates/a/src/lib.rs", lib), ("crates/a/src/main.rs", main)]);
        let names: Vec<(usize, &str)> = hits.iter().map(|v| (v.line, v.family)).collect();
        assert_eq!(names, [(2, "dead-pub"), (4, "dead-pub")], "{hits:?}");
        assert!(hits[0].message.contains("pub fn 'dead'"), "{hits:?}");
    }

    #[test]
    fn tests_use_lines_and_comments_do_not_save_a_pub_item() {
        let marker = cfg_test_marker();
        let lib = format!(
            "//! Call [`dead`] like `dead()`.\npub fn dead() {{}}\n{marker}\nmod tests {{\n    fn t() {{ super::dead(); }}\n}}\n"
        );
        let user = "use a::dead;\npub use a::dead as again;\n// dead();\n/* dead() */\nfn f() -> &'static str { \"dead()\" }\n";
        let hits = dead_pub(&[
            ("crates/a/src/lib.rs", &lib),
            ("crates/b/src/lib.rs", user),
            ("crates/a/tests/t.rs", "fn t() { a::dead(); }\n"),
            ("tests/t.rs", "fn t() { a::dead(); }\n"),
        ]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].file.as_str(), hits[0].line), ("crates/a/src/lib.rs", 2));
    }

    #[test]
    fn examples_benches_and_perfbench_are_callers() {
        let lib = "pub fn a() {}\npub fn b() {}\npub fn c() {}\npub struct S;\nimpl S {}\n";
        let hits = dead_pub(&[
            ("crates/x/src/lib.rs", lib),
            ("examples/e.rs", "fn main() { x::a(); }\n"),
            ("crates/bench/benches/fig.rs", "fn main() { x::b(); }\n"),
            ("perfbench/src/sut.rs", "fn f() { x::c(); }\n"),
        ]);
        // `impl S` names the type it implements, which is no caller.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("struct 'S'"), "{hits:?}");
    }

    #[test]
    fn dead_pub_allow_needs_a_reason() {
        let allowed = "// lint:allow(dead-pub: test oracle)\npub fn oracle() {}\n";
        assert!(dead_pub(&[("crates/a/src/lib.rs", allowed)]).is_empty());
        let empty = "// lint:allow(dead-pub:)\npub fn oracle() {}\n";
        let mut hits = dead_pub(&[("crates/a/src/lib.rs", empty)]);
        check_annotations("crates/a/src/lib.rs", empty, &mut hits);
        let families: Vec<&str> = hits.iter().map(|v| v.family).collect();
        assert_eq!(families, ["dead-pub", "annotation"], "{hits:?}");
    }

    #[test]
    fn shipped_items_below_the_cut_are_reported_and_counted() {
        let marker = cfg_test_marker();
        let impl_line = format!("impl WriteInto{}ProbeBelow {{}}", " for ");
        let source = format!(
            "fn a() {{}}\n{marker}\nimpl Probe {{\n    fn p() {{}}\n}}\n\n/// Docs.\n{impl_line}\n\n{marker}\nmod tests {{\n}}\n"
        );
        let mut hits = Vec::new();
        check_cut("crates/a/src/lib.rs", &source, &mut hits);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].family, hits[0].line), ("cut", 7));
        assert_eq!(shipped_below_cut(&source), vec![std::ops::Range { start: 6, end: 8 }]);
        let files = vec![("src/lib.rs".to_string(), source)];
        assert_eq!(count_lines(&files), (3, 9));
    }

    #[test]
    fn the_repo_itself_lints_clean() {
        // Locate the workspace root relative to this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = run_lint(&root).expect("lint run must complete");
        assert!(
            violations.is_empty(),
            "the repo must lint clean:\n{}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n")
        );
    }

    /// A miniature container: magic, version, one texts section holding
    /// `payload`, end.
    fn container(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SXSI_MAGIC);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.push(TEXTS_TAG);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.push(0);
        bytes
    }

    #[test]
    fn corrupt_meta_recomputes_the_checksum() {
        // The texts body opens with the FM-index length and sample rate.
        let payload: Vec<u8> = [40u64, 64].iter().flat_map(|w| w.to_le_bytes()).collect();
        let bytes = container(&payload);

        let mut corrupted = bytes.clone();
        corrupt_sample_rate(&mut corrupted).expect("well-formed container must corrupt cleanly");
        assert_ne!(bytes, corrupted);
        // Layout: magic(8) version(4) tag(1) length(8) payload(16) checksum(8).
        let new_payload = &corrupted[21..37];
        assert_eq!(u64::from_le_bytes(new_payload[8..].try_into().unwrap()), 128);
        let new_checksum = &corrupted[37..45];
        assert_eq!(u64::from_le_bytes(new_checksum.try_into().unwrap()), fnv1a64(new_payload));

        assert!(corrupt_sample_rate(&mut b"notmagic".to_vec()).is_err());
        assert!(corrupt_sample_rate(&mut bytes[..12].to_vec()).is_err());
        assert!(corrupt_sample_rate(&mut bytes[..29].to_vec()).is_err());
    }

    #[test]
    fn corrupt_plain_changes_one_text_byte_and_recomputes_the_checksum() {
        // The texts body opens with the FM-index length |T| and ends with
        // `T` = "ab\0\0" (the last text is empty); what lies between is
        // opaque to the tool.
        let t = b"ab\0\0";
        let mut payload: Vec<u8> = [t.len() as u64, 64, 7].iter().flat_map(|w| w.to_le_bytes()).collect();
        payload.extend_from_slice(t);
        let bytes = container(&payload);
        let mut corrupted = bytes.clone();
        corrupt_plain_text(&mut corrupted).expect("well-formed container must corrupt cleanly");
        // Layout: magic(8) version(4) tag(1) length(8) payload checksum(8).
        let new_payload = &corrupted[21..21 + payload.len()];
        // The last text byte 'b' changed; the terminators did not.
        assert_eq!(&new_payload[new_payload.len() - 4..], b"ac\0\0");
        assert_eq!(new_payload[..payload.len() - 4], payload[..payload.len() - 4]);
        let checksum = &corrupted[21 + payload.len()..29 + payload.len()];
        assert_eq!(u64::from_le_bytes(checksum.try_into().unwrap()), fnv1a64(new_payload));

        // A plain copy of terminators only has no byte to change, and a
        // declared length beyond the body is rejected.
        let mut empty: Vec<u8> = 1u64.to_le_bytes().to_vec();
        empty.push(0);
        assert!(corrupt_plain_text(&mut container(&empty)).is_err());
        assert!(corrupt_plain_text(&mut container(&99u64.to_le_bytes())).is_err());
        assert!(corrupt_plain_text(&mut b"notmagic".to_vec()).is_err());
        assert!(corrupt_plain_text(&mut bytes[..20].to_vec()).is_err());
    }
}
