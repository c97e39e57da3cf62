//! `xtask`: the repo-wide source-analysis gate and CI maintenance tasks.
//!
//! ```text
//! xtask lint [--root PATH]       run the analysis gate (exit 1 on findings)
//! xtask lines [--root PATH]      print non-test / test lines per crate
//! xtask corrupt <in> <out>       write a semantically corrupted index copy
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
//!
//! Individual sites that are provably safe opt out with a trailing or
//! preceding `// lint:allow(<family>: <reason>)` comment; a whole file
//! opts one family out with `// lint:allow-file(<family>: <reason>)`
//! (used by the cursor-invariant XML parser for the `index` family).
//! The reason is mandatory: an annotation without a rationale is itself
//! reported.  See `docs/verification.md`.
//!
//! `lines` counts each workspace crate's `.rs` lines with the same cut:
//! `src/` (binaries included) before the cut is non-test; the rest of
//! `src/` and all of `tests/`, `benches/` and `examples/` are test.  The
//! repository-level `tests/` directory gets a row of its own.
//!
//! `corrupt` rewrites a `.sxsi` container so that every checksum still
//! matches but a structural invariant is broken (the FM-index sample rate
//! is doubled, which only the deep walk can tell): the CI `analysis` job
//! feeds the copy to `sxsi verify --deep` and expects exit code 5 and the
//! code `fm-sample-row`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

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
    }
    check_roundtrips(&files, &mut out);

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
/// (or to the repository for its own `tests/`): `src/` splits at the
/// `#[cfg(test)]` cut, `tests/`, `benches/` and `examples/` are all test,
/// anything else (a build script) is non-test.
fn count_lines(files: &[(String, String)]) -> (usize, usize) {
    let (mut non_test, mut test) = (0, 0);
    for (path, source) in files {
        let total = source.lines().count();
        if path.starts_with("src/") {
            let shipped = non_test_prefix(source).lines().count();
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
/// label, then one for the repository-level `tests/`.
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
    let mut files = Vec::new();
    collect_sources(root, "tests", &mut files)?;
    let (non_test, test) = count_lines(&files);
    rows.push(("tests/".to_string(), non_test, test));
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

/// Doubles the FM-index sample rate — the second word of the texts
/// section, whose body begins with the FM-index — in place, recomputing the
/// section checksum so only `sxsi verify --deep` (not the loader) can tell.
fn corrupt_sample_rate(bytes: &mut [u8]) -> Result<(), String> {
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
            let rate = payload_start + 8..payload_start + 16;
            let rate_bytes = bytes
                .get(rate.clone())
                .filter(|_| len >= 16)
                .ok_or("texts section is shorter than two u64")?;
            let doubled =
                u64::from_le_bytes(rate_bytes.try_into().unwrap_or_default()).wrapping_mul(2);
            bytes[rate].copy_from_slice(&doubled.to_le_bytes());
            let checksum = fnv1a64(&bytes[payload_start..payload_end]).to_le_bytes();
            bytes[payload_end..payload_end + 8].copy_from_slice(&checksum);
            return Ok(());
        }
        pos = payload_end + 8;
    }
}

fn cmd_corrupt(args: &[String]) -> ExitCode {
    let [input, output] = args else {
        eprintln!("usage: xtask corrupt <in.sxsi> <out.sxsi>");
        return ExitCode::from(2);
    };
    let mut bytes = match std::fs::read(input) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("xtask: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = corrupt_sample_rate(&mut bytes) {
        eprintln!("xtask: {input}: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(output, &bytes) {
        eprintln!("xtask: cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    println!("xtask: wrote semantically corrupted copy to {output} (FM-index sample rate doubled)");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("lines") => cmd_lines(&args[1..]),
        Some("corrupt") => cmd_corrupt(&args[1..]),
        _ => {
            eprintln!("usage: xtask lint [--root PATH] | xtask lines [--root PATH] | xtask corrupt <in.sxsi> <out.sxsi>");
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

    #[test]
    fn corrupt_meta_recomputes_the_checksum() {
        // A miniature container: magic, version, one texts section whose
        // body opens with the FM-index length and sample rate, end.
        let payload: Vec<u8> = [40u64, 64].iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SXSI_MAGIC);
        bytes.extend_from_slice(&6u32.to_le_bytes());
        bytes.push(TEXTS_TAG);
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        bytes.push(0);

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
}
