//! Deep structural verification support for the SXSI index structures.
//!
//! The `.sxsi` container checksums bytes, and every `ReadFrom`
//! implementation re-validates the invariants it needs to run unchecked —
//! but neither guarantees that a *well-formed* file is *semantically
//! consistent*: a rank directory can disagree with its payload words, an
//! Elias-Fano sequence can decode to a non-monotone list, a relative
//! tag-position table can describe a different document than the
//! parenthesis sequence next to it.  This crate defines the small
//! vocabulary the index crates use to express and report those deep
//! checks: the [`Verify`] trait, the [`VerifyReport`] it produces, and the
//! [`VerifyContext`] accumulator that keeps a structure path so a finding
//! like `tree/bp/rmm-block-min` points at the exact component that drifted.
//!
//! Implementations live next to each structure (where its private fields
//! are visible), mirroring how the `WriteInto`/`ReadFrom` pairs are laid
//! out.  The top of the stack is `SxsiIndex::verify(depth)` in `sxsi-core`
//! and the `sxsi verify` CLI subcommand.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt;

/// How much work a verification pass is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerifyDepth {
    /// Structural checks that are linear in the *directory* sizes:
    /// recompute rank/select directories, level lengths, C-arrays,
    /// monotonicity of encoded sequences.  Fast enough for paranoid load.
    Quick,
    /// Everything in `Quick` plus semantic cross-structure checks that may
    /// replay whole sequences (tag-table reconstruction, FM-index locate
    /// walks against the plain store, per-sample position tracking).
    Deep,
}

impl VerifyDepth {
    /// Whether this depth includes the expensive semantic checks.
    #[inline]
    pub fn is_deep(self) -> bool {
        matches!(self, VerifyDepth::Deep)
    }
}

/// One verification finding: a stable kebab-case code plus the path of the
/// component it was found in and a human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyIssue {
    /// Stable machine-readable code (kebab-case), e.g. `rmm-block-min`.
    pub code: &'static str,
    /// Slash-separated path of the component, e.g. `tree/bp`.
    pub path: String,
    /// Human-readable description of the inconsistency.
    pub detail: String,
}

impl fmt::Display for VerifyIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error code={} path={} detail={}", self.code, self.path, self.detail)
    }
}

/// The outcome of a verification pass: every issue found, plus how many
/// individual checks ran (so "no issues" can be told apart from "nothing
/// was checked").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Every inconsistency found, in discovery order.
    pub issues: Vec<VerifyIssue>,
    /// Number of individual invariant checks that were evaluated.
    pub checks_run: usize,
}

impl VerifyReport {
    /// Whether the pass found no inconsistencies.
    pub fn is_ok(&self) -> bool {
        self.issues.is_empty()
    }

    /// Whether an issue with the given code was reported.
    // lint:allow(dead-pub: shown in docs/verification.md)
    pub fn has_code(&self, code: &str) -> bool {
        self.issues.iter().any(|i| i.code == code)
    }

    /// The distinct issue codes reported, in first-seen order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for issue in &self.issues {
            if !out.contains(&issue.code) {
                out.push(issue.code);
            }
        }
        out
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.issues.is_empty() {
            return write!(f, "ok checks={}", self.checks_run);
        }
        writeln!(f, "{} issue(s) in {} checks:", self.issues.len(), self.checks_run)?;
        for issue in &self.issues {
            writeln!(f, "{issue}")?;
        }
        Ok(())
    }
}

/// Accumulator passed through a verification pass: keeps the current
/// component path, counts checks, and records findings.
#[derive(Debug, Default)]
pub struct VerifyContext {
    path: Vec<&'static str>,
    issues: Vec<VerifyIssue>,
    checks_run: usize,
}

impl VerifyContext {
    /// Creates an empty context rooted at the top-level structure.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with `segment` pushed onto the component path.
    pub fn enter<F: FnOnce(&mut Self)>(&mut self, segment: &'static str, f: F) {
        self.path.push(segment);
        f(self);
        self.path.pop();
    }

    /// The current slash-separated component path.
    pub fn current_path(&self) -> String {
        self.path.join("/")
    }

    /// Records one evaluated check; when `ok` is false, records an issue
    /// with the given code and lazily-built detail.
    pub fn check(&mut self, code: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        self.checks_run += 1;
        if !ok {
            self.issue(code, detail());
        }
    }

    /// Records an issue directly (for findings discovered outside a
    /// boolean check, e.g. while iterating).
    pub fn issue(&mut self, code: &'static str, detail: impl Into<String>) {
        self.issues.push(VerifyIssue { code, path: self.current_path(), detail: detail.into() });
    }

    /// Number of issues recorded so far.
    pub fn issue_count(&self) -> usize {
        self.issues.len()
    }

    /// Finishes the pass, producing the report.
    pub fn finish(self) -> VerifyReport {
        VerifyReport { issues: self.issues, checks_run: self.checks_run }
    }
}

/// Deep-invariant verification of a persisted structure.
///
/// `verify_into` appends findings to a shared [`VerifyContext`]; the
/// provided [`Verify::verify`] wraps it for standalone use.  Quick-depth
/// checks must be cheap enough for a paranoid load path; deep checks may
/// replay whole sequences.
pub trait Verify {
    /// Runs the structure's invariant checks, appending findings to `ctx`.
    fn verify_into(&self, depth: VerifyDepth, ctx: &mut VerifyContext);

    /// Runs the checks standalone and returns the report.
    fn verify(&self, depth: VerifyDepth) -> VerifyReport {
        let mut ctx = VerifyContext::new();
        self.verify_into(depth, &mut ctx);
        ctx.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Good;
    impl Verify for Good {
        fn verify_into(&self, _depth: VerifyDepth, ctx: &mut VerifyContext) {
            ctx.check("never", true, || unreachable!());
        }
    }

    struct Bad;
    impl Verify for Bad {
        fn verify_into(&self, depth: VerifyDepth, ctx: &mut VerifyContext) {
            ctx.enter("inner", |ctx| {
                ctx.check("always-wrong", false, || "it is wrong".into());
            });
            if depth.is_deep() {
                ctx.issue("deep-only", "found while replaying");
            }
        }
    }

    #[test]
    fn clean_report() {
        let report = Good.verify(VerifyDepth::Quick);
        assert!(report.is_ok());
        assert_eq!(report.checks_run, 1);
        assert_eq!(format!("{report}"), "ok checks=1");
    }

    #[test]
    fn findings_carry_path_and_code() {
        let report = Bad.verify(VerifyDepth::Quick);
        assert!(!report.is_ok());
        assert!(report.has_code("always-wrong"));
        assert!(!report.has_code("deep-only"));
        assert_eq!(report.issues[0].path, "inner");
        assert!(format!("{report}").contains("error code=always-wrong path=inner"));

        let deep = Bad.verify(VerifyDepth::Deep);
        assert_eq!(deep.codes(), vec!["always-wrong", "deep-only"]);
        assert!(VerifyDepth::Deep.is_deep() && !VerifyDepth::Quick.is_deep());
    }

    #[test]
    fn nested_paths_join_with_slashes() {
        let mut ctx = VerifyContext::new();
        ctx.enter("tree", |ctx| {
            ctx.enter("bp", |ctx| {
                assert_eq!(ctx.current_path(), "tree/bp");
                ctx.issue("x", "y");
            });
        });
        assert_eq!(ctx.finish().issues[0].path, "tree/bp");
    }
}
