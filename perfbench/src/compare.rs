//! `bench compare <a> <b>`: the regression gate between two sets of result
//! files (a file, or a directory of `result-*.json`).
//!
//! Per workload row and end-to-end metric it prints the ratio *with its
//! base*, and a verdict against the metric's bound: `worse` / `better` when
//! the change is larger than the bound and larger than the runs' own spread,
//! `unresolved` when the spread is wider than the bound (so "no change"
//! cannot be claimed either), else `same`.  Runs of the same seed on the two
//! sides are compared as pairs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats;

/// One result file, reduced to what the comparison needs.
#[derive(Debug, Clone)]
struct RunRows {
    seed: u64,
    /// Corpus sizes and window length: runs that differ in either did
    /// different work and are not comparable.
    settings: (String, f64),
    digest: String,
    failed: f64,
    /// name → (value, mad)
    rows: BTreeMap<String, (f64, f64)>,
}

/// A verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spread narrower than the bound.
    Same,
    /// Improved by more than the bound and the spread.
    Better,
    /// Worsened by more than the bound and the spread.
    Worse,
    /// The runs' own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn parse_run(doc: &Json) -> Option<(String, RunRows)> {
    let rows = doc
        .get("rows")?
        .as_arr()?
        .iter()
        .filter_map(|row| {
            Some((
                row.get("name")?.as_str()?.to_string(),
                (
                    row.get("value")?.as_f64()?,
                    row.get("mad")?.as_f64().unwrap_or(0.0),
                ),
            ))
        })
        .collect();
    Some((
        doc.get("workload")?.as_str()?.to_string(),
        RunRows {
            seed: doc.get("seed")?.as_str()?.parse().ok()?,
            settings: (
                doc.get("sizes")?.as_str()?.to_string(),
                doc.get("seconds")?.as_f64()?,
            ),
            digest: doc.get("answers_digest")?.as_str()?.to_string(),
            failed: doc.get("failed")?.as_f64()?,
            rows,
        },
    ))
}

/// Loads a result file, or every `result-*.json` of a directory, by workload.
fn load_side(path: &Path) -> Result<BTreeMap<String, Vec<RunRows>>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))? {
            let file = entry.map_err(|e| e.to_string())?.path();
            let name = file
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            if name.starts_with("result-") && name.ends_with(".json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut side: BTreeMap<String, Vec<RunRows>> = BTreeMap::new();
    for file in &files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        // Traced runs report per-layer rows, which have no bound to gate on.
        if doc.get("trace") == Some(&Json::Bool(true)) {
            continue;
        }
        let (workload, run) = parse_run(&doc)
            .ok_or_else(|| format!("{}: not a result file of this benchmark", file.display()))?;
        side.entry(workload).or_default().push(run);
    }
    if side.is_empty() {
        return Err(format!("{}: no end-to-end result files", path.display()));
    }
    Ok(side)
}

/// Twice the largest in-run MAD relative to the value (≈ the quartile
/// distance of the run's own samples): the only spread one run can offer.
fn in_run_spread<'a>(runs: impl Iterator<Item = &'a RunRows>, metric: &str) -> f64 {
    runs.filter_map(|r| r.rows.get(metric))
        .map(|(value, mad)| {
            if *value != 0.0 {
                2.0 * mad / value.abs()
            } else {
                0.0
            }
        })
        .fold(0.0, f64::max)
}

/// Relative spread of `values`: the quartile distance over the median with
/// four or more values, the whole range with two or three.
fn spread_of(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 | 1 => None,
        2 | 3 => {
            let median = stats::median(values)?;
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            (median != 0.0).then(|| (hi - lo) / median.abs())
        }
        _ => stats::iqr_share(values),
    }
}

/// Base, new value and spread of one metric between two sides.
///
/// Runs of the same seed are compared pairwise — the ratio `b / a` per seed,
/// then the median ratio and the spread *of the ratios* — so that what a
/// seed's corpus does to a metric cancels.  Without a common seed the two
/// sides' medians are compared and the spread is the wider of their own.
fn base_new_spread(
    runs_a: &[RunRows],
    runs_b: &[RunRows],
    metric: &str,
) -> Option<(f64, f64, f64)> {
    let value = |run: &RunRows| run.rows.get(metric).map(|v| v.0);
    let pairs: Vec<(f64, f64)> = runs_a
        .iter()
        .filter_map(|a| {
            let b = runs_b.iter().find(|b| b.seed == a.seed)?;
            Some((value(a)?, value(b)?))
        })
        .collect();
    if pairs.is_empty() {
        let (a, b): (Vec<f64>, Vec<f64>) = (
            runs_a.iter().filter_map(value).collect(),
            runs_b.iter().filter_map(value).collect(),
        );
        let own = |values: &[f64], runs: &[RunRows]| {
            spread_of(values).unwrap_or_else(|| in_run_spread(runs.iter(), metric))
        };
        return Some((
            stats::median(&a)?,
            stats::median(&b)?,
            own(&a, runs_a).max(own(&b, runs_b)),
        ));
    }
    let base = stats::median(&pairs.iter().map(|p| p.0).collect::<Vec<_>>())?;
    if base == 0.0 {
        return Some((
            0.0,
            stats::median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>())?,
            0.0,
        ));
    }
    let ratios: Vec<f64> = pairs
        .iter()
        .filter(|p| p.0 != 0.0)
        .map(|p| p.1 / p.0)
        .collect();
    let ratio = stats::median(&ratios)?;
    let spread =
        spread_of(&ratios).unwrap_or_else(|| in_run_spread(runs_a.iter().chain(runs_b), metric));
    Some((base, base * ratio, spread))
}

/// The verdict on a metric whose median went from `base` to `new`.
pub fn verdict(base: f64, new: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if base == 0.0 {
        return if new == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let change = (new - base) / base.abs();
    let worsening = if better == Better::Lower {
        change
    } else {
        -change
    };
    let threshold = bound.max(spread);
    if worsening > threshold {
        Verdict::Worse
    } else if worsening < -threshold {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

/// The outcome of a comparison.
#[derive(Debug)]
pub struct Comparison {
    /// The printed table.
    pub text: String,
    /// `(workload, metric, verdict)` for every row.
    pub verdicts: Vec<(String, &'static str, Verdict)>,
    /// Workloads whose answers differ for the same seed, or with failures.
    pub wrong: Vec<String>,
}

impl Comparison {
    /// No metric worse, no answer different, no operation failed.
    pub fn passed(&self) -> bool {
        self.wrong.is_empty() && self.verdicts.iter().all(|(_, _, v)| *v != Verdict::Worse)
    }

    /// Additionally, no metric unresolved (the A/A acceptance test).
    pub fn resolved(&self) -> bool {
        self.passed()
            && self
                .verdicts
                .iter()
                .all(|(_, _, v)| *v != Verdict::Unresolved)
    }
}

/// Compares side `a` (the base) with side `b`.
pub fn compare(a: &Path, b: &Path) -> Result<Comparison, String> {
    let (side_a, side_b) = (load_side(a)?, load_side(b)?);
    let mut out = Comparison {
        text: String::new(),
        verdicts: Vec::new(),
        wrong: Vec::new(),
    };
    for (workload, runs_a) in &side_a {
        let Some(runs_b) = side_b.get(workload) else {
            let _ = writeln!(out.text, "{workload}: only in {}", a.display());
            continue;
        };
        if let Some(odd) = runs_a
            .iter()
            .chain(runs_b)
            .find(|r| r.settings != runs_a[0].settings)
        {
            return Err(format!(
                "{workload}: runs of sizes/seconds {:?} and {:?} are not comparable",
                runs_a[0].settings, odd.settings
            ));
        }
        let _ = writeln!(
            out.text,
            "{workload}  ({} vs {} runs)",
            runs_a.len(),
            runs_b.len()
        );
        for run_a in runs_a {
            for run_b in runs_b
                .iter()
                .filter(|r| r.seed == run_a.seed && r.digest != run_a.digest)
            {
                out.wrong.push(format!(
                    "{workload} seed {}: answers_digest {} vs {}",
                    run_a.seed, run_a.digest, run_b.digest
                ));
            }
        }
        if runs_a.iter().chain(runs_b).any(|r| r.failed > 0.0) {
            out.wrong.push(format!("{workload}: failed operations"));
        }
        for metric in spec::END_TO_END {
            let Some((base, new, spread)) = base_new_spread(runs_a, runs_b, metric.name) else {
                continue;
            };
            let v = verdict(base, new, metric.better, metric.bound, spread);
            let _ = writeln!(
                out.text,
                "  {:<26} {:>14.4} -> {:>14.4} {:<5} x{:<7.4} (base {:.4}; spread {:.1}%, bound {:.1}%, {} is better)  {}",
                metric.name,
                base,
                new,
                metric.unit,
                if base != 0.0 { new / base } else { f64::NAN },
                base,
                spread * 100.0,
                metric.bound * 100.0,
                metric.better.as_str(),
                v.as_str()
            );
            out.verdicts.push((workload.clone(), metric.name, v));
        }
    }
    for problem in &out.wrong {
        let _ = writeln!(out.text, "WRONG: {problem}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(100.0, 104.0, Lower, 0.05, 0.01), Verdict::Same);
        assert_eq!(verdict(100.0, 108.0, Lower, 0.05, 0.01), Verdict::Worse);
        assert_eq!(verdict(100.0, 90.0, Lower, 0.05, 0.01), Verdict::Better);
        assert_eq!(verdict(100.0, 90.0, Higher, 0.05, 0.01), Verdict::Worse);
        assert_eq!(verdict(100.0, 108.0, Higher, 0.05, 0.01), Verdict::Better);
        // A spread wider than the bound: small moves are unresolved, not "same",
        // and a move has to clear the spread to count.
        assert_eq!(
            verdict(100.0, 102.0, Lower, 0.05, 0.12),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 108.0, Lower, 0.05, 0.12),
            Verdict::Unresolved
        );
        assert_eq!(verdict(100.0, 120.0, Lower, 0.05, 0.12), Verdict::Worse);
    }
}
