//! Smoke test of the benchmark itself: all four workloads at a test-only
//! size, end to end and traced.  Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use perfbench::compare::compare;
use perfbench::json::{self, Json};
use perfbench::run::{run, Args, Report};
use perfbench::spec::{self, Sizes};

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny(workload: &str, seed: u64, trace: bool, out_dir: PathBuf) -> Report {
    let args = Args {
        workload: workload.into(),
        seed,
        seconds: 0.3,
        trace,
        sizes: Sizes::TINY,
        out_dir,
    };
    run(&args).unwrap_or_else(|e| panic!("{workload} seed {seed} trace {trace}: {e}"))
}

/// The last line a run prints must hold exactly the contract's keys and
/// metrics, each finite and with its unit.
fn assert_contract_line(report: &Report, expected: &[spec::Metric]) {
    let line = json::parse(&report.contract_line()).expect("the contract line is JSON");
    let Json::Obj(top) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{:?}",
        report.problems
    );
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("no metrics object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let expected_names: Vec<&str> = expected.iter().map(|m| m.name).collect();
    assert_eq!(
        names, expected_names,
        "every metric of the contract and no other"
    );
    for (metric, (name, value)) in expected.iter().zip(metrics) {
        let number = value
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        assert!(number.is_finite(), "{name} is not finite");
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(metric.unit),
            "{name}"
        );
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let dir = out_dir("end_to_end");
    for workload in spec::WORKLOADS {
        let report = tiny(workload.name, 7, false, dir.clone());
        assert_contract_line(&report, spec::END_TO_END);
        assert_eq!(
            (report.failed, report.correct),
            (0, true),
            "{:?}",
            report.problems
        );
        for metric in spec::END_TO_END {
            let value = report.rows.get(metric.name).unwrap().value;
            assert!(
                value > 0.0,
                "{} on {} must never be 0",
                metric.name,
                workload.name
            );
        }
        // The result file parses and carries the one schema.
        let file = json::parse(&std::fs::read_to_string(&report.result_file).unwrap()).unwrap();
        for key in [
            "workload",
            "seed",
            "git_commit",
            "host",
            "calibration_ns",
            "answers_digest",
            "rows",
        ] {
            assert!(
                file.get(key).is_some(),
                "{} lacks {key}",
                report.result_file.display()
            );
        }
        for row in file.get("rows").and_then(Json::as_arr).unwrap() {
            for key in ["name", "unit", "better", "value", "min", "mad", "n"] {
                assert!(row.get(key).is_some(), "a row lacks {key}");
            }
        }
    }
}

#[test]
fn same_seed_same_inputs_and_answers_other_seed_other_inputs() {
    let dir = out_dir("determinism");
    for workload in spec::WORKLOADS {
        let (a, b, c) = (
            tiny(workload.name, 3, false, dir.join("a")),
            tiny(workload.name, 3, false, dir.join("b")),
            tiny(workload.name, 4, false, dir.join("c")),
        );
        assert_eq!(
            a.inputs_digest, b.inputs_digest,
            "{}: same seed, same inputs",
            workload.name
        );
        assert_eq!(
            a.answers_digest, b.answers_digest,
            "{}: same seed, same answers",
            workload.name
        );
        assert_ne!(
            a.inputs_digest, c.inputs_digest,
            "{}: other seed, other inputs",
            workload.name
        );
        for exact in ["heap_bytes_per_xml_byte", "disk_bytes_per_xml_byte"] {
            assert_eq!(
                a.rows.get(exact).unwrap().value,
                b.rows.get(exact).unwrap().value,
                "{exact}"
            );
        }
    }
    // `compare` on the two same-seed sides finds no differing answer.
    let comparison = compare(&dir.join("a"), &dir.join("b")).unwrap();
    assert!(comparison.wrong.is_empty(), "{:?}", comparison.wrong);
    assert_eq!(
        comparison.verdicts.len(),
        spec::WORKLOADS.len() * spec::END_TO_END.len()
    );
    // Runs that measured for another length of time are not comparable.
    let longer = Args {
        seconds: 0.4,
        ..tiny("ingest", 3, false, dir.join("d")).args
    };
    run(&longer).unwrap();
    let refused = compare(&dir.join("a"), &dir.join("d")).unwrap_err();
    assert!(refused.contains("not comparable"), "{refused}");
}

/// The package is outside the workspace and does not inherit its release
/// profile; the copy in `Cargo.toml` must stay equal to the root's, or the
/// product is not measured as it ships.
#[test]
fn the_release_profile_is_the_workspace_s() {
    let profile = |manifest: &str| -> Vec<String> {
        let text = std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{manifest}: {e}"));
        text.lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    };
    let own = profile(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"));
    assert!(!own.is_empty());
    assert_eq!(
        own,
        profile(concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml"))
    );
}

#[test]
fn traced_runs_report_every_layer_metric_and_a_well_formed_trace() {
    let dir = out_dir("traced");
    let layers = spec::per_layer();
    let mut counts = Vec::new();
    for workload in spec::WORKLOADS {
        let report = tiny(workload.name, 7, true, dir.clone());
        assert_contract_line(&report, layers);
        counts.push((
            report.rows.get("xpath.visited_per_result").unwrap().value,
            report.rows.get("xpath.marked_per_result").unwrap().value,
        ));

        // Every line parses; within a section and thread, a span's parent
        // exists, started no later and ended no earlier.
        let trace = std::fs::read_to_string(report.trace_file.as_ref().unwrap()).unwrap();
        let lines: Vec<Json> = trace
            .lines()
            .map(|l| json::parse(l).expect("a trace line is JSON"))
            .collect();
        let num = |line: &Json, key: &str| line.get(key).and_then(Json::as_f64);
        let spans: Vec<&Json> = lines.iter().filter(|l| l.get("name").is_some()).collect();
        assert!(!spans.is_empty(), "{}: no spans", workload.name);
        for span in &spans {
            let Some(parent_id) = num(span, "parent") else {
                continue;
            };
            let parent = spans
                .iter()
                .find(|p| {
                    p.get("section") == span.get("section")
                        && num(p, "thread") == num(span, "thread")
                        && num(p, "id") == Some(parent_id)
                })
                .unwrap_or_else(|| panic!("{}: span without its parent", workload.name));
            assert!(num(parent, "start_ns") <= num(span, "start_ns"));
            assert!(num(parent, "end_ns") >= num(span, "end_ns"));
            assert_eq!(num(parent, "request"), num(span, "request"));
        }
        let per_query = lines
            .iter()
            .filter(|l| l.get("section").and_then(Json::as_str) == Some("per_query"))
            .count();
        assert_eq!(
            per_query,
            63 * 4 + 3,
            "63 queries x 4 modes, and the three ft: queries"
        );
    }
    // Counts repeat exactly: two traced runs of one seed agree to the bit.
    let again = tiny("tree-nav", 7, true, dir.join("again"));
    assert_eq!(
        again.rows.get("xpath.visited_per_result").unwrap().value,
        counts[0].0
    );
    assert_eq!(
        again.rows.get("xpath.marked_per_result").unwrap().value,
        counts[0].1
    );
}

#[test]
fn tree_nav_carries_no_text_work_and_text_search_mostly_text_work() {
    let dir = out_dir("separation");
    let nav = tiny("tree-nav", 5, true, dir.clone());
    assert_eq!(nav.rows.get("trace.text_op_share_pct").unwrap().value, 0.0);
    let text = tiny("text-search", 5, true, dir);
    assert!(text.rows.get("trace.text_op_share_pct").unwrap().value > 50.0);
}

#[test]
fn the_command_fails_without_a_result_on_bad_input() {
    let bench = env!("CARGO_BIN_EXE_bench");
    let unknown = Command::new(bench)
        .args(["run", "--workload", "nope", "--seed", "1"])
        .output()
        .unwrap();
    assert!(!unknown.status.success());
    assert!(!String::from_utf8_lossy(&unknown.stdout).contains("\"metrics\""));
    // Usage errors: a bad seed, a bare `--trace`, an option that does not exist.
    for bad in [
        &["run", "--seed", "x"][..],
        &["run", "--workload", "serve", "--trace"],
        &["run", "--workload", "serve", "--sizes", "test"],
    ] {
        let usage = Command::new(bench).args(bad).output().unwrap();
        assert_eq!(usage.status.code(), Some(2), "{bad:?}");
        assert!(usage.stdout.is_empty(), "{bad:?}");
    }
    let list = Command::new(bench)
        .args(["list", "--json"])
        .output()
        .unwrap();
    assert_eq!(
        String::from_utf8_lossy(&list.stdout),
        spec::benchmark_json().to_pretty()
    );
}
