//! `bench`: the benchmark's command line.
//!
//! ```text
//! bench run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//!           [--out-dir <dir>]
//! bench list [--json]
//! bench compare <a.json|dir> <b.json|dir>
//! bench selfcheck [--seed <u64>] [--seconds <s>] [--out-dir <dir>]
//! ```
//!
//! `run` prints progress on standard error and, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and every metric of the contract.  It exits 0 when the run completed
//! (wrong answers are reported in the line, not by the exit code), 1 when
//! it could not complete, 2 on a usage error.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use perfbench::compare::compare;
use perfbench::run::{run, Args, DEFAULT_OUT_DIR};
use perfbench::spec::{self, Sizes};

const USAGE: &str =
    "usage: bench run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] \
[--out-dir <dir>]
       bench list [--json]
       bench compare <a.json|dir> <b.json|dir>
       bench selfcheck [--seed <u64>] [--seconds <s>] [--out-dir <dir>]";

fn usage(message: &str) -> ExitCode {
    eprintln!("bench: {message}\n{USAGE}");
    ExitCode::from(2)
}

/// Parses the flags `run` and `selfcheck` share.
fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        sizes: Sizes::FROZEN,
        out_dir: PathBuf::from(DEFAULT_OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects a u64")?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds expects a number")?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--out-dir" => parsed.out_dir = PathBuf::from(value("--out-dir")?),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(parsed)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let args = match parse_run_args(args) {
        Ok(args) if !args.workload.is_empty() => args,
        Ok(_) => return usage("--workload is required"),
        Err(e) => return usage(&e),
    };
    eprintln!(
        "bench: {} seed {} for {} s{}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { " (traced)" } else { "" }
    );
    match run(&args) {
        Ok(report) => {
            for problem in &report.problems {
                eprintln!("bench: WRONG: {problem}");
            }
            for metric in report.contract_metrics() {
                if let Some(s) = report.rows.get(metric.name) {
                    println!(
                        "{:<44} {:>16.4} {:<6} (min {:.4}, mad {:.4}, n {})",
                        metric.name, s.value, metric.unit, s.min, s.mad, s.n
                    );
                }
            }
            println!("answers_digest {:016x}", report.answers_digest);
            println!("result file    {}", report.result_file.display());
            if let Some(trace) = &report.trace_file {
                println!("trace file     {}", trace.display());
            }
            println!("{}", report.contract_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list(args: &[String]) -> ExitCode {
    if args.first().map(String::as_str) == Some("--json") {
        print!("{}", spec::benchmark_json().to_pretty());
        return ExitCode::SUCCESS;
    }
    println!("workloads ({} s per run):", spec::RUN_SECONDS);
    for w in spec::WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload, --trace 0):");
    for m in spec::END_TO_END {
        println!(
            "  {:<44} {:<6} {} is better, bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    println!("per-layer metrics (every workload, --trace 1):");
    for m in spec::per_layer() {
        println!(
            "  {:<44} {:<6} {} is better",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return usage("compare expects two paths");
    };
    match compare(&PathBuf::from(a), &PathBuf::from(b)) {
        Ok(comparison) => {
            print!("{}", comparison.text);
            if comparison.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The A/A test: every workload on this build, three seeds on each of two
/// sides, then `compare`.  Which side runs first alternates from seed to
/// seed, so a drift of the host falls on both.  Each run is a process of its
/// own, as the driver's are, so that peak memory is the run's and not the
/// largest so far.
fn cmd_selfcheck(args: &[String]) -> ExitCode {
    let base = match parse_run_args(args) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    let mut sides = [
        base.out_dir.join("selfcheck-a"),
        base.out_dir.join("selfcheck-b"),
    ];
    for side in &sides {
        let _ = std::fs::remove_dir_all(side);
    }
    for workload in spec::WORKLOADS {
        for seed in base.seed..base.seed + 3 {
            for side in &sides {
                eprintln!(
                    "bench: selfcheck {} seed {seed} into {}",
                    workload.name,
                    side.display()
                );
                let status = std::env::current_exe().and_then(|exe| {
                    Command::new(exe)
                        .args(["run", "--workload", workload.name, "--trace", "0"])
                        .args(["--seed", &seed.to_string()])
                        .args(["--seconds", &base.seconds.to_string()])
                        .arg("--out-dir")
                        .arg(side)
                        .stdout(Stdio::null())
                        .status()
                });
                if !status.is_ok_and(|s| s.success()) {
                    eprintln!("bench: the run failed");
                    return ExitCode::FAILURE;
                }
            }
            sides.reverse();
        }
    }
    sides.sort();
    match compare(&sides[0], &sides[1]) {
        Ok(comparison) => {
            print!("{}", comparison.text);
            println!(
                "selfcheck: {}",
                if comparison.resolved() {
                    "pass"
                } else {
                    "FAIL"
                }
            );
            if comparison.resolved() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((command, rest)) => match command.as_str() {
            "run" => cmd_run(rest),
            "list" => cmd_list(rest),
            "compare" => cmd_compare(rest),
            "selfcheck" => cmd_selfcheck(rest),
            other => usage(&format!("unknown command '{other}'")),
        },
        None => usage("a command is required"),
    }
}
