//! One run of one workload: set-up, correctness gate, measured window, and
//! (traced) the layer suite; then the result file and the contract's line.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host;
use crate::json::Json;
use crate::layers::{self, PerQuery};
use crate::measure::{span_overhead, window_rows, Rows};
use crate::spec::{self, Better, Metric, Sizes};
use crate::stats::Summary;
use crate::sut::Corpus;
use crate::trace::{self, Tracer};
use crate::workloads::{self, units_of, Built, Env, Workload};

/// Where results, traces and scratch files go, relative to the checkout
/// root the benchmark is run from (ignored by git; the driver's build
/// directory).  Relative on purpose: a Unix socket path has ~100 bytes.
pub const DEFAULT_OUT_DIR: &str = ".bench_build/perfbench-out";

/// The parameters of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window, in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Corpus and loop sizes.
    pub sizes: Sizes,
    /// Output directory.
    pub out_dir: PathBuf,
}

/// What one run produced.
#[derive(Debug)]
pub struct Report {
    /// The run's parameters.
    pub args: Args,
    /// No check and no operation failed.
    pub correct: bool,
    /// Checks and operations attempted.
    pub attempted: u64,
    /// Checks and operations that failed or answered wrongly.
    pub failed: u64,
    /// FNV digest of the answers.
    pub answers_digest: u64,
    /// FNV digest of the generated inputs (same seed ⇒ same digest).
    pub inputs_digest: u64,
    /// Every row: the contract's metrics and the attribution extras.
    pub rows: Rows,
    /// Milliseconds of the first passes of the measured window, in order
    /// (at most 512): shows drift and bimodal hosts that a median hides.
    pub pass_series_ms: Vec<f64>,
    /// The percentile `op_tail_us` was read at (end-to-end runs).
    pub tail_percentile: Option<u32>,
    /// Descriptions of the first failures.
    pub problems: Vec<String>,
    /// The result file written.
    pub result_file: PathBuf,
    /// The trace file written (traced runs).
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// The metrics of the contract this run reports, in contract order.
    pub fn contract_metrics(&self) -> &'static [Metric] {
        if self.args.trace {
            spec::per_layer()
        } else {
            spec::END_TO_END
        }
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and one `{value, unit}` per metric of the contract ([`run`] fails
    /// when a metric has no row, so every one has).
    pub fn contract_line(&self) -> String {
        let metrics = self
            .contract_metrics()
            .iter()
            .filter_map(|m| {
                let value = self.rows.get(m.name)?.value;
                Some((
                    m.name,
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                ))
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_line()
    }
}

/// Unit and direction of a row that is not in the contract, from its name.
fn describe(name: &str) -> (&'static str, Better) {
    let ends = |suffix: &str| name.ends_with(suffix);
    if ends("_mb_per_s") {
        ("MB/s", Better::Higher)
    } else if ends("_per_s") || ends("_qps") {
        ("1/s", Better::Higher)
    } else if ends("hit_rate") {
        ("ratio", Better::Higher)
    } else if ends("_us") {
        ("us", Better::Lower)
    } else if ends("_ms") {
        ("ms", Better::Lower)
    } else if ends("_ns") {
        ("ns", Better::Lower)
    } else if ends("_s") {
        ("s", Better::Lower)
    } else if ends("_mb") {
        ("MB", Better::Lower)
    } else if ends("_pct") {
        ("%", Better::Lower)
    } else {
        ("count", Better::Lower)
    }
}

fn row_json(name: &str, s: &Summary, contract: &[Metric]) -> Json {
    let (unit, better) = contract
        .iter()
        .find(|m| m.name == name)
        .map_or_else(|| describe(name), |m| (m.unit, m.better));
    Json::obj(vec![
        ("name", Json::str(name)),
        ("unit", Json::str(unit)),
        ("better", Json::str(better.as_str())),
        ("value", Json::Num(s.value)),
        ("min", Json::Num(s.min)),
        ("mad", Json::Num(s.mad)),
        ("n", Json::Num(s.n as f64)),
    ])
}

/// The result file: one schema for every workload and both kinds of run.
fn result_json(report: &Report) -> Json {
    let mut contract = spec::END_TO_END.to_vec();
    contract.extend(spec::per_layer());
    let a = &report.args;
    let sizes = if a.sizes == Sizes::FROZEN {
        "frozen"
    } else {
        "test"
    };
    Json::obj(vec![
        ("schema", Json::Num(1.0)),
        ("workload", Json::str(a.workload.as_str())),
        // A string: a JSON number would round seeds above 2^53.
        ("seed", Json::Str(a.seed.to_string())),
        ("trace", Json::Bool(a.trace)),
        ("seconds", Json::Num(a.seconds)),
        ("sizes", Json::str(sizes)),
        ("git_commit", Json::Str(host::git_commit())),
        ("host", host::fingerprint()),
        ("calibration_ns", Json::Num(host::calibration_ns())),
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "answers_digest",
            Json::Str(format!("{:016x}", report.answers_digest)),
        ),
        (
            "inputs_digest",
            Json::Str(format!("{:016x}", report.inputs_digest)),
        ),
        (
            "tail_percentile",
            report
                .tail_percentile
                .map_or(Json::Null, |p| Json::Num(f64::from(p))),
        ),
        (
            "problems",
            Json::Arr(
                report
                    .problems
                    .iter()
                    .map(|p| Json::str(p.as_str()))
                    .collect(),
            ),
        ),
        (
            "pass_series_ms",
            Json::Arr(
                report
                    .pass_series_ms
                    .iter()
                    .map(|ms| Json::Num(*ms))
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                report
                    .rows
                    .iter()
                    .map(|(n, s)| row_json(n, s, &contract))
                    .collect(),
            ),
        ),
    ])
}

fn per_query_jsonl(out: &mut String, table: &[PerQuery]) {
    for q in table {
        let line = Json::obj(vec![
            ("section", Json::str("per_query")),
            ("id", Json::str(q.id.as_str())),
            ("mode", Json::str(q.mode.name())),
            ("strategy", Json::str(q.strategy)),
            ("count", Json::Num(q.count as f64)),
            ("visited", Json::Num(q.visited as f64)),
            ("marked", Json::Num(q.marked as f64)),
            ("us", Json::Num(q.us)),
        ]);
        out.push_str(&line.to_line());
        out.push('\n');
    }
}

/// The traced half of a run: a replay with spans on every other pass
/// (overhead, time shares), the staged pass, the layer suite; returns the
/// trace file's content.
fn traced(
    workload: &mut Box<dyn Workload>,
    env: &Env,
    window: Duration,
    rows: &mut Rows,
    totals: &mut (u64, u64),
) -> Result<String, String> {
    let spans_on = workload.measure(window, env.sizes.warmup_passes, true)?;
    for r in &spans_on {
        totals.0 += r.attempted;
        totals.1 += r.failed;
    }
    // A full span buffer would thin out the traced passes and bias every
    // share computed from them.
    let dropped: u64 = spans_on.iter().map(|r| r.tracer.dropped).sum();
    if dropped > 0 {
        return Err(format!("the span buffer was full: {dropped} spans dropped"));
    }
    if let Some(overhead) = span_overhead(&spans_on) {
        rows.put("trace.overhead_pct", Summary::exact(overhead));
    }
    let text = workload.text_kinds();
    let time_of = |keep: &dyn Fn(usize) -> bool| -> f64 {
        spans_on
            .iter()
            .flat_map(|r| r.by_kind.iter().enumerate())
            .filter(|(k, _)| keep(*k))
            .map(|(_, ns)| ns.iter().sum::<u64>() as f64)
            .sum()
    };
    let total = time_of(&|_| true).max(1.0);
    // `+ 0.0`: an empty float sum is -0.0.
    rows.put(
        "trace.text_op_share_pct",
        Summary::exact(100.0 * time_of(&|k| text[k]) / total + 0.0),
    );

    let mut file = String::new();
    for (thread, recorder) in spans_on.iter().enumerate() {
        trace::write_jsonl(&mut file, "replay", thread, recorder.tracer.spans());
    }
    let mut staged = Tracer::on(1 << 18);
    workload.staged(&mut staged)?;
    if staged.dropped > 0 {
        return Err(format!(
            "the staged pass's span buffer was full: {} spans dropped",
            staged.dropped
        ));
    }
    trace::write_jsonl(&mut file, "staged", 0, staged.spans());
    let own = trace::self_times(staged.spans());
    let all: f64 = own.iter().map(|(_, ns)| *ns as f64).sum::<f64>().max(1.0);
    for span in spec::SPAN_NAMES {
        let ns = own
            .iter()
            .find(|(name, _)| name == span)
            .map_or(0, |(_, ns)| *ns);
        rows.put(
            format!("trace.self_pct.{span}"),
            Summary::exact(100.0 * ns as f64 / all),
        );
    }

    let mut slots = Vec::new();
    for corpus in Corpus::ALL {
        slots.push(match workload.built(corpus) {
            Some(own) => own,
            None => Built::new(corpus, units_of(env.sizes.probe, corpus), env.seed)?,
        });
    }
    let slots: [Built; 4] = slots
        .try_into()
        .map_err(|_| "four corpus slots".to_string())?;
    let table = layers::run_suite(&slots, env, rows)?;
    workload.layer_overrides(rows);
    per_query_jsonl(&mut file, &table);
    Ok(file)
}

/// Runs one workload once.
pub fn run(args: &Args) -> Result<Report, String> {
    // Checked before the name becomes part of a path.
    if !spec::WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!(
            "unknown workload '{}' (see `bench list`)",
            args.workload
        ));
    }
    let scratch = args
        .out_dir
        .join(format!("tmp-{}-{}", std::process::id(), args.workload));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let env = Env {
        seed: args.seed,
        sizes: args.sizes,
        dir: scratch.clone(),
    };
    let outcome = run_in(args, &env);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn run_in(args: &Args, env: &Env) -> Result<Report, String> {
    let mut rows = Rows::default();
    // Set-up, several times over: `setup_s` is the median.
    let setups = if args.trace {
        1
    } else {
        env.sizes.setups.max(1)
    };
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..setups {
        if let Some(previous) = workload.take() {
            previous.teardown()?;
        }
        let start = Instant::now();
        workload = Some(workloads::setup(&args.workload, env)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.ok_or("no set-up ran")?;
    rows.put_samples("setup_s", &setup_s);

    let check = workload.check();
    let mut totals = (check.attempted, check.failed);
    let window = Duration::from_secs_f64(args.seconds);
    let mut trace_text = None;
    let mut pass_series_ms = Vec::new();
    let mut tail_percentile = None;
    let measured = if args.trace {
        // The replay shares the run's seconds with the layer suite.
        traced(
            &mut workload,
            env,
            window.mul_f64(0.4),
            &mut rows,
            &mut totals,
        )
        .map(|t| trace_text = Some(t))
    } else {
        workload
            .measure(window, env.sizes.warmup_passes, false)
            .map(|recorders| {
                for r in &recorders {
                    totals.0 += r.attempted;
                    totals.1 += r.failed;
                }
                pass_series_ms = recorders
                    .iter()
                    .flat_map(|r| &r.passes)
                    .take(512)
                    .map(|ns| *ns as f64 / 1e6)
                    .collect();
                tail_percentile = Some(window_rows(
                    &recorders,
                    &workload.kinds(),
                    workload.kind_percentile(),
                    &mut rows,
                ));
                workload.extra_rows(&recorders, &mut rows);
            })
    };
    let footprint = workload.footprint();
    let inputs_digest = workload.inputs_digest();
    // Stop the daemon and remove files before reporting any error.
    workload.teardown()?;
    measured?;
    let footprint = footprint?;
    let xml = footprint.xml.max(1) as f64;
    rows.put(
        "heap_bytes_per_xml_byte",
        Summary::exact(footprint.heap as f64 / xml),
    );
    rows.put(
        "disk_bytes_per_xml_byte",
        Summary::exact(footprint.disk as f64 / xml),
    );
    rows.put("peak_rss_mb", Summary::exact(host::peak_rss_mb()));

    let suffix = if args.trace { "-trace" } else { "" };
    let result_file = args.out_dir.join(format!(
        "result-{}-{}{suffix}.json",
        args.workload, args.seed
    ));
    let trace_file = match &trace_text {
        Some(text) => {
            let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
            write(&path, text)?;
            Some(path)
        }
        None => None,
    };
    let report = Report {
        args: args.clone(),
        correct: totals.1 == 0,
        attempted: totals.0,
        failed: totals.1,
        answers_digest: check.digest.0,
        inputs_digest,
        rows,
        pass_series_ms,
        tail_percentile,
        problems: check.problems,
        result_file,
        trace_file,
    };
    // A metric without a row must not reach the contract's line as a 0.
    if let Some(missing) = report
        .contract_metrics()
        .iter()
        .find(|m| report.rows.get(m.name).is_none())
    {
        return Err(format!("the run produced no value for {}", missing.name));
    }
    write(&report.result_file, &result_json(&report).to_pretty())?;
    Ok(report)
}

fn write(path: &Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("{}: {e}", path.display()))
}
