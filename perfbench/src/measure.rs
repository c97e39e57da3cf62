//! Timing loops and the per-run sample store shared by every workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::{self, Summary};
use crate::trace::Tracer;

/// The percentile the contract's latencies are read at, the quiet-host
/// reading (`serve` reads its kinds at the median, see
/// `Workload::kind_percentile`).
///
/// The reference host is a 2-core VM on a shared machine, and each of its
/// cores switches, on its own and for 5 to 30 seconds at a time, between a
/// quiet and a slowed regime a quarter apart (one `tree-nav` pass 580 or
/// 740 ms, whatever the query; two copies of the benchmark run side by side
/// see the same two levels at different times).  A median lands in whichever
/// regime held for more than half of the window, and a mean in between, so
/// between two runs of the same code either moves by up to the whole gap.
/// The 10th percentile reads the quiet regime whenever that held for a tenth
/// of the samples, which with one caller per core ([`callers`]) it nearly
/// always does.  It is blind to a regression that spares a tenth of the
/// samples; `ops_per_s` (a mean rate) and `op_tail_us` are not.
pub const QUIET_PERCENTILE: f64 = 10.0;

/// How many closed-loop callers the library workloads run: one per core, two
/// at most.  Two callers, because the cores' regimes are independent: the
/// window of a single caller stayed in the slowed regime from end to end in
/// three `tree-nav` runs of ten, and its `pass_p10_ms` spread 15 % where
/// that of two callers, read over both, spreads 3 to 4 %.
pub fn callers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Named result rows, in insertion order.
#[derive(Debug, Default)]
pub struct Rows {
    rows: Vec<(String, Summary)>,
}

impl Rows {
    /// Adds (or replaces) row `name`.
    pub fn put(&mut self, name: impl Into<String>, summary: Summary) {
        let name = name.into();
        match self.rows.iter_mut().find(|(n, _)| *n == name) {
            Some(row) => row.1 = summary,
            None => self.rows.push((name, summary)),
        }
    }

    /// Adds row `name` from samples (nothing when there are none).
    pub fn put_samples(&mut self, name: impl Into<String>, samples: &[f64]) {
        if let Some(summary) = Summary::of(samples) {
            self.put(name, summary);
        }
    }

    /// Row `name`.
    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.rows.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// All rows.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.rows.iter().map(|(n, s)| (n.as_str(), s))
    }

    /// Nanoseconds per call of `f` over `operands`: five timed sweeps over
    /// the whole operand list after one warm-up sweep; each sweep is one
    /// sample, so min and MAD describe sweep-to-sweep spread.
    pub fn ns_per_op<T>(&mut self, name: &str, operands: &[T], mut f: impl FnMut(&T) -> usize) {
        if operands.is_empty() {
            return;
        }
        let mut sweep = || {
            let start = Instant::now();
            let mut acc = 0usize;
            for operand in operands {
                acc = acc.wrapping_add(f(black_box(operand)));
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / operands.len() as f64
        };
        sweep();
        let samples: Vec<f64> = (0..5).map(|_| sweep()).collect();
        self.put_samples(name, &samples);
    }

    /// Microseconds per call of `f`, median over `reps` calls after one
    /// warm-up call.
    pub fn us_per_call<T>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> T) {
        self.put_samples(name, &times_us(reps, &mut f));
    }
}

/// Microseconds of each of `reps` calls of `f`, after one warm-up call.
/// What `f` returns is kept from the optimiser and dropped outside the
/// timed section.
pub fn times_us<T>(reps: usize, f: &mut impl FnMut() -> T) -> Vec<f64> {
    black_box(f());
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            let out = black_box(f());
            let us = start.elapsed().as_nanos() as f64 / 1e3;
            drop(out);
            us
        })
        .collect()
}

/// Median microseconds of `reps` calls of `f`, after one warm-up call.
pub fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    stats::median(&times_us(reps, &mut f)).unwrap_or(0.0)
}

/// What one client thread recorded: per-operation latencies by kind, pass
/// durations, and the failure count.
#[derive(Debug)]
pub struct Recorder {
    /// Nanoseconds of every operation, by kind index.
    pub by_kind: Vec<Vec<u64>>,
    /// Nanoseconds of every pass.
    pub passes: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Wall time of the measured window.
    pub wall: Duration,
    /// The span recorder (off in untraced runs).
    pub tracer: Tracer,
}

impl Recorder {
    /// A recorder for `kinds` operation kinds.
    pub fn new(kinds: usize, tracer: Tracer) -> Self {
        Self {
            by_kind: (0..kinds).map(|_| Vec::with_capacity(1024)).collect(),
            passes: Vec::with_capacity(1024),
            attempted: 0,
            failed: 0,
            wall: Duration::ZERO,
            tracer,
        }
    }

    /// Times `op` as one operation; `op` returns its kind (which may
    /// depend on the answer, as cache hit or miss does) and whether the
    /// answer was right.
    #[inline]
    pub fn op(&mut self, op: impl FnOnce(&mut Tracer) -> (usize, bool)) {
        let start = Instant::now();
        let (kind, ok) = op(&mut self.tracer);
        let ns = start.elapsed().as_nanos() as u64;
        self.by_kind[kind].push(ns);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Drops every sample (after warm-up), keeping failures: a wrong answer
    /// during warm-up is still a wrong answer.
    pub fn discard_samples(&mut self) {
        self.by_kind.iter_mut().for_each(Vec::clear);
        self.passes.clear();
        self.tracer.clear();
    }

    /// Runs `pass` for `warmup` discarded passes, then until `window` has
    /// elapsed (at least one pass), timing each pass.
    ///
    /// A recording tracer records every other pass only (the odd ones), so
    /// that [`span_overhead`] can compare neighbours: two passes half a
    /// second apart share the host's state, two windows seconds apart do
    /// not.  It runs at least one such pair, however short the window.
    pub fn drive(&mut self, warmup: usize, window: Duration, mut pass: impl FnMut(&mut Recorder)) {
        let recording = self.tracer.enabled();
        self.tracer.set_enabled(false);
        for _ in 0..warmup {
            pass(self);
        }
        self.discard_samples();
        let least = if recording { 2 } else { 1 };
        let start = Instant::now();
        loop {
            self.tracer
                .set_enabled(recording && self.passes.len() % 2 == 1);
            let pass_start = Instant::now();
            pass(self);
            self.passes.push(pass_start.elapsed().as_nanos() as u64);
            if start.elapsed() >= window && self.passes.len() >= least {
                break;
            }
        }
        self.wall = start.elapsed();
    }
}

/// Runs `pass` as a closed loop from [`callers`] threads at once, each with
/// its own recorder (of `kinds` operation kinds, recording spans into a
/// buffer of `spans` when that is given) and its own request numbers.
/// `pass` is told which caller runs it.
pub fn drive_callers(
    kinds: usize,
    spans: Option<usize>,
    warmup: usize,
    window: Duration,
    pass: impl Fn(usize, &mut Recorder, &mut u32) + Sync,
) -> Result<Vec<Recorder>, String> {
    let pass = &pass;
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..callers())
            .map(|caller| {
                scope.spawn(move || {
                    let tracer = spans.map_or_else(Tracer::off, Tracer::on);
                    let mut recorder = Recorder::new(kinds, tracer);
                    let mut request = (caller as u32) << 31;
                    recorder.drive(warmup, window, |rec| pass(caller, rec, &mut request));
                    recorder
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().map_err(|_| "a caller thread panicked".to_string()))
            .collect()
    })
}

/// What recording spans costs: the median over neighbouring (untraced,
/// traced) pass pairs of `traced / untraced - 1`, in percent.
pub fn span_overhead(recorders: &[Recorder]) -> Option<f64> {
    let ratios: Vec<f64> = recorders
        .iter()
        .flat_map(|r| {
            r.passes
                .chunks_exact(2)
                .map(|pair| pair[1] as f64 / pair[0].max(1) as f64)
        })
        .collect();
    stats::median(&ratios).map(|ratio| (ratio - 1.0) * 100.0)
}

/// The workload-independent end-to-end rows of one measured window, from
/// the recorders of all caller threads, plus one `kind.<label>_us` row per
/// operation kind for attribution.  Returns the percentile `op_tail_us` was
/// read at.
///
/// A kind's latency is read at `kind_percentile` of its samples and a
/// pass's at [`QUIET_PERCENTILE`]; the tail is the highest whole percentile
/// (99 at most) with at least ten of the window's operations beyond it.  `pass_p50_ms` (and `pass_p75_ms`, when the passes
/// support it) are rows of the result file, not of the contract.
pub fn window_rows(
    recorders: &[Recorder],
    kinds: &[String],
    kind_percentile: f64,
    rows: &mut Rows,
) -> u32 {
    let us = |ns: &u64| *ns as f64 / 1e3;
    let mut kind_values = Vec::new();
    let mut all: Vec<f64> = Vec::new();
    for (k, label) in kinds.iter().enumerate() {
        let samples: Vec<f64> = recorders
            .iter()
            .flat_map(|r| r.by_kind[k].iter().map(us))
            .collect();
        if let Some(summary) = Summary::at_percentile(&samples, kind_percentile) {
            kind_values.push(summary.value);
            rows.put(format!("kind.{label}_us"), summary);
        }
        all.extend(samples);
    }
    if let Some(geomean) = stats::geomean(&kind_values) {
        // `min` is the cheapest kind; a mean of unlike things has no MAD.
        let cheapest = kind_values.iter().copied().fold(f64::INFINITY, f64::min);
        rows.put(
            "op_geomean_us",
            Summary {
                value: geomean,
                min: cheapest,
                mad: 0.0,
                n: kind_values.len(),
            },
        );
    }
    // Below 20 operations nothing has ten samples beyond it: the median then.
    let tail_percentile = stats::highest_supported_percentile(all.len()).unwrap_or(50);
    if let Some(tail) = Summary::at_percentile(&all, f64::from(tail_percentile)) {
        rows.put("op_tail_us", tail);
    }

    let passes: Vec<f64> = recorders
        .iter()
        .flat_map(|r| r.passes.iter().map(|ns| *ns as f64 / 1e6))
        .collect();
    rows.put_samples("pass_p50_ms", &passes);
    if let Some(quiet) = Summary::at_percentile(&passes, QUIET_PERCENTILE) {
        rows.put("pass_p10_ms", quiet);
    }
    if stats::highest_supported_percentile(passes.len()).is_some_and(|p| p >= 75) {
        if let Some(tail) = Summary::at_percentile(&passes, 75.0) {
            rows.put("pass_p75_ms", tail);
        }
    }
    let wall = recorders
        .iter()
        .map(|r| r.wall)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    if wall > 0.0 {
        rows.put(
            "ops_per_s",
            Summary {
                n: all.len(),
                ..Summary::exact(all.len() as f64 / wall)
            },
        );
    }
    tail_percentile
}
