//! The daemon's metrics sink: request/query counters, uptime, and
//! log-scaled latency / visited-node histograms.
//!
//! Everything here is either atomic or behind a tiny `Mutex`, so the
//! per-connection handler threads record samples without coordinating.
//! The `stats` protocol command renders the whole sink (plus the cache
//! counters, which live inside the caches themselves) as machine-
//! parseable `key=value` lines — see [`super::Server`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of power-of-two buckets a [`Histogram`] keeps (covers values
/// up to `2^39`, i.e. ~9 days in microseconds or half a trillion nodes).
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-size base-2 log-scaled histogram of `u64` samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))`; bucket 0 also counts 0.
/// Samples beyond the last bucket clamp into it.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            (63 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Renders the non-empty buckets as `lo-hi:count` pairs separated by
    /// spaces (`lo`/`hi` are the inclusive bucket bounds), e.g.
    /// `0-1:3 2-3:1 64-127:9`.  Empty histograms render as `-`.
    pub fn render(&self) -> String {
        if self.count == 0 {
            return "-".to_string();
        }
        let mut parts = Vec::new();
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let lo = if i == 0 { 0 } else { 1u64 << i };
            let hi = (1u64 << (i + 1)) - 1;
            parts.push(format!("{lo}-{hi}:{n}"));
        }
        parts.join(" ")
    }
}

/// The daemon-wide metrics sink.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Protocol commands processed (any kind, including errors).
    requests: AtomicU64,
    /// Individual query executions answered, cache hits included.
    queries: AtomicU64,
    /// Queries answered straight from the result cache.
    cached_queries: AtomicU64,
    /// Requests rejected with an error frame.
    errors: AtomicU64,
    /// Connections accepted.
    connections: AtomicU64,
    histograms: Mutex<HistogramSet>,
}

#[derive(Debug, Default)]
struct HistogramSet {
    /// Per executed (non-cached) query: wall-clock run time in µs.
    latency_us: Histogram,
    /// Per executed (non-cached) query: evaluator visited-node count.
    visited_nodes: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A fresh sink; uptime starts now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            cached_queries: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            histograms: Mutex::new(HistogramSet::default()),
        }
    }

    /// Time since the sink (i.e. the server) was created.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Counts one accepted connection.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one processed protocol command.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one error frame sent.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one query answered from the result cache.
    pub fn record_cached_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.cached_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed query: its wall time and, for an XPath query
    /// (a keyword search has none), its visited-node count.
    pub fn record_executed_query(&self, elapsed: Duration, visited_nodes: Option<u64>) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut set = self.histograms.lock().expect("metrics lock poisoned");
        set.latency_us.record(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
        if let Some(visited) = visited_nodes {
            set.visited_nodes.record(visited);
        }
    }

    /// Renders the sink as `key=value` lines (the body of the `stats`
    /// protocol command, minus the cache counters that the server
    /// appends from its caches).
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let set = self.histograms.lock().expect("metrics lock poisoned");
        let _ = writeln!(out, "uptime_us={}", self.uptime().as_micros());
        let _ = writeln!(out, "connections={}", self.connections.load(Ordering::Relaxed));
        let _ = writeln!(out, "requests={}", self.requests.load(Ordering::Relaxed));
        let _ = writeln!(out, "errors={}", self.errors.load(Ordering::Relaxed));
        let _ = writeln!(out, "queries={}", self.queries.load(Ordering::Relaxed));
        let _ = writeln!(out, "queries_cached={}", self.cached_queries.load(Ordering::Relaxed));
        let _ = writeln!(out, "queries_executed={}", set.latency_us.count());
        let _ = writeln!(out, "latency_us_mean={}", set.latency_us.mean());
        let _ = writeln!(out, "latency_us_max={}", set.latency_us.max());
        let _ = writeln!(out, "latency_us_histogram={}", set.latency_us.render());
        let _ = writeln!(out, "visited_nodes_mean={}", set.visited_nodes.mean());
        let _ = writeln!(out, "visited_nodes_max={}", set.visited_nodes.max());
        let _ = writeln!(out, "visited_nodes_histogram={}", set.visited_nodes.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.max(), 1000);
        let rendered = h.render();
        // 0 and 1 share bucket 0; 2 and 3 bucket 1; 4 and 7 bucket 2;
        // 8 bucket 3; 1000 lands in 512-1023.
        assert_eq!(rendered, "0-1:2 2-3:2 4-7:2 8-15:1 512-1023:1");
    }

    #[test]
    fn histogram_clamps_huge_samples() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert!(h.render().ends_with(":1"));
    }

    #[test]
    fn empty_histogram_renders_dash() {
        assert_eq!(Histogram::new().render(), "-");
        assert_eq!(Histogram::new().mean(), 0);
    }

    #[test]
    fn metrics_render_contains_counters() {
        let metrics = Metrics::new();
        metrics.record_connection();
        metrics.record_request();
        metrics.record_executed_query(Duration::from_micros(150), Some(42));
        metrics.record_cached_query();
        let mut out = String::new();
        metrics.render(&mut out);
        assert!(out.contains("connections=1\n"));
        assert!(out.contains("requests=1\n"));
        assert!(out.contains("queries=2\n"));
        assert!(out.contains("queries_cached=1\n"));
        assert!(out.contains("queries_executed=1\n"));
        assert!(out.contains("latency_us_histogram=128-255:1\n"));
        assert!(out.contains("visited_nodes_histogram=32-63:1\n"));
    }
}
