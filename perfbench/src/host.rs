//! Host fingerprint, calibration score and process memory, so that a result
//! file says where it was measured and ratios survive a host change.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Json;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in (`unknown` outside a
/// git repository — the driver's checkouts are plain directories).
pub fn git_commit() -> String {
    let head = read(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}"))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// A fixed integer and pointer-chase loop over 4 MiB (past L2, like the
/// indexes): the same code on every commit, so that `value / calibration_ns`
/// can be compared across hosts, and across the states of one host.
pub struct Calibrator {
    next: Vec<u64>,
    at: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        const SLOTS: usize = 1 << 19;
        // One cycle through every slot (a fixed odd stride is coprime to 2^k).
        let next = (0..SLOTS)
            .map(|i| ((i + 0x9E37_79B1) % SLOTS) as u64)
            .collect();
        Self { next, at: 0 }
    }
}

impl Calibrator {
    /// Nanoseconds per step over `steps` dependent loads.
    pub fn ns_per_step(&mut self, steps: usize) -> f64 {
        let start = Instant::now();
        let (mut at, mut acc) = (self.at, 0u64);
        for _ in 0..steps {
            at = self.next[at as usize];
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(at);
        }
        black_box(acc);
        self.at = at;
        start.elapsed().as_nanos() as f64 / steps as f64
    }
}

/// The calibration score of the result file: the best of three long runs.
pub fn calibration_ns() -> f64 {
    let mut calibrator = Calibrator::default();
    (0..3)
        .map(|_| calibrator.ns_per_step(1 << 21))
        .fold(f64::INFINITY, f64::min)
}

/// `nproc`, CPU model, kernel and compiler, as one JSON object.
pub fn fingerprint() -> Json {
    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel =
        read("/proc/sys/kernel/osrelease").map_or("unknown".into(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", Json::Str(cpu)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(rustc)),
    ])
}
