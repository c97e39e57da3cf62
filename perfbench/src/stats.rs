//! The one sampler: robust summaries of timing samples.
//!
//! Every number the benchmark prints goes through this module, so that two
//! result files are comparable row by row: a timing is a median with its
//! minimum, its median absolute deviation and its sample count beside it.

/// Summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value (a median unless the row says otherwise).
    pub value: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median absolute deviation from the median.
    pub mad: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// A value that is a count or a ratio, not a distribution.
    pub fn exact(value: f64) -> Self {
        Self {
            value,
            min: value,
            mad: 0.0,
            n: 1,
        }
    }

    /// Median, min and MAD of `samples` (`None` when empty).
    pub fn of(samples: &[f64]) -> Option<Self> {
        let sorted = sorted(samples);
        let value = percentile_sorted(&sorted, 50.0)?;
        Some(Self {
            value,
            min: sorted[0],
            mad: mad(&sorted, value),
            n: sorted.len(),
        })
    }

    /// Like [`Summary::of`] but reporting percentile `p` as the value.
    pub fn at_percentile(samples: &[f64], p: f64) -> Option<Self> {
        let sorted = sorted(samples);
        let median = percentile_sorted(&sorted, 50.0)?;
        let value = percentile_sorted(&sorted, p)?;
        Some(Self {
            value,
            min: sorted[0],
            mad: mad(&sorted, median),
            n: sorted.len(),
        })
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn mad(sorted: &[f64], median: f64) -> f64 {
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
    dev.sort_by(f64::total_cmp);
    percentile_sorted(&dev, 50.0).unwrap_or(0.0)
}

/// Percentile `p` (0–100) of ascending `sorted`, linearly interpolated
/// between closest ranks.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = (p.clamp(0.0, 100.0) / 100.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile_sorted(&sorted(samples), 50.0)
}

/// The highest whole percentile that still has at least ten samples beyond
/// it — the tail a sample of size `n` can support (`None` below 20 samples,
/// where not even the median has ten on each side).
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64).floor().min(99.0) as u32)
}

/// Geometric mean of positive values (`None` when empty or non-positive).
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0 || !v.is_finite()) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Quartile spread of `values` as a share of their median — the run-to-run
/// steadiness figure `compare` and `selfcheck` report (the exclusive method
/// of Python's `statistics.quantiles(values, n=4)`).
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    if v.len() < 2 {
        return None;
    }
    let q = |k: f64| {
        let pos = k * (v.len() + 1) as f64 / 4.0 - 1.0;
        let lo = pos.floor().clamp(0.0, (v.len() - 1) as f64) as usize;
        let hi = (lo + 1).min(v.len() - 1);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo] + (v[hi] - v[lo]) * frac
    };
    let median = percentile_sorted(&v, 50.0)?;
    (median != 0.0).then(|| (q(3.0) - q(1.0)) / median.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_and_mad() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 100.0, 2.0]).unwrap();
        assert_eq!((s.value, s.min, s.n), (3.0, 1.0, 5));
        // deviations 2 1 0 97 2 -> sorted 0 1 2 2 97 -> 2
        assert_eq!(s.mad, 2.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[4.0, 2.0]), Some(3.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(5.0));
        assert_eq!(percentile_sorted(&v, 75.0), Some(4.0));
        assert_eq!(percentile_sorted(&v, 90.0), Some(4.6));
        assert_eq!(Summary::at_percentile(&v, 75.0).unwrap().value, 4.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50));
        assert_eq!(highest_supported_percentile(40), Some(75));
        assert_eq!(highest_supported_percentile(1000), Some(99));
        assert_eq!(highest_supported_percentile(1_000_000), Some(99));
    }

    #[test]
    fn geomean_weights_small_and_large_equally() {
        let g = geomean(&[5.0, 50_000.0]).unwrap();
        assert!((g - 500.0).abs() < 1e-9);
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        assert!(iqr_share(&[1.0]).is_none());
    }
}
