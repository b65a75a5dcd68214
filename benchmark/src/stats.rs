//! Harness maths: medians over repetitions and percentile selection.

/// Median of a sample (mean of the two middle values when even). `NaN` on an
/// empty sample, which the result printer would refuse — callers never pass
/// one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The percentile actually reported when `want` is asked for over `n`
/// samples: the highest percentile `≤ want` that still has at least ten
/// samples beyond it, and never below the median. Fewer than twenty samples
/// support nothing above p50.
pub fn supported_percentile(n: usize, want: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    want.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Nearest-rank percentile `p ∈ [0, 1]` of an ascending sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency digest of one operation type, pooled over the timed repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    pub samples: usize,
    pub p50_ns: u64,
    /// p90, or the highest percentile below it that the sample supports.
    pub p90_ns: u64,
    pub p90_is: f64,
    /// p99 under the same rule; diagnostic only.
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl Latency {
    pub fn of(mut samples: Vec<u64>) -> Option<Latency> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        let p90_is = supported_percentile(n, 0.90);
        Some(Latency {
            samples: n,
            p50_ns: percentile(&samples, 0.5),
            p90_ns: percentile(&samples, p90_is),
            p90_is,
            p99_ns: percentile(&samples, supported_percentile(n, 0.99)),
            max_ns: samples[n - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_over_repetitions() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow repetition out of three does not move the result.
        assert_eq!(median(&[1.00, 1.02, 7.5]), 1.02);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // Below twenty samples only the median is supported.
        assert_eq!(supported_percentile(3, 0.9), 0.5);
        assert_eq!(supported_percentile(19, 0.9), 0.5);
        // 64 samples: ten beyond means p84.375, not p90.
        assert!((supported_percentile(64, 0.9) - (1.0 - 10.0 / 64.0)).abs() < 1e-12);
        // 100 samples is the first size that supports p90; 1000 the first for p99.
        assert_eq!(supported_percentile(100, 0.9), 0.9);
        assert_eq!(supported_percentile(192, 0.9), 0.9);
        assert!(supported_percentile(999, 0.99) < 0.99);
        assert_eq!(supported_percentile(1000, 0.99), 0.99);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.9), 7);
        let l = Latency::of((1..=200).rev().collect()).unwrap();
        assert_eq!(
            (l.samples, l.p50_ns, l.p90_ns, l.max_ns),
            (200, 100, 180, 200)
        );
        // 200 samples support p95 at most, so "p99" reports p95.
        assert_eq!(l.p99_ns, 190);
        assert!(Latency::of(Vec::new()).is_none());
    }
}
