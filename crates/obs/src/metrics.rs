//! Metric primitives and the registry.
//!
//! A metric is a const-constructed `static` ([`Counter`], [`Gauge`],
//! [`Histogram`]) declared next to the code it measures. It links itself
//! into the registry the first time it records, so there is nothing to
//! register, look up or cache, and a metric that never recorded is simply
//! absent from the report. Gated record paths check [`crate::enabled`]
//! first, so disabled instrumentation costs one relaxed load; recording
//! never takes the registry lock once linked.

use crate::report::{MetricKind, MetricSnapshot};
use crate::span::Span;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// Default histogram bucket upper bounds for span durations, in
/// nanoseconds: 1 µs … 10 s, one decade per bucket (plus the implicit
/// overflow bucket).
pub const TIME_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

/// Every metric that has recorded since the last [`reset`].
static REGISTRY: Mutex<Vec<&'static dyn Metric>> = Mutex::new(Vec::new());

const POISON: &str = "obs registry poisoned";

trait Metric: Sync {
    fn id(&self) -> &Id;
    /// Fill the value fields of a snapshot that already carries the id.
    fn snapshot(&self, snap: &mut MetricSnapshot);
    fn zero(&self);
}

/// Scope, name and registry link shared by every metric kind.
#[derive(Debug)]
struct Id {
    scope: &'static str,
    name: &'static str,
    linked: AtomicBool,
}

impl Id {
    const fn new(scope: &'static str, name: &'static str) -> Id {
        Id {
            scope,
            name,
            linked: AtomicBool::new(false),
        }
    }

    #[inline(always)]
    fn link(&self, metric: &'static dyn Metric) {
        if !self.linked.load(Relaxed) {
            self.link_slow(metric);
        }
    }

    #[cold]
    fn link_slow(&self, metric: &'static dyn Metric) {
        let mut reg = REGISTRY.lock().expect(POISON);
        // Swapped under the lock: racing first records push exactly once.
        if !self.linked.swap(true, Relaxed) {
            reg.push(metric);
        }
    }
}

/// Snapshot every linked metric, sorted by (scope, name).
pub(crate) fn snapshot_all() -> Vec<MetricSnapshot> {
    let mut out: Vec<MetricSnapshot> = REGISTRY
        .lock()
        .expect(POISON)
        .iter()
        .map(|m| {
            let mut snap = MetricSnapshot {
                subsystem: m.id().scope.to_owned(),
                name: m.id().name.to_owned(),
                ..MetricSnapshot::default()
            };
            m.snapshot(&mut snap);
            snap
        })
        .collect();
    out.sort_by(|a, b| (&a.subsystem, &a.name).cmp(&(&b.subsystem, &b.name)));
    out
}

/// Zero every linked metric in place and unlink it: the next report is
/// empty, and a metric reappears — from zero — with its next record.
pub(crate) fn reset() {
    for m in REGISTRY.lock().expect(POISON).drain(..) {
        m.zero();
        m.id().linked.store(false, Relaxed);
    }
}

/// Monotone event counter.
#[derive(Debug)]
pub struct Counter {
    id: Id,
    value: AtomicU64,
}

impl Counter {
    pub const fn new(scope: &'static str, name: &'static str) -> Counter {
        Counter {
            id: Id::new(scope, name),
            value: AtomicU64::new(0),
        }
    }

    #[inline(always)]
    pub fn inc(&'static self) {
        self.add(1);
    }

    #[inline(always)]
    pub fn add(&'static self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Relaxed);
            self.id.link(self);
        }
    }

    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

impl Metric for Counter {
    fn id(&self) -> &Id {
        &self.id
    }
    fn snapshot(&self, snap: &mut MetricSnapshot) {
        snap.kind = MetricKind::Counter;
        snap.value = self.get() as i64;
    }
    fn zero(&self) {
        self.value.store(0, Relaxed);
    }
}

/// Point-in-time value; `set_max` turns it into a high-water mark.
#[derive(Debug)]
pub struct Gauge {
    id: Id,
    value: AtomicI64,
}

impl Gauge {
    pub const fn new(scope: &'static str, name: &'static str) -> Gauge {
        Gauge {
            id: Id::new(scope, name),
            value: AtomicI64::new(0),
        }
    }

    #[inline(always)]
    pub fn set(&'static self, v: i64) {
        if crate::enabled() {
            self.value.store(v, Relaxed);
            self.id.link(self);
        }
    }

    /// Raise the gauge to `v` if larger (high-water mark).
    #[inline(always)]
    pub fn set_max(&'static self, v: i64) {
        if crate::enabled() {
            self.value.fetch_max(v, Relaxed);
            self.id.link(self);
        }
    }

    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }
}

impl Metric for Gauge {
    fn id(&self) -> &Id {
        &self.id
    }
    fn snapshot(&self, snap: &mut MetricSnapshot) {
        snap.kind = MetricKind::Gauge;
        snap.value = self.get();
    }
    fn zero(&self) {
        self.value.store(0, Relaxed);
    }
}

/// Bucket slots of a [`Histogram`]: up to 8 bounds plus the overflow bucket.
const MAX_BUCKETS: usize = 9;

/// Fixed-bucket histogram (`observe` ≤ bound goes in that bucket).
#[derive(Debug)]
pub struct Histogram {
    id: Id,
    /// Inclusive upper bounds, strictly increasing; an implicit +inf bucket
    /// follows.
    bounds: &'static [u64],
    /// The first `bounds.len() + 1` slots are live; the last of those is
    /// the overflow bucket.
    buckets: [AtomicU64; MAX_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// `bounds` are inclusive upper bounds: at most 8, strictly increasing
    /// (checked at compile time for a `static`).
    pub const fn new(scope: &'static str, name: &'static str, bounds: &'static [u64]) -> Histogram {
        assert!(bounds.len() < MAX_BUCKETS, "at most 8 histogram bounds");
        let mut i = 1;
        while i < bounds.len() {
            assert!(
                bounds[i - 1] < bounds[i],
                "histogram bounds must be strictly increasing"
            );
            i += 1;
        }
        Histogram {
            id: Id::new(scope, name),
            bounds,
            buckets: [const { AtomicU64::new(0) }; MAX_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    #[inline(always)]
    pub fn observe(&'static self, v: u64) {
        if crate::enabled() {
            self.record(v);
        }
    }

    /// Record unconditionally — the measurement path of `crates/bench` and
    /// of the collector's stats rows, which exist whether or not
    /// `--metrics` is on.
    pub fn record(&'static self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.min.fetch_min(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
        self.id.link(self);
    }

    /// [`record`](Self::record) the nanoseconds since `t0`; returns them.
    pub fn record_since(&'static self, t0: Instant) -> u64 {
        let ns = t0.elapsed().as_nanos() as u64;
        self.record(ns);
        ns
    }

    /// Start the RAII guard over this histogram: on drop it records the
    /// elapsed nanoseconds here when metrics are on and one `Complete`
    /// `stage`/`name` timeline event when tracing is on (see [`Span`]).
    #[inline]
    pub fn span(&'static self, stage: &'static str, name: &'static str) -> Span {
        Span::start(Some(self), stage, name)
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// inside the fixed buckets, clamped to the observed min/max so the
    /// estimate never leaves the data range. Returns 0 for an empty
    /// histogram. Accuracy is bounded by bucket width: with the decade
    /// [`TIME_BOUNDS_NS`] buckets the estimate lands in the right decade
    /// and interpolates within it.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let min = self.min.load(Relaxed);
        let max = self.max.load(Relaxed);
        if q <= 0.0 {
            return min;
        }
        if q >= 1.0 {
            return max;
        }
        // Rank of the target observation, 1-based: ceil(q * n), at least 1.
        let target = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, c) in self.bucket_counts().into_iter().enumerate() {
            if c > 0 && cum + c >= target {
                // Interpolate within this bucket's value range.
                let lo = if i == 0 {
                    min
                } else {
                    self.bounds[i - 1].saturating_add(1)
                };
                let hi = self.bounds.get(i).copied().unwrap_or(max);
                let (lo, hi) = (lo.clamp(min, max), hi.clamp(min, max));
                let frac = (target - cum) as f64 / c as f64;
                let est = lo as f64 + frac * (hi.saturating_sub(lo)) as f64;
                return (est.round() as u64).clamp(min, max);
            }
            cum += c;
        }
        max
    }

    /// Per-bucket counts (overflow bucket last).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets[..=self.bounds.len()]
            .iter()
            .map(|b| b.load(Relaxed))
            .collect()
    }
}

impl Metric for Histogram {
    fn id(&self) -> &Id {
        &self.id
    }
    fn snapshot(&self, snap: &mut MetricSnapshot) {
        snap.kind = MetricKind::Histogram;
        snap.count = self.count();
        snap.sum = self.sum();
        let min = self.min.load(Relaxed);
        snap.min = if min == u64::MAX { 0 } else { min };
        snap.max = self.max.load(Relaxed);
        snap.p50 = self.quantile(0.50);
        snap.p90 = self.quantile(0.90);
        snap.p99 = self.quantile(0.99);
        snap.bounds = self.bounds.to_vec();
        snap.buckets = self.bucket_counts();
    }
    fn zero(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum.store(0, Relaxed);
        self.min.store(u64::MAX, Relaxed);
        self.max.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_disabled_records_nothing() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(false);
        static C: Counter = Counter::new("t-metrics", "disabled");
        C.inc();
        C.add(10);
        assert_eq!(C.get(), 0);
    }

    #[test]
    fn gauge_set_max_is_high_water() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        static G: Gauge = Gauge::new("t-metrics", "hw");
        G.set(0);
        G.set_max(5);
        G.set_max(3);
        G.set_max(9);
        assert_eq!(G.get(), 9);
        crate::set_enabled(false);
    }

    #[test]
    fn quantiles_on_uniform_distribution() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        // 1..=1000 uniform into decade buckets: true p50=500, p90=900,
        // p99=990. Interpolation within the 101–1000 bucket is exact for
        // uniform data up to bucket-edge rounding.
        static H: Histogram = Histogram::new("t-metrics", "uniform", &[10, 100, 1_000, 10_000]);
        for v in 1..=1000u64 {
            H.observe(v);
        }
        let p50 = H.quantile(0.50);
        let p90 = H.quantile(0.90);
        let p99 = H.quantile(0.99);
        assert!((490..=510).contains(&p50), "p50={p50}");
        assert!((890..=910).contains(&p90), "p90={p90}");
        assert!((980..=1000).contains(&p99), "p99={p99}");
        // Extremes clamp to observed min/max.
        assert_eq!(H.quantile(0.0), 1);
        assert_eq!(H.quantile(1.0), 1000);
        crate::set_enabled(false);
    }

    #[test]
    fn quantiles_on_point_mass_and_empty() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        static H: Histogram = Histogram::new("t-metrics", "point", &TIME_BOUNDS_NS);
        assert_eq!(H.quantile(0.5), 0, "empty histogram");
        for _ in 0..100 {
            H.observe(5_000);
        }
        // All mass at one value: every quantile is that value (min==max
        // clamping defeats within-bucket interpolation error).
        assert_eq!(H.quantile(0.5), 5_000);
        assert_eq!(H.quantile(0.99), 5_000);
        crate::set_enabled(false);
    }

    #[test]
    fn quantiles_on_bimodal_distribution() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        // 90 fast observations (~2µs) + 10 slow (~2s): p50/p90 must stay in
        // the fast decade, p99 in the slow one — the exact shape that
        // motivates quantiles over means for span histograms.
        static H: Histogram = Histogram::new("t-metrics", "bimodal", &TIME_BOUNDS_NS);
        for _ in 0..90 {
            H.observe(2_000);
        }
        for _ in 0..10 {
            H.observe(2_000_000_000);
        }
        assert!(H.quantile(0.50) <= 10_000, "p50={}", H.quantile(0.50));
        assert!(H.quantile(0.90) <= 10_000, "p90={}", H.quantile(0.90));
        assert!(
            H.quantile(0.99) >= 1_000_000_000,
            "p99={}",
            H.quantile(0.99)
        );
        crate::set_enabled(false);
    }

    #[test]
    fn reset_zeroes_in_place_and_the_next_record_relinks() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::set_enabled(true);
        crate::reset();
        static C: Counter = Counter::new("t-metrics", "relinked");
        static H: Histogram = Histogram::new("t-metrics", "relinked_h", &[10]);
        C.add(5);
        H.observe(50);
        crate::reset();
        assert_eq!((C.get(), H.count(), H.bucket_counts()), (0, 0, vec![0, 0]));
        assert!(crate::report().metrics.is_empty());
        C.add(2);
        let report = crate::report();
        assert_eq!(report.metrics.len(), 1, "only what recorded since");
        assert_eq!(
            (report.metrics[0].name.as_str(), report.metrics[0].value),
            ("relinked", 2)
        );
        crate::set_enabled(false);
        crate::reset();
    }
}
