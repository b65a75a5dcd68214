//! Integration tests exercising metric statics from multiple threads and
//! the exact bucket semantics of fixed-bound histograms.

use cypress_obs::{Counter, Gauge, Histogram};
use std::thread;

#[test]
fn concurrent_counter_increments_from_scoped_threads() {
    let _guard = cypress_obs::test_mutex().lock().unwrap();
    cypress_obs::reset();
    cypress_obs::set_enabled(true);
    static HITS: Counter = Counter::new("conc", "hits");
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..PER_THREAD {
                    HITS.inc();
                }
            });
        }
    });
    assert_eq!(HITS.get(), THREADS as u64 * PER_THREAD);
    // Eight racing first records linked the metric exactly once.
    let rows = cypress_obs::report().metrics;
    assert_eq!(rows.iter().filter(|m| m.name == "hits").count(), 1);
    cypress_obs::set_enabled(false);
    cypress_obs::reset();
}

#[test]
fn concurrent_gauge_set_max_keeps_global_maximum() {
    let _guard = cypress_obs::test_mutex().lock().unwrap();
    cypress_obs::reset();
    cypress_obs::set_enabled(true);
    static HIGH_WATER: Gauge = Gauge::new("conc", "high_water");
    thread::scope(|scope| {
        for t in 0..8i64 {
            scope.spawn(move || {
                for v in 0..1000 {
                    HIGH_WATER.set_max(t * 1000 + v);
                }
            });
        }
    });
    assert_eq!(HIGH_WATER.get(), 7 * 1000 + 999);
    cypress_obs::set_enabled(false);
    cypress_obs::reset();
}

#[test]
fn histogram_bucket_boundaries_are_inclusive_upper_bounds() {
    let _guard = cypress_obs::test_mutex().lock().unwrap();
    cypress_obs::reset();
    cypress_obs::set_enabled(true);
    static H: Histogram = Histogram::new("conc", "bounds", &[10, 100, 1000]);
    // On-boundary values land in their own bucket (inclusive upper bound),
    // bound+1 lands in the next, and anything past the last bound overflows.
    H.observe(0);
    H.observe(10); // bucket 0 (<= 10)
    H.observe(11); // bucket 1
    H.observe(100); // bucket 1 (<= 100)
    H.observe(101); // bucket 2
    H.observe(1000); // bucket 2 (<= 1000)
    H.observe(1001); // overflow
    H.observe(u64::MAX); // overflow
    assert_eq!(H.bucket_counts(), vec![2, 2, 2, 2]);
    assert_eq!(H.count(), 8);
    cypress_obs::set_enabled(false);
    cypress_obs::reset();
}

#[test]
fn eight_thread_combined_stress_keeps_exact_totals() {
    let _guard = cypress_obs::test_mutex().lock().unwrap();
    cypress_obs::reset();
    cypress_obs::set_enabled(true);
    const THREADS: u64 = 8;
    const ITERS: u64 = 5_000;
    static OPS: Counter = Counter::new("stress", "ops");
    static DEPTH: Gauge = Gauge::new("stress", "depth");
    static SIZES: Histogram = Histogram::new("stress", "sizes", &[8, 64, 512]);
    thread::scope(|scope| {
        for t in 0..THREADS {
            // All three instrument kinds contend on the same statics.
            scope.spawn(move || {
                for i in 0..ITERS {
                    OPS.inc();
                    DEPTH.set_max((t * ITERS + i) as i64);
                    SIZES.observe(i % 1000);
                }
            });
        }
    });
    assert_eq!(OPS.get(), THREADS * ITERS);
    assert_eq!(DEPTH.get(), (THREADS * ITERS - 1) as i64);
    assert_eq!(SIZES.count(), THREADS * ITERS);
    // Each thread records 0..1000 five times over: sum is closed-form.
    assert_eq!(SIZES.sum(), THREADS * (ITERS / 1000) * (999 * 1000 / 2));
    assert_eq!(SIZES.bucket_counts().iter().sum::<u64>(), SIZES.count());
    assert!(SIZES.quantile(0.5) >= SIZES.quantile(0.1));
    cypress_obs::set_enabled(false);
    cypress_obs::reset();
}

#[test]
fn concurrent_histogram_observes_sum_consistently() {
    let _guard = cypress_obs::test_mutex().lock().unwrap();
    cypress_obs::reset();
    cypress_obs::set_enabled(true);
    static PAR: Histogram = Histogram::new("conc", "par", &[8, 64, 512]);
    thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for v in 0..1024u64 {
                    PAR.observe(v);
                }
            });
        }
    });
    assert_eq!(PAR.count(), 4 * 1024);
    assert_eq!(PAR.sum(), 4 * (1023 * 1024 / 2));
    assert_eq!(PAR.bucket_counts().iter().sum::<u64>(), PAR.count());
    cypress_obs::set_enabled(false);
    cypress_obs::reset();
}
