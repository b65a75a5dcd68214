//! # cypress-obs — pipeline-wide observability substrate
//!
//! CYPRESS's headline evaluation numbers (Fig. 16–18: 1.58% intra-process
//! time overhead, flat compressor memory, O(n) merge cost) are
//! *observability* claims. This crate makes them self-reported rather than
//! measured ad hoc, with one probe vocabulary: a metric is a `static`
//! [`Counter`], [`Gauge`] or [`Histogram`] next to the code it measures,
//! one RAII [`Span`] guard times a region for the histogram and the
//! timeline at once, and the `--metrics` flag of the `cypress` and
//! `figures` binaries dumps whatever recorded as an aligned text table plus
//! JSON-lines (`results/metrics.jsonl`).
//!
//! Design constraints:
//!
//! * **Near-zero cost when disabled.** Recording instrumentation inside the
//!   compressor whose overhead the compressor itself reports must not
//!   distort the report. Every gated record path starts with one relaxed
//!   atomic load of the global enable flag ([`enabled`]); when off,
//!   counters, gauges and histograms return before touching shared state,
//!   and a guard never reads the clock.
//! * **Cheap when enabled.** Per-event code tallies into plain fields of
//!   the object doing the work and flushes them with one `add` per rank,
//!   per `absorb`, per `simulate`; no probe sits on a per-event path.
//!   `benchmark/` runs `local-regular` with the flags off (`events_per_s`)
//!   and on (`obs.enabled_overhead_pct`).
//! * **No external dependencies.** The build environment is fully offline,
//!   so the registry is `std::sync` only: a metric links itself into one
//!   `Mutex<Vec<_>>` the first time it records and is found there at
//!   report time; the record path never takes the lock again.
//!
//! ```
//! use cypress_obs::{Counter, Histogram, TIME_BOUNDS_NS};
//! static FOLD_HITS: Counter = Counter::new("demo-compressor", "leaf_fold_hits");
//! static COMPRESS_NS: Histogram =
//!     Histogram::new("demo-compressor", "compress_ns", &TIME_BOUNDS_NS);
//! cypress_obs::set_enabled(true);
//! FOLD_HITS.add(3);
//! let span = COMPRESS_NS.span("session", "compress");
//! drop(span); // records elapsed ns into the histogram (and the timeline, if on)
//! let report = cypress_obs::report();
//! assert!(report.to_text().contains("leaf_fold_hits"));
//! cypress_obs::set_enabled(false);
//! ```

pub mod fsio;
pub mod log;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod span;
pub mod tracing;

pub use fsio::{append_atomic, write_atomic, write_atomic_with};
pub use log::{log_emit, log_enabled, log_level, set_log_level, Level};
pub use metrics::{Counter, Gauge, Histogram, TIME_BOUNDS_NS};
pub use report::{json_str, push_json_u64_array, report, MetricKind, MetricSnapshot, Report};
pub use span::{trace_span, Span};
pub use tracing::{
    clear_thread_rank, set_thread_rank, set_trace_enabled, trace_complete, trace_drain,
    trace_enabled, trace_instant, trace_now_ns, trace_reset, trace_snapshot, RankRow, StageProfile,
    StageRow, TraceDump, TraceEvent, TracePhase, NO_RANK,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metric recording enabled? One relaxed load — this is the only cost
/// instrumented hot paths pay when observability is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable metric recording. Flip once at startup
/// (`--metrics`); recording sites observe the flag per operation.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero every metric in place and empty the report (tests and repeated
/// measurement phases); whatever records afterwards is reported again.
pub fn reset() {
    metrics::reset();
}

/// Serializes tests that toggle the global enable flag or reset the
/// registry. Not part of the public API surface proper.
#[doc(hidden)]
pub fn test_mutex() -> &'static std::sync::Mutex<()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
}
