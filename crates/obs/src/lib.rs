//! # cypress-obs — pipeline-wide observability substrate
//!
//! CYPRESS's headline evaluation numbers (Fig. 16–18: 1.58% intra-process
//! time overhead, flat compressor memory, O(n) merge cost) are
//! *observability* claims. This crate makes them self-reported rather than
//! measured ad hoc: every pipeline layer registers counters, gauges,
//! fixed-bucket histograms, and RAII span timers under a named subsystem
//! scope in one global registry, and the `--metrics` flag of the `cypress`
//! and `figures` binaries dumps the registry as an aligned text table plus
//! JSON-lines (`results/metrics.jsonl`).
//!
//! Design constraints:
//!
//! * **Near-zero cost when disabled.** Recording instrumentation inside the
//!   compressor whose overhead the compressor itself reports must not
//!   distort the report. Every record path starts with one relaxed atomic
//!   load of the global enable flag ([`enabled`]); when off, counters,
//!   gauges, and histograms return before touching shared state, and span
//!   timers never call `Instant::now`. `benchmark/` runs `local-regular`
//!   with the flag off (`events_per_s`) and on (`obs.enabled_overhead_pct`).
//! * **No external dependencies.** The build environment is fully offline,
//!   so the registry is `std::sync` only: handles are `Arc`-shared atomics,
//!   and the name→handle map is behind a plain `Mutex` touched only at
//!   registration and report time, never on the record path.
//!
//! ```
//! let m = cypress_obs::scope("demo-compressor");
//! let hits = m.counter("leaf_fold_hits");
//! cypress_obs::set_enabled(true);
//! hits.add(3);
//! let span = m.span("compress");
//! drop(span); // records elapsed ns into the `compress_ns` histogram
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

pub use fsio::{append_atomic, write_atomic};
pub use log::{log_emit, log_enabled, log_level, set_log_level, Level};
pub use metrics::{scope, Counter, Gauge, Histogram, Scope, TIME_BOUNDS_NS};
pub use report::{json_str, push_json_u64_array, report, MetricKind, MetricSnapshot, Report};
pub use span::{Span, Stopwatch};
pub use tracing::{
    clear_thread_rank, set_thread_rank, set_trace_enabled, trace_begin, trace_complete,
    trace_drain, trace_enabled, trace_end, trace_instant, trace_now_ns, trace_reset,
    trace_snapshot, trace_span, RankRow, StageProfile, StageRow, TraceDump, TraceEvent, TracePhase,
    TraceSpan, NO_RANK,
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

/// Clear all registered metrics and their values (tests and repeated
/// measurement phases).
pub fn reset() {
    metrics::registry()
        .lock()
        .expect("obs registry poisoned")
        .clear();
}

/// Serializes tests that toggle the global enable flag or reset the
/// registry. Not part of the public API surface proper.
#[doc(hidden)]
pub fn test_mutex() -> &'static std::sync::Mutex<()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
}
