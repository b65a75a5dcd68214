//! The one RAII timer guard.
//!
//! A [`Span`] times a region for both planes at once: started through
//! [`Histogram::span`] it records the elapsed nanoseconds into that
//! histogram when metrics are on, and — like the label-only
//! [`trace_span`] — one `Complete` timeline event when tracing is on. The
//! clock is read once at start and once at drop, and not at all when both
//! planes were off at start, so an instrumented region then pays two
//! relaxed flag loads. Always-on measurement (`crates/bench`, the
//! collector's stats rows) is [`Histogram::record_since`] over a plain
//! `Instant`, not a guard.

use crate::metrics::Histogram;
use crate::tracing::{record, trace_enabled, trace_now_ns, TracePhase};

/// RAII guard over one timed region (see the module docs). Which planes it
/// feeds is fixed when it starts.
#[derive(Debug)]
pub struct Span {
    /// Trace-epoch start; `None` when both planes were off at start.
    start: Option<u64>,
    /// The histogram to record into, if metrics were on at start.
    hist: Option<&'static Histogram>,
    /// Whether tracing was on at start.
    timeline: bool,
    stage: &'static str,
    name: &'static str,
    arg: u64,
}

impl Span {
    #[inline]
    pub(crate) fn start(
        hist: Option<&'static Histogram>,
        stage: &'static str,
        name: &'static str,
    ) -> Span {
        let hist = hist.filter(|_| crate::enabled());
        let timeline = trace_enabled();
        Span {
            start: (timeline || hist.is_some()).then(trace_now_ns),
            hist,
            timeline,
            stage,
            name,
            arg: 0,
        }
    }

    /// Attach the free numeric argument recorded with the timeline event.
    pub fn arg(mut self, arg: u64) -> Span {
        self.arg = arg;
        self
    }

    /// Elapsed nanoseconds so far, or 0 if both planes were off at start.
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map_or(0, |start| trace_now_ns().saturating_sub(start))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = trace_now_ns().saturating_sub(start);
        if let Some(hist) = self.hist {
            hist.record(dur);
        }
        if self.timeline {
            record(
                TracePhase::Complete,
                self.stage,
                self.name,
                start,
                dur,
                self.arg,
            );
        }
    }
}

/// Start a label-only guard: a timeline span with no histogram behind it.
#[inline]
pub fn trace_span(stage: &'static str, name: &'static str) -> Span {
    Span::start(None, stage, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracing::{set_trace_enabled, trace_drain, trace_reset};
    use crate::{set_enabled, TIME_BOUNDS_NS};

    /// Run one guarded region under the given plane switches; returns the
    /// guard's mid-region `elapsed_ns`, the histogram samples it added and
    /// the timeline events it left.
    fn guarded(
        h: &'static Histogram,
        metrics: bool,
        tracing: bool,
    ) -> (u64, Vec<u64>, Vec<crate::TraceEvent>) {
        trace_reset();
        set_enabled(metrics);
        set_trace_enabled(tracing);
        let (n0, s0) = (h.count(), h.sum());
        let elapsed = {
            let g = h.span("t-stage", "region").arg(7);
            std::thread::sleep(std::time::Duration::from_millis(1));
            g.elapsed_ns()
        };
        set_enabled(false);
        set_trace_enabled(false);
        let samples = vec![h.sum() - s0; (h.count() - n0) as usize];
        (elapsed, samples, trace_drain().events)
    }

    #[test]
    fn one_guard_feeds_both_planes_with_one_duration() {
        let _guard = crate::test_mutex().lock().unwrap();
        static H: Histogram = Histogram::new("t-span", "both_ns", &TIME_BOUNDS_NS);
        let (elapsed, samples, events) = guarded(&H, true, true);
        assert_eq!(samples.len(), 1, "exactly one histogram sample");
        assert_eq!(events.len(), 1, "exactly one timeline event");
        let e = &events[0];
        assert_eq!(e.phase, TracePhase::Complete);
        assert_eq!((e.stage, e.name, e.arg), ("t-stage", "region", 7));
        assert_eq!(e.dur_ns, samples[0], "both planes saw the same duration");
        assert!(e.dur_ns >= elapsed && elapsed >= 1_000_000);
    }

    #[test]
    fn a_plane_that_is_off_records_nothing() {
        let _guard = crate::test_mutex().lock().unwrap();
        static H: Histogram = Histogram::new("t-span", "single_ns", &TIME_BOUNDS_NS);
        let (elapsed, samples, events) = guarded(&H, true, false);
        assert!(elapsed > 0);
        assert_eq!((samples.len(), events.len()), (1, 0), "metrics only");
        let (elapsed, samples, events) = guarded(&H, false, true);
        assert!(elapsed > 0);
        assert_eq!((samples.len(), events.len()), (0, 1), "timeline only");
        let (elapsed, samples, events) = guarded(&H, false, false);
        assert_eq!(elapsed, 0, "no clock read with both planes off");
        assert_eq!((samples.len(), events.len()), (0, 0));
    }

    #[test]
    fn nested_guards_each_record() {
        let _guard = crate::test_mutex().lock().unwrap();
        set_enabled(true);
        static OUTER: Histogram = Histogram::new("t-span", "outer_ns", &TIME_BOUNDS_NS);
        static INNER: Histogram = Histogram::new("t-span", "inner_ns", &TIME_BOUNDS_NS);
        let (o0, i0) = (OUTER.count(), INNER.count());
        {
            let _outer = OUTER.span("t-stage", "outer");
            let _inner = INNER.span("t-stage", "inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(OUTER.count(), o0 + 1);
        assert_eq!(INNER.count(), i0 + 1);
        // The outer guard encloses the inner one, so its recorded duration
        // must be at least as long.
        assert!(OUTER.sum() >= INNER.sum());
        set_enabled(false);
    }

    #[test]
    fn record_since_measures_with_metrics_off() {
        let _guard = crate::test_mutex().lock().unwrap();
        set_enabled(false);
        static H: Histogram = Histogram::new("t-span", "sw_ns", &TIME_BOUNDS_NS);
        let (n0, s0) = (H.count(), H.sum());
        let ns = H.record_since(std::time::Instant::now());
        assert_eq!((H.count(), H.sum()), (n0 + 1, s0 + ns));
    }
}
