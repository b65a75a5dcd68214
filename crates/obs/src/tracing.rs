//! Structured timeline tracing: bounded per-thread event rings.
//!
//! The metrics registry ([`crate::metrics`]) answers *how much* — counts,
//! sums, distributions. It cannot answer *where wall time goes per rank,
//! per stage, over time*, which is exactly what the interpreter→session
//! bottleneck hunt needs. This module records discrete timeline events:
//!
//! * **instant and complete (start + duration) events** with nanosecond
//!   timestamps relative to one process-wide epoch, a `&'static str` name, a
//!   `&'static str` stage label (the Chrome "category"), the recording
//!   thread, and an optional rank label;
//! * **bounded per-thread rings** — each thread appends to its own
//!   fixed-capacity buffer; when the ring fills, events are *dropped and
//!   counted* (atomic per-ring drop counter), never grown without bound;
//! * **near-zero cost when disabled** — every record path starts with one
//!   relaxed atomic load ([`trace_enabled`]); when off, no clock is read
//!   and no ring is touched (same discipline as [`crate::enabled`]).
//!
//! A finished run is [`trace_drain`]ed into a [`TraceDump`], which exports
//! as Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`)
//! or JSONL, and rolls up into a [`StageProfile`]: a per-stage / per-rank
//! wall-time attribution table with exclusive (self-time) accounting, so
//! nested spans never double count.

use crate::report::json_str;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Default per-thread ring capacity, in events. 64 Ki events × 64 B/event
/// = 4 MiB per recording thread, enough for every bundled workload with
/// coarse-grained tracepoints; overflow drops (counted) rather than grows.
pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

/// Is timeline tracing enabled? One relaxed load — the only cost an
/// instrumented path pays when tracing is off.
#[inline(always)]
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable timeline tracing. Flip once at startup
/// (`--trace-out`); recording sites observe the flag per event. Enabling
/// also pins the trace epoch if it is not set yet.
pub fn set_trace_enabled(on: bool) {
    if on {
        let _ = epoch();
    }
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (pinned at first use / first enable).
#[inline]
pub fn trace_now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Event phase, mirroring the Chrome trace-event phases we emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TracePhase {
    /// `ph:"i"` — instant.
    Instant,
    /// `ph:"X"` — complete (begin timestamp + duration in one record).
    Complete,
}

impl TracePhase {
    pub fn chrome(self) -> &'static str {
        match self {
            TracePhase::Instant => "i",
            TracePhase::Complete => "X",
        }
    }
}

/// Rank label value meaning "not rank-scoped".
pub const NO_RANK: i64 = -1;

/// One timeline event. Fixed-size and `Copy` so ring appends are a bump
/// write, and labels are `&'static str` so recording never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch (begin timestamp for `Complete`).
    pub ts_ns: u64,
    /// Duration in nanoseconds (`Complete` only; 0 otherwise).
    pub dur_ns: u64,
    /// Event name (`"rank"`, `"deflate"`, `"steal"`, …). A trailing `~`
    /// marks a `Complete` span whose duration is an estimate.
    pub name: &'static str,
    /// Stage label — the Chrome category: `"interp"`, `"session"`,
    /// `"merge"`, `"encode"`, `"io"`, `"net"`, `"sched"`, `"deflate"`, ….
    pub stage: &'static str,
    pub phase: TracePhase,
    /// Recording thread (small sequential id, stable per thread).
    pub tid: u32,
    /// Rank label, [`NO_RANK`] when the thread is not rank-scoped.
    pub rank: i64,
    /// One free numeric argument (bytes, counts, …); 0 when unused.
    pub arg: u64,
}

/// One thread's bounded event buffer, shared with the global registry so
/// [`trace_drain`] can collect it after the thread has moved on.
struct Ring {
    events: Mutex<Vec<TraceEvent>>,
    dropped: AtomicU64,
    capacity: usize,
}

fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("CYPRESS_TRACE_RING")
            .ok()
            .and_then(|s| s.parse().ok())
            .filter(|&c: &usize| c > 0)
            .unwrap_or(DEFAULT_RING_CAPACITY)
    })
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_RING: OnceLock<(u32, Arc<Ring>)> = const { OnceLock::new() };
    static THREAD_RANK: Cell<i64> = const { Cell::new(NO_RANK) };
}

fn with_ring(f: impl FnOnce(u32, &Ring)) {
    THREAD_RING.with(|slot| {
        let (tid, ring) = slot.get_or_init(|| {
            let ring = Arc::new(Ring {
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                capacity: ring_capacity(),
            });
            rings()
                .lock()
                .expect("trace ring registry poisoned")
                .push(ring.clone());
            (NEXT_TID.fetch_add(1, Ordering::Relaxed), ring)
        });
        f(*tid, ring);
    });
}

/// Label this thread's subsequent events with a rank. Pass [`NO_RANK`] (or
/// call [`clear_thread_rank`]) when the thread stops working on that rank —
/// pooled workers are reused across ranks.
pub fn set_thread_rank(rank: u32) {
    THREAD_RANK.with(|r| r.set(rank as i64));
}

/// Remove this thread's rank label.
pub fn clear_thread_rank() {
    THREAD_RANK.with(|r| r.set(NO_RANK));
}

#[inline]
fn push_event(ev: TraceEvent) {
    with_ring(|tid, ring| {
        let mut buf = ring.events.lock().expect("trace ring poisoned");
        if buf.len() >= ring.capacity {
            ring.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            let mut ev = ev;
            ev.tid = tid;
            buf.push(ev);
        }
    });
}

#[inline]
pub(crate) fn record(
    phase: TracePhase,
    stage: &'static str,
    name: &'static str,
    ts_ns: u64,
    dur_ns: u64,
    arg: u64,
) {
    push_event(TraceEvent {
        ts_ns,
        dur_ns,
        name,
        stage,
        phase,
        tid: 0,
        rank: THREAD_RANK.with(|r| r.get()),
        arg,
    });
}

/// Record an instant event (gated; no-op when tracing is off).
#[inline]
pub fn trace_instant(stage: &'static str, name: &'static str, arg: u64) {
    if trace_enabled() {
        record(TracePhase::Instant, stage, name, trace_now_ns(), 0, arg);
    }
}

/// Record a pre-measured complete span (e.g. accumulated non-contiguous
/// time reported as one synthetic interval).
#[inline]
pub fn trace_complete(stage: &'static str, name: &'static str, ts_ns: u64, dur_ns: u64, arg: u64) {
    if trace_enabled() {
        record(TracePhase::Complete, stage, name, ts_ns, dur_ns, arg);
    }
}

/// Everything the rings held at drain time.
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// Events sorted by `(tid, ts_ns)`.
    pub events: Vec<TraceEvent>,
    /// Events lost to full rings across all threads.
    pub dropped: u64,
}

/// Collect and clear every thread's ring. Threads may keep recording after
/// the drain; later events land in the (now empty) rings.
pub fn trace_drain() -> TraceDump {
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in rings().lock().expect("trace ring registry poisoned").iter() {
        let mut buf = ring.events.lock().expect("trace ring poisoned");
        events.append(&mut *buf);
        dropped += ring.dropped.swap(0, Ordering::Relaxed);
    }
    events.sort_by_key(|e| (e.tid, e.ts_ns));
    TraceDump { events, dropped }
}

/// Copy every thread's ring without clearing it — a mid-run view (e.g. to
/// persist a telemetry summary before the final drain exports the full
/// timeline).
pub fn trace_snapshot() -> TraceDump {
    let mut events = Vec::new();
    let mut dropped = 0;
    for ring in rings().lock().expect("trace ring registry poisoned").iter() {
        let buf = ring.events.lock().expect("trace ring poisoned");
        events.extend(buf.iter().copied());
        dropped += ring.dropped.load(Ordering::Relaxed);
    }
    events.sort_by_key(|e| (e.tid, e.ts_ns));
    TraceDump { events, dropped }
}

/// Discard all buffered events and drop counts (tests, repeated runs).
pub fn trace_reset() {
    let _ = trace_drain();
}

const STRING_WRITE: &str = "writing to a String cannot fail";

fn push_us(out: &mut String, ns: u64) {
    // Chrome trace timestamps are microseconds; emit with ns precision.
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

impl TraceDump {
    /// Chrome trace-event JSON (object format), loadable in Perfetto and
    /// `chrome://tracing`. Timestamps and durations are microseconds with
    /// nanosecond decimals; the rank label travels in `args.rank`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 256);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (name, cat) = (json_str(e.name), json_str(e.stage));
            write!(out, "{{\"name\":{name},\"cat\":{cat},\"ph\":\"").expect(STRING_WRITE);
            out.push_str(e.phase.chrome());
            out.push_str("\",\"pid\":1,\"tid\":");
            out.push_str(&e.tid.to_string());
            out.push_str(",\"ts\":");
            push_us(&mut out, e.ts_ns);
            if e.phase == TracePhase::Complete {
                out.push_str(",\"dur\":");
                push_us(&mut out, e.dur_ns);
            }
            if e.phase == TracePhase::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"args\":{");
            let mut first = true;
            if e.rank != NO_RANK {
                out.push_str("\"rank\":");
                out.push_str(&e.rank.to_string());
                first = false;
            }
            if e.arg != 0 {
                if !first {
                    out.push(',');
                }
                out.push_str("\"arg\":");
                out.push_str(&e.arg.to_string());
            }
            out.push_str("}}");
        }
        out.push_str(
            "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"cypress\",\"droppedEvents\":",
        );
        out.push_str(&self.dropped.to_string());
        out.push_str("}}");
        out
    }

    /// Roll the dump up into a per-stage / per-rank wall-time attribution
    /// table. `root` names the outermost `Complete` span covering the whole
    /// run (usually `"total"`).
    pub fn profile(&self, root: &str) -> StageProfile {
        StageProfile::from_dump(self, root)
    }
}

/// Per-stage aggregate of exclusive (self) time.
#[derive(Clone, Debug, Default)]
pub struct StageRow {
    pub stage: String,
    /// Exclusive ns on the root span's thread — sums to wall time.
    pub wall_ns: u64,
    /// Exclusive ns across all threads (CPU time; exceeds wall when
    /// workers run in parallel).
    pub cpu_ns: u64,
    /// Complete spans contributing.
    pub spans: u64,
}

/// Per-(rank, stage) exclusive CPU time.
#[derive(Clone, Debug, Default)]
pub struct RankRow {
    pub rank: i64,
    pub stage: String,
    pub cpu_ns: u64,
}

/// A per-stage / per-rank wall-time attribution table derived from one
/// [`TraceDump`].
///
/// Attribution is **exclusive**: each `Complete` span's duration minus the
/// durations of spans nested inside it on the same thread, so a stack of
/// interp → session → deflate spans attributes each nanosecond exactly
/// once. Coverage is the fraction of the root span's duration attributed
/// to named stages on the root thread (the rest is untraced glue).
#[derive(Clone, Debug, Default)]
pub struct StageProfile {
    /// Root span duration (end-to-end wall time), 0 if the root was absent.
    pub total_ns: u64,
    /// Per-stage rows, descending by wall then cpu time. The root span's
    /// own self-time appears as stage `"(untraced)"`.
    pub stages: Vec<StageRow>,
    /// Per-(rank, stage) rows for rank-labelled spans, rank-major.
    pub ranks: Vec<RankRow>,
    /// Events lost to ring overflow (attribution is partial if nonzero).
    pub dropped: u64,
    /// Stages fed by a span named `…~`: their time is a sampled estimate
    /// (a session's per-push time), and what encloses them holds the rest.
    pub estimated: Vec<String>,
}

impl StageProfile {
    pub fn from_dump(dump: &TraceDump, root: &str) -> StageProfile {
        // Only Complete spans participate in attribution.
        let mut root_span: Option<&TraceEvent> = None;
        for e in &dump.events {
            if e.phase == TracePhase::Complete && e.name == root {
                let better = match root_span {
                    Some(r) => e.dur_ns > r.dur_ns,
                    None => true,
                };
                if better {
                    root_span = Some(e);
                }
            }
        }
        let (total_ns, root_tid) = match root_span {
            Some(r) => (r.dur_ns, r.tid),
            None => (0, u32::MAX),
        };

        use std::collections::BTreeMap;
        let mut wall: BTreeMap<&str, (u64, u64)> = BTreeMap::new(); // stage -> (ns, spans)
        let mut cpu: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let mut by_rank: BTreeMap<(i64, &str), u64> = BTreeMap::new();

        // Per-thread exclusive-time pass. Events are sorted by (tid, ts);
        // within a thread, an interval stack subtracts child durations from
        // the enclosing span.
        let mut i = 0;
        while i < dump.events.len() {
            let tid = dump.events[i].tid;
            let mut j = i;
            while j < dump.events.len() && dump.events[j].tid == tid {
                j += 1;
            }
            let mut spans: Vec<&TraceEvent> = dump.events[i..j]
                .iter()
                .filter(|e| e.phase == TracePhase::Complete)
                .collect();
            // Parents sort before their children: earlier start first, and
            // at equal starts the longer (enclosing) span first.
            spans.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(b.dur_ns.cmp(&a.dur_ns)));
            let mut stack: Vec<(u64, &TraceEvent, u64)> = Vec::new(); // (end, span, child_ns)
            for s in spans {
                while let Some(&(end, done, child_ns)) = stack.last() {
                    if s.ts_ns < end {
                        break;
                    }
                    stack.pop();
                    Self::attribute(
                        done,
                        child_ns,
                        tid,
                        root_tid,
                        &mut wall,
                        &mut cpu,
                        &mut by_rank,
                    );
                    if let Some(top) = stack.last_mut() {
                        top.2 += done.dur_ns;
                    }
                }
                stack.push((s.ts_ns + s.dur_ns, s, 0));
            }
            while let Some((_, done, child_ns)) = stack.pop() {
                Self::attribute(
                    done,
                    child_ns,
                    tid,
                    root_tid,
                    &mut wall,
                    &mut cpu,
                    &mut by_rank,
                );
                if let Some(top) = stack.last_mut() {
                    top.2 += done.dur_ns;
                }
            }
            i = j;
        }

        let mut stages: Vec<StageRow> = cpu
            .iter()
            .map(|(stage, &(cpu_ns, spans))| {
                let (wall_ns, _) = wall.get(stage).copied().unwrap_or((0, 0));
                StageRow {
                    stage: (*stage).to_owned(),
                    wall_ns,
                    cpu_ns,
                    spans,
                }
            })
            .collect();
        stages.sort_by_key(|r| std::cmp::Reverse((r.wall_ns, r.cpu_ns)));

        let mut ranks: Vec<RankRow> = by_rank
            .into_iter()
            .map(|((rank, stage), cpu_ns)| RankRow {
                rank,
                stage: stage.to_owned(),
                cpu_ns,
            })
            .collect();
        ranks.sort_by(|a, b| (a.rank, &a.stage).cmp(&(b.rank, &b.stage)));

        let mut estimated: Vec<String> = dump
            .events
            .iter()
            .filter(|e| e.phase == TracePhase::Complete && e.name.ends_with('~'))
            .map(|e| e.stage.to_owned())
            .collect();
        estimated.sort();
        estimated.dedup();

        StageProfile {
            total_ns,
            stages,
            ranks,
            dropped: dump.dropped,
            estimated,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn attribute<'a>(
        span: &'a TraceEvent,
        child_ns: u64,
        tid: u32,
        root_tid: u32,
        wall: &mut std::collections::BTreeMap<&'a str, (u64, u64)>,
        cpu: &mut std::collections::BTreeMap<&'a str, (u64, u64)>,
        by_rank: &mut std::collections::BTreeMap<(i64, &'a str), u64>,
    ) {
        let self_ns = span.dur_ns.saturating_sub(child_ns);
        // The root "total" span's own self-time is the untraced remainder.
        let stage: &str = if span.stage == "cli" {
            "(untraced)"
        } else {
            span.stage
        };
        let c = cpu.entry(stage).or_insert((0, 0));
        c.0 += self_ns;
        c.1 += 1;
        if tid == root_tid {
            let w = wall.entry(stage).or_insert((0, 0));
            w.0 += self_ns;
            w.1 += 1;
        }
        if span.rank != NO_RANK {
            *by_rank.entry((span.rank, stage)).or_insert(0) += self_ns;
        }
    }

    /// Fraction (0..=1) of the root span's wall time attributed to named
    /// stages on the root thread.
    pub fn coverage(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        let untraced: u64 = self
            .stages
            .iter()
            .filter(|s| s.stage == "(untraced)")
            .map(|s| s.wall_ns)
            .sum();
        1.0 - untraced as f64 / self.total_ns as f64
    }

    /// Exclusive wall ns attributed to one stage on the root thread.
    pub fn wall_of(&self, stage: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.wall_ns)
            .sum()
    }

    fn fmt_ms(ns: u64) -> String {
        format!("{:.3}ms", ns as f64 / 1e6)
    }

    /// `ns` of `stage` for the cpu columns, `~`-prefixed when estimated.
    fn fmt_cpu(&self, stage: &str, ns: u64) -> String {
        let mark = if self.estimated.iter().any(|s| s == stage) {
            "~"
        } else {
            ""
        };
        format!("{mark}{}", Self::fmt_ms(ns))
    }

    /// Aligned attribution table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "stage attribution over {} wall ({} spans",
            Self::fmt_ms(self.total_ns),
            self.stages.iter().map(|s| s.spans).sum::<u64>(),
        ));
        if self.dropped > 0 {
            out.push_str(&format!(", {} events dropped", self.dropped));
        }
        out.push_str(")\n");
        out.push_str(&format!(
            "{:<12} {:>12} {:>7} {:>12} {:>7}\n",
            "stage", "wall", "wall%", "cpu", "spans"
        ));
        for s in &self.stages {
            let pct = if self.total_ns == 0 {
                0.0
            } else {
                s.wall_ns as f64 / self.total_ns as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<12} {:>12} {:>6.1}% {:>12} {:>7}\n",
                s.stage,
                Self::fmt_ms(s.wall_ns),
                pct,
                self.fmt_cpu(&s.stage, s.cpu_ns),
                s.spans
            ));
        }
        out.push_str(&format!(
            "coverage: {:.1}% of wall time attributed\n",
            self.coverage() * 100.0
        ));
        if !self.ranks.is_empty() {
            out.push_str("\nper-rank cpu attribution:\n");
            out.push_str(&format!("{:<6} {:<12} {:>12}\n", "rank", "stage", "cpu"));
            for r in &self.ranks {
                out.push_str(&format!(
                    "{:<6} {:<12} {:>12}\n",
                    r.rank,
                    r.stage,
                    self.fmt_cpu(&r.stage, r.cpu_ns)
                ));
            }
        }
        if !self.estimated.is_empty() {
            out.push_str(
                "~ estimated from timed samples, not measured; the enclosing stage holds the rest\n",
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic_dump() -> TraceDump {
        // Thread 1 (root): total [0, 1000] > ingest [0, 600] > merge
        // [600, 800] > encode [800, 950]; 50ns untraced tail.
        // Thread 2 (rank 0): rank [10, 500] with session [20, 220] inside.
        let ev = |ts, dur, name: &'static str, stage: &'static str, tid, rank| TraceEvent {
            ts_ns: ts,
            dur_ns: dur,
            name,
            stage,
            phase: TracePhase::Complete,
            tid,
            rank,
            arg: 0,
        };
        TraceDump {
            events: vec![
                ev(0, 1000, "total", "cli", 1, NO_RANK),
                ev(0, 600, "ingest", "ingest", 1, NO_RANK),
                ev(600, 200, "merge", "merge", 1, NO_RANK),
                ev(800, 150, "encode", "encode", 1, NO_RANK),
                ev(10, 490, "rank", "interp", 2, 0),
                ev(20, 200, "compress", "session", 2, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn exclusive_attribution_never_double_counts() {
        let p = synthetic_dump().profile("total");
        assert_eq!(p.total_ns, 1000);
        assert_eq!(p.wall_of("ingest"), 600);
        assert_eq!(p.wall_of("merge"), 200);
        assert_eq!(p.wall_of("encode"), 150);
        assert_eq!(p.wall_of("(untraced)"), 50);
        // Worker-thread spans: interp self = 490 - 200 nested session.
        let interp = p.stages.iter().find(|s| s.stage == "interp").unwrap();
        assert_eq!(interp.cpu_ns, 290);
        assert_eq!(interp.wall_ns, 0); // not on the root thread
        let sess = p.stages.iter().find(|s| s.stage == "session").unwrap();
        assert_eq!(sess.cpu_ns, 200);
        assert!((p.coverage() - 0.95).abs() < 1e-9);
        // Rank table carries the same exclusive split.
        assert_eq!(p.ranks.len(), 2);
        assert_eq!(p.ranks[0].cpu_ns, 290);
        assert_eq!(p.ranks[1].cpu_ns, 200);
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let _guard = crate::test_mutex().lock().unwrap();
        set_trace_enabled(false);
        trace_reset();
        trace_instant("t", "noop", 1);
        drop(crate::trace_span("t", "noop"));
        assert!(trace_drain().events.is_empty());
    }

    #[test]
    fn span_records_complete_event_with_rank() {
        let _guard = crate::test_mutex().lock().unwrap();
        trace_reset();
        set_trace_enabled(true);
        set_thread_rank(7);
        {
            let _s = crate::trace_span("stage-a", "work").arg(42);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        trace_instant("stage-a", "tick", 3);
        clear_thread_rank();
        set_trace_enabled(false);
        let dump = trace_drain();
        assert_eq!(dump.events.len(), 2);
        let span = &dump.events[0];
        assert_eq!(span.phase, TracePhase::Complete);
        assert_eq!(span.name, "work");
        assert_eq!(span.rank, 7);
        assert_eq!(span.arg, 42);
        assert!(span.dur_ns >= 1_000_000);
        assert_eq!(dump.events[1].phase, TracePhase::Instant);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let _guard = crate::test_mutex().lock().unwrap();
        trace_reset();
        set_trace_enabled(true);
        // Overfill from a dedicated thread so this test cannot starve
        // other tests' rings of capacity.
        let dump = std::thread::spawn(|| {
            let cap = ring_capacity();
            for _ in 0..cap + 10 {
                trace_instant("t", "spam", 0);
            }
            trace_drain()
        })
        .join()
        .unwrap();
        set_trace_enabled(false);
        assert!(dump.dropped >= 10, "dropped {}", dump.dropped);
        assert!(dump.events.len() <= ring_capacity() + 16);
    }

    #[test]
    fn chrome_export_shape() {
        let dump = synthetic_dump();
        let json = dump.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"args\":{\"rank\":0}"));
        assert!(json.contains("\"droppedEvents\":0"));
        // 1000 ns root span = 1.000 us.
        assert!(json.contains("\"dur\":1.000"));
    }
}
