//! Streaming compression sessions.
//!
//! The paper's PMPI layer compresses *online*: every traced call lands in
//! the CTT immediately and only the finished per-process trees are merged at
//! `MPI_Finalize` (§IV, Fig. 13). [`CompressSession`] is that layer as a
//! first-class object: a per-rank [`IntraCompressor`] plus the accounting a
//! long-running tracer needs — **periodic CTT size checkpoints** (every
//! [`SessionConfig::checkpoint_every`] events the live footprint is sampled
//! and the peak retained), the Fig. 16 "flat compressor memory" claim
//! measured continuously instead of once at the end.
//!
//! A session holds **bounded memory**: the CTT plus O(open-structures)
//! bookkeeping, never the raw event stream. Feeding a session during
//! execution produces a byte-identical CTT to offline
//! [`compress_trace`](crate::compress::compress_trace) on a recorded trace
//! (pinned by `online_sink_equals_offline_compression` and
//! `tests/streaming.rs` in the umbrella crate).
//!
//! The raw trace's size ([`SessionStats::raw_mpi_bytes`]) is counted by
//! the compressor, per record it opens, not per event here: a record that
//! folds has the raw parameters of the record it folds into, so it needs no
//! varint sizing of them.

use crate::compress::{CompressConfig, IntraCompressor};
use crate::ctt::Ctt;
use cypress_cst::Cst;
use cypress_obs::{Counter, Gauge};
use cypress_trace::event::{Event, EventSink};

// Scope `session`, aggregated across all concurrently live sessions in the
// process.
/// Sessions opened.
static OPENED: Counter = Counter::new("session", "opened");
/// Sessions finished into a CTT.
static FINISHED: Counter = Counter::new("session", "finished");
/// Events streamed through finished sessions.
static EVENTS: Counter = Counter::new("session", "events");
/// Size checkpoints taken.
static CHECKPOINTS: Counter = Counter::new("session", "checkpoints");
/// High-water live CTT footprint over all sessions.
static PEAK_CTT_BYTES: Gauge = Gauge::new("session", "peak_ctt_bytes");

/// With the timeline on, [`CompressSession::push`] times one push in this
/// many (prime, so the samples do not lock onto a loop body's period).
const SAMPLE_STRIDE: u32 = 61;
/// A timed push longer than this was pre-empted, not slow: count it as this.
const SAMPLE_CAP_NS: u64 = 20_000;

/// Streaming-session knobs (orthogonal to [`CompressConfig`], which shapes
/// the compression itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Sample the live CTT footprint every this many events. A sample reads
    /// the compressor's running total in O(1); the cadence sets how finely
    /// the peak is resolved.
    pub checkpoint_every: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            checkpoint_every: 4096,
        }
    }
}

/// Progress and footprint accounting of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Total events pushed (structure markers + MPI records).
    pub events: u64,
    /// MPI records among them.
    pub mpi_events: u64,
    /// Serialized size of the raw MPI records streamed through the session
    /// — the "uncompressed trace" numerator of the container's compression
    /// ratio, accounted online so it never requires keeping the raw trace.
    /// The compressor counts it (`IntraCompressor::raw_bytes`): a record
    /// that opens a leaf record is sized field by field, and one that folds
    /// into it adds that size's untimed part plus its two timestamps, since
    /// a fold's raw parameters are those of the record it folds into.
    pub raw_mpi_bytes: u64,
    /// Size checkpoints taken.
    pub checkpoints: u64,
    /// Largest live CTT footprint observed at any checkpoint (or finish).
    pub peak_ctt_bytes: usize,
    /// Live CTT footprint at finish.
    pub final_ctt_bytes: usize,
}

/// A per-rank online compression session. Feed events with
/// [`CompressSession::push`] (or via [`EventSink`]), then call
/// [`CompressSession::finish`] to obtain the CTT and the session stats.
///
/// **Timeline.** The session's work interleaves with the interpreter on the
/// same thread, so `finish` emits one synthetic `Complete` span of the
/// *accumulated* session time, anchored at the first timed entry — it nests
/// inside the enclosing rank span and splits interpreter from session time.
/// `push_batch` and `finish` are timed exactly. Per-event `push` is
/// **estimated** (the span is then named `compress~`): one push in
/// [`SAMPLE_STRIDE`] is timed, each sample less the cost of a clock read
/// (priced by a back-to-back read right after it) and capped at
/// [`SAMPLE_CAP_NS`], and the estimate is the mean sample × the number of
/// pushes. Sum of samples × stride is not usable: every sample carries a
/// clock read, and one pre-empted sample would be multiplied by the stride.
pub struct CompressSession<'a> {
    inner: IntraCompressor<'a>,
    stats: SessionStats,
    /// Events between periodic checkpoints (at least 1), and until the next.
    cadence: u64,
    until_checkpoint: u64,
    /// Pushes until the next timed one.
    until_sample: u32,
    /// Events that arrived through `push_batch`.
    batched: u64,
    /// Start of the first timed entry, the anchor of the synthetic span.
    trace_first_ns: Option<u64>,
    /// Exactly measured ns inside `push_batch`.
    trace_exact_ns: u64,
    /// Timed pushes, and their summed (corrected, capped) ns.
    samples: u64,
    sample_ns: u64,
}

impl<'a> CompressSession<'a> {
    pub fn new(
        cst: &'a Cst,
        rank: u32,
        nprocs: u32,
        compress: CompressConfig,
        cfg: SessionConfig,
    ) -> Self {
        OPENED.inc();
        let cadence = cfg.checkpoint_every.max(1);
        CompressSession {
            inner: IntraCompressor::new(cst, rank, nprocs, compress),
            stats: SessionStats::default(),
            cadence,
            until_checkpoint: cadence,
            until_sample: SAMPLE_STRIDE,
            batched: 0,
            trace_first_ns: None,
            trace_exact_ns: 0,
            samples: 0,
            sample_ns: 0,
        }
    }

    #[inline]
    fn trace_start(&mut self) -> Option<u64> {
        if !cypress_obs::trace_enabled() {
            return None;
        }
        let now = cypress_obs::trace_now_ns();
        self.trace_first_ns.get_or_insert(now);
        Some(now)
    }

    /// Feed one event; periodically samples the live footprint.
    pub fn push(&mut self, ev: &Event) {
        self.until_sample -= 1;
        if self.until_sample == 0 {
            self.until_sample = SAMPLE_STRIDE;
            if cypress_obs::trace_enabled() {
                return self.push_timed(ev);
            }
        }
        self.ingest(ev);
    }

    /// One sample of the per-push estimate (see the type docs).
    #[cold]
    fn push_timed(&mut self, ev: &Event) {
        use cypress_obs::trace_now_ns as now;
        let t0 = now();
        self.trace_first_ns.get_or_insert(t0);
        self.ingest(ev);
        let t1 = now();
        // A second, back-to-back read prices the clock itself, warm and on
        // this core: what the first pair measured beyond it is the push.
        let clock = now().saturating_sub(t1);
        let push = t1.saturating_sub(t0).saturating_sub(clock);
        self.sample_ns += push.min(SAMPLE_CAP_NS);
        self.samples += 1;
    }

    /// Feed a batch of events: exactly `push` on each, in order, so
    /// footprint sampling and stats land on the same event indices — with
    /// the timeline bookkeeping paid once per batch.
    pub fn push_batch(&mut self, evs: &[Event]) {
        let t0 = self.trace_start();
        for ev in evs {
            self.ingest(ev);
        }
        self.batched += evs.len() as u64;
        if let Some(t0) = t0 {
            self.trace_exact_ns += cypress_obs::trace_now_ns().saturating_sub(t0);
        }
    }

    fn ingest(&mut self, ev: &Event) {
        self.inner.push(ev);
        self.stats.events += 1;
        if let Event::Mpi(_) = ev {
            self.stats.mpi_events += 1;
        }
        self.until_checkpoint -= 1;
        if self.until_checkpoint == 0 {
            self.until_checkpoint = self.cadence;
            self.checkpoint();
        }
    }

    /// Sample the live CTT footprint now; returns the sampled byte count.
    pub fn checkpoint(&mut self) -> usize {
        let bytes = self.inner.approx_bytes();
        self.stats.checkpoints += 1;
        self.stats.peak_ctt_bytes = self.stats.peak_ctt_bytes.max(bytes);
        cypress_obs::trace_instant("session", "checkpoint", bytes as u64);
        bytes
    }

    /// Accounting so far (peak bytes reflect the last checkpoint).
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            raw_mpi_bytes: self.inner.raw_bytes(),
            ..self.stats
        }
    }

    /// Close the session: flush deferred wildcard receives, close open
    /// structures, and return the per-process CTT plus final stats. The
    /// `session` metrics are flushed here, once, from the stats.
    pub fn finish(mut self, app_time: u64) -> (Ctt, SessionStats) {
        let t0 = self.trace_start();
        let bytes = self.checkpoint();
        self.stats.final_ctt_bytes = bytes;
        self.stats.raw_mpi_bytes = self.inner.raw_bytes();
        FINISHED.inc();
        EVENTS.add(self.stats.events);
        CHECKPOINTS.add(self.stats.checkpoints);
        PEAK_CTT_BYTES.set_max(self.stats.peak_ctt_bytes as i64);
        let ctt = self.inner.finish(app_time);
        if let (Some(t0), Some(first)) = (t0, self.trace_first_ns) {
            let now = cypress_obs::trace_now_ns();
            let pushes = self.stats.events - self.batched;
            let estimate = self.sample_ns as u128 * pushes as u128 / self.samples.max(1) as u128;
            // Never longer than the wall since the anchor, or the span
            // would stick out of the rank span it nests in.
            let active = (self.trace_exact_ns + now.saturating_sub(t0))
                .saturating_add(estimate as u64)
                .min(now.saturating_sub(first));
            let name = if self.samples > 0 {
                "compress~"
            } else {
                "compress"
            };
            cypress_obs::trace_complete("session", name, first, active, self.stats.events);
        }
        (ctt, self.stats)
    }
}

impl EventSink for CompressSession<'_> {
    fn event(&mut self, ev: Event) {
        self.push(&ev);
    }

    fn events(&mut self, evs: &[Event]) {
        self.push_batch(evs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress_trace;
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{run_rank_with_sink, trace_program, InterpConfig};

    const RING: &str = r#"fn main() {
        for k in 0..200 {
            let a = isend((rank() + 1) % size(), 256, 0);
            let b = irecv((rank() + size() - 1) % size(), 256, 0);
            waitall(a, b);
        }
        allreduce(8);
    }"#;

    #[test]
    fn session_equals_offline_compression() {
        let p = parse(RING).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, 4, &InterpConfig::default()).unwrap();
        for rank in 0..4u32 {
            let mut s = CompressSession::new(
                &info.cst,
                rank,
                4,
                CompressConfig::default(),
                SessionConfig::default(),
            );
            let app_time =
                run_rank_with_sink(&p, &info, rank, 4, &InterpConfig::default(), &mut s).unwrap();
            let (ctt, stats) = s.finish(app_time);
            let trace = &traces[rank as usize];
            let offline = compress_trace(&info.cst, trace, &CompressConfig::default());
            assert_eq!(ctt, offline, "rank {rank}");
            assert_eq!(stats.events as usize, trace.events.len());
            assert_eq!(stats.mpi_events as usize, trace.mpi_count());
        }
    }

    /// The cadence is a countdown, not `events % cadence`: checkpoints must
    /// still land on the same event indices, however the events arrive.
    #[test]
    fn checkpoints_land_on_every_cadence_multiple_by_push_and_by_batch() {
        let p = parse(RING).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let trace = &trace_program(&p, &info, 2, &InterpConfig::default()).unwrap()[0];
        for checkpoint_every in [0, 1, 16, 4096] {
            let session = || {
                let cfg = SessionConfig { checkpoint_every };
                CompressSession::new(&info.cst, 0, 2, CompressConfig::default(), cfg)
            };
            let mut pushed = session();
            for ev in &trace.events {
                pushed.push(ev);
            }
            let (_, pushed) = pushed.finish(trace.app_time);
            let mut batched = session();
            for chunk in trace.events.chunks(7) {
                batched.push_batch(chunk);
            }
            let (_, batched) = batched.finish(trace.app_time);

            let cadence = checkpoint_every.max(1);
            assert_eq!(pushed.events, trace.events.len() as u64);
            // The `+ 1` is `finish`.
            assert_eq!(
                pushed.checkpoints,
                pushed.events / cadence + 1,
                "cadence {checkpoint_every}"
            );
            assert_eq!(
                (batched.checkpoints, batched.peak_ctt_bytes),
                (pushed.checkpoints, pushed.peak_ctt_bytes),
                "cadence {checkpoint_every}: push_batch in chunks of 7 against push"
            );
        }
    }

    #[test]
    fn checkpoints_track_peak_footprint() {
        let p = parse(RING).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let mut s = CompressSession::new(
            &info.cst,
            0,
            2,
            CompressConfig::default(),
            SessionConfig {
                checkpoint_every: 16,
            },
        );
        let app_time =
            run_rank_with_sink(&p, &info, 0, 2, &InterpConfig::default(), &mut s).unwrap();
        let (_, stats) = s.finish(app_time);
        assert!(stats.checkpoints > 10, "got {}", stats.checkpoints);
        assert!(stats.peak_ctt_bytes > 0);
        assert!(stats.final_ctt_bytes <= stats.peak_ctt_bytes);
        // 200 identical iterations stream through bounded memory: far below
        // one record per iteration.
        assert!(
            stats.peak_ctt_bytes < 16 * 1024,
            "CTT footprint should stay flat, got {}",
            stats.peak_ctt_bytes
        );
    }
}
