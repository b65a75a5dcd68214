//! Streaming compression sessions.
//!
//! The paper's PMPI layer compresses *online*: every traced call lands in
//! the CTT immediately and only the finished per-process trees are merged at
//! `MPI_Finalize` (§IV, Fig. 13). [`CompressSession`] is that layer as a
//! first-class object: a per-rank [`IntraCompressor`] plus the accounting a
//! long-running tracer needs —
//!
//! * **periodic CTT size checkpoints** (every [`SessionConfig::checkpoint_every`]
//!   events the live footprint is sampled and the peak retained), the
//!   Fig. 16 "flat compressor memory" claim measured continuously instead of
//!   once at the end;
//! * **backpressure accounting** against an optional soft byte budget —
//!   a real deployment would throttle or spill when the CTT outgrows its
//!   arena; we count the violations so schedulers can react.
//!
//! A session holds **bounded memory**: the CTT plus O(open-structures)
//! bookkeeping, never the raw event stream. Feeding a session during
//! execution produces a byte-identical CTT to offline
//! [`compress_trace`](crate::compress::compress_trace) on a recorded trace
//! (pinned by `online_sink_equals_offline_compression` and the
//! streaming-vs-batch suite in the umbrella crate).

use crate::compress::{CompressConfig, IntraCompressor};
use crate::ctt::Ctt;
use cypress_cst::Cst;
use cypress_obs::{Counter, Gauge};
use cypress_trace::event::{Event, EventSink};
use std::sync::OnceLock;

/// Session instrumentation handles (scope `session`), aggregated across all
/// concurrently live sessions in the process.
struct SessionMetrics {
    /// Sessions opened.
    opened: Counter,
    /// Sessions finished into a CTT.
    finished: Counter,
    /// Events streamed through sessions.
    events: Counter,
    /// Size checkpoints taken.
    checkpoints: Counter,
    /// High-water live CTT footprint over all sessions.
    peak_ctt_bytes: Gauge,
}

fn obs() -> &'static SessionMetrics {
    static M: OnceLock<SessionMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let s = cypress_obs::scope("session");
        SessionMetrics {
            opened: s.counter("opened"),
            finished: s.counter("finished"),
            events: s.counter("events"),
            checkpoints: s.counter("checkpoints"),
            peak_ctt_bytes: s.gauge("peak_ctt_bytes"),
        }
    })
}

/// Streaming-session knobs (orthogonal to [`CompressConfig`], which shapes
/// the compression itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// Sample the live CTT footprint every this many events. Sampling walks
    /// the vertex data (O(vertices)), so it is periodic rather than
    /// per-event.
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
pub struct CompressSession<'a> {
    inner: IntraCompressor<'a>,
    cfg: SessionConfig,
    stats: SessionStats,
    /// Timeline-trace accumulator: first push timestamp and total ns spent
    /// inside the session (push/push_batch/checkpoint). The session's work
    /// interleaves with the interpreter on the same thread, so at finish we
    /// emit one synthetic `Complete` span of the *accumulated* duration
    /// anchored at the first push — it nests inside the enclosing rank span
    /// and splits interpreter-vs-session time exactly.
    trace_first_ns: Option<u64>,
    trace_accum_ns: u64,
}

impl<'a> CompressSession<'a> {
    pub fn new(
        cst: &'a Cst,
        rank: u32,
        nprocs: u32,
        compress: CompressConfig,
        cfg: SessionConfig,
    ) -> Self {
        if cypress_obs::enabled() {
            obs().opened.inc();
        }
        CompressSession {
            inner: IntraCompressor::new(cst, rank, nprocs, compress),
            cfg,
            stats: SessionStats::default(),
            trace_first_ns: None,
            trace_accum_ns: 0,
        }
    }

    #[inline]
    fn trace_start(&mut self) -> Option<u64> {
        if cypress_obs::trace_enabled() {
            let now = cypress_obs::trace_now_ns();
            if self.trace_first_ns.is_none() {
                self.trace_first_ns = Some(now);
            }
            Some(now)
        } else {
            None
        }
    }

    #[inline]
    fn trace_stop(&mut self, t0: Option<u64>) {
        if let Some(t0) = t0 {
            self.trace_accum_ns += cypress_obs::trace_now_ns().saturating_sub(t0);
        }
    }

    /// Feed one event; periodically samples the live footprint.
    pub fn push(&mut self, ev: &Event) {
        let t0 = self.trace_start();
        self.ingest(ev);
        self.trace_stop(t0);
    }

    /// Feed a batch of events: exactly `push` on each, in order, so
    /// footprint sampling, budget accounting, and stats land on the same
    /// event indices — with the timeline bookkeeping paid once per batch.
    pub fn push_batch(&mut self, evs: &[Event]) {
        let t0 = self.trace_start();
        for ev in evs {
            self.ingest(ev);
        }
        self.trace_stop(t0);
    }

    fn ingest(&mut self, ev: &Event) {
        self.inner.push(ev);
        self.stats.events += 1;
        if let Event::Mpi(rec) = ev {
            self.stats.mpi_events += 1;
            // Arithmetic varint sizing — the raw-trace numerator without
            // serializing each record into a scratch buffer.
            self.stats.raw_mpi_bytes += rec.encoded_len() as u64;
        }
        if self
            .stats
            .events
            .is_multiple_of(self.cfg.checkpoint_every.max(1))
        {
            self.checkpoint();
        }
    }

    /// Sample the live CTT footprint now; returns the sampled byte count.
    pub fn checkpoint(&mut self) -> usize {
        let bytes = self.inner.approx_bytes();
        self.stats.checkpoints += 1;
        self.stats.peak_ctt_bytes = self.stats.peak_ctt_bytes.max(bytes);
        if cypress_obs::enabled() {
            let m = obs();
            m.checkpoints.inc();
            m.peak_ctt_bytes.set_max(bytes as i64);
        }
        cypress_obs::trace_instant("session", "checkpoint", bytes as u64);
        bytes
    }

    /// Accounting so far (peak bytes reflect the last checkpoint).
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Current live CTT footprint (without recording a checkpoint).
    pub fn live_bytes(&self) -> usize {
        self.inner.approx_bytes()
    }

    /// Close the session: flush deferred wildcard receives, close open
    /// structures, and return the per-process CTT plus final stats.
    pub fn finish(mut self, app_time: u64) -> (Ctt, SessionStats) {
        let t0 = self.trace_start();
        let bytes = self.checkpoint();
        self.stats.final_ctt_bytes = bytes;
        if cypress_obs::enabled() {
            let m = obs();
            m.finished.inc();
            m.events.add(self.stats.events);
        }
        let ctt = self.inner.finish(app_time);
        if let Some(t0) = t0 {
            self.trace_accum_ns += cypress_obs::trace_now_ns().saturating_sub(t0);
        }
        if let Some(first) = self.trace_first_ns {
            // One synthetic span for the whole session: accumulated active
            // time anchored at the first push (see the field docs).
            cypress_obs::trace_complete(
                "session",
                "compress",
                first,
                self.trace_accum_ns,
                self.stats.events,
            );
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
    use cypress_runtime::{run_rank_with_sink, trace_rank, InterpConfig};

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
            let trace = trace_rank(&p, &info, rank, 4, &InterpConfig::default()).unwrap();
            let offline = compress_trace(&info.cst, &trace, &CompressConfig::default());
            assert_eq!(ctt, offline, "rank {rank}");
            assert_eq!(stats.events as usize, trace.events.len());
            assert_eq!(stats.mpi_events as usize, trace.mpi_count());
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
