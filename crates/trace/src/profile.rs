//! mpiP-style statistical communication profiles.
//!
//! The paper's related work contrasts trace compression against statistical
//! profilers (mpiP \[28\]), which keep aggregate numbers instead of event
//! sequences. This module computes those aggregates from traces — and,
//! because CYPRESS decompression is sequence-preserving, the same profile
//! can be recovered from a compressed trace, subsuming what a profiler
//! would have collected.

use crate::codec::{Codec, Cursor, Encoder};
use crate::event::{MpiOp, MpiRecord};
use crate::raw::RawTrace;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Aggregate statistics for one operation type.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpStats {
    pub calls: u64,
    pub total_bytes: u64,
    pub total_time_ns: u64,
    pub min_time_ns: u64,
    pub max_time_ns: u64,
}

impl OpStats {
    /// Accumulate `times` calls that each moved `bytes` and lasted `dur` —
    /// exactly equivalent to `times` individual `add` calls, in O(1). This
    /// is how the compressed-domain query engine folds a merged leaf record
    /// (count × identical parameters, mean duration) without expansion.
    /// Products and sums saturate, since a record may claim any count.
    pub fn add_repeated(&mut self, bytes: i64, dur: u64, times: u64) {
        if times == 0 {
            return;
        }
        if self.calls == 0 {
            self.min_time_ns = dur;
        }
        self.calls = self.calls.saturating_add(times);
        let volume = (bytes.max(0) as u64).saturating_mul(times);
        self.total_bytes = self.total_bytes.saturating_add(volume);
        let time = dur.saturating_mul(times);
        self.total_time_ns = self.total_time_ns.saturating_add(time);
        self.min_time_ns = self.min_time_ns.min(dur);
        self.max_time_ns = self.max_time_ns.max(dur);
    }

    pub fn mean_time_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_time_ns as f64 / self.calls as f64
        }
    }
}

/// A whole-job statistical profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Per-op aggregates over all ranks.
    pub by_op: BTreeMap<MpiOp, OpStats>,
    /// Per-rank MPI time (ns).
    pub rank_mpi_time: Vec<u64>,
    /// Per-rank application time (ns).
    pub rank_app_time: Vec<u64>,
    /// Message-size histogram: power-of-two buckets, bucket i (≥1) counts
    /// messages with `2^(i-1) ≤ bytes < 2^i`; bucket 0 counts empty
    /// messages.
    pub size_buckets: Vec<u64>,
}

/// Σ `xs`, pinned at `u64::MAX`: the addends may come from a peer.
pub(crate) fn saturating_sum(xs: &[u64]) -> u64 {
    xs.iter().fold(0, |a, &b| a.saturating_add(b))
}

/// Power-of-two message-size bucket index: 0 for empty messages, otherwise
/// `i` such that `2^(i-1) ≤ bytes < 2^i`, saturating at 39.
pub fn size_bucket(bytes: u64) -> usize {
    if bytes == 0 {
        0
    } else {
        ((64 - bytes.leading_zeros()) as usize).min(39)
    }
}

impl Profile {
    /// An empty profile dimensioned for `nprocs` ranks, ready for
    /// accumulation via [`Profile::add_record`] / [`Profile::add_repeated`].
    pub fn new(nprocs: usize) -> Profile {
        Profile {
            rank_mpi_time: vec![0; nprocs],
            rank_app_time: vec![0; nprocs],
            size_buckets: vec![0; 40],
            ..Profile::default()
        }
    }

    /// Record a rank's total application time.
    pub fn set_app_time(&mut self, rank: usize, app_time: u64) {
        if rank < self.rank_app_time.len() {
            self.rank_app_time[rank] = app_time;
        }
    }

    /// Accumulate `times` identical calls on `rank` — the O(1) bulk path
    /// used when folding merged leaf records; equivalent to `times`
    /// single-record additions.
    pub fn add_repeated(&mut self, rank: usize, op: MpiOp, bytes: i64, dur: u64, times: u64) {
        if times == 0 {
            return;
        }
        self.by_op
            .entry(op)
            .or_default()
            .add_repeated(bytes, dur, times);
        if let Some(t) = self.rank_mpi_time.get_mut(rank) {
            *t = t.saturating_add(dur.saturating_mul(times));
        }
        let bucket = &mut self.size_buckets[size_bucket(bytes.max(0) as u64)];
        *bucket = bucket.saturating_add(times);
    }

    /// Accumulate one raw record emitted by `rank`.
    pub fn add_record(&mut self, rank: usize, rec: &MpiRecord) {
        self.add_repeated(rank, rec.op, rec.params.count, rec.dur, 1);
    }

    /// Accumulate an event stream from `rank` — the iterator-based entry
    /// point shared by owned traces, decompressed replays, and streamed
    /// partial expansions.
    pub fn add_rank_events<'a>(&mut self, rank: usize, recs: impl Iterator<Item = &'a MpiRecord>) {
        for rec in recs {
            self.add_record(rank, rec);
        }
    }

    /// Build a profile from per-rank traces.
    pub fn from_traces(traces: &[RawTrace]) -> Profile {
        let mut p = Profile::new(traces.len());
        for t in traces {
            p.set_app_time(t.rank as usize, t.app_time);
            p.add_rank_events(t.rank as usize, t.mpi_records());
        }
        p
    }

    /// Total MPI calls.
    pub fn total_calls(&self) -> u64 {
        self.by_op
            .values()
            .fold(0, |a, s| a.saturating_add(s.calls))
    }

    /// Aggregate MPI time fraction of aggregate app time.
    pub fn mpi_fraction(&self) -> f64 {
        let app = saturating_sum(&self.rank_app_time);
        if app == 0 {
            return 0.0;
        }
        saturating_sum(&self.rank_mpi_time) as f64 / app as f64
    }

    /// Load-imbalance ratio: max rank MPI time / mean rank MPI time.
    pub fn imbalance(&self) -> f64 {
        if self.rank_mpi_time.is_empty() {
            return 1.0;
        }
        let max = *self.rank_mpi_time.iter().max().expect("non-empty") as f64;
        let mean = saturating_sum(&self.rank_mpi_time) as f64 / self.rank_mpi_time.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Render an mpiP-flavoured text report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "MPI operation profile ({} ranks)",
            self.rank_app_time.len()
        )
        .unwrap();
        writeln!(
            out,
            "{:<14} {:>10} {:>14} {:>12} {:>10}",
            "op", "calls", "bytes", "time(ms)", "mean(us)"
        )
        .unwrap();
        for (op, s) in &self.by_op {
            writeln!(
                out,
                "{:<14} {:>10} {:>14} {:>12.3} {:>10.2}",
                op.name(),
                s.calls,
                s.total_bytes,
                s.total_time_ns as f64 / 1e6,
                s.mean_time_ns() / 1e3
            )
            .unwrap();
        }
        writeln!(
            out,
            "\nMPI time: {:.2}% of app time; imbalance (max/mean): {:.2}",
            self.mpi_fraction() * 100.0,
            self.imbalance()
        )
        .unwrap();
        out
    }
}

impl Codec for OpStats {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.calls);
        enc.put_uvar(self.total_bytes);
        enc.put_uvar(self.total_time_ns);
        enc.put_uvar(self.min_time_ns);
        enc.put_uvar(self.max_time_ns);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(OpStats {
            calls: cur.uvar()?,
            total_bytes: cur.uvar()?,
            total_time_ns: cur.uvar()?,
            min_time_ns: cur.uvar()?,
            max_time_ns: cur.uvar()?,
        })
    }
}

impl Codec for Profile {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(&self.by_op, |enc, (op, s)| {
            enc.put_u8(op.code());
            s.encode(enc);
        });
        for v in [&self.rank_mpi_time, &self.rank_app_time, &self.size_buckets] {
            enc.put_seq(v, |enc, x| enc.put_uvar(*x));
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let by_op = cur.seq("profile ops", |cur| {
            let code = cur.u8()?;
            let Some(op) = MpiOp::from_code(code) else {
                return cur.refuse(code as u64, |c| {
                    format!("unknown MPI op code {c} in profile")
                });
            };
            Some((op, OpStats::decode(cur)?))
        })?;
        Some(Profile {
            by_op: by_op.into_iter().collect(),
            rank_mpi_time: cur.seq("rank_mpi_time", Cursor::uvar)?,
            rank_app_time: cur.seq("rank_app_time", Cursor::uvar)?,
            size_buckets: cur.seq("size_buckets", Cursor::uvar)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, MpiParams, MpiRecord};

    fn trace_with(rank: u32, recs: Vec<(MpiOp, i64, u64)>) -> RawTrace {
        let mut t = RawTrace::new(rank, 2);
        t.app_time = 1_000_000;
        let mut clock = 0;
        for (op, bytes, dur) in recs {
            t.events.push(Event::Mpi(MpiRecord {
                gid: 1,
                op,
                params: MpiParams::send(0, bytes, 0),
                t_start: clock,
                dur,
            }));
            clock += dur;
        }
        t
    }

    #[test]
    fn aggregates_per_op() {
        let traces = vec![
            trace_with(0, vec![(MpiOp::Send, 100, 10), (MpiOp::Send, 200, 30)]),
            trace_with(1, vec![(MpiOp::Recv, 100, 20)]),
        ];
        let p = Profile::from_traces(&traces);
        assert_eq!(p.total_calls(), 3);
        let s = &p.by_op[&MpiOp::Send];
        assert_eq!(s.calls, 2);
        assert_eq!(s.total_bytes, 300);
        assert_eq!(s.min_time_ns, 10);
        assert_eq!(s.max_time_ns, 30);
        assert!((s.mean_time_ns() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mpi_fraction_and_imbalance() {
        let traces = vec![
            trace_with(0, vec![(MpiOp::Send, 8, 100_000)]),
            trace_with(1, vec![(MpiOp::Recv, 8, 300_000)]),
        ];
        let p = Profile::from_traces(&traces);
        assert!((p.mpi_fraction() - 0.2).abs() < 1e-9); // 400k of 2M
        assert!((p.imbalance() - 1.5).abs() < 1e-9); // 300k / 200k
    }

    #[test]
    fn size_buckets_power_of_two() {
        let traces = vec![trace_with(
            0,
            vec![
                (MpiOp::Send, 0, 1),
                (MpiOp::Send, 1, 1),
                (MpiOp::Send, 1024, 1),
                (MpiOp::Send, 1025, 1),
            ],
        )];
        let p = Profile::from_traces(&traces);
        assert_eq!(p.size_buckets[0], 1); // empty
        assert_eq!(p.size_buckets[1], 1); // 1 byte
        assert_eq!(p.size_buckets[11], 2); // 1024 and 1025 share [1024, 2048)
    }

    #[test]
    fn report_contains_rows() {
        let traces = vec![trace_with(0, vec![(MpiOp::Barrier, 0, 5)])];
        let r = Profile::from_traces(&traces).report();
        assert!(r.contains("MPI_Barrier"));
        assert!(r.contains("imbalance"));
    }

    #[test]
    fn codec_roundtrip() {
        let traces = vec![
            trace_with(0, vec![(MpiOp::Send, 100, 10), (MpiOp::Send, 200, 30)]),
            trace_with(1, vec![(MpiOp::Recv, 100, 20)]),
        ];
        let p = Profile::from_traces(&traces);
        let bytes = p.to_bytes();
        assert_eq!(Profile::from_bytes(&bytes).unwrap(), p);

        let empty = Profile::from_traces(&[]);
        assert_eq!(Profile::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn empty_profile_is_sane() {
        let p = Profile::from_traces(&[]);
        assert_eq!(p.total_calls(), 0);
        assert_eq!(p.mpi_fraction(), 0.0);
        assert_eq!(p.imbalance(), 1.0);
    }
}
