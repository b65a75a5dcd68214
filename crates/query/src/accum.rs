//! The shared accumulator every evaluation path feeds.
//!
//! Symbolic folds call [`Accum::add`] once per (rank, merged record) with
//! `times = record.count`; partial expansion and the decompress-then-analyze
//! reference call it once per replayed event with `times = 1`. Because all
//! supported queries are multiset aggregates, routing both through one code
//! path makes "compressed-domain result equals decompressed result" a
//! property of the evaluation order alone — and the accumulation arithmetic
//! (`CommMatrix::add_send`, `Profile::add_repeated`) is the same code the
//! raw-trace builders use, so all three worlds agree by construction.

use crate::hotspot::HotSpot;
use crate::{QueryResult, RankTotals, StrategyUsed};
use cypress_core::ReplayOp;
use cypress_cst::Cst;
use cypress_trace::{CommMatrix, MpiOp, Profile};

#[derive(Clone, Copy, Default)]
struct GidAcc {
    calls: u64,
    bytes: u64,
}

pub(crate) struct Accum {
    nprocs: u32,
    matrix: CommMatrix,
    profile: Profile,
    totals: Vec<RankTotals>,
    /// Indexed by CST GID.
    by_gid: Vec<GidAcc>,
}

impl Accum {
    pub fn new(nprocs: u32, n_vertices: usize) -> Accum {
        Accum {
            nprocs,
            matrix: CommMatrix::new(nprocs as usize),
            profile: Profile::new(nprocs as usize),
            totals: vec![RankTotals::default(); nprocs as usize],
            by_gid: vec![GidAcc::default(); n_vertices],
        }
    }

    pub fn set_app_time(&mut self, rank: u32, app_time: u64) {
        self.profile.set_app_time(rank as usize, app_time);
    }

    /// Accumulate `times` identical calls made by `rank` at CST vertex
    /// `gid`. `dest` is the already-resolved absolute destination rank
    /// (negative for wildcards/inapplicable); `count`/`rcount` are the
    /// posted element counts; `dur` the per-call duration. Every product
    /// and sum saturates: a peer's record may claim any count.
    #[allow(clippy::too_many_arguments)]
    pub fn add(
        &mut self,
        rank: u32,
        gid: u32,
        op: MpiOp,
        dest: i64,
        count: i64,
        rcount: i64,
        dur: u64,
        times: u64,
    ) {
        if times == 0 {
            return;
        }
        self.profile
            .add_repeated(rank as usize, op, count, dur, times);
        let volume = |n: i64| (n.max(0) as u64).saturating_mul(times);
        if let Some(t) = self.totals.get_mut(rank as usize) {
            t.calls = t.calls.saturating_add(times);
            if op.is_send_like() {
                t.send_bytes = t.send_bytes.saturating_add(volume(count));
            }
            if op.is_recv_like() {
                let posted = if op == MpiOp::Sendrecv { rcount } else { count };
                t.recv_bytes = t.recv_bytes.saturating_add(volume(posted));
            }
        }
        if let Some(g) = self.by_gid.get_mut(gid as usize) {
            g.calls = g.calls.saturating_add(times);
            // Hot-spot volume uses the matrix's exact attribution rule so
            // the per-GID report sums to the matrix total.
            if op.is_send_like() && dest >= 0 && (dest as usize) < self.nprocs as usize {
                g.bytes = g.bytes.saturating_add(volume(count));
            }
        }
        if op.is_send_like() {
            self.matrix.add_send(rank as usize, dest, count, times);
        }
    }

    /// Accumulate one replayed event from `rank` (expansion / reference).
    pub fn add_replay(&mut self, rank: u32, op: &ReplayOp) {
        self.add(
            rank,
            op.gid,
            op.op,
            op.params.dest,
            op.params.count,
            op.params.rcount,
            op.mean_dur,
            1,
        );
    }

    /// Close out: rank hot spots (heaviest volume first, then calls, then
    /// GID) and assemble the result.
    pub fn finish(self, cst: &Cst, strategy: StrategyUsed, loop_trips: u64) -> QueryResult {
        let mut hotspots: Vec<HotSpot> = self
            .by_gid
            .iter()
            .enumerate()
            .filter(|(_, g)| g.calls > 0)
            .map(|(gid, g)| HotSpot::new(cst, gid as u32, g.calls, g.bytes))
            .collect();
        hotspots.sort_by(|a, b| {
            b.bytes
                .cmp(&a.bytes)
                .then(b.calls.cmp(&a.calls))
                .then(a.gid.cmp(&b.gid))
        });
        QueryResult {
            nprocs: self.nprocs,
            strategy,
            matrix: self.matrix,
            profile: self.profile,
            totals: self.totals,
            hotspots,
            loop_trips,
        }
    }
}
