//! Sequence-preserving decompression (paper §V) — the workspace's one CTT
//! walker.
//!
//! [`ReplayCursor`] traverses a CTT in pre-order, interpreting each vertex's
//! recorded data: loop vertices replay their children once per recorded
//! iteration, branch vertices replay their children when the recorded
//! taken-index matches the parent's current visit index, and leaves emit the
//! next occurrence of their merged records. The visit counters here mirror
//! the compressor's exactly, so for programs without recursion the emitted
//! `(gid, op, params)` sequence equals the original event-for-event — the
//! paper's headline sequence-preservation property, pinned against *raw
//! traces* by the round-trip tests below, `tests/pipeline_roundtrip.rs` and
//! `tests/random_programs.rs`.
//!
//! Everything that replays goes through this cursor, over whatever
//! [`CttSource`] it was handed (an owned [`Ctt`](crate::Ctt) or a pooled
//! [`CttSlab`](crate::CttSlab)): [`decompress`]/[`decompress_into`] drive it
//! over the root's children; schedule lowering (`cypress-analysis`) drives it
//! one root child at a time and asks [`ReplayCursor::replay_uniform`] to take
//! a whole loop in one step. [`ReplayClock`] is the one place a replayed
//! op's start time is reconstructed.
//!
//! For recursive programs the pseudo-loop conversion is approximate (the
//! paper's own wording): the emitted sequence preserves the event *multiset*
//! per pseudo-loop iteration, and is exact when recursive calls are in tail
//! position within their branch arm.

use crate::ctt::LeafRecord;
use crate::intseq::IntSeqReader;
use crate::visit::{CttSource, VertexRef};
use cypress_cst::tree::{Cst, VertexKind};
use cypress_trace::event::{MpiOp, MpiParams, MpiRecord};

/// One decompressed operation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOp {
    pub gid: u32,
    pub op: MpiOp,
    pub params: MpiParams,
    /// Mean duration of the merged record this occurrence came from (ns).
    pub mean_dur: u64,
    /// Mean preceding computation gap (ns).
    pub mean_gap: u64,
}

/// Decompress one process's CTT back into its operation sequence.
pub fn decompress<S: CttSource>(cst: &Cst, src: &S) -> Vec<ReplayOp> {
    let mut out = Vec::new();
    decompress_into(cst, src, |op| out.push(op));
    out
}

/// Streaming decompression: replay the CTT's operation sequence into `sink`
/// without materializing a `Vec`. This is the partial-expansion primitive of
/// the compressed-domain query engine — analyses that cannot be evaluated
/// symbolically fold each operation as it is produced, so the expansion
/// stays allocation-free even for O(events)-sized replays.
pub fn decompress_into<S: CttSource>(cst: &Cst, src: &S, mut sink: impl FnMut(ReplayOp)) {
    let mut cursor = ReplayCursor::new(cst, src);
    for &c in &cst.vertex(0).children {
        cursor.replay(c, &mut sink);
    }
}

/// The replay clock: each op starts after its mean gap and lasts its mean
/// duration. Windows (query and analysis) and [`replay_to_records`] all read
/// a replayed op's start time from here.
#[derive(Debug, Default)]
pub struct ReplayClock(u64);

impl ReplayClock {
    /// Advance over `op` and return its reconstructed start time (ns).
    pub fn start(&mut self, op: &ReplayOp) -> u64 {
        let t_start = self.0.saturating_add(op.mean_gap);
        self.0 = t_start.saturating_add(op.mean_dur);
        t_start
    }
}

/// Convert a replayed op sequence into `MpiRecord`s with reconstructed
/// (approximate) timestamps on the [`ReplayClock`].
pub fn replay_to_records(ops: &[ReplayOp]) -> Vec<MpiRecord> {
    let mut clock = ReplayClock::default();
    ops.iter()
        .map(|o| MpiRecord {
            gid: o.gid,
            op: o.op,
            params: o.params.clone(),
            t_start: clock.start(o),
            dur: o.mean_dur,
        })
        .collect()
}

/// Where replay stands in one vertex's recorded data.
#[derive(Clone)]
enum Pos<'a> {
    /// Root, or data whose kind contradicts the CST's: replays as nothing.
    Empty,
    /// A loop's remaining per-visit trip counts.
    Loop(IntSeqReader<'a>),
    /// A branch's remaining taken indices.
    Branch(IntSeqReader<'a>),
    /// A leaf: `used` occurrences of record `rec` have been emitted.
    Leaf {
        records: &'a [LeafRecord],
        rec: usize,
        used: u64,
    },
}

/// A resumable position in the pre-order replay of one process's CTT.
///
/// `Clone` is a checkpoint: a clone replays the same tail as the original.
#[derive(Clone)]
pub struct ReplayCursor<'a> {
    cst: &'a Cst,
    rank: i64,
    pos: Vec<Pos<'a>>,
    /// Times each vertex's body has been entered (the root's once).
    visits: Vec<u64>,
}

impl<'a> ReplayCursor<'a> {
    /// A cursor at the start of `src`'s trace. Panics unless `src` has the
    /// CST's shape (callers facing outside input check first).
    pub fn new<S: CttSource>(cst: &'a Cst, src: &'a S) -> Self {
        assert_eq!(
            cst.len(),
            src.vertex_count(),
            "CTT must have the same shape as the CST"
        );
        // (A push loop: `map().collect()` builds this enum measurably slower.)
        let mut pos = Vec::with_capacity(cst.len());
        for (v, vertex) in cst.vertices.iter().enumerate() {
            pos.push(match (&vertex.kind, src.vertex(v)) {
                (VertexKind::Loop { .. }, VertexRef::Loop(counts)) => Pos::Loop(counts.reader()),
                (VertexKind::Branch { .. }, VertexRef::Branch(taken)) => {
                    Pos::Branch(taken.reader())
                }
                (VertexKind::Mpi { .. }, VertexRef::Leaf(records)) => Pos::Leaf {
                    records,
                    rec: 0,
                    used: 0,
                },
                _ => Pos::Empty,
            });
        }
        let mut visits = vec![0; cst.len()];
        visits[0] = 1;
        ReplayCursor {
            cst,
            rank: src.rank() as i64,
            pos,
            visits,
        }
    }

    /// The trip count loop `v` draws on its next visit (0 once its recorded
    /// counts run out), without consuming it.
    pub fn peek_trips(&self, v: usize) -> i64 {
        match &self.pos[v] {
            Pos::Loop(counts) => counts.peek().unwrap_or(0),
            _ => 0,
        }
    }

    fn enter(&mut self, v: usize, sink: &mut impl FnMut(ReplayOp)) {
        self.visits[v] += 1;
        let cst = self.cst;
        for &c in &cst.vertex(v).children {
            self.replay(c, sink);
        }
    }

    /// Replay one visit of CST vertex `v` (a child of the vertex whose body
    /// is being replayed), emitting its operations into `sink`.
    pub fn replay(&mut self, v: usize, sink: &mut impl FnMut(ReplayOp)) {
        match &mut self.pos[v] {
            Pos::Empty => {}
            Pos::Loop(counts) => {
                for _ in 0..counts.next().unwrap_or(0) {
                    self.enter(v, sink);
                }
            }
            Pos::Branch(taken) => {
                let parent = self.cst.vertex(v).parent.expect("branches have parents");
                let parent_idx = self.visits[parent].saturating_sub(1) as i64;
                if taken.peek() == Some(parent_idx) {
                    taken.next();
                    self.enter(v, sink);
                }
            }
            Pos::Leaf { records, rec, used } => {
                // Skip exhausted records.
                while *rec < records.len() && *used >= records[*rec].count {
                    *rec += 1;
                    *used = 0;
                }
                // A stream that ran out was visited fewer times than the
                // traversal implies (recursion approximation): emit nothing.
                let Some(r) = records.get(*rec) else { return };
                *used += 1;
                sink(ReplayOp {
                    gid: v as u32,
                    op: r.params.op,
                    params: r.params.decode(self.rank),
                    mean_dur: r.time.mean().round() as u64,
                    mean_gap: r.gap.mean().round() as u64,
                });
            }
        }
    }

    /// The bulk step: replay loop `v`'s next visit — all `n =`
    /// [`peek_trips`]`(v)` iterations of it — by emitting iteration 1 into
    /// `sink` and *proving* that iterations `2..=n` would emit the same
    /// operations, then advancing every reader, leaf position and visit
    /// counter over all `n` at once: O(|CST| + segments), not O(n).
    ///
    /// Returns the advanced cursor, or `None` (whatever `sink` received is
    /// then to be discarded) when `n < 2` or some iteration could differ;
    /// `self` is never touched. The proof compares the cursor before and
    /// after iteration 1. A vertex whose parent's body was entered `k > 0`
    /// times was itself visited `k` times, and must do the same again:
    ///
    /// * an inner loop drew one constant trip count on every visit, and its
    ///   next `(n − 1)·k` stored counts equal it;
    /// * a branch's taken indices continue as the arithmetic image of
    ///   iteration 1's decisions, with no extra take hiding anywhere in this
    ///   loop's index range;
    /// * a leaf drew all `k` occurrences from one merged record, which holds
    ///   enough for every remaining iteration.
    ///
    /// [`peek_trips`]: ReplayCursor::peek_trips
    pub fn replay_uniform(&self, v: usize, sink: &mut impl FnMut(ReplayOp)) -> Option<Self> {
        let mut w = self.clone();
        let Pos::Loop(counts) = &mut w.pos[v] else {
            return None;
        };
        let n = u64::try_from(counts.next()?).ok().filter(|&n| n >= 2)?;
        w.enter(v, sink);
        let more = n - 1;
        for (u, vertex) in self.cst.vertices.iter().enumerate().skip(1) {
            let parent = vertex.parent.expect("non-root vertices have parents");
            let k = w.visits[parent] - self.visits[parent];
            if k == 0 {
                continue;
            }
            let again = more.checked_mul(k)?;
            match (&self.pos[u], &mut w.pos[u]) {
                (Pos::Loop(before), Pos::Loop(counts)) => {
                    *counts = before.clone();
                    let trips = counts.peek().unwrap_or(0);
                    if !counts.take_arith(again.checked_add(k)?, trips, 0) {
                        return None;
                    }
                }
                (Pos::Branch(before), Pos::Branch(taken)) => {
                    // `takes > 0` indices per `k` parent visits stay one
                    // progression only at stride k / takes.
                    let takes = w.visits[u] - self.visits[u];
                    if let Some(stride) = k.checked_div(takes) {
                        *taken = before.clone();
                        let (first, all) = (taken.peek()?, n.checked_mul(takes)?);
                        if !k.is_multiple_of(takes) || !taken.take_arith(all, first, stride as i64)
                        {
                            return None;
                        }
                    }
                    // A decision that flips in a later iteration shows as a
                    // remaining taken index inside this loop's range.
                    let end = i64::try_from(w.visits[parent].checked_add(again)?).ok()?;
                    if taken.peek().is_some_and(|next| next < end) {
                        return None;
                    }
                }
                (
                    Pos::Leaf { rec, used, .. },
                    Pos::Leaf {
                        records,
                        rec: rec1,
                        used: used1,
                    },
                ) => {
                    // Iteration 1 skipped to its first live record; all k
                    // draws must have come from it.
                    let (mut rec0, mut used0) = (*rec, *used);
                    while rec0 < records.len() && used0 >= records[rec0].count {
                        (rec0, used0) = (rec0 + 1, 0);
                    }
                    if (*rec1, Some(*used1)) != (rec0, used0.checked_add(k))
                        || records[rec0].count - *used1 < again
                    {
                        return None;
                    }
                    *used1 += again;
                }
                _ => {}
            }
        }
        for (after, before) in w.visits.iter_mut().zip(&self.visits) {
            *after = after.checked_add(more.checked_mul(*after - before)?)?;
        }
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_trace, CompressConfig};
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};
    use cypress_trace::raw::RawTrace;

    /// Round-trip helper: compress + decompress, compare (gid, op, params).
    fn assert_round_trip(src: &str, nprocs: u32) {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        for t in &traces {
            assert_rank_round_trip(&info.cst, t);
        }
    }

    fn assert_rank_round_trip(cst: &cypress_cst::Cst, t: &RawTrace) {
        let ctt = compress_trace(cst, t, &CompressConfig::default());
        let got = decompress(cst, &ctt);
        let want: Vec<(u32, MpiOp, MpiParams)> = t
            .mpi_records()
            .map(|r| (r.gid, r.op, r.params.clone()))
            .collect();
        let got_tuples: Vec<(u32, MpiOp, MpiParams)> = got
            .iter()
            .map(|o| (o.gid, o.op, o.params.clone()))
            .collect();
        assert_eq!(got_tuples, want, "round trip failed for rank {}", t.rank);
    }

    #[test]
    fn round_trip_jacobi() {
        assert_round_trip(
            r#"fn main() {
                let r = rank(); let s = size();
                for k in 0..10 {
                    if r < s - 1 { send(r + 1, 1024, 0); }
                    if r > 0 { recv(r - 1, 1024, 0); }
                    if r > 0 { send(r - 1, 1024, 1); }
                    if r < s - 1 { recv(r + 1, 1024, 1); }
                }
            }"#,
            5,
        );
    }

    #[test]
    fn round_trip_nested_varying_loops() {
        assert_round_trip(
            r#"fn main() {
                for i in 0..8 {
                    bcast(0, 64);
                    for j in 0..i {
                        let a = isend((rank() + 1) % size(), 8 * (j + 1), j);
                        let b = irecv(any_source(), 8 * (j + 1), j);
                        waitall(a, b);
                    }
                }
            }"#,
            3,
        );
    }

    #[test]
    fn round_trip_alternating_branches() {
        assert_round_trip(
            r#"fn main() {
                for i in 0..17 {
                    if i % 3 == 0 { barrier(); }
                    else if i % 3 == 1 { allreduce(4); }
                    else { alltoall(16); }
                }
            }"#,
            2,
        );
    }

    #[test]
    fn round_trip_functions_and_paths() {
        assert_round_trip(
            r#"
            fn halo(d) {
                if rank() + d < size() && rank() + d >= 0 { send(rank() + d, 256, 7); }
                if rank() - d < size() && rank() - d >= 0 { recv(rank() - d, 256, 7); }
            }
            fn main() {
                for s in 0..6 { halo(1); halo(0 - 1); }
                reduce(0, 8);
            }
            "#,
            4,
        );
    }

    #[test]
    fn round_trip_zero_iteration_loops() {
        assert_round_trip(
            "fn main() { for i in 0..5 { for j in 3..i { barrier(); } bcast(0, 8); } }",
            1,
        );
    }

    #[test]
    fn round_trip_rank_dependent_counts() {
        assert_round_trip(
            r#"fn main() {
                for i in 0..rank() + 1 {
                    send((rank() + 1) % size(), 32, i);
                }
                for i in 0..rank() + 1 {
                    recv(any_source(), 32, i);
                }
            }"#,
            4,
        );
    }

    #[test]
    fn tail_recursion_round_trips_exactly() {
        assert_round_trip(
            r#"
            fn countdown(n) {
                if n > 0 {
                    bcast(0, 16);
                    countdown(n - 1);
                }
            }
            fn main() { countdown(9); }
            "#,
            1,
        );
    }

    #[test]
    fn non_tail_recursion_preserves_multiset() {
        let src = r#"
            fn updown(n) {
                if n > 0 {
                    bcast(0, 16);
                    updown(n - 1);
                    reduce(0, 16);
                }
            }
            fn main() { updown(5); }
        "#;
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, 1, &InterpConfig::default()).unwrap();
        let ctt = compress_trace(&info.cst, &traces[0], &CompressConfig::default());
        let got = decompress(&info.cst, &ctt);
        // Multiset of (op) preserved: 5 bcasts + 5 reduces.
        assert_eq!(got.len(), 10);
        assert_eq!(got.iter().filter(|o| o.op == MpiOp::Bcast).count(), 5);
        assert_eq!(got.iter().filter(|o| o.op == MpiOp::Reduce).count(), 5);
    }

    #[test]
    fn cursor_checkpoints_resume_and_a_failed_bulk_step_moves_nothing() {
        let src = r#"fn main() {
            for i in 0..6 { bcast(0, 8); for j in 0..2 { barrier(); } }
            for i in 0..5 { for j in 0..i { allreduce(4); } }
            reduce(0, 8);
        }"#;
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, 1, &InterpConfig::default()).unwrap();
        let ctt = compress_trace(&info.cst, &traces[0], &CompressConfig::default());
        let kids = &info.cst.vertex(0).children;
        let finish = |mut cur: ReplayCursor<'_>| {
            let mut tail = Vec::new();
            for &k in &kids[1..] {
                cur.replay(k, &mut |o| tail.push(o));
            }
            tail
        };

        // The uniform loop: one bulk step lands where six concrete
        // iterations do, having emitted one of them.
        let start = ReplayCursor::new(&info.cst, &ctt);
        assert_eq!(start.peek_trips(kids[0]), 6);
        let mut body = Vec::new();
        let bulk = start
            .replay_uniform(kids[0], &mut |o| body.push(o))
            .expect("constant inner trips and single-record leaves are uniform");
        let mut cur = start.clone();
        let mut head = Vec::new();
        cur.replay(kids[0], &mut |o| head.push(o));
        assert_eq!(body.len(), 3);
        let unrolled: Vec<_> = (0..6).flat_map(|_| body.clone()).collect();
        assert_eq!(head, unrolled);
        assert_eq!(finish(bulk), finish(cur.clone()));

        // The triangular loop is not uniform: the attempt is refused and the
        // cursor it was made on replays exactly what a checkpoint taken
        // before the attempt replays.
        let twin = cur.clone();
        assert!(cur.replay_uniform(kids[1], &mut |_| {}).is_none());
        let tail = finish(cur);
        assert_eq!(tail, finish(twin));
        head.extend(tail);
        assert_eq!(head, decompress(&info.cst, &ctt));
    }

    #[test]
    fn replay_records_have_monotone_timestamps() {
        let src = "fn main() { for i in 0..4 { compute(100); bcast(0, 64); } }";
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, 1, &InterpConfig::default()).unwrap();
        let ctt = compress_trace(&info.cst, &traces[0], &CompressConfig::default());
        let recs = replay_to_records(&decompress(&info.cst, &ctt));
        assert_eq!(recs.len(), 4);
        for w in recs.windows(2) {
            assert!(w[1].t_start >= w[0].t_start + w[0].dur);
        }
        // Compute gaps survived: ops do not start at 0.
        assert!(recs[0].t_start >= 100);
    }
}
