//! CTT → [`Schedule`] lowering: turn compressed loop structure into a
//! compact simulation input without unrolling it.
//!
//! Lowering drives one [`ReplayCursor`] per rank — the same walker
//! `cypress_core::decompress` is — over the root's children, directly on
//! whatever [`CttSource`] it was given (owned trees or the store's pooled
//! slabs). Each top-level non-pseudo loop on whose trip count every rank
//! agrees is a candidate for *symbolic* lowering: instead of replaying `n`
//! iterations, [`ReplayCursor::replay_uniform`] replays iteration 1 and
//! proves in O(|CST| + segments) that iterations `2..=n` would consume
//! identical data (the proof lives beside the cursor, whose positions it
//! compares; see its docs for the three conditions).
//!
//! When the proof succeeds on every rank the loop becomes [`Segment::Loop`]
//! carrying one body and a trip count — the replayed op stream is *provably
//! identical* to full decompression, so schedule-driven simulation stays
//! exact. When any rank's proof fails the loop is unrolled concretely; when
//! the CST contains recursion pseudo-loops (replay is multiset- not
//! sequence-exact) the whole job falls back to full decompression, matching
//! the query engine's partial-expansion rule.

use cypress_core::{decompress_into, CttSource, ReplayCursor, ReplayOp};
use cypress_cst::tree::{Cst, VertexKind};
use cypress_query::needs_expansion;
use cypress_simmpi::{Schedule, Segment, SimOp};

/// How lowering handled the job's structure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoweringStats {
    /// Top-level loops lowered to [`Segment::Loop`] (trip counts applied
    /// arithmetically by the scheduler).
    pub symbolic_loops: u32,
    /// Top-level loops whose uniformity proof failed and were unrolled.
    pub unrolled_loops: u32,
    /// True when recursion pseudo-loops forced whole-job decompression.
    pub flattened: bool,
}

/// Convert one replayed op into simulator input: the compressed gap
/// statistic becomes the compute time, the op itself is costed by LogGP.
/// This is exactly the conversion the decompress-then-simulate oracle uses.
pub fn replay_to_simop(o: ReplayOp) -> SimOp {
    SimOp {
        gid: o.gid,
        op: o.op,
        params: o.params,
        pre_gap: o.mean_gap,
    }
}

/// One rank fully decompressed into simulator input — the flat form every
/// lowered schedule must flatten to.
pub(crate) fn flat_ops<S: CttSource>(cst: &Cst, source: &S) -> Vec<SimOp> {
    let mut ops = Vec::new();
    decompress_into(cst, source, |o| ops.push(replay_to_simop(o)));
    ops
}

/// Lower a job's per-rank CTTs into a [`Schedule`].
///
/// The flattened schedule always equals full decompression of every rank
/// (`cypress_core::decompress` → op conversion); symbolic segments are only
/// produced where that equality is proven.
pub fn lower_schedule<S: CttSource>(cst: &Cst, sources: &[S]) -> (Schedule, LoweringStats) {
    let nprocs = sources.len() as u32;
    let mut stats = LoweringStats::default();

    if needs_expansion(cst) {
        // Recursion: pseudo-loop replay redistributes leaf occurrences
        // across visits, so only the sequential decompressor is faithful.
        stats.flattened = true;
        let ops = sources.iter().map(|s| flat_ops(cst, s)).collect();
        let segments = vec![Segment::Straight(ops)];
        return (Schedule { nprocs, segments }, stats);
    }

    let mut cursors: Vec<_> = sources.iter().map(|s| ReplayCursor::new(cst, s)).collect();
    let mut segments = Vec::new();
    // Ops accumulated for the pending Straight segment, per rank.
    let mut pending = vec![Vec::new(); sources.len()];
    let flush = |pending: &mut Vec<Vec<SimOp>>, segments: &mut Vec<Segment>| {
        if pending.iter().any(|p| !p.is_empty()) {
            let fresh = vec![Vec::new(); pending.len()];
            segments.push(Segment::Straight(std::mem::replace(pending, fresh)));
        }
    };
    for &c in &cst.vertex(0).children {
        if let Some(trips) = uniform_trips(cst, &cursors, c) {
            let mut body = vec![Vec::new(); sources.len()];
            let advanced: Option<Vec<_>> = (cursors.iter().zip(&mut body))
                .map(|(cur, ops)| cur.replay_uniform(c, &mut |o| ops.push(replay_to_simop(o))))
                .collect();
            if let Some(advanced) = advanced {
                cursors = advanced;
                flush(&mut pending, &mut segments);
                segments.push(Segment::Loop { trips, body });
                stats.symbolic_loops += 1;
                continue;
            }
            stats.unrolled_loops += 1;
        }
        for (cur, ops) in cursors.iter_mut().zip(&mut pending) {
            cur.replay(c, &mut |o| ops.push(replay_to_simop(o)));
        }
    }
    flush(&mut pending, &mut segments);
    (Schedule { nprocs, segments }, stats)
}

/// The trip count of root child `c` if it is a real (non-pseudo) loop for
/// which every rank stores the same value ≥ 2 — smaller loops gain nothing
/// from a symbolic body.
fn uniform_trips(cst: &Cst, cursors: &[ReplayCursor<'_>], c: usize) -> Option<u64> {
    if !matches!(cst.vertex(c).kind, VertexKind::Loop { pseudo: false, .. }) {
        return None;
    }
    let trips = cursors.first()?.peek_trips(c);
    (trips >= 2 && cursors.iter().all(|cur| cur.peek_trips(c) == trips)).then_some(trips as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_core::{compress_trace, CompressConfig, Ctt};
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};

    fn compile(src: &str, nprocs: u32) -> (Cst, Vec<Ctt>) {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        let ctts = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        (info.cst, ctts)
    }

    fn oracle_ops(cst: &Cst, ctts: &[Ctt]) -> Vec<Vec<SimOp>> {
        ctts.iter()
            .map(|c| {
                let ops = cypress_core::decompress(cst, c);
                ops.into_iter().map(replay_to_simop).collect()
            })
            .collect()
    }

    fn assert_flatten_matches(src: &str, nprocs: u32, want_symbolic: bool) {
        let (cst, ctts) = compile(src, nprocs);
        let (sched, stats) = lower_schedule(&cst, &ctts);
        assert_eq!(
            sched.flatten(),
            oracle_ops(&cst, &ctts),
            "lowered schedule diverges from decompression"
        );
        if want_symbolic {
            assert!(
                stats.symbolic_loops > 0,
                "expected symbolic lowering, stats {stats:?}"
            );
        }
    }

    #[test]
    fn uniform_stencil_lowers_symbolically() {
        assert_flatten_matches(
            r#"fn main() {
                for it in 0..50 {
                    if rank() > 0 { send(rank() - 1, 2048, 0); }
                    if rank() < size() - 1 { recv(rank() + 1, 2048, 0); }
                    allreduce(16);
                }
                barrier();
            }"#,
            5,
            true,
        );
    }

    #[test]
    fn nested_constant_loops_lower_symbolically() {
        assert_flatten_matches(
            r#"fn main() {
                for i in 0..30 {
                    for j in 0..4 {
                        send((rank() + 1) % size(), 64, 0);
                        recv((rank() + size() - 1) % size(), 64, 0);
                    }
                    bcast(0, 8);
                }
            }"#,
            3,
            true,
        );
    }

    #[test]
    fn varying_leaf_params_unroll_but_stay_exact() {
        // `tag = j` prevents record merging, so the CTT is already O(trips)
        // at this leaf — symbolic lowering must refuse (the merged-record
        // uniformity check fails) and unrolling costs no more than the CTT.
        let (cst, ctts) = compile(
            r#"fn main() {
                for i in 0..10 {
                    for j in 0..4 {
                        send((rank() + 1) % size(), 64, j);
                        recv((rank() + size() - 1) % size(), 64, j);
                    }
                }
            }"#,
            3,
        );
        let (sched, stats) = lower_schedule(&cst, &ctts);
        assert_eq!(sched.flatten(), oracle_ops(&cst, &ctts));
        assert_eq!(stats.symbolic_loops, 0);
        assert_eq!(stats.unrolled_loops, 1);
    }

    #[test]
    fn varying_inner_loop_unrolls_but_stays_exact() {
        let (cst, ctts) = compile(
            r#"fn main() {
                for i in 0..8 {
                    for j in 0..i { barrier(); }
                    bcast(0, 64);
                }
            }"#,
            2,
        );
        let (sched, stats) = lower_schedule(&cst, &ctts);
        assert_eq!(sched.flatten(), oracle_ops(&cst, &ctts));
        assert_eq!(stats.symbolic_loops, 0);
        assert_eq!(stats.unrolled_loops, 1);
    }

    #[test]
    fn alternating_branches_unroll_but_stay_exact() {
        assert_flatten_matches(
            r#"fn main() {
                for i in 0..17 {
                    if i % 3 == 0 { barrier(); }
                    else { allreduce(4); }
                }
            }"#,
            2,
            false,
        );
    }

    #[test]
    fn rank_dependent_trips_fall_back_exactly() {
        assert_flatten_matches(
            r#"fn main() {
                for i in 0..rank() + 2 {
                    send((rank() + 1) % size(), 32, 0);
                }
                for i in 0..rank() + 2 {
                    recv(any_source(), 32, 0);
                }
            }"#,
            4,
            false,
        );
    }

    #[test]
    fn recursion_flattens_whole_job() {
        let (cst, ctts) = compile(
            r#"
            fn updown(n) {
                if n > 0 { bcast(0, 16); updown(n - 1); reduce(0, 16); }
            }
            fn main() { updown(5); }
            "#,
            2,
        );
        let (sched, stats) = lower_schedule(&cst, &ctts);
        assert!(stats.flattened);
        assert_eq!(sched.flatten(), oracle_ops(&cst, &ctts));
    }

    #[test]
    fn mixed_top_level_segments_preserve_order() {
        assert_flatten_matches(
            r#"fn main() {
                barrier();
                for i in 0..20 { allreduce(8); }
                bcast(0, 128);
                for i in 0..10 { alltoall(32); }
                reduce(0, 8);
            }"#,
            3,
            true,
        );
    }
}
