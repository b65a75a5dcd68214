//! Analysis evaluation: schedule-driven prediction, windowed replay, and
//! the decompress-then-analyze oracle.

use crate::lower::{flat_ops, lower_schedule, replay_to_simop};
use crate::{AnalysisError, AnalysisStats, AnalyzeOptions, AnalyzeReport};
use cypress_core::{decompress_into, CttSource, ReplayClock};
use cypress_cst::Cst;
use cypress_obs::{Counter, Histogram, TIME_BOUNDS_NS};
use cypress_query::Window;
use cypress_simmpi::{simulate_schedule, simulate_traced, LogGp, SimOp};
use cypress_trace::event::MpiOp;

// Scope `analysis`.
static RUNS: Counter = Counter::new("analysis", "runs");
static SYMBOLIC_LOOPS: Counter = Counter::new("analysis", "symbolic_loops");
static EXTRAPOLATED_TRIPS: Counter = Counter::new("analysis", "extrapolated_trips");
static FED_OPS: Counter = Counter::new("analysis", "fed_ops");
static ANALYZE_NS: Histogram = Histogram::new("analysis", "analyze_ns", &TIME_BOUNDS_NS);

fn validate<S: CttSource>(cst: &Cst, sources: &[S]) -> Result<u32, AnalysisError> {
    let first = sources
        .first()
        .ok_or_else(|| AnalysisError::Invalid("no CTTs to analyze".into()))?
        .nprocs();
    if sources.len() as u32 != first {
        return Err(AnalysisError::Invalid(format!(
            "analysis needs every rank: got {} CTTs for world size {first}",
            sources.len()
        )));
    }
    for (i, s) in sources.iter().enumerate() {
        if s.nprocs() != first {
            return Err(AnalysisError::Invalid(format!(
                "CTTs disagree on world size: {} vs {}",
                first,
                s.nprocs()
            )));
        }
        if s.rank() as usize != i {
            return Err(AnalysisError::Invalid(format!(
                "CTTs must be ordered by rank: position {i} holds rank {}",
                s.rank()
            )));
        }
        if s.vertex_count() != cst.len() {
            return Err(AnalysisError::Invalid(format!(
                "CTT has {} vertices but CST has {}",
                s.vertex_count(),
                cst.len()
            )));
        }
    }
    Ok(first)
}

/// Replay one rank restricted to a time window: ops are decompressed and
/// only those starting within the window on the [`ReplayClock`] survive.
/// Completion ops (`Wait*`) have severed request handles pruned so a window
/// never leaves a wait on a request that was cut out of existence.
pub fn windowed_ops<S: CttSource>(cst: &Cst, source: &S, w: Window) -> Vec<SimOp> {
    let mut clock = ReplayClock::default();
    let mut out = Vec::new();
    // Posted-vs-consumed occurrence counts per GID, restricted to kept ops;
    // the simulator resolves request GIDs in FIFO posting order, so pruning
    // by running count matches its matching rule.
    let mut posted = std::collections::HashMap::<u32, u64>::new();
    let mut consumed = std::collections::HashMap::<u32, u64>::new();
    decompress_into(cst, source, |o| {
        if !w.contains(clock.start(&o)) {
            return;
        }
        let mut op = replay_to_simop(o);
        match op.op {
            MpiOp::Isend | MpiOp::Irecv => {
                *posted.entry(op.gid).or_insert(0) += 1;
            }
            MpiOp::Wait | MpiOp::Waitall | MpiOp::Waitany => {
                op.params.req_gids.retain(|g| {
                    let have = posted.get(g).copied().unwrap_or(0);
                    let used = consumed.entry(*g).or_insert(0);
                    if *used < have {
                        *used += 1;
                        true
                    } else {
                        false
                    }
                });
                if op.params.req_gids.is_empty() {
                    return;
                }
            }
            _ => {}
        }
        out.push(op);
    });
    out
}

/// Analyze a job directly in the compressed domain: CTT-native LogGP replay
/// prediction plus late-sender wait states, exactly equal to the
/// decompress-then-analyze oracle ([`analyze_by_decompression`]).
///
/// `sources` must hold every rank of the job, ordered by rank.
pub fn analyze_ctts<S: CttSource>(
    cst: &Cst,
    sources: &[S],
    model: &LogGp,
    opts: &AnalyzeOptions,
) -> Result<AnalyzeReport, AnalysisError> {
    let _span = ANALYZE_NS.span("analysis", "analyze_ctts");
    let nprocs = validate(cst, sources)?;
    let measured_app_ns = sources.iter().map(|s| s.app_time()).max().unwrap_or(0);

    let (predicted, waits, stats) = if let Some(w) = opts.window {
        let ops: Vec<Vec<SimOp>> = sources.iter().map(|s| windowed_ops(cst, s, w)).collect();
        let fed: u64 = ops.iter().map(|o| o.len() as u64).sum();
        let (predicted, waits) = simulate_traced(&ops, model)?;
        (
            predicted,
            waits,
            AnalysisStats {
                windowed: true,
                fed_ops: fed,
                logical_ops: fed,
                ..AnalysisStats::default()
            },
        )
    } else {
        let (sched, lstats) = lower_schedule(cst, sources);
        let (predicted, waits, sstats) = simulate_schedule(&sched, model)?;
        (
            predicted,
            waits,
            AnalysisStats {
                symbolic_loops: lstats.symbolic_loops,
                unrolled_loops: lstats.unrolled_loops,
                flattened: lstats.flattened || sstats.flattened,
                windowed: false,
                fed_ops: sstats.fed_ops,
                logical_ops: sstats.logical_ops,
                extrapolated_trips: sstats.extrapolated_trips,
            },
        )
    };
    RUNS.inc();
    SYMBOLIC_LOOPS.add(stats.symbolic_loops as u64);
    EXTRAPOLATED_TRIPS.add(stats.extrapolated_trips);
    FED_OPS.add(stats.fed_ops);
    Ok(AnalyzeReport {
        nprocs,
        measured_app_ns,
        predicted,
        waits,
        stats,
    })
}

/// The reference oracle: fully decompress every rank, convert to simulator
/// input (gap statistics as compute time), and run the flat simulation.
pub fn analyze_by_decompression<S: CttSource>(
    cst: &Cst,
    sources: &[S],
    model: &LogGp,
    opts: &AnalyzeOptions,
) -> Result<AnalyzeReport, AnalysisError> {
    let nprocs = validate(cst, sources)?;
    let measured_app_ns = sources.iter().map(|s| s.app_time()).max().unwrap_or(0);
    let ops: Vec<Vec<SimOp>> = sources
        .iter()
        .map(|s| match opts.window {
            Some(w) => windowed_ops(cst, s, w),
            None => flat_ops(cst, s),
        })
        .collect();
    let fed: u64 = ops.iter().map(|o| o.len() as u64).sum();
    let (predicted, waits) = simulate_traced(&ops, model)?;
    Ok(AnalyzeReport {
        nprocs,
        measured_app_ns,
        predicted,
        waits,
        stats: AnalysisStats {
            windowed: opts.window.is_some(),
            flattened: true,
            fed_ops: fed,
            logical_ops: fed,
            ..AnalysisStats::default()
        },
    })
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

    fn assert_native_equals_oracle(src: &str, nprocs: u32, opts: &AnalyzeOptions) -> AnalyzeReport {
        let (cst, ctts) = compile(src, nprocs);
        let model = LogGp::default();
        let native = analyze_ctts(&cst, &ctts, &model, opts).unwrap();
        let oracle = analyze_by_decompression(&cst, &ctts, &model, opts).unwrap();
        assert_eq!(native.predicted, oracle.predicted);
        assert_eq!(native.waits, oracle.waits);
        assert_eq!(native.measured_app_ns, oracle.measured_app_ns);
        assert_eq!(native.nprocs, oracle.nprocs);
        native
    }

    const STENCIL: &str = r#"fn main() {
        for it in 0..40 {
            compute(500);
            if rank() > 0 { send(rank() - 1, 2048, 0); }
            if rank() < size() - 1 { recv(rank() + 1, 2048, 0); }
            allreduce(16);
        }
        barrier();
    }"#;

    #[test]
    fn stencil_prediction_matches_oracle_exactly() {
        let r = assert_native_equals_oracle(STENCIL, 5, &AnalyzeOptions::default());
        assert!(r.stats.symbolic_loops > 0);
        assert!(r.predicted.total > 0);
    }

    #[test]
    fn late_senders_detected_and_match_oracle() {
        // Rank 0 computes long before sending: every recv on rank 1 waits.
        let r = assert_native_equals_oracle(
            r#"fn main() {
                for i in 0..25 {
                    if rank() == 0 { compute(50000); send(1, 256, 0); }
                    if rank() == 1 { recv(0, 256, 0); }
                }
            }"#,
            2,
            &AnalyzeOptions::default(),
        );
        assert!(r.waits.total_wait_ns() > 0, "expected late-sender waits");
        assert!(r.waits.per_rank[1] > 0);
        assert_eq!(r.waits.per_rank[0], 0);
        assert!(!r.waits.sites.is_empty());
    }

    #[test]
    fn recursion_falls_back_to_flatten_and_matches() {
        let r = assert_native_equals_oracle(
            r#"
            fn updown(n) {
                if n > 0 {
                    send((rank() + 1) % size(), 128, 0);
                    updown(n - 1);
                    recv((rank() + size() - 1) % size(), 128, 0);
                }
            }
            fn main() { updown(6); }
            "#,
            3,
            &AnalyzeOptions::default(),
        );
        assert!(r.stats.flattened);
    }

    #[test]
    fn full_span_window_equals_unwindowed() {
        let (cst, ctts) = compile(STENCIL, 4);
        let model = LogGp::default();
        let plain = analyze_ctts(&cst, &ctts, &model, &AnalyzeOptions::default()).unwrap();
        let windowed = analyze_ctts(
            &cst,
            &ctts,
            &model,
            &AnalyzeOptions {
                window: Some(Window {
                    start_ns: 0,
                    end_ns: u64::MAX,
                }),
            },
        )
        .unwrap();
        assert_eq!(windowed.predicted, plain.predicted);
        assert_eq!(windowed.waits, plain.waits);
        assert!(windowed.stats.windowed);
    }

    #[test]
    fn empty_window_predicts_nothing() {
        let (cst, ctts) = compile(STENCIL, 3);
        let r = analyze_ctts(
            &cst,
            &ctts,
            &LogGp::default(),
            &AnalyzeOptions {
                window: Some(Window {
                    start_ns: 0,
                    end_ns: 0,
                }),
            },
        )
        .unwrap();
        assert_eq!(r.predicted.total, 0);
        assert_eq!(r.waits.total_wait_ns(), 0);
        assert_eq!(r.stats.fed_ops, 0);
    }

    #[test]
    fn prefix_window_cuts_iterations_and_matches_oracle() {
        // Symmetric ring: replay clocks agree across ranks, so a boundary
        // between iterations cuts whole iterations cleanly.
        let src = r#"fn main() {
            for i in 0..20 {
                compute(1000);
                sendrecv((rank() + 1) % size(), 512, 0, (rank() + size() - 1) % size(), 512, 0);
            }
        }"#;
        let (cst, ctts) = compile(src, 4);
        let model = LogGp::default();
        let full = analyze_ctts(&cst, &ctts, &model, &AnalyzeOptions::default()).unwrap();
        let mid = full.measured_app_ns / 2;
        let opts = AnalyzeOptions {
            window: Some(Window {
                start_ns: 0,
                end_ns: mid,
            }),
        };
        let native = analyze_ctts(&cst, &ctts, &model, &opts).unwrap();
        let oracle = analyze_by_decompression(&cst, &ctts, &model, &opts).unwrap();
        assert_eq!(native.predicted, oracle.predicted);
        assert!(native.stats.fed_ops > 0);
        assert!(native.stats.fed_ops < full.stats.logical_ops);
        assert!(native.predicted.total < full.predicted.total);
    }

    #[test]
    fn windowed_wait_pruning_keeps_nonblocking_programs_runnable() {
        let src = r#"fn main() {
            for i in 0..12 {
                compute(2000);
                let a = isend((rank() + 1) % size(), 256, 1);
                let b = irecv((rank() + size() - 1) % size(), 256, 1);
                waitall(a, b);
            }
        }"#;
        let (cst, ctts) = compile(src, 3);
        let model = LogGp::default();
        let full = analyze_ctts(&cst, &ctts, &model, &AnalyzeOptions::default()).unwrap();
        let opts = AnalyzeOptions {
            window: Some(Window {
                start_ns: 0,
                end_ns: full.measured_app_ns / 2,
            }),
        };
        let native = analyze_ctts(&cst, &ctts, &model, &opts).unwrap();
        let oracle = analyze_by_decompression(&cst, &ctts, &model, &opts).unwrap();
        assert_eq!(native.predicted, oracle.predicted);
    }

    #[test]
    fn unordered_ranks_are_rejected() {
        let (cst, mut ctts) = compile(STENCIL, 3);
        ctts.swap(0, 2);
        let err =
            analyze_ctts(&cst, &ctts, &LogGp::default(), &AnalyzeOptions::default()).unwrap_err();
        assert!(matches!(err, AnalysisError::Invalid(_)));
    }

    #[test]
    fn missing_ranks_are_rejected() {
        let (cst, mut ctts) = compile(STENCIL, 3);
        ctts.pop();
        let err =
            analyze_ctts(&cst, &ctts, &LogGp::default(), &AnalyzeOptions::default()).unwrap_err();
        assert!(matches!(err, AnalysisError::Invalid(_)));
    }
}
