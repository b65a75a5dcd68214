//! SPMD tracing driver: run every rank's interpreter and collect raw traces.
//!
//! Every raw trace runs on the [`crate::sched`] pool (sequential tracing is
//! the pool with one worker), so an interpreter panic propagates to the
//! caller on every path.

use crate::interp::{EventSink, Interp, InterpConfig, RunResult};
use cypress_cst::StaticInfo;
use cypress_minilang::ast::Program;
use cypress_obs::{obs_log, Level};
use cypress_trace::event::Event;
use cypress_trace::raw::RawTrace;

/// Trace a program for `nprocs` ranks, one at a time: the pool of
/// [`trace_program_parallel`] with a single worker.
pub fn trace_program(
    prog: &Program,
    info: &StaticInfo,
    nprocs: u32,
    cfg: &InterpConfig,
) -> RunResult<Vec<RawTrace>> {
    trace_program_parallel(prog, info, nprocs, cfg, 1)
}

/// Trace a program with ranks interpreted in parallel on a fixed
/// work-stealing worker pool (see [`crate::sched`]). Ranks are independent,
/// so this is a pure data-parallel map; the pool's workers carry large
/// stacks, so interpreters run directly on them with no per-rank thread.
pub fn trace_program_parallel(
    prog: &Program,
    info: &StaticInfo,
    nprocs: u32,
    cfg: &InterpConfig,
    threads: usize,
) -> RunResult<Vec<RawTrace>> {
    let threads = threads.max(1).min(nprocs.max(1) as usize);
    obs_log!(
        Level::Info,
        "interp",
        "tracing {nprocs} ranks on {threads} worker(s)"
    );
    crate::sched::run_ranks(nprocs, threads, |rank| {
        let _t = cypress_obs::trace_span("interp", "rank");
        let mut events: Vec<Event> = Vec::new();
        let mut interp = Interp::new(prog, info, rank, nprocs, cfg.clone(), &mut events);
        let app_time = interp.run()?;
        Ok(RawTrace {
            rank,
            nprocs,
            events,
            app_time,
        })
    })
    .into_iter()
    .collect()
}

/// Run one rank against a caller-provided sink (e.g. an online compressor);
/// returns the total virtual app time.
pub fn run_rank_with_sink<S: EventSink>(
    prog: &Program,
    info: &StaticInfo,
    rank: u32,
    nprocs: u32,
    cfg: &InterpConfig,
    sink: &mut S,
) -> RunResult<u64> {
    let mut interp = Interp::new(prog, info, rank, nprocs, cfg.clone(), sink);
    interp.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{has_op, well_nested};
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_trace::event::{MpiOp, ANY_SOURCE};

    fn trace(src: &str, nprocs: u32) -> Vec<RawTrace> {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap()
    }

    const JACOBI: &str = r#"
        fn main() {
            let r = rank();
            let s = size();
            for k in 0..5 {
                if r < s - 1 { send(r + 1, 1024, 0); }
                if r > 0 { recv(r - 1, 1024, 0); }
                if r > 0 { send(r - 1, 1024, 1); }
                if r < s - 1 { recv(r + 1, 1024, 1); }
                compute(500);
            }
        }
    "#;

    #[test]
    fn jacobi_event_counts_match_rank_position() {
        let ts = trace(JACOBI, 4);
        // Interior ranks do 4 ops per step; edges do 2.
        assert_eq!(ts[0].mpi_count(), 10);
        assert_eq!(ts[1].mpi_count(), 20);
        assert_eq!(ts[2].mpi_count(), 20);
        assert_eq!(ts[3].mpi_count(), 10);
    }

    #[test]
    fn jacobi_events_well_nested_and_clocked() {
        let ts = trace(JACOBI, 4);
        for t in &ts {
            assert!(well_nested(&t.events));
            assert!(t.app_time > 0);
            // Timestamps are monotone.
            let mut last = 0;
            for r in t.mpi_records() {
                assert!(r.t_start >= last);
                last = r.t_start + r.dur;
            }
        }
    }

    #[test]
    fn structure_events_reference_cst_gids() {
        let p = parse(JACOBI).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let ts = trace_program(&p, &info, 4, &InterpConfig::default()).unwrap();
        let n = info.cst.len() as u32;
        for t in &ts {
            for e in &t.events {
                match e {
                    Event::Enter { gid } | Event::Exit { gid } => assert!(*gid < n),
                    Event::Mpi(r) => assert!(r.gid > 0 && r.gid < n),
                }
            }
        }
    }

    #[test]
    fn loop_iterations_emit_enter_per_iteration() {
        let ts = trace("fn main() { for i in 0..7 { barrier(); } }", 1);
        let enters = ts[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Enter { .. }))
            .count();
        let exits = ts[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Exit { .. }))
            .count();
        assert_eq!(enters, 7);
        assert_eq!(exits, 1);
    }

    #[test]
    fn zero_iteration_loop_emits_exit_only() {
        let ts = trace("fn main() { for i in 0..0 { barrier(); } bcast(0, 8); }", 1);
        let enters = ts[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Enter { .. }))
            .count();
        let exits = ts[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Exit { .. }))
            .count();
        assert_eq!(enters, 0);
        assert_eq!(exits, 1);
    }

    #[test]
    fn async_requests_map_to_posting_gids() {
        let ts = trace(
            r#"fn main() {
                let a = isend((rank() + 1) % size(), 64, 0);
                let b = irecv(any_source(), 64, 0);
                waitall(a, b);
            }"#,
            2,
        );
        let recs: Vec<_> = ts[0].mpi_only();
        assert_eq!(recs.len(), 3);
        let isend_gid = recs[0].gid;
        let irecv_gid = recs[1].gid;
        assert_eq!(recs[2].op, MpiOp::Waitall);
        assert_eq!(recs[2].params.req_gids, vec![isend_gid, irecv_gid]);
        assert_eq!(recs[1].params.src, ANY_SOURCE);
    }

    #[test]
    fn missing_wait_is_an_error() {
        let p = parse("fn main() { let a = isend(0, 8, 0); }").unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        assert!(trace_program(&p, &info, 1, &InterpConfig::default()).is_err());
    }

    #[test]
    fn out_of_range_peer_is_an_error() {
        let p = parse("fn main() { send(rank() + 1, 8, 0); }").unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        // Last rank sends to `size()`, which does not exist.
        assert!(trace_program(&p, &info, 2, &InterpConfig::default()).is_err());
    }

    #[test]
    fn step_budget_stops_runaway_loops() {
        let p = parse("fn main() { let i = 0; while i >= 0 { i = i + 1; } }").unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let cfg = InterpConfig { max_steps: 10_000 };
        assert!(trace_program(&p, &info, 1, &cfg).is_err());
    }

    #[test]
    fn recursion_emits_pseudo_loop_iterations() {
        let src = r#"
            fn walk(n) {
                if n > 0 {
                    bcast(0, 8);
                    walk(n - 1);
                }
            }
            fn main() { walk(4); }
        "#;
        let ts = trace(src, 1);
        let enters = ts[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Enter { .. }))
            .count();
        // 4 invocations with n>0 plus the final n==0 invocation = 5
        // pseudo-loop iterations; each n>0 iteration also enters its branch
        // arm: 5 + 4 = 9.
        assert_eq!(enters, 9);
        assert!(has_op(&ts[0].events, MpiOp::Bcast));
        assert_eq!(ts[0].mpi_count(), 4);
    }

    #[test]
    fn parallel_driver_matches_sequential() {
        let p = parse(JACOBI).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let cfg = InterpConfig::default();
        let seq = trace_program(&p, &info, 8, &cfg).unwrap();
        let par = trace_program_parallel(&p, &info, 8, &cfg, 3).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn int_returning_functions_flow_values() {
        let ts = trace(
            r#"
            fn next(r) { return (r + 1) % size(); }
            fn main() { send(next(rank()), 16, 0); recv(any_source(), 16, 0); }
            "#,
            3,
        );
        assert_eq!(ts[2].mpi_only()[0].params.dest, 0);
    }

    #[test]
    fn sendrecv_and_allgather_trace_correctly() {
        let ts = trace(
            r#"fn main() {
                let nxt = (rank() + 1) % size();
                let prv = (rank() + size() - 1) % size();
                sendrecv(nxt, 512, 3, prv, 512, 3);
                allgather(128);
            }"#,
            4,
        );
        let recs = ts[1].mpi_only();
        assert_eq!(recs[0].op, MpiOp::Sendrecv);
        assert_eq!(recs[0].params.dest, 2);
        assert_eq!(recs[0].params.src, 0);
        assert_eq!(recs[0].params.rcount, 512);
        assert_eq!(recs[1].op, MpiOp::Allgather);
    }

    #[test]
    fn deep_recursion_hits_stack_guard() {
        let src = r#"
            fn spin(n) { if n > 0 { barrier(); spin(n - 1); } }
            fn main() { spin(100000); }
        "#;
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let cfg = InterpConfig::default();
        // Either the stack guard or the step budget fires; never a crash.
        assert!(trace_program(&p, &info, 1, &cfg).is_err());
    }

    #[test]
    fn mutual_recursion_traces_pseudo_loops() {
        let src = r#"
            fn ping(n) { if n > 0 { send(1, 8, 0); pong(n - 1); } }
            fn pong(n) { if n > 0 { recv(1, 8, 0); ping(n - 1); } }
            fn main() { if rank() == 0 { ping(6); } }
        "#;
        let ts = trace(src, 2);
        // Rank 0 alternates 3 sends and 3 recvs.
        assert_eq!(ts[0].mpi_count(), 6);
        assert!(well_nested(&ts[0].events));
        assert_eq!(ts[1].mpi_count(), 0);
    }

    #[test]
    fn division_by_zero_caught() {
        let p = parse("fn main() { compute(1 / (rank() - rank())); }").unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        assert!(trace_program(&p, &info, 1, &InterpConfig::default()).is_err());
    }
}
