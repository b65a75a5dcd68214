//! SPMD-divergence and failure-injection tests: ranks that take different
//! paths through the program (master/worker splits, subset participation,
//! zero-work ranks) must compress, merge, and extract correctly — and
//! genuinely broken programs must fail loudly, not silently.

use cypress::core::{compress_trace, decompress, merge_all, CompressConfig};
use cypress::cst::analyze_program;
use cypress::minilang::{check_program, parse};
use cypress::runtime::{trace_program, InterpConfig};
use cypress::simmpi::{from_raw_traces, simulate, LogGp};

fn pipeline(src: &str, nprocs: u32) -> (cypress::cst::StaticInfo, Vec<cypress::trace::RawTrace>) {
    let prog = parse(src).unwrap();
    check_program(&prog).unwrap();
    let info = analyze_program(&prog);
    let traces = trace_program(&prog, &info, nprocs, &InterpConfig::default()).unwrap();
    (info, traces)
}

#[test]
fn master_worker_divergence_round_trips() {
    let (info, traces) = pipeline(
        r#"fn main() {
            if rank() == 0 {
                for i in 0..(size() - 1) * 3 {
                    let r = irecv(any_source(), 128, 0);
                    wait(r);
                }
            } else {
                for j in 0..3 {
                    compute(1000 * rank());
                    send(0, 128, 0);
                }
            }
        }"#,
        5,
    );
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    // Master and workers have disjoint call paths; both round-trip.
    for (t, ctt) in traces.iter().zip(&ctts) {
        let replay = decompress(&info.cst, ctt);
        assert_eq!(replay.len(), t.mpi_count(), "rank {}", t.rank);
    }
    // The send-to-master records cover exactly the worker ranks. (They do
    // NOT collapse to one group: under relative encoding `send(0, …)` has a
    // different delta on every worker — the documented cost of the
    // rank±c method on master/worker codes.)
    let merged = merge_all(&ctts);
    for gid in 0..merged.vertex_count() {
        for slot in merged.leaf_slots(gid) {
            let send_ranks: Vec<u32> = slot
                .iter()
                .filter(|(_, rec)| rec.params.op == cypress::trace::event::MpiOp::Send)
                .flat_map(|(rs, _)| rs.ranks())
                .collect();
            if !send_ranks.is_empty() {
                assert_eq!(send_ranks, vec![1, 2, 3, 4]);
            }
        }
    }
    // And the whole thing simulates (wildcards resolve across workers).
    simulate(&from_raw_traces(&traces), &LogGp::default()).unwrap();
}

#[test]
fn rank_with_no_communication_merges_cleanly() {
    let (info, traces) = pipeline(
        r#"fn main() {
            if rank() > 0 {
                if rank() < size() - 1 {
                    send(rank() + 1, 64, 0);
                }
                recv(rank() - 1, 64, 0);
                if rank() == 1 { send(0, 8, 9); }
            } else {
                // Rank 0 only receives a final token.
                recv(1, 8, 9);
            }
        }"#,
        6,
    );
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    let merged = merge_all(&ctts);
    for t in &traces {
        let replay = decompress(&info.cst, &merged.extract_rank(t.rank, &info.cst));
        assert_eq!(replay.len(), t.mpi_count(), "rank {}", t.rank);
    }
}

#[test]
fn subset_collective_is_detected_as_deadlock() {
    // A collective guarded by rank: classic SPMD bug. Tracing succeeds
    // (per-rank views are fine) but the simulator must flag it.
    let (_, traces) = pipeline(
        r#"fn main() {
            if rank() % 2 == 0 { barrier(); }
        }"#,
        4,
    );
    let err = simulate(&from_raw_traces(&traces), &LogGp::default()).unwrap_err();
    assert!(err.0.contains("deadlock"), "{err}");
}

#[test]
fn mismatched_collective_order_is_detected() {
    let (_, traces) = pipeline(
        r#"fn main() {
            if rank() == 0 { barrier(); allreduce(8); }
            else { allreduce(8); barrier(); }
        }"#,
        2,
    );
    let err = simulate(&from_raw_traces(&traces), &LogGp::default()).unwrap_err();
    assert!(
        err.0.contains("collective mismatch"),
        "expected mismatch, got {err}"
    );
}

#[test]
fn missing_partner_send_is_a_deadlock() {
    let (_, traces) = pipeline(
        r#"fn main() {
            if rank() == 0 { recv(1, 64, 0); }
            // Rank 1 never sends.
        }"#,
        2,
    );
    let err = simulate(&from_raw_traces(&traces), &LogGp::default()).unwrap_err();
    assert!(err.0.contains("deadlock"), "{err}");
}

#[test]
fn completely_empty_program_works_everywhere() {
    let (info, traces) = pipeline("fn main() { compute(10); }", 3);
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    assert!(ctts.iter().all(|c| c.record_count() == 0));
    let merged = merge_all(&ctts);
    assert_eq!(merged.group_count(), 0);
    let replay = decompress(&info.cst, &merged.extract_rank(0, &info.cst));
    assert!(replay.is_empty());
    let r = simulate(&from_raw_traces(&traces), &LogGp::default()).unwrap();
    assert_eq!(r.comm_time, vec![0, 0, 0]);
}
