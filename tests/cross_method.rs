//! Cross-compressor consistency: every method must account for the same
//! operations, and the lossless ones must reproduce them exactly.

use cypress::baselines::{Scala2Trace, ScalaTrace};
use cypress::core::{compress_trace, CompressConfig, EncParams};
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};

#[test]
fn all_methods_account_for_every_operation() {
    for name in NPB_NAMES {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        for t in &traces {
            let n = t.mpi_count() as u64;
            let cy = compress_trace(&info.cst, t, &CompressConfig::default());
            assert_eq!(
                cy.op_count(),
                n,
                "{name}: CYPRESS lost ops on rank {}",
                t.rank
            );
            let st = ScalaTrace::compress(t);
            assert_eq!(
                st.expand().len() as u64,
                n,
                "{name}: ScalaTrace lost ops on rank {}",
                t.rank
            );
            let st2 = Scala2Trace::compress(t);
            assert_eq!(
                st2.op_count(),
                n,
                "{name}: ScalaTrace-2 lost ops on rank {}",
                t.rank
            );
        }
    }
}

#[test]
fn scalatrace_expansion_matches_encoded_events() {
    // ScalaTrace is the lossless baseline: its expansion equals the
    // relative-encoded event sequence exactly.
    for name in ["jacobi", "lu", "bt"] {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let traces = w.trace().unwrap();
        for t in &traces {
            let st = ScalaTrace::compress(t);
            let expanded = st.expand();
            let want: Vec<EncParams> = t
                .mpi_records()
                .map(|r| EncParams::encode(t.rank as i64, r.op, &r.params))
                .collect();
            assert_eq!(expanded, want, "{name}: rank {}", t.rank);
        }
    }
}

#[test]
fn cypress_beats_dynamic_folding_on_loop_count_variation() {
    // The paper's core claim on MG-like codes: varying iteration counts are
    // absorbed by the CST's loop vertices but defeat bottom-up folding. At
    // growing trace lengths CYPRESS stays flat while ScalaTrace grows.
    use cypress::minilang::{check_program, parse};
    use cypress::runtime::{trace_program, InterpConfig};

    // The sweep count varies with period 37, longer than ScalaTrace's
    // fold-search window (32): the dynamic folder cannot see the repeat
    // (the long-range-repeat weakness Xu et al. [15] document), while the
    // loop vertex's count sequence is a couple of stride segments.
    let make = |cycles: u32| {
        format!(
            "fn main() {{
                for c in 0..{cycles} {{
                    for s in 0..2 + c % 37 {{
                        let a = isend((rank() + 1) % size(), 4096, 0);
                        let b = irecv((rank() + size() - 1) % size(), 4096, 0);
                        waitall(a, b);
                    }}
                    allreduce(8);
                }}
            }}"
        )
    };
    let sizes = |cycles: u32| -> (usize, usize) {
        let prog = parse(&make(cycles)).unwrap();
        check_program(&prog).unwrap();
        let info = cypress::cst::analyze_program(&prog);
        let t = &trace_program(&prog, &info, 2, &InterpConfig::default()).unwrap()[0];
        let cy = compress_trace(&info.cst, t, &CompressConfig::default());
        let st = ScalaTrace::compress(t);
        (cy.record_count(), st.len())
    };
    let (cy_small, st_small) = sizes(10);
    let (cy_big, st_big) = sizes(100);
    assert_eq!(cy_small, cy_big, "CYPRESS record count must not grow");
    assert!(
        st_big >= st_small * 5,
        "ScalaTrace should grow with cycles ({st_small} -> {st_big})"
    );
    assert!(cy_big < st_big, "CYPRESS must win at scale");
}

#[test]
fn scalatrace2_elastic_beats_scalatrace_on_varied_params() {
    // SP-style per-iteration size variation: ScalaTrace can't fold,
    // ScalaTrace-2's elastic merge can (the paper's ScalaTrace-2 rationale).
    let w = by_name("sp", 9, Scale::Quick).unwrap();
    let traces = w.trace().unwrap();
    let t = &traces[4];
    let st = ScalaTrace::compress(t);
    let st2 = Scala2Trace::compress(t);
    assert!(
        st2.len() * 4 < st.len(),
        "elastic folding should collapse SP ({} vs {})",
        st2.len(),
        st.len()
    );
}

#[test]
fn waitany_partial_completion_round_trips() {
    // §IV-A partial completion: waitany completes one request (its posting
    // GID recorded); the rest complete later. The sequence must survive
    // compression and simulate cleanly.
    use cypress::minilang::{check_program, parse};
    use cypress::runtime::{trace_program, InterpConfig};
    use cypress::simmpi::{from_raw_traces, simulate, LogGp};

    let src = r#"fn main() {
        for i in 0..20 {
            let a = isend((rank() + 1) % size(), 256, 0);
            let b = irecv((rank() + size() - 1) % size(), 256, 0);
            waitany(a, b);
            wait(b);
        }
    }"#;
    let prog = parse(src).unwrap();
    check_program(&prog).unwrap();
    let info = cypress::cst::analyze_program(&prog);
    let traces = trace_program(&prog, &info, 4, &InterpConfig::default()).unwrap();

    // waitany recorded with exactly one posting gid (the isend's).
    let t0 = &traces[0];
    let wany = t0
        .mpi_records()
        .find(|r| r.op == cypress::trace::event::MpiOp::Waitany)
        .expect("waitany traced");
    assert_eq!(wany.params.req_gids.len(), 1);

    // Exact sequence round trip.
    let ctt = compress_trace(&info.cst, t0, &CompressConfig::default());
    let replay = cypress::core::decompress(&info.cst, &ctt);
    assert_eq!(replay.len(), t0.mpi_count());
    assert_eq!(
        ctt.record_count(),
        4,
        "20 identical iterations fold to one record per leaf"
    );

    // And the trace replays in the simulator without deadlock.
    simulate(&from_raw_traces(&traces), &LogGp::default()).unwrap();
}
