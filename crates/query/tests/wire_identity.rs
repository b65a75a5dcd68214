//! Wire-codec and slab-equivalence pinning for the query engine.
//!
//! Two invariants the trace store leans on:
//!
//! 1. The canonical wire encoding of [`QueryResult`] roundtrips exactly, so
//!    a daemon response decodes to the same value the server computed.
//! 2. Querying pooled [`CttSlab`]s yields byte-identical results (wire and
//!    JSON) to querying the owned [`Ctt`]s they decode from — the zero-copy
//!    read path changes representation, never answers.

use cypress_core::{compress_trace, CompressConfig, Ctt, CttSlab};
use cypress_cst::analyze_program;
use cypress_minilang::{check_program, parse};
use cypress_query::{query_ctts, QueryOptions, QueryResult, Window};
use cypress_runtime::{trace_program, InterpConfig};
use cypress_trace::Codec;

fn build_ctts(src: &str, nprocs: u32) -> (cypress_cst::Cst, Vec<Ctt>) {
    let prog = parse(src).unwrap();
    check_program(&prog).unwrap();
    let info = analyze_program(&prog);
    let traces = trace_program(&prog, &info, nprocs, &InterpConfig::default()).unwrap();
    let ctts = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
        .collect();
    (info.cst, ctts)
}

const PROGRAM: &str = r#"fn main() {
    for i in 0..50 {
        if rank() % 2 == 0 { send(rank() + 1, 1024, 7); }
        else { recv(rank() - 1, 1024, 7); }
        allreduce(8);
    }
    barrier();
}"#;

#[test]
fn query_result_wire_roundtrip() {
    let (cst, ctts) = build_ctts(PROGRAM, 4);
    let q = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
    let bytes = q.to_bytes();
    let back = QueryResult::from_bytes(&bytes).unwrap();
    assert_eq!(back, q);
    assert_eq!(back.to_bytes(), bytes, "canonical: re-encode is identical");
    assert_eq!(back.render_json(), q.render_json());
}

#[test]
fn slab_queries_match_ctt_queries_byte_for_byte() {
    let (cst, ctts) = build_ctts(PROGRAM, 4);
    let slabs: Vec<CttSlab> = ctts
        .iter()
        .map(|c| CttSlab::from_bytes(&c.to_bytes()).unwrap())
        .collect();
    // Symbolic, then partial expansion through a full-span window.
    let full_span = Window {
        start_ns: 0,
        end_ns: u64::MAX,
    };
    for window in [None, Some(full_span)] {
        let opts = QueryOptions { window };
        let from_owned = query_ctts(&cst, &ctts, &opts).unwrap();
        let from_slab = query_ctts(&cst, &slabs, &opts).unwrap();
        assert_eq!(from_slab, from_owned, "window {window:?}");
        assert_eq!(from_slab.to_bytes(), from_owned.to_bytes());
        assert_eq!(from_slab.render_json(), from_owned.render_json());
    }
}

#[test]
fn json_parses_structurally() {
    let (cst, ctts) = build_ctts(PROGRAM, 4);
    let q = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
    let json = q.render_json();
    assert!(json.starts_with("{\"nprocs\":4,"));
    assert!(json.contains("\"matrix\":[["));
    assert!(json.contains("\"MPI_Allreduce\":{\"calls\":"));
    assert!(json.contains("\"hotspots\":[{"));
    assert!(json.ends_with("]}"));
    // Balanced braces/brackets outside string literals — a cheap structural
    // sanity check that doubles as an escaping test.
    let (mut depth, mut in_str, mut esc) = (0i32, false, false);
    for c in json.chars() {
        if in_str {
            if esc {
                esc = false;
            } else if c == '\\' {
                esc = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0);
    }
    assert_eq!(depth, 0);
    assert!(!in_str);
}
