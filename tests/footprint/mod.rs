//! Pins shared by `streaming.rs` and `random_programs.rs` on what a
//! compressor holds: its O(1) footprint is the walk over every vertex it
//! replaced, and a finished tree carries no growth slack.

use cypress::core::{CompressConfig, Ctt, IntraCompressor, SessionConfig, VertexData};
use cypress::cst::Cst;
use cypress::trace::RawTrace;

/// Compress `trace` event by event, checking the running footprint against
/// the walk at every session checkpoint, every 61st event in between, and
/// the end; the finished tree must be trimmed.
pub fn assert_footprint_is_the_walk(cst: &Cst, trace: &RawTrace, label: &str) {
    let cadence = SessionConfig::default().checkpoint_every;
    let mut c = IntraCompressor::new(cst, trace.rank, trace.nprocs, CompressConfig::default());
    for (i, ev) in trace.events.iter().enumerate() {
        c.push(ev);
        let n = i as u64 + 1;
        if n.is_multiple_of(cadence) || n.is_multiple_of(61) {
            let (running, walked) = (c.approx_bytes(), c.approx_bytes_walked());
            assert_eq!(running, walked, "{label} rank {}: event {n}", trace.rank);
        }
    }
    assert_eq!(
        c.approx_bytes(),
        c.approx_bytes_walked(),
        "{label} rank {}: at the end",
        trace.rank
    );
    assert_trimmed(&c.finish(trace.app_time), label);
}

/// Every leaf's record list holds exactly its records.
pub fn assert_trimmed(ctt: &Ctt, label: &str) {
    for (gid, d) in ctt.data.iter().enumerate() {
        if let VertexData::Leaf { records } = d {
            assert_eq!(
                records.len(),
                records.capacity(),
                "{label} rank {} vertex {gid}: growth slack in a finished tree",
                ctt.rank
            );
        }
    }
}
