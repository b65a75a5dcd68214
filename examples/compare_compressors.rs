//! Side-by-side comparison of all the trace compressors on one workload —
//! a one-workload slice of Fig. 15 plus losslessness checks.
//!
//! Run with: `cargo run --release --example compare_compressors [workload] [nprocs]`
//! (defaults: `lu 16`; try `sp 16` for CYPRESS's hard case).

use cypress::baselines::{Scala2Merged, Scala2Trace, ScalaMerged, ScalaTrace};
use cypress::core::{compress_trace, decompress, merge_all, CompressConfig};
use cypress::deflate::{gzip_compress, Level};
use cypress::trace::codec::Codec;
use cypress::trace::raw::encode_mpi_events;
use cypress::workloads::{by_name, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("lu");
    let nprocs: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);

    let w =
        by_name(name, nprocs, Scale::Quick).unwrap_or_else(|| panic!("unknown workload {name}"));
    let (_, info) = w.compile();
    let traces = w.trace_parallel(8).expect("trace");
    let events: usize = traces.iter().map(|t| t.mpi_count()).sum();
    println!("workload {name} @ {nprocs} ranks: {events} MPI events\n");

    // Raw + per-rank gzip (no inter-process compression).
    let blobs: Vec<Vec<u8>> = traces.iter().map(encode_mpi_events).collect();
    let raw: usize = blobs.iter().map(Vec::len).sum();
    let gz: usize = blobs
        .iter()
        .map(|b| gzip_compress(b, Level::Default).len())
        .sum();

    // ScalaTrace: lossless RSD folding + O(n²) alignment merge.
    let st: Vec<ScalaTrace> = traces.iter().map(ScalaTrace::compress).collect();
    for (t, s) in traces.iter().zip(&st) {
        assert_eq!(
            s.expand().len(),
            t.mpi_count(),
            "ScalaTrace must be lossless"
        );
    }
    let st_size = ScalaMerged::merge_all(&st).encoded_size();

    // ScalaTrace-2: elastic (partially lossy) folding.
    let st2: Vec<Scala2Trace> = traces.iter().map(Scala2Trace::compress).collect();
    let st2_size = Scala2Merged::merge_all(&st2).encoded_size();

    // CYPRESS: static CST + top-down CTT compression.
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    for (t, ctt) in traces.iter().zip(&ctts) {
        let replay = decompress(&info.cst, ctt);
        assert_eq!(replay.len(), t.mpi_count(), "CYPRESS must be lossless");
    }
    let merged = merge_all(&ctts);
    let cy_size = info.cst.to_text().len() + merged.encoded_size();
    let cy_gz = gzip_compress(&merged.to_bytes(), Level::Default).len()
        + gzip_compress(info.cst.to_text().as_bytes(), Level::Default).len();

    let row = |label: &str, bytes: usize, lossless: &str| {
        println!(
            "{label:<22} {:>12} B  {:>9.1}x  {lossless}",
            bytes,
            raw as f64 / bytes.max(1) as f64
        );
    };
    println!(
        "{:<22} {:>14} {:>10}  sequence fidelity",
        "method", "size", "ratio"
    );
    row("raw", raw, "exact");
    row("gzip (per rank)", gz, "exact");
    row("ScalaTrace", st_size, "exact");
    row("ScalaTrace-2", st2_size, "partial (elastic)");
    row("CYPRESS", cy_size, "exact");
    row("CYPRESS + gzip", cy_gz, "exact");
}
