//! Quickstart: the whole CYPRESS pipeline on the paper's Jacobi example
//! (Fig. 3) through the `Pipeline` facade — static analysis, streaming
//! compression on a work-stealing pool, inter-process merging, container
//! persistence, and sequence-preserving decompression.
//!
//! Run with: `cargo run --example quickstart`

use cypress::trace::codec::Codec;
use cypress::{Pipeline, QueryOptions};

const JACOBI: &str = r#"
    // Simplified MPI program for Jacobi iteration (paper Fig. 3).
    fn main() {
        let r = rank();
        let s = size();
        for k in 0..100 {
            if r < s - 1 { send(r + 1, 8192, 0); }
            if r > 0 { recv(r - 1, 8192, 0); }
            if r > 0 { send(r - 1, 8192, 1); }
            if r < s - 1 { recv(r + 1, 8192, 1); }
            compute(50000);
        }
    }
"#;

fn main() {
    // 1. One builder runs the whole pipeline: parse → CST construction
    //    (CFG → dominators → loops → Algorithm 1 → Algorithm 2) → 16 SPMD
    //    ranks interpreted on a work-stealing pool, each feeding a streaming
    //    compression session — the raw trace never materializes.
    let nprocs = 16;
    let mut job = Pipeline::new(JACOBI)
        .ranks(nprocs)
        .run()
        .expect("pipeline run");

    println!("CST: {}", job.info.cst.to_compact_string());
    println!(
        "     {} vertices, {} MPI leaves, {} instrumentation entries\n",
        job.info.cst.len(),
        job.info.cst.mpi_leaf_count(),
        job.info.sitemap.entry_count()
    );

    // 2. Streaming sessions report what a PMPI tracer would: event counts
    //    and the (flat) peak resident CTT footprint per rank.
    let events: u64 = job.stats.iter().map(|s| s.events).sum();
    println!(
        "streamed {events} events across {nprocs} ranks; peak resident CTT {} B/rank",
        job.peak_ctt_bytes()
    );
    println!(
        "per-rank compressed records: {:?}",
        job.ctts
            .iter()
            .map(|c| c.record_count())
            .collect::<Vec<_>>()
    );

    // 3. Inter-process merge: O(n) per pair thanks to the shared tree shape.
    let merged_bytes = job.merge().encoded_size();
    println!(
        "merged CTT: {} rank groups, {merged_bytes} bytes",
        job.merge().group_count()
    );

    // 4. Persist as a versioned, CRC-checked container and reopen it — no
    //    re-simulation needed on the read side. The handle is the trace
    //    store's `StoreJob`; with no per-rank sections it answers from the
    //    merged tree.
    let path = std::env::temp_dir().join("cypress-quickstart.cytc");
    job.write_container(&path, false).expect("write container");
    let loaded = cypress::read_container(&path).expect("read container");
    let calls = |q: cypress::query::QueryResult| q.total_calls();
    assert_eq!(
        calls(loaded.query(&QueryOptions::default()).expect("query file")),
        calls(job.query().expect("query job"))
    );

    // 5. Decompression (from the reloaded file!) preserves each rank's
    //    exact sequence.
    for rank in 0..nprocs {
        let from_disk = loaded.decompress(rank).expect("decompress loaded");
        let in_memory = job.decompress(rank).expect("decompress job");
        assert_eq!(
            from_disk.len(),
            in_memory.len(),
            "rank {rank} sequence mismatch"
        );
        for (a, b) in from_disk.iter().zip(&in_memory) {
            assert_eq!((a.gid, a.op), (b.gid, b.op), "rank {rank} op mismatch");
        }
    }
    let _ = std::fs::remove_file(&path);
    println!("\ncontainer round trip + sequence preservation verified for all {nprocs} ranks ✓");
}
