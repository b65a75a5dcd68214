//! End-to-end sequence-preservation tests across the whole pipeline, for
//! every workload: trace → compress → (merge → extract →) decompress must
//! reproduce each rank's exact `(gid, op, params)` sequence.

mod chunked;

use chunked::merge_in_chunks;
use cypress::core::{compress_trace, decompress, merge_all, BinomialMerger, CompressConfig};
use cypress::trace::event::{MpiOp, MpiParams};
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};

type OpSeq = Vec<(u32, MpiOp, MpiParams)>;

fn strip_raw(t: &cypress::trace::RawTrace) -> OpSeq {
    t.mpi_records()
        .map(|r| (r.gid, r.op, r.params.clone()))
        .collect()
}

fn strip_replay(ops: &[cypress::core::ReplayOp]) -> OpSeq {
    ops.iter()
        .map(|o| (o.gid, o.op, o.params.clone()))
        .collect()
}

#[test]
fn every_workload_round_trips_exactly() {
    for name in NPB_NAMES.iter().chain(["jacobi", "leslie3d"].iter()) {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        let cfg = CompressConfig::default();
        for t in &traces {
            let ctt = compress_trace(&info.cst, t, &cfg);
            let replay = decompress(&info.cst, &ctt);
            assert_eq!(
                strip_replay(&replay),
                strip_raw(t),
                "{name}: rank {} sequence not preserved",
                t.rank
            );
        }
    }
}

#[test]
fn merged_extraction_equals_per_rank_compression() {
    for name in ["jacobi", "bt", "mg", "leslie3d"] {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        let cfg = CompressConfig::default();
        let ctts: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &cfg))
            .collect();
        let merged = merge_all(&ctts);
        for t in &traces {
            let extracted = merged.extract_rank(t.rank, &info.cst);
            let replay = decompress(&info.cst, &extracted);
            assert_eq!(
                strip_replay(&replay),
                strip_raw(t),
                "{name}: merged extraction diverged for rank {}",
                t.rank
            );
        }
    }
}

#[test]
fn parallel_merge_structurally_equals_sequential() {
    let w = by_name("mg", 16, Scale::Quick).unwrap();
    let (_, info) = w.compile();
    let traces = w.trace().unwrap();
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    let seq = merge_all(&ctts);
    for k in [2, 4, 7] {
        let par = merge_in_chunks(&ctts, k);
        assert_eq!(seq.group_count(), par.group_count(), "chunks={k}");
        // Extraction must agree rank-for-rank.
        for rank in 0..16 {
            let a = decompress(&info.cst, &seq.extract_rank(rank, &info.cst));
            let b = decompress(&info.cst, &par.extract_rank(rank, &info.cst));
            assert_eq!(strip_replay(&a), strip_replay(&b));
        }
    }
}

#[test]
fn compressed_artifact_survives_serialization() {
    use cypress::trace::codec::Codec;
    let w = by_name("cg", 8, Scale::Quick).unwrap();
    let (_, info) = w.compile();
    let traces = w.trace().unwrap();
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    let merged = merge_all(&ctts);

    // Round-trip the merged trace and the CST text through their formats.
    let merged2 = cypress::core::MergedCtt::from_bytes(&merged.to_bytes()).unwrap();
    let cst2 = cypress::cst::Cst::from_text(&info.cst.to_text()).unwrap();
    assert_eq!(cst2, info.cst);
    for t in &traces {
        let replay = decompress(&cst2, &merged2.extract_rank(t.rank, &cst2));
        assert_eq!(strip_replay(&replay), strip_raw(t), "rank {}", t.rank);
    }
}

#[test]
fn gzip_layer_is_lossless_over_merged_trace() {
    use cypress::deflate::{gzip_compress, gzip_decompress, Level};
    use cypress::trace::codec::Codec;
    let w = by_name("ft", 8, Scale::Quick).unwrap();
    let (_, info) = w.compile();
    let traces = w.trace().unwrap();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
        .collect();
    let merged = merge_all(&ctts);
    let bytes = merged.to_bytes();
    let z = gzip_compress(&bytes, Level::Best);
    assert_eq!(gzip_decompress(&z).unwrap(), bytes.to_vec());
}

#[test]
fn merge_is_associative_over_contiguous_partitions() {
    // DESIGN §5: merging per-rank CTTs must give the same result no matter
    // how the (rank-ordered) reduction tree is shaped. Exercise several
    // random-ish contiguous partitions of the rank range.
    use cypress::trace::codec::Codec;
    let w = by_name("mg", 16, Scale::Quick).unwrap();
    let (_, info) = w.compile();
    let traces = w.trace().unwrap();
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    let reference = merge_all(&ctts);

    let partitions: [&[usize]; 4] = [&[1, 15], &[4, 4, 4, 4], &[7, 2, 7], &[2, 3, 5, 6]];
    for cuts in partitions {
        assert_eq!(cuts.iter().sum::<usize>(), 16);
        let mut merger = BinomialMerger::new(16);
        let mut start = 0;
        for &len in cuts {
            let part = merge_all(&ctts[start..start + len]);
            assert_eq!(merger.add_block(start as u32, len as u32, part), Ok(true));
            start += len;
        }
        let acc = merger.finish();
        assert!(acc.to_bytes() == reference.to_bytes(), "cuts {cuts:?}");
        assert_eq!(acc.group_count(), reference.group_count(), "cuts {cuts:?}");
        for rank in 0..16u32 {
            let a = decompress(&info.cst, &acc.extract_rank(rank, &info.cst));
            let b = decompress(&info.cst, &reference.extract_rank(rank, &info.cst));
            assert_eq!(
                strip_replay(&a),
                strip_replay(&b),
                "cuts {cuts:?} rank {rank}"
            );
        }
    }
}

#[test]
fn trace_parallel_is_deterministic_across_thread_counts() {
    let w = by_name("bt", 9, Scale::Quick).unwrap();
    let t1 = w.trace_parallel(1).unwrap();
    let t3 = w.trace_parallel(3).unwrap();
    let t16 = w.trace_parallel(16).unwrap();
    assert_eq!(t1, t3);
    assert_eq!(t1, t16);
}
