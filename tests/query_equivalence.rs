//! Compressed-domain query equivalence over every bundled workload.
//!
//! The query engine's contract is *exact* equality with the
//! decompress-then-analyze reference — not approximate, not "close enough
//! for a heatmap". These tests pin that contract for the paper's workloads
//! (Jacobi, the eight NPB skeletons, LESLIE3D) across every evaluation
//! path: per-rank CTTs, the merged CTT, forced partial expansion, and a
//! container round trip through the `Pipeline` facade.

use cypress::core::{compress_trace, merge_all, CompressConfig};
use cypress::query::{
    query_by_decompression, query_ctts, query_merged, QueryOptions, QueryResult, StrategyUsed,
    Window,
};
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};
use cypress::{read_container, Pipeline};

fn assert_same(name: &str, q: &QueryResult, r: &QueryResult) {
    assert_eq!(q.nprocs, r.nprocs, "{name}: nprocs");
    assert_eq!(q.matrix, r.matrix, "{name}: comm matrix diverged");
    assert_eq!(q.profile, r.profile, "{name}: profile diverged");
    assert_eq!(q.totals, r.totals, "{name}: rank totals diverged");
    assert_eq!(q.hotspots, r.hotspots, "{name}: hot spots diverged");
    assert_eq!(q.loop_trips, r.loop_trips, "{name}: loop trips diverged");
}

fn all_workloads() -> impl Iterator<Item = &'static str> {
    NPB_NAMES
        .iter()
        .chain(["jacobi", "leslie3d"].iter())
        .copied()
}

#[test]
fn symbolic_query_equals_reference_for_every_workload() {
    for name in all_workloads() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        let cfg = CompressConfig::default();
        let ctts: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &cfg))
            .collect();

        let q = query_ctts(&info.cst, &ctts, &QueryOptions::default()).unwrap();
        let r = query_by_decompression(&info.cst, &ctts).unwrap();
        assert_same(name, &q, &r);

        // Hot-spot attribution must account for every byte in the matrix.
        assert_eq!(
            q.hotspot_volume(),
            q.total_volume(),
            "{name}: hot-spot bytes do not sum to total volume"
        );
        // EP (embarrassingly parallel) and FT (FFT transpose via
        // collectives) do no point-to-point traffic, so their matrices are
        // legitimately empty; everything else must show volume.
        if !matches!(name, "ep" | "ft") {
            assert!(q.total_volume() > 0, "{name}: workload moved no bytes");
        }
    }
}

#[test]
fn merged_query_equals_extracted_rank_reference() {
    for name in all_workloads() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        let cfg = CompressConfig::default();
        let ctts: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &cfg))
            .collect();
        let merged = merge_all(&ctts);

        let q = query_merged(&info.cst, &merged, &QueryOptions::default()).unwrap();
        let extracted: Vec<_> = (0..merged.nprocs)
            .map(|rank| merged.extract_rank(rank, &info.cst))
            .collect();
        let r = query_by_decompression(&info.cst, &extracted).unwrap();
        assert_same(name, &q, &r);
    }
}

#[test]
fn forced_partial_expansion_equals_symbolic() {
    for name in ["jacobi", "cg", "lu", "leslie3d"] {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        let cfg = CompressConfig::default();
        let ctts: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &cfg))
            .collect();

        // A full-span window is how a caller forces partial expansion.
        let exp = QueryOptions {
            window: Some(Window {
                start_ns: 0,
                end_ns: u64::MAX,
            }),
        };
        let q = query_ctts(&info.cst, &ctts, &QueryOptions::default()).unwrap();
        let r = query_ctts(&info.cst, &ctts, &exp).unwrap();
        assert_eq!(q.strategy, StrategyUsed::Symbolic, "{name}");
        assert_eq!(r.strategy, StrategyUsed::PartialExpansion, "{name}");
        assert_same(name, &q, &r);
    }
}

#[test]
fn container_round_trip_preserves_query_results() {
    let dir = std::env::temp_dir().join(format!("cypress_query_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let opts = QueryOptions::default();

    for name in ["jacobi", "mg", "leslie3d"] {
        let nprocs = quick_procs(name);
        let w = by_name(name, nprocs, Scale::Quick).unwrap();
        let mut job = Pipeline::new(&w.source).ranks(nprocs).run().unwrap();
        let direct = job.query().unwrap();

        // With per-rank sections present the loaded query must be
        // bit-identical to the in-memory one.
        let path = dir.join(format!("{name}_ranks.cytc"));
        job.write_container(&path, true).unwrap();
        let q = read_container(&path).unwrap().query(&opts).unwrap();
        assert_same(&format!("{name} per_rank"), &q, &direct);

        // A merged-only container evaluates on the merged CTT, whose
        // TimeStats are aggregated across each group's member ranks — the
        // profile's timing means may shift, but every count, byte, and
        // attribution must still match exactly.
        let path = dir.join(format!("{name}_merged.cytc"));
        job.write_container(&path, false).unwrap();
        let q = read_container(&path).unwrap().query(&opts).unwrap();
        let ctx = format!("{name} merged");
        assert_eq!(q.matrix, direct.matrix, "{ctx}: comm matrix diverged");
        assert_eq!(q.totals, direct.totals, "{ctx}: rank totals diverged");
        assert_eq!(q.hotspots, direct.hotspots, "{ctx}: hot spots diverged");
        assert_eq!(
            q.loop_trips, direct.loop_trips,
            "{ctx}: loop trips diverged"
        );
        for (op, s) in &direct.profile.by_op {
            let m = q
                .profile
                .by_op
                .get(op)
                .unwrap_or_else(|| panic!("{ctx}: {op:?} missing"));
            assert_eq!(m.calls, s.calls, "{ctx}: {op:?} call count diverged");
            assert_eq!(m.total_bytes, s.total_bytes, "{ctx}: {op:?} bytes diverged");
        }
        assert_eq!(
            q.profile.size_buckets, direct.profile.size_buckets,
            "{ctx}: size buckets"
        );
        assert_eq!(
            q.profile.rank_app_time, direct.profile.rank_app_time,
            "{ctx}: app times"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
