//! Work on the compressed form is proportional to |CTT|, not to events.
//!
//! These two tests replace the `scaling` series of the retired
//! `results/BENCH_analysis.json` and `results/BENCH_query.json` (the
//! `bench_analysis` / `bench_query` trip-count sweeps), the only rows of
//! `crates/bench/benches/` that `benchmark/` has no per-layer metric for.
//! Both series ran one ring stencil at P = 4 with the outer trip count swept
//! 10 → 10 000 and gated "native cost flat in trips" on nanoseconds against
//! a committed baseline with a 30% floor. The claim is asymptotic, so it is
//! stated here as operation counts: how many ops the simulator was fed, how
//! many records the fold walked. Counts are exact and identical on every
//! machine and in every build profile, so a lowering or extrapolation
//! regression fails here every time; a clock on a loaded 2-core box did not.

use cypress::analysis::{
    analyze_by_decompression, analyze_ctts, AnalysisStats, AnalyzeOptions, AnalyzeReport,
};
use cypress::query::{query_by_decompression, query_ctts, QueryOptions, QueryResult, StrategyUsed};
use cypress::simmpi::LogGp;
use cypress::{CompressedJob, Pipeline};

const NPROCS: u32 = 4;
const TRIPS: [u64; 4] = [10, 100, 1_000, 10_000];
/// The decompress-everything oracles are superlinear in events; past this
/// point only the native paths run (the counts alone carry the claim).
const ORACLE_MAX_TRIPS: u64 = 1_000;
/// MPI calls per trip over the four ranks: the two edge ranks make three
/// (one send, one recv, the allreduce), the two interior ranks five.
const CALLS_PER_TRIP: u64 = 16;

/// Steady-state ring stencil: every rank does the same work each trip, so
/// the loop folds to the same records at every trip count, lowers
/// symbolically, and replays to a uniform-delta cycle the simulator can
/// extrapolate. Events scale with `trips`; the CTT does not.
fn stencil(trips: u64) -> CompressedJob {
    let src = format!(
        r#"fn main() {{
    let r = rank();
    let s = size();
    for it in 0..{trips} {{
        if r > 0 {{ send(r - 1, 8192, 0); }}
        if r < s - 1 {{ recv(r + 1, 8192, 0); }}
        if r < s - 1 {{ send(r + 1, 8192, 1); }}
        if r > 0 {{ recv(r - 1, 8192, 1); }}
        allreduce(64);
    }}
}}"#
    );
    let job = Pipeline::new(src)
        .ranks(NPROCS)
        .run()
        .expect("stencil runs");
    assert_eq!(
        job.total_events(),
        CALLS_PER_TRIP * trips,
        "{trips} trips: traced events"
    );
    job
}

fn record_count(job: &CompressedJob) -> usize {
    job.ctts.iter().map(|c| c.record_count()).sum()
}

/// Replaces `BENCH_analysis.json` `scaling` (fed_ops 32 at all four points,
/// extrapolated_trips 8 / 98 / 998 / 9 998).
#[test]
fn native_analysis_feeds_the_same_ops_at_every_trip_count() {
    let model = LogGp::default();
    let opts = AnalyzeOptions::default();
    let analyze = |trips: u64| -> (AnalyzeReport, usize) {
        let job = stencil(trips);
        let native = analyze_ctts(&job.info.cst, &job.ctts, &model, &opts).expect("native");
        if trips <= ORACLE_MAX_TRIPS {
            let oracle =
                analyze_by_decompression(&job.info.cst, &job.ctts, &model, &opts).expect("oracle");
            // Effort stats legitimately differ; the answers may not.
            assert_eq!(native.nprocs, oracle.nprocs, "{trips} trips: nprocs");
            assert_eq!(
                native.measured_app_ns, oracle.measured_app_ns,
                "{trips} trips: measured makespan"
            );
            assert_eq!(
                native.predicted, oracle.predicted,
                "{trips} trips: prediction"
            );
            assert_eq!(native.waits, oracle.waits, "{trips} trips: wait states");
            assert_eq!(
                oracle.stats.fed_ops,
                CALLS_PER_TRIP * trips,
                "{trips} trips: the oracle feeds every op"
            );
        }
        (native, record_count(&job))
    };

    let runs = TRIPS.map(analyze);
    let (base, base_records) = &runs[0];
    assert_eq!(
        (base.stats.fed_ops, *base_records),
        (32, 16),
        "{} trips: two trips of 16 ops fed, 16 CTT records",
        TRIPS[0]
    );
    for (trips, (report, records)) in TRIPS.into_iter().zip(&runs) {
        let AnalysisStats {
            fed_ops,
            logical_ops,
            extrapolated_trips,
            symbolic_loops,
            unrolled_loops,
            ..
        } = report.stats;
        assert_eq!(
            fed_ops, base.stats.fed_ops,
            "{trips} trips fed {fed_ops} ops to the simulator, {} trips fed {}",
            TRIPS[0], base.stats.fed_ops
        );
        assert_eq!(
            records, base_records,
            "{trips} trips hold {records} CTT records, {} trips hold {base_records}",
            TRIPS[0]
        );
        assert_eq!(
            extrapolated_trips,
            trips - 2,
            "{trips} trips: {extrapolated_trips} extrapolated, all but the two fed expected"
        );
        assert_eq!(
            logical_ops,
            CALLS_PER_TRIP * trips,
            "{trips} trips: {logical_ops} logical ops"
        );
        assert_eq!(
            (symbolic_loops, unrolled_loops),
            (1, 0),
            "{trips} trips: the loop must lower symbolically"
        );
    }
}

/// Replaces `BENCH_query.json` `scaling` (ctt_records 16 at every point).
#[test]
fn symbolic_query_folds_the_same_records_at_every_trip_count() {
    let query = |trips: u64| -> (QueryResult, usize) {
        let job = stencil(trips);
        let q = query_ctts(&job.info.cst, &job.ctts, &QueryOptions::default()).expect("query");
        assert_eq!(
            q.strategy,
            StrategyUsed::Symbolic,
            "{trips} trips: evaluated via {}",
            q.strategy.name()
        );
        if trips <= ORACLE_MAX_TRIPS {
            let r = query_by_decompression(&job.info.cst, &job.ctts).expect("reference");
            assert_eq!(q.matrix, r.matrix, "{trips} trips: comm matrix");
            assert_eq!(q.profile, r.profile, "{trips} trips: profile");
            assert_eq!(q.totals, r.totals, "{trips} trips: rank totals");
            assert_eq!(q.hotspots, r.hotspots, "{trips} trips: hot spots");
            assert_eq!(q.loop_trips, r.loop_trips, "{trips} trips: loop trips");
        }
        (q, record_count(&job))
    };

    let runs = TRIPS.map(query);
    let (base, base_records) = &runs[0];
    for (trips, (q, records)) in TRIPS.into_iter().zip(&runs) {
        assert_eq!(
            records, base_records,
            "{trips} trips folded {records} CTT records, {} trips folded {base_records}",
            TRIPS[0]
        );
        assert_eq!(
            q.loop_trips,
            u64::from(NPROCS) * trips,
            "{trips} trips: {} loop trips over {NPROCS} ranks",
            q.loop_trips
        );
        assert_eq!(
            q.total_calls(),
            CALLS_PER_TRIP * trips,
            "{trips} trips: {} calls",
            q.total_calls()
        );
        // Twice the trips, twice every answer — from the same records.
        let scale = trips / TRIPS[0];
        assert_eq!(
            q.total_volume(),
            base.total_volume() * scale,
            "{trips} trips: volume {} is not {scale}x the {}-trip volume {}",
            q.total_volume(),
            TRIPS[0],
            base.total_volume()
        );
    }
}
