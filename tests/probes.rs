//! The program's probes against its own accounting: the metrics registry
//! must agree exactly with what the sessions counted, come back after a
//! `reset()`, and never change a byte of what the pipeline produces.
//!
//! Every test here flips the process-wide switches, so each holds
//! `obs::test_mutex()`; nothing else in this binary runs a pipeline.

use cypress::core::{merge_all, BinomialMerger};
use cypress::obs;
use cypress::trace::Codec;
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};
use cypress::{CompressedJob, Pipeline, PipelineConfig};

/// Every receive is a wildcard, so each iteration caches one and the
/// `waitall` flushes it.
const WILDCARD_RING: &str = r#"fn main() {
    for k in 0..200 {
        let a = isend((rank() + 1) % size(), 1024, 0);
        let b = irecv(any_source(), 1024, 0);
        waitall(a, b);
    }
    allreduce(8);
}"#;

fn run(src: &str, nprocs: u32) -> CompressedJob {
    Pipeline::new(src)
        .ranks(nprocs)
        .configure(PipelineConfig {
            threads: 2,
            ..PipelineConfig::default()
        })
        .run()
        .expect("pipeline runs")
}

fn value(report: &obs::Report, scope: &str, name: &str) -> Option<i64> {
    report
        .metrics
        .iter()
        .find(|m| m.subsystem == scope && m.name == name)
        .map(|m| m.value)
}

#[test]
fn metrics_survive_reset() {
    let _guard = obs::test_mutex().lock().unwrap();
    obs::reset();
    obs::set_enabled(true);
    run(WILDCARD_RING, 2);
    let first = value(&obs::report(), "compressor", "leaf_fold_hits");
    obs::reset();
    assert!(obs::report().metrics.is_empty(), "reset empties the report");
    run(WILDCARD_RING, 2);
    let second = value(&obs::report(), "compressor", "leaf_fold_hits");
    obs::set_enabled(false);
    obs::reset();
    assert!(first.is_some_and(|hits| hits > 0), "first run: {first:?}");
    assert_eq!(second, first, "the run after reset() reports its own work");
}

/// Every bundled workload at its small process count (8, or the nearest the
/// kernel accepts) plus the wildcard ring, probes off against both planes on.
#[test]
fn aggregated_totals_are_exact_and_probes_change_no_byte() {
    let _guard = obs::test_mutex().lock().unwrap();
    let bundled = NPB_NAMES.iter().copied().chain(["jacobi", "leslie3d"]);
    let mut cases: Vec<(String, String, u32)> = bundled
        .map(|name| {
            let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
            (name.to_owned(), w.source, w.nprocs)
        })
        .collect();
    cases.push(("wildcard-ring".into(), WILDCARD_RING.into(), 8));

    for (name, src, nprocs) in cases {
        let plain = run(&src, nprocs);

        obs::reset();
        obs::trace_reset();
        obs::set_enabled(true);
        obs::set_trace_enabled(true);
        let probed = run(&src, nprocs);
        obs::set_trace_enabled(false);
        obs::set_enabled(false);
        let report = obs::report();
        let dump = obs::trace_drain();
        obs::reset();

        for (a, b) in plain.ctts.iter().zip(&probed.ctts) {
            assert_eq!(a.to_bytes(), b.to_bytes(), "{name}: rank {} moved", a.rank);
        }
        assert_eq!(
            plain.stats, probed.stats,
            "{name}: session accounting moved"
        );

        let events: u64 = probed.stats.iter().map(|s| s.events).sum();
        let mpi_events: u64 = probed.stats.iter().map(|s| s.mpi_events).sum();
        let records: usize = probed.ctts.iter().map(|c| c.record_count()).sum();
        let get = |scope, metric| {
            value(&report, scope, metric).unwrap_or_else(|| panic!("{name}: no {scope}/{metric}"))
        };
        assert_eq!(get("interp", "events_emitted"), events as i64, "{name}");
        assert_eq!(get("session", "events"), events as i64, "{name}");
        assert_eq!(get("session", "finished"), nprocs as i64, "{name}");
        let (hits, misses) = (
            get("compressor", "leaf_fold_hits"),
            get("compressor", "leaf_fold_misses"),
        );
        assert_eq!(hits + misses, mpi_events as i64, "{name}");
        assert_eq!(misses, records as i64, "{name}");
        assert_eq!(
            get("compressor", "wildcard_cached"),
            get("compressor", "wildcard_flushed"),
            "{name}: every cached wildcard receive was completed"
        );
        if name == "wildcard-ring" {
            assert_eq!(get("compressor", "wildcard_cached"), 200 * nprocs as i64);
        }

        // One rank span and one session span per rank on the timeline.
        let spans = |stage: &str| dump.events.iter().filter(|e| e.stage == stage).count();
        assert_eq!(dump.dropped, 0, "{name}");
        assert_eq!(spans("interp"), nprocs as usize, "{name}");
        let session_spans = dump
            .events
            .iter()
            .filter(|e| e.stage == "session" && e.name.starts_with("compress"))
            .count();
        assert_eq!(session_spans, nprocs as usize, "{name}");
    }
}

/// Ranks offered to a `BinomialMerger` one `add` at a time are held as
/// one-rank pieces, as a collector holds streamed ranks: the `merge` scope
/// sees one merge, the one `finish` makes, and its bytes are `merge_all`'s.
#[test]
fn adding_ranks_one_at_a_time_records_one_merge() {
    let _guard = obs::test_mutex().lock().unwrap();
    let nprocs = 8;
    let job = run(WILDCARD_RING, nprocs);
    let want = merge_all(&job.ctts).to_bytes();

    obs::reset();
    obs::set_enabled(true);
    let mut merger = BinomialMerger::new(nprocs);
    for ctt in job.ctts.iter().rev() {
        assert!(merger.add(ctt));
    }
    assert!(!merger.add(&job.ctts[3]), "a repeated rank changes nothing");
    let merged = merger.finish();
    obs::set_enabled(false);
    let report = obs::report();
    obs::reset();

    let merge_ns = report
        .metrics
        .iter()
        .find(|m| m.subsystem == "merge" && m.name == "merge_ns")
        .map(|m| m.count);
    assert_eq!(merge_ns, Some(1), "{nprocs} adds and one finish");
    assert_eq!(merged.to_bytes(), want);
}
