//! Trace-store and query-daemon cost, emitted as `results/BENCH_store.json`.
//!
//! Four series over a store directory of 1k+ containers (all clones of a
//! compressed jacobi job, so every open does real work — file read, image
//! CRC, section inflation, pooled CTT decode):
//!
//! * `open/cold` — open + first query with an LRU budget of one job, so
//!   every open misses and reloads from disk.
//! * `open/hot`  — open + query of a resident job: the LRU lookup is all
//!   that stands before the query. The headline assertion is that this is
//!   at least 10× below cold — the reason a *resident* daemon exists.
//! * `serve/warm` — round-robin queries over a resident working set.
//! * `serve/remote` — the same query through a loopback `queryd` daemon on
//!   a persistent connection (adds framing + TCP round trip).
//!
//! A final identity sweep queries bundled workloads through the local
//! engine, the store, and the daemon, asserting byte-identical answers.
//!
//! JSON schema (`bench_store/v1`):
//!
//! ```json
//! { "schema": "bench_store/v1", "jobs": 1024,
//!   "open":  [ { "mode": "cold", "open_query_ns": 1.0, "qps": 2.0 } ],
//!   "serve": [ { "mode": "warm", "open_query_ns": 1.0, "qps": 2.0 } ],
//!   "hot_vs_cold": 25.0,
//!   "workloads": [ { "name": "jacobi", "nprocs": 8, "identical": true } ],
//!   "store_stats": { "hits": 1, "misses": 1, "evictions": 1, "loads": 1 } }
//! ```

use cypress_bench::harness;
use cypress_core::{compress_trace, merge_all, CompressConfig};
use cypress_query::QueryOptions;
use cypress_store::{JobStore, QueryClient, StoreConfig, StoreJob};
use cypress_trace::{Codec, Container, SectionKind};
use cypress_workloads::{by_name, quick_procs, Scale};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Compile, trace, and compress a bundled workload into a deflated
/// container image (CST + merged + per-rank sections).
fn build_image(name: &str) -> (Vec<u8>, u32) {
    let nprocs = quick_procs(name);
    let w = by_name(name, nprocs, Scale::Quick).unwrap();
    let (_, info) = w.compile();
    let traces = w.trace_parallel(workers()).expect("workload runs");
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    let merged = merge_all(&ctts);
    let mut c = Container::new(nprocs);
    c.push(SectionKind::CstText, None, info.cst.to_text().into_bytes());
    c.push(SectionKind::MergedCtt, None, merged.to_bytes());
    for ctt in &ctts {
        c.push(SectionKind::RankCtt, Some(ctt.rank), ctt.to_bytes());
    }
    (c.to_bytes_with(Some(cypress_deflate::Level::Fast)), nprocs)
}

struct TempStore(PathBuf);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Populate `jobs` clone containers plus one `.cytc` per bundled workload.
fn populate(dir: &Path, image: &[u8], jobs: usize, workloads: &[(&str, Vec<u8>)]) {
    std::fs::create_dir_all(dir).unwrap();
    for i in 0..jobs {
        std::fs::write(dir.join(format!("job-{i:04}.cytc")), image).unwrap();
    }
    for (name, image) in workloads {
        std::fs::write(dir.join(format!("{name}.cytc")), image).unwrap();
    }
}

fn qps(mean_ns: f64) -> f64 {
    1e9 / mean_ns.max(1.0)
}

fn row(mode: &str, mean_ns: f64) -> String {
    format!(
        "{{\"mode\":\"{mode}\",\"open_query_ns\":{:.1},\"qps\":{:.1}}}",
        mean_ns,
        qps(mean_ns)
    )
}

fn main() {
    let fast = std::env::var("CYPRESS_BENCH_FAST").is_ok();
    let jobs: usize = if fast { 128 } else { 1024 };
    let working_set = 64.min(jobs);

    let (image, _) = build_image("jacobi");
    let workload_names: &[&str] = if fast {
        &["jacobi", "cg"]
    } else {
        &["jacobi", "cg", "dt", "mg"]
    };
    let workload_images: Vec<(&str, Vec<u8>)> = workload_names
        .iter()
        .map(|&n| (n, build_image(n).0))
        .collect();

    let dir = std::env::temp_dir().join(format!("cypress-bench-store-{}", std::process::id()));
    let _cleanup = TempStore(dir.clone());
    populate(&dir, &image, jobs, &workload_images);
    let opts = QueryOptions::default();

    // Cold: LRU budget of one job — every open is a miss and reloads.
    let cold_store = JobStore::new(
        &dir,
        StoreConfig {
            max_jobs: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut next = 0usize;
    let cold = harness::run("store/open/cold", || {
        let name = format!("job-{:04}", next % jobs);
        next += 1;
        cold_store
            .open(&name)
            .unwrap()
            .query(&opts)
            .expect("cold query")
    });

    // Hot: the job stays resident; open is an LRU lookup.
    let store = Arc::new(JobStore::new(&dir, StoreConfig::default()).unwrap());
    store.open("job-0000").unwrap();
    let hot = harness::run("store/open/hot", || {
        store
            .open("job-0000")
            .unwrap()
            .query(&opts)
            .expect("hot query")
    });

    // Warm working set: round-robin hits across `working_set` residents.
    for i in 0..working_set {
        store.open(&format!("job-{i:04}")).unwrap();
    }
    let mut rr = 0usize;
    let warm = harness::run("store/serve/warm", || {
        let name = format!("job-{:04}", rr % working_set);
        rr += 1;
        store.open(&name).unwrap().query(&opts).expect("warm query")
    });

    // Remote: the same hot query through a loopback daemon, one persistent
    // connection.
    let addr = cypress_net::Addr::parse("127.0.0.1:0").unwrap();
    let server = cypress_store::spawn(store.clone(), &addr).unwrap();
    let timeout = Duration::from_secs(20);
    let mut client = QueryClient::connect(server.addr(), timeout).unwrap();
    let remote = harness::run("store/serve/remote", || {
        client.query_raw("job-0000", &opts).expect("remote query")
    });

    // Identity sweep: a one-shot local open (what `cypress query FILE`
    // does) vs the resident store vs the daemon, per bundled workload,
    // byte-for-byte.
    let mut workload_rows = Vec::new();
    let mut all_identical = true;
    for &name in workload_names {
        let local = StoreJob::open(&dir.join(format!("{name}.cytc")), name)
            .and_then(|job| job.query(&opts))
            .expect("local query");
        let via_store = store.open(name).unwrap().query(&opts).expect("store query");
        let via_daemon = QueryClient::connect(server.addr(), timeout)
            .unwrap()
            .query_raw(name, &opts)
            .expect("daemon query");
        let identical = via_store.to_bytes() == local.to_bytes() && via_daemon == local.to_bytes();
        all_identical &= identical;
        workload_rows.push(format!(
            "{{\"name\":\"{name}\",\"nprocs\":{},\"identical\":{identical}}}",
            local.nprocs
        ));
    }
    let stats = store.stats();
    server.stop();

    let hot_vs_cold = cold.mean_ns / hot.mean_ns.max(1.0);
    let mut json = format!("{{\"schema\":\"bench_store/v1\",\"jobs\":{jobs},\"open\":[");
    json.push_str(&row("cold", cold.mean_ns));
    json.push(',');
    json.push_str(&row("hot", hot.mean_ns));
    json.push_str("],\"serve\":[");
    json.push_str(&row("warm", warm.mean_ns));
    json.push(',');
    json.push_str(&row("remote", remote.mean_ns));
    json.push_str(&format!(
        "],\"hot_vs_cold\":{hot_vs_cold:.3},\"workloads\":["
    ));
    json.push_str(&workload_rows.join(","));
    json.push_str(&format!(
        "],\"store_stats\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"loads\":{}}}}}\n",
        stats.hits, stats.misses, stats.evictions, stats.loads
    ));

    let results = std::env::var("CYPRESS_RESULTS_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").to_owned());
    let path = std::path::Path::new(&results).join("BENCH_store.json");
    cypress_obs::write_atomic(&path, json.as_bytes()).expect("write BENCH_store.json");
    println!("wrote {}", path.display());

    assert!(all_identical, "store/daemon answers diverged from local");
    // The resident-daemon claim: a hot open+query must beat a cold
    // open+query by at least an order of magnitude.
    assert!(
        hot_vs_cold >= 10.0,
        "expected hot open+query ≥10× below cold (got {hot_vs_cold:.1}×)"
    );
}
