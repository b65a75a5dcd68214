//! Store correctness: LRU residency, duplicate-open coalescing, exact
//! budget accounting, handle validity across eviction, and the loopback
//! daemon path.

use cypress_core::{compress_trace, merge_all, CompressConfig, Ctt};
use cypress_cst::{analyze_program, Cst};
use cypress_minilang::{check_program, parse};
use cypress_query::{query_ctts, QueryOptions};
use cypress_runtime::{trace_program, InterpConfig};
use cypress_store::{query_remote, JobStore, QueryClient, StoreConfig, StoreError, StoreJob};
use cypress_trace::{assemble, encode_payload, Codec, Container, SectionKind};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A unique, self-cleaning store directory.
struct TempStore(PathBuf);

impl TempStore {
    fn new() -> TempStore {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cypress-store-test-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempStore(dir)
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build a complete job container (CST + merged + per-rank CTTs), write it
/// as `<name>.cytc` under `dir`, and return the CST and the in-memory CTTs.
fn write_job(dir: &Path, name: &str, src: &str, nprocs: u32) -> (Cst, Vec<Ctt>) {
    let prog = parse(src).unwrap();
    check_program(&prog).unwrap();
    let info = analyze_program(&prog);
    let traces = trace_program(&prog, &info, nprocs, &InterpConfig::default()).unwrap();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
        .collect();
    let level = Some(cypress_deflate::Level::Fast);
    let section = |kind, rank, payload: &[u8]| encode_payload(kind, rank, payload, level);
    let mut encoded = vec![
        section(SectionKind::CstText, None, info.cst.to_text().as_bytes()),
        section(SectionKind::MergedCtt, None, &merge_all(&ctts).to_bytes()),
    ];
    encoded.extend(
        ctts.iter()
            .map(|c| section(SectionKind::RankCtt, Some(c.rank), &c.to_bytes())),
    );
    let path = dir.join(format!("{name}.cytc"));
    Container::write_image(path, &assemble(nprocs, &encoded)).unwrap();
    (info.cst, ctts)
}

const PROG: &str = r#"fn main() {
    for i in 0..40 {
        if rank() % 2 == 0 { send(rank() + 1, 512, 3); }
        else { recv(rank() - 1, 512, 3); }
        allreduce(16);
    }
}"#;

#[test]
fn open_query_matches_query_ctts_on_the_ctts_written() {
    let tmp = TempStore::new();
    let (cst, ctts) = write_job(&tmp.0, "job-a", PROG, 4);
    let store = JobStore::new(&tmp.0, StoreConfig::default()).unwrap();
    let job = store.open("job-a").unwrap();
    let from_store = job.query(&QueryOptions::default()).unwrap();

    // Reference: the owned CTTs the image was written from, straight into
    // the engine — no file, no store, no slabs.
    let reference = query_ctts(&cst, &ctts, &QueryOptions::default()).unwrap();
    assert_eq!(from_store, reference);
    assert_eq!(from_store.to_bytes(), reference.to_bytes());
}

/// A rank section's header must name the rank its payload holds, and name
/// it once: a writer stores no merged tree beside a complete rank set, so a
/// mislabelled or repeated section would open as a job no query can answer.
#[test]
fn open_refuses_mislabelled_or_repeated_rank_sections() {
    let tmp = TempStore::new();
    let (cst, ctts) = write_job(&tmp.0, "good", PROG, 4);
    let open = |name: &str, labels: [u32; 4], payloads: [usize; 4]| {
        let mut encoded = vec![encode_payload(
            SectionKind::CstText,
            None,
            cst.to_text().as_bytes(),
            None,
        )];
        encoded.extend(labels.iter().zip(payloads).map(|(&label, i)| {
            encode_payload(SectionKind::RankCtt, Some(label), ctts[i].to_bytes(), None)
        }));
        let path = tmp.0.join(format!("{name}.cytc"));
        Container::write_image(&path, &assemble(4, &encoded)).unwrap();
        StoreJob::open(&path, name)
    };
    assert!(open("ordered", [0, 1, 2, 3], [0, 1, 2, 3])
        .unwrap()
        .has_complete_rank_set());
    assert!(open("any-order", [3, 1, 0, 2], [3, 1, 0, 2])
        .unwrap()
        .has_complete_rank_set());

    let err = open("swapped", [1, 0, 2, 3], [0, 1, 2, 3]).err().unwrap();
    assert!(matches!(err, StoreError::Invalid(_)), "{err}");
    assert_eq!(
        err.to_string(),
        "rank-ctt section [1] is labelled rank 1 but holds the CTT of rank 0"
    );
    let err = open("repeated", [0, 1, 2, 0], [0, 1, 2, 0]).err().unwrap();
    assert!(matches!(err, StoreError::Invalid(_)), "{err}");
    assert_eq!(
        err.to_string(),
        "rank-ctt sections [1] and [4] both hold rank 0"
    );
}

/// Trees from another program's run do not fit the container's CST: `open`
/// refuses them, naming the section, before a query, an analysis or a
/// replay walks a tree against the wrong CST.
#[test]
fn open_refuses_trees_that_do_not_fit_the_cst() {
    let tmp = TempStore::new();
    let (cst, _) = write_job(&tmp.0, "ring", PROG, 4);
    let (_, other) = write_job(&tmp.0, "other", "fn main() { barrier(); }", 4);
    let open = |name: &str, trees: Vec<(SectionKind, Option<u32>, Vec<u8>)>| {
        let mut encoded = vec![encode_payload(
            SectionKind::CstText,
            None,
            cst.to_text().as_bytes(),
            None,
        )];
        encoded.extend(
            trees
                .iter()
                .map(|(kind, rank, bytes)| encode_payload(*kind, *rank, bytes, None)),
        );
        let path = tmp.0.join(format!("{name}.cytc"));
        Container::write_image(&path, &assemble(4, &encoded)).unwrap();
        StoreJob::open(&path, name)
    };
    let ranks = other
        .iter()
        .map(|c| (SectionKind::RankCtt, Some(c.rank), c.to_bytes()))
        .collect();
    let err = open("misfit-ranks", ranks).err().unwrap();
    assert!(matches!(err, StoreError::Invalid(_)), "{err}");
    assert_eq!(
        err.to_string(),
        format!(
            "rank-ctt section [1] (rank 0): tree has 2 vertices, the job's CST {}",
            cst.len()
        )
    );
    let merged = vec![(SectionKind::MergedCtt, None, merge_all(&other).to_bytes())];
    let err = open("misfit-merged", merged).err().unwrap();
    assert!(matches!(err, StoreError::Invalid(_)), "{err}");
    assert_eq!(
        err.to_string(),
        format!(
            "merged-ctt section [1]: tree has 2 vertices, the job's CST {}",
            cst.len()
        )
    );
}

#[test]
fn hits_require_no_filesystem() {
    let tmp = TempStore::new();
    write_job(&tmp.0, "hot", PROG, 2);
    let store = JobStore::new(&tmp.0, StoreConfig::default()).unwrap();
    let first = store.open("hot").unwrap();
    // Delete the backing file: the resident handle must keep serving.
    std::fs::remove_file(tmp.0.join("hot.cytc")).unwrap();
    let second = store.open("hot").unwrap();
    assert!(Arc::ptr_eq(&first, &second));
    assert!(second.query(&QueryOptions::default()).is_ok());
    let s = store.stats();
    assert_eq!((s.loads, s.hits, s.misses), (1, 1, 1));
}

#[test]
fn lru_evicts_least_recently_used_and_accounts_exactly() {
    let tmp = TempStore::new();
    for name in ["a", "b", "c"] {
        write_job(&tmp.0, name, PROG, 2);
    }
    let store = JobStore::new(
        &tmp.0,
        StoreConfig {
            max_jobs: 2,
            ..Default::default()
        },
    )
    .unwrap();
    let a = store.open("a").unwrap();
    let b = store.open("b").unwrap();
    store.open("a").unwrap(); // a is now more recent than b
    store.open("c").unwrap(); // exceeds max_jobs=2 → evicts b (LRU)
    let mut resident = store.resident_names();
    resident.sort();
    assert_eq!(resident, ["a", "c"]);
    let s = store.stats();
    assert_eq!(s.evictions, 1);
    assert_eq!(s.resident_jobs, 2);
    let expected: usize = ["a", "c"]
        .iter()
        .map(|n| store.open(n).unwrap().resident_bytes())
        .sum();
    assert_eq!(s.resident_bytes, expected, "byte accounting must be exact");

    // The evicted handle is unpinned, not invalidated.
    assert!(b.query(&QueryOptions::default()).is_ok());
    drop(a);
    // Reopening the evicted job is a fresh load.
    let b2 = store.open("b").unwrap();
    assert!(!Arc::ptr_eq(&b, &b2));
    assert_eq!(store.stats().loads, 4);
}

#[test]
fn byte_budget_evicts_to_fit() {
    let tmp = TempStore::new();
    write_job(&tmp.0, "x", PROG, 2);
    write_job(&tmp.0, "y", PROG, 2);
    let probe_store = JobStore::new(&tmp.0, StoreConfig::default()).unwrap();
    let one_job = probe_store.open("x").unwrap().resident_bytes();

    // Budget fits one job but not two.
    let store = JobStore::new(
        &tmp.0,
        StoreConfig {
            max_bytes: one_job + one_job / 2,
            ..Default::default()
        },
    )
    .unwrap();
    store.open("x").unwrap();
    store.open("y").unwrap();
    let s = store.stats();
    assert_eq!(s.evictions, 1);
    assert_eq!(s.resident_jobs, 1);
    assert_eq!(store.resident_names(), ["y"]);
    assert!(s.resident_bytes <= store.config().max_bytes);
}

#[test]
fn duplicate_cold_opens_coalesce_into_one_load() {
    let tmp = TempStore::new();
    write_job(&tmp.0, "shared", PROG, 4);
    let store = Arc::new(JobStore::new(&tmp.0, StoreConfig::default()).unwrap());
    let n = 8;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let store = store.clone();
            let barrier = barrier.clone();
            std::thread::spawn(move || {
                barrier.wait();
                store.open("shared").unwrap()
            })
        })
        .collect();
    let jobs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for j in &jobs[1..] {
        assert!(Arc::ptr_eq(&jobs[0], j), "all openers share one handle");
    }
    assert_eq!(store.stats().loads, 1, "exactly one container load");
}

#[test]
fn concurrent_readers_survive_evictions() {
    let tmp = TempStore::new();
    for i in 0..6 {
        write_job(&tmp.0, &format!("job{i}"), PROG, 2);
    }
    let store = Arc::new(
        JobStore::new(
            &tmp.0,
            StoreConfig {
                max_jobs: 1,
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let baseline = store
        .open("job0")
        .unwrap()
        .query(&QueryOptions::default())
        .unwrap()
        .to_bytes();

    let readers: Vec<_> = (0..4)
        .map(|t| {
            let store = store.clone();
            let baseline = baseline.clone();
            std::thread::spawn(move || {
                for i in 0..20 {
                    // Round-robin opens force constant eviction (max_jobs=1)
                    // while other threads hold and query evicted handles.
                    let job = store.open(&format!("job{}", (t + i) % 6)).unwrap();
                    let got = job.query(&QueryOptions::default()).unwrap().to_bytes();
                    assert_eq!(got, baseline, "all jobs share a program");
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    let s = store.stats();
    assert!(s.resident_jobs <= 1);
    assert!(s.evictions > 0);
}

#[test]
fn invalid_names_and_missing_jobs_are_clean_errors() {
    let tmp = TempStore::new();
    let store = JobStore::new(&tmp.0, StoreConfig::default()).unwrap();
    for bad in ["", "../escape", "a/b", ".hidden"] {
        assert!(
            matches!(store.open(bad), Err(StoreError::Invalid(_))),
            "{bad:?}"
        );
    }
    assert!(matches!(store.open("nope"), Err(StoreError::NotFound(_))));
    assert!(!store.contains("nope"));
}

#[test]
fn list_scans_cytc_stems() {
    let tmp = TempStore::new();
    write_job(&tmp.0, "beta", PROG, 2);
    write_job(&tmp.0, "alpha", PROG, 2);
    std::fs::write(tmp.0.join("notes.txt"), b"ignored").unwrap();
    let store = JobStore::new(&tmp.0, StoreConfig::default()).unwrap();
    assert_eq!(store.list().unwrap(), ["alpha", "beta"]);
    assert!(store.contains("alpha"));
}

#[test]
fn queryd_loopback_byte_identical_and_persistent() {
    let tmp = TempStore::new();
    write_job(&tmp.0, "served", PROG, 4);
    let store = Arc::new(JobStore::new(&tmp.0, StoreConfig::default()).unwrap());
    let local = store
        .open("served")
        .unwrap()
        .query(&QueryOptions::default())
        .unwrap();

    let addr = cypress_net::Addr::parse("127.0.0.1:0").unwrap();
    let server = cypress_store::spawn(store.clone(), &addr).unwrap();
    let timeout = Duration::from_secs(10);

    let mut client = QueryClient::connect(server.addr(), timeout).unwrap();
    // Persistent connection: several requests, including raw-blob identity.
    let raw = client
        .query_raw("served", &QueryOptions::default())
        .unwrap();
    assert_eq!(
        raw,
        local.to_bytes(),
        "remote blob == local canonical bytes"
    );
    let decoded = client.query("served", &QueryOptions::default()).unwrap();
    assert_eq!(decoded, local);
    assert_eq!(decoded.render_json(), local.render_json());

    // Unknown job → clean not-found error frame, connection stays usable.
    let err = client.query("ghost", &QueryOptions::default()).unwrap_err();
    match err {
        StoreError::Remote { code, .. } => {
            assert_eq!(code, cypress_net::proto::codes::NOT_FOUND)
        }
        other => panic!("expected Remote, got {other}"),
    }
    let again = client.query("served", &QueryOptions::default()).unwrap();
    assert_eq!(again, local);

    // One-shot helper.
    let one_shot =
        query_remote(server.addr(), "served", &QueryOptions::default(), timeout).unwrap();
    assert_eq!(one_shot, local);

    assert!(store.stats().hits > 0, "daemon reuses the hot handle");
    server.stop();
}

/// Only a collector answers stats polls: a queryd refuses one with a
/// `protocol` error frame.
#[test]
fn stats_poll_at_queryd_is_a_protocol_error() {
    let tmp = TempStore::new();
    let store = Arc::new(JobStore::new(&tmp.0, StoreConfig::default()).unwrap());
    let addr = cypress_net::Addr::parse("127.0.0.1:0").unwrap();
    let server = cypress_store::spawn(store, &addr).unwrap();
    match cypress_net::fetch_stats(server.addr(), Duration::from_secs(10)) {
        Err(cypress_net::NetError::Remote { code, message }) => {
            assert_eq!(code, cypress_net::proto::codes::PROTOCOL, "{message}");
            assert!(message.contains("StatsRequest"), "{message}");
        }
        other => panic!("expected a protocol error, got {other:?}"),
    }
    server.stop();
}
