//! Allocation pins for the CTT decoders, the merge and the frame reader:
//! what one decode costs the heap, counted by a global allocator over
//! `System`. Allocation counts are kept per thread (tests run on parallel
//! threads; each count pin reads only its own). Live bytes are kept for the
//! whole process, so a merge that splits across workers counts their
//! allocations too; the pin that reads them runs alone, in a child process
//! of this binary ([`alone`]).
//!
//! - A rank CTT decodes into a vertex table, a segment pool and a record
//!   pool: its allocations do not grow with its record count.
//! - A canonical one-rank `RankSet`, almost every group of an irregular
//!   job, decodes without allocating.
//! - A merged tree costs at most one allocation per vertex, per slot (a
//!   leaf's slot, or a control group's sequence), per multi-rank group and
//!   per record with request GIDs, and one for the application times.
//! - `merge_all` over `merge_identity.rs`'s P = 1024 job holds at most a
//!   pinned number of bytes live at once, on every thread: the tree it
//!   builds and the key tables of the vertex it is merging.
//! - One `RankCtt` frame read through a `FrameBuf` costs the same count of
//!   allocations whatever the CTT's size.

mod merge_job;

use cypress::core::{
    merge_all, Ctt, CttSlab, EncParams, IntSeq, LeafRecord, MergedCtt, MergedVertex, RankSet,
    TimeStats, VertexData,
};
use cypress::net::proto::{encode_frame_into, FrameBuf};
use cypress::net::Frame;
use cypress::trace::{Codec, MpiOp, MpiParams};
use cypress::{Pipeline, PipelineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

/// `System`, counting every allocation and reallocation made on each
/// thread, and the bytes every thread holds live by layout size.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Live bytes of the whole process, and their high-water mark.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn count_one() {
    // `try_with`: an allocation while the thread is torn down goes uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn hold(bytes: i64) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// only thread-local `Cell`s and atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        hold(layout.size() as i64);
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        hold(layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        hold(new_size as i64 - layout.size() as i64);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `f`'s result and the most bytes the process held live at once while it
/// ran, above what it held when `f` began: `f`'s own threads included, so
/// only meaningful in a test that runs [`alone`].
fn peak_live<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

/// Set in the child process [`alone`] starts.
const ALONE: &str = "ALLOC_COUNTS_ALONE";

/// Whether this process runs test `name` alone. If it does not, run the
/// test again in a child process of this binary, with nothing else (that
/// test only, one test thread: the harness waits while it runs), and assert
/// that it passed there.
fn alone(name: &str) -> bool {
    if std::env::var_os(ALONE).is_some() {
        return true;
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--test-threads", "1"])
        .env(ALONE, "1")
        .output()
        .expect("the test binary runs again");
    assert!(
        out.status.success() && String::from_utf8_lossy(&out.stdout).contains("1 passed"),
        "{name} alone:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

fn record(rank: i64, i: i64, gids: Vec<u32>) -> LeafRecord {
    let (op, params) = if gids.is_empty() {
        (MpiOp::Isend, MpiParams::send(rank + 1, 64 + i, 0))
    } else {
        (MpiOp::Waitall, MpiParams::completion(gids))
    };
    let mut time = TimeStats::new();
    time.add(1_000 + i as u64);
    LeafRecord {
        params: EncParams::encode(rank, op, &params),
        count: 1 + i as u64 % 3,
        time,
        gap: TimeStats::new(),
    }
}

/// A rank CTT of a loop, a branch and two leaves of `n` records each, none
/// with request GIDs.
fn rank_ctt(n: i64) -> Ctt {
    let leaf = |base: i64| VertexData::Leaf {
        records: (0..n).map(|i| record(0, base + i, vec![])).collect(),
    };
    Ctt {
        rank: 0,
        nprocs: 4,
        app_time: 12_345,
        data: vec![
            VertexData::Root,
            VertexData::Loop {
                counts: IntSeq::from_slice(&[3, 1, 4, 1, 5, 9, 2, 6]),
            },
            VertexData::Branch {
                taken: IntSeq::from_slice(&[0, 2, 4, 7]),
            },
            leaf(0),
            leaf(1_000_000),
        ],
    }
}

/// The vertex table, and the segment and record pools with one regrowth
/// each: each pool reserves the first sequence's count, and the second
/// sequence's does not fit.
const SLAB_ALLOCATIONS: u64 = 5;

#[test]
fn a_slab_decode_allocates_per_vertex_never_per_record() {
    for n in [10, 100, 1_000, 10_000] {
        let bytes = rank_ctt(n).to_bytes();
        let (slab, count) = allocations(|| CttSlab::from_bytes(&bytes).unwrap());
        assert_eq!(slab.record_count(), 2 * n as usize);
        assert_eq!(count, SLAB_ALLOCATIONS, "{n} records per leaf");
    }
}

#[test]
fn a_one_rank_set_decodes_without_allocating() {
    for rank in [0, 1, 63, 1 << 20, u32::MAX] {
        let bytes = RankSet::singleton(rank).to_bytes();
        let (set, count) = allocations(|| RankSet::from_bytes(&bytes).unwrap());
        assert_eq!(set, RankSet::singleton(rank));
        assert_eq!(count, 0, "rank {rank}");
    }
}

/// Two ranks in three share every loop count, odd ranks take a branch,
/// and every rank completes requests: control groups, leaf slots,
/// one-rank and multi-rank groups and records with request GIDs.
const PROGRAM: &str = r#"fn main() {
    for it in 0..12 {
        if rank() % 2 == 1 { barrier(); }
        for k in 0..(rank() % 3 + it % 2) { allreduce(8); }
        let a = isend((rank() + 1) % size(), 64 + rank() * it, 0);
        let b = irecv((rank() + size() - 1) % size(), 64, 0);
        waitall(a, b);
    }
}"#;

#[test]
fn a_merged_decode_allocates_per_vertex_slot_group_and_request_list() {
    let job = Pipeline::new(PROGRAM)
        .ranks(12)
        .configure(PipelineConfig {
            threads: 1,
            ..PipelineConfig::default()
        })
        .run()
        .unwrap();
    let bytes = merge_all(&job.ctts).to_bytes();
    let (tree, count) = allocations(|| MergedCtt::from_bytes(&bytes).unwrap());

    let multi = |set: &RankSet| (set.len() > 1) as u64;
    let (mut vertices, mut slots, mut controls, mut multi_rank, mut gids) = (0, 0, 0, 0, 0);
    let mut leaf_groups = 0;
    // The vertex list and the application times: one each.
    let mut exact = 2;
    for vertex in &tree.vertices {
        vertices += 1;
        match vertex {
            MergedVertex::Empty => {}
            MergedVertex::Control(list) => {
                // The group list, and each group's sequence.
                exact += 1 + list.len() as u64;
                controls += list.len() as u64;
                multi_rank += list.iter().map(|(set, _)| multi(set)).sum::<u64>();
            }
            MergedVertex::Leaf(list) => {
                exact += 1;
                slots += list.len() as u64;
                for (set, record) in list.iter().flatten() {
                    leaf_groups += 1;
                    multi_rank += multi(set);
                    gids += !record.params.req_gids.is_empty() as u64;
                }
            }
        }
    }
    exact += slots + multi_rank + gids;
    // The job has every shape the count names, and one-rank groups too.
    assert!(slots > 0 && controls > 0 && multi_rank > 0 && gids > 0);
    assert!(leaf_groups + controls > multi_rank);
    assert_eq!(count, exact);
    // A control group's loop counts or taken indices are a sequence of
    // their own, so control groups count beside the slots; so are the
    // application times.
    assert!(count <= vertices + slots + controls + multi_rank + gids + 1);
}

/// `merge_all`'s peak live bytes over `merge_identity.rs`'s P = 1024 job,
/// on every thread, pinned within `MERGE_PEAK_SLACK` of this value. The
/// merge holds its growing tree and the key tables of one vertex at a time;
/// a table kept per list for the whole merge, or a second copy of the tree,
/// moves it.
const MERGE_PEAK_BYTES: i64 = 862_824;
/// 1%: allocation sizes are deterministic, but `Vec`'s growth policy belongs
/// to the standard library, not to this repository.
const MERGE_PEAK_SLACK: f64 = 0.01;

#[test]
fn merge_all_peak_live_bytes_stay_pinned() {
    if !alone("merge_all_peak_live_bytes_stay_pinned") {
        return;
    }
    let ctts = merge_job::job(1024);
    let (merged, peak) = peak_live(|| merge_all(&ctts));
    assert_eq!(merged.nprocs, 1024);
    let off = (peak - MERGE_PEAK_BYTES).abs() as f64 / MERGE_PEAK_BYTES as f64;
    assert!(
        off <= MERGE_PEAK_SLACK,
        "merge_all held {peak} B at its peak, pinned at {MERGE_PEAK_BYTES} B"
    );
}

/// A fresh connection's read buffer grows twice — one read's chunk, then
/// room for the whole frame once its length prefix is in — and the decoded
/// frame's bytes are one allocation.
const FRAME_ALLOCATIONS: u64 = 3;

#[test]
fn a_rank_ctt_frame_reads_in_a_count_of_allocations_of_any_size() {
    for n in [1_000, 10_000, 100_000] {
        let bytes = rank_ctt(n).to_bytes();
        let mut wire = Vec::new();
        encode_frame_into(&Frame::RankCtt { bytes }, &mut wire);
        let (frame, count) = allocations(|| {
            let mut fb = FrameBuf::new();
            let mut r = &wire[..];
            loop {
                fb.fill(&mut r).unwrap();
                if let Some(frame) = fb.try_frame().unwrap() {
                    break frame;
                }
            }
        });
        assert!(
            matches!(&frame, Frame::RankCtt { bytes } if bytes.len() > 16 * 1024),
            "{n} records per leaf"
        );
        assert_eq!(count, FRAME_ALLOCATIONS, "{n} records per leaf");
    }
}
