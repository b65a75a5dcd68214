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
//! - A merged tree costs one allocation per vertex, per leaf slot, per
//!   control group (its sequence) and per multi-rank control group, one for
//!   the application times and two for the copy of its bytes it keeps: a
//!   leaf group is a span of those bytes, whatever its ranks and record.
//! - `merge_all` over `merge_identity.rs`'s P = 1024 job holds at most a
//!   pinned number of bytes live at once, on every thread: the tree it
//!   builds and the key tables of the vertex it is merging.
//! - One `RankCtt` frame read through a `FrameBuf` costs the same count of
//!   allocations whatever the CTT's size.

mod merge_job;

use cypress::core::{
    merge_all, Ctt, CttSlab, EncParams, IntSeq, LeafRecord, MergedCtt, RankSet, TimeStats,
    VertexData,
};
use cypress::core::{CompressConfig, CompressSession, SessionConfig};
use cypress::cst::{analyze_program, Cst};
use cypress::minilang::{check_program, parse};
use cypress::net::proto::{encode_frame_into, FrameBuf};
use cypress::net::Frame;
use cypress::query::{query_ctts, StrategyUsed};
use cypress::runtime::{trace_program, InterpConfig};
use cypress::trace::Event;
use cypress::trace::{Codec, MpiOp, MpiParams};
use cypress::QueryOptions;
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
    // The vertex list and the application times, and the copy of the bytes
    // the tree keeps with its one-entry list of buffers: one each.
    let mut exact = 4;
    for gid in 0..tree.vertex_count() {
        vertices += 1;
        let list = tree.control_groups(gid);
        if !list.is_empty() {
            // The group list, and each group's sequence and set of ranks.
            let sets = list.iter().map(|(set, _)| multi(set)).sum::<u64>();
            exact += 1 + list.len() as u64 + sets;
            controls += list.len() as u64;
            multi_rank += sets;
        }
        let list = tree.leaf_slots(gid);
        if !list.is_empty() {
            exact += 1;
            slots += list.len() as u64;
            for (set, record) in list.iter().flatten() {
                leaf_groups += 1;
                multi_rank += multi(set);
                let g = !record.params.req_gids.is_empty() as u64;
                gids += g;
                // A leaf group is a span of the kept bytes, read through the
                // one reader of its fields: a set of more than one rank and
                // a request list are allocated as they are read, and freed
                // once the group is kept. Nothing of it stays allocated.
                exact += multi(set) + g;
            }
        }
    }
    exact += slots;
    // The job has every shape the count names, and one-rank groups too.
    assert!(slots > 0 && controls > 0 && multi_rank > 0 && gids > 0);
    assert!(leaf_groups + controls > multi_rank);
    assert_eq!(count, exact);
    // A control group's loop counts or taken indices are a sequence of
    // their own, so control groups count beside the slots; so are the
    // application times. The kept bytes and their list are the two the
    // tree adds to what an owned decode made.
    assert!(count <= vertices + slots + controls + multi_rank + gids + 1 + 2);
}

/// A rank's events of `src` at `nprocs` ranks, with the CST they follow.
fn rank_events(src: &str, nprocs: u32, rank: u32) -> (Cst, Vec<Event>) {
    let program = parse(src).unwrap();
    check_program(&program).unwrap();
    let info = analyze_program(&program);
    let mut traces = trace_program(&program, &info, nprocs, &InterpConfig::default()).unwrap();
    (info.cst, traces.swap_remove(rank as usize).events)
}

/// Every iteration of the loop sends, receives and completes the same.
const STEADY: &str = r#"fn main() {
    for k in 0..64 {
        let a = isend((rank() + 1) % size(), 1024, 0);
        let b = irecv((rank() + size() - 1) % size(), 1024, 0);
        waitall(a, b);
        allreduce(8);
    }
}"#;

/// Once a steady loop's first iterations have opened every record, a
/// session's `push` allocates nothing: each event extends a record or a
/// count in place.
#[test]
fn a_steady_loop_pushes_without_allocating_after_its_first_iteration() {
    let (cst, events) = rank_events(STEADY, 4, 1);
    let mut session = CompressSession::new(
        &cst,
        1,
        4,
        CompressConfig::default(),
        SessionConfig::default(),
    );
    // Two iterations' worth at each end: the first opens the records, the
    // last closes the loop.
    let edge = 2 * events.len() / 64;
    for ev in &events[..edge] {
        session.push(ev);
    }
    let steady = &events[edge..events.len() - edge];
    let ((), count) = allocations(|| steady.iter().for_each(|ev| session.push(ev)));
    assert!(steady.len() > 256, "{} events", steady.len());
    // A debug build also checks each compare-with-last against the record
    // it would encode (`IntraCompressor::mpi`), which allocates nothing.
    assert_eq!(count, 0, "{} events", steady.len());
}

/// A send whose size is new every iteration: one record per iteration.
const SIZES: &str = r#"fn main() {
    for k in 0..ITERS {
        send((rank() + 1) % size(), 64 + k * (rank() + 1), 0);
        recv((rank() + size() - 1) % size(), 64 + k * rank(), 0);
    }
}"#;

/// `query_ctts` over slabs allocates as much at 40 records per rank and
/// leaf as at 400: nothing per record it folds.
#[test]
fn a_slab_query_allocates_nothing_per_folded_record() {
    let counts: Vec<(usize, u64)> = [40, 400]
        .into_iter()
        .map(|iters| {
            let job = Pipeline::new(SIZES.replace("ITERS", &iters.to_string()))
                .ranks(4)
                .configure(PipelineConfig {
                    threads: 1,
                    ..PipelineConfig::default()
                })
                .run()
                .unwrap();
            let slabs: Vec<CttSlab> = job
                .ctts
                .iter()
                .map(|c| CttSlab::from_bytes(&c.to_bytes()).unwrap())
                .collect();
            let cst = &job.info.cst;
            let (result, count) =
                allocations(|| query_ctts(cst, &slabs, &QueryOptions::default()).unwrap());
            assert!(result.strategy == StrategyUsed::Symbolic);
            (slabs.iter().map(CttSlab::record_count).sum(), count)
        })
        .collect();
    assert!(counts[1].0 >= 9 * counts[0].0, "{counts:?}");
    assert_eq!(counts[0].1, counts[1].1, "{counts:?}");
}

/// `merge_all`'s peak live bytes over `merge_identity.rs`'s P = 1024 job,
/// on every thread, pinned within `MERGE_PEAK_SLACK` of this value. The
/// merge holds its growing tree (a 24-B reference per group, the ranks and
/// timing of a group that merged, and each worker's buffer of kept groups,
/// 48 B reserved per record it takes in) and the key tables of one vertex
/// at a time; a table kept per list for the whole merge, a second copy of
/// the tree, a one-rank tree built per rank, or groups decoded before they
/// merge, moves it.
const MERGE_PEAK_BYTES: i64 = 452_624;
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
