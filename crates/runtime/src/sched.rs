//! Work-stealing rank scheduler.
//!
//! The paper's dynamic module runs one compressor per MPI process; our
//! simulation multiplexes `P` simulated ranks onto a fixed pool of worker
//! threads. Earlier revisions chunked the rank range statically, which
//! stalls whole workers when rank workloads are skewed (edge vs interior
//! ranks of a stencil differ by 2x in event count). This scheduler instead
//! seeds per-worker deques with contiguous rank runs and lets idle workers
//! *steal* from the back of their neighbours' deques — rank order is
//! preserved within each worker's own run (good locality for the rank-order
//! merge that follows) while load imbalance is absorbed dynamically.
//!
//! Workers are spawned with large stacks ([`WORKER_STACK_BYTES`]) so the
//! MiniMPI interpreter's native recursion can run directly on the worker —
//! no per-rank thread spawn. It is the one rank runner for raw traces:
//! [`crate::driver::trace_program`] is this pool with one worker.

use cypress_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::sync::Mutex;

// Scope `sched`.
/// Rank tasks executed by the pool.
static TASKS_RUN: Counter = Counter::new("sched", "tasks_run");
/// Tasks obtained by stealing from another worker's deque.
static STEALS: Counter = Counter::new("sched", "steals");
/// Pools spun up.
static POOLS: Counter = Counter::new("sched", "pools");
/// High-water worker count of any pool.
static WORKERS: Gauge = Gauge::new("sched", "workers");

/// Stack size for pool workers. Large enough for the interpreter's guarded
/// native recursion; every traced rank runs on one of these workers.
pub const WORKER_STACK_BYTES: usize = 64 * 1024 * 1024;

// Placeholder for `benchmark/` (its `push_batch` chunk size); nothing in the
// workspace reads it. Goes with ROADMAP item 1 step (a).
#[doc(hidden)]
pub const DEFAULT_BATCH_EVENTS: usize = 256;

/// Run `f(rank)` for every rank in `0..nranks` on a pool of `workers`
/// threads and return the results in rank order.
///
/// Scheduling is work-stealing: worker `w` owns the `w`-th contiguous run of
/// ranks and pops from its front; when its deque drains it steals single
/// ranks from the *back* of the other deques. The function must therefore be
/// insensitive to execution order (tracing and compression are: ranks are
/// independent).
///
/// Panics in `f` propagate to the caller (the pool is a `std::thread::scope`).
pub fn run_ranks<T, F>(nranks: u32, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u32) -> T + Sync,
{
    let n = nranks as usize;
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    POOLS.inc();
    WORKERS.set_max(workers as i64);

    // Seed worker deques with contiguous rank runs.
    let chunk = n.div_ceil(workers);
    let queues: Vec<Mutex<VecDeque<u32>>> = (0..workers)
        .map(|w| {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            Mutex::new((lo..hi).map(|r| r as u32).collect())
        })
        .collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let results = &results;
            let f = &f;
            std::thread::Builder::new()
                .name(format!("cypress-sched-{w}"))
                .stack_size(WORKER_STACK_BYTES)
                .spawn_scoped(scope, move || loop {
                    // Own work first (front of own deque, preserving order)…
                    let mut next = queues[w].lock().expect("sched queue poisoned").pop_front();
                    if next.is_none() {
                        // …then steal one rank from the back of a victim.
                        for off in 1..queues.len() {
                            let victim = &queues[(w + off) % queues.len()];
                            if let Some(r) = victim.lock().expect("sched queue poisoned").pop_back()
                            {
                                STEALS.inc();
                                cypress_obs::trace_instant("sched", "steal", r as u64);
                                next = Some(r);
                                break;
                            }
                        }
                    }
                    let Some(rank) = next else {
                        cypress_obs::trace_instant("sched", "drain", 0);
                        return; // every deque drained — no new work arrives
                    };
                    cypress_obs::set_thread_rank(rank);
                    let out = f(rank);
                    cypress_obs::clear_thread_rank();
                    TASKS_RUN.inc();
                    *results[rank as usize]
                        .lock()
                        .expect("sched result slot poisoned") = Some(out);
                })
                .expect("spawn sched worker");
        }
    });

    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sched result slot poisoned")
                .expect("every rank was executed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_rank_order() {
        for workers in [1, 2, 3, 7, 64] {
            let got = run_ranks(17, workers, |r| r * 10);
            assert_eq!(got, (0..17).map(|r| r * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_rank_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_ranks(100, 8, |r| {
            counts[r as usize].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn skewed_work_is_stolen_not_serialized() {
        // Rank 0 is 50x heavier than the rest; with 2 workers the light
        // ranks must finish on the other worker. We can't assert timing in a
        // unit test, but we can assert correctness under heavy skew.
        let got = run_ranks(32, 2, |r| {
            let spin = if r == 0 { 500_000 } else { 10_000 };
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(i ^ r as u64);
            }
            std::hint::black_box(acc);
            r
        });
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn zero_ranks_is_empty() {
        let got: Vec<u32> = run_ranks(0, 4, |r| r);
        assert!(got.is_empty());
    }

    #[test]
    fn more_workers_than_ranks_is_fine() {
        let got = run_ranks(3, 16, |r| r + 1);
        assert_eq!(got, vec![1, 2, 3]);
    }
}
