//! Pipelined ingest: interpreters produce, compression consumes, a bounded
//! [`ring`](crate::ring) per rank sits between them.
//!
//! The sequential path runs `interpret → compress` in lockstep on one
//! thread: every event is compressed before the next statement executes.
//! This module splits the boundary instead. Each rank's interpreter writes
//! into a [`RingSink`] — an [`EventSink`] that buffers events into batches
//! and hands whole batches to an SPSC ring — while a consumer thread drains
//! every rank's ring into that rank's compression session concurrently.
//!
//! The hand-off protocol ([`IngestMsg`]) is:
//!
//! 1. zero or more `Batch(events)` messages, each at most
//!    [`DEFAULT_BATCH_EVENTS`] events (the last may be short);
//! 2. on interpreter success, one `Finish(app_time)` carrying the rank's
//!    total virtual time, then ring close;
//! 3. on interpreter failure, close *without* `Finish` — the consumer
//!    drains what was published (never blocking on the dead producer) and
//!    discards the rank's partial state.
//!
//! Checkpoint boundaries are preserved by construction: consumers feed
//! batches through `push_batch`-style entry points that count events and
//! checkpoint exactly as per-event pushes do, so footprint samples land on
//! exactly the same event indices as the sequential path and the resulting
//! CTTs are byte-identical (pinned by `tests/pipelined.rs`).

use crate::interp::{RunResult, RuntimeError};
use crate::ring::{self, Producer};
use cypress_trace::event::{Event, EventSink};
use std::sync::Mutex;

/// Events per hand-off batch. One ring push/pop then synchronizes this many
/// events, so the per-event boundary cost is a `Vec::push`; at ~100 B per
/// event a batch is ~25 KiB, small enough that a handful in flight per rank
/// stays cache-friendly.
pub const DEFAULT_BATCH_EVENTS: usize = 256;

/// Default ring capacity in *batches* when the caller does not pick one.
pub const DEFAULT_RING_CAPACITY: usize = 8;

/// One message over a rank's ingest ring.
pub enum IngestMsg {
    /// A batch of interpreter events, in emission order.
    Batch(Vec<Event>),
    /// The rank finished; payload is its total virtual app time (ns).
    Finish(u64),
}

/// The producer side of the boundary: an [`EventSink`] that batches events
/// and pushes whole batches into an SPSC ring, blocking (backpressure) when
/// the compression side falls behind.
pub struct RingSink {
    prod: Producer<IngestMsg>,
    buf: Vec<Event>,
    batch_events: usize,
}

impl RingSink {
    /// Wrap a ring producer; batches flush every `batch_events` events.
    pub fn new(prod: Producer<IngestMsg>, batch_events: usize) -> Self {
        let batch_events = batch_events.max(1);
        RingSink {
            prod,
            buf: Vec::with_capacity(batch_events),
            batch_events,
        }
    }

    /// Hand the current partial batch to the ring (no-op when empty).
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            let batch = std::mem::replace(&mut self.buf, Vec::with_capacity(self.batch_events));
            self.prod.push(IngestMsg::Batch(batch));
        }
    }

    /// Drain-on-finish: flush the tail batch, publish the rank's app time,
    /// and close the ring. Dropping a `RingSink` without calling this (the
    /// interpreter-error path) closes the ring without a `Finish`, which the
    /// consumer treats as "drain, then discard".
    pub fn finish(mut self, app_time: u64) {
        self.flush();
        self.prod.push(IngestMsg::Finish(app_time));
        // Producer closes on drop.
    }
}

impl EventSink for RingSink {
    fn event(&mut self, ev: Event) {
        self.buf.push(ev);
        if self.buf.len() >= self.batch_events {
            self.flush();
        }
    }

    fn events(&mut self, evs: &[Event]) {
        for ev in evs {
            self.event(ev.clone());
        }
    }
}

/// Run `nprocs` producers on a work-stealing pool of `threads` workers with
/// one ring (capacity `capacity` batches) per rank, draining every ring on a
/// dedicated consumer thread.
///
/// Per rank the consumer holds a state `S` (`new_consumer`), feeds it every
/// batch in order (`feed`), and on the producer's `Finish` converts it into
/// the rank's result (`finish`). Producers that fail close their ring
/// without `Finish`; the first such error aborts the whole run (after all
/// ranks settle) exactly like the sequential path.
// Four of the eight arguments are the producer/consumer closures — the
// boundary itself; bundling them into a struct would just rename them.
#[allow(clippy::too_many_arguments)]
pub fn run_ranks_pipelined<S, T, P, N, F, Z>(
    nprocs: u32,
    threads: usize,
    capacity: usize,
    batch_events: usize,
    produce: P,
    new_consumer: N,
    feed: F,
    finish: Z,
) -> RunResult<Vec<T>>
where
    S: Send,
    T: Send,
    P: Fn(u32, &mut RingSink) -> RunResult<u64> + Sync,
    N: Fn(u32) -> S + Sync,
    F: Fn(&mut S, &[Event]) + Sync,
    Z: Fn(S, u64) -> T + Sync,
{
    let n = nprocs as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let mut producers = Vec::with_capacity(n);
    let mut consumers = Vec::with_capacity(n);
    for _ in 0..n {
        let (p, c) = ring::ring::<IngestMsg>(capacity);
        producers.push(Mutex::new(Some(p)));
        consumers.push(c);
    }

    std::thread::scope(|scope| {
        let producers = &producers;
        let produce = &produce;
        let new_consumer = &new_consumer;
        let feed = &feed;
        let finish = &finish;

        // Consumer: one thread round-robin-drains all rings. Compression is
        // an order of magnitude cheaper per event than interpretation, so a
        // single consumer keeps up with a full producer pool; when it ever
        // falls behind, rings fill and producers block — bounded memory.
        let consumer = std::thread::Builder::new()
            .name("cypress-ingest-consumer".into())
            .spawn_scoped(scope, move || {
                let _t = cypress_obs::trace_span("ingest", "consumer");
                let mut rings = consumers;
                let mut states: Vec<Option<S>> =
                    (0..nprocs).map(|r| Some(new_consumer(r))).collect();
                let mut outs: Vec<Option<T>> = (0..n).map(|_| None).collect();
                let mut done = vec![false; n];
                let mut open = n;
                let mut idle = 0u32;
                // Fairness bound: cap how many batches one ring may yield per
                // round-robin pass, so a producer that refills as fast as we
                // drain cannot starve the other ranks' full rings.
                const MAX_POPS_PER_PASS: usize = 64;
                while open > 0 {
                    let mut progressed = false;
                    for r in 0..n {
                        if done[r] {
                            continue;
                        }
                        // Observe closed *before* draining. The producer
                        // publishes its final push before the closed flag, so
                        // if closed was already set here and the drain below
                        // then runs the ring empty, nothing can arrive after
                        // it — the rank is done. (Checking closed after the
                        // drain instead would race: a last push + close
                        // landing between drain and check could be popped and
                        // discarded by the emptiness probe.)
                        let closed = rings[r].is_closed();
                        let mut emptied = false;
                        for _ in 0..MAX_POPS_PER_PASS {
                            let Some(msg) = rings[r].try_pop() else {
                                emptied = true;
                                break;
                            };
                            progressed = true;
                            match msg {
                                IngestMsg::Batch(batch) => {
                                    if let Some(s) = states[r].as_mut() {
                                        feed(s, &batch);
                                    }
                                }
                                IngestMsg::Finish(app_time) => {
                                    if let Some(s) = states[r].take() {
                                        outs[r] = Some(finish(s, app_time));
                                    }
                                }
                            }
                        }
                        if closed && emptied {
                            done[r] = true;
                            open -= 1;
                            progressed = true;
                        }
                    }
                    if progressed {
                        idle = 0;
                    } else {
                        ring::backoff(idle);
                        idle = idle.saturating_add(1);
                    }
                }
                outs
            })
            .expect("spawn ingest consumer");

        // Producers: interpreters on the big-stack work-stealing pool.
        let errors = crate::sched::run_ranks(nprocs, threads, move |rank| {
            let prod = producers[rank as usize]
                .lock()
                .expect("ring producer slot poisoned")
                .take()
                .expect("each rank's producer is taken once");
            let mut sink = RingSink::new(prod, batch_events);
            match produce(rank, &mut sink) {
                Ok(app_time) => {
                    sink.finish(app_time);
                    Ok(())
                }
                // Dropping the sink closes the ring without Finish: the
                // consumer drains what was published and discards the rank.
                Err(e) => Err(e),
            }
        });

        let outs = consumer
            .join()
            .map_err(|_| RuntimeError("ingest consumer thread panicked".into()))?;

        let mut results = Vec::with_capacity(n);
        for (r, (err, out)) in errors.into_iter().zip(outs).enumerate() {
            err?;
            results.push(out.ok_or_else(|| {
                RuntimeError(format!("rank {r} produced no result (missing Finish)"))
            })?);
        }
        Ok(results)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_trace::event::MpiRecord;
    use cypress_trace::{MpiOp, MpiParams};

    fn mpi(gid: u32, i: u64) -> Event {
        Event::Mpi(MpiRecord {
            gid,
            op: MpiOp::Barrier,
            params: MpiParams::collective(i as i64),
            t_start: i,
            dur: 1,
        })
    }

    /// Synthetic producers/consumers: every event arrives exactly once, in
    /// order, and `Finish` carries the app time through.
    #[test]
    fn pipelined_runner_preserves_order_and_app_time() {
        for (threads, capacity, batch) in [(1, 1, 1), (2, 2, 3), (8, 7, 16)] {
            let got = run_ranks_pipelined(
                5,
                threads,
                capacity,
                batch,
                |rank, sink| {
                    for i in 0..103u64 {
                        sink.event(mpi(rank, i));
                    }
                    Ok(1000 + rank as u64)
                },
                |_rank| Vec::<Event>::new(),
                |acc, batch| acc.extend_from_slice(batch),
                |acc, app_time| (acc, app_time),
            )
            .unwrap();
            assert_eq!(got.len(), 5);
            for (rank, (evs, app_time)) in got.iter().enumerate() {
                assert_eq!(*app_time, 1000 + rank as u64);
                assert_eq!(evs.len(), 103, "threads={threads} capacity={capacity}");
                for (i, ev) in evs.iter().enumerate() {
                    assert_eq!(ev, &mpi(rank as u32, i as u64));
                }
            }
        }
    }

    /// A failing producer aborts the run but never deadlocks the consumer.
    #[test]
    fn producer_error_surfaces_without_deadlock() {
        let err = run_ranks_pipelined(
            4,
            2,
            2,
            8,
            |rank, sink| {
                for i in 0..50u64 {
                    sink.event(mpi(rank, i));
                }
                if rank == 2 {
                    Err(RuntimeError("rank 2 died mid-stream".into()))
                } else {
                    Ok(1)
                }
            },
            |_| 0usize,
            |n, batch| *n += batch.len(),
            |n, _| n,
        )
        .unwrap_err();
        assert!(err.0.contains("rank 2 died"), "{err}");
    }

    /// Regression for the done-detection race: a producer's final
    /// `Batch`/`Finish` push racing its close must never be discarded by the
    /// consumer's emptiness probe. Many short runs over capacity-1 rings with
    /// single-event batches put the final push squarely in that window.
    #[test]
    fn finish_never_lost_under_close_race() {
        for iter in 0..200u64 {
            let events = iter % 7;
            let got = run_ranks_pipelined(
                4,
                4,
                1,
                1,
                |rank, sink| {
                    for i in 0..events {
                        sink.event(mpi(rank, i));
                    }
                    Ok(rank as u64)
                },
                |_| 0usize,
                |n, batch| *n += batch.len(),
                |n, app_time| (n, app_time),
            )
            .unwrap();
            for (rank, (n, app_time)) in got.iter().enumerate() {
                assert_eq!(*app_time, rank as u64, "iter {iter}");
                assert_eq!(*n as u64, events, "iter {iter} rank {rank}");
            }
        }
    }

    #[test]
    fn zero_ranks_is_empty() {
        let got: Vec<u32> =
            run_ranks_pipelined(0, 4, 4, 4, |_, _| Ok(0), |_| (), |_, _| {}, |_, _| 0u32).unwrap();
        assert!(got.is_empty());
    }
}
