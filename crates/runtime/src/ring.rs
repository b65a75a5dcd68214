//! Bounded SPSC ring buffers for pipelined ingest.
//!
//! The interpreter→session boundary used to be a synchronous call: every
//! event the interpreter emitted was compressed inline on the same thread
//! before the next statement executed. This module decouples the two sides
//! so a rank can *generate* and *compress* concurrently — the same
//! producer/consumer split Recorder uses between per-process capture and
//! aggregation (arXiv:2501.04654), applied one level down.
//!
//! Design:
//!
//! * **Single producer, single consumer.** Each ring connects exactly one
//!   interpreter (producer) to one compression session (consumer); the
//!   [`Producer`]/[`Consumer`] handles own their side, so the SPSC contract
//!   is enforced by move semantics rather than runtime checks.
//! * **Bounded, std-only, lock-free.** A fixed slot array with cache-line
//!   padded head/tail counters ([`CachePadded`]): the producer writes a slot
//!   and publishes with a release store of `tail`; the consumer reads with
//!   an acquire load and retires with a release store of `head`. Capacity is
//!   arbitrary (1, 2, odd — no power-of-two requirement); monotone `u64`
//!   counters make full/empty tests plain subtraction.
//! * **Batch granularity.** Ring items are whole event *batches*
//!   (`Vec<Event>` via [`RingSink`]), so one push/pop synchronizes hundreds
//!   of events; the per-event cost of the boundary is a `Vec::push`.
//! * **Backpressure.** [`Producer::push`] blocks (spin → yield → sleep) when
//!   the consumer falls behind and the ring is full; stalls are counted in
//!   the `ring` obs scope so the imbalance is visible in reports.
//! * **Drain on finish.** [`Producer::close`] (also called on drop)
//!   publishes a closed flag *after* the last batch; the consumer keeps
//!   draining until the ring is both closed and empty, so a clean shutdown
//!   never loses a batch and a mid-stream producer death (interpreter
//!   error) still leaves every already-published batch consumable.

use cypress_obs::Counter;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

// Scope `ring`, shared by all rings.
/// Items (batches) pushed through any ring.
static BATCHES: Counter = Counter::new("ring", "batches");
/// Producer-side full-ring stalls (backpressure events).
static PRODUCER_STALLS: Counter = Counter::new("ring", "producer_stalls");
/// Consumer-side empty-ring stalls while the producer was still open.
static CONSUMER_STALLS: Counter = Counter::new("ring", "consumer_stalls");

/// Pad-and-align wrapper keeping the producer's and consumer's hot counters
/// on separate cache lines, so head/tail updates never false-share.
#[repr(align(128))]
struct CachePadded<T>(T);

struct Shared<T> {
    /// Slot storage; slot `i % capacity` is owned by the producer until the
    /// corresponding `tail` increment publishes it, then by the consumer
    /// until the corresponding `head` increment retires it.
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot the consumer will read (monotone; wraps via `% capacity`).
    head: CachePadded<AtomicU64>,
    /// Next slot the producer will write (monotone).
    tail: CachePadded<AtomicU64>,
    /// Producer finished (set after its final release store of `tail`).
    closed: AtomicBool,
    /// Consumer dropped without draining; producers stop blocking and
    /// discard instead (nothing will ever read the ring again).
    abandoned: AtomicBool,
}

// SAFETY: slots are only touched through the SPSC ownership protocol above;
// `T: Send` is all that crossing the boundary requires.
unsafe impl<T: Send> Send for Shared<T> {}
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both endpoints are gone (the Arc count hit zero), so [head, tail)
        // is exactly the set of published-but-unconsumed items — e.g. pushes
        // that landed after an abandoned consumer stopped draining.
        let cap = self.slots.len() as u64;
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        for i in head..tail {
            // SAFETY: exclusive access; every slot in [head, tail) holds an
            // initialized item by the publication protocol.
            unsafe {
                (*self.slots[(i % cap) as usize].get()).assume_init_drop();
            }
        }
    }
}

/// Create a bounded SPSC ring of the given capacity (clamped to ≥ 1).
/// Returns the two endpoint handles; each is `Send` but not `Clone`.
pub fn ring<T: Send>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let capacity = capacity.max(1);
    let slots = (0..capacity)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let shared = Arc::new(Shared {
        slots,
        head: CachePadded(AtomicU64::new(0)),
        tail: CachePadded(AtomicU64::new(0)),
        closed: AtomicBool::new(false),
        abandoned: AtomicBool::new(false),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            cached_head: 0,
            closed: false,
        },
        Consumer {
            shared,
            cached_tail: 0,
        },
    )
}

/// Backoff ladder for both endpoints: spin briefly (the partner is usually
/// mid-batch for only a few hundred ns), then yield the core (essential on
/// single-core hosts, where spinning just burns the partner's quantum), then
/// sleep in short slices so an idle endpoint costs nothing.
#[inline]
pub(crate) fn backoff(step: u32) {
    if step < 6 {
        std::hint::spin_loop();
    } else if step < 24 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// Producer endpoint: the interpreter side of the boundary.
pub struct Producer<T: Send> {
    shared: Arc<Shared<T>>,
    /// Last observed consumer position; refreshed only when the ring looks
    /// full, so the common-case push does no cross-core load at all.
    cached_head: u64,
    closed: bool,
}

impl<T: Send> Producer<T> {
    /// Push one item, blocking while the ring is full (backpressure).
    /// Returns `false` if the item was dropped: the consumer is gone, or
    /// this producer already closed (a closed ring's consumer may have
    /// observed closed+empty and exited, so a late push would vanish).
    pub fn push(&mut self, item: T) -> bool {
        debug_assert!(!self.closed, "push after close");
        if self.closed {
            return false;
        }
        if self.shared.abandoned.load(Ordering::Relaxed) {
            return false; // consumer gone; drop the item instead of queueing
        }
        let cap = self.shared.slots.len() as u64;
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        if tail - self.cached_head >= cap {
            self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            let mut step = 0u32;
            while tail - self.cached_head >= cap {
                if self.shared.abandoned.load(Ordering::Acquire) {
                    return false; // nothing will ever drain us
                }
                if step == 0 {
                    PRODUCER_STALLS.inc();
                    cypress_obs::trace_instant("ring", "stall_full", tail);
                }
                backoff(step);
                step = step.saturating_add(1);
                self.cached_head = self.shared.head.0.load(Ordering::Acquire);
            }
        }
        // SAFETY: `tail - head < cap` ⇒ this slot is retired (or never used);
        // the producer is the only writer.
        unsafe {
            (*self.shared.slots[(tail % cap) as usize].get()).write(item);
        }
        self.shared.tail.0.store(tail + 1, Ordering::Release);
        BATCHES.inc();
        true
    }

    /// Number of items currently in flight (approximate; for telemetry).
    pub fn in_flight(&self) -> usize {
        let tail = self.shared.tail.0.load(Ordering::Relaxed);
        let head = self.shared.head.0.load(Ordering::Acquire);
        (tail - head) as usize
    }

    /// Publish end-of-stream. The consumer drains whatever is still queued,
    /// then sees the ring closed. Idempotent; also runs on drop, so a
    /// producer that dies mid-stream (interpreter error, panic) still lets
    /// the consumer finish cleanly.
    pub fn close(mut self) {
        self.do_close();
    }

    fn do_close(&mut self) {
        if !self.closed {
            self.closed = true;
            self.shared.closed.store(true, Ordering::Release);
        }
    }
}

impl<T: Send> Drop for Producer<T> {
    fn drop(&mut self) {
        self.do_close();
    }
}

/// Consumer endpoint: the compression side of the boundary.
pub struct Consumer<T: Send> {
    shared: Arc<Shared<T>>,
    /// Last observed producer position; refreshed only when the ring looks
    /// empty (mirror of the producer's `cached_head`).
    cached_tail: u64,
}

impl<T: Send> Consumer<T> {
    /// Pop one item if immediately available.
    pub fn try_pop(&mut self) -> Option<T> {
        let cap = self.shared.slots.len() as u64;
        let head = self.shared.head.0.load(Ordering::Relaxed);
        if head == self.cached_tail {
            self.cached_tail = self.shared.tail.0.load(Ordering::Acquire);
            if head == self.cached_tail {
                return None;
            }
        }
        // SAFETY: `head < tail` ⇒ this slot was published by a release store
        // of `tail`; the consumer is the only reader.
        let item = unsafe { (*self.shared.slots[(head % cap) as usize].get()).assume_init_read() };
        self.shared.head.0.store(head + 1, Ordering::Release);
        Some(item)
    }

    /// Pop one item, blocking until one arrives or the stream ends.
    /// `None` means closed *and* fully drained — the drain-on-finish
    /// protocol: a `close()` racing with queued items never truncates.
    pub fn pop(&mut self) -> Option<T> {
        let mut step = 0u32;
        loop {
            if let Some(item) = self.try_pop() {
                return Some(item);
            }
            // Empty. Re-check emptiness *after* observing closed: the
            // producer publishes its last batch before the closed flag.
            if self.shared.closed.load(Ordering::Acquire) {
                return self.try_pop();
            }
            if step == 0 {
                CONSUMER_STALLS.inc();
            }
            backoff(step);
            step = step.saturating_add(1);
        }
    }

    /// Has the producer closed its side? (The ring may still hold items.)
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }
}

impl<T: Send> Drop for Consumer<T> {
    fn drop(&mut self) {
        // Unblock (and future-proof) the producer, then free queued items.
        self.shared.abandoned.store(true, Ordering::Release);
        while self.try_pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_all_capacities() {
        for cap in [1usize, 2, 3, 7, 64] {
            let (mut p, mut c) = ring::<u64>(cap);
            let producer = std::thread::spawn(move || {
                for i in 0..1000u64 {
                    assert!(p.push(i));
                }
                p.close();
            });
            let mut got = Vec::new();
            while let Some(v) = c.pop() {
                got.push(v);
            }
            producer.join().unwrap();
            assert_eq!(got, (0..1000).collect::<Vec<_>>(), "capacity {cap}");
        }
    }

    #[test]
    fn close_without_items_ends_stream() {
        let (p, mut c) = ring::<u8>(4);
        p.close();
        assert_eq!(c.pop(), None);
        assert!(c.is_closed());
    }

    #[test]
    fn items_before_close_all_drain() {
        let (mut p, mut c) = ring::<u32>(8);
        for i in 0..5 {
            assert!(p.push(i));
        }
        p.close();
        let drained: Vec<u32> = std::iter::from_fn(|| c.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn dropped_producer_closes_stream() {
        let (mut p, mut c) = ring::<u32>(4);
        assert!(p.push(7));
        drop(p); // mid-stream death: no explicit close
        assert_eq!(c.pop(), Some(7));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn abandoned_consumer_unblocks_producer() {
        let (mut p, c) = ring::<u32>(1);
        assert!(p.push(1)); // fills the ring
        drop(c);
        // Ring is full and nobody will drain: push must return, not hang.
        assert!(!p.push(2));
    }

    #[test]
    fn capacity_one_ping_pongs() {
        let (mut p, mut c) = ring::<usize>(1);
        let t = std::thread::spawn(move || {
            for i in 0..200 {
                assert!(p.push(i));
            }
            p.close();
        });
        let mut n = 0;
        while let Some(v) = c.pop() {
            assert_eq!(v, n);
            n += 1;
        }
        t.join().unwrap();
        assert_eq!(n, 200);
    }

    #[test]
    fn drops_clean_up_queued_items() {
        // Arc payloads: every queued item must be dropped exactly once.
        let payload = Arc::new(());
        let (mut p, c) = ring::<Arc<()>>(8);
        for _ in 0..6 {
            assert!(p.push(Arc::clone(&payload)));
        }
        drop(c);
        drop(p);
        assert_eq!(Arc::strong_count(&payload), 1);
    }
}
