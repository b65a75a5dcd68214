//! The one server loop: every daemon in the workspace is a [`Handler`] on it.
//!
//! A [`Server`] is a small pool of **event loops** (see [`crate::poll`]),
//! each multiplexing many non-blocking sockets. Loop 0 runs on the thread
//! that calls [`Server::run`] and owns the daemon's one listener; accepted
//! sockets are dealt round-robin to the loops through waker-signalled
//! mailboxes. Nothing sleeps on a timer: the loops block in `poll(2)` until
//! a socket, a peer loop, the handler's deadline or [`Server::stop`] wakes
//! them, and only the connections `poll` reported ready are read from or
//! written to.
//!
//! What a handler never sees: the poll set, the mailboxes and wakers,
//! partial frames (bytes wait in the connection's [`FrameBuf`] until a frame
//! is whole, however slowly it arrives), partial writes (replies wait in the
//! [`Outbox`] until the socket takes them), tx backpressure (a connection
//! whose peer is not reading its replies is not read from either, see
//! [`TX_HIGH_WATER`]) and panics (one while handling a frame costs that
//! connection, not the daemon). What it does see is whole, CRC-checked
//! frames, one at a time per connection.
//!
//! The stated trade: [`Handler::on_frame`] runs on its loop's thread, so
//! the other connections of that loop wait while one frame is handled.

use crate::poll::{PollSet, Waker};
use crate::proto::{encode_frame_into, Frame, FrameBuf};
use crate::transport::{Listener, Stream};
use crate::{obs, NetError};
use cypress_obs::{obs_log, Level};
use std::collections::VecDeque;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What a daemon is, seen from the server loop. One value is shared by all
/// loops; `Conn` is the protocol state it keeps per connection, starting
/// from its `Default` when the socket is accepted.
pub trait Handler: Sync {
    type Conn: Default;

    /// One whole frame arrived. Replies go to `out`; [`Outbox::close`] ends
    /// the connection once they are flushed.
    fn on_frame(&self, conn: &mut Self::Conn, frame: Frame, out: &mut Outbox);

    /// The connection is going away without the handler having closed it:
    /// peer EOF, transport or frame error, idle timeout.
    fn on_drop(&self, _conn: &mut Self::Conn, _why: &str) {}

    /// A connection silent this long is dropped.
    fn idle_timeout(&self) -> Option<Duration> {
        None
    }

    /// When [`Handler::on_deadline`] is due.
    fn deadline(&self) -> Option<Instant> {
        None
    }

    /// The deadline passed (every loop notices on its own); must call
    /// [`Server::stop`].
    fn on_deadline(&self) {}

    /// `accept(2)` failed with something other than `WouldBlock`; the
    /// listener is polled again on the next wake-up.
    fn on_accept_error(&self, e: std::io::Error) {
        obs_log!(Level::Warn, "net", "listener failed: {e}");
    }
}

/// Pending-reply bytes above which a connection's requests stay in the
/// socket until its peer reads some replies — bounds what a peer that
/// pipelines requests and never reads can make a daemon hold.
pub const TX_HIGH_WATER: usize = 4 << 20;

/// How many socket reads one connection may take per loop tick — bounds a
/// firehose client so it cannot starve its loop's other connections.
const MAX_FILLS_PER_TICK: usize = 4;

/// A connection's queued replies.
#[derive(Default)]
pub struct Outbox {
    tx: Vec<u8>,
    tx_pos: usize,
    closing: bool,
}

impl Outbox {
    /// Queue one frame; it is written as the socket allows.
    pub fn send(&mut self, frame: &Frame) {
        encode_frame_into(frame, &mut self.tx);
    }

    /// Read no further frames; close once everything queued is flushed.
    pub fn close(&mut self) {
        self.closing = true;
    }

    fn pending(&self) -> usize {
        self.tx.len() - self.tx_pos
    }
}

struct Conn<S> {
    stream: Stream,
    rx: FrameBuf,
    out: Outbox,
    state: S,
    last_activity: Instant,
}

impl<S: Default> Conn<S> {
    fn new(stream: Stream) -> Conn<S> {
        let _ = stream.set_nonblocking(true);
        Conn {
            stream,
            rx: FrameBuf::new(),
            out: Outbox::default(),
            state: S::default(),
            last_activity: Instant::now(),
        }
    }

    fn wants_read(&self) -> bool {
        !self.out.closing && self.out.pending() < TX_HIGH_WATER
    }

    /// Nonblocking write of pending tx bytes; `Ok(())` on progress or
    /// `WouldBlock`, `Err` only on a real transport failure.
    fn try_flush(&mut self) -> std::io::Result<()> {
        let out = &mut self.out;
        while out.pending() > 0 {
            match self.stream.write(&out.tx[out.tx_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped reading",
                    ))
                }
                Ok(n) => {
                    out.tx_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if out.pending() == 0 {
            out.tx.clear();
            out.tx_pos = 0;
        }
        Ok(())
    }

    /// Exit-time drain: push out whatever replies are still queued — with
    /// blocking I/O bounded by the idle timeout when there is one, else as
    /// far as the socket takes them at once.
    fn flush_at_exit(mut self, timeout: Option<Duration>) {
        if let Some(t) = timeout.filter(|_| self.out.pending() > 0) {
            let _ = self.stream.set_nonblocking(false);
            let _ = self.stream.set_io_timeout(t);
            let _ = self.stream.write_all(&self.out.tx[self.out.tx_pos..]);
        } else {
            let _ = self.try_flush();
        }
        self.stream.shutdown();
    }

    /// Advance one connection `poll` reported ready. `Ok(false)` = closed
    /// in order, `Err(why)` = dropped.
    fn drive<H: Handler<Conn = S>>(&mut self, h: &H, readable: bool) -> Result<bool, String> {
        // Flush first: pending acks unblock pipelining clients.
        self.try_flush().map_err(|e| e.to_string())?;
        let mut fills = 0;
        while readable && self.wants_read() && fills < MAX_FILLS_PER_TICK {
            match self.rx.fill(&mut self.stream) {
                Ok(0) => return Err("peer disconnected".into()),
                Ok(_) => {
                    fills += 1;
                    self.last_activity = Instant::now();
                    while !self.out.closing {
                        let Some(frame) = self.rx.try_frame().map_err(|e| e.to_string())? else {
                            break;
                        };
                        let (state, out) = (&mut self.state, &mut self.out);
                        if catch_unwind(AssertUnwindSafe(|| h.on_frame(state, frame, out))).is_err()
                        {
                            obs_log!(Level::Warn, "net", "handler panicked; dropping connection");
                            return Ok(false);
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.to_string()),
            }
        }
        self.try_flush().map_err(|e| e.to_string())?;
        Ok(!(self.out.closing && self.out.pending() == 0))
    }
}

/// Per-event-loop handoff slot: loop 0 deals accepted sockets here and
/// rings the waker so the owning loop adopts them without polling.
struct LoopShared {
    mailbox: Mutex<VecDeque<Stream>>,
    waker: Waker,
}

/// The event-loop pool. Built before it runs so that handlers and stop
/// handles can hold it for [`Server::stop`].
pub struct Server {
    loops: Vec<LoopShared>,
    stop: AtomicBool,
}

impl Server {
    /// `workers` event loops; 0 = one per core, capped at 8.
    pub fn new(workers: usize) -> Result<Server, NetError> {
        let n = match workers {
            0 => std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            n => n,
        };
        let loops = (0..n)
            .map(|_| {
                Ok(LoopShared {
                    mailbox: Mutex::new(VecDeque::new()),
                    waker: Waker::new()?,
                })
            })
            .collect::<std::io::Result<_>>()?;
        let stop = AtomicBool::new(false);
        Ok(Server { loops, stop })
    }

    /// Number of event loops (= threads [`Server::run`] occupies).
    pub fn loops(&self) -> usize {
        self.loops.len()
    }

    /// End [`Server::run`], from a handler whose work is complete or from
    /// outside: every loop wakes, flushes what is queued and returns, and
    /// every open connection sees EOF.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for l in &self.loops {
            l.waker.wake();
        }
    }

    /// Serve `listener` until [`Server::stop`]. Blocks the calling thread,
    /// which runs loop 0 and holds the listener; the other loops are scoped
    /// threads.
    pub fn run<H: Handler>(&self, h: &H, listener: &Listener) -> Result<(), NetError> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| {
            for idx in 1..self.loops.len() {
                scope.spawn(move || self.event_loop(idx, h, None));
            }
            self.event_loop(0, h, Some(listener));
        });
        Ok(())
    }

    fn event_loop<H: Handler>(&self, idx: usize, h: &H, listener: Option<&Listener>) {
        const POISON: &str = "mailbox lock poisoned";
        let me = &self.loops[idx];
        let idle = h.idle_timeout();
        let mut conns: Vec<Conn<H::Conn>> = Vec::new();
        let mut poll = PollSet::new();
        // Round-robin dispatch cursor (loop 0 only).
        let mut next_loop = 0usize;
        loop {
            // Adopt connections handed over by the accepting loop.
            for s in me.mailbox.lock().expect(POISON).drain(..) {
                conns.push(Conn::new(s));
            }
            if self.stop.load(Ordering::SeqCst) {
                for c in conns.drain(..) {
                    c.flush_at_exit(idle);
                }
                return;
            }
            let mut timeout = None;
            if let Some(deadline) = h.deadline() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    h.on_deadline();
                    continue;
                }
                timeout = Some(left);
            }
            if let Some(idle) = idle.filter(|_| !conns.is_empty()) {
                // Bound the wait so idle connections are reaped on time.
                timeout = Some(timeout.map_or(idle, |t: Duration| t.min(idle)));
            }

            // Rebuild the poll set: waker, listener (loop 0), then every
            // connection — read interest unless closing or backpressured,
            // write interest only while replies are pending.
            poll.clear();
            poll.push(me.waker.fd(), true, false);
            if let Some(l) = listener {
                poll.push(l.raw_fd(), true, false);
            }
            let first_conn = 1 + usize::from(listener.is_some());
            for c in &conns {
                poll.push(c.stream.raw_fd(), c.wants_read(), c.out.pending() > 0);
            }
            let polled = conns.len();
            if poll.wait(timeout).is_err() {
                // A transient poll failure: loop and rebuild.
                continue;
            }
            me.waker.drain();

            // Accept everything pending, dealing sockets round-robin.
            while let Some(l) = listener.filter(|_| poll.readable(1)) {
                match l.accept() {
                    Ok(s) => {
                        obs::CONNECTIONS.inc();
                        let target = next_loop % self.loops.len();
                        next_loop += 1;
                        if target == idx {
                            conns.push(Conn::new(s));
                            continue;
                        }
                        let tl = &self.loops[target];
                        let mut mb = tl.mailbox.lock().expect(POISON);
                        if !mb.is_empty() {
                            obs::BACKPRESSURE_STALLS.inc();
                        }
                        mb.push_back(s);
                        drop(mb);
                        tl.waker.wake();
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        h.on_accept_error(e);
                        break;
                    }
                }
            }

            // Drive the connections poll reported ready (the ones accepted
            // just now wait for the next poll) and reap the idle. Backwards,
            // so that `swap_remove` only moves connections already visited.
            let now = Instant::now();
            for i in (0..polled).rev() {
                let (r, w) = (poll.readable(first_conn + i), poll.writable(first_conn + i));
                let c = &mut conns[i];
                let mut fate = if r || w { c.drive(h, r) } else { Ok(true) };
                if fate == Ok(true) && idle.is_some_and(|t| now.duration_since(c.last_activity) > t)
                {
                    fate = Err("idle timeout".into());
                }
                if let Err(why) = &fate {
                    h.on_drop(&mut c.state, why);
                }
                if fate != Ok(true) {
                    conns.swap_remove(i).stream.shutdown();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame};
    use crate::transport::Addr;

    /// The one test double the trait needs: acks `Finish`, panics on
    /// `StatsRequest`.
    struct Fragile;

    impl Handler for Fragile {
        type Conn = ();

        fn on_frame(&self, _: &mut (), frame: Frame, out: &mut Outbox) {
            match frame {
                Frame::Finish { event_count, .. } => out.send(&Frame::FinAck {
                    ranks_done: event_count as u32,
                }),
                f => panic!("fragile handler got {}", f.name()),
            }
        }
    }

    #[test]
    fn handler_panic_costs_one_connection_not_the_loop() {
        let listener = Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        // One loop, so both connections share it.
        let server = Server::new(1).unwrap();
        std::thread::scope(|scope| {
            scope.spawn(|| server.run(&Fragile, &listener).unwrap());
            let connect = || {
                let s = Stream::connect(&addr, Duration::from_secs(5)).unwrap();
                s.set_io_timeout(Duration::from_secs(20)).unwrap();
                s
            };
            let (mut doomed, mut bystander) = (connect(), connect());
            let ping = |s: &mut Stream, n: u64| {
                let finish = Frame::Finish {
                    app_time: 0,
                    event_count: n,
                };
                write_frame(s, &finish).unwrap();
                read_frame(s)
            };
            let ack = |n| Frame::FinAck { ranks_done: n };
            assert_eq!(ping(&mut doomed, 1).unwrap(), ack(1));
            assert_eq!(ping(&mut bystander, 2).unwrap(), ack(2));

            write_frame(&mut doomed, &Frame::StatsRequest).unwrap();
            assert!(
                read_frame(&mut doomed).is_err(),
                "the connection whose frame panicked is closed"
            );
            for n in 3..6 {
                assert_eq!(ping(&mut bystander, n).unwrap(), ack(n as u32));
            }
            // A connection made after the panic is served too.
            assert_eq!(ping(&mut connect(), 9).unwrap(), ack(9));

            server.stop();
            assert!(
                read_frame(&mut bystander).is_err(),
                "stop closes what is still open"
            );
        });
    }
}
