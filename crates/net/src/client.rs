//! The submitting side: connect/send retry with exponential backoff,
//! per-request timeouts, and a drain-on-finish handshake.
//!
//! Streaming submission is **replayable by construction**: the caller
//! passes a producer closure that regenerates the rank's event stream into
//! an [`EventSink`], and every retry re-runs it from the start. That keeps
//! the client memory-bounded (nothing is buffered beyond one chunk) while
//! still surviving a mid-stream disconnect — the collector discards the
//! partial session, and the retried attempt re-streams everything. Event
//! sources in this repo (the deterministic interpreter, recorded raw
//! traces) replay exactly, so a retry submits identical bytes.

use crate::proto::{
    encode_frame_into, read_frame, write_frame, Frame, Hello, MergedBlock, SubmitMode,
    PROTO_VERSION,
};
use crate::transport::{Addr, Stream};
use crate::NetError;
use cypress_core::Ctt;
use cypress_trace::event::{Event, EventSink};
use std::io::Write;
use std::time::Duration;

/// Client knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total connect+submit attempts before giving up.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub backoff: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Per-request (read/write/connect) timeout.
    pub io_timeout: Duration,
    /// Events per `Events` frame in streaming mode.
    pub chunk_events: usize,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            attempts: 5,
            backoff: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            io_timeout: Duration::from_secs(10),
            chunk_events: 512,
        }
    }
}

/// What a successful submission did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// The collector already had this rank (nothing was sent) — a retried
    /// client discovering its previous attempt actually landed.
    pub already_done: bool,
    /// Events streamed in the successful attempt (0 in ctt mode or when
    /// `already_done`).
    pub events_sent: u64,
    /// Attempts used, including the successful one.
    pub attempts: u32,
    /// Ranks the collector had merged when it acknowledged this one.
    pub ranks_done: u32,
}

/// Flush the pipelined wire buffer to the socket once it holds this much.
const WIRE_FLUSH: usize = 64 * 1024;

/// Buffers events into `Events` frames, and frames into a coalesced wire
/// buffer: the protocol needs no per-frame ack, so many chunks pipeline
/// into one large socket write instead of a syscall per chunk. A send
/// failure is latched: later events are dropped cheaply, and the producer
/// finishes its (wasted) replay so the attempt can report the error and
/// retry.
struct ChunkSink<'a> {
    stream: &'a mut Stream,
    buf: Vec<Event>,
    wire: Vec<u8>,
    chunk: usize,
    sent: u64,
    err: Option<NetError>,
}

impl ChunkSink<'_> {
    /// Encode the pending chunk into the wire buffer (no socket write
    /// unless the buffer is full).
    fn flush_events(&mut self) {
        if self.err.is_some() || self.buf.is_empty() {
            return;
        }
        let events = std::mem::take(&mut self.buf);
        let n = events.len() as u64;
        let frame = Frame::Events { events };
        encode_frame_into(&frame, &mut self.wire);
        self.sent += n;
        // Recover the chunk allocation for the next batch.
        let Frame::Events { mut events } = frame else {
            unreachable!()
        };
        events.clear();
        self.buf = events;
        if self.wire.len() >= WIRE_FLUSH {
            self.flush_wire();
        }
    }

    fn flush_wire(&mut self) {
        if self.err.is_some() || self.wire.is_empty() {
            return;
        }
        let res = self
            .stream
            .write_all(&self.wire)
            .and_then(|()| self.stream.flush());
        if let Err(e) = res {
            self.err = Some(NetError::Io(e));
        }
        self.wire.clear();
    }
}

impl EventSink for ChunkSink<'_> {
    fn event(&mut self, ev: Event) {
        if self.err.is_some() {
            return;
        }
        self.buf.push(ev);
        if self.buf.len() >= self.chunk {
            self.flush_events();
        }
    }
}

/// One retry loop shared by every submit mode: run `attempt` until it
/// succeeds, the error is non-retryable, or attempts are exhausted.
fn with_retry<T>(
    cfg: &ClientConfig,
    mut attempt: impl FnMut(u32) -> Result<T, NetError>,
) -> Result<T, NetError> {
    let attempts = cfg.attempts.max(1);
    let mut backoff = cfg.backoff;
    let mut last = String::new();
    for i in 1..=attempts {
        match attempt(i) {
            Ok(v) => return Ok(v),
            Err(e) if e.is_retryable() && i < attempts => {
                last = e.to_string();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(cfg.backoff_max);
            }
            Err(e) if e.is_retryable() => {
                return Err(NetError::RetriesExhausted {
                    attempts,
                    last: e.to_string(),
                })
            }
            Err(e) => return Err(e),
        }
    }
    // Unreachable: the loop always returns; keep the compiler satisfied.
    Err(NetError::RetriesExhausted { attempts, last })
}

/// A reply other than the one the protocol expects here: the collector's
/// refusal, or a protocol violation.
fn unexpected(want: &str, reply: Frame) -> NetError {
    match reply {
        Frame::Error { code, message } => NetError::Remote { code, message },
        f => NetError::Protocol(format!("expected {want}, got {}", f.name())),
    }
}

/// The one submission routine behind every mode. Each attempt connects,
/// sends `hello` and, unless the collector already has the rank, runs
/// `body` (which returns the events it streamed) and waits for the
/// `FinAck`.
fn submit(
    addr: &Addr,
    cfg: &ClientConfig,
    hello: Hello,
    mut body: impl FnMut(&mut Stream) -> Result<u64, NetError>,
) -> Result<SubmitOutcome, NetError> {
    let rank = hello.rank;
    let hello = Frame::Hello(hello);
    with_retry(cfg, |attempts| {
        let mut stream = Stream::connect(addr, cfg.io_timeout)?;
        cypress_obs::trace_instant("net", "connect", rank as u64);
        stream.set_io_timeout(cfg.io_timeout)?;
        write_frame(&mut stream, &hello)?;
        let already_done = match read_frame(&mut stream)? {
            Frame::HelloAck {
                version: PROTO_VERSION,
                already_done,
            } => already_done,
            // Any other version is a different protocol: stop before
            // sending it anything else.
            Frame::HelloAck { version, .. } => return Err(NetError::Version { theirs: version }),
            f => return Err(unexpected("HelloAck", f)),
        };
        let (events_sent, ranks_done) = if already_done {
            (0, 0)
        } else {
            let sent = body(&mut stream)?;
            match read_frame(&mut stream)? {
                Frame::FinAck { ranks_done } => (sent, ranks_done),
                f => return Err(unexpected("FinAck", f)),
            }
        };
        stream.shutdown();
        Ok(SubmitOutcome {
            already_done,
            events_sent,
            attempts,
            ranks_done,
        })
    })
}

fn hello(rank: u32, nprocs: u32, mode: SubmitMode, cst_text: &str) -> Hello {
    Hello {
        version: PROTO_VERSION,
        rank,
        nprocs,
        mode,
        cst_text: cst_text.to_string(),
    }
}

/// Stream one rank's events to a collector, retrying whole attempts with
/// exponential backoff on transport failures.
///
/// `produce` must replay the rank's full event stream into the sink and
/// return the rank's application time (ns); it runs once per attempt.
/// Returning `Err` aborts without retry (a deterministic producer that
/// failed once will fail again).
pub fn submit_stream(
    addr: &Addr,
    cfg: &ClientConfig,
    rank: u32,
    nprocs: u32,
    cst_text: &str,
    mut produce: impl FnMut(&mut dyn EventSink) -> Result<u64, String>,
) -> Result<SubmitOutcome, NetError> {
    let hello = hello(rank, nprocs, SubmitMode::Stream, cst_text);
    submit(addr, cfg, hello, |stream| {
        let mut sink = ChunkSink {
            stream,
            buf: Vec::new(),
            wire: Vec::new(),
            chunk: cfg.chunk_events.max(1),
            sent: 0,
            err: None,
        };
        let app_time = produce(&mut sink).map_err(NetError::Source)?;
        sink.flush_events();
        // The Finish rides the same write as the stream's tail — the
        // whole submission is one pipelined burst with a single
        // round-trip at the end.
        let finish = Frame::Finish {
            app_time,
            event_count: sink.sent,
        };
        encode_frame_into(&finish, &mut sink.wire);
        sink.flush_wire();
        match sink.err {
            Some(e) => Err(e),
            None => Ok(sink.sent),
        }
    })
}

/// Submit a locally-compressed CTT (the paper's merge-at-finalize artifact)
/// instead of raw events, as its codec bytes: the wire compresses nothing.
/// Same retry/backoff/drain behavior.
pub fn submit_ctt(
    addr: &Addr,
    cfg: &ClientConfig,
    ctt: &Ctt,
    cst_text: &str,
) -> Result<SubmitOutcome, NetError> {
    // Encoded once up front; retried attempts reuse it.
    let frame = Frame::RankCtt {
        bytes: ctt.to_bytes(),
    };
    let hello = hello(ctt.rank, ctt.nprocs, SubmitMode::Ctt, cst_text);
    submit(addr, cfg, hello, |stream| {
        write_frame(stream, &frame)?;
        Ok(0)
    })
}

/// Forward a relay's merged blocks to its upstream collector — a relay
/// sends one, its shard. The blocks plus the `Finish` pipeline in one
/// write with a single round-trip; duplicates are upstream no-ops, so a
/// retry that re-sends a block which already landed is harmless.
pub(crate) fn submit_merged_blocks(
    addr: &Addr,
    cfg: &ClientConfig,
    nprocs: u32,
    cst_text: &str,
    blocks: Vec<MergedBlock>,
) -> Result<SubmitOutcome, NetError> {
    // The Hello rank only identifies the shard for validation.
    let hello_rank = blocks.first().map_or(0, |b| b.first_rank);
    let finish = Frame::Finish {
        app_time: 0,
        event_count: blocks.len() as u64,
    };
    let frames: Vec<Frame> = blocks.into_iter().map(Frame::MergedBlock).collect();
    let hello = hello(hello_rank, nprocs, SubmitMode::Blocks, cst_text);
    submit(addr, cfg, hello, |stream| {
        let mut wire = Vec::new();
        for f in frames.iter().chain([&finish]) {
            encode_frame_into(f, &mut wire);
        }
        stream.write_all(&wire)?;
        stream.flush()?;
        Ok(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_to_dead_endpoint_exhausts_retries() {
        // Port 1 on localhost refuses immediately; keep backoff tiny.
        let addr = Addr::parse("127.0.0.1:1").unwrap();
        let cfg = ClientConfig {
            attempts: 3,
            backoff: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            io_timeout: Duration::from_millis(200),
            ..ClientConfig::default()
        };
        let err = submit_stream(&addr, &cfg, 0, 1, "Root()", |_| Ok(0)).unwrap_err();
        match err {
            NetError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 3),
            e => panic!("expected RetriesExhausted, got {e}"),
        }
    }

    #[test]
    fn producer_failure_does_not_retry() {
        // No listener needed: the producer only runs after connect, so use
        // a live listener that accepts and acks.
        let l = crate::transport::Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = l.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut s = l.accept().unwrap();
            let _ = read_frame(&mut s).unwrap();
            write_frame(
                &mut s,
                &Frame::HelloAck {
                    version: PROTO_VERSION,
                    already_done: false,
                },
            )
            .unwrap();
            // Keep the socket open until the client gives up.
            let _ = read_frame(&mut s);
        });
        let cfg = ClientConfig {
            attempts: 5,
            backoff: Duration::from_millis(1),
            ..ClientConfig::default()
        };
        let mut calls = 0;
        let err = submit_stream(&addr, &cfg, 0, 1, "Root()", |_| {
            calls += 1;
            Err("interpreter exploded".into())
        })
        .unwrap_err();
        assert!(matches!(err, NetError::Source(_)), "{err}");
        assert_eq!(calls, 1, "source errors must not retry");
        server.join().unwrap();
    }
}
