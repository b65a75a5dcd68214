//! # cypress-net — networked trace collection
//!
//! The paper's dynamic module merges per-process CTTs over a binomial
//! reduction tree inside `MPI_Finalize`. This crate lifts that reduction
//! onto real connections: ranks (or whole nodes) stream their trace to a
//! **collector daemon** which compresses each stream online. The root
//! reduces the finished CTTs through [`cypress_core::BinomialMerger`] *as
//! they arrive* — it never barriers on the full rank set before starting to
//! merge, and at most `⌈log2 P⌉ + 1` partial merges are ever resident. A
//! relay holds its shard's checked ranks instead and merges the complete
//! shard once, vertex by vertex, before forwarding it.
//!
//! Layers, std-only (no external dependencies, matching the repo's
//! offline-build rule):
//!
//! - [`proto`] — the framed wire protocol: length-prefixed, versioned,
//!   CRC-checked frames (gzip polynomial via `cypress-deflate`) carrying
//!   per-rank event chunks, finalized CTT bytes, or relay-merged buddy
//!   blocks, plus the reusable [`proto::FrameBuf`] decode buffer.
//! - [`transport`] — one [`transport::Addr`] / [`transport::Stream`]
//!   abstraction over TCP and Unix-domain sockets (`TCP_NODELAY`
//!   everywhere; small acks must not eat Nagle + delayed-ACK floors).
//! - [`poll`] — readiness polling in pure std (`poll(2)` via `extern "C"`
//!   plus a self-pipe waker); the server loops block here, never in a
//!   sleep loop.
//! - [`server`] — the one server loop: a small pool of event loops
//!   multiplexing thousands of nonblocking connections, generic over a
//!   [`Handler`] that sees whole frames and queues replies, on one listener
//!   per daemon. The collector (submissions and stats polls alike) is one
//!   handler; `cypress queryd` (`cypress-store`) is another.
//! - [`client`] / [`collector`] — the submitting side (connect/send retry
//!   with exponential backoff, frame pipelining in coalesced writes,
//!   per-request timeouts, drain-on-finish) and the collection handler
//!   (per-connection protocol state machine, incremental binomial merge at
//!   the root, held shards at relays, duplicate-rank tolerance).
//! - [`tree`] — sharded collection: mid-tier **relay** collectors each own
//!   a contiguous rank shard, merge it once it is complete, and forward the
//!   merged buddy blocks upstream, so
//!   the root handles `FANOUT` relay connections instead of `P` clients.
//!
//! Because the merge association is fixed by rank indices and `TimeStats`
//! aggregation is exactly associative, a collected job's merged CTT is
//! **byte-identical** to `merge_all` over the same ranks locally — whether
//! clients hit the root directly or a relay tree sits in between. Pinned by
//! `tests/net_collect.rs` (out-of-order submission, mid-stream client
//! kills) and `tests/net_tree.rs` (shuffled arrival through relays, relay
//! death).
//!
//! The crate is unix only: [`poll`] calls `poll(2)` and [`transport`] serves
//! Unix-domain sockets next to TCP, each with one implementation. Any other
//! target fails here, at compile time, with one message.

#[cfg(not(unix))]
compile_error!("cypress-net needs a unix target: poll(2) and Unix-domain sockets");

pub mod client;
pub mod collector;
pub mod poll;
pub mod proto;
pub mod server;
pub mod stats;
pub mod transport;
pub mod tree;

pub use client::{submit_ctt, submit_stream, ClientConfig, SubmitOutcome};
pub use collector::{CollectedJob, Collector, CollectorConfig};
pub use proto::{Frame, Hello, MergedBlock, SubmitMode, MAX_FRAME_BODY, PROTO_VERSION};
pub use server::{Handler, Outbox, Server};
pub use stats::{fetch_stats, ClientStat, ClientState, QuantileStat, Stats, STATS_VERSION};
pub use transport::{Addr, Listener, Stream};
pub use tree::{spawn_tree, Tree, TreeConfig};

use std::fmt;

/// Network-layer errors.
#[derive(Debug)]
pub enum NetError {
    Io(std::io::Error),
    /// Malformed frame: bad length prefix, oversized body, codec failure,
    /// or an unexpected end of stream.
    Frame(String),
    /// A frame body failed its CRC check.
    Crc {
        stored: u32,
        computed: u32,
    },
    /// The peer speaks a protocol version other than [`PROTO_VERSION`].
    Version {
        theirs: u8,
    },
    /// The peer reported a protocol error (see [`proto::codes`]).
    Remote {
        code: u16,
        message: String,
    },
    /// Unparseable listen/connect address.
    Addr(String),
    /// The peer sent a frame the protocol state machine does not allow
    /// here.
    Protocol(String),
    /// Event production failed on the submitting side (not retryable).
    Source(String),
    /// Collection failed as a whole (deadline hit with ranks missing,
    /// listener died).
    Collect(String),
    /// Every connect/submit attempt failed.
    RetriesExhausted {
        attempts: u32,
        last: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "net io error: {e}"),
            NetError::Frame(m) => write!(f, "bad frame: {m}"),
            NetError::Crc { stored, computed } => write!(
                f,
                "frame crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            NetError::Version { theirs } => write!(
                f,
                "peer protocol version {theirs} unsupported (this build speaks only {PROTO_VERSION})",
            ),
            NetError::Remote { code, message } => {
                write!(f, "peer error {code} ({}): {message}", proto::codes::name(*code))
            }
            NetError::Addr(m) => write!(f, "bad address: {m}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::Source(m) => write!(f, "event source failed: {m}"),
            NetError::Collect(m) => write!(f, "collection failed: {m}"),
            NetError::RetriesExhausted { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last error: {last}")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// A frame body that passed its CRC but does not decode.
impl From<cypress_trace::DecodeError> for NetError {
    fn from(e: cypress_trace::DecodeError) -> Self {
        NetError::Frame(e.to_string())
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl NetError {
    /// Whether a fresh attempt against the same collector could succeed:
    /// transport-level failures are retryable, semantic rejections are not.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            NetError::Io(_) | NetError::Frame(_) | NetError::Crc { .. }
        )
    }
}

/// Scope `net`.
pub(crate) mod obs {
    use cypress_obs::{Counter, Gauge};

    /// Frame bytes received (framing + body), both sides.
    pub static BYTES_IN: Counter = Counter::new("net", "bytes_in");
    /// Frame bytes sent (framing + body), both sides.
    pub static BYTES_OUT: Counter = Counter::new("net", "bytes_out");
    pub static FRAMES_IN: Counter = Counter::new("net", "frames_in");
    pub static FRAMES_OUT: Counter = Counter::new("net", "frames_out");
    /// Connections a server loop accepted (collector and queryd alike).
    pub static CONNECTIONS: Counter = Counter::new("net", "connections");
    /// Compression sessions the collector opened for stream-mode clients.
    pub static SESSIONS_STARTED: Counter = Counter::new("net", "sessions_started");
    /// Sessions that reached Finish and merged.
    pub static SESSIONS_COMPLETED: Counter = Counter::new("net", "sessions_completed");
    /// Sessions dropped mid-stream (disconnect, frame error); the partial
    /// CTT is discarded and the client is expected to retry from scratch.
    pub static SESSIONS_ABORTED: Counter = Counter::new("net", "sessions_aborted");
    /// Accepted connections dealt to an event loop whose mailbox already
    /// held sockets it had not yet adopted.
    pub static BACKPRESSURE_STALLS: Counter = Counter::new("net", "backpressure_stalls");
    /// Ranks merged into the collector's binomial tree so far.
    pub static RANKS_MERGED: Gauge = Gauge::new("net", "ranks_merged");
}
