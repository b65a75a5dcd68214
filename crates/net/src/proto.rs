//! The framed wire protocol.
//!
//! Every message is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     body length N (u32, little-endian; N ≤ MAX_FRAME_BODY)
//! 4       N     body: u8 frame code, then the payload in the cypress
//!               varint codec (same Encoder/Decoder as the .cytc container)
//! 4+N     4     crc32(body) (u32 LE, gzip polynomial via cypress-deflate)
//! ```
//!
//! The CRC covers the whole body, so a torn or bit-flipped frame is
//! detected before any payload decoding runs. The body is [`Frame`]'s
//! [`Codec`] encoding — the frame code, then the payload, with the two
//! multi-field payloads as structs of their own ([`Hello`], [`MergedBlock`])
//! that the collector's handlers take whole. Decoding uses only the shared
//! combinators of `cypress_trace::codec`: peer-supplied ranks, counts and
//! codes are narrowing reads (`rank = 2³² + 3` is a frame error, not rank 3),
//! an `Events` chunk is a bounded sequence, and a body that passed its CRC
//! but does not decode becomes [`NetError::Frame`] through
//! `From<DecodeError>`. There is one protocol version,
//! [`PROTO_VERSION`]: the client's `Hello` carries it, and the collector
//! answers `HelloAck` with the same byte if it matches its own, or an
//! `Error` frame with [`codes::VERSION`] naming both versions, and closes.
//!
//! Frame sequences (client → collector unless noted):
//!
//! ```text
//! stream mode:  Hello → (HelloAck ←) → Events* → Finish → (FinAck ←)
//! ctt mode:     Hello → (HelloAck ←) → RankCtt → (FinAck ←)
//! blocks mode:  Hello → (HelloAck ←) → MergedBlock* → Finish → (FinAck ←)
//! query mode:   QueryRequest | AnalyzeRequest → (…Response ←), repeated
//! stats mode:   StatsRequest → (Stats ←)       first frame instead of Hello
//! any point:    Error ← (collector rejects; see codes)
//! ```
//!
//! The wire carries trees as their codec bytes and compresses nothing:
//! `RankCtt` is `Ctt::to_bytes`, and a `MergedBlock`'s bytes are
//! `MergedCtt::to_bytes`. Compression happens once, at rest, when the
//! container is written; [`MAX_FRAME_BODY`] is the memory bound on a frame.
//!
//! Blocks mode (`SubmitMode::Blocks`) is the inter-collector session of a
//! relay tree: each `MergedBlock` frame carries one
//! *aligned buddy block* of the global binomial merge — a relay's resident
//! partial merges, forwarded upstream without re-expanding to per-rank
//! CTTs. `Finish.event_count` then counts *blocks* (the cross-check the
//! stream mode applies to events), and a duplicate block — a relay retry
//! whose first attempt partially landed — is absorbed as a no-op exactly
//! like a duplicate rank.
//!
//! The query port exchanges no `Hello`, so a frame code this build does not
//! know decodes to [`Frame::Unknown`] instead of a hard frame error: a
//! resident daemon answers it with a `protocol` error frame and keeps the
//! connection usable, whatever bytes a peer invents.
//!
//! The `Finish`/`FinAck` round trip is the graceful-shutdown drain: a
//! client that received `FinAck` knows its rank is merged and may
//! disconnect; a client killed before `FinAck` must assume nothing and
//! retry from scratch (the collector discards partial sessions, and a
//! duplicate of an already-merged rank is acknowledged and dropped).

use crate::{obs, NetError};
use cypress_deflate::crc32;
use cypress_trace::codec::{Codec, DecodeError, DecodeResult, Decoder, Encoder};
use cypress_trace::event::Event;
use std::io::{Read, Write};

/// The protocol version this build speaks — the only one it accepts.
pub const PROTO_VERSION: u8 = 5;

/// Upper bound on a frame body; larger length prefixes are rejected before
/// any allocation.
pub const MAX_FRAME_BODY: usize = 64 << 20;

/// Protocol error codes carried by [`Frame::Error`].
pub mod codes {
    /// The peer's version is not the collector's [`super::PROTO_VERSION`].
    pub const VERSION: u16 = 1;
    /// Rank out of range, or job size mismatch between clients.
    pub const BAD_RANK: u16 = 2;
    /// The client's CST does not match the one the job was opened with.
    pub const CST_MISMATCH: u16 = 3;
    /// Frame sequence violation (e.g. `Events` before `Hello`).
    pub const PROTOCOL: u16 = 4;
    // 5 and 7 are unassigned: no peer ever sent them.
    /// Internal collector failure.
    pub const INTERNAL: u16 = 6;
    /// The requested job does not exist in the served store.
    pub const NOT_FOUND: u16 = 8;

    pub fn name(code: u16) -> &'static str {
        match code {
            VERSION => "version",
            BAD_RANK => "bad-rank",
            CST_MISMATCH => "cst-mismatch",
            PROTOCOL => "protocol",
            INTERNAL => "internal",
            NOT_FOUND => "not-found",
            _ => "unknown",
        }
    }
}

/// How a client delivers its rank's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitMode {
    /// Raw events stream in `Events` chunks; the collector compresses
    /// online in a `CompressSession`.
    Stream,
    /// The client compressed locally and ships the finished CTT bytes.
    Ctt,
    /// The peer is a mid-tier relay collector forwarding already-merged
    /// buddy blocks of the global binomial tree.
    Blocks,
}

impl SubmitMode {
    fn code(self) -> u8 {
        match self {
            SubmitMode::Stream => 0,
            SubmitMode::Ctt => 1,
            SubmitMode::Blocks => 2,
        }
    }

    fn from_code(c: u8) -> Option<SubmitMode> {
        match c {
            0 => Some(SubmitMode::Stream),
            1 => Some(SubmitMode::Ctt),
            2 => Some(SubmitMode::Blocks),
            _ => None,
        }
    }
}

const FR_HELLO: u8 = 1;
const FR_HELLO_ACK: u8 = 2;
const FR_EVENTS: u8 = 3;
const FR_FINISH: u8 = 4;
const FR_FIN_ACK: u8 = 5;
const FR_RANK_CTT: u8 = 6;
const FR_ERROR: u8 = 7;
// 8 is retired: it was a DEFLATE-compressed rank CTT. A peer that still
// sends it gets `Frame::Unknown`, which a collector refuses.
const FR_STATS_REQ: u8 = 9;
const FR_STATS: u8 = 10;
const FR_QUERY_REQ: u8 = 11;
const FR_QUERY_RESP: u8 = 12;
const FR_ANALYZE_REQ: u8 = 13;
const FR_ANALYZE_RESP: u8 = 14;
const FR_MERGED_BLOCK: u8 = 15;

/// A client's identification: protocol version, rank, job size, delivery
/// mode, and the CST text the trace was recorded against. The first
/// client's CST defines the job; later clients must match it.
#[derive(Debug, Clone, PartialEq)]
pub struct Hello {
    pub version: u8,
    pub rank: u32,
    pub nprocs: u32,
    pub mode: SubmitMode,
    pub cst_text: String,
}

/// One aligned buddy block of the global binomial merge, forwarded by a
/// relay collector (blocks mode). `bytes` is the codec encoding of a
/// `MergedCtt` covering ranks `[first_rank, first_rank + nranks)`.
/// `events`/`raw_mpi_bytes` carry the relay's accounting totals for the
/// ranks in this frame (a relay puts its whole subtree's totals on the
/// first block it forwards).
#[derive(Debug, Clone, PartialEq)]
pub struct MergedBlock {
    pub first_rank: u32,
    pub nranks: u32,
    pub events: u64,
    pub raw_mpi_bytes: u64,
    pub bytes: Vec<u8>,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// First frame of every submission.
    Hello(Hello),
    /// Collector acceptance: its protocol version (equal to the client's),
    /// and whether this rank is already merged (a retried client can stop
    /// immediately).
    HelloAck { version: u8, already_done: bool },
    /// A chunk of raw trace events, in execution order.
    Events { events: Vec<Event> },
    /// End of stream: the rank's application time and the total number of
    /// events sent (the collector cross-checks its own count).
    Finish { app_time: u64, event_count: u64 },
    /// The rank is held: merged at the root, kept for its shard's one merge
    /// at a relay. `ranks_done` of `nprocs` are held there.
    FinAck { ranks_done: u32 },
    /// A finished per-rank CTT in codec bytes (ctt mode).
    RankCtt { bytes: Vec<u8> },
    /// Ask a collector's stats endpoint for a live snapshot.
    StatsRequest,
    /// The snapshot. The payload is a self-versioned blob (see
    /// [`crate::stats::STATS_VERSION`]) nested as length-prefixed bytes.
    Stats { stats: crate::stats::Stats },
    /// Ask a resident query daemon to evaluate a query against one job in
    /// its store. `options` is an opaque, self-versioned blob (the query
    /// crate's canonical `QueryOptions` encoding) so the frame layer stays
    /// independent of the query engine.
    QueryRequest { job: String, options: Vec<u8> },
    /// The answer: an opaque, self-versioned `QueryResult` blob, nested as
    /// length-prefixed bytes like [`Frame::Stats`].
    QueryResponse { result: Vec<u8> },
    /// Ask a resident query daemon to run the compressed-domain analysis
    /// suite (replay prediction + wait-state detection) against one job.
    /// `options` is an opaque, self-versioned blob (the analysis crate's
    /// canonical `AnalyzeOptions` encoding), mirroring
    /// [`Frame::QueryRequest`].
    AnalyzeRequest { job: String, options: Vec<u8> },
    /// The answer: an opaque, self-versioned `AnalyzeReport` blob.
    AnalyzeResponse { result: Vec<u8> },
    /// One relay-merged block (blocks mode).
    MergedBlock(MergedBlock),
    /// Rejection; `code` is one of [`codes`].
    Error { code: u16, message: String },
    /// A frame code this build does not know, produced by the decoder with
    /// the payload discarded, so a server can answer with a `protocol`
    /// error frame instead of tearing the connection down.
    Unknown { code: u8 },
}

impl Frame {
    fn code(&self) -> u8 {
        match self {
            Frame::Hello(_) => FR_HELLO,
            Frame::HelloAck { .. } => FR_HELLO_ACK,
            Frame::Events { .. } => FR_EVENTS,
            Frame::Finish { .. } => FR_FINISH,
            Frame::FinAck { .. } => FR_FIN_ACK,
            Frame::RankCtt { .. } => FR_RANK_CTT,
            Frame::StatsRequest => FR_STATS_REQ,
            Frame::Stats { .. } => FR_STATS,
            Frame::QueryRequest { .. } => FR_QUERY_REQ,
            Frame::QueryResponse { .. } => FR_QUERY_RESP,
            Frame::AnalyzeRequest { .. } => FR_ANALYZE_REQ,
            Frame::AnalyzeResponse { .. } => FR_ANALYZE_RESP,
            Frame::MergedBlock(_) => FR_MERGED_BLOCK,
            Frame::Error { .. } => FR_ERROR,
            Frame::Unknown { code } => *code,
        }
    }

    /// Short name for logs and errors.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "Hello",
            Frame::HelloAck { .. } => "HelloAck",
            Frame::Events { .. } => "Events",
            Frame::Finish { .. } => "Finish",
            Frame::FinAck { .. } => "FinAck",
            Frame::RankCtt { .. } => "RankCtt",
            Frame::StatsRequest => "StatsRequest",
            Frame::Stats { .. } => "Stats",
            Frame::QueryRequest { .. } => "QueryRequest",
            Frame::QueryResponse { .. } => "QueryResponse",
            Frame::AnalyzeRequest { .. } => "AnalyzeRequest",
            Frame::AnalyzeResponse { .. } => "AnalyzeResponse",
            Frame::MergedBlock(_) => "MergedBlock",
            Frame::Error { .. } => "Error",
            Frame::Unknown { .. } => "Unknown",
        }
    }
}

impl Codec for Hello {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.version);
        enc.put_uvar(self.rank as u64);
        enc.put_uvar(self.nprocs as u64);
        enc.put_u8(self.mode.code());
        enc.put_str(&self.cst_text);
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        let version = dec.get_u8()?;
        let rank = dec.get_u32("Hello rank")?;
        let nprocs = dec.get_u32("Hello nprocs")?;
        let mode_code = dec.get_u8()?;
        let mode = SubmitMode::from_code(mode_code)
            .ok_or_else(|| DecodeError(format!("bad submit mode {mode_code}")))?;
        Ok(Hello {
            version,
            rank,
            nprocs,
            mode,
            cst_text: dec.get_str()?,
        })
    }
}

impl Codec for MergedBlock {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.first_rank as u64);
        enc.put_uvar(self.nranks as u64);
        enc.put_uvar(self.events);
        enc.put_uvar(self.raw_mpi_bytes);
        enc.put_bytes(&self.bytes);
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        Ok(MergedBlock {
            first_rank: dec.get_u32("block first_rank")?,
            nranks: dec.get_u32("block nranks")?,
            events: dec.get_uvar()?,
            raw_mpi_bytes: dec.get_uvar()?,
            bytes: dec.get_bytes()?,
        })
    }
}

/// A frame body: the frame code, then the payload. The length prefix and
/// CRC around it belong to [`encode_frame_into`] and [`FrameBuf`].
impl Codec for Frame {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.code());
        match self {
            Frame::Hello(hello) => hello.encode(enc),
            Frame::HelloAck {
                version,
                already_done,
            } => {
                enc.put_u8(*version);
                enc.put_u8(*already_done as u8);
            }
            Frame::Events { events } => enc.put_seq(events, |enc, ev| ev.encode(enc)),
            Frame::Finish {
                app_time,
                event_count,
            } => {
                enc.put_uvar(*app_time);
                enc.put_uvar(*event_count);
            }
            Frame::FinAck { ranks_done } => enc.put_uvar(*ranks_done as u64),
            Frame::RankCtt { bytes } => enc.put_bytes(bytes),
            Frame::Stats { stats } => enc.put_bytes(&stats.to_bytes()),
            Frame::QueryRequest { job, options } | Frame::AnalyzeRequest { job, options } => {
                enc.put_str(job);
                enc.put_bytes(options);
            }
            Frame::QueryResponse { result } | Frame::AnalyzeResponse { result } => {
                enc.put_bytes(result)
            }
            Frame::MergedBlock(block) => block.encode(enc),
            Frame::Error { code, message } => {
                enc.put_uvar(*code as u64);
                enc.put_str(message);
            }
            Frame::StatsRequest | Frame::Unknown { .. } => {}
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        Ok(match dec.get_u8()? {
            FR_HELLO => Frame::Hello(Hello::decode(dec)?),
            FR_HELLO_ACK => Frame::HelloAck {
                version: dec.get_u8()?,
                already_done: dec.get_u8()? != 0,
            },
            FR_EVENTS => Frame::Events {
                events: dec.get_seq("Events frame", Event::decode)?,
            },
            FR_FINISH => Frame::Finish {
                app_time: dec.get_uvar()?,
                event_count: dec.get_uvar()?,
            },
            FR_FIN_ACK => Frame::FinAck {
                ranks_done: dec.get_u32("FinAck ranks_done")?,
            },
            FR_RANK_CTT => Frame::RankCtt {
                bytes: dec.get_bytes()?,
            },
            FR_STATS_REQ => Frame::StatsRequest,
            FR_STATS => Frame::Stats {
                stats: crate::stats::Stats::from_bytes(dec.get_bytes_ref()?)?,
            },
            FR_QUERY_REQ => Frame::QueryRequest {
                job: dec.get_str()?,
                options: dec.get_bytes()?,
            },
            FR_QUERY_RESP => Frame::QueryResponse {
                result: dec.get_bytes()?,
            },
            FR_ANALYZE_REQ => Frame::AnalyzeRequest {
                job: dec.get_str()?,
                options: dec.get_bytes()?,
            },
            FR_ANALYZE_RESP => Frame::AnalyzeResponse {
                result: dec.get_bytes()?,
            },
            FR_MERGED_BLOCK => Frame::MergedBlock(MergedBlock::decode(dec)?),
            FR_ERROR => Frame::Error {
                code: dec.get_u16("Error code")?,
                message: dec.get_str()?,
            },
            // The CRC already vouched for the body, so an unknown code is a
            // peer speaking something else, not corruption. Discard the
            // payload (we cannot parse it) and surface the code so the
            // server can reply with a protocol error instead of dropping
            // the connection.
            code => {
                dec.skip(dec.remaining())?;
                Frame::Unknown { code }
            }
        })
    }
}

/// Serialize one frame onto the end of `out` (length prefix + body + CRC).
///
/// This is the pipelining primitive: callers append many frames to one
/// buffer and issue a single `write_all`, so a burst of `Events` chunks or
/// relay blocks crosses the socket without per-frame syscalls or acks. The
/// per-frame tx accounting lives here so [`write_frame`] (which delegates)
/// never double-counts.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) {
    let body = frame.to_bytes();
    debug_assert!(body.len() <= MAX_FRAME_BODY, "oversized frame body");
    out.reserve(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&body);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    obs::BYTES_OUT.add(body.len() as u64 + 8);
    obs::FRAMES_OUT.inc();
    cypress_obs::trace_instant("net", "frame_tx", body.len() as u64 + 8);
}

/// Serialize and send one frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), NetError> {
    let mut msg = Vec::new();
    encode_frame_into(frame, &mut msg);
    w.write_all(&msg)?;
    w.flush()?;
    Ok(())
}

/// Bound a length prefix before anything is allocated or awaited for it.
fn check_len(body_len: usize) -> Result<(), NetError> {
    if body_len == 0 || body_len > MAX_FRAME_BODY {
        return Err(NetError::Frame(format!("bad frame body length {body_len}")));
    }
    Ok(())
}

/// The one validator behind [`read_frame`] and [`FrameBuf::try_frame`]:
/// CRC before any payload decoding, rx accounting only for frames that
/// passed it.
fn check_and_decode(body: &[u8], stored: u32) -> Result<Frame, NetError> {
    let computed = crc32(body);
    if stored != computed {
        return Err(NetError::Crc { stored, computed });
    }
    obs::BYTES_IN.add(body.len() as u64 + 8);
    obs::FRAMES_IN.inc();
    cypress_obs::trace_instant("net", "frame_rx", body.len() as u64 + 8);
    Ok(Frame::from_bytes(body)?)
}

/// Receive and verify one frame. `Err(Frame(...))` covers a clean EOF
/// mid-frame; an EOF before any byte of the length prefix surfaces as
/// `Io(UnexpectedEof)` from the reader.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, NetError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    check_len(len)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    let mut crc_buf = [0u8; 4];
    r.read_exact(&mut crc_buf)?;
    check_and_decode(&body, u32::from_le_bytes(crc_buf))
}

/// A reusable per-connection receive buffer for nonblocking frame decode.
///
/// [`read_frame`] allocates a fresh body `Vec` per frame and blocks until
/// the frame is complete — fine for clients, wrong for an event loop
/// multiplexing thousands of connections. `FrameBuf` instead accumulates
/// whatever bytes the socket has (`fill`), then peels off as many complete
/// frames as arrived (`try_frame`), all inside one buffer whose capacity
/// stabilizes after warmup: steady-state traffic reallocates nothing.
///
/// Layout: `buf[start .. start + len]` holds unconsumed bytes. Consumed
/// frames advance `start`; `fill` compacts (a `copy_within`, not a realloc)
/// only when the tail runs out of spare room, and growth is bounded by the
/// largest pending frame (≤ [`MAX_FRAME_BODY`] + 8, enforced before any
/// allocation just like [`read_frame`]).
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    len: usize,
}

impl FrameBuf {
    pub fn new() -> FrameBuf {
        FrameBuf {
            buf: Vec::new(),
            start: 0,
            len: 0,
        }
    }

    /// Current backing capacity (the no-realloc tests pin this).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Read once from `r` into the spare tail. Returns the byte count (0 =
    /// EOF); `WouldBlock` bubbles up for the event loop to interpret.
    /// Callers should drain [`Self::try_frame`] between fills.
    pub fn fill(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        const CHUNK: usize = 16 * 1024;
        // Capacity target: the frame currently being assembled plus one
        // chunk of lookahead. The target is monotone over a connection's
        // life, so the buffer settles at (largest frame + CHUNK) and never
        // reallocates again — the no-realloc guarantee the tests pin.
        let pending = self.pending_total_len().unwrap_or(0);
        let want = (self.len.max(pending) + CHUNK).min(MAX_FRAME_BODY + 8 + CHUNK);
        if self.buf.len() < want {
            let target = want.max(2 * self.buf.len()).min(MAX_FRAME_BODY + 8 + CHUNK);
            self.buf.resize(target, 0);
        }
        // Reclaim consumed head room (a copy_within, not a realloc) when
        // the tail cannot take a full read.
        if self.start > 0 && self.start + self.len + CHUNK > self.buf.len() {
            self.buf.copy_within(self.start..self.start + self.len, 0);
            self.start = 0;
        }
        let spare = &mut self.buf[self.start + self.len..];
        let n = r.read(spare)?;
        self.len += n;
        Ok(n)
    }

    /// The full wire length (prefix + body + crc) of the frame at `start`,
    /// if enough of the prefix has arrived to know it.
    fn pending_total_len(&self) -> Option<usize> {
        if self.len < 4 {
            return None;
        }
        let p = &self.buf[self.start..self.start + 4];
        let body_len = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
        Some(body_len + 8)
    }

    /// Decode one complete frame if buffered; `Ok(None)` means more bytes
    /// are needed.
    pub fn try_frame(&mut self) -> Result<Option<Frame>, NetError> {
        let Some(total) = self.pending_total_len() else {
            return Ok(None);
        };
        check_len(total - 8)?;
        if self.len < total {
            return Ok(None);
        }
        let (body, crc) = self.buf[self.start + 4..self.start + total].split_at(total - 8);
        let stored = u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]);
        let frame = check_and_decode(body, stored)?;
        self.start += total;
        self.len -= total;
        if self.len == 0 {
            self.start = 0;
        }
        Ok(Some(frame))
    }
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_trace::event::{MpiOp, MpiParams, MpiRecord};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                version: PROTO_VERSION,
                rank: 3,
                nprocs: 8,
                mode: SubmitMode::Stream,
                cst_text: "Root()".into(),
            }),
            Frame::HelloAck {
                version: PROTO_VERSION,
                already_done: true,
            },
            Frame::Events {
                events: vec![
                    Event::Enter { gid: 1 },
                    Event::Mpi(MpiRecord {
                        gid: 2,
                        op: MpiOp::Send,
                        params: MpiParams::send(1, 4096, 7),
                        t_start: 100,
                        dur: 250,
                    }),
                    Event::Exit { gid: 1 },
                ],
            },
            Frame::Finish {
                app_time: 123_456,
                event_count: 3,
            },
            Frame::FinAck { ranks_done: 8 },
            Frame::RankCtt {
                bytes: vec![1, 2, 3],
            },
            Frame::StatsRequest,
            Frame::Stats {
                stats: crate::stats::Stats {
                    version: crate::stats::STATS_VERSION,
                    uptime_ns: 5_000_000,
                    nprocs: 4,
                    ranks_done: 2,
                    events_total: 1000,
                    events_per_sec_x1000: 200_000,
                    merge_depth: 1,
                    resident_blocks: 1,
                    clients: vec![crate::stats::ClientStat {
                        rank: 0,
                        state: crate::stats::ClientState::Merged,
                        events: 500,
                    }],
                    quantiles: vec![],
                },
            },
            Frame::QueryRequest {
                job: "jacobi-0042".into(),
                options: vec![1, 0, 10],
            },
            Frame::QueryResponse {
                result: vec![1, 4, 0],
            },
            Frame::AnalyzeRequest {
                job: "jacobi-0042".into(),
                options: vec![1, 1, 5, 9],
            },
            Frame::AnalyzeResponse {
                result: vec![1, 2, 0, 0],
            },
            Frame::MergedBlock(MergedBlock {
                first_rank: 4,
                nranks: 4,
                events: 2048,
                raw_mpi_bytes: 1 << 20,
                bytes: vec![5, 4, 3, 2, 1],
            }),
            Frame::Error {
                code: codes::CST_MISMATCH,
                message: "structure differs".into(),
            },
        ]
    }

    #[test]
    fn corrupted_body_fails_crc() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::FinAck { ranks_done: 4 }).unwrap();
        let mid = 4 + (wire.len() - 8) / 2;
        wire[mid] ^= 0x40;
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(NetError::Crc { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0; 16]);
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(NetError::Frame(_))
        ));
    }

    #[test]
    fn zero_length_body_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&crc32(b"").to_le_bytes());
        assert!(matches!(
            read_frame(&mut &wire[..]),
            Err(NetError::Frame(_))
        ));
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_hang() {
        let mut wire = Vec::new();
        write_frame(
            &mut wire,
            &Frame::Finish {
                app_time: 1,
                event_count: 2,
            },
        )
        .unwrap();
        for cut in [2, 5, wire.len() - 1] {
            assert!(read_frame(&mut &wire[..cut]).is_err(), "cut {cut}");
        }
    }

    /// The frame-level twin of `harden.rs`'s re-sealed header fields: a
    /// varint one past its field's width is a frame error naming the field,
    /// not a frame for the rank (or code) it would truncate to.
    #[test]
    fn out_of_range_varints_are_frame_errors_not_narrowed() {
        let wrap = 1u64 << 32;
        let hello = |rank: u64, nprocs: u64| {
            let mut enc = Encoder::new();
            enc.put_u8(FR_HELLO);
            enc.put_u8(PROTO_VERSION);
            enc.put_uvar(rank);
            enc.put_uvar(nprocs);
            enc.put_u8(0);
            enc.put_str("Root()");
            enc.finish()
        };
        let block = |first_rank: u64, nranks: u64| {
            let mut enc = Encoder::new();
            enc.put_u8(FR_MERGED_BLOCK);
            for v in [first_rank, nranks, 10, 10] {
                enc.put_uvar(v);
            }
            enc.put_bytes(&[1, 2, 3]);
            enc.finish()
        };
        let fin_ack = |ranks_done: u64| {
            let mut enc = Encoder::new();
            enc.put_u8(FR_FIN_ACK);
            enc.put_uvar(ranks_done);
            enc.finish()
        };
        let error = |code: u64| {
            let mut enc = Encoder::new();
            enc.put_u8(FR_ERROR);
            enc.put_uvar(code);
            enc.put_str("no");
            enc.finish()
        };
        // The honest twins decode, so each rejection is about the one field.
        assert!(Frame::from_bytes(&hello(3, 8)).is_ok());
        assert!(Frame::from_bytes(&block(4, 4)).is_ok());
        let cases = [
            ("rank", hello(wrap + 3, 8)),
            ("nprocs", hello(3, wrap + 8)),
            ("first_rank", block(wrap + 4, 4)),
            ("nranks", block(4, wrap + 4)),
            ("ranks_done", fin_ack(wrap + 2)),
            ("code", error((1 << 16) + 4)),
        ];
        for (field, body) in cases {
            match check_and_decode(&body, crc32(&body)) {
                Err(NetError::Frame(m)) => {
                    assert!(
                        m.contains(field) && m.contains("does not fit"),
                        "{field}: {m}"
                    )
                }
                other => panic!("{field}: expected a frame error, got {other:?}"),
            }
        }
    }

    /// ~12 bytes must not make a loop thread reserve 64 MiB: a request-gid
    /// count the frame cannot hold is refused before anything is allocated.
    #[test]
    fn hostile_req_gids_count_is_a_frame_error() {
        let mut enc = Encoder::new();
        enc.put_u8(FR_EVENTS);
        enc.put_uvar(1);
        enc.put_u8(2); // Event::Mpi
        enc.put_uvar(7);
        enc.put_u8(MpiOp::Waitall.code());
        for _ in 0..8 {
            enc.put_ivar(-1);
        }
        enc.put_uvar(1 << 24); // req_gids, over an empty tail
        let body = enc.finish();
        match check_and_decode(&body, crc32(&body)) {
            Err(NetError::Frame(m)) => assert!(m.contains("req_gids claims 16777216"), "{m}"),
            other => panic!("expected a frame error, got {other:?}"),
        }
    }

    #[test]
    fn framebuf_decodes_a_split_delivery_burst() {
        // Frames arriving in arbitrary fragments (worst case: one byte at a
        // time) must come out whole and in order.
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut wire);
        }
        let mut fb = FrameBuf::new();
        let mut decoded = Vec::new();
        for chunk in wire.chunks(7) {
            let mut r = chunk;
            while !r.is_empty() {
                fb.fill(&mut r).unwrap();
            }
            while let Some(f) = fb.try_frame().unwrap() {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, frames);
    }

    #[test]
    fn framebuf_capacity_is_stable_across_a_multi_frame_burst() {
        // Satellite requirement: the per-connection read buffer is reused —
        // after a warmup burst, thousands more frames of the same shape
        // must not grow (reallocate) the backing buffer.
        let make_burst = |n: usize| {
            let mut wire = Vec::new();
            for i in 0..n {
                encode_frame_into(
                    &Frame::Events {
                        events: vec![
                            Event::Enter { gid: i as u32 },
                            Event::Exit { gid: i as u32 },
                        ],
                    },
                    &mut wire,
                );
            }
            wire
        };
        let mut fb = FrameBuf::new();
        let warmup = make_burst(256);
        let mut r = &warmup[..];
        while fb.fill(&mut r).unwrap() > 0 {
            while let Some(_f) = fb.try_frame().unwrap() {}
        }
        let settled = fb.capacity();
        assert!(settled > 0);
        let burst = make_burst(4096);
        let mut r = &burst[..];
        loop {
            let n = fb.fill(&mut r).unwrap();
            while let Some(_f) = fb.try_frame().unwrap() {}
            if n == 0 {
                break;
            }
        }
        assert_eq!(
            fb.capacity(),
            settled,
            "read buffer reallocated during steady-state burst"
        );
    }

    #[test]
    fn framebuf_rejects_bad_length_and_crc() {
        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &wire[..];
        fb.fill(&mut r).unwrap();
        assert!(matches!(fb.try_frame(), Err(NetError::Frame(_))));

        let mut fb = FrameBuf::new();
        let mut wire = Vec::new();
        encode_frame_into(&Frame::FinAck { ranks_done: 4 }, &mut wire);
        let mid = 4 + (wire.len() - 8) / 2;
        wire[mid] ^= 0x40;
        let mut r = &wire[..];
        while fb.fill(&mut r).unwrap() > 0 {}
        assert!(matches!(fb.try_frame(), Err(NetError::Crc { .. })));
    }

    #[test]
    fn unknown_frame_code_decodes_tolerantly() {
        // An unassigned frame code with an arbitrary payload must decode to
        // Frame::Unknown (payload discarded) rather than a frame error, so
        // a server can answer it and keep the connection; the stream must
        // stay aligned for the next frame.
        let body = vec![0xeeu8, 1, 2];
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        wire.extend_from_slice(&crc32(&body).to_le_bytes());
        write_frame(&mut wire, &Frame::FinAck { ranks_done: 2 }).unwrap();
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).unwrap(), Frame::Unknown { code: 0xee });
        assert_eq!(read_frame(&mut r).unwrap(), Frame::FinAck { ranks_done: 2 });
        assert!(r.is_empty());
    }
}
