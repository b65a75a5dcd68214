//! Live collector telemetry: the versioned `Stats` payload and the client
//! side that fetches it.
//!
//! Every running collector — a `cypress serve` root, a tree root, each
//! relay leaf — answers on the address its clients submit to: a connection
//! whose first frame is `StatsRequest` gets one `Stats` back and is closed.
//! The protocol state is per connection, so a monitoring poll never touches
//! another connection's Hello/Events/Finish sequence; a `StatsRequest` sent
//! after a `Hello` is a `protocol` refusal of that submission. A relay
//! reports its own shard: `nprocs` is the whole job's, `ranks_done` the
//! ranks merged there.
//!
//! The payload is **self-versioned**: [`STATS_VERSION`] is the first byte of
//! the body, and a reader accepts exactly that version and exactly the
//! fields it defines. Collector-side measurements feeding the
//! quantiles use the ungated [`cypress_obs::Histogram::record`] path, so
//! `stats` works whether or not the daemon runs with `--metrics`. The one
//! quantile row, `batch_events`, is a process-wide static: in a process
//! that runs several collectors (`serve --tree`) every snapshot counts
//! every collector's batches, until stream-mode submission, the only thing
//! that records it, is deleted (ROADMAP item 7).

use crate::proto::{read_frame, write_frame, Frame};
use crate::transport::{Addr, Stream};
use crate::NetError;
use cypress_trace::codec::{Codec, Cursor, Encoder};
use std::time::Duration;

/// Version of the `Stats` payload this build writes.
pub const STATS_VERSION: u8 = 2;

/// Upper bound on collection sizes inside a `Stats` payload (clients,
/// quantile rows); a longer count is refused before allocation.
const MAX_STATS_ITEMS: usize = 1 << 20;

/// Where one client's submission stands, as the collector saw it last.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// Mid-stream: events are arriving (or a CTT upload is in flight).
    Streaming,
    /// The rank is held for the merge, or merged.
    Merged,
    /// The connection died mid-submission; the partial session was
    /// discarded and a retry is expected.
    Aborted,
    /// A retry of an already-merged rank was acknowledged and dropped.
    Duplicate,
}

impl ClientState {
    pub fn code(self) -> u8 {
        match self {
            ClientState::Streaming => 0,
            ClientState::Merged => 1,
            ClientState::Aborted => 2,
            ClientState::Duplicate => 3,
        }
    }

    pub fn from_code(c: u8) -> Option<ClientState> {
        Some(match c {
            0 => ClientState::Streaming,
            1 => ClientState::Merged,
            2 => ClientState::Aborted,
            3 => ClientState::Duplicate,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ClientState::Streaming => "streaming",
            ClientState::Merged => "merged",
            ClientState::Aborted => "aborted",
            ClientState::Duplicate => "duplicate",
        }
    }
}

/// One client (rank) the collector has heard from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientStat {
    pub rank: u32,
    pub state: ClientState,
    /// Events the collector received from this rank so far.
    pub events: u64,
}

/// Quantile summary of one collector-side histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileStat {
    pub name: String,
    pub count: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

/// A live snapshot of a running collector.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Payload version the collector wrote ([`STATS_VERSION`] here).
    pub version: u8,
    /// Nanoseconds since the collector started serving.
    pub uptime_ns: u64,
    /// Job size fixed by the first `Hello` (0 before any client connected).
    pub nprocs: u32,
    /// Ranks held or merged.
    pub ranks_done: u32,
    /// Events received across all clients.
    pub events_total: u64,
    /// Receive rate over the whole uptime, milli-events/second
    /// (fixed-point ×1000 — the wire stays integer-only).
    pub events_per_sec_x1000: u64,
    /// Merged blocks from a lower tier held for the one merge at the end.
    pub resident_blocks: u32,
    /// Per-client state, rank-sorted.
    pub clients: Vec<ClientStat>,
    /// Histogram quantile rows (batch sizes; process-wide, see the module
    /// docs).
    pub quantiles: Vec<QuantileStat>,
}

impl Codec for ClientStat {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.rank as u64);
        enc.put_u8(self.state.code());
        enc.put_uvar(self.events);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let rank = cur.u32("stats client rank")?;
        let code = cur.u8()?;
        let Some(state) = ClientState::from_code(code) else {
            return cur.refuse(code as u64, |c| format!("bad stats client state {c}"));
        };
        Some(ClientStat {
            rank,
            state,
            events: cur.uvar()?,
        })
    }
}

impl Codec for QuantileStat {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_uvar(self.count);
        enc.put_uvar(self.p50);
        enc.put_uvar(self.p90);
        enc.put_uvar(self.p99);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(QuantileStat {
            name: cur.str()?,
            count: cur.uvar()?,
            p50: cur.uvar()?,
            p90: cur.uvar()?,
            p99: cur.uvar()?,
        })
    }
}

/// The whole payload: exactly [`STATS_VERSION`], every field, and (through
/// [`Codec::from_bytes`]) nothing after the last one.
impl Codec for Stats {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.version);
        enc.put_uvar(self.uptime_ns);
        enc.put_uvar(self.nprocs as u64);
        enc.put_uvar(self.ranks_done as u64);
        enc.put_uvar(self.events_total);
        enc.put_uvar(self.events_per_sec_x1000);
        enc.put_uvar(self.resident_blocks as u64);
        enc.put_seq(&self.clients, |enc, c| c.encode(enc));
        enc.put_seq(&self.quantiles, |enc, q| q.encode(enc));
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.expect_version("stats payload", STATS_VERSION)?;
        Some(Stats {
            version: STATS_VERSION,
            uptime_ns: cur.uvar()?,
            nprocs: cur.u32("stats nprocs")?,
            ranks_done: cur.u32("stats ranks_done")?,
            events_total: cur.uvar()?,
            events_per_sec_x1000: cur.uvar()?,
            resident_blocks: cur.u32("stats resident_blocks")?,
            clients: cur.seq_capped("stats clients", MAX_STATS_ITEMS, ClientStat::decode)?,
            quantiles: cur.seq_capped("stats quantiles", MAX_STATS_ITEMS, QuantileStat::decode)?,
        })
    }
}

impl Stats {
    /// Human-readable rendering for `cypress stats`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "collector stats (v{}) — up {:.3}s\n",
            self.version,
            self.uptime_ns as f64 / 1e9
        ));
        out.push_str(&format!(
            "job: {}/{} ranks merged, {} events, {:.1} events/s\n",
            self.ranks_done,
            self.nprocs,
            self.events_total,
            self.events_per_sec_x1000 as f64 / 1000.0
        ));
        out.push_str(&format!("merge: {} block(s) held\n", self.resident_blocks));
        if !self.clients.is_empty() {
            out.push_str("clients:\n");
            for c in &self.clients {
                out.push_str(&format!(
                    "  rank {:<5} {:<10} {:>10} events\n",
                    c.rank,
                    c.state.name(),
                    c.events
                ));
            }
        }
        for q in &self.quantiles {
            out.push_str(&format!(
                "{}: n={} p50={} p90={} p99={}\n",
                q.name, q.count, q.p50, q.p90, q.p99
            ));
        }
        out
    }

    /// One JSON object (hand-rolled — offline build, no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"version\":{},\"uptime_ns\":{},\"nprocs\":{},\"ranks_done\":{},\
             \"events_total\":{},\"events_per_sec_x1000\":{},\
             \"resident_blocks\":{},\"clients\":[",
            self.version,
            self.uptime_ns,
            self.nprocs,
            self.ranks_done,
            self.events_total,
            self.events_per_sec_x1000,
            self.resident_blocks,
        ));
        for (i, c) in self.clients.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rank\":{},\"state\":\"{}\",\"events\":{}}}",
                c.rank,
                c.state.name(),
                c.events
            ));
        }
        out.push_str("],\"quantiles\":[");
        for (i, q) in self.quantiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Names are collector-chosen identifiers (no escaping needed).
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"count\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                q.name, q.count, q.p50, q.p90, q.p99
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Fetch a live snapshot from a collector's stats endpoint.
pub fn fetch_stats(addr: &Addr, timeout: Duration) -> Result<Stats, NetError> {
    let mut stream = Stream::connect(addr, timeout)?;
    stream.set_io_timeout(timeout)?;
    cypress_obs::trace_instant("net", "stats_fetch", 0);
    write_frame(&mut stream, &Frame::StatsRequest)?;
    match read_frame(&mut stream)? {
        Frame::Stats { stats } => Ok(stats),
        Frame::Error { code, message } => Err(NetError::Remote { code, message }),
        f => Err(NetError::Protocol(format!(
            "expected Stats, got {}",
            f.name()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Stats {
        Stats {
            version: STATS_VERSION,
            uptime_ns: 1_234_567_890,
            nprocs: 8,
            ranks_done: 5,
            events_total: 40_000,
            events_per_sec_x1000: 32_400_500,
            resident_blocks: 2,
            clients: vec![
                ClientStat {
                    rank: 0,
                    state: ClientState::Merged,
                    events: 8_000,
                },
                ClientStat {
                    rank: 1,
                    state: ClientState::Streaming,
                    events: 1_500,
                },
                ClientStat {
                    rank: 7,
                    state: ClientState::Aborted,
                    events: 12,
                },
            ],
            quantiles: vec![QuantileStat {
                name: "batch_events".into(),
                count: 79,
                p50: 512,
                p90: 512,
                p99: 512,
            }],
        }
    }

    #[test]
    fn wrong_version_is_a_loud_error_naming_both_versions() {
        for offered in [STATS_VERSION - 1, STATS_VERSION + 1] {
            let mut s = sample();
            s.version = offered;
            let err = Stats::from_bytes(&s.to_bytes()).unwrap_err();
            assert!(
                err.0.contains(&format!("version {offered} "))
                    && err.0.contains(&format!("expected {STATS_VERSION}")),
                "version {offered}: {}",
                err.0
            );
        }
    }

    #[test]
    fn text_and_json_render() {
        let s = sample();
        let text = s.to_text();
        assert!(text.contains("5/8 ranks merged"));
        assert!(text.contains("rank 1"));
        assert!(text.contains("streaming"));
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ranks_done\":5"));
        assert!(json.contains("\"state\":\"aborted\""));
        assert!(json.contains("\"p99\":512"));
    }
}
