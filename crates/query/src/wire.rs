//! Canonical wire and JSON serializations of query inputs and answers.
//!
//! The resident query daemon (`cypress queryd`) ships [`QueryOptions`]
//! request blobs and [`QueryResult`] response blobs over the net transport.
//! Both are self-versioned: the first byte is [`QUERY_WIRE_VERSION`], so the
//! frame layer can treat them as opaque bytes and the daemon can reject
//! mismatched clients with a clean error instead of a mis-parse. The
//! encoding is canonical — equal results produce identical bytes — which is
//! what lets the remote-query tests assert byte-for-byte identity against
//! local evaluation.
//!
//! [`QueryResult::render_json`] is the script-facing twin: a deterministic,
//! dependency-free JSON rendering with stable key order, used by
//! `cypress query --json` / `cypress inspect --json` so the queryd smoke
//! test can diff local and remote answers structurally.

use crate::{HotSpot, QueryOptions, QueryResult, RankTotals, StrategyUsed, Window};
use cypress_obs::{json_str, push_json_u64_array};
use cypress_trace::{Codec, CommMatrix, Cursor, Encoder, MpiOp, Profile};

/// Version byte leading every [`QueryOptions`] / [`QueryResult`] blob.
/// Version 2: the options carry the window alone.
pub const QUERY_WIRE_VERSION: u8 = 2;

impl Codec for RankTotals {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.send_bytes);
        enc.put_uvar(self.recv_bytes);
        enc.put_uvar(self.calls);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(RankTotals {
            send_bytes: cur.uvar()?,
            recv_bytes: cur.uvar()?,
            calls: cur.uvar()?,
        })
    }
}

impl Codec for HotSpot {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.gid as u64);
        enc.put_u8(self.op.code());
        enc.put_uvar(self.calls);
        enc.put_uvar(self.bytes);
        enc.put_str(&self.path);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let gid = cur.u32("hot spot gid")?;
        let code = cur.u8()?;
        let Some(op) = MpiOp::from_code(code) else {
            return cur.refuse(code as u64, |c| {
                format!("unknown MPI op code {c} in hot spot")
            });
        };
        Some(HotSpot {
            gid,
            op,
            calls: cur.uvar()?,
            bytes: cur.uvar()?,
            path: cur.str()?,
        })
    }
}

impl StrategyUsed {
    fn code(self) -> u8 {
        match self {
            StrategyUsed::Symbolic => 0,
            StrategyUsed::PartialExpansion => 1,
            StrategyUsed::Reference => 2,
        }
    }

    fn from_code(c: u8) -> Option<StrategyUsed> {
        Some(match c {
            0 => StrategyUsed::Symbolic,
            1 => StrategyUsed::PartialExpansion,
            2 => StrategyUsed::Reference,
            _ => return None,
        })
    }
}

impl Window {
    /// Wire form of an optional window, shared by every options blob that
    /// carries one: a presence flag, then the two bounds.
    pub fn encode_opt(window: Option<Window>, enc: &mut Encoder) {
        match window {
            None => enc.put_u8(0),
            Some(w) => {
                enc.put_u8(1);
                enc.put_uvar(w.start_ns);
                enc.put_uvar(w.end_ns);
            }
        }
    }

    pub fn decode_opt(cur: &mut Cursor<'_>) -> Option<Option<Window>> {
        Some(match cur.u8()? {
            0 => None,
            1 => Some(Window {
                start_ns: cur.uvar()?,
                end_ns: cur.uvar()?,
            }),
            f => return cur.refuse(f as u64, |f| format!("unknown window flag {f}")),
        })
    }
}

impl Codec for QueryOptions {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(QUERY_WIRE_VERSION);
        Window::encode_opt(self.window, enc);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.expect_version("query options wire", QUERY_WIRE_VERSION)?;
        Some(QueryOptions {
            window: Window::decode_opt(cur)?,
        })
    }
}

impl Codec for QueryResult {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(QUERY_WIRE_VERSION);
        enc.put_uvar(self.nprocs as u64);
        enc.put_u8(self.strategy.code());
        self.matrix.encode(enc);
        self.profile.encode(enc);
        enc.put_seq(&self.totals, |enc, t| t.encode(enc));
        enc.put_seq(&self.hotspots, |enc, h| h.encode(enc));
        enc.put_uvar(self.loop_trips);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.expect_version("query result wire", QUERY_WIRE_VERSION)?;
        let nprocs = cur.u32("query result nprocs")?;
        let code = cur.u8()?;
        let Some(strategy) = StrategyUsed::from_code(code) else {
            return cur.refuse(code as u64, |c| format!("unknown strategy-used code {c}"));
        };
        Some(QueryResult {
            nprocs,
            strategy,
            matrix: CommMatrix::decode(cur)?,
            profile: Profile::decode(cur)?,
            totals: cur.seq("query result rank totals", RankTotals::decode)?,
            hotspots: cur.seq("query result hot spots", HotSpot::decode)?,
            loop_trips: cur.uvar()?,
        })
    }
}

impl QueryResult {
    /// Deterministic JSON rendering with stable key order — the structural
    /// twin of the wire encoding, consumed by `--json` CLI modes and the
    /// queryd loopback smoke test. No floats are emitted (mean times are
    /// derivable from totals), so output is bit-stable across platforms.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        write!(
            out,
            "{{\"nprocs\":{},\"strategy\":\"{}\",\"loop_trips\":{},\"total_volume\":{},\"total_calls\":{}",
            self.nprocs,
            self.strategy.name(),
            self.loop_trips,
            self.total_volume(),
            self.total_calls()
        )
        .unwrap();

        out.push_str(",\"matrix\":[");
        for s in 0..self.matrix.nprocs {
            if s > 0 {
                out.push(',');
            }
            push_json_u64_array(
                &mut out,
                (0..self.matrix.nprocs).map(|d| self.matrix.get(s, d)),
            );
        }
        out.push(']');

        out.push_str(",\"profile\":{\"by_op\":{");
        for (i, (op, s)) in self.profile.by_op.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{}:{{\"calls\":{},\"total_bytes\":{},\"total_time_ns\":{},\"min_time_ns\":{},\"max_time_ns\":{}}}",
                json_str(op.name()),
                s.calls,
                s.total_bytes,
                s.total_time_ns,
                s.min_time_ns,
                s.max_time_ns
            )
            .unwrap();
        }
        out.push_str("},\"rank_mpi_time\":");
        push_json_u64_array(&mut out, self.profile.rank_mpi_time.iter().copied());
        out.push_str(",\"rank_app_time\":");
        push_json_u64_array(&mut out, self.profile.rank_app_time.iter().copied());
        out.push_str(",\"size_buckets\":");
        push_json_u64_array(&mut out, self.profile.size_buckets.iter().copied());
        out.push('}');

        out.push_str(",\"totals\":[");
        for (i, t) in self.totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"rank\":{},\"send_bytes\":{},\"recv_bytes\":{},\"calls\":{}}}",
                i, t.send_bytes, t.recv_bytes, t.calls
            )
            .unwrap();
        }
        out.push(']');

        out.push_str(",\"hotspots\":[");
        for (i, h) in self.hotspots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"gid\":{},\"op\":{},\"calls\":{},\"bytes\":{},\"path\":{}}}",
                h.gid,
                json_str(h.op.name()),
                h.calls,
                h.bytes,
                json_str(&h.path)
            )
            .unwrap();
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One version each way: a blob one version older or newer is a loud
    /// error naming the offered and the expected version.
    #[test]
    fn wrong_version_is_a_loud_error_naming_both_versions() {
        fn check<T: Codec>(what: &str, mut blob: Vec<u8>) {
            for offered in [QUERY_WIRE_VERSION - 1, QUERY_WIRE_VERSION + 1] {
                blob[0] = offered;
                let Err(err) = T::from_bytes(&blob) else {
                    panic!("{what} version {offered} decoded");
                };
                assert!(
                    err.0.contains(&format!("{what} wire version {offered} "))
                        && err.0.contains(&format!("expected {QUERY_WIRE_VERSION}")),
                    "{what} version {offered}: {}",
                    err.0
                );
            }
        }
        let windowed = QueryOptions {
            window: Some(Window {
                start_ns: 1,
                end_ns: 2,
            }),
        };
        check::<QueryOptions>("query options", QueryOptions::default().to_bytes());
        check::<QueryOptions>("query options", windowed.to_bytes());
        let result = QueryResult {
            nprocs: 1,
            strategy: StrategyUsed::Symbolic,
            matrix: CommMatrix::new(1),
            profile: Profile::new(1),
            totals: vec![RankTotals::default()],
            hotspots: Vec::new(),
            loop_trips: 0,
        };
        check::<QueryResult>("query result", result.to_bytes());
    }
}
