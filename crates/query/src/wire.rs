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

use crate::{HotSpot, QueryOptions, QueryResult, RankTotals, Strategy, StrategyUsed, Window};
use cypress_trace::{
    Codec, CommMatrix, DecodeError, DecodeResult, Decoder, Encoder, MpiOp, Profile,
};

/// Version byte leading every [`QueryOptions`] / [`QueryResult`] blob.
pub const QUERY_WIRE_VERSION: u8 = 1;

fn check_version(dec: &mut Decoder<'_>, what: &str) -> DecodeResult<()> {
    let v = dec.get_u8()?;
    if v != QUERY_WIRE_VERSION {
        return Err(DecodeError(format!(
            "{what} wire version {v} unsupported (expected {QUERY_WIRE_VERSION})"
        )));
    }
    Ok(())
}

impl Codec for RankTotals {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.send_bytes);
        enc.put_uvar(self.recv_bytes);
        enc.put_uvar(self.calls);
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        Ok(RankTotals {
            send_bytes: dec.get_uvar()?,
            recv_bytes: dec.get_uvar()?,
            calls: dec.get_uvar()?,
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

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        let gid = dec.get_uvar()? as u32;
        let code = dec.get_u8()?;
        let op = MpiOp::from_code(code)
            .ok_or_else(|| DecodeError(format!("unknown MPI op code {code} in hot spot")))?;
        Ok(HotSpot {
            gid,
            op,
            calls: dec.get_uvar()?,
            bytes: dec.get_uvar()?,
            path: dec.get_str()?,
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

impl Strategy {
    fn code(self) -> u8 {
        match self {
            Strategy::Auto => 0,
            Strategy::Symbolic => 1,
            Strategy::PartialExpansion => 2,
        }
    }

    fn from_code(c: u8) -> Option<Strategy> {
        Some(match c {
            0 => Strategy::Auto,
            1 => Strategy::Symbolic,
            2 => Strategy::PartialExpansion,
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

    pub fn decode_opt(dec: &mut Decoder<'_>) -> DecodeResult<Option<Window>> {
        match dec.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(Window {
                start_ns: dec.get_uvar()?,
                end_ns: dec.get_uvar()?,
            })),
            f => Err(DecodeError(format!("unknown window flag {f}"))),
        }
    }
}

impl Codec for QueryOptions {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(QUERY_WIRE_VERSION);
        enc.put_u8(self.strategy.code());
        enc.put_uvar(self.hotspot_limit as u64);
        Window::encode_opt(self.window, enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        check_version(dec, "query options")?;
        let code = dec.get_u8()?;
        let strategy = Strategy::from_code(code)
            .ok_or_else(|| DecodeError(format!("unknown strategy code {code}")))?;
        let hotspot_limit = dec.get_uvar()? as usize;
        let window = Window::decode_opt(dec)?;
        Ok(QueryOptions {
            strategy,
            hotspot_limit,
            window,
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
        enc.put_uvar(self.totals.len() as u64);
        for t in &self.totals {
            t.encode(enc);
        }
        enc.put_uvar(self.hotspots.len() as u64);
        for h in &self.hotspots {
            h.encode(enc);
        }
        enc.put_uvar(self.loop_trips);
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        check_version(dec, "query result")?;
        let nprocs = dec.get_uvar()? as u32;
        let code = dec.get_u8()?;
        let strategy = StrategyUsed::from_code(code)
            .ok_or_else(|| DecodeError(format!("unknown strategy-used code {code}")))?;
        let matrix = CommMatrix::decode(dec)?;
        let profile = Profile::decode(dec)?;
        let ntotals = dec.get_uvar()? as usize;
        if ntotals > dec.remaining() {
            return Err(DecodeError(format!(
                "query result claims {ntotals} rank totals but only {} bytes remain",
                dec.remaining()
            )));
        }
        let mut totals = Vec::with_capacity(ntotals);
        for _ in 0..ntotals {
            totals.push(RankTotals::decode(dec)?);
        }
        let nspots = dec.get_uvar()? as usize;
        if nspots > dec.remaining() {
            return Err(DecodeError(format!(
                "query result claims {nspots} hot spots but only {} bytes remain",
                dec.remaining()
            )));
        }
        let mut hotspots = Vec::with_capacity(nspots);
        for _ in 0..nspots {
            hotspots.push(HotSpot::decode(dec)?);
        }
        Ok(QueryResult {
            nprocs,
            strategy,
            matrix,
            profile,
            totals,
            hotspots,
            loop_trips: dec.get_uvar()?,
        })
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_u64_array(out: &mut String, vals: impl Iterator<Item = u64>) {
    use std::fmt::Write;
    out.push('[');
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}").unwrap();
    }
    out.push(']');
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
            push_u64_array(
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
                "\"{}\":{{\"calls\":{},\"total_bytes\":{},\"total_time_ns\":{},\"min_time_ns\":{},\"max_time_ns\":{}}}",
                json_escape(op.name()),
                s.calls,
                s.total_bytes,
                s.total_time_ns,
                s.min_time_ns,
                s.max_time_ns
            )
            .unwrap();
        }
        out.push_str("},\"rank_mpi_time\":");
        push_u64_array(&mut out, self.profile.rank_mpi_time.iter().copied());
        out.push_str(",\"rank_app_time\":");
        push_u64_array(&mut out, self.profile.rank_app_time.iter().copied());
        out.push_str(",\"size_buckets\":");
        push_u64_array(&mut out, self.profile.size_buckets.iter().copied());
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
                "{{\"gid\":{},\"op\":\"{}\",\"calls\":{},\"bytes\":{},\"path\":\"{}\"}}",
                h.gid,
                json_escape(h.op.name()),
                h.calls,
                h.bytes,
                json_escape(&h.path)
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

    #[test]
    fn options_roundtrip_with_and_without_window() {
        for window in [
            None,
            Some(Window {
                start_ns: 1_000,
                end_ns: 9_999,
            }),
        ] {
            let opts = QueryOptions {
                strategy: Strategy::Symbolic,
                hotspot_limit: 25,
                window,
            };
            let bytes = opts.to_bytes();
            assert_eq!(bytes[0], QUERY_WIRE_VERSION);
            let back = QueryOptions::from_bytes(&bytes).unwrap();
            assert_eq!(back.strategy, Strategy::Symbolic);
            assert_eq!(back.hotspot_limit, 25);
            assert_eq!(back.window, window);
        }
    }

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
            ..QueryOptions::default()
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

    #[test]
    fn json_escape_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
