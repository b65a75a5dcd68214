//! Canonical wire and JSON serializations of simulation results.
//!
//! Mirrors the conventions of `cypress_query::wire`: blobs are
//! self-versioned (first byte is [`SIM_WIRE_VERSION`]), encodings are
//! canonical (equal values → identical bytes), and the JSON renders are
//! deterministic with stable key order and **no floats** — comm fraction is
//! emitted as integer permille so `analyze predict --json` output can be
//! diffed byte-for-byte between local and queryd evaluation.

use crate::engine::{SimResult, WaitReport, WaitSite};
use cypress_obs::push_json_u64_array;
use cypress_trace::{Codec, Cursor, Encoder};

/// Version byte leading every [`SimResult`] / [`WaitReport`] blob.
pub const SIM_WIRE_VERSION: u8 = 1;

impl Codec for SimResult {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(SIM_WIRE_VERSION);
        enc.put_seq(&self.finish, |enc, v| enc.put_uvar(*v));
        enc.put_uvar(self.total);
        enc.put_seq(&self.comm_time, |enc, v| enc.put_uvar(*v));
        enc.put_seq(&self.wildcard_sources, |enc, srcs| {
            enc.put_seq(srcs, |enc, s| enc.put_uvar(*s as u64));
        });
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.expect_version("sim result wire", SIM_WIRE_VERSION)?;
        Some(SimResult {
            finish: cur.seq("sim result finish", Cursor::uvar)?,
            total: cur.uvar()?,
            comm_time: cur.seq("sim result comm_time", Cursor::uvar)?,
            wildcard_sources: cur.seq("sim result wildcard lists", |cur| {
                cur.seq("sim result wildcard sources", |cur| {
                    cur.u32("wildcard source")
                })
            })?,
        })
    }
}

impl Codec for WaitSite {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.gid as u64);
        enc.put_uvar(self.wait_ns);
        enc.put_uvar(self.count);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(WaitSite {
            gid: cur.u32("wait site gid")?,
            wait_ns: cur.uvar()?,
            count: cur.uvar()?,
        })
    }
}

impl Codec for WaitReport {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(SIM_WIRE_VERSION);
        enc.put_seq(&self.per_rank, |enc, v| enc.put_uvar(*v));
        enc.put_seq(&self.sites, |enc, s| s.encode(enc));
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.expect_version("wait report wire", SIM_WIRE_VERSION)?;
        Some(WaitReport {
            per_rank: cur.seq("wait report per_rank", Cursor::uvar)?,
            sites: cur.seq("wait report sites", WaitSite::decode)?,
        })
    }
}

impl SimResult {
    /// Communication share of aggregate rank time, in integer permille —
    /// the float-free twin of [`SimResult::comm_fraction`].
    pub fn comm_permille(&self) -> u64 {
        let total: u64 = self.finish.iter().sum();
        if total == 0 {
            return 0;
        }
        let comm: u64 = self.comm_time.iter().sum();
        // u128 keeps the product exact for any realistic trace length.
        ((comm as u128 * 1000) / total as u128) as u64
    }

    /// Deterministic JSON rendering with stable key order and no floats,
    /// shared by `cypress analyze predict --json` and the bench output.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        write!(
            out,
            "{{\"total_ns\":{},\"comm_permille\":{}",
            self.total,
            self.comm_permille()
        )
        .unwrap();
        out.push_str(",\"finish_ns\":");
        push_json_u64_array(&mut out, self.finish.iter().copied());
        out.push_str(",\"comm_time_ns\":");
        push_json_u64_array(&mut out, self.comm_time.iter().copied());
        out.push_str(",\"wildcard_sources\":[");
        for (i, srcs) in self.wildcard_sources.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_u64_array(&mut out, srcs.iter().map(|s| *s as u64));
        }
        out.push_str("]}");
        out
    }
}

impl WaitReport {
    /// Deterministic JSON rendering with stable key order and no floats,
    /// consumed by `cypress analyze latesender --json`.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        write!(out, "{{\"total_wait_ns\":{}", self.total_wait_ns()).unwrap();
        out.push_str(",\"per_rank_ns\":");
        push_json_u64_array(&mut out, self.per_rank.iter().copied());
        out.push_str(",\"sites\":[");
        for (i, s) in self.sites.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "{{\"gid\":{},\"wait_ns\":{},\"count\":{}}}",
                s.gid, s.wait_ns, s.count
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

    fn sample_result() -> SimResult {
        SimResult {
            finish: vec![100, 250, 175],
            total: 250,
            comm_time: vec![40, 90, 0],
            wildcard_sources: vec![vec![], vec![2, 0], vec![]],
        }
    }

    fn sample_waits() -> WaitReport {
        WaitReport {
            per_rank: vec![0, 130, 20],
            sites: vec![
                WaitSite {
                    gid: 7,
                    wait_ns: 130,
                    count: 2,
                },
                WaitSite {
                    gid: 3,
                    wait_ns: 20,
                    count: 1,
                },
            ],
        }
    }

    #[test]
    fn result_roundtrip_and_version_gate() {
        let r = sample_result();
        let bytes = r.to_bytes();
        assert_eq!(bytes[0], SIM_WIRE_VERSION);
        assert_eq!(SimResult::from_bytes(&bytes).unwrap(), r);

        let mut bad = bytes.clone();
        bad[0] = 77;
        let err = SimResult::from_bytes(&bad).unwrap_err();
        assert!(err.0.contains("wire version 77"), "{}", err.0);
    }

    #[test]
    fn json_renders_are_stable() {
        assert_eq!(
            sample_result().render_json(),
            "{\"total_ns\":250,\"comm_permille\":247,\
             \"finish_ns\":[100,250,175],\"comm_time_ns\":[40,90,0],\
             \"wildcard_sources\":[[],[2,0],[]]}"
        );
        assert_eq!(
            sample_waits().render_json(),
            "{\"total_wait_ns\":150,\"per_rank_ns\":[0,130,20],\
             \"sites\":[{\"gid\":7,\"wait_ns\":130,\"count\":2},\
             {\"gid\":3,\"wait_ns\":20,\"count\":1}]}"
        );
    }
}
