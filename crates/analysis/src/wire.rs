//! Canonical wire and JSON serializations of analysis inputs and answers.
//!
//! Same conventions as `cypress_query::wire`: self-versioned blobs (first
//! byte is [`ANALYSIS_WIRE_VERSION`]) shipped opaquely inside `queryd`
//! analysis frames, canonical encodings, and deterministic float-free JSON
//! so `cypress analyze --json` output diffs cleanly between local and
//! remote evaluation.

use crate::{AnalysisStats, AnalyzeOptions, AnalyzeReport};
use cypress_cst::Cst;
use cypress_query::Window;
use cypress_simmpi::{SimResult, WaitReport};
use cypress_trace::{Codec, Cursor, Encoder};
use std::fmt::Write;

/// Version byte leading every [`AnalyzeOptions`] / [`AnalyzeReport`] blob.
pub const ANALYSIS_WIRE_VERSION: u8 = 1;

impl Codec for AnalyzeOptions {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(ANALYSIS_WIRE_VERSION);
        Window::encode_opt(self.window, enc);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.expect_version("analyze options wire", ANALYSIS_WIRE_VERSION)?;
        Some(AnalyzeOptions {
            window: Window::decode_opt(cur)?,
        })
    }
}

impl Codec for AnalysisStats {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.symbolic_loops as u64);
        enc.put_uvar(self.unrolled_loops as u64);
        enc.put_u8(self.flattened as u8);
        enc.put_u8(self.windowed as u8);
        enc.put_uvar(self.fed_ops);
        enc.put_uvar(self.logical_ops);
        enc.put_uvar(self.extrapolated_trips);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(AnalysisStats {
            symbolic_loops: cur.u32("symbolic_loops")?,
            unrolled_loops: cur.u32("unrolled_loops")?,
            flattened: cur.u8()? != 0,
            windowed: cur.u8()? != 0,
            fed_ops: cur.uvar()?,
            logical_ops: cur.uvar()?,
            extrapolated_trips: cur.uvar()?,
        })
    }
}

impl Codec for AnalyzeReport {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(ANALYSIS_WIRE_VERSION);
        enc.put_uvar(self.nprocs as u64);
        enc.put_uvar(self.measured_app_ns);
        self.predicted.encode(enc);
        self.waits.encode(enc);
        self.stats.encode(enc);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.expect_version("analyze report wire", ANALYSIS_WIRE_VERSION)?;
        Some(AnalyzeReport {
            nprocs: cur.u32("analyze report nprocs")?,
            measured_app_ns: cur.uvar()?,
            predicted: SimResult::decode(cur)?,
            waits: WaitReport::decode(cur)?,
            stats: AnalysisStats::decode(cur)?,
        })
    }
}

impl AnalyzeReport {
    /// Deterministic JSON rendering with stable key order and no floats —
    /// the shared serializer behind `analyze predict --json`,
    /// `analyze latesender --json`, and the analysis bench output.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"nprocs\":{},\"measured_app_ns\":{},\"predicted\":{},\"waits\":{}",
            self.nprocs,
            self.measured_app_ns,
            self.predicted.render_json(),
            self.waits.render_json()
        )
        .unwrap();
        let s = &self.stats;
        write!(
            out,
            ",\"stats\":{{\"symbolic_loops\":{},\"unrolled_loops\":{},\"flattened\":{},\
             \"windowed\":{},\"fed_ops\":{},\"logical_ops\":{},\"extrapolated_trips\":{}}}}}",
            s.symbolic_loops,
            s.unrolled_loops,
            s.flattened,
            s.windowed,
            s.fed_ops,
            s.logical_ops,
            s.extrapolated_trips
        )
        .unwrap();
        out
    }

    /// Human-readable prediction summary.
    pub fn render_predict(&self) -> String {
        let mut out = String::new();
        writeln!(out, "Replay prediction ({} ranks):", self.nprocs).unwrap();
        writeln!(out, "  measured app time : {:>14} ns", self.measured_app_ns).unwrap();
        writeln!(out, "  predicted run     : {:>14} ns", self.predicted.total).unwrap();
        if self.measured_app_ns > 0 {
            writeln!(out, "  prediction error  : {:>13.2} %", self.error_pct()).unwrap();
        }
        writeln!(
            out,
            "  comm share        : {:>13.1} %",
            self.predicted.comm_permille() as f64 / 10.0
        )
        .unwrap();
        let s = &self.stats;
        writeln!(
            out,
            "  replay effort     : {} of {} ops fed ({} loop trips extrapolated, \
             {} symbolic / {} unrolled loops{}{})",
            s.fed_ops,
            s.logical_ops,
            s.extrapolated_trips,
            s.symbolic_loops,
            s.unrolled_loops,
            if s.flattened { ", flattened" } else { "" },
            if s.windowed { ", windowed" } else { "" },
        )
        .unwrap();
        out
    }

    /// Human-readable late-sender report: per-rank wait plus the top
    /// `limit` offending call sites, with CST call-path provenance when the
    /// tree is available.
    pub fn render_latesender(&self, limit: usize, cst: Option<&Cst>) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "Late-sender wait states ({} ranks, {} ns total):",
            self.nprocs,
            self.waits.total_wait_ns()
        )
        .unwrap();
        writeln!(out, "{:<6} {:>16}", "rank", "wait_ns").unwrap();
        for (r, w) in self.waits.per_rank.iter().enumerate() {
            writeln!(out, "{:<6} {:>16}", r, w).unwrap();
        }
        writeln!(
            out,
            "\nTop sites (top {} of {}):",
            limit.min(self.waits.sites.len()),
            self.waits.sites.len()
        )
        .unwrap();
        writeln!(out, "{:<6} {:>16} {:>10}  path", "gid", "wait_ns", "late").unwrap();
        for s in self.waits.sites.iter().take(limit) {
            let path = cst
                .map(|c| c.render_path(s.gid as usize))
                .unwrap_or_default();
            writeln!(
                out,
                "{:<6} {:>16} {:>10}  {}",
                s.gid, s.wait_ns, s.count, path
            )
            .unwrap();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_simmpi::WaitSite;

    fn sample() -> AnalyzeReport {
        AnalyzeReport {
            nprocs: 2,
            measured_app_ns: 1000,
            predicted: SimResult {
                finish: vec![900, 1100],
                total: 1100,
                comm_time: vec![100, 300],
                wildcard_sources: vec![vec![], vec![]],
            },
            waits: WaitReport {
                per_rank: vec![0, 250],
                sites: vec![WaitSite {
                    gid: 4,
                    wait_ns: 250,
                    count: 5,
                }],
            },
            stats: AnalysisStats {
                symbolic_loops: 1,
                fed_ops: 10,
                logical_ops: 100,
                extrapolated_trips: 90,
                ..AnalysisStats::default()
            },
        }
    }

    #[test]
    fn options_roundtrip_and_version_gate() {
        for opts in [
            AnalyzeOptions::default(),
            AnalyzeOptions {
                window: Some(Window {
                    start_ns: 5,
                    end_ns: 900,
                }),
            },
        ] {
            let bytes = opts.to_bytes();
            assert_eq!(bytes[0], ANALYSIS_WIRE_VERSION);
            assert_eq!(AnalyzeOptions::from_bytes(&bytes).unwrap(), opts);
        }
        let mut bad = AnalyzeOptions::default().to_bytes();
        bad[0] = 42;
        let err = AnalyzeOptions::from_bytes(&bad).unwrap_err();
        assert!(err.0.contains("wire version 42"), "{}", err.0);
    }

    #[test]
    fn json_render_is_stable() {
        let j = sample().render_json();
        assert!(j.starts_with("{\"nprocs\":2,\"measured_app_ns\":1000,\"predicted\":{"));
        assert!(j.contains("\"waits\":{\"total_wait_ns\":250"));
        assert!(j.contains("\"extrapolated_trips\":90"));
        assert!(j.ends_with("}}"));
    }

    #[test]
    fn text_renders_mention_key_figures() {
        let r = sample();
        let p = r.render_predict();
        assert!(p.contains("predicted run"));
        assert!(p.contains("1100"));
        let l = r.render_latesender(10, None);
        assert!(l.contains("Late-sender"));
        assert!(l.contains("250"));
    }
}
