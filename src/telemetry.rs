//! Compact per-job telemetry persisted inside a `.cytc` container.
//!
//! A traced compression run (`cypress compress --trace-out …`) rolls its
//! [`StageProfile`](cypress_obs::StageProfile) up into a
//! [`TelemetrySummary`] and stores it as a trailing
//! [`SectionKind::Telemetry`](cypress_trace::SectionKind) section, so
//! `cypress inspect` can report *how the job was produced* — wall time,
//! stage attribution, dropped trace events — long after the run, without
//! the full timeline JSON. The section is optional: untraced runs write
//! containers without it, and readers ignore its absence.
//!
//! The payload is self-versioned like the net-layer `Stats` frame: the
//! first byte is [`TELEMETRY_VERSION`], and a reader accepts exactly that
//! version and exactly the fields it defines.

use cypress_obs::StageProfile;
use cypress_trace::{Codec, Cursor, Encoder};

/// Version of the telemetry payload this build writes.
pub const TELEMETRY_VERSION: u8 = 1;

/// Upper bound on the stage-row count in a decoded payload; a longer count
/// is refused before allocation.
const MAX_STAGES: usize = 4096;

/// Exclusive time attributed to one pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage label (`"ingest"`, `"merge"`, `"interp"`, `"(untraced)"`, …).
    pub name: String,
    /// Exclusive wall ns on the driving thread (0 for worker-only stages).
    pub wall_ns: u64,
    /// Exclusive ns summed across all threads.
    pub cpu_ns: u64,
    /// Complete spans contributing.
    pub spans: u64,
}

/// How a compression job was produced: wall time, parallelism, and the
/// stage attribution table, compact enough to ride inside the container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySummary {
    /// Payload version ([`TELEMETRY_VERSION`] here).
    pub version: u8,
    /// End-to-end wall time of the traced region (parse → merge), ns.
    pub wall_ns: u64,
    /// MPI events the job traced.
    pub events: u64,
    pub nprocs: u32,
    /// Worker-pool width the job ran with.
    pub threads: u32,
    /// Timeline events lost to ring overflow (attribution is partial if
    /// nonzero).
    pub dropped_events: u64,
    /// Per-stage exclusive attribution, descending by wall time.
    pub stages: Vec<StageSummary>,
}

impl TelemetrySummary {
    /// Roll a stage profile up into the persistable summary.
    pub fn from_profile(
        profile: &StageProfile,
        nprocs: u32,
        threads: u32,
        events: u64,
    ) -> TelemetrySummary {
        TelemetrySummary {
            version: TELEMETRY_VERSION,
            wall_ns: profile.total_ns,
            events,
            nprocs,
            threads,
            dropped_events: profile.dropped,
            stages: profile
                .stages
                .iter()
                .map(|s| StageSummary {
                    name: s.stage.clone(),
                    wall_ns: s.wall_ns,
                    cpu_ns: s.cpu_ns,
                    spans: s.spans,
                })
                .collect(),
        }
    }

    /// Human-readable rendering for `cypress inspect`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry (v{}): {} events across {} ranks in {:.3} ms wall, {} thread(s)\n",
            self.version,
            self.events,
            self.nprocs,
            self.wall_ns as f64 / 1e6,
            self.threads
        ));
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "  {} trace events dropped (attribution is partial)\n",
                self.dropped_events
            ));
        }
        for s in &self.stages {
            let pct = if self.wall_ns == 0 {
                0.0
            } else {
                s.wall_ns as f64 / self.wall_ns as f64 * 100.0
            };
            out.push_str(&format!(
                "  {:<12} wall {:>10.3} ms ({:>5.1}%)  cpu {:>10.3} ms  {} span(s)\n",
                s.name,
                s.wall_ns as f64 / 1e6,
                pct,
                s.cpu_ns as f64 / 1e6,
                s.spans
            ));
        }
        out
    }
}

impl Codec for StageSummary {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_uvar(self.wall_ns);
        enc.put_uvar(self.cpu_ns);
        enc.put_uvar(self.spans);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(StageSummary {
            name: cur.str()?,
            wall_ns: cur.uvar()?,
            cpu_ns: cur.uvar()?,
            spans: cur.uvar()?,
        })
    }
}

impl Codec for TelemetrySummary {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.version);
        enc.put_uvar(self.wall_ns);
        enc.put_uvar(self.events);
        enc.put_uvar(self.nprocs as u64);
        enc.put_uvar(self.threads as u64);
        enc.put_uvar(self.dropped_events);
        enc.put_seq(&self.stages, |enc, s| s.encode(enc));
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        cur.expect_version("telemetry payload", TELEMETRY_VERSION)?;
        Some(TelemetrySummary {
            version: TELEMETRY_VERSION,
            wall_ns: cur.uvar()?,
            events: cur.uvar()?,
            nprocs: cur.u32("telemetry nprocs")?,
            threads: cur.u32("telemetry threads")?,
            dropped_events: cur.uvar()?,
            stages: cur.seq_capped("telemetry stages", MAX_STAGES, StageSummary::decode)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySummary {
        TelemetrySummary {
            version: TELEMETRY_VERSION,
            wall_ns: 12_345_678,
            events: 40_000,
            nprocs: 8,
            threads: 4,
            dropped_events: 0,
            stages: vec![
                StageSummary {
                    name: "ingest".into(),
                    wall_ns: 9_000_000,
                    cpu_ns: 30_000_000,
                    spans: 1,
                },
                StageSummary {
                    name: "merge".into(),
                    wall_ns: 2_000_000,
                    cpu_ns: 2_000_000,
                    spans: 1,
                },
                StageSummary {
                    name: "(untraced)".into(),
                    wall_ns: 1_345_678,
                    cpu_ns: 1_345_678,
                    spans: 1,
                },
            ],
        }
    }

    #[test]
    fn telemetry_round_trip() {
        let t = sample();
        let got = TelemetrySummary::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(got, t);
    }

    #[test]
    fn wrong_version_is_a_loud_error_naming_both_versions() {
        for offered in [TELEMETRY_VERSION - 1, TELEMETRY_VERSION + 1] {
            let mut t = sample();
            t.version = offered;
            let err = TelemetrySummary::from_bytes(&t.to_bytes()).unwrap_err();
            assert!(
                err.0.contains(&format!("version {offered} "))
                    && err.0.contains(&format!("expected {TELEMETRY_VERSION}")),
                "version {offered}: {}",
                err.0
            );
        }
    }

    #[test]
    fn text_render_names_stages() {
        let text = sample().to_text();
        assert!(text.contains("40000 events across 8 ranks"));
        assert!(text.contains("ingest"));
        assert!(text.contains("(untraced)"));
    }
}
