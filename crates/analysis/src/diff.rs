//! Cross-job diffing: "did this comm pattern change between versions?"
//!
//! A [`DiffReport`] pairs two jobs' compressed-domain query results and
//! analysis reports — local containers or jobs fetched from `queryd`, in
//! any combination — and renders signed deltas of the quantities an
//! engineer compares across versions: predicted runtime, communication
//! volume and calls, matrix shape, per-op counts, and late-sender wait.

use crate::AnalyzeReport;
use cypress_query::QueryResult;
use std::fmt::Write;

/// One side of a diff: a job's query answer plus its analysis report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Display label (file path or `job@host:port`).
    pub label: String,
    pub query: QueryResult,
    pub analyze: AnalyzeReport,
}

/// Two jobs side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    pub a: JobSummary,
    pub b: JobSummary,
}

fn delta(a: u64, b: u64) -> i128 {
    b as i128 - a as i128
}

fn fmt_delta(d: i128) -> String {
    if d >= 0 {
        format!("+{d}")
    } else {
        format!("{d}")
    }
}

impl DiffReport {
    /// Number of matrix cells whose volume differs (covers shape changes:
    /// cells outside the smaller matrix count as changed when non-zero).
    pub fn matrix_cells_changed(&self) -> u64 {
        let (ma, mb) = (&self.a.query.matrix, &self.b.query.matrix);
        let n = ma.nprocs.max(mb.nprocs);
        let mut changed = 0;
        for s in 0..n {
            for d in 0..n {
                let va = if s < ma.nprocs && d < ma.nprocs {
                    ma.get(s, d)
                } else {
                    0
                };
                let vb = if s < mb.nprocs && d < mb.nprocs {
                    mb.get(s, d)
                } else {
                    0
                };
                if va != vb {
                    changed += 1;
                }
            }
        }
        changed
    }

    /// Per-op call-count deltas, in stable op order, ops present in either.
    pub fn op_call_deltas(&self) -> Vec<(&'static str, u64, u64)> {
        let a = self.a.query.op_counts();
        let b = self.b.query.op_counts();
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for (op, ca) in &a {
            let cb = b
                .iter()
                .find(|(o, _)| o == op)
                .map(|(_, c)| *c)
                .unwrap_or(0);
            out.push((op.name(), *ca, cb));
        }
        for (op, cb) in &b {
            if !a.iter().any(|(o, _)| o == op) {
                out.push((op.name(), 0, *cb));
            }
        }
        out
    }

    /// Human-readable diff.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "Diff: {}  →  {}", self.a.label, self.b.label).unwrap();
        let rows: [(&str, u64, u64); 7] = [
            (
                "ranks",
                self.a.query.nprocs as u64,
                self.b.query.nprocs as u64,
            ),
            (
                "predicted ns",
                self.a.analyze.predicted.total,
                self.b.analyze.predicted.total,
            ),
            (
                "measured ns",
                self.a.analyze.measured_app_ns,
                self.b.analyze.measured_app_ns,
            ),
            (
                "p2p bytes",
                self.a.query.total_volume(),
                self.b.query.total_volume(),
            ),
            (
                "mpi calls",
                self.a.query.total_calls(),
                self.b.query.total_calls(),
            ),
            (
                "loop trips",
                self.a.query.loop_trips,
                self.b.query.loop_trips,
            ),
            (
                "wait ns",
                self.a.analyze.waits.total_wait_ns(),
                self.b.analyze.waits.total_wait_ns(),
            ),
        ];
        writeln!(
            out,
            "{:<14} {:>16} {:>16} {:>16}",
            "metric", "a", "b", "delta"
        )
        .unwrap();
        for (name, va, vb) in rows {
            writeln!(
                out,
                "{:<14} {:>16} {:>16} {:>16}",
                name,
                va,
                vb,
                fmt_delta(delta(va, vb))
            )
            .unwrap();
        }
        writeln!(out, "matrix cells changed: {}", self.matrix_cells_changed()).unwrap();
        let op_rows: Vec<_> = self
            .op_call_deltas()
            .into_iter()
            .filter(|(_, a, b)| a != b)
            .collect();
        if op_rows.is_empty() {
            writeln!(out, "per-op call counts identical").unwrap();
        } else {
            writeln!(out, "per-op call changes:").unwrap();
            for (name, ca, cb) in op_rows {
                writeln!(
                    out,
                    "  {:<14} {:>12} {:>12} {:>12}",
                    name,
                    ca,
                    cb,
                    fmt_delta(delta(ca, cb))
                )
                .unwrap();
            }
        }
        out
    }

    /// Deterministic JSON rendering (stable key order, integers only).
    pub fn render_json(&self) -> String {
        let side = |s: &JobSummary| {
            format!(
                "{{\"label\":{},\"nprocs\":{},\"predicted_ns\":{},\"measured_ns\":{},\
                 \"volume\":{},\"calls\":{},\"loop_trips\":{},\"wait_ns\":{}}}",
                cypress_obs::json_str(&s.label),
                s.query.nprocs,
                s.analyze.predicted.total,
                s.analyze.measured_app_ns,
                s.query.total_volume(),
                s.query.total_calls(),
                s.query.loop_trips,
                s.analyze.waits.total_wait_ns()
            )
        };
        let mut out = String::new();
        write!(out, "{{\"a\":{},\"b\":{}", side(&self.a), side(&self.b)).unwrap();
        write!(
            out,
            ",\"delta\":{{\"predicted_ns\":{},\"volume\":{},\"calls\":{},\"wait_ns\":{},\
             \"matrix_cells_changed\":{}}}",
            delta(
                self.a.analyze.predicted.total,
                self.b.analyze.predicted.total
            ),
            delta(self.a.query.total_volume(), self.b.query.total_volume()),
            delta(self.a.query.total_calls(), self.b.query.total_calls()),
            delta(
                self.a.analyze.waits.total_wait_ns(),
                self.b.analyze.waits.total_wait_ns()
            ),
            self.matrix_cells_changed()
        )
        .unwrap();
        out.push_str(",\"op_calls\":[");
        for (i, (name, ca, cb)) in self.op_call_deltas().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{{\"op\":\"{name}\",\"a\":{ca},\"b\":{cb}}}").unwrap();
        }
        out.push_str("]}");
        out
    }
}
