//! Registry snapshots and report emitters.
//!
//! [`report`] snapshots every registered metric; [`Report::to_text`]
//! renders an aligned table for stdout and [`Report::to_jsonl`] one JSON
//! object per metric for `results/metrics.jsonl`. JSON is emitted by hand
//! (offline build — no serde): the shape is fixed and covered by a golden
//! test.

use std::fmt::{self, Write};

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MetricKind {
    #[default]
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Point-in-time copy of one metric's value.
#[derive(Clone, Debug, Default)]
pub struct MetricSnapshot {
    pub subsystem: String,
    pub name: String,
    pub kind: MetricKind,
    /// Counter value or gauge value (gauges may be negative).
    pub value: i64,
    /// Histogram-only fields; empty/zero otherwise.
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Interpolated quantile estimates (see [`crate::Histogram::quantile`]).
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub bounds: Vec<u64>,
    pub buckets: Vec<u64>,
}

impl MetricSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// All metrics at one instant, sorted by (subsystem, name).
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub metrics: Vec<MetricSnapshot>,
}

/// Snapshot every metric that has recorded since the last reset.
pub fn report() -> Report {
    Report {
        metrics: crate::metrics::snapshot_all(),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl Report {
    /// Aligned text table, one metric per row.
    pub fn to_text(&self) -> String {
        if self.metrics.is_empty() {
            return "no metrics recorded\n".to_owned();
        }
        let mut rows: Vec<[String; 4]> = vec![[
            "subsystem".into(),
            "metric".into(),
            "kind".into(),
            "value".into(),
        ]];
        for m in &self.metrics {
            let value = match m.kind {
                MetricKind::Counter | MetricKind::Gauge => m.value.to_string(),
                MetricKind::Histogram => {
                    // Span histograms are named *_ns; show humane durations.
                    if m.name.ends_with("_ns") {
                        format!(
                            "n={} sum={} mean={} p50={} p90={} p99={} max={}",
                            m.count,
                            fmt_ns(m.sum),
                            fmt_ns(m.mean() as u64),
                            fmt_ns(m.p50),
                            fmt_ns(m.p90),
                            fmt_ns(m.p99),
                            fmt_ns(m.max),
                        )
                    } else {
                        format!(
                            "n={} sum={} mean={:.1} p50={} p90={} p99={} max={}",
                            m.count,
                            m.sum,
                            m.mean(),
                            m.p50,
                            m.p90,
                            m.p99,
                            m.max
                        )
                    }
                }
            };
            rows.push([
                m.subsystem.clone(),
                m.name.clone(),
                m.kind.as_str().to_owned(),
                value,
            ]);
        }
        let mut widths = [0usize; 4];
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, row) in rows.iter().enumerate() {
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                if j < 3 {
                    for _ in cell.len()..widths[j] {
                        out.push(' ');
                    }
                }
            }
            out.push('\n');
            if i == 0 {
                for (j, w) in widths.iter().enumerate() {
                    if j > 0 {
                        out.push_str("  ");
                    }
                    for _ in 0..*w {
                        out.push('-');
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// JSON-lines: one object per metric, keys in fixed order. Counters and
    /// gauges carry `value`; histograms carry `count`/`sum`/`min`/`max`/
    /// `bounds`/`buckets`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!(
                "{{\"subsystem\":{},\"name\":{},\"kind\":\"{}\"",
                json_str(&m.subsystem),
                json_str(&m.name),
                m.kind.as_str()
            ));
            match m.kind {
                MetricKind::Counter | MetricKind::Gauge => {
                    out.push_str(&format!(",\"value\":{}", m.value));
                }
                MetricKind::Histogram => {
                    out.push_str(&format!(
                        ",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"bounds\":",
                        m.count, m.sum, m.min, m.max, m.p50, m.p90, m.p99,
                    ));
                    push_json_u64_array(&mut out, m.bounds.iter().copied());
                    out.push_str(",\"buckets\":");
                    push_json_u64_array(&mut out, m.buckets.iter().copied());
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

/// `s` as a JSON string literal, quotes included — the workspace's one
/// string escaper, written for `format!`/`write!` arguments.
pub fn json_str(s: &str) -> impl fmt::Display + '_ {
    JsonStr(s)
}

struct JsonStr<'a>(&'a str);

impl fmt::Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char('"')?;
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        f.write_char('"')
    }
}

/// Append `vals` to `out` as a JSON array of integers.
pub fn push_json_u64_array(out: &mut String, vals: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in vals.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{v}").expect("writing to a String cannot fail");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Gauge, Histogram};

    #[test]
    fn jsonl_golden_shape() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        static EVENTS: Counter = Counter::new("golden", "events");
        static LIVE_BYTES: Gauge = Gauge::new("golden", "live_bytes");
        static LAT: Histogram = Histogram::new("golden", "lat", &[10, 100]);
        EVENTS.add(7);
        LIVE_BYTES.set(-3);
        LAT.observe(5);
        LAT.observe(50);
        LAT.observe(5000);
        let got = report().to_jsonl();
        let want = concat!(
            "{\"subsystem\":\"golden\",\"name\":\"events\",\"kind\":\"counter\",\"value\":7}\n",
            "{\"subsystem\":\"golden\",\"name\":\"lat\",\"kind\":\"histogram\",",
            "\"count\":3,\"sum\":5055,\"min\":5,\"max\":5000,",
            "\"p50\":100,\"p90\":5000,\"p99\":5000,",
            "\"bounds\":[10,100],\"buckets\":[1,1,1]}\n",
            "{\"subsystem\":\"golden\",\"name\":\"live_bytes\",\"kind\":\"gauge\",\"value\":-3}\n",
        );
        assert_eq!(got, want);
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn text_table_is_aligned_and_complete() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::reset();
        crate::set_enabled(true);
        static A_COUNTER: Counter = Counter::new("texttab", "a_counter");
        static A_GAUGE: Gauge = Gauge::new("texttab", "a_gauge");
        A_COUNTER.add(42);
        A_GAUGE.set(9);
        let text = report().to_text();
        assert!(text.contains("a_counter"));
        assert!(text.contains("a_gauge"));
        assert!(text.contains("42"));
        // Header divider present.
        assert!(text.lines().nth(1).unwrap().starts_with('-'));
        crate::set_enabled(false);
        crate::reset();
    }

    #[test]
    fn json_string_escaping() {
        let s = json_str("a\"b\\c\nd\r\t\u{1}").to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\r\\t\\u0001\"");
    }

    #[test]
    fn empty_report_text() {
        let _guard = crate::test_mutex().lock().unwrap();
        crate::reset();
        assert_eq!(report().to_text(), "no metrics recorded\n");
        assert_eq!(report().to_jsonl(), "");
    }
}
