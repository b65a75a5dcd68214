//! The metric and workload catalogue: every name the benchmark prints, with
//! its unit, direction and (for end-to-end metrics) regression bound.
//!
//! `BENCHMARK.json` at the repository root carries the same table for the
//! driver; a unit test here fails when the two disagree.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of them:
/// an *operation* is one rank's trace compressed (`local-*`), one rank's
/// submission acknowledged (`collect-*`) or one request answered
/// (`queryd-*`); *events* are the MPI events compressed, collected, or
/// covered by the answered requests.
#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "events_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "requests_per_s", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "bytes_per_event", unit: "B/event", better: Lower, bound: 0.05 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.25 },
    EndToEnd { name: "latency_p50_ms", unit: "ms", better: Lower, bound: 0.25 },
    EndToEnd { name: "latency_p90_ms", unit: "ms", better: Lower, bound: 0.25 },
];

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "local-regular",
        why: "regular stencil, P=16, 4e6 events, raw container: interpreter and session do >=95% of the work, merge/codec/deflate/io almost none",
    },
    WorkloadDef {
        name: "local-irregular",
        why: "LCG-driven sizes and branches, P=64, 1e6 events, deflated container: CTTs grow to MBs, so merge, section codec and deflate carry most of the wall",
    },
    WorkloadDef {
        name: "collect-stream",
        why: "2e6 recorded events replayed through submit_stream to one collector: frame encode, socket, frame decode, server sessions and binomial merge, no interpreter",
    },
    WorkloadDef {
        name: "collect-ctt-tree",
        why: "64 MB-sized rank CTTs sent with submit_ctt through 4 relays: few large deflated frames, inflate, merge and block forwarding, no sessions",
    },
    WorkloadDef {
        name: "queryd-hot",
        why: "64 resident raw-section jobs, Zipf(1.0) popularity, 80% query / 20% analyze: wire codec, server loop and compressed-domain evaluation, every open a hit",
    },
    WorkloadDef {
        name: "queryd-churn",
        why: "256 deflated jobs behind a 32-job LRU, uniform popularity: seven in eight requests pay read, CRC, table parse, inflate, slab decode and eviction",
    },
];

/// Single layers, measured from outside on the workload's own inputs in the
/// traced run. A layer the workload never enters reports 0.
#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    // minilang / cst
    PerLayer { name: "static.parse_us", unit: "us", better: Lower },
    PerLayer { name: "static.analyze_us", unit: "us", better: Lower },
    PerLayer { name: "static.cst_vertices", unit: "count", better: Lower },
    // runtime
    PerLayer { name: "runtime.interp_ns_per_event", unit: "ns", better: Lower },
    PerLayer { name: "runtime.events_total", unit: "count", better: Higher },
    PerLayer { name: "runtime.structure_events_total", unit: "count", better: Lower },
    PerLayer { name: "runtime.pipelined_speedup", unit: "x", better: Higher },
    PerLayer { name: "runtime.batch_mode_speedup", unit: "x", better: Higher },
    // core: session
    PerLayer { name: "core.session_ns_per_event", unit: "ns", better: Lower },
    PerLayer { name: "core.push_ns_per_event", unit: "ns", better: Lower },
    PerLayer { name: "core.push_batch_speedup", unit: "x", better: Higher },
    PerLayer { name: "core.peak_ctt_bytes", unit: "B", better: Lower },
    PerLayer { name: "core.ctt_records", unit: "count", better: Lower },
    // core: merge
    PerLayer { name: "core.merge_ms", unit: "ms", better: Lower },
    PerLayer { name: "core.merge_t1_ms", unit: "ms", better: Lower },
    PerLayer { name: "core.merge_mb_s", unit: "MB/s", better: Higher },
    PerLayer { name: "core.merge_groups", unit: "count", better: Lower },
    PerLayer { name: "core.binomial_add_us", unit: "us", better: Lower },
    PerLayer { name: "core.add_block_us", unit: "us", better: Lower },
    // core: read side
    PerLayer { name: "core.ctt_encode_mb_s", unit: "MB/s", better: Higher },
    PerLayer { name: "core.slab_decode_mb_s", unit: "MB/s", better: Higher },
    PerLayer { name: "core.decompress_ns_per_event", unit: "ns", better: Lower },
    // deflate
    PerLayer { name: "deflate.compress_mb_s", unit: "MB/s", better: Higher },
    PerLayer { name: "deflate.inflate_mb_s", unit: "MB/s", better: Higher },
    PerLayer { name: "deflate.ratio", unit: "x", better: Higher },
    // trace
    PerLayer { name: "trace.encode_section_mb_s", unit: "MB/s", better: Higher },
    PerLayer { name: "trace.assemble_us", unit: "us", better: Lower },
    PerLayer { name: "trace.write_image_ms", unit: "ms", better: Lower },
    PerLayer { name: "trace.table_parse_us", unit: "us", better: Lower },
    PerLayer { name: "trace.container_bytes", unit: "B", better: Lower },
    PerLayer { name: "trace.sections", unit: "count", better: Lower },
    // net
    PerLayer { name: "net.frame_encode_ns_per_event", unit: "ns", better: Lower },
    PerLayer { name: "net.frame_decode_ns_per_event", unit: "ns", better: Lower },
    PerLayer { name: "net.wire_bytes_per_event", unit: "B/event", better: Lower },
    PerLayer { name: "net.frames_total", unit: "count", better: Lower },
    PerLayer { name: "net.collector_wall_ms", unit: "ms", better: Lower },
    PerLayer { name: "net.finalize_ms", unit: "ms", better: Lower },
    PerLayer { name: "net.residual_ns_per_event", unit: "ns", better: Lower },
    PerLayer { name: "net.relay_blocks_forwarded", unit: "count", better: Lower },
    PerLayer { name: "net.submit_p50_ms", unit: "ms", better: Lower },
    PerLayer { name: "net.submit_p90_ms", unit: "ms", better: Lower },
    PerLayer { name: "net.submit_p99_ms", unit: "ms", better: Lower },
    PerLayer { name: "net.vs_local", unit: "x", better: Lower },
    // store
    PerLayer { name: "store.open_hit_us", unit: "us", better: Lower },
    PerLayer { name: "store.open_miss_us", unit: "us", better: Lower },
    PerLayer { name: "store.hit_ratio", unit: "ratio", better: Higher },
    PerLayer { name: "store.evictions", unit: "count", better: Lower },
    PerLayer { name: "store.loads", unit: "count", better: Lower },
    PerLayer { name: "store.resident_mb", unit: "MiB", better: Lower },
    PerLayer { name: "store.local_query_us", unit: "us", better: Lower },
    PerLayer { name: "store.remote_overhead_us", unit: "us", better: Lower },
    PerLayer { name: "store.query_p50_us", unit: "us", better: Lower },
    PerLayer { name: "store.query_p90_us", unit: "us", better: Lower },
    PerLayer { name: "store.remote_p99_us", unit: "us", better: Lower },
    PerLayer { name: "store.analyze_p50_us", unit: "us", better: Lower },
    PerLayer { name: "store.analyze_p90_us", unit: "us", better: Lower },
    PerLayer { name: "store.requests_per_s", unit: "1/s", better: Higher },
    // query
    PerLayer { name: "query.symbolic_us", unit: "us", better: Lower },
    PerLayer { name: "query.wire_encode_us", unit: "us", better: Lower },
    PerLayer { name: "query.wire_decode_us", unit: "us", better: Lower },
    PerLayer { name: "query.result_bytes", unit: "B", better: Lower },
    // analysis / simmpi
    PerLayer { name: "analysis.lower_us", unit: "us", better: Lower },
    PerLayer { name: "analysis.native_loopfree_us", unit: "us", better: Lower },
    PerLayer { name: "analysis.oracle_loopfree_us", unit: "us", better: Lower },
    PerLayer { name: "analysis.native_uniform_us", unit: "us", better: Lower },
    PerLayer { name: "analysis.oracle_uniform_us", unit: "us", better: Lower },
    PerLayer { name: "analysis.native_vs_oracle_loopfree", unit: "x", better: Higher },
    PerLayer { name: "analysis.fed_ops", unit: "count", better: Lower },
    PerLayer { name: "analysis.extrapolated_trips", unit: "count", better: Higher },
    // pipeline (umbrella crate), black box
    PerLayer { name: "pipeline.run_ms", unit: "ms", better: Lower },
    PerLayer { name: "pipeline.merge_ms", unit: "ms", better: Lower },
    PerLayer { name: "pipeline.write_ms", unit: "ms", better: Lower },
    PerLayer { name: "pipeline.coverage", unit: "ratio", better: Higher },
    PerLayer { name: "pipeline.unattributed_ns_per_event", unit: "ns", better: Lower },
    // obs / harness
    PerLayer { name: "obs.enabled_overhead_pct", unit: "%", better: Lower },
    PerLayer { name: "bench.trace_overhead_pct", unit: "%", better: Lower },
    PerLayer { name: "bench.spans", unit: "count", better: Lower },
    PerLayer { name: "bench.repetitions", unit: "count", better: Higher },
    PerLayer { name: "bench.driver_threads", unit: "count", better: Lower },
    PerLayer { name: "bench.nproc", unit: "count", better: Higher },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// The driver reads `BENCHMARK.json`; the harness reads this module.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Value::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text_of =
            |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

        assert_eq!(list("paths"), [Value::Str("benchmark".into())]);
        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (w, def) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text_of(w, "name"), def.name);
            assert_eq!(text_of(w, "why"), def.why);
            assert!(
                def.why.len() <= 200 && !def.why.contains('\n'),
                "{}",
                def.name
            );
        }
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text_of(m, "name"), def.name);
            assert_eq!(text_of(m, "unit"), def.unit);
            assert_eq!(text_of(m, "better"), def.better.name());
            assert_eq!(m.get("bound").and_then(Value::as_f64), Some(def.bound));
            assert!(def.bound <= 0.25);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (m, def) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text_of(m, "name"), def.name);
            assert_eq!(text_of(m, "unit"), def.unit);
            assert_eq!(text_of(m, "better"), def.better.name());
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
