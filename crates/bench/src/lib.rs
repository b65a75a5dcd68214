//! # cypress-bench — measurement pipeline behind the `figures` binary.
//!
//! Every experiment of the paper's §VII maps to one function here; see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for recorded
//! results. Time overheads compare *wall-clock compression time* against the
//! *virtual application time* of the simulated run — absolute percentages
//! therefore depend on the virtual-time calibration, but the cross-method
//! comparisons (the paper's claims) do not.
//!
//! All overhead timings are a plain `Instant` recorded, always on, into
//! `cypress-obs` histograms under the `bench` scope (sizes likewise), so the
//! Fig. 16/18 CSV columns and the `--metrics` report are two views of one
//! measurement path.

use cypress_analysis::{analyze_by_decompression, AnalysisError, AnalyzeOptions};
use cypress_baselines::{Scala2Merged, Scala2Trace, ScalaMerged, ScalaTrace};
use cypress_core::{compress_trace, merge_all, CompressConfig, Ctt, IntraCompressor};
use cypress_cst::StaticInfo;
use cypress_deflate::{gzip_compress, Level};
use cypress_obs::{Histogram, TIME_BOUNDS_NS};
use cypress_simmpi::{from_raw_traces, simulate, LogGp};
use cypress_trace::codec::Codec;
use cypress_trace::raw::{encode_mpi_events, RawTrace};
use cypress_workloads::{by_name, Scale, Workload};
use std::time::Instant;

/// Byte-size histogram bounds (1 KiB … 2 GiB) for memory-footprint metrics.
pub const SIZE_BOUNDS: [u64; 8] = [
    1 << 10,
    1 << 13,
    1 << 16,
    1 << 19,
    1 << 22,
    1 << 25,
    1 << 28,
    1 << 31,
];

/// Traced workload bundle.
pub struct Traced {
    pub workload: Workload,
    pub info: StaticInfo,
    pub traces: Vec<RawTrace>,
}

/// Trace a named workload at a process count.
pub fn trace_workload(name: &str, nprocs: u32, scale: Scale) -> Traced {
    let w = by_name(name, nprocs, scale).unwrap_or_else(|| panic!("unknown workload {name}"));
    let (_, info) = w.compile();
    let traces = w
        .trace_parallel(num_threads())
        .unwrap_or_else(|e| panic!("tracing {name}@{nprocs} failed: {e}"));
    Traced {
        workload: w,
        info,
        traces,
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Fig. 15 / Fig. 19 row: total trace sizes (bytes) per method.
#[derive(Debug, Clone)]
pub struct TraceSizes {
    pub nprocs: u32,
    /// Uncompressed per-event encoding, summed over ranks.
    pub raw: usize,
    /// Per-rank gzip of the raw encoding (no inter-process compression).
    pub gzip: usize,
    pub scalatrace: usize,
    pub scalatrace2: usize,
    pub scalatrace2_gzip: usize,
    pub cypress: usize,
    pub cypress_gzip: usize,
}

/// Compute all Fig. 15 series for one traced workload.
pub fn trace_sizes(t: &Traced) -> TraceSizes {
    let raw_blobs: Vec<Vec<u8>> = t.traces.iter().map(encode_mpi_events).collect();
    let raw: usize = raw_blobs.iter().map(|b| b.len()).sum();
    let gzip: usize = raw_blobs
        .iter()
        .map(|b| gzip_compress(b, Level::Default).len())
        .sum();

    let st: Vec<ScalaTrace> = t.traces.iter().map(ScalaTrace::compress).collect();
    let scalatrace = ScalaMerged::merge_all(&st).encoded_size();

    let st2: Vec<Scala2Trace> = t.traces.iter().map(Scala2Trace::compress).collect();
    let st2_merged = Scala2Merged::merge_all(&st2);
    let scalatrace2 = st2_merged.encoded_size();
    let scalatrace2_gzip = gzip_compress(&st2_merged.to_bytes(), Level::Default).len();

    let ctts: Vec<Ctt> = t
        .traces
        .iter()
        .map(|tr| compress_trace(&t.info.cst, tr, &CompressConfig::default()))
        .collect();
    let merged = merge_all(&ctts);
    // CYPRESS's artifact = static CST text + merged CTT.
    let cst_bytes = t.info.cst.to_text().len();
    let merged_bytes = merged.to_bytes();
    let cypress = cst_bytes + merged_bytes.len();
    let cypress_gzip = cst_bytes
        .min(gzip_compress(t.info.cst.to_text().as_bytes(), Level::Default).len())
        + gzip_compress(&merged_bytes, Level::Default).len();

    TraceSizes {
        nprocs: t.workload.nprocs,
        raw,
        gzip,
        scalatrace,
        scalatrace2,
        scalatrace2_gzip,
        cypress,
        cypress_gzip,
    }
}

/// Fig. 16 row: intra-process compression overhead per method.
#[derive(Debug, Clone)]
pub struct IntraOverhead {
    pub nprocs: u32,
    /// Wall-clock compression time as a fraction of virtual app time (mean
    /// over ranks).
    pub time_frac_scalatrace: f64,
    pub time_frac_scalatrace2: f64,
    pub time_frac_cypress: f64,
    /// Mean live compressor memory per rank (bytes).
    pub mem_scalatrace: usize,
    pub mem_cypress: usize,
    /// Compressor work per MPI event, in comparisons: ScalaTrace's window
    /// comparisons, ScalaTrace-2's elastic window scan and CYPRESS's
    /// compare-with-last tests (with its window scan). Counts, so a test can
    /// hold the Fig. 16 time claim without a clock.
    pub compares_per_event_scalatrace: f64,
    pub compares_per_event_scalatrace2: f64,
    pub compares_per_event_cypress: f64,
}

/// A `bench`-scope duration histogram. The harness measures through the
/// always-on [`Histogram::record_since`], so the figure columns and the
/// `--metrics` report come from the same recordings.
const fn bench_ns(name: &'static str) -> Histogram {
    Histogram::new("bench", name, &TIME_BOUNDS_NS)
}

/// Record the time since `t0` into `hist`; returns it in seconds.
fn record_secs(hist: &'static Histogram, t0: Instant) -> f64 {
    hist.record_since(t0) as f64 / 1e9
}

static INTRA_SCALATRACE_NS: Histogram = bench_ns("intra_scalatrace_ns");
static INTRA_SCALATRACE2_NS: Histogram = bench_ns("intra_scalatrace2_ns");
static INTRA_CYPRESS_NS: Histogram = bench_ns("intra_cypress_ns");
static INTRA_MEM_SCALATRACE: Histogram =
    Histogram::new("bench", "intra_mem_scalatrace_bytes", &SIZE_BOUNDS);
static INTRA_MEM_CYPRESS: Histogram =
    Histogram::new("bench", "intra_mem_cypress_bytes", &SIZE_BOUNDS);
static INTER_SCALATRACE_NS: Histogram = bench_ns("inter_scalatrace_ns");
static INTER_SCALATRACE2_NS: Histogram = bench_ns("inter_scalatrace2_ns");
static INTER_CYPRESS_NS: Histogram = bench_ns("inter_cypress_ns");
static COMPILE_BASE_NS: Histogram = bench_ns("compile_base_ns");
static COMPILE_WITH_CST_NS: Histogram = bench_ns("compile_with_cst_ns");

/// Measure intra-process compression cost for every rank of a traced run.
pub fn intra_overhead(t: &Traced) -> IntraOverhead {
    let mut ts_st = 0.0;
    let mut ts_st2 = 0.0;
    let mut ts_cy = 0.0;
    let mut mem_st = 0usize;
    let mut mem_cy = 0usize;
    let (mut cmp_st, mut cmp_st2, mut cmp_cy, mut events) = (0u64, 0u64, 0u64, 0u64);
    for tr in &t.traces {
        let app = (tr.app_time.max(1)) as f64;

        let t0 = Instant::now();
        let mut c = cypress_baselines::ScalaCompressor::new(tr.rank);
        for r in tr.mpi_records() {
            c.push(r);
        }
        let st_bytes = c.approx_bytes();
        ts_st += INTRA_SCALATRACE_NS.record_since(t0) as f64 / app;
        cmp_st += c.comparisons;
        events += c.events_in;
        INTRA_MEM_SCALATRACE.record(st_bytes as u64);
        mem_st += st_bytes;

        let t0 = Instant::now();
        cmp_st2 += Scala2Trace::compress_counted(tr).1;
        ts_st2 += INTRA_SCALATRACE2_NS.record_since(t0) as f64 / app;

        let t0 = Instant::now();
        let mut c =
            IntraCompressor::new(&t.info.cst, tr.rank, tr.nprocs, CompressConfig::default());
        c.push_batch(&tr.events);
        cmp_cy += c.compares();
        let ctt = c.finish(tr.app_time);
        ts_cy += INTRA_CYPRESS_NS.record_since(t0) as f64 / app;
        let cy_bytes = ctt.approx_bytes();
        INTRA_MEM_CYPRESS.record(cy_bytes as u64);
        mem_cy += cy_bytes;
    }
    let n = t.traces.len() as f64;
    IntraOverhead {
        nprocs: t.workload.nprocs,
        time_frac_scalatrace: ts_st / n,
        time_frac_scalatrace2: ts_st2 / n,
        time_frac_cypress: ts_cy / n,
        mem_scalatrace: mem_st / t.traces.len(),
        mem_cypress: mem_cy / t.traces.len(),
        compares_per_event_scalatrace: cmp_st as f64 / events.max(1) as f64,
        compares_per_event_scalatrace2: cmp_st2 as f64 / events.max(1) as f64,
        compares_per_event_cypress: cmp_cy as f64 / events.max(1) as f64,
    }
}

/// Fig. 18 row: inter-process merge wall time per method (seconds).
#[derive(Debug, Clone)]
pub struct InterOverhead {
    pub nprocs: u32,
    pub scalatrace_s: f64,
    pub scalatrace2_s: f64,
    pub cypress_s: f64,
}

pub fn inter_overhead(t: &Traced) -> InterOverhead {
    let st: Vec<ScalaTrace> = t.traces.iter().map(ScalaTrace::compress).collect();
    let t0 = Instant::now();
    let _ = ScalaMerged::merge_all(&st);
    let scalatrace_s = record_secs(&INTER_SCALATRACE_NS, t0);

    let st2: Vec<Scala2Trace> = t.traces.iter().map(Scala2Trace::compress).collect();
    let t0 = Instant::now();
    let _ = Scala2Merged::merge_all(&st2);
    let scalatrace2_s = record_secs(&INTER_SCALATRACE2_NS, t0);

    let ctts: Vec<Ctt> = t
        .traces
        .iter()
        .map(|tr| compress_trace(&t.info.cst, tr, &CompressConfig::default()))
        .collect();
    let t0 = Instant::now();
    let _ = merge_all(&ctts);
    let cypress_s = record_secs(&INTER_CYPRESS_NS, t0);

    InterOverhead {
        nprocs: t.workload.nprocs,
        scalatrace_s,
        scalatrace2_s,
        cypress_s,
    }
}

/// Table I row: compilation time without and with CST construction.
#[derive(Debug, Clone)]
pub struct CompileOverhead {
    pub base_s: f64,
    pub with_cst_s: f64,
}

impl CompileOverhead {
    pub fn overhead_pct(&self) -> f64 {
        if self.base_s == 0.0 {
            return 0.0;
        }
        (self.with_cst_s - self.base_s) / self.base_s * 100.0
    }
}

pub fn compile_overhead(name: &str, reps: u32) -> CompileOverhead {
    let w = by_name(name, cypress_workloads::quick_procs(name), Scale::Quick)
        .unwrap_or_else(|| panic!("unknown workload {name}"));
    let t0 = Instant::now();
    for _ in 0..reps {
        let p = cypress_minilang::parse(&w.source).expect("workload parses");
        cypress_minilang::check_program(&p).expect("workload checks");
        std::hint::black_box(&p);
    }
    let base_s = record_secs(&COMPILE_BASE_NS, t0) / reps as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let p = cypress_minilang::parse(&w.source).expect("workload parses");
        cypress_minilang::check_program(&p).expect("workload checks");
        let info = cypress_cst::analyze_program(&p);
        std::hint::black_box(&info);
    }
    let with_cst_s = record_secs(&COMPILE_WITH_CST_NS, t0) / reps as f64;
    CompileOverhead { base_s, with_cst_s }
}

/// Fig. 21 row: measured vs predicted execution time.
#[derive(Debug, Clone)]
pub struct Prediction {
    pub nprocs: u32,
    pub measured_s: f64,
    pub predicted_s: f64,
    pub comm_pct: f64,
}

impl Prediction {
    pub fn error_pct(&self) -> f64 {
        if self.measured_s == 0.0 {
            return 0.0;
        }
        ((self.predicted_s - self.measured_s) / self.measured_s * 100.0).abs()
    }
}

/// Simulate raw traces ("measured") and CYPRESS-decompressed traces
/// ("predicted", the analysis crate's decompress-then-simulate oracle)
/// through the LogGP simulator.
pub fn predict(t: &Traced) -> Result<Prediction, AnalysisError> {
    let model = LogGp::default();
    let measured = simulate(&from_raw_traces(&t.traces), &model)?;
    let cfg = CompressConfig::default();
    let ctts: Vec<Ctt> = t
        .traces
        .iter()
        .map(|tr| compress_trace(&t.info.cst, tr, &cfg))
        .collect();
    let predicted =
        analyze_by_decompression(&t.info.cst, &ctts, &model, &AnalyzeOptions::default())?.predicted;
    Ok(Prediction {
        nprocs: t.workload.nprocs,
        measured_s: measured.total as f64 / 1e9,
        predicted_s: predicted.total as f64 / 1e9,
        comm_pct: measured.comm_fraction() * 100.0,
    })
}

/// Render a size in KB the way the paper's axes do.
pub fn kb(bytes: usize) -> f64 {
    bytes as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_pipeline_runs_and_orders_sanely() {
        let t = trace_workload("jacobi", 8, Scale::Quick);
        let s = trace_sizes(&t);
        assert!(s.raw > 0);
        assert!(s.gzip < s.raw, "gzip must beat raw");
        assert!(
            s.cypress < s.gzip,
            "cypress must beat per-rank gzip on jacobi"
        );
        assert!(s.cypress_gzip <= s.cypress);
    }

    #[test]
    fn intra_overhead_cypress_cheapest() {
        let t = trace_workload("lu", 8, Scale::Quick);
        let o = intra_overhead(&t);
        // The Fig. 16 memory claim our substrate supports directly: the CTT
        // stays small in absolute terms and near-constant as the trace
        // grows (it is bounded by program structure, not event count).
        let long = trace_workload("lu", 8, Scale::Paper);
        let o_long = intra_overhead(&long);
        // The Fig. 16 time claim, in counts: CYPRESS tests each event
        // against the last record of its own leaf, so its work per event
        // does not grow with the trace, and it stays below ScalaTrace's,
        // which tries every window length at the tail of one long list, and
        // below ScalaTrace-2's, which scans a window of elements per event.
        let (quick, paper) = (
            o.compares_per_event_cypress,
            o_long.compares_per_event_cypress,
        );
        assert!(
            paper <= quick * 1.1 && paper >= quick * 0.9,
            "cypress compares per event not flat: {quick:.3} quick, {paper:.3} paper"
        );
        assert!(
            paper < o_long.compares_per_event_scalatrace,
            "cypress {paper:.3} vs scalatrace {:.3} compares per event",
            o_long.compares_per_event_scalatrace
        );
        assert!(
            paper < o_long.compares_per_event_scalatrace2,
            "cypress {paper:.3} vs scalatrace-2 {:.3} compares per event",
            o_long.compares_per_event_scalatrace2
        );
        assert!(
            o_long.mem_cypress < 64 * 1024,
            "CTT ballooned: {}",
            o_long.mem_cypress
        );
        let events_ratio = long.traces[0].mpi_count() as f64 / t.traces[0].mpi_count() as f64;
        let mem_ratio = o_long.mem_cypress as f64 / o.mem_cypress.max(1) as f64;
        assert!(events_ratio > 10.0, "paper scale should be much longer");
        assert!(
            mem_ratio < events_ratio / 4.0,
            "CTT memory should grow far slower than the trace ({mem_ratio:.1}x vs {events_ratio:.1}x)"
        );
    }

    #[test]
    fn compile_overhead_small() {
        let c = compile_overhead("bt", 30);
        // Wall times are sub-millisecond and scheduler-noisy; assert sanity
        // (both phases ran, CST cost is bounded), not a precise ratio.
        assert!(c.base_s > 0.0 && c.with_cst_s > 0.0);
        assert!(
            c.with_cst_s < c.base_s * 20.0,
            "CST build should be the same order as parsing: {} vs {}",
            c.with_cst_s,
            c.base_s
        );
    }

    #[test]
    fn prediction_close_to_measured() {
        let t = trace_workload("jacobi", 8, Scale::Quick);
        let p = predict(&t).unwrap();
        assert!(p.error_pct() < 20.0, "error {}", p.error_pct());
        assert!(p.comm_pct > 0.0 && p.comm_pct < 100.0);
    }

    #[test]
    fn fig21_average_error_within_documented_bound() {
        // The Fig. 21 replay-prediction experiment (leslie3d across process
        // counts): EXPERIMENTS.md §Fig. 21 records a 3.50 % average error at
        // paper scale (1.14–5.00 % per point; the paper reports 5.9 %). The
        // quick-scale sweep regenerated by `scripts/figures.sh fig21` must
        // stay inside the same average bound — the pipeline is fully
        // deterministic, so this is a regression pin, not a noisy check.
        let procs = [16u32, 32, 64];
        let mut sum = 0.0;
        for &p in &procs {
            let t = trace_workload("leslie3d", p, Scale::Quick);
            let pred = predict(&t).unwrap();
            assert!(
                pred.error_pct() <= 5.0,
                "{p} procs: per-point error {:.2}% above the documented range",
                pred.error_pct()
            );
            sum += pred.error_pct();
        }
        let avg = sum / procs.len() as f64;
        assert!(
            avg <= 3.5,
            "average prediction error {avg:.2}% above the EXPERIMENTS.md §Fig. 21 bound (3.50%)"
        );
    }
}
