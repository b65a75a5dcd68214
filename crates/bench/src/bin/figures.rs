//! Regenerate every table and figure of the paper's evaluation (§VII).
//!
//! ```text
//! figures [fig15|fig16|fig17|fig18|table1|fig19|fig20|fig21|all] [--paper] [--metrics]
//! ```
//!
//! Default (quick) mode runs the workloads at reduced process counts and
//! iteration scales so the full set finishes in minutes on a laptop;
//! `--paper` switches to the paper's process counts (64–512) and CLASS-D
//! shaped iteration structure — expect a long run. Output goes to stdout and
//! to `results/<experiment>.csv`. With `--metrics`, pipeline instrumentation
//! is enabled and a metrics report is printed and saved to
//! `results/metrics.jsonl` at exit.

use cypress_bench::*;
use cypress_trace::commmatrix::CommMatrix;
use cypress_workloads::Scale;
use std::fmt::Write as _;
use std::fs;

struct Cfg {
    scale: Scale,
    paper: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let metrics = args.iter().any(|a| a == "--metrics");
    if metrics {
        cypress_obs::set_enabled(true);
    }
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all")
        .to_string();
    let cfg = Cfg {
        scale: if paper { Scale::Paper } else { Scale::Quick },
        paper,
    };
    fs::create_dir_all("results").expect("create results dir");

    match what.as_str() {
        "fig15" => fig15(&cfg),
        "fig16" => fig16(&cfg),
        "fig17" => fig17(&cfg),
        "fig18" => fig18(&cfg),
        "table1" => table1(),
        "fig19" => fig19(&cfg),
        "fig20" => fig20(&cfg),
        "fig21" => fig21(&cfg),
        "ablation" => ablation(&cfg),
        "all" => {
            ablation(&cfg);
            table1();
            fig15(&cfg);
            fig16(&cfg);
            fig17(&cfg);
            fig18(&cfg);
            fig19(&cfg);
            fig20(&cfg);
            fig21(&cfg);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "usage: figures [fig15|fig16|fig17|fig18|table1|fig19|fig20|fig21|ablation|all] [--paper] [--metrics]"
            );
            std::process::exit(2);
        }
    }

    if metrics {
        let report = cypress_obs::report();
        println!("\n== metrics ==\n{}", report.to_text());
        let path = std::path::Path::new("results/metrics.jsonl");
        cypress_obs::append_atomic(path, report.to_jsonl().as_bytes())
            .expect("write metrics.jsonl");
        println!("  -> {}", path.display());
    }
}

/// Process counts per benchmark, honouring benchmark shape constraints.
fn procs_for(name: &str, cfg: &Cfg) -> Vec<u32> {
    if cfg.paper {
        return cypress_workloads::paper_procs(name).to_vec();
    }
    match name {
        "bt" | "sp" => vec![9, 16, 25, 36],
        "dt" => vec![8, 16, 32, 64],
        "leslie3d" => vec![16, 32, 64],
        _ => vec![8, 16, 32, 64],
    }
}

fn save(name: &str, content: &str) {
    let path = format!("results/{name}.csv");
    fs::write(&path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("  -> {path}");
}

fn fig15(cfg: &Cfg) {
    println!("\n== Fig 15: total communication trace sizes (KB) ==");
    let mut csv = String::from(
        "bench,nprocs,raw_kb,gzip_kb,scalatrace_kb,scalatrace2_kb,scalatrace2_gzip_kb,cypress_kb,cypress_gzip_kb\n",
    );
    for name in cypress_workloads::NPB_NAMES {
        println!("[{name}]");
        println!(
            "{:>7} {:>12} {:>12} {:>12} {:>12} {:>14} {:>12} {:>14}",
            "procs",
            "raw",
            "gzip",
            "scalatrace",
            "scalatrace2",
            "st2+gzip",
            "cypress",
            "cypress+gzip"
        );
        for p in procs_for(name, cfg) {
            let t = trace_workload(name, p, cfg.scale);
            let s = trace_sizes(&t);
            println!(
                "{:>7} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>14.1} {:>12.1} {:>14.1}",
                p,
                kb(s.raw),
                kb(s.gzip),
                kb(s.scalatrace),
                kb(s.scalatrace2),
                kb(s.scalatrace2_gzip),
                kb(s.cypress),
                kb(s.cypress_gzip)
            );
            writeln!(
                csv,
                "{name},{p},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1},{:.1}",
                kb(s.raw),
                kb(s.gzip),
                kb(s.scalatrace),
                kb(s.scalatrace2),
                kb(s.scalatrace2_gzip),
                kb(s.cypress),
                kb(s.cypress_gzip)
            )
            .unwrap();
        }
    }
    save("fig15_trace_sizes", &csv);
}

fn fig16(cfg: &Cfg) {
    println!("\n== Fig 16: intra-process compression overhead ==");
    let mut csv = String::from(
        "bench,nprocs,time_pct_scalatrace,time_pct_scalatrace2,time_pct_cypress,mem_scalatrace_b,mem_cypress_b\n",
    );
    for name in ["bt", "cg", "ft", "lu", "mg", "sp"] {
        println!("[{name}]");
        println!(
            "{:>7} {:>14} {:>15} {:>13} {:>14} {:>12}",
            "procs", "t%scalatrace", "t%scalatrace2", "t%cypress", "mem_st(B)", "mem_cy(B)"
        );
        for p in procs_for(name, cfg) {
            let t = trace_workload(name, p, cfg.scale);
            let o = intra_overhead(&t);
            println!(
                "{:>7} {:>13.3}% {:>14.3}% {:>12.3}% {:>14} {:>12}",
                p,
                o.time_frac_scalatrace * 100.0,
                o.time_frac_scalatrace2 * 100.0,
                o.time_frac_cypress * 100.0,
                o.mem_scalatrace,
                o.mem_cypress
            );
            writeln!(
                csv,
                "{name},{p},{:.4},{:.4},{:.4},{},{}",
                o.time_frac_scalatrace * 100.0,
                o.time_frac_scalatrace2 * 100.0,
                o.time_frac_cypress * 100.0,
                o.mem_scalatrace,
                o.mem_cypress
            )
            .unwrap();
        }
    }
    save("fig16_intra_overhead", &csv);
}

fn fig17(cfg: &Cfg) {
    println!("\n== Fig 17: communication patterns of MG and SP (64 procs) ==");
    let (mg_p, sp_p) = if cfg.paper { (64, 64) } else { (16, 16) };
    for (name, p) in [("mg", mg_p), ("sp", sp_p)] {
        let t = trace_workload(name, p, cfg.scale);
        let m = CommMatrix::from_traces(&t.traces);
        println!("[{name} @ {p}] total {} bytes, heatmap:", m.total());
        print!("{}", m.to_ascii());
        fs::write(format!("results/fig17_{name}_matrix.csv"), m.to_csv()).expect("write matrix");
        println!("  -> results/fig17_{name}_matrix.csv");
    }
}

fn fig18(cfg: &Cfg) {
    println!("\n== Fig 18: inter-process compression overhead (seconds) ==");
    let mut csv = String::from("bench,nprocs,scalatrace_s,scalatrace2_s,cypress_s\n");
    for name in ["bt", "cg", "lu", "mg", "sp"] {
        println!("[{name}]");
        println!(
            "{:>7} {:>14} {:>14} {:>12}",
            "procs", "scalatrace(s)", "scalatrace2(s)", "cypress(s)"
        );
        for p in procs_for(name, cfg) {
            let t = trace_workload(name, p, cfg.scale);
            let o = inter_overhead(&t);
            println!(
                "{:>7} {:>14.4} {:>14.4} {:>12.4}",
                p, o.scalatrace_s, o.scalatrace2_s, o.cypress_s
            );
            writeln!(
                csv,
                "{name},{p},{:.6},{:.6},{:.6}",
                o.scalatrace_s, o.scalatrace2_s, o.cypress_s
            )
            .unwrap();
        }
    }
    save("fig18_inter_overhead", &csv);
}

fn table1() {
    println!("\n== Table I: compilation overhead of CYPRESS ==");
    println!(
        "{:>6} {:>12} {:>12} {:>10}",
        "bench", "w/o cst(ms)", "w/ cst(ms)", "overhead"
    );
    let mut csv = String::from("bench,base_ms,with_cst_ms,overhead_pct\n");
    for name in cypress_workloads::NPB_NAMES {
        let c = compile_overhead(name, 20);
        println!(
            "{:>6} {:>12.3} {:>12.3} {:>9.2}%",
            name,
            c.base_s * 1e3,
            c.with_cst_s * 1e3,
            c.overhead_pct()
        );
        writeln!(
            csv,
            "{name},{:.4},{:.4},{:.2}",
            c.base_s * 1e3,
            c.with_cst_s * 1e3,
            c.overhead_pct()
        )
        .unwrap();
    }
    save("table1_compile_overhead", &csv);
}

fn fig19(cfg: &Cfg) {
    println!("\n== Fig 19: LESlie3d compressed trace sizes (KB) ==");
    let mut csv = String::from("nprocs,raw_kb,gzip_kb,scalatrace_kb,cypress_kb\n");
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12}",
        "procs", "raw", "gzip", "scalatrace", "cypress"
    );
    for p in procs_for("leslie3d", cfg) {
        let t = trace_workload("leslie3d", p, cfg.scale);
        let s = trace_sizes(&t);
        println!(
            "{:>7} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            p,
            kb(s.raw),
            kb(s.gzip),
            kb(s.scalatrace),
            kb(s.cypress)
        );
        writeln!(
            csv,
            "{p},{:.1},{:.1},{:.1},{:.1}",
            kb(s.raw),
            kb(s.gzip),
            kb(s.scalatrace),
            kb(s.cypress)
        )
        .unwrap();
    }
    save("fig19_leslie3d_sizes", &csv);
}

fn fig20(cfg: &Cfg) {
    println!("\n== Fig 20: LESlie3d communication patterns ==");
    let counts: &[u32] = if cfg.paper { &[32, 64] } else { &[16, 32] };
    for &p in counts {
        let t = trace_workload("leslie3d", p, cfg.scale);
        let m = CommMatrix::from_traces(&t.traces);
        println!("[leslie3d @ {p}] peers of rank 0: {:?}", m.peers_of(0));
        println!(
            "  distinct message volumes per edge: {:?}",
            m.distinct_volumes().len()
        );
        print!("{}", m.to_ascii());
        fs::write(format!("results/fig20_leslie3d_{p}.csv"), m.to_csv()).expect("write matrix");
        println!("  -> results/fig20_leslie3d_{p}.csv");
    }
}

fn ablation(cfg: &Cfg) {
    use cypress_core::{compress_trace, merge_all, BinomialMerger, CompressConfig};
    use cypress_trace::codec::Codec;
    use std::time::Instant;

    println!("\n== Ablations: design choices called out in DESIGN.md ==");
    let mut csv = String::from("ablation,config,value\n");

    // (a) Relative ranking (§IV-B): without it, stencil records differ per
    //     rank and inter-process merging degenerates.
    let p = if cfg.paper { 64 } else { 16 };
    let t = trace_workload("jacobi", p, cfg.scale);
    for (label, relative) in [("relative", true), ("absolute", false)] {
        let c = CompressConfig {
            relative_ranks: relative,
            ..CompressConfig::default()
        };
        let ctts: Vec<_> = t
            .traces
            .iter()
            .map(|tr| compress_trace(&t.info.cst, tr, &c))
            .collect();
        let merged = merge_all(&ctts);
        println!(
            "rank-encoding={label:<9} jacobi@{p}: merged {} B, {} groups",
            merged.encoded_size(),
            merged.group_count()
        );
        writeln!(csv, "rank_encoding,{label},{}", merged.encoded_size()).unwrap();
    }

    // (b) Leaf sliding window (§IV-A): window > 1 folds same-site parameter
    //     alternations at the cost of exact ordering. A single bcast whose
    //     size alternates per iteration is the minimal pattern.
    {
        use cypress_minilang::{check_program, parse};
        use cypress_runtime::{trace_program, InterpConfig};
        let src = "fn main() { for i in 0..200 { bcast(0, 8 + 8 * (i % 2)); } }";
        let prog = parse(src).expect("ablation source parses");
        check_program(&prog).expect("ablation source checks");
        let info = cypress_cst::analyze_program(&prog);
        let traces =
            trace_program(&prog, &info, 1, &InterpConfig::default()).expect("ablation trace");
        for window in [1usize, 2, 8] {
            let c = CompressConfig {
                window,
                ..CompressConfig::default()
            };
            let recs = compress_trace(&info.cst, &traces[0], &c).record_count();
            println!("window={window}: alternating-size bcast records {recs}");
            writeln!(csv, "window,{window},{recs}").unwrap();
        }
    }

    // (c) Sequential `merge_all` vs a `BinomialMerger` holding each rank as
    // a piece and merging the pieces once, in rank order: the same tree.
    let t = trace_workload("lu", if cfg.paper { 128 } else { 64 }, cfg.scale);
    let ctts: Vec<_> = t
        .traces
        .iter()
        .map(|tr| compress_trace(&t.info.cst, tr, &CompressConfig::default()))
        .collect();
    let t0 = Instant::now();
    let seq = merge_all(&ctts);
    let seq_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut bm = BinomialMerger::new(ctts.len() as u32);
    for c in &ctts {
        bm.add(c);
    }
    let tree = bm.finish();
    let tree_s = t0.elapsed().as_secs_f64();
    assert_eq!(seq.to_bytes(), tree.to_bytes());
    println!(
        "merge lu@{}: sequential {seq_s:.5}s, held pieces {tree_s:.5}s",
        t.workload.nprocs
    );
    writeln!(csv, "merge,sequential_s,{seq_s:.6}").unwrap();
    writeln!(csv, "merge,pieces_s,{tree_s:.6}").unwrap();

    save("ablation", &csv);
}

fn fig21(cfg: &Cfg) {
    println!("\n== Fig 21: LESlie3d measured vs predicted execution time ==");
    let mut csv = String::from("nprocs,measured_s,predicted_s,error_pct,comm_pct\n");
    println!(
        "{:>7} {:>12} {:>12} {:>9} {:>8}",
        "procs", "measured(s)", "predicted(s)", "err", "comm%"
    );
    let mut errs = Vec::new();
    for p in procs_for("leslie3d", cfg) {
        let t = trace_workload("leslie3d", p, cfg.scale);
        let pr = predict(&t).unwrap_or_else(|e| panic!("simulation failed at {p}: {e}"));
        println!(
            "{:>7} {:>12.4} {:>12.4} {:>8.2}% {:>7.2}%",
            p,
            pr.measured_s,
            pr.predicted_s,
            pr.error_pct(),
            pr.comm_pct
        );
        writeln!(
            csv,
            "{p},{:.5},{:.5},{:.3},{:.2}",
            pr.measured_s,
            pr.predicted_s,
            pr.error_pct(),
            pr.comm_pct
        )
        .unwrap();
        errs.push(pr.error_pct());
    }
    let avg = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    println!("average prediction error: {avg:.2}% (paper: 5.9%)");
    save("fig21_prediction", &csv);
}
