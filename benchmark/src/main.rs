//! End-to-end benchmark of the CYPRESS reproduction.
//!
//! ```text
//! cypress-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! cypress-benchmark run --seed <n> [--trace] [--sets <k>] [--smoke] [--seconds <s>]
//! cypress-benchmark agree <runA.json> <runB.json>
//! ```
//!
//! The first form runs one workload in this process and prints every metric
//! by name with its unit, then one JSON object as the last line of standard
//! output. `run` runs every workload, each in a fresh child process, and
//! writes a result file; `agree` compares two result files against the
//! bounds of the metric catalogue. See `README.md`.

mod gen;
mod harness;
mod json;
mod layers;
mod metrics;
mod span;
mod stats;
mod suite;
mod workloads;

use harness::{Ctx, Scale};
use json::{obj, Value};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  cypress-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  cypress-benchmark run --seed <n> [--trace] [--sets <k>] [--smoke] [--seconds <s>]
  cypress-benchmark agree <runA.json> <runB.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => suite::run(&args[1..]),
        Some("agree") => suite::agree(&args[1..]),
        Some(flag) if flag.starts_with("--") => single(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs and bare `--flag`s, in any order.
pub struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    pub fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}\n{USAGE}"))?;
            let value = if bare.contains(&key) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{key} needs a value"))?
                        .clone(),
                )
            };
            out.push((key.to_string(), value));
        }
        Ok(Flags(out))
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.iter().any(|(k, _)| k == key)
    }

    pub fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(k, _)| k == key) {
            None => Ok(None),
            Some((_, v)) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("bad value for --{key}")),
        }
    }
}

/// `benchmark/out/` of the checkout the command runs from; the crate's own
/// directory when run from elsewhere.
pub fn out_root() -> PathBuf {
    let here = PathBuf::from("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run one workload in this process.
fn single(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    let name: String = flags.get("workload")?.ok_or(USAGE)?;
    let workload = metrics::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?
        .name;
    let seed: u64 = flags.get("seed")?.ok_or(USAGE)?;
    let trace = match flags.get::<u8>("trace")?.ok_or(USAGE)? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let out = out_root();
    let ctx = Ctx {
        workload,
        seed,
        seconds: flags.get("seconds")?.ok_or(USAGE)?,
        trace,
        scale: if flags.has("smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        },
        nproc: nproc(),
        out: out.join(format!("{workload}-{seed}-{}", std::process::id())),
    };
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;

    let mut outcome = workloads::run(&ctx);

    println!("# workload {workload}");
    println!("# seed {seed}");
    println!("# scale {}", ctx.scale.name());
    println!("# nproc {}", ctx.nproc);
    println!("# driver_threads {}", ctx.nproc);
    println!("# repetitions {}", outcome.walls_s.len());
    let walls: Vec<String> = outcome.walls_s.iter().map(|w| format!("{w:.4}")).collect();
    println!("# walls_s {}", walls.join(" "));
    let lat = &outcome.latency;
    println!(
        "# latency samples={} p90_is=p{:.1} p99_ms={} max_ms={}",
        lat.samples,
        lat.p90_is * 100.0,
        json::number(lat.p99_ns as f64 / 1e6),
        json::number(lat.max_ns as f64 / 1e6)
    );
    let mut fields = Vec::new();
    if trace {
        let threads = span::drain();
        let rows = span::summarize(&threads);
        println!("# span layer/name calls total_ms self_ms");
        for (layer, name, calls, total, own) in &rows {
            println!(
                "# span {layer}/{name} {calls} {:.3} {:.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
        let path = out.join(format!("{workload}.trace.json"));
        std::fs::write(&path, span::chrome_json(&threads))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# trace {}", path.display());
        let m = &mut outcome.metrics;
        m.insert(
            "bench.spans",
            threads.iter().map(Vec::len).sum::<usize>() as f64,
        );
        m.insert("bench.repetitions", outcome.walls_s.len() as f64);
        m.insert("bench.driver_threads", ctx.nproc as f64);
        m.insert("bench.nproc", ctx.nproc as f64);
        for def in metrics::PER_LAYER {
            // A layer this workload never enters did no work: 0.
            let value = m.get(def.name).copied().unwrap_or(0.0);
            fields.push((def.name, value, def.unit, def.better));
        }
    } else {
        for def in metrics::END_TO_END {
            let value = *outcome
                .metrics
                .get(def.name)
                .ok_or_else(|| format!("{workload} did not report {}", def.name))?;
            fields.push((def.name, value, def.unit, def.better));
        }
    }
    for (name, value, unit, better) in &fields {
        if !value.is_finite() {
            return Err(format!("{workload}: {name} is not a number"));
        }
        println!(
            "{name:<36} {:>18} {unit:<8} ({} is better)",
            json::number(*value),
            better.name()
        );
    }
    let checks = &outcome.checks;
    println!(
        "{:<36} {:>18} ratio",
        "failed_share",
        json::number(checks.failed as f64 / checks.attempted.max(1) as f64)
    );
    for message in &checks.messages {
        eprintln!("FAILED: {message}");
    }
    let correct = checks.failed == 0;
    if correct {
        let _ = std::fs::remove_dir_all(&ctx.out);
    } else {
        eprintln!("scratch files kept in {}", ctx.out.display());
    }
    let metrics = obj(fields.iter().map(|(name, value, unit, _)| {
        let entry = obj([
            ("value", Value::Num(*value)),
            ("unit", Value::Str(unit.to_string())),
        ]);
        (*name, entry)
    }));
    let line = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(checks.attempted.max(1) as f64)),
        ("failed", Value::Num(checks.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(correct)
}
