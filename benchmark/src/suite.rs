//! `run`: every workload, each in a fresh child process, into one result
//! file. `agree`: two result files of one commit against the bounds.

use crate::harness::Scale;
use crate::json::{self, obj, Value};
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::{nproc, out_root, Flags};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// One child run: its `# key value` header lines and its result line.
struct Child {
    header: Vec<(String, String)>,
    result: Value,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives the suite.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let header = text
        .lines()
        .filter_map(|l| l.strip_prefix("# "))
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let last = text.lines().last().unwrap_or_default();
    let result = json::parse(last).map_err(|e| {
        format!(
            "{workload} exited with {} and no result line ({e})",
            out.status
        )
    })?;
    Ok(Child { header, result })
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_metrics(title: &str, metrics: &Value) {
    println!("  {title}");
    for (name, m) in metrics.fields() {
        let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        println!("    {name:<36} {:>18} {unit}", json::number(value));
    }
}

/// Run the whole suite once and write its result file.
fn run_set(
    set: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<(PathBuf, bool), String> {
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for w in WORKLOADS {
        println!(
            "{} (set {set}, seed {seed}, {}): {}",
            w.name,
            scale.name(),
            w.why
        );
        let plain = child(w.name, seed, seconds, false, scale)?;
        let field = |key: &str| plain.result.get(key).cloned().unwrap_or(Value::Null);
        let header = |key: &str| {
            let found = plain.header.iter().find(|(k, _)| k == key);
            found.map_or(Value::Null, |(_, v)| Value::Str(v.clone()))
        };
        let mut correct = field("correct") == Value::Bool(true);
        let mut entry = vec![
            ("correct", field("correct")),
            ("attempted", field("attempted")),
            ("failed", field("failed")),
            ("repetitions", header("repetitions")),
            ("end_to_end", field("metrics")),
        ];
        print_metrics("end to end", &field("metrics"));
        if trace {
            let traced = child(w.name, seed, seconds, true, scale)?;
            correct &= traced.result.get("correct") == Some(&Value::Bool(true));
            let layers = traced.result.get("metrics").cloned().unwrap_or(Value::Null);
            print_metrics("per layer", &layers);
            entry.push(("per_layer", layers));
        }
        all_correct &= correct;
        workloads.push((w.name, obj(entry)));
    }
    let doc = obj([
        ("schema", Value::Str("cypress-benchmark/v1".into())),
        ("seed", Value::Num(seed as f64)),
        ("scale", Value::Str(scale.name().into())),
        ("commit", Value::Str(commit())),
        ("nproc", Value::Num(nproc() as f64)),
        ("driver_threads", Value::Num(nproc() as f64)),
        ("run_seconds", Value::Num(seconds)),
        ("workloads", obj(workloads)),
    ]);
    let dir = out_root();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("run-{}-seed{seed}-set{set}.json", scale.name()));
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok((path, all_correct))
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["trace", "smoke"])?;
    let seed: u64 = flags.get("seed")?.unwrap_or(1);
    let sets: usize = flags.get("sets")?.unwrap_or(1);
    let seconds: f64 = flags.get("seconds")?.unwrap_or(RUN_SECONDS as f64);
    let scale = if flags.has("smoke") {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let mut files = Vec::new();
    let mut ok = true;
    for set in 1..=sets.max(1) {
        let (path, correct) = run_set(set, seed, seconds, flags.has("trace"), scale)?;
        ok &= correct;
        files.push(path);
    }
    for pair in files.windows(2) {
        ok &= compare(&pair[0], &pair[1])?;
    }
    Ok(ok)
}

pub fn agree(args: &[String]) -> Result<bool, String> {
    match args {
        [a, b] => compare(Path::new(a), Path::new(b)),
        _ => Err("usage: cypress-benchmark agree <runA.json> <runB.json>".into()),
    }
}

/// Relative distance of two medians of the same code: the larger over the
/// smaller, minus one. Neither set is the baseline, so it is symmetric.
pub fn distance(a: f64, b: f64) -> f64 {
    let (lo, hi) = (a.abs().min(b.abs()), a.abs().max(b.abs()));
    if hi == 0.0 {
        0.0
    } else if lo == 0.0 || a.signum() != b.signum() {
        f64::INFINITY
    } else {
        hi / lo - 1.0
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Metric by metric, workload by workload: pass when the two sets are
/// within the metric's bound of each other and nothing failed.
fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (da, db) = (load(a)?, load(b)?);
    for key in ["schema", "scale", "seed"] {
        if da.get(key) != db.get(key) {
            return Err(format!(
                "{} and {} differ in {key:?} ({:?} vs {:?}): not comparable",
                a.display(),
                b.display(),
                da.get(key),
                db.get(key)
            ));
        }
    }
    println!("agree {} {}", a.display(), b.display());
    println!(
        "{:<18} {:<18} {:>16} {:>16} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "apart", "bound"
    );
    let mut ok = true;
    for w in WORKLOADS {
        let of = |doc: &Value| doc.get("workloads").and_then(|ws| ws.get(w.name)).cloned();
        let (Some(wa), Some(wb)) = (of(&da), of(&db)) else {
            return Err(format!("{} is missing from a result file", w.name));
        };
        for side in [&wa, &wb] {
            if side.get("failed").and_then(Value::as_f64) != Some(0.0) {
                println!(
                    "{:<18} {:<18} operations failed  FAIL",
                    w.name, "failed_share"
                );
                ok = false;
            }
        }
        for def in END_TO_END {
            let value = |side: &Value| {
                side.get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}: {} missing", w.name, def.name))
            };
            let (va, vb) = (value(&wa)?, value(&wb)?);
            let apart = distance(va, vb);
            let pass = apart <= def.bound;
            ok &= pass;
            println!(
                "{:<18} {:<18} {:>16} {:>16} {:>7.2}% {:>5.0}%  {}",
                w.name,
                def.name,
                json::number(va),
                json::number(vb),
                apart * 100.0,
                def.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    println!("{}", if ok { "agree: pass" } else { "agree: FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_relative() {
        assert_eq!(distance(100.0, 100.0), 0.0);
        assert!((distance(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(distance(100.0, 110.0), distance(110.0, 100.0));
        assert_eq!(distance(0.0, 0.0), 0.0);
        assert_eq!(distance(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn run_seconds_matches_benchmark_json() {
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS as f64)
        );
    }
}
