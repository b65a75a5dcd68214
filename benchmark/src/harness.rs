//! What every workload shares: the run context, repeated set-up, the
//! warm-up-then-repeat loop, and turning repetitions into the end-to-end
//! metrics.

use crate::span;
use crate::stats::{median, Latency};
use cypress::obs::rng::Rng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Full size, or the same code paths at about a hundredth of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed repetitions should run in total.
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// `available_parallelism`: the cap on driver threads, on client
    /// connections open at once, and the `threads` given to `Pipeline`.
    pub nproc: usize,
    /// Scratch directory of this run, inside `benchmark/out/`.
    pub out: PathBuf,
}

impl Ctx {
    /// An independent stream of the run's seed, so adding a draw to one
    /// generator never shifts another's.
    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }

    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        match self.scale {
            Scale::Full => full,
            Scale::Smoke => smoke,
        }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.out.join(name)
    }
}

/// One repetition of a workload's timed region.
#[derive(Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    /// MPI events compressed, collected, or covered by answered requests.
    pub events: u64,
    /// Operations completed (see `metrics::END_TO_END`).
    pub ops: u64,
    /// Container bytes written per MPI event; for `queryd-*`, container
    /// bytes in the store per MPI event they hold.
    pub bytes_per_event: f64,
    /// One sample per operation. Empty means the repetition is the
    /// operation and its wall time the sample.
    pub latencies_ns: Vec<u64>,
    /// `VmHWM` reached during this repetition; filled in by [`repeat`].
    pub peak_rss_mb: f64,
}

pub struct Reps {
    /// Repetitions with the benchmark's spans off.
    pub timed: Vec<Rep>,
    /// The one repetition with spans on (`--trace 1` only).
    pub traced: Option<Rep>,
}

/// Checks made outside the timed regions; each failure counts in `failed`
/// and forces a non-zero exit.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count `n` operations that were verified in bulk and passed.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.messages.len() < 8 {
            self.messages.push(what);
        }
    }
}

pub struct Outcome {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Wall time of each timed repetition, printed so a noisy run shows.
    pub walls_s: Vec<f64>,
    /// Digest of the operation latencies, printed with its sample count.
    pub latency: Latency,
}

impl Outcome {
    pub fn new(checks: Checks, metrics: BTreeMap<&'static str, f64>, reps: &Reps) -> Outcome {
        Outcome {
            checks,
            metrics,
            walls_s: reps.timed.iter().map(|r| r.wall_s).collect(),
            latency: reps.latency(),
        }
    }
}

/// Set-up runs three times and reports the median (once in a traced run,
/// whose set-up time is not reported), so one slow allocation or page-cache
/// miss does not decide `setup_s`. Each input is dropped before the next is
/// built; the last one is used.
pub fn setup<T>(ctx: &Ctx, mut build: impl FnMut() -> T) -> (T, f64) {
    let rounds = if ctx.trace { 1 } else { 3 };
    let mut times = Vec::with_capacity(rounds);
    let mut input = None;
    for _ in 0..rounds {
        drop(input.take());
        let t = Instant::now();
        input = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (input.expect("at least one set-up round"), median(&times))
}

/// One warm-up repetition, then timed repetitions until `--seconds` is used
/// up, three at least. A traced run instead times one repetition with spans
/// off and one with spans on, and leaves spans on for the staged layer
/// measurements that follow.
pub fn repeat(ctx: &Ctx, mut rep: impl FnMut(u64) -> Rep) -> Reps {
    // The peak is restarted before every repetition, so `peak_rss_mb` is a
    // median like every other metric and not the maximum over a run whose
    // length varies. Where the kernel refuses the restart, every repetition
    // reads the process-wide peak, set-up included.
    let mut rep = |id| {
        reset_peak_rss();
        let mut r = rep(id);
        r.peak_rss_mb = peak_rss_mb();
        r
    };
    rep(0);
    let mut timed = Vec::new();
    if ctx.trace {
        timed.push(rep(1));
        span::set_enabled(true);
        let traced = rep(2);
        return Reps {
            timed,
            traced: Some(traced),
        };
    }
    let mut spent = 0.0;
    while timed.len() < 3 || spent < ctx.seconds {
        let r = rep(timed.len() as u64 + 1);
        spent += r.wall_s;
        timed.push(r);
    }
    Reps {
        timed,
        traced: None,
    }
}

impl Reps {
    pub fn all(&self) -> impl Iterator<Item = &Rep> {
        self.timed.iter().chain(&self.traced)
    }

    /// Per-operation latencies pooled over all repetitions (a repetition
    /// without samples contributes its wall time).
    pub fn latency(&self) -> Latency {
        let pooled = self
            .all()
            .flat_map(|r| {
                if r.latencies_ns.is_empty() {
                    vec![(r.wall_s * 1e9) as u64]
                } else {
                    r.latencies_ns.clone()
                }
            })
            .collect();
        Latency::of(pooled).expect("at least one repetition ran")
    }

    /// Traced wall over untraced wall, as a percentage above 100.
    pub fn trace_overhead_pct(&self) -> f64 {
        match (&self.traced, self.timed.first()) {
            (Some(t), Some(u)) => (t.wall_s / u.wall_s - 1.0) * 100.0,
            _ => 0.0,
        }
    }
}

/// The end-to-end metrics of a run. Rates are medians over repetitions;
/// latencies are percentiles over the pooled per-operation samples.
pub fn end_to_end(setup_s: f64, reps: &Reps) -> BTreeMap<&'static str, f64> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&reps.timed.iter().map(f).collect::<Vec<_>>());
    let lat = reps.latency();
    BTreeMap::from([
        ("setup_s", setup_s),
        ("events_per_s", per_rep(&|r| r.events as f64 / r.wall_s)),
        ("requests_per_s", per_rep(&|r| r.ops as f64 / r.wall_s)),
        ("bytes_per_event", per_rep(&|r| r.bytes_per_event)),
        ("peak_rss_mb", per_rep(&|r| r.peak_rss_mb)),
        ("latency_p50_ms", lat.p50_ns as f64 / 1e6),
        ("latency_p90_ms", lat.p90_ns as f64 / 1e6),
    ])
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restart `VmHWM` from the current resident set.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Split `0..n` over `threads` driver threads round-robin, run `work` on
/// each share, flush the thread's spans, and return the results in thread
/// order. This is the only place load-generating threads are spawned, so at
/// most `threads` of them — and of the connections they hold one at a time —
/// exist at once.
pub fn drive<T: Send>(
    threads: usize,
    n: usize,
    work: impl Fn(usize, Vec<usize>) -> T + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, n.max(1));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let work = &work;
                s.spawn(move || {
                    let out = work(t, (t..n).step_by(threads).collect());
                    span::flush();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    })
}
