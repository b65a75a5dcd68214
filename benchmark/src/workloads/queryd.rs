//! `queryd-hot` and `queryd-churn`: the `store` daemon over loopback TCP.
//!
//! Set-up compresses the jobs into a store directory, computes every answer
//! in-process through `StoreJob`, starts the daemon and draws the request
//! stream. A repetition plays the whole stream from `nproc` persistent
//! connections, each sending its next request when the previous one is
//! answered (a closed loop, as `cypress query --connect` behaves).
//!
//! The job population is the same for every seed — a fixed ladder of sizes,
//! rank counts and popularity ranks — so that two seeds measure the same
//! amount of work; the seed changes the programs' constants and the order
//! of requests.

use crate::gen::{self, ReqKind, Request};
use crate::harness::{self, Checks, Ctx, Outcome, Rep};
use crate::layers::{mb_per_s, Metrics};
use crate::span::timed;
use crate::stats::Latency;
use cypress::analysis::{analyze_by_decompression, analyze_ctts, lower_schedule, AnalyzeOptions};
use cypress::core::{Ctt, CttSlab};
use cypress::cst::Cst;
use cypress::net::Addr;
use cypress::obs::rng::Rng;
use cypress::query::{QueryResult, Window};
use cypress::simmpi::LogGp;
use cypress::store::{JobStore, QueryClient, ServerHandle, StoreConfig, StoreJob, StoreStats};
use cypress::trace::{Codec, PayloadArena, SectionTable};
use cypress::{Ingest, Level, Pipeline, PipelineConfig, QueryOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Churn,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    LoopFree,
    UniformLoop,
}

struct StoredJob {
    name: String,
    path: PathBuf,
    events: u64,
    /// First half of the job's timeline, for windowed queries.
    window: Window,
}

/// One answer per request kind, indexed by [`slot`].
type Answers = [Option<Vec<u8>>; 3];

fn slot(kind: ReqKind) -> usize {
    match kind {
        ReqKind::Query => 0,
        ReqKind::WindowedQuery => 1,
        ReqKind::Analyze => 2,
    }
}

/// What analysis staging needs of an analyzable job.
struct Analyzable {
    class: Class,
    cst: Cst,
    ctts: Vec<Ctt>,
}

struct Input {
    jobs: Vec<StoredJob>,
    /// Jobs `j` and `j % distinct` hold the same container bytes (the churn
    /// store repeats its images), so they share answers and staging.
    distinct: usize,
    /// Answers computed in-process in set-up, per distinct job.
    expected: Vec<Answers>,
    analyzable: Vec<Analyzable>,
    requests: Vec<Request>,
    /// MPI events the answered requests of one repetition cover.
    request_events: u64,
    /// Container bytes in the store per MPI event they hold.
    bytes_per_event: f64,
    store: Arc<JobStore>,
    // Declared after `store` users above; dropping it stops the daemon.
    server: ServerHandle,
}

/// Compress one generated program into `path`; returns its events, the end
/// of its timeline, and (for analyzable jobs) what analysis staging needs.
fn compress_to(
    ctx: &Ctx,
    prog: &gen::Program,
    level: Option<Level>,
    path: &Path,
) -> (u64, u64, Cst, Vec<Ctt>) {
    let mut job = Pipeline::new(prog.source.clone())
        .ranks(prog.nprocs)
        .configure(PipelineConfig {
            threads: ctx.nproc,
            mode: Ingest::Sequential,
            level,
            ..PipelineConfig::default()
        })
        .run()
        .expect("generated program runs");
    job.write_container(path, true)
        .expect("store container writes");
    let events = job.total_events();
    prog.check_yield(ctx.seed, events);
    let end = job.ctts.iter().map(|c| c.app_time).max().unwrap_or(0);
    let cypress::CompressedJob { info, ctts, .. } = job;
    (events, end, info.cst, ctts)
}

/// `n` values from `lo` to `hi`, evenly spaced in the logarithm.
fn log_ladder(lo: f64, hi: f64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| (lo.ln() + (hi.ln() - lo.ln()) * i as f64 / (n - 1).max(1) as f64).exp() as u64)
        .collect()
}

fn build(ctx: &Ctx, mix: Mix) -> Input {
    let dir = ctx.path("store");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("store directory");
    let mut rng = ctx.rng(3);
    let mut jobs: Vec<StoredJob> = Vec::new();
    let mut analyzable = Vec::new();
    let mut add = |name: String, path: PathBuf, events, end| {
        jobs.push(StoredJob {
            name,
            path,
            events,
            window: Window {
                start_ns: 0,
                end_ns: end / 2,
            },
        });
    };

    match mix {
        Mix::Hot => {
            // 56 query jobs: both families alternating, P cycling through
            // 8/16/32/64, sizes on a log ladder; then 4 loop-free and 4
            // uniform-loop jobs that analyze requests target.
            let (lo, hi) = ctx.pick((1e3, 1e5), (1e2, 1e4));
            for (i, target) in log_ladder(lo, hi, 56).into_iter().enumerate() {
                let nprocs = [8, 16, 32, 64][(i / 2) % 4];
                let prog = if i % 2 == 0 {
                    gen::regular(&mut rng, nprocs, target)
                } else {
                    gen::irregular(&mut rng, nprocs, target)
                };
                let path = dir.join(format!("job-{i:03}.cytc"));
                let (events, end, _, _) = compress_to(ctx, &prog, None, &path);
                add(format!("job-{i:03}"), path, events, end);
            }
            for i in 0..8usize {
                let (prog, class) = if i < 4 {
                    (
                        gen::loop_free(&mut rng, 8, 40 + 30 * i as u32),
                        Class::LoopFree,
                    )
                } else {
                    let target = [1_000, 3_000, 10_000, 30_000][i - 4];
                    (gen::uniform_loop(&mut rng, 8, target), Class::UniformLoop)
                };
                let n = 56 + i;
                let path = dir.join(format!("job-{n:03}.cytc"));
                let (events, end, cst, ctts) = compress_to(ctx, &prog, None, &path);
                add(format!("job-{n:03}"), path, events, end);
                analyzable.push(Analyzable { class, cst, ctts });
            }
        }
        Mix::Churn => {
            // 16 distinct irregular jobs sized for 150–250 KB deflated
            // containers, each stored under 16 names. The store keys on the
            // name and never compares contents, so 256 names behave as 256
            // jobs while set-up compresses 16. The sizes are close together
            // on purpose: a miss costs in proportion to the image, and with
            // few, widely spaced sizes the median latency jumps from one
            // size to the next on a one-point change of the hit ratio.
            let (lo, hi) = ctx.pick((1.6e4, 2.6e4), (1.6e3, 2.6e3));
            let images: Vec<(u64, u64, Vec<u8>)> = log_ladder(lo, hi, 16)
                .into_iter()
                .enumerate()
                .map(|(i, target)| {
                    let prog = gen::irregular(&mut rng, [8, 16][i % 2], target);
                    let path = dir.join("image.tmp");
                    let (events, end, _, _) = compress_to(ctx, &prog, Some(Level::Default), &path);
                    (events, end, std::fs::read(&path).expect("image reads back"))
                })
                .collect();
            std::fs::remove_file(dir.join("image.tmp")).expect("temporary image removed");
            for n in 0..256usize {
                let (events, end, image) = &images[n % images.len()];
                let path = dir.join(format!("job-{n:03}.cytc"));
                std::fs::write(&path, image).expect("store container writes");
                add(format!("job-{n:03}"), path, *events, *end);
            }
        }
    }

    // The request stream, and the answers it must get.
    let n_requests = match mix {
        Mix::Hot => ctx.pick(12_000, 2_000),
        Mix::Churn => ctx.pick(750, 200),
    };
    let requests = match mix {
        Mix::Hot => {
            // Popularity ranks are drawn from a constant, not the seed, so
            // every seed pairs the same job sizes with the same popularity.
            let ranking = gen::permutation(&mut Rng::new(0x5EED), jobs.len());
            let targets: Vec<usize> = (56..64).collect();
            let small: Vec<bool> = jobs.iter().map(|j| j.events <= 10_000).collect();
            gen::hot_requests(&mut rng, n_requests, &ranking, &targets, &small)
        }
        Mix::Churn => gen::churn_requests(&mut rng, n_requests, jobs.len()),
    };
    let distinct = match mix {
        Mix::Hot => jobs.len(),
        Mix::Churn => 16,
    };
    let mut expected: Vec<Answers> = (0..distinct).map(|_| [None, None, None]).collect();
    for r in &requests {
        let job = &jobs[r.job % distinct];
        if expected[r.job % distinct][slot(r.kind)].is_some() {
            continue;
        }
        let opened = StoreJob::open(&job.path, &job.name).expect("stored job opens");
        let answer = match r.kind {
            ReqKind::Query => opened.query(&QueryOptions::default()).map(|a| a.to_bytes()),
            ReqKind::WindowedQuery => opened.query(&windowed(job.window)).map(|a| a.to_bytes()),
            ReqKind::Analyze => opened
                .analyze(&AnalyzeOptions::default())
                .map(|a| a.to_bytes()),
        };
        expected[r.job % distinct][slot(r.kind)] = Some(answer.expect("in-process answer"));
    }

    let store_bytes: u64 = jobs
        .iter()
        .map(|j| std::fs::metadata(&j.path).expect("stored job exists").len())
        .sum();
    let store_events: u64 = jobs.iter().map(|j| j.events).sum();
    let cfg = match mix {
        Mix::Hot => StoreConfig::default(),
        Mix::Churn => StoreConfig {
            max_jobs: 32,
            ..StoreConfig::default()
        },
    };
    let store = Arc::new(JobStore::new(&dir, cfg).expect("store opens"));
    let listen = Addr::parse("127.0.0.1:0").expect("loopback address parses");
    let server = cypress::store::spawn(store.clone(), &listen).expect("daemon starts");
    Input {
        request_events: requests.iter().map(|r| jobs[r.job].events).sum(),
        bytes_per_event: store_bytes as f64 / store_events as f64,
        jobs,
        distinct,
        expected,
        analyzable,
        requests,
        store,
        server,
    }
}

fn windowed(window: Window) -> QueryOptions {
    QueryOptions {
        window: Some(window),
        ..QueryOptions::default()
    }
}

/// What one driver thread brings back from a repetition.
#[derive(Default)]
struct Played {
    query_ns: Vec<u64>,
    analyze_ns: Vec<u64>,
    failures: Vec<String>,
}

/// Play the request stream once. Latency is taken around the client call
/// alone. Inside the loop an answer is only checked for its length; the
/// last answer of every (job, kind) is compared byte for byte after the
/// loop, and the warm-up repetition (`full`) compares every answer.
fn play(ctx: &Ctx, input: &Input, id: u64, full: bool) -> (f64, Vec<Played>) {
    let plain = QueryOptions::default();
    let analyze = AnalyzeOptions::default();
    let t = Instant::now();
    let played = harness::drive(ctx.nproc, input.requests.len(), |_, mine| {
        let mut out = Played::default();
        let mut client = QueryClient::connect(input.server.addr(), Duration::from_secs(30))
            .expect("daemon accepts");
        let mut last: Vec<Answers> = (0..input.jobs.len()).map(|_| [None, None, None]).collect();
        for i in mine {
            let Request { job: j, kind } = input.requests[i];
            let job = &input.jobs[j];
            let request_id = id << 32 | i as u64;
            let (answer, ns) = match kind {
                ReqKind::Query => timed("store", "query_raw", request_id, || {
                    client.query_raw(&job.name, &plain)
                }),
                ReqKind::WindowedQuery => timed("store", "query_raw(window)", request_id, || {
                    client.query_raw(&job.name, &windowed(job.window))
                }),
                ReqKind::Analyze => timed("store", "analyze_raw", request_id, || {
                    client.analyze_raw(&job.name, &analyze)
                }),
            };
            let want = input.expected[j % input.distinct][slot(kind)]
                .as_ref()
                .expect("answer computed in set-up");
            match answer {
                Ok(got) if got.len() == want.len() && (!full || got == *want) => {
                    match kind {
                        ReqKind::Analyze => out.analyze_ns.push(ns),
                        _ => out.query_ns.push(ns),
                    }
                    last[j][slot(kind)] = Some(got);
                }
                Ok(_) => out
                    .failures
                    .push(format!("request {i}: wrong answer for {}", job.name)),
                Err(e) => out.failures.push(format!("request {i}: {e}")),
            }
        }
        let wall_end = Instant::now();
        for (j, answers) in last.iter().enumerate() {
            for (got, want) in answers.iter().zip(&input.expected[j % input.distinct]) {
                if got.is_some() && got != want {
                    let name = &input.jobs[j].name;
                    out.failures
                        .push(format!("{name}: last answer differs from set-up"));
                }
            }
        }
        (out, wall_end)
    });
    let wall_s = played
        .iter()
        .map(|(_, end)| end.duration_since(t).as_secs_f64())
        .fold(0.0, f64::max);
    (wall_s, played.into_iter().map(|(p, _)| p).collect())
}

pub fn run(ctx: &Ctx, mix: Mix) -> Outcome {
    let (input, setup_s) = harness::setup(ctx, || build(ctx, mix));
    let mut checks = Checks::default();
    let mut analyze_ns: Vec<u64> = Vec::new();
    let mut last_stats = (StoreStats::default(), StoreStats::default());
    let reps = harness::repeat(ctx, |id| {
        let before = input.store.stats();
        let (wall_s, played) = play(ctx, &input, id, id == 0);
        last_stats = (before, input.store.stats());
        let mut rep = Rep {
            wall_s,
            events: input.request_events,
            ops: 0,
            bytes_per_event: input.bytes_per_event,
            latencies_ns: Vec::new(),
            peak_rss_mb: 0.0,
        };
        for p in played {
            rep.ops += (p.query_ns.len() + p.analyze_ns.len()) as u64;
            checks.passed((p.query_ns.len() + p.analyze_ns.len()) as u64);
            rep.latencies_ns.extend(p.query_ns);
            if id > 0 {
                analyze_ns.extend(p.analyze_ns);
            }
            for f in p.failures {
                checks.attempted += 1;
                checks.fail(f);
            }
        }
        rep
    });
    let mut metrics = harness::end_to_end(setup_s, &reps);
    if ctx.trace {
        metrics = staged(ctx, &input, &reps, analyze_ns, last_stats, &mut checks);
    }
    Outcome::new(checks, metrics, &reps)
}

fn mean_us(total_ns: u64, n: usize) -> f64 {
    total_ns as f64 / 1e3 / n.max(1) as f64
}

/// The daemon's waterfall: the store's miss and hit paths, in-process
/// evaluation against the remote latency, the answer codec, and — where
/// analyze requests run — the analysis engine against its oracle.
fn staged(
    ctx: &Ctx,
    input: &Input,
    reps: &harness::Reps,
    analyze_ns: Vec<u64>,
    (before, after): (StoreStats, StoreStats),
    checks: &mut Checks,
) -> Metrics {
    let mut m = Metrics::new();
    let remote = reps.latency();
    m.insert("store.query_p50_us", remote.p50_ns as f64 / 1e3);
    m.insert("store.query_p90_us", remote.p90_ns as f64 / 1e3);
    m.insert("store.remote_p99_us", remote.p99_ns as f64 / 1e3);
    if let Some(l) = Latency::of(analyze_ns) {
        m.insert("store.analyze_p50_us", l.p50_ns as f64 / 1e3);
        m.insert("store.analyze_p90_us", l.p90_ns as f64 / 1e3);
    }
    let traced = reps.traced.as_ref().expect("traced run");
    m.insert("store.requests_per_s", traced.ops as f64 / traced.wall_s);
    m.insert("bench.trace_overhead_pct", reps.trace_overhead_pct());

    // Cache behaviour over the last repetition.
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    m.insert(
        "store.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    m.insert(
        "store.evictions",
        (after.evictions - before.evictions) as f64,
    );
    m.insert("store.loads", (after.loads - before.loads) as f64);
    m.insert(
        "store.resident_mb",
        after.resident_bytes as f64 / (1 << 20) as f64,
    );

    miss_path(&mut m, input);
    let local_p50_ns = hit_path(&mut m, ctx, input);
    m.insert(
        "store.remote_overhead_us",
        (remote.p50_ns as f64 - local_p50_ns as f64) / 1e3,
    );
    answer_codec(&mut m, input, checks);
    if !input.analyzable.is_empty() {
        analysis(&mut m, input, checks);
    }
    m
}

/// What a miss pays, step by step, on every distinct image: the whole open,
/// then table parse (CRCs), inflate and slab decode on their own.
fn miss_path(m: &mut Metrics, input: &Input) {
    let (mut open_ns, mut parse_ns, mut inflate_ns, mut slab_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut inflated, mut stored, mut decoded) = (0usize, 0usize, 0usize);
    for job in &input.jobs[..input.distinct] {
        let (opened, ns) = timed("store", "StoreJob::open", 0, || {
            StoreJob::open(&job.path, &job.name)
        });
        opened.expect("stored job opens");
        open_ns += ns;
        let image = std::fs::read(&job.path).expect("stored job reads");
        let (table, ns) = timed("trace", "SectionTable::parse", 0, || {
            SectionTable::parse(&image)
        });
        let table = table.expect("stored image parses");
        parse_ns += ns;
        let arena = PayloadArena::new(table.len());
        for idx in table.rank_indices() {
            let info = &table.sections()[idx];
            let (payload, ns) = timed("deflate", "PayloadArena::payload", idx as u64, || {
                arena.payload(&image, info, idx)
            });
            let payload = payload.expect("section payload");
            if info.is_deflated() {
                inflate_ns += ns;
                inflated += payload.len();
                stored += info.stored_len();
            }
            let (slab, ns) = timed("core", "CttSlab::from_bytes", idx as u64, || {
                CttSlab::from_bytes(payload)
            });
            slab.expect("rank section decodes");
            slab_ns += ns;
            decoded += payload.len();
        }
    }
    m.insert("store.open_miss_us", mean_us(open_ns, input.distinct));
    m.insert("trace.table_parse_us", mean_us(parse_ns, input.distinct));
    m.insert("core.slab_decode_mb_s", mb_per_s(decoded, slab_ns));
    if inflated > 0 {
        m.insert("deflate.inflate_mb_s", mb_per_s(inflated, inflate_ns));
        m.insert("deflate.ratio", inflated as f64 / stored.max(1) as f64);
    }
}

/// The hit path and in-process evaluation on the head of the request
/// stream. The first open makes the job resident whatever the budget; the
/// second is the hit that is timed. Returns the in-process query p50.
fn hit_path(m: &mut Metrics, ctx: &Ctx, input: &Input) -> u64 {
    let head: Vec<&Request> = input
        .requests
        .iter()
        .filter(|r| r.kind != ReqKind::Analyze)
        .take(ctx.pick(2_000, 200))
        .collect();
    let (mut hit_ns, mut local) = (0u64, Vec::with_capacity(head.len()));
    for r in &head {
        let job = &input.jobs[r.job];
        drop(input.store.open(&job.name).expect("stored job opens"));
        let (opened, ns) = timed("store", "JobStore::open", 0, || input.store.open(&job.name));
        let opened = opened.expect("stored job opens");
        hit_ns += ns;
        let opts = match r.kind {
            ReqKind::WindowedQuery => windowed(job.window),
            _ => QueryOptions::default(),
        };
        let (answer, ns) = timed("query", "StoreJob::query", 0, || opened.query(&opts));
        answer.expect("in-process answer");
        local.push(ns);
    }
    m.insert("store.open_hit_us", mean_us(hit_ns, head.len()));
    let local = Latency::of(local).expect("request stream has queries");
    m.insert("store.local_query_us", local.p50_ns as f64 / 1e3);
    local.p50_ns
}

/// Symbolic evaluation and the answer codec, once per distinct job.
fn answer_codec(m: &mut Metrics, input: &Input, checks: &mut Checks) {
    let (mut eval_ns, mut enc_ns, mut dec_ns, mut bytes) = (0u64, 0u64, 0u64, 0usize);
    for job in &input.jobs[..input.distinct] {
        let opened = input.store.open(&job.name).expect("stored job opens");
        let (answer, ns) = timed("query", "StoreJob::query", 1, || {
            opened.query(&QueryOptions::default())
        });
        let answer = answer.expect("in-process answer");
        eval_ns += ns;
        let (blob, ns) = timed("query", "QueryResult::to_bytes", 1, || answer.to_bytes());
        enc_ns += ns;
        bytes += blob.len();
        let (back, ns) = timed("query", "QueryResult::from_bytes", 1, || {
            QueryResult::from_bytes(&blob)
        });
        dec_ns += ns;
        checks.check(back.as_ref().ok() == Some(&answer), || {
            format!("{}: answer does not survive its own codec", job.name)
        });
    }
    m.insert("query.symbolic_us", mean_us(eval_ns, input.distinct));
    m.insert("query.wire_encode_us", mean_us(enc_ns, input.distinct));
    m.insert("query.wire_decode_us", mean_us(dec_ns, input.distinct));
    m.insert("query.result_bytes", bytes as f64 / input.distinct as f64);
}

/// Totals of running the analysis engine and its oracle over one job class.
#[derive(Default)]
struct ClassCost {
    jobs: usize,
    lower_ns: u64,
    native_ns: u64,
    oracle_ns: u64,
    fed_ops: u64,
    extrapolated_trips: u64,
}

fn analysis_class(input: &Input, class: Class, checks: &mut Checks) -> ClassCost {
    let model = LogGp::default();
    let opts = AnalyzeOptions::default();
    let mut cost = ClassCost::default();
    for a in input.analyzable.iter().filter(|a| a.class == class) {
        cost.jobs += 1;
        cost.lower_ns += timed("analysis", "lower_schedule", 0, || {
            lower_schedule(&a.cst, &a.ctts)
        })
        .1;
        let (native, ns) = timed("analysis", "analyze_ctts", 0, || {
            analyze_ctts(&a.cst, &a.ctts, &model, &opts)
        });
        cost.native_ns += ns;
        let (oracle, ns) = timed("analysis", "analyze_by_decompression", 0, || {
            analyze_by_decompression(&a.cst, &a.ctts, &model, &opts)
        });
        cost.oracle_ns += ns;
        let (native, oracle) = (
            native.expect("native analysis"),
            oracle.expect("oracle analysis"),
        );
        checks.check(
            native.predicted == oracle.predicted && native.waits == oracle.waits,
            || "native analysis differs from its oracle".into(),
        );
        cost.fed_ops += native.stats.fed_ops;
        cost.extrapolated_trips += native.stats.extrapolated_trips;
    }
    cost
}

/// The analysis engine against its oracle, per job class.
fn analysis(m: &mut Metrics, input: &Input, checks: &mut Checks) {
    let free = analysis_class(input, Class::LoopFree, checks);
    let uniform = analysis_class(input, Class::UniformLoop, checks);
    m.insert(
        "analysis.native_loopfree_us",
        mean_us(free.native_ns, free.jobs),
    );
    m.insert(
        "analysis.oracle_loopfree_us",
        mean_us(free.oracle_ns, free.jobs),
    );
    m.insert(
        "analysis.native_uniform_us",
        mean_us(uniform.native_ns, uniform.jobs),
    );
    m.insert(
        "analysis.oracle_uniform_us",
        mean_us(uniform.oracle_ns, uniform.jobs),
    );
    m.insert(
        "analysis.native_vs_oracle_loopfree",
        free.oracle_ns as f64 / free.native_ns.max(1) as f64,
    );
    m.insert(
        "analysis.lower_us",
        mean_us(free.lower_ns + uniform.lower_ns, free.jobs + uniform.jobs),
    );
    m.insert("analysis.fed_ops", (free.fed_ops + uniform.fed_ops) as f64);
    m.insert(
        "analysis.extrapolated_trips",
        (free.extrapolated_trips + uniform.extrapolated_trips) as f64,
    );
}
