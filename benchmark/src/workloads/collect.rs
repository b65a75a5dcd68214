//! `collect-stream` and `collect-ctt-tree`: the `net` layer over loopback
//! TCP, used two ways.
//!
//! Both submit from at most `nproc` driver threads, each walking its ranks
//! one connection at a time (a closed loop: a rank is sent when the previous
//! one is acknowledged, as ranks leaving `MPI_Finalize` behave). The timed
//! region runs from the first connect to `write_collected_container`
//! returning. The merged bytes must equal the local merge of the same ranks.

use crate::gen;
use crate::harness::{self, Checks, Ctx, Outcome, Rep};
use crate::layers::{self, Metrics, Recorded};
use crate::span::{self, timed};
use cypress::core::{merge_all_parallel, CompressConfig, CompressSession, Ctt, SessionConfig};
use cypress::cst::StaticInfo;
use cypress::net::proto::{encode_frame_into, FrameBuf};
use cypress::net::{
    spawn_tree, submit_ctt, submit_stream, Addr, ClientConfig, CollectedJob, Collector,
    CollectorConfig, Frame, TreeConfig,
};
use cypress::runtime::{run_ranks, trace_program_parallel, InterpConfig};
use cypress::trace::{Codec, Event, RawTrace};
use cypress::{write_collected_container, Ingest, Pipeline, PipelineConfig};
use std::path::Path;
use std::time::{Duration, Instant};

const RELAYS: u32 = 4;

fn loopback() -> Addr {
    Addr::parse("127.0.0.1:0").expect("loopback address parses")
}

/// Default collector knobs, plus a deadline so a bug fails the run instead
/// of hanging it.
fn collector_config() -> CollectorConfig {
    CollectorConfig {
        deadline: Some(Duration::from_secs(120)),
        ..CollectorConfig::default()
    }
}

/// What both workloads keep from set-up.
struct Common {
    source: String,
    nprocs: u32,
    cst_text: String,
    /// `merge_all` of the same ranks, encoded: what the collector must return.
    reference: Vec<u8>,
    mpi_events: u64,
    /// Wall time of doing the collector's work in-process.
    local_s: f64,
}

/// Server-side numbers of one repetition that are not in [`Rep`].
#[derive(Default, Clone, Copy)]
struct ServerSide {
    collector_ms: f64,
    finalize_ms: f64,
}

/// After the clients are done: take the job from the server, write the
/// container, and check the result against the local merge.
fn finish(
    common: &Common,
    started: Instant,
    last_ack: Instant,
    joined: (CollectedJob, Instant, Instant),
    latencies_ns: Vec<u64>,
    path: &Path,
    checks: &mut Checks,
) -> (Rep, ServerSide) {
    let (job, server_start, server_end) = joined;
    write_collected_container(&job, path, true).expect("collected container writes");
    let wall_s = started.elapsed().as_secs_f64();

    checks.check(job.merged.to_bytes() == common.reference, || {
        "collected merged bytes differ from local merge_all".into()
    });
    checks.check(job.total_events == common.mpi_events, || {
        format!(
            "collected {} events, set-up saw {}",
            job.total_events, common.mpi_events
        )
    });
    let bytes = std::fs::metadata(path).expect("container exists").len();
    let rep = Rep {
        wall_s,
        events: job.total_events,
        ops: common.nprocs as u64,
        bytes_per_event: bytes as f64 / job.total_events as f64,
        latencies_ns,
        peak_rss_mb: 0.0,
    };
    let side = ServerSide {
        collector_ms: (server_end - server_start).as_secs_f64() * 1e3,
        finalize_ms: server_end.saturating_duration_since(last_ack).as_secs_f64() * 1e3,
    };
    (rep, side)
}

/// One latency per rank, in rank-walk order of each driver thread; a failed
/// submission is counted and contributes no sample.
fn submit_all(
    ctx: &Ctx,
    nprocs: u32,
    checks: &mut Checks,
    submit: impl Fn(u32) -> Result<cypress::net::SubmitOutcome, cypress::net::NetError> + Sync,
) -> Vec<u64> {
    let per_thread = harness::drive(ctx.nproc, nprocs as usize, |_, ranks| {
        ranks
            .into_iter()
            .map(|rank| {
                let (res, ns) = timed("net", "submit", rank as u64, || submit(rank as u32));
                res.map(|_| ns).map_err(|e| format!("rank {rank}: {e}"))
            })
            .collect::<Vec<_>>()
    });
    let mut latencies = Vec::with_capacity(nprocs as usize);
    for res in per_thread.into_iter().flatten() {
        match res {
            Ok(ns) => {
                checks.passed(1);
                latencies.push(ns);
            }
            Err(e) => {
                checks.attempted += 1;
                checks.fail(e);
            }
        }
    }
    latencies
}

/// What the two workloads share: set up, repeat, and — in a traced run —
/// stage the layers with the server-side numbers of the last repetition.
fn run<I>(
    ctx: &Ctx,
    build: impl FnMut() -> I,
    rep: impl Fn(&I, u64, &Path, &mut Checks) -> (Rep, ServerSide),
    layers: impl FnOnce(&I, &harness::Reps, ServerSide, &Path, &mut Checks) -> Metrics,
) -> Outcome {
    let (input, setup_s) = harness::setup(ctx, build);
    let path = ctx.path("collected.cytc");
    let mut checks = Checks::default();
    let mut side = ServerSide::default();
    let reps = harness::repeat(ctx, |id| {
        let (r, s) = rep(&input, id, &path, &mut checks);
        side = s;
        r
    });
    let mut metrics = harness::end_to_end(setup_s, &reps);
    if ctx.trace {
        metrics = layers(&input, &reps, side, &path, &mut checks);
    }
    Outcome::new(checks, metrics, &reps)
}

fn common_layers(
    m: &mut Metrics,
    common: &Common,
    reps: &harness::Reps,
    side: ServerSide,
    path: &Path,
) {
    let lat = reps.latency();
    m.insert("net.submit_p50_ms", lat.p50_ns as f64 / 1e6);
    m.insert("net.submit_p90_ms", lat.p90_ns as f64 / 1e6);
    m.insert("net.submit_p99_ms", lat.p99_ns as f64 / 1e6);
    m.insert("net.collector_wall_ms", side.collector_ms);
    m.insert("net.finalize_ms", side.finalize_ms);
    let traced = reps.traced.as_ref().expect("traced run");
    m.insert("net.vs_local", traced.wall_s / common.local_s);
    m.insert("runtime.events_total", common.mpi_events as f64);
    m.insert("bench.trace_overhead_pct", reps.trace_overhead_pct());
    let image = std::fs::read(path).expect("container reads back");
    m.insert("trace.container_bytes", image.len() as f64);
    layers::table_parse(m, &image);
}

// ---------------------------------------------------------------------------
// collect-stream
// ---------------------------------------------------------------------------

struct StreamInput {
    common: Common,
    info: StaticInfo,
    traces: Vec<RawTrace>,
    ctts: Vec<Ctt>,
}

fn mpi_count(events: &[Event]) -> u64 {
    events.iter().filter(|e| e.as_mpi().is_some()).count() as u64
}

fn build_stream(ctx: &Ctx) -> StreamInput {
    let prog = gen::regular(&mut ctx.rng(2), 64, ctx.pick(2_000_000, 10_000));
    let (ast, info) = layers::compile(&prog.source);
    let traces = trace_program_parallel(
        &ast,
        &info,
        prog.nprocs,
        &InterpConfig::default(),
        ctx.nproc,
    )
    .expect("generated program runs");
    let mpi_events: u64 = traces.iter().map(|t| mpi_count(&t.events)).sum();
    prog.check_yield(ctx.seed, mpi_events);
    // The collector's own work, in-process: one session per rank fed the
    // same chunks, then the merge.
    let chunk = ClientConfig::default().chunk_events;
    let t = Instant::now();
    let ctts = run_ranks(prog.nprocs, ctx.nproc, |rank| {
        let trace = &traces[rank as usize];
        let mut s = CompressSession::new(
            &info.cst,
            rank,
            prog.nprocs,
            CompressConfig::default(),
            SessionConfig::default(),
        );
        for evs in trace.events.chunks(chunk) {
            s.push_batch(evs);
        }
        s.finish(trace.app_time).0
    });
    let reference = merge_all_parallel(&ctts, ctx.nproc).to_bytes();
    let local_s = t.elapsed().as_secs_f64();
    StreamInput {
        common: Common {
            cst_text: info.cst.to_text(),
            source: prog.source,
            nprocs: prog.nprocs,
            reference,
            mpi_events,
            local_s,
        },
        info,
        traces,
        ctts,
    }
}

fn stream_rep(
    ctx: &Ctx,
    input: &StreamInput,
    id: u64,
    path: &Path,
    checks: &mut Checks,
) -> (Rep, ServerSide) {
    let common = &input.common;
    let collector = Collector::bind(&loopback()).expect("collector binds");
    let addr = collector.local_addr().expect("collector address");
    let server = std::thread::spawn(move || {
        let start = Instant::now();
        let (job, _) = timed("net", "Collector::run", id, || {
            collector.run(&collector_config())
        });
        let end = Instant::now();
        span::flush();
        (job.expect("collection completes"), start, end)
    });
    let client = ClientConfig::default();
    let started = Instant::now();
    let latencies = submit_all(ctx, common.nprocs, checks, |rank| {
        let trace = &input.traces[rank as usize];
        submit_stream(
            &addr,
            &client,
            rank,
            common.nprocs,
            &common.cst_text,
            |sink| {
                sink.events(&trace.events);
                Ok(trace.app_time)
            },
        )
    });
    let last_ack = Instant::now();
    let joined = server.join().expect("collector thread panicked");
    finish(common, started, last_ack, joined, latencies, path, checks)
}

pub fn run_stream(ctx: &Ctx) -> Outcome {
    run(
        ctx,
        || build_stream(ctx),
        |input, id, path, checks| stream_rep(ctx, input, id, path, checks),
        |input, reps, side, path, checks| stream_layers(ctx, input, reps, side, path, checks),
    )
}

/// The network waterfall: frame encode and decode on the recorded chunks,
/// the server's session and merge work on the same events, and what is left
/// of the wall time once those are taken out.
fn stream_layers(
    ctx: &Ctx,
    input: &StreamInput,
    reps: &harness::Reps,
    side: ServerSide,
    path: &Path,
    checks: &mut Checks,
) -> Metrics {
    let mut m = Metrics::new();
    let common = &input.common;
    common_layers(&mut m, common, reps, side, path);
    layers::static_layer(&mut m, &common.source);
    let chunk = ClientConfig::default().chunk_events;

    let sample: Vec<Recorded> = layers::sample_ranks(common.nprocs)
        .into_iter()
        .map(|rank| {
            let t = &input.traces[rank as usize];
            Recorded {
                rank,
                events: t.events.clone(),
                mpi_events: mpi_count(&t.events),
                app_time: t.app_time,
            }
        })
        .collect();
    let sample_events: u64 = sample.iter().map(|r| r.mpi_events).sum();

    // Frame codec on the sampled ranks' chunks, from and to memory.
    let (mut encode_ns, mut decode_ns, mut wire_bytes) = (0u64, 0u64, 0usize);
    for r in &sample {
        let frames: Vec<Frame> = r
            .events
            .chunks(chunk)
            .map(|evs| Frame::Events {
                events: evs.to_vec(),
            })
            .collect();
        let mut wire = Vec::new();
        encode_ns += timed("net", "encode_frame_into", r.rank as u64, || {
            for f in &frames {
                encode_frame_into(f, &mut wire);
            }
        })
        .1;
        wire_bytes += wire.len();
        let (decoded, ns) = timed("net", "FrameBuf::fill+try_frame", r.rank as u64, || {
            let (mut buf, mut src, mut n) = (FrameBuf::new(), wire.as_slice(), 0usize);
            loop {
                while let Some(f) = buf.try_frame().expect("own frames decode") {
                    std::hint::black_box(&f);
                    n += 1;
                }
                if buf.fill(&mut src).expect("reading from memory") == 0 {
                    return n;
                }
            }
        });
        decode_ns += ns;
        checks.check(decoded == frames.len(), || {
            format!(
                "rank {}: decoded {decoded} of {} frames",
                r.rank,
                frames.len()
            )
        });
    }
    let per_event = |ns: u64| ns as f64 / sample_events.max(1) as f64;
    m.insert("net.frame_encode_ns_per_event", per_event(encode_ns));
    m.insert("net.frame_decode_ns_per_event", per_event(decode_ns));
    m.insert(
        "net.wire_bytes_per_event",
        wire_bytes as f64 / sample_events.max(1) as f64,
    );
    // Per rank: Hello, the Events chunks, Finish; and two acks back.
    let frames_total: usize = input
        .traces
        .iter()
        .map(|t| t.events.len().div_ceil(chunk) + 4)
        .sum();
    m.insert("net.frames_total", frames_total as f64);
    m.insert(
        "runtime.structure_events_total",
        input
            .traces
            .iter()
            .map(|t| t.events.len() as u64)
            .sum::<u64>() as f64
            - common.mpi_events as f64,
    );

    layers::session_layer(&mut m, checks, &input.info, common.nprocs, chunk, &sample);
    let (_, merge_ns) = layers::merge_layer(&mut m, &input.ctts, ctx.nproc);
    layers::relay_layer(&mut m, checks, &input.ctts, 1);

    // Core-nanoseconds per event the staged layers do not account for: the
    // wall time on `nproc` busy cores, minus each layer's single-thread cost.
    let traced = reps.traced.as_ref().expect("traced run");
    let events = common.mpi_events as f64;
    m.insert(
        "net.residual_ns_per_event",
        traced.wall_s * 1e9 * ctx.nproc as f64 / events
            - m["net.frame_encode_ns_per_event"]
            - m["net.frame_decode_ns_per_event"]
            - m["core.session_ns_per_event"]
            - merge_ns as f64 / events,
    );
    m
}

// ---------------------------------------------------------------------------
// collect-ctt-tree
// ---------------------------------------------------------------------------

struct TreeInput {
    common: Common,
    info: StaticInfo,
    ctts: Vec<Ctt>,
}

fn build_tree(ctx: &Ctx) -> TreeInput {
    // The same generator stream as `local-irregular`, so the two workloads
    // handle the same job.
    let prog = gen::irregular(&mut ctx.rng(1), 64, ctx.pick(1_000_000, 10_000));
    let job = Pipeline::new(prog.source.clone())
        .ranks(prog.nprocs)
        .configure(PipelineConfig {
            threads: ctx.nproc,
            mode: Ingest::Sequential,
            ..PipelineConfig::default()
        })
        .run()
        .expect("generated program runs");
    let mpi_events = job.total_events();
    prog.check_yield(ctx.seed, mpi_events);
    let t = Instant::now();
    let reference = merge_all_parallel(&job.ctts, ctx.nproc).to_bytes();
    let local_s = t.elapsed().as_secs_f64();
    TreeInput {
        common: Common {
            cst_text: job.info.cst.to_text(),
            source: prog.source,
            nprocs: prog.nprocs,
            reference,
            mpi_events,
            local_s,
        },
        info: job.info,
        ctts: job.ctts,
    }
}

fn tree_rep(
    ctx: &Ctx,
    input: &TreeInput,
    id: u64,
    path: &Path,
    checks: &mut Checks,
) -> (Rep, ServerSide) {
    let common = &input.common;
    let server_start = Instant::now();
    let tree = spawn_tree(
        &loopback(),
        &TreeConfig {
            relays: RELAYS,
            nprocs: common.nprocs,
            collector: collector_config(),
            client: ClientConfig::default(),
        },
    )
    .expect("tree spawns");
    let client = ClientConfig::default();
    let started = Instant::now();
    let latencies = submit_all(ctx, common.nprocs, checks, |rank| {
        submit_ctt(
            tree.leaf_for_rank(rank),
            &client,
            &input.ctts[rank as usize],
            &common.cst_text,
        )
    });
    let last_ack = Instant::now();
    let (job, _) = timed("net", "Tree::join", id, || tree.join());
    let joined = (
        job.expect("tree collection completes"),
        server_start,
        Instant::now(),
    );
    finish(common, started, last_ack, joined, latencies, path, checks)
}

pub fn run_tree(ctx: &Ctx) -> Outcome {
    run(
        ctx,
        || build_tree(ctx),
        |input, id, path, checks| tree_rep(ctx, input, id, path, checks),
        |input, reps, side, path, checks| tree_layers(ctx, input, reps, side, path, checks),
    )
}

/// The tree's waterfall: client-side encode and deflate, server-side
/// inflate, the relays' and the root's incremental merges.
fn tree_layers(
    ctx: &Ctx,
    input: &TreeInput,
    reps: &harness::Reps,
    side: ServerSide,
    path: &Path,
    checks: &mut Checks,
) -> Metrics {
    let mut m = Metrics::new();
    let common = &input.common;
    common_layers(&mut m, common, reps, side, path);
    layers::static_layer(&mut m, &common.source);
    let (merged, merge_ns) = layers::merge_layer(&mut m, &input.ctts, ctx.nproc);
    let blocks = layers::relay_layer(&mut m, checks, &input.ctts, RELAYS as usize);
    m.insert("net.relay_blocks_forwarded", blocks as f64);
    let (sections, encode_ns) = layers::read_side_layer(&mut m, &input.info, &input.ctts, &merged);
    let (deflate_ns, inflate_ns, stored) = layers::deflate_layer(&mut m, checks, &sections);

    let events = common.mpi_events as f64;
    m.insert("net.wire_bytes_per_event", stored as f64 / events);
    // Per rank: Hello and one RankCttZ up, two acks back.
    m.insert("net.frames_total", (4 * common.nprocs) as f64);
    let traced = reps.traced.as_ref().expect("traced run");
    m.insert(
        "net.residual_ns_per_event",
        (traced.wall_s * 1e9 * ctx.nproc as f64
            - (encode_ns + deflate_ns + inflate_ns + merge_ns) as f64)
            / events,
    );
    m
}
