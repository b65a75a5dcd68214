//! `local-regular` and `local-irregular`: `Pipeline::run` → `merge` →
//! `write_container(per_rank = true)` in one process.
//!
//! Set-up generates the program and interprets every rank once into a
//! hashing sink; that per-rank sequence hash is what the repetitions' output
//! must decompress back to.

use crate::gen;
use crate::harness::{self, Checks, Ctx, Outcome, Rep};
use crate::layers::{self, Metrics};
use crate::span::timed;
use cypress::runtime::{run_rank_with_sink, run_ranks, InterpConfig};
use cypress::trace::{Codec, Event, EventSink};
use cypress::{Ingest, Level, Pipeline, PipelineConfig};
use std::hash::{Hash, Hasher};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Regular,
    Irregular,
}

struct Input {
    prog: gen::Program,
    /// Per rank: hash of the `(gid, op, params)` sequence the interpreter
    /// emitted, and its length.
    reference: Vec<(u64, u64)>,
    mpi_events: u64,
    structure_events: u64,
}

/// Deterministic hasher for sequence hashes (`DefaultHasher::new` uses fixed
/// keys, unlike `RandomState`).
fn hasher() -> std::collections::hash_map::DefaultHasher {
    std::collections::hash_map::DefaultHasher::new()
}

/// Hashes the MPI records as they are emitted and keeps nothing else.
struct HashSink {
    hash: std::collections::hash_map::DefaultHasher,
    mpi: u64,
    structure: u64,
}

impl EventSink for HashSink {
    fn event(&mut self, ev: Event) {
        match ev {
            Event::Mpi(r) => {
                (r.gid, r.op, &r.params).hash(&mut self.hash);
                self.mpi += 1;
            }
            _ => self.structure += 1,
        }
    }
}

fn build(ctx: &Ctx, family: Family) -> Input {
    let mut rng = ctx.rng(1);
    let prog = match family {
        Family::Regular => gen::regular(&mut rng, 16, ctx.pick(4_000_000, 10_000)),
        Family::Irregular => gen::irregular(&mut rng, 64, ctx.pick(1_000_000, 10_000)),
    };
    let (ast, info) = layers::compile(&prog.source);
    let per_rank = run_ranks(prog.nprocs, ctx.nproc, |rank| {
        let mut sink = HashSink {
            hash: hasher(),
            mpi: 0,
            structure: 0,
        };
        run_rank_with_sink(
            &ast,
            &info,
            rank,
            prog.nprocs,
            &InterpConfig::default(),
            &mut sink,
        )
        .expect("generated program runs");
        (sink.hash.finish(), sink.mpi, sink.structure)
    });
    let mpi_events: u64 = per_rank.iter().map(|r| r.1).sum();
    prog.check_yield(ctx.seed, mpi_events);
    Input {
        reference: per_rank.iter().map(|r| (r.0, r.1)).collect(),
        mpi_events,
        structure_events: per_rank.iter().map(|r| r.2).sum(),
        prog,
    }
}

fn config(ctx: &Ctx, family: Family) -> PipelineConfig {
    PipelineConfig {
        threads: ctx.nproc,
        mode: Ingest::Sequential,
        level: match family {
            Family::Regular => None,
            Family::Irregular => Some(Level::Default),
        },
        ..PipelineConfig::default()
    }
}

/// Wall time of the three public calls of one repetition.
#[derive(Default, Clone, Copy)]
struct Calls {
    run_ns: u64,
    merge_ns: u64,
    write_ns: u64,
}

/// The timed region: the three public calls, black-box.
fn compress(
    input: &Input,
    cfg: &PipelineConfig,
    path: &std::path::Path,
    id: u64,
) -> (Rep, Calls, cypress::CompressedJob) {
    let pipeline = Pipeline::new(input.prog.source.clone())
        .ranks(input.prog.nprocs)
        .configure(cfg.clone());
    let t = Instant::now();
    let (job, run_ns) = timed("pipeline", "Pipeline::run", id, || pipeline.run());
    let mut job = job.expect("pipeline runs");
    let ((), merge_ns) = timed("pipeline", "CompressedJob::merge", id, || {
        job.merge();
    });
    let (res, write_ns) = timed("pipeline", "CompressedJob::write_container", id, || {
        job.write_container(path, true)
    });
    let wall_s = t.elapsed().as_secs_f64();
    res.expect("container writes");
    let bytes = std::fs::metadata(path).expect("container exists").len();
    let rep = Rep {
        wall_s,
        events: job.total_events(),
        ops: input.prog.nprocs as u64,
        bytes_per_event: bytes as f64 / job.total_events() as f64,
        latencies_ns: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let calls = Calls {
        run_ns,
        merge_ns,
        write_ns,
    };
    (rep, calls, job)
}

/// Read the container back from disk and replay every rank: each sequence
/// must hash to what the interpreter emitted in set-up.
fn verify(ctx: &Ctx, input: &Input, path: &std::path::Path, checks: &mut Checks) {
    let loaded = cypress::read_container(path).expect("written container loads");
    let got = run_ranks(input.prog.nprocs, ctx.nproc, |rank| {
        let mut h = hasher();
        let ops = loaded.decompress(rank).expect("rank replays");
        for op in &ops {
            (op.gid, op.op, &op.params).hash(&mut h);
        }
        (h.finish(), ops.len() as u64)
    });
    for (rank, (got, want)) in got.iter().zip(&input.reference).enumerate() {
        checks.check(got == want, || {
            format!("rank {rank}: replayed sequence {got:?} != interpreted {want:?}")
        });
    }
}

pub fn run(ctx: &Ctx, family: Family) -> Outcome {
    let (input, setup_s) = harness::setup(ctx, || build(ctx, family));
    let cfg = config(ctx, family);
    let path = ctx.path("job.cytc");
    let mut checks = Checks::default();
    let mut first_image: Option<Vec<u8>> = None;
    let mut last_calls = Calls::default();

    let reps = harness::repeat(ctx, |id| {
        let (rep, calls, _job) = compress(&input, &cfg, &path, id);
        // Outside the timed region: every repetition must write the same
        // bytes and count the events the interpreter emitted in set-up.
        let image = std::fs::read(&path).expect("container reads back");
        checks.check(rep.events == input.mpi_events, || {
            format!(
                "repetition {id}: {} events, set-up saw {}",
                rep.events, input.mpi_events
            )
        });
        match &first_image {
            None => first_image = Some(image),
            Some(first) => checks.check(*first == image, || {
                format!("repetition {id} wrote different container bytes")
            }),
        }
        last_calls = calls;
        rep
    });
    let mut metrics = harness::end_to_end(setup_s, &reps);
    verify(ctx, &input, &path, &mut checks);

    if ctx.trace {
        metrics = staged(ctx, family, &input, &cfg, &reps, last_calls, &mut checks);
    }
    Outcome::new(checks, metrics, &reps)
}

/// The per-layer waterfall of the local path: a black-box run at one thread,
/// then every layer on its own, then the alternative ingest modes and the
/// program's own instrumentation against the default.
fn staged(
    ctx: &Ctx,
    family: Family,
    input: &Input,
    cfg: &PipelineConfig,
    reps: &harness::Reps,
    calls: Calls,
    checks: &mut Checks,
) -> Metrics {
    let mut m = Metrics::new();
    let events = input.mpi_events as f64;
    m.insert("pipeline.run_ms", calls.run_ns as f64 / 1e6);
    m.insert("pipeline.merge_ms", calls.merge_ns as f64 / 1e6);
    m.insert("pipeline.write_ms", calls.write_ns as f64 / 1e6);
    m.insert("runtime.events_total", events);
    m.insert(
        "runtime.structure_events_total",
        input.structure_events as f64,
    );

    // Black box at one thread: what the staged layers below must add up to.
    let one = PipelineConfig {
        threads: 1,
        ..cfg.clone()
    };
    let (black_box, _, job) = compress(input, &one, &ctx.path("t1.cytc"), 100);

    let (prog, info) = layers::static_layer(&mut m, &input.prog.source);
    let recorded = layers::interp_layer(&mut m, &prog, &info, input.prog.nprocs);
    layers::session_layer(
        &mut m,
        checks,
        &info,
        input.prog.nprocs,
        cypress::runtime::DEFAULT_BATCH_EVENTS,
        &recorded,
    );
    drop(recorded);
    let (merged, merge_ns) = layers::merge_layer(&mut m, &job.ctts, ctx.nproc);
    layers::relay_layer(&mut m, checks, &job.ctts, 4);
    let (sections, encode_ns) = layers::read_side_layer(&mut m, &info, &job.ctts, &merged);
    if cfg.level.is_some() {
        layers::deflate_layer(&mut m, checks, &sections);
    }
    let trace_ns = layers::trace_layer(
        &mut m,
        input.prog.nprocs,
        &sections,
        cfg.level,
        &ctx.path("staged.cytc"),
    );
    let staged_s = (m["static.parse_us"] + m["static.analyze_us"]) / 1e6
        + (m["runtime.interp_ns_per_event"] + m["core.session_ns_per_event"]) * events / 1e9
        + (merge_ns + encode_ns + trace_ns) as f64 / 1e9;
    m.insert("pipeline.coverage", staged_s / black_box.wall_s);
    m.insert(
        "pipeline.unattributed_ns_per_event",
        (black_box.wall_s - staged_s) * 1e9 / events,
    );
    drop((sections, merged));

    // The other ingest modes against the default, same bytes required.
    let sequential_ns = calls.run_ns as f64;
    let bytes_of = |job: &cypress::CompressedJob| -> Vec<Vec<u8>> {
        job.ctts.iter().map(|c| c.to_bytes()).collect()
    };
    let want = bytes_of(&job);
    drop(job);
    for (name, metric, mode) in [
        (
            "pipelined",
            "runtime.pipelined_speedup",
            Ingest::pipelined(),
        ),
        ("batch", "runtime.batch_mode_speedup", Ingest::Batch),
    ] {
        let alt = PipelineConfig {
            mode,
            ..cfg.clone()
        };
        let (_, c, job) = compress(input, &alt, &ctx.path("alt.cytc"), 101);
        checks.check(bytes_of(&job) == want, || {
            format!("Ingest::{name} produced different CTT bytes than Sequential")
        });
        m.insert(metric, sequential_ns / c.run_ns as f64);
    }

    // The program's own metrics and timeline switched on, against off.
    if family == Family::Regular {
        cypress::obs::set_enabled(true);
        cypress::obs::set_trace_enabled(true);
        let (_, c, _) = compress(input, cfg, &ctx.path("obs.cytc"), 102);
        cypress::obs::set_trace_enabled(false);
        cypress::obs::set_enabled(false);
        cypress::obs::trace_reset();
        cypress::obs::reset();
        m.insert(
            "obs.enabled_overhead_pct",
            (c.run_ns as f64 / sequential_ns - 1.0) * 100.0,
        );
    }
    m.insert("bench.trace_overhead_pct", reps.trace_overhead_pct());
    m
}
