//! Staged per-layer measurements: each function times calls into one
//! crate's public functions, from outside, on a workload's own inputs, and
//! records the layer's metrics. All of them run single-threaded on the
//! calling thread unless a thread count is named, and every call is wrapped
//! in a span so the traced run's timeline shows it.
//!
//! "Per event" always means per MPI event — the unit of `events_per_s` —
//! so a layer's ns/event times the event count is its share of a wall time.

use crate::harness::Checks;
use crate::span::timed;
use cypress::core::{
    decompress_into, merge_all_parallel, BinomialMerger, CompressConfig, CompressSession, Ctt,
    CttSlab, MergedCtt, SessionConfig,
};
use cypress::cst::{analyze_program, StaticInfo};
use cypress::deflate::{deflate, inflate, Level};
use cypress::minilang::{check_program, parse, Program};
use cypress::runtime::{run_rank_with_sink, InterpConfig};
use cypress::trace::{
    assemble, encode_section, Codec, Container, Event, EventSink, Section, SectionKind,
    SectionTable,
};
use std::collections::BTreeMap;
use std::path::Path;

pub type Metrics = BTreeMap<&'static str, f64>;

pub fn mb_per_s(bytes: usize, ns: u64) -> f64 {
    bytes as f64 / 1e6 / (ns.max(1) as f64 / 1e9)
}

/// Parse, check and analyze MiniMPI source. Panics on a generator bug: the
/// sources are the benchmark's own.
pub fn compile(source: &str) -> (Program, StaticInfo) {
    static_layer(&mut Metrics::new(), source)
}

/// `minilang` + `cst`: the fixed cost before the first event.
pub fn static_layer(m: &mut Metrics, source: &str) -> (Program, StaticInfo) {
    let (prog, parse_ns) = timed("minilang", "parse+check_program", 0, || {
        let prog = parse(source).expect("generated program parses");
        check_program(&prog).expect("generated program type-checks");
        prog
    });
    let (info, analyze_ns) = timed("cst", "analyze_program", 0, || analyze_program(&prog));
    m.insert("static.parse_us", parse_ns as f64 / 1e3);
    m.insert("static.analyze_us", analyze_ns as f64 / 1e3);
    m.insert("static.cst_vertices", info.cst.len() as f64);
    (prog, info)
}

/// Counts events and keeps nothing: the cheapest sink the interpreter can
/// feed, so the time left is the interpreter's own.
#[derive(Default)]
struct CountSink {
    mpi: u64,
    structure: u64,
}

impl EventSink for CountSink {
    fn event(&mut self, ev: Event) {
        match ev {
            Event::Mpi(_) => self.mpi += 1,
            _ => self.structure += 1,
        }
    }
}

/// Up to four evenly spaced ranks: interpreting and re-compressing every
/// rank single-threaded would take as long as the workload itself, and the
/// ranks of both families do statistically the same work.
pub fn sample_ranks(nprocs: u32) -> Vec<u32> {
    let n = nprocs.min(4);
    (0..n).map(|i| i * nprocs / n).collect()
}

/// One sampled rank's recorded event stream.
pub struct Recorded {
    pub rank: u32,
    pub events: Vec<Event>,
    pub mpi_events: u64,
    pub app_time: u64,
}

/// `runtime`: interpret the sampled ranks into a counting sink, then once
/// more into a `Vec` to hand the session layer the same events.
pub fn interp_layer(
    m: &mut Metrics,
    prog: &Program,
    info: &StaticInfo,
    nprocs: u32,
) -> Vec<Recorded> {
    let cfg = InterpConfig::default();
    let (mut ns, mut mpi) = (0u64, 0u64);
    let mut recorded = Vec::new();
    for rank in sample_ranks(nprocs) {
        let mut sink = CountSink::default();
        let (res, t) = timed("runtime", "run_rank_with_sink", rank as u64, || {
            run_rank_with_sink(prog, info, rank, nprocs, &cfg, &mut sink)
        });
        res.expect("sampled rank interprets");
        ns += t;
        mpi += sink.mpi;
        let mut events: Vec<Event> = Vec::with_capacity((sink.mpi + sink.structure) as usize);
        let app_time = run_rank_with_sink(prog, info, rank, nprocs, &cfg, &mut events)
            .expect("sampled rank interprets");
        recorded.push(Recorded {
            rank,
            events,
            mpi_events: sink.mpi,
            app_time,
        });
    }
    m.insert("runtime.interp_ns_per_event", ns as f64 / mpi.max(1) as f64);
    recorded
}

/// `core` session: feed recorded events through `push_batch` in `chunk`-event
/// batches, and through per-event `push`; the two must give the same bytes.
pub fn session_layer(
    m: &mut Metrics,
    checks: &mut Checks,
    info: &StaticInfo,
    nprocs: u32,
    chunk: usize,
    recorded: &[Recorded],
) {
    let (mut batch_ns, mut push_ns, mut mpi, mut peak) = (0u64, 0u64, 0u64, 0usize);
    for r in recorded {
        let session = || {
            CompressSession::new(
                &info.cst,
                r.rank,
                nprocs,
                CompressConfig::default(),
                SessionConfig::default(),
            )
        };
        let mut s = session();
        let ((batched, stats), t) = timed("core", "push_batch+finish", r.rank as u64, || {
            for evs in r.events.chunks(chunk) {
                s.push_batch(evs);
            }
            s.finish(r.app_time)
        });
        batch_ns += t;
        let mut s = session();
        let ((pushed, _), t) = timed("core", "push+finish", r.rank as u64, || {
            for ev in &r.events {
                s.push(ev);
            }
            s.finish(r.app_time)
        });
        push_ns += t;
        mpi += r.mpi_events;
        peak = peak.max(stats.peak_ctt_bytes);
        checks.check(batched.to_bytes() == pushed.to_bytes(), || {
            format!(
                "rank {}: push_batch and push gave different CTT bytes",
                r.rank
            )
        });
    }
    let mpi = mpi.max(1) as f64;
    m.insert("core.session_ns_per_event", batch_ns as f64 / mpi);
    m.insert("core.push_ns_per_event", push_ns as f64 / mpi);
    m.insert(
        "core.push_batch_speedup",
        push_ns as f64 / batch_ns.max(1) as f64,
    );
    m.insert("core.peak_ctt_bytes", peak as f64);
}

/// `core` merge: `merge_all_parallel` at one thread and at `threads`.
/// Returns the merged tree and the single-threaded time.
pub fn merge_layer(m: &mut Metrics, ctts: &[Ctt], threads: usize) -> (MergedCtt, u64) {
    let (merged, t1) = timed("core", "merge_all_parallel(1)", 0, || {
        merge_all_parallel(ctts, 1)
    });
    let (_, tn) = timed("core", "merge_all_parallel(nproc)", 0, || {
        merge_all_parallel(ctts, threads)
    });
    let input: usize = ctts.iter().map(|c| c.approx_bytes()).sum();
    m.insert("core.merge_t1_ms", t1 as f64 / 1e6);
    m.insert("core.merge_ms", tn as f64 / 1e6);
    m.insert("core.merge_mb_s", mb_per_s(input, t1));
    m.insert("core.merge_groups", merged.group_count() as f64);
    m.insert(
        "core.ctt_records",
        ctts.iter().map(|c| c.record_count()).sum::<usize>() as f64,
    );
    (merged, t1)
}

/// `core` incremental merge as the collector and relays use it: each of
/// `relays` contiguous shards adds its ranks to a job-sized
/// `BinomialMerger` and hands its aligned blocks to a root merger through
/// `add_block`. Returns the number of blocks forwarded.
pub fn relay_layer(m: &mut Metrics, checks: &mut Checks, ctts: &[Ctt], relays: usize) -> usize {
    let nprocs = ctts.len() as u32;
    let per = ctts.len().div_ceil(relays.max(1));
    let (mut add_ns, mut block_ns, mut blocks) = (0u64, 0u64, 0usize);
    let mut root = BinomialMerger::new(nprocs);
    for shard in ctts.chunks(per) {
        let mut relay = BinomialMerger::new(nprocs);
        for ctt in shard {
            add_ns += timed("core", "BinomialMerger::add", ctt.rank as u64, || {
                relay.add(ctt)
            })
            .1;
        }
        for (first, count, block) in relay.into_blocks() {
            blocks += 1;
            let (res, t) = timed("core", "BinomialMerger::add_block", first as u64, || {
                root.add_block(first, count, block)
            });
            checks.check(res == Ok(true), || {
                format!("add_block({first}, {count}): {res:?}")
            });
            block_ns += t;
        }
    }
    checks.check(root.is_complete(), || {
        "relayed blocks do not cover the job".into()
    });
    m.insert(
        "core.binomial_add_us",
        add_ns as f64 / 1e3 / ctts.len().max(1) as f64,
    );
    m.insert(
        "core.add_block_us",
        block_ns as f64 / 1e3 / blocks.max(1) as f64,
    );
    blocks
}

/// `core` read side: serialize every tree, decode the rank payloads into
/// slabs, and replay every rank into a counting closure. Returns the
/// container sections the job would persist, and the serialization time.
pub fn read_side_layer(
    m: &mut Metrics,
    info: &StaticInfo,
    ctts: &[Ctt],
    merged: &MergedCtt,
) -> (Vec<Section>, u64) {
    let (mut sections, encode_ns) = timed("core", "Ctt::to_bytes", 0, || {
        let mut out = vec![Section {
            kind: SectionKind::MergedCtt,
            rank: None,
            payload: merged.to_bytes(),
        }];
        out.extend(ctts.iter().map(|c| Section {
            kind: SectionKind::RankCtt,
            rank: Some(c.rank),
            payload: c.to_bytes(),
        }));
        out
    });
    let encoded: usize = sections.iter().map(|s| s.payload.len()).sum();
    let rank_bytes: usize = sections[1..].iter().map(|s| s.payload.len()).sum();
    let ((), slab_ns) = timed("core", "CttSlab::from_bytes", 0, || {
        for s in &sections[1..] {
            std::hint::black_box(CttSlab::from_bytes(&s.payload).expect("own bytes decode"));
        }
    });
    let (ops, replay_ns) = timed("core", "decompress_into", 0, || {
        let mut ops = 0u64;
        for c in ctts {
            decompress_into(&info.cst, c, |op| {
                std::hint::black_box(&op);
                ops += 1;
            });
        }
        ops
    });
    m.insert("core.ctt_encode_mb_s", mb_per_s(encoded, encode_ns));
    m.insert("core.slab_decode_mb_s", mb_per_s(rank_bytes, slab_ns));
    m.insert(
        "core.decompress_ns_per_event",
        replay_ns as f64 / ops.max(1) as f64,
    );
    sections.insert(
        0,
        Section {
            kind: SectionKind::CstText,
            rank: None,
            payload: info.cst.to_text().into_bytes(),
        },
    );
    (sections, encode_ns)
}

/// `deflate` on the workload's real rank-section payloads at
/// `Level::Default` (the merged payload is left to `trace_layer`, which
/// deflates every section once more as part of encoding). Returns
/// `(deflate_ns, inflate_ns, stored_bytes)`.
pub fn deflate_layer(
    m: &mut Metrics,
    checks: &mut Checks,
    sections: &[Section],
) -> (u64, u64, usize) {
    let payloads: Vec<&[u8]> = sections
        .iter()
        .filter(|s| s.kind == SectionKind::RankCtt)
        .map(|s| s.payload.as_slice())
        .collect();
    let raw: usize = payloads.iter().map(|p| p.len()).sum();
    let (packed, deflate_ns) = timed("deflate", "deflate", 0, || {
        payloads
            .iter()
            .map(|p| deflate(p, Level::Default))
            .collect::<Vec<_>>()
    });
    let (unpacked, inflate_ns) = timed("deflate", "inflate", 0, || {
        packed.iter().map(|z| inflate(z)).collect::<Vec<_>>()
    });
    let same = unpacked
        .iter()
        .zip(&payloads)
        .all(|(u, p)| u.as_deref().ok() == Some(*p));
    checks.check(same, || {
        "inflate(deflate(payload)) differs from payload".into()
    });
    let stored: usize = packed.iter().map(|z| z.len()).sum();
    m.insert("deflate.compress_mb_s", mb_per_s(raw, deflate_ns));
    m.insert("deflate.inflate_mb_s", mb_per_s(raw, inflate_ns));
    m.insert("deflate.ratio", raw as f64 / stored.max(1) as f64);
    (deflate_ns, inflate_ns, stored)
}

/// `trace`: encode every section (deflating when `level` says so), assemble
/// the image, write it, and parse its table back. Returns the time spent.
pub fn trace_layer(
    m: &mut Metrics,
    nprocs: u32,
    sections: &[Section],
    level: Option<Level>,
    path: &Path,
) -> u64 {
    let payload: usize = sections.iter().map(|s| s.payload.len()).sum();
    let (encoded, encode_ns) = timed("trace", "encode_section", 0, || {
        sections
            .iter()
            .map(|s| encode_section(s, level))
            .collect::<Vec<_>>()
    });
    let (image, assemble_ns) = timed("trace", "assemble", 0, || assemble(nprocs, &encoded));
    let (res, write_ns) = timed("trace", "Container::write_image", 0, || {
        Container::write_image(path, &image)
    });
    res.expect("container image writes");
    m.insert("trace.encode_section_mb_s", mb_per_s(payload, encode_ns));
    m.insert("trace.assemble_us", assemble_ns as f64 / 1e3);
    m.insert("trace.write_image_ms", write_ns as f64 / 1e6);
    m.insert("trace.container_bytes", image.len() as f64);
    m.insert("trace.sections", sections.len() as f64);
    table_parse(m, &image);
    encode_ns + assemble_ns + write_ns
}

/// `trace` read side: `SectionTable::parse`, which checks the image CRC and
/// every section CRC.
pub fn table_parse(m: &mut Metrics, image: &[u8]) {
    let (table, ns) = timed("trace", "SectionTable::parse", 0, || {
        SectionTable::parse(image)
    });
    table.expect("own image parses");
    m.insert("trace.table_parse_us", ns as f64 / 1e3);
}
