//! Streaming-session acceptance tests: the in-line path must be
//! *byte-identical* to the offline reference (record every raw trace, then
//! `compress_trace` it) at every pool width, and the on-disk container must
//! round trip every workload's exact event sequence without re-simulation.

mod chunked;
mod footprint;

use chunked::merge_in_chunks;
use cypress::core::{compress_trace, merge_all, CompressConfig, Ctt};
use cypress::runtime::{trace_program_parallel, InterpConfig};
use cypress::trace::codec::Codec;
use cypress::trace::event::{MpiOp, MpiParams};
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};
use cypress::{Pipeline, PipelineConfig};
use footprint::{assert_footprint_is_the_walk, assert_trimmed};

type OpSeq = Vec<(u32, MpiOp, MpiParams)>;

fn strip_raw(t: &cypress::trace::RawTrace) -> OpSeq {
    t.mpi_records()
        .map(|r| (r.gid, r.op, r.params.clone()))
        .collect()
}

fn strip_replay(ops: &[cypress::core::ReplayOp]) -> OpSeq {
    ops.iter()
        .map(|o| (o.gid, o.op, o.params.clone()))
        .collect()
}

fn all_workload_names() -> impl Iterator<Item = &'static str> {
    NPB_NAMES.iter().copied().chain(["jacobi", "leslie3d"])
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cypress-streaming-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// The headline acceptance criterion: for every workload, the streaming
/// pipeline's per-rank and merged CTT *encodings* are byte-for-byte those of
/// the offline reference. Both sides merge with the same thread count, so
/// even the floating-point time statistics fold in the same order.
#[test]
fn streaming_merged_bytes_equal_batch_on_all_workloads() {
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let cfg = PipelineConfig {
            threads: 4,
            ..PipelineConfig::default()
        };
        let mut stream = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .configure(cfg.clone())
            .run()
            .unwrap_or_else(|e| panic!("{name}: streaming run failed: {e}"));
        let (prog, info) = w.compile();
        let batch: Vec<Ctt> = trace_program_parallel(&prog, &info, w.nprocs, &cfg.interp, 4)
            .unwrap_or_else(|e| panic!("{name}: offline trace failed: {e}"))
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();

        assert_eq!(stream.ctts, batch, "{name}: per-rank CTTs diverged");
        for (a, b) in stream.ctts.iter().zip(&batch) {
            assert_eq!(
                a.to_bytes(),
                b.to_bytes(),
                "{name}: rank {} CTT encodings diverged",
                a.rank
            );
        }
        assert_eq!(
            stream.merge().to_bytes(),
            merge_in_chunks(&batch, 4).to_bytes(),
            "{name}: merged CTT encodings diverged"
        );
        // The streaming path actually streamed: per-rank session stats exist
        // and the resident footprint was sampled.
        assert_eq!(stream.stats.len(), w.nprocs as usize, "{name}");
        assert!(stream.peak_ctt_bytes() > 0, "{name}");
    }
}

/// What a session samples is a running total, not a walk: on every rank of
/// every workload it equals the walk at every checkpoint. And a finished tree
/// holds no growth slack, whether a session made it (`Pipeline::run`) or
/// `compress_trace` did.
#[test]
fn footprint_is_the_walk_and_finished_trees_are_trimmed_on_all_workloads() {
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (prog, info) = w.compile();
        let traces = trace_program_parallel(&prog, &info, w.nprocs, &InterpConfig::default(), 2)
            .unwrap_or_else(|e| panic!("{name}: offline trace failed: {e}"));
        for t in &traces {
            assert_footprint_is_the_walk(&info.cst, t, name);
            assert_trimmed(
                &compress_trace(&info.cst, t, &CompressConfig::default()),
                name,
            );
        }
        let job = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .run()
            .unwrap_or_else(|e| panic!("{name}: streaming run failed: {e}"));
        for ctt in &job.ctts {
            assert_trimmed(ctt, name);
        }
    }
}

/// Pool width changes which worker runs a rank and nothing else: per-rank
/// encodings, the merged encoding and the session accounting are equal at
/// 1, 2 and 8 workers on every workload.
#[test]
fn thread_count_changes_no_byte_and_no_session_count() {
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let run = |threads: usize| {
            Pipeline::new(w.source.clone())
                .ranks(w.nprocs)
                .configure(PipelineConfig {
                    threads,
                    ..PipelineConfig::default()
                })
                .run()
                .unwrap_or_else(|e| panic!("{name} threads={threads}: {e}"))
        };
        let mut reference = run(4);
        let want_merged = reference.merge().to_bytes();
        for threads in [1usize, 2, 8] {
            let mut job = run(threads);
            assert_eq!(
                job.ctts.len(),
                reference.ctts.len(),
                "{name} threads={threads}"
            );
            for (a, b) in job.ctts.iter().zip(&reference.ctts) {
                assert_eq!(
                    a.to_bytes(),
                    b.to_bytes(),
                    "{name} threads={threads}: rank {} CTT encodings diverged",
                    a.rank
                );
            }
            assert_eq!(
                job.merge().to_bytes(),
                want_merged,
                "{name} threads={threads}: merged CTT encodings diverged"
            );
            assert_eq!(job.stats.len(), w.nprocs as usize, "{name}");
            for (a, b) in job.stats.iter().zip(&reference.stats) {
                assert_eq!(a.events, b.events, "{name} threads={threads}");
                assert_eq!(a.mpi_events, b.mpi_events, "{name} threads={threads}");
                assert_eq!(a.raw_mpi_bytes, b.raw_mpi_bytes, "{name} threads={threads}");
                assert_eq!(a.checkpoints, b.checkpoints, "{name} threads={threads}");
            }
        }
    }
}

/// A rank that hits its step budget mid-stream fails the whole run with the
/// interpreter's error — with more ranks than workers, and without hanging.
#[test]
fn interpreter_error_mid_stream_surfaces_as_runtime_error() {
    let src = "fn main() { for i in 0..100000 { allreduce(8); } }";
    let r = Pipeline::new(src)
        .ranks(8)
        .configure(PipelineConfig {
            threads: 2,
            interp: InterpConfig { max_steps: 5_000 },
            ..PipelineConfig::default()
        })
        .run();
    match r {
        Err(cypress::Error::Runtime(e)) => {
            assert!(e.to_string().contains("budget"), "unexpected error: {e}")
        }
        other => panic!("expected runtime error, got {:?}", other.map(|j| j.nprocs)),
    }
}

/// Container acceptance criterion: write → read → decompress reproduces the
/// original per-rank event sequence for every workload.
#[test]
fn container_round_trips_all_workloads() {
    let dir = tmpdir("roundtrip");
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let traces = w.trace().unwrap();
        let path = dir.join(format!("{name}.cytc"));

        let mut job = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .run()
            .unwrap();
        job.write_container(&path, false).unwrap();

        let loaded = cypress::read_container(&path)
            .unwrap_or_else(|e| panic!("{name}: read_container failed: {e}"));
        assert_eq!(loaded.nprocs(), w.nprocs, "{name}");
        for t in &traces {
            let replay = loaded
                .decompress(t.rank)
                .unwrap_or_else(|e| panic!("{name}: decompress rank {} failed: {e}", t.rank));
            assert_eq!(
                strip_replay(&replay),
                strip_raw(t),
                "{name}: rank {} sequence not preserved through the container",
                t.rank
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rank replays from its own section when the container has one, else
/// from the merged tree: the same job written with and without per-rank
/// sections must replay every rank alike, and a rank past the job is an
/// error either way.
#[test]
fn per_rank_sections_agree_with_merged_extraction() {
    let dir = tmpdir("per-rank");
    let w = by_name("cg", 8, Scale::Quick).unwrap();
    let mut job = Pipeline::new(w.source.clone()).ranks(8).run().unwrap();
    let (with, without) = (dir.join("cg-ranks.cytc"), dir.join("cg-merged.cytc"));
    job.write_container(&with, true).unwrap();
    job.write_container(&without, false).unwrap();

    let sections = cypress::read_container(&with).unwrap();
    let merged_only = cypress::read_container(&without).unwrap();
    assert_eq!(sections.rank_count(), 8);
    assert_eq!(merged_only.rank_count(), 0);
    for rank in 0..8u32 {
        let via_section = sections.decompress(rank).unwrap();
        let via_merged = merged_only.decompress(rank).unwrap();
        assert_eq!(
            strip_replay(&via_section),
            strip_replay(&via_merged),
            "rank {rank}"
        );
    }
    for opened in [&sections, &merged_only] {
        let err = opened.decompress(8).unwrap_err();
        assert!(err.to_string().contains("rank 8 out of 0..8"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The merge must be insensitive to how the ranks are cut into runs and
/// relayed blocks (awkward, one-rank and whole-job chunkings) at rank
/// counts 3, 5, and 17.
#[test]
fn parallel_merge_handles_odd_rank_counts() {
    for nranks in [3u32, 5, 17] {
        let src = format!(
            "fn main() {{
                for i in 0..20 {{
                    let a = isend((rank() + 1) % {nranks}, 128, 0);
                    let b = irecv((rank() + {nranks} - 1) % {nranks}, 128, 0);
                    waitall(a, b);
                }}
                allreduce(4);
            }}"
        );
        let job = Pipeline::new(src).ranks(nranks).run().unwrap();
        let reference = merge_all(&job.ctts);
        for k in [1usize, 2, 3, 5, nranks as usize] {
            let chunked = merge_in_chunks(&job.ctts, k.min(nranks as usize));
            assert_eq!(
                chunked.group_count(),
                reference.group_count(),
                "nranks={nranks} chunks={k}"
            );
            assert_eq!(
                chunked.to_bytes(),
                reference.to_bytes(),
                "nranks={nranks} chunks={k}: encodings diverged"
            );
        }
    }
}

/// Batched ingestion acceptance criterion: `push_batch` must produce CTTs
/// (and therefore containers) byte-identical to per-event `push` on every
/// bundled workload, at several batch granularities including the wire
/// chunk size the collector sees.
#[test]
fn push_batch_byte_identical_to_push_on_all_workloads() {
    use cypress::core::{CompressConfig, CompressSession, SessionConfig};
    for name in all_workload_names() {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        for t in &traces {
            let mut one = CompressSession::new(
                &info.cst,
                t.rank,
                w.nprocs,
                CompressConfig::default(),
                SessionConfig::default(),
            );
            for ev in &t.events {
                one.push(ev);
            }
            let (want_ctt, want_stats) = one.finish(t.app_time);
            let want = want_ctt.to_bytes();

            for chunk in [t.events.len().max(1), 512, 7] {
                let mut batched = CompressSession::new(
                    &info.cst,
                    t.rank,
                    w.nprocs,
                    CompressConfig::default(),
                    SessionConfig::default(),
                );
                for c in t.events.chunks(chunk) {
                    batched.push_batch(c);
                }
                let (ctt, stats) = batched.finish(t.app_time);
                assert_eq!(
                    ctt.to_bytes(),
                    want,
                    "{name}: rank {} chunk {chunk} diverged from per-event push",
                    t.rank
                );
                assert_eq!(stats.events, want_stats.events, "{name} rank {}", t.rank);
                assert_eq!(
                    stats.mpi_events, want_stats.mpi_events,
                    "{name} rank {}",
                    t.rank
                );
                assert_eq!(
                    stats.raw_mpi_bytes, want_stats.raw_mpi_bytes,
                    "{name} rank {}",
                    t.rank
                );
            }
        }
    }
}

/// `push_batch` under the checkpoint path: checkpoints must land on the
/// same event indices as per-event push (same count, same sampled peak),
/// and the CTT must stay byte-identical even when batch boundaries straddle
/// checkpoint boundaries.
#[test]
fn push_batch_checkpoints_match_push() {
    use cypress::core::{CompressConfig, CompressSession, SessionConfig};
    let w = by_name("cg", 8, Scale::Quick).unwrap();
    let (_, info) = w.compile();
    let traces = w.trace().unwrap();
    for t in &traces {
        // Checkpoint several times over the trace, on an awkward stride.
        let scfg = SessionConfig {
            checkpoint_every: (t.events.len() as u64 / 4).max(1) | 1,
        };
        let mut one = CompressSession::new(
            &info.cst,
            t.rank,
            8,
            CompressConfig::default(),
            scfg.clone(),
        );
        for ev in &t.events {
            one.push(ev);
        }
        let (want_ctt, want_stats) = one.finish(t.app_time);
        assert!(
            want_stats.checkpoints > 1,
            "config must actually checkpoint"
        );

        for chunk in [
            13usize,
            scfg.checkpoint_every as usize,
            scfg.checkpoint_every as usize + 3,
            4096,
        ] {
            let mut batched = CompressSession::new(
                &info.cst,
                t.rank,
                8,
                CompressConfig::default(),
                scfg.clone(),
            );
            for c in t.events.chunks(chunk) {
                batched.push_batch(c);
            }
            let (ctt, stats) = batched.finish(t.app_time);
            assert_eq!(ctt.to_bytes(), want_ctt.to_bytes(), "chunk {chunk}");
            assert_eq!(stats.checkpoints, want_stats.checkpoints, "chunk {chunk}");
            assert_eq!(
                stats.peak_ctt_bytes, want_stats.peak_ctt_bytes,
                "chunk {chunk}"
            );
        }
    }
}

/// Parallel per-section encoding acceptance criterion: a container written
/// with many encode workers is byte-identical to the sequential one, at the
/// pinned default level and with per-rank sections in play.
#[test]
fn parallel_container_encoding_identical_to_sequential() {
    use cypress::deflate::Level;
    let dir = tmpdir("parallel-encode");
    for name in ["cg", "jacobi"] {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let mut seq = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .configure(PipelineConfig {
                threads: 1,
                level: Some(Level::Default),
                ..PipelineConfig::default()
            })
            .run()
            .unwrap();
        let mut par = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .configure(PipelineConfig {
                threads: 8,
                level: Some(Level::Default),
                ..PipelineConfig::default()
            })
            .run()
            .unwrap();
        let p_seq = dir.join(format!("{name}-seq.cytc"));
        let p_par = dir.join(format!("{name}-par.cytc"));
        seq.write_container(&p_seq, true).unwrap();
        par.write_container(&p_par, true).unwrap();
        let a = std::fs::read(&p_seq).unwrap();
        let b = std::fs::read(&p_par).unwrap();
        assert_eq!(a, b, "{name}: parallel encoding changed container bytes");

        // And the compressed container still round-trips.
        let loaded = cypress::read_container(&p_par).unwrap();
        let traces = w.trace().unwrap();
        for t in &traces {
            let replay = loaded.decompress(t.rank).unwrap();
            assert_eq!(
                strip_replay(&replay),
                strip_raw(t),
                "{name} rank {}",
                t.rank
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Session accounting sanity on a real workload: the event counts match the
/// recorded trace, and the resident footprint stays far below the raw trace.
#[test]
fn session_stats_match_trace_reality() {
    let w = by_name("mg", 8, Scale::Quick).unwrap();
    let traces = w.trace().unwrap();
    let job = Pipeline::new(w.source.clone()).ranks(8).run().unwrap();
    for (st, t) in job.stats.iter().zip(&traces) {
        assert_eq!(st.events as usize, t.events.len(), "rank {}", t.rank);
        assert_eq!(st.mpi_events as usize, t.mpi_count(), "rank {}", t.rank);
        assert!(st.final_ctt_bytes <= st.peak_ctt_bytes);
    }
}
