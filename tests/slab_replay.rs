//! Slab-vs-owned replay: every reader that walks a CTT gives the same answer
//! over a pooled `CttSlab` as over the owned `Ctt` whose bytes it decoded.
//!
//! The store answers analyze and windowed requests straight from slabs, so
//! this is daemon behaviour; before the replay cursor read through
//! `CttSource::vertex` it held only because every such request first copied
//! the slab into a `Ctt`. Covered: full decompression, schedule lowering
//! (the flattened schedule *and* how each loop was handled) and windowed
//! replay, over every bundled workload at its small valid rank count (8, or
//! 9/16 where the decomposition needs a square/cube), the benchmark's
//! irregular shape, and a recursive program (whole-job flattening).

use cypress::analysis::{lower_schedule, windowed_ops, LoweringStats};
use cypress::core::{compress_trace, decompress, CompressConfig, Ctt, CttSlab};
use cypress::cst::{analyze_program, Cst};
use cypress::minilang::{check_program, parse};
use cypress::query::Window;
use cypress::runtime::{trace_program, InterpConfig};
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};

/// The irregular shape of `benchmark/src/gen.rs` (40 outer trips), copied as
/// text: LCG-driven sizes and branches, so records rarely merge and most
/// loops fail the uniformity proof.
const IRREGULAR: &str = r#"
fn main() {
    let p = size();
    let r = rank();
    let left = (r + p - 1) % p;
    let xs = 1804289383;
    for it in 0..40 {
        xs = (xs * 1103515245 + 12345) % 2147483648;
        let off = 1 + (xs / 4096) % 5;
        let from = (r + p - off) % p;
        let sb = 64 + ((xs / 65536 + r * 61) % 1000) * 8;
        let rb = 64 + ((xs / 65536 + from * 61) % 1000) * 8;
        for k in 0..3 {
            let a = isend((r + off) % p, sb, 1);
            let b = irecv(from, rb, 1);
            waitall(a, b);
        }
        if (xs / 1024) % 4 == 0 { allreduce(8); }
        if (xs / 256 + r * 11) % 8 < 3 { send((r + 1) % p, sb / 2, 2); }
        if (xs / 256 + left * 11) % 8 < 3 {
            recv(left, (64 + ((xs / 65536 + left * 61) % 1000) * 8) / 2, 2);
        }
        compute(100 + (xs + r) % 400);
    }
    barrier();
}
"#;

const RECURSIVE: &str = r#"
fn walk(n) {
    if n > 0 {
        send((rank() + 1) % size(), 64 * n, 0);
        walk(n - 1);
        recv((rank() + size() - 1) % size(), 64 * n, 0);
    }
}
fn main() {
    for k in 0..3 { walk(k + 2); allreduce(8); }
    barrier();
}
"#;

fn compile(src: &str, nprocs: u32) -> (Cst, Vec<Ctt>) {
    let p = parse(src).unwrap();
    check_program(&p).unwrap();
    let info = analyze_program(&p);
    let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
    let cfg = CompressConfig::default();
    let ctts = traces
        .iter()
        .map(|t| compress_trace(&info.cst, t, &cfg))
        .collect();
    (info.cst, ctts)
}

/// What one input exercised: how lowering handled its loops, and how many
/// of its ops the window kept.
struct Seen {
    stats: LoweringStats,
    kept: usize,
    ops: usize,
}

fn assert_slab_replays_like_owned(name: &str, cst: &Cst, ctts: &[Ctt]) -> Seen {
    let slabs: Vec<CttSlab> = ctts
        .iter()
        .map(|c| CttSlab::from_bytes(&c.to_bytes()).unwrap())
        .collect();
    let (owned, stats) = lower_schedule(cst, ctts);
    let (pooled, pooled_stats) = lower_schedule(cst, &slabs);
    assert_eq!(pooled.flatten(), owned.flatten(), "{name}: schedule");
    assert_eq!(pooled_stats, stats, "{name}: lowering stats");

    // The middle half of the run.
    let span = ctts.iter().map(|c| c.app_time).max().unwrap();
    let w = Window {
        start_ns: span / 4,
        end_ns: span - span / 4,
    };
    let mut seen = Seen {
        stats,
        kept: 0,
        ops: 0,
    };
    for (ctt, slab) in ctts.iter().zip(&slabs) {
        let rank = ctt.rank;
        let ops = decompress(cst, ctt);
        assert_eq!(decompress(cst, slab), ops, "{name}: rank {rank} replay");
        let kept = windowed_ops(cst, ctt, w);
        let pooled = windowed_ops(cst, slab, w);
        assert_eq!(pooled, kept, "{name}: rank {rank} window");
        seen.ops += ops.len();
        seen.kept += kept.len();
    }
    seen
}

#[test]
fn slabs_replay_lower_and_window_like_owned_ctts() {
    let mut seen = Vec::new();
    for name in NPB_NAMES.iter().chain(&["jacobi", "leslie3d"]) {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let cfg = CompressConfig::default();
        let ctts: Vec<Ctt> = (w.trace().unwrap().iter())
            .map(|t| compress_trace(&info.cst, t, &cfg))
            .collect();
        seen.push(assert_slab_replays_like_owned(name, &info.cst, &ctts));
    }
    let (cst, ctts) = compile(IRREGULAR, 8);
    seen.push(assert_slab_replays_like_owned("irregular", &cst, &ctts));
    let (cst, ctts) = compile(RECURSIVE, 8);
    seen.push(assert_slab_replays_like_owned("recursive", &cst, &ctts));

    // Every way of handling a loop was exercised, and the windows cut.
    assert!(seen.iter().any(|s| s.stats.symbolic_loops > 0));
    assert!(seen.iter().any(|s| s.stats.unrolled_loops > 0));
    assert!(seen.iter().any(|s| s.stats.flattened));
    let kept: usize = seen.iter().map(|s| s.kept).sum();
    let ops: usize = seen.iter().map(|s| s.ops).sum();
    assert!(0 < kept && kept < ops, "windows kept {kept} of {ops} ops");
}
