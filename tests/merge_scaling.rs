//! The paper's inter-process cost as operation counts (§IV-B, Fig. 18): a
//! pair merges vertex by vertex in O(n), and a whole job in O(n log P). The
//! claim is asymptotic, so it is stated in the shape of
//! `tests/scaling_claims.rs`: no clock, only the number of group
//! compatibility tests (`record_mergeable` and control-data equality) the
//! absorbs ran, read from the `merge.comparisons` counter. Counts are exact
//! and identical on every machine and in every build profile.
//!
//! Four jobs at P = 64, 256 and 1024 (4096 in `scripts/check.sh`'s release
//! pass):
//! - a ring stencil, where every vertex holds one rank group (g = 1);
//! - the bundled LESlie3d skeleton, which splits groups at boundary ranks;
//! - a DT-like job built directly, rank by rank, whose records and loop
//!   counts are each held by one rank only (g = P). Matched by a scan
//!   alone, its slots cost O(P²) tests per merge; with long lists matched
//!   by key, O(P);
//! - a lopsided job, the DT-like one with its lower half of ranks sharing one
//!   record and loop count and never reaching a leaf, so one absorb meets
//!   P/2 rank-unique groups against one group or none.
//!
//! Each runs through `merge_all` and through `BinomialMerger` fed in rank,
//! reverse and shuffled order, and each must stay within
//! `COMPARISONS_PER_ITEM · items · ⌈log₂ P⌉` tests, where an item is one
//! record or one non-empty loop or branch sequence of one rank's CTT. Tests
//! per item and level must not grow with P either: a quadratic merge would
//! quadruple them per ×4 in P. Every order must also give `merge_all`'s
//! bytes, and the ring's and LESlie3d's merged group counts must not grow
//! with P.
//!
//! Every test here flips the process-wide metrics switch, so each holds
//! `obs::test_mutex()`.

use cypress::core::{
    merge_all, BinomialMerger, Ctt, EncParams, IntSeq, LeafRecord, MergedCtt, TimeStats, VertexData,
};
use cypress::obs;
use cypress::obs::rng::Rng;
use cypress::trace::codec::Codec;
use cypress::trace::event::{MpiOp, MpiParams};
use cypress::workloads::{by_name, Scale};
use cypress::{Pipeline, PipelineConfig};

/// The merge scans a list only while it and the groups coming into it
/// number at most 32, and looks a longer one up by key. So one absorb runs
/// at most 16 tests per group of the lists it touches, and `merge_all` at
/// most 31 per record; a rank's data takes part in at most ⌈log₂ P⌉
/// absorbs.
const COMPARISONS_PER_ITEM: u64 = 16;

fn ring(nprocs: u32) -> Vec<Ctt> {
    let src = r#"fn main() {
    let r = rank();
    let p = size();
    for k in 0..20 {
        let a = isend((r + 1) % p, 4096, 0);
        let b = irecv((r + p - 1) % p, 4096, 0);
        waitall(a, b);
    }
    allreduce(8);
}"#;
    run(src, nprocs)
}

fn leslie3d(nprocs: u32) -> Vec<Ctt> {
    run(
        &by_name("leslie3d", nprocs, Scale::Quick).unwrap().source,
        nprocs,
    )
}

fn run(src: &str, nprocs: u32) -> Vec<Ctt> {
    let cfg = PipelineConfig {
        threads: 2,
        ..PipelineConfig::default()
    };
    let job = Pipeline::new(src).ranks(nprocs).configure(cfg).run();
    job.unwrap_or_else(|e| panic!("P = {nprocs}: {e}")).ctts
}

/// One rank of the DT-like job: a root, a leaf whose first slot every rank
/// shares and whose second is this rank's alone, a leaf holding only a
/// rank-unique record, and a loop whose counts no other rank has.
fn dt_like_rank(rank: u32, nprocs: u32) -> Ctt {
    let r = rank as i64;
    let stats = |x: u64| {
        let mut t = TimeStats::new();
        t.add(x);
        t
    };
    let rec = |p: MpiParams, count: u64| LeafRecord {
        params: EncParams::encode(r, MpiOp::Send, &p),
        count,
        time: stats(100 + r as u64 % 17),
        gap: stats(7),
    };
    // A size of `1000 + rank` is a record no other rank has.
    let unique = |tag| rec(MpiParams::send(r + 1, 1000 + r, tag), 1);
    Ctt {
        rank,
        nprocs,
        app_time: 10_000 + rank as u64,
        data: vec![
            VertexData::Root,
            VertexData::Leaf {
                records: vec![rec(MpiParams::send(r + 1, 64, 0), 4), unique(1)],
            },
            VertexData::Leaf {
                records: vec![unique(2)],
            },
            VertexData::Loop {
                counts: IntSeq::from_slice(&[3, r]),
            },
        ],
    }
}

fn dt_like(nprocs: u32) -> Vec<Ctt> {
    (0..nprocs).map(|r| dt_like_rank(r, nprocs)).collect()
}

/// One rank of the lopsided job: the lower half of the ranks shares one
/// record and one loop count and never reaches the second leaf, the upper
/// half is rank-unique at all three. So the last absorb of a binomial merge
/// meets P/2 incoming groups against one group (or none) already there.
fn lopsided_rank(rank: u32, nprocs: u32) -> Ctt {
    let mut ctt = dt_like_rank(rank, nprocs);
    if rank < nprocs / 2 {
        let VertexData::Leaf { records } = &mut ctt.data[1] else {
            unreachable!()
        };
        records.truncate(1);
        ctt.data[2] = VertexData::Leaf { records: vec![] };
        ctt.data[3] = VertexData::Loop {
            counts: IntSeq::from_slice(&[3]),
        };
    }
    ctt
}

fn lopsided(nprocs: u32) -> Vec<Ctt> {
    (0..nprocs).map(|r| lopsided_rank(r, nprocs)).collect()
}

/// Records plus non-empty loop and branch sequences over every rank.
fn items(ctts: &[Ctt]) -> u64 {
    let control = |d: &VertexData| match d {
        VertexData::Loop { counts: s } | VertexData::Branch { taken: s } => !s.is_empty(),
        _ => false,
    };
    ctts.iter()
        .map(|c| (c.record_count() + c.data.iter().filter(|d| control(d)).count()) as u64)
        .sum()
}

/// The merge `f` makes, and the compatibility tests it ran.
fn counted(f: impl FnOnce() -> MergedCtt) -> (MergedCtt, u64) {
    obs::reset();
    let merged = f();
    let report = obs::report();
    let count = report
        .metrics
        .iter()
        .find(|m| m.subsystem == "merge" && m.name == "comparisons")
        .map_or(0, |m| m.value as u64);
    (merged, count)
}

fn binomial(ctts: &[Ctt], order: &[usize]) -> MergedCtt {
    let mut bm = BinomialMerger::new(ctts.len() as u32);
    for &i in order {
        assert!(bm.add(&ctts[i]));
    }
    bm.finish()
}

/// Every merge path's count for one job, checked against the bound; returns
/// `[merge_all, rank order, reverse, shuffled]` per item and level, and the
/// merged group count.
fn check(job: &str, ctts: &[Ctt]) -> ([f64; 4], usize) {
    let p = ctts.len();
    let levels = (p as u64).next_power_of_two().ilog2() as u64;
    let bound = COMPARISONS_PER_ITEM * items(ctts) * levels;
    let rank_order: Vec<usize> = (0..p).collect();
    let reverse: Vec<usize> = (0..p).rev().collect();
    let mut shuffled = rank_order.clone();
    let mut rng = Rng::new(p as u64);
    for i in (1..p).rev() {
        shuffled.swap(i, rng.range_usize(0..i + 1));
    }
    let (want, seq) = counted(|| merge_all(ctts));
    let groups = want.group_count();
    let want = want.to_bytes();
    let mut counts = [seq, 0, 0, 0];
    for (k, order) in [&rank_order, &reverse, &shuffled].into_iter().enumerate() {
        let (merged, n) = counted(|| binomial(ctts, order));
        assert_eq!(merged.to_bytes(), want, "{job}@{p}: order {k} bytes");
        counts[k + 1] = n;
    }
    for (path, n) in ["merge_all", "rank order", "reverse", "shuffled"]
        .iter()
        .zip(counts)
    {
        assert!(
            n <= bound,
            "{job}@{p} {path}: {n} comparisons over the bound {bound} \
             ({} items)",
            items(ctts)
        );
    }
    eprintln!(
        "{job}@{p}: {} items, comparisons {counts:?}, merged {groups} groups, {} B",
        items(ctts),
        want.len()
    );
    let per = counts.map(|n| n as f64 / (items(ctts) * levels) as f64);
    (per, groups)
}

/// The claims at each of `procs`, the first of which sets the structural
/// jobs' merged group counts: those stay flat in P (Fig. 15, Fig. 19).
fn scaling_at(procs: &[u32]) {
    let _guard = obs::test_mutex().lock().unwrap();
    obs::set_enabled(true);
    let mut flat = None;
    let mut first: Vec<[f64; 4]> = Vec::new();
    for (k, &p) in procs.iter().enumerate() {
        let jobs = [ring(p), leslie3d(p), dt_like(p), lopsided(p)];
        let names = ["ring", "leslie3d", "dt-like", "lopsided"];
        let checked: Vec<_> = names.iter().zip(&jobs).map(|(n, j)| check(n, j)).collect();
        let groups = (checked[0].1, checked[1].1);
        assert_eq!(
            groups,
            *flat.get_or_insert(groups),
            "P = {p}: merged groups"
        );
        if k == 0 {
            first = checked.iter().map(|c| c.0).collect();
        }
        for ((name, (per, _)), base) in names.iter().zip(&checked).zip(&first) {
            assert!(
                per.iter().zip(base).all(|(now, was)| now <= was),
                "{name}@{p}: tests per item and level {per:?} grew from {base:?} at P = {}",
                procs[0]
            );
        }
    }
    obs::set_enabled(false);
    obs::reset();
}

#[test]
fn merge_comparisons_stay_within_n_log_p() {
    scaling_at(&[64, 256, 1024]);
}

#[test]
#[ignore = "P = 4096: run in release by scripts/check.sh"]
fn merge_comparisons_stay_within_n_log_p_at_4096() {
    scaling_at(&[64, 4096]);
}
