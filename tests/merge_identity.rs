//! Merge identity at P = 1024 across every rank-set shape a merged group can
//! take, with tiny per-rank trees so it fits the debug test budget.
//! `scripts/check.sh` runs the same test at P = 4096 in release
//! (`merge_identity_at_4096`, ignored here).
//!
//! Each rank's CTT is built directly, vertex by vertex, so every shape is
//! present on purpose: records unique to one rank, shared by all ranks, by
//! the even ranks, by the ranks ≡ 1 (mod 3), by one contiguous block, and by
//! the ranks ≡ 0, 1 (mod 4) (a set of many segments); control data shared by
//! a block and by parity; and vertices some ranks never reach. That drives
//! every rank set through empty → one rank → two ranks → one segment → many
//! segments.
//!
//! Three things are checked:
//! - every merge path gives `merge_all`'s bytes: `BinomialMerger` fed in rank
//!   order, in reverse and shuffled, and relays forwarding their blocks over
//!   the wire form to a root;
//! - the merged tree is the merge's definition: per vertex and slot, ranks
//!   with equal data share exactly one group, groups are in order of their
//!   lowest rank, and each group's timing is its members' timing;
//! - every rank set encodes as `IntSeq::from_slice` of its ranks does.

mod merge_job;

use cypress::core::{
    merge_all, BinomialMerger, Ctt, CttSlab, IntSeq, MergedCtt, MergedVertex, RankSet, TimeStats,
    VertexData,
};
use cypress::obs::rng::Rng;
use cypress::trace::codec::Codec;

fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0..i + 1));
    }
    order
}

fn binomial(ctts: &[Ctt], order: impl IntoIterator<Item = usize>) -> Vec<u8> {
    let mut bm = BinomialMerger::new(ctts.len() as u32);
    for i in order {
        assert!(bm.add(&ctts[i]));
    }
    bm.finish().to_bytes()
}

/// Relays over ragged contiguous shards add pooled (slab) views; their
/// blocks cross the wire form to the root, shuffled.
fn relayed(ctts: &[Ctt], seed: u64) -> Vec<u8> {
    let p = ctts.len() as u32;
    let cuts = [0, p / 4 + 3, p / 2, (3 * p / 4).saturating_sub(5), p];
    let mut blocks = Vec::new();
    for shard in cuts.windows(2) {
        let mut relay = BinomialMerger::new(p);
        for ctt in &ctts[shard[0] as usize..shard[1] as usize] {
            assert!(relay.add(&CttSlab::from_bytes(&ctt.to_bytes()).unwrap()));
        }
        for (first, count, block) in relay.into_blocks() {
            blocks.push((first, count, block.to_bytes()));
        }
    }
    let mut root = BinomialMerger::new(p);
    for i in shuffled(blocks.len(), seed) {
        let (first, count, bytes) = &blocks[i];
        let block = MergedCtt::from_bytes(bytes).unwrap();
        assert_eq!(block.to_bytes(), *bytes, "block [{first}, +{count})");
        assert_eq!(root.add_block(*first, *count, block), Ok(true));
    }
    root.finish().to_bytes()
}

/// Every group's rank set: ascending, and encoded as the `IntSeq` of its
/// ranks encodes.
fn check_rank_set(rs: &RankSet) -> Vec<u32> {
    let ranks = rs.ranks();
    assert!(ranks.windows(2).all(|w| w[0] < w[1]), "{ranks:?}");
    let seq: Vec<i64> = ranks.iter().map(|&r| r as i64).collect();
    assert_eq!(
        rs.to_bytes(),
        IntSeq::from_slice(&seq).to_bytes(),
        "{ranks:?}"
    );
    ranks
}

/// The merged tree is what the merge is defined to be.
fn check_definition(merged: &MergedCtt, ctts: &[Ctt]) {
    for (gid, mv) in merged.vertices.iter().enumerate() {
        match mv {
            MergedVertex::Empty => {
                for c in ctts {
                    match &c.data[gid] {
                        VertexData::Root => {}
                        VertexData::Leaf { records } => assert!(records.is_empty()),
                        VertexData::Loop { counts: s } | VertexData::Branch { taken: s } => {
                            assert!(s.is_empty())
                        }
                    }
                }
            }
            MergedVertex::Control(groups) => {
                let mut owner = vec![None; ctts.len()];
                let mut lowest = None;
                for (g, (rs, data)) in groups.iter().enumerate() {
                    let ranks = check_rank_set(rs);
                    assert!(lowest < Some(ranks[0]), "vertex {gid}: group order");
                    lowest = Some(ranks[0]);
                    for r in ranks {
                        assert_eq!(&ctts[r as usize].data[gid], data, "vertex {gid} rank {r}");
                        owner[r as usize] = Some(g);
                    }
                }
                // Two ranks with equal data share a group.
                for (g, (_, data)) in groups.iter().enumerate() {
                    assert!(
                        groups[..g].iter().all(|(_, other)| other != data),
                        "vertex {gid}"
                    );
                }
                for (r, c) in ctts.iter().enumerate() {
                    let reached = match &c.data[gid] {
                        VertexData::Loop { counts: s } | VertexData::Branch { taken: s } => {
                            !s.is_empty()
                        }
                        _ => unreachable!(),
                    };
                    assert_eq!(owner[r].is_some(), reached, "vertex {gid} rank {r}");
                }
            }
            MergedVertex::Leaf(slots) => {
                for (slot, groups) in slots.iter().enumerate() {
                    let mut owner = vec![None; ctts.len()];
                    let mut lowest = None;
                    for (g, (rs, rec)) in groups.iter().enumerate() {
                        let ranks = check_rank_set(rs);
                        assert!(lowest < Some(ranks[0]), "vertex {gid} slot {slot}: order");
                        lowest = Some(ranks[0]);
                        let (mut time, mut gap) = (TimeStats::new(), TimeStats::new());
                        for &r in &ranks {
                            let VertexData::Leaf { records } = &ctts[r as usize].data[gid] else {
                                unreachable!()
                            };
                            let mine = &records[slot];
                            assert_eq!((&mine.params, mine.count), (&rec.params, rec.count));
                            time.merge(&mine.time);
                            gap.merge(&mine.gap);
                            owner[r as usize] = Some(g);
                        }
                        assert_eq!((&time, &gap), (&rec.time, &rec.gap));
                    }
                    for (r, c) in ctts.iter().enumerate() {
                        let VertexData::Leaf { records } = &c.data[gid] else {
                            unreachable!()
                        };
                        assert_eq!(owner[r].is_some(), slot < records.len(), "rank {r}");
                        // Two ranks with equal data share a group.
                        if let Some(g) = owner[r] {
                            let rec = &groups[g].1;
                            assert!(groups.iter().enumerate().all(|(h, (_, other))| h == g
                                || (&other.params, other.count) != (&rec.params, rec.count)));
                        }
                    }
                }
            }
        }
    }
    let times: Vec<i64> = ctts.iter().map(|c| c.app_time as i64).collect();
    assert_eq!(merged.app_times.to_vec(), times);
}

fn identity_at(nprocs: u32) {
    let ctts = merge_job::job(nprocs);
    let merged = merge_all(&ctts);
    check_definition(&merged, &ctts);
    let want = merged.to_bytes();
    assert_eq!(MergedCtt::from_bytes(&want).unwrap().to_bytes(), want);

    let n = ctts.len();
    assert!(binomial(&ctts, 0..n) == want, "P {nprocs}: rank order");
    assert!(binomial(&ctts, (0..n).rev()) == want, "P {nprocs}: reverse");
    assert!(
        binomial(&ctts, shuffled(n, 0x5eed)) == want,
        "P {nprocs}: shuffled"
    );
    assert!(relayed(&ctts, 0xb10c) == want, "P {nprocs}: relayed");

    // The shapes are all there: one group of every rank, a one-segment
    // stride-2 set, a stride-3 set, a contiguous block, a many-segment set,
    // and singletons.
    let lens = |gid: usize, slot: usize| -> Vec<u64> {
        let MergedVertex::Leaf(slots) = &merged.vertices[gid] else {
            panic!("vertex {gid} is not a leaf")
        };
        slots[slot].iter().map(|(rs, _)| rs.len()).collect()
    };
    let p = nprocs as u64;
    assert_eq!(lens(1, 0), vec![p]);
    assert_eq!(lens(1, 1), vec![1; nprocs as usize]);
    assert_eq!(
        lens(2, 0).iter().filter(|&&l| l == p.div_ceil(2)).count(),
        1
    );
    assert_eq!(lens(3, 0), vec![(p + 1) / 3]);
    assert_eq!(lens(4, 1), vec![p.div_ceil(4) + (p + 2) / 4]);
}

#[test]
fn merge_identity_at_1024() {
    identity_at(1024);
}

#[test]
fn merge_identity_at_a_ragged_size() {
    identity_at(37);
}

/// `scripts/check.sh` runs this in release: the P = 4096 identity point is
/// beyond the debug test budget.
#[test]
#[ignore = "P = 4096: run in release by scripts/check.sh"]
fn merge_identity_at_4096() {
    identity_at(4096);
}
