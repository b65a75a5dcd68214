//! The merge job `merge_identity.rs` checks and `alloc_counts.rs` weighs:
//! tiny per-rank trees built vertex by vertex, so every rank-set shape a
//! merged group can take is there on purpose.

use cypress::core::{Ctt, EncParams, IntSeq, LeafRecord, TimeStats, VertexData};
use cypress::trace::event::{MpiOp, MpiParams};

fn stats(x: u64) -> TimeStats {
    let mut t = TimeStats::new();
    t.add(x);
    t
}

/// One rank's tree: a root, four leaves and two control vertices.
fn rank_ctt(rank: u32, nprocs: u32) -> Ctt {
    let r = rank as i64;
    let t = 100 + (rank as u64 * 7919) % 1000;
    let rec = |op, p: MpiParams, count: u64| LeafRecord {
        params: EncParams::encode(r, op, &p),
        count,
        time: stats(t),
        gap: stats(t / 3 + 1),
    };
    // Relative peers make `rank + 1` one value for every rank; a count of
    // `1000 + rank` makes a record no other rank has.
    let all = rec(MpiOp::Send, MpiParams::send(r + 1, 64, 0), 4);
    let unique = |tag| rec(MpiOp::Send, MpiParams::send(r + 1, 1000 + r, tag), 1);
    let in_block = (nprocs / 4..nprocs / 2 + 3).contains(&rank);
    let control = |xs: &[i64]| IntSeq::from_slice(xs);
    let data = vec![
        VertexData::Root,
        // Slot 0 shared by all ranks, slot 1 unique to each.
        VertexData::Leaf {
            records: vec![all.clone(), unique(1)],
        },
        // The even ranks share; each odd rank is alone.
        VertexData::Leaf {
            records: vec![if rank.is_multiple_of(2) {
                rec(MpiOp::Allreduce, MpiParams::collective(8), 2)
            } else {
                unique(2)
            }],
        },
        // Only the ranks ≡ 1 (mod 3) reach this leaf.
        VertexData::Leaf {
            records: match rank % 3 {
                1 => vec![rec(MpiOp::Recv, MpiParams::recv(r - 1, 32, 3), 3)],
                _ => vec![],
            },
        },
        // One contiguous block shares slot 0; the ranks ≡ 0, 1 (mod 4) have
        // a shared second slot.
        VertexData::Leaf {
            records: [
                vec![if in_block { all.clone() } else { unique(4) }],
                match rank % 4 {
                    0 | 1 => vec![rec(MpiOp::Barrier, MpiParams::collective(0), 1)],
                    _ => vec![],
                },
            ]
            .concat(),
        },
        // Loop counts shared by the block, else by parity; ranks ≡ 3 (mod 7)
        // never reach the loop.
        VertexData::Loop {
            counts: match rank {
                _ if rank % 7 == 3 => IntSeq::new(),
                _ if in_block => control(&[3, 3, 3]),
                _ if rank.is_multiple_of(2) => control(&[2, 4]),
                _ => control(&[5]),
            },
        },
        // Branch arm taken by parity, and by rank 5 its own way.
        VertexData::Branch {
            taken: match rank {
                5 => control(&[0, 2, 9]),
                _ => control(&[(rank % 2) as i64]),
            },
        },
    ];
    Ctt {
        rank,
        nprocs,
        app_time: 10_000 + t,
        data,
    }
}

/// Every rank's tree of a job of `nprocs` ranks, in rank order.
pub fn job(nprocs: u32) -> Vec<Ctt> {
    (0..nprocs).map(|r| rank_ctt(r, nprocs)).collect()
}
