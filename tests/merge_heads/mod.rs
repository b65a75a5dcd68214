//! The equivalence the merge rests on: two records at one leaf slot are
//! mergeable exactly when their heads — the bytes their parameters and
//! repeat count encode to, which lead a record's encoding — are equal, so
//! the merge compares heads as bytes and decodes no record to join it.

use cypress::core::merge::record_mergeable;
use cypress::core::{CttSource, LeafRecord, VertexRef};
use cypress::trace::Codec;

/// A record's head: its encoding without the two `TimeStats` that end it.
fn head(rec: &LeafRecord) -> Vec<u8> {
    let mut bytes = rec.to_bytes();
    bytes.truncate(bytes.len() - rec.time.to_bytes().len() - rec.gap.to_bytes().len());
    bytes
}

fn records<S: CttSource>(ctt: &S, gid: usize) -> &[LeafRecord] {
    match ctt.vertex(gid) {
        VertexRef::Leaf(records) => records,
        _ => &[],
    }
}

/// Asserts, for every pair of records `ctts` hold at one leaf slot (the
/// pairs a merge of them may test), that [`record_mergeable`] holds
/// exactly when their heads are equal. Returns the number of pairs.
pub fn check_heads_decide_merges<S: CttSource>(ctts: &[S]) -> u64 {
    let mut pairs = 0;
    for gid in 0..ctts.first().map_or(0, |c| c.vertex_count()) {
        let slots = ctts.iter().map(|c| records(c, gid).len()).max();
        for slot in 0..slots.unwrap_or(0) {
            let at: Vec<_> = ctts
                .iter()
                .filter_map(|c| records(c, gid).get(slot))
                .map(|r| (r, head(r)))
                .collect();
            for (i, (a, head_a)) in at.iter().enumerate() {
                for (b, head_b) in &at[i + 1..] {
                    let (mergeable, equal) = (record_mergeable(a, b), head_a == head_b);
                    assert_eq!(
                        mergeable, equal,
                        "vertex {gid} slot {slot}: {a:?} and {b:?}"
                    );
                    pairs += 1;
                }
            }
        }
    }
    pairs
}
