//! The merge in uneven contiguous chunks, shared by `streaming.rs` and
//! `pipeline_roundtrip.rs`: the cuts fall anywhere, so the runs `add_run`
//! merges and the pieces the one pass meets take every size, through both
//! the scan and the key paths.

use cypress::core::{BinomialMerger, CttSource, MergedCtt};

/// `ctts` (rank order) merged in `k` contiguous chunks whose sizes differ
/// by at most one: even chunks enter a `BinomialMerger` through `add_run`,
/// odd ones as the one block another job-sized merger built from them
/// (a relay's), through `add_block`.
pub fn merge_in_chunks<S: CttSource>(ctts: &[S], k: usize) -> MergedCtt {
    let nprocs = ctts[0].nprocs();
    let mut bm = BinomialMerger::new(nprocs);
    let mut first = 0;
    for i in 0..k {
        let end = ((i + 1) * ctts.len()).div_ceil(k);
        let chunk = &ctts[first..end];
        first = end;
        if i % 2 == 0 {
            bm.add_run(chunk).unwrap();
            continue;
        }
        let mut elsewhere = BinomialMerger::new(nprocs);
        elsewhere.add_run(chunk).unwrap();
        let [(start, len, block)] = <[_; 1]>::try_from(elsewhere.into_blocks()).unwrap();
        assert_eq!(bm.add_block(start, len, block), Ok(true));
    }
    bm.finish()
}
