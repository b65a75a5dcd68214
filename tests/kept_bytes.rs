//! A merged tree keeps each leaf group that never merged as the bytes the
//! merged codec writes for it. These tests hold every such group to what
//! decoding it and encoding the result writes — the bytes an owned group
//! gives — on the trees of every bundled workload, of the P = 64 and 1024
//! merge jobs, merged, relayed through blocks and read back. `wire_sweep.rs`
//! holds the same on every damaged merged tree it sweeps that decodes.

mod merge_job;

use cypress::core::{compress_trace, merge_all, BinomialMerger, CompressConfig, Ctt, MergedCtt};
use cypress::trace::Codec;
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};

/// `tree`'s kept groups checked and counted.
fn kept(what: &str, tree: &MergedCtt) -> usize {
    tree.check_kept_groups()
        .unwrap_or_else(|e| panic!("{what}: {e}"))
}

/// `merge_all`, the same tree read back from its bytes, and a root's
/// `finish` over two relays' blocks read from theirs: every kept group is
/// its own bytes, and the three trees encode alike. Returns the groups
/// `merge_all` kept.
fn check_job(what: &str, ctts: &[Ctt]) -> usize {
    let merged = merge_all(ctts);
    let bytes = merged.to_bytes();
    let made = kept(what, &merged);
    let read = MergedCtt::from_bytes(&bytes).unwrap();
    kept(what, &read);
    let p = ctts.len() as u32;
    let mut root = BinomialMerger::new(p);
    for shard in [0..p / 3, p / 3..p] {
        let mut relay = BinomialMerger::new(p);
        relay
            .add_run(&ctts[shard.start as usize..shard.end as usize])
            .unwrap();
        for (first, count, block) in relay.into_blocks() {
            let block = MergedCtt::from_bytes(&block.to_bytes()).unwrap();
            kept(what, &block);
            assert_eq!(root.add_block(first, count, block), Ok(true));
        }
    }
    let finished = root.finish();
    kept(what, &finished);
    assert!(
        read.to_bytes() == bytes && finished.to_bytes() == bytes,
        "{what}"
    );
    made
}

#[test]
fn kept_groups_are_their_bytes_on_every_bundled_workload() {
    let mut made = 0;
    for name in NPB_NAMES.iter().chain(&["jacobi", "leslie3d"]) {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap();
        let cfg = CompressConfig::default();
        let ctts: Vec<Ctt> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &cfg))
            .collect();
        made += check_job(name, &ctts);
    }
    // Regular codes merge every group; the irregular ones keep some.
    assert!(made > 0);
}

#[test]
fn kept_groups_are_their_bytes_on_the_merge_jobs() {
    for p in [64, 1024] {
        assert!(check_job(&format!("merge job P {p}"), &merge_job::job(p)) > 0);
    }
}
