//! Sharded collector trees must be invisible in the output: clients
//! submitting through relay collectors (in scrambled arrival order, with
//! ragged shard sizes) produce a root job whose merged CTT is
//! **byte-identical** to `merge_all` over locally-compressed ranks, and a
//! dead relay fails loudly — naming its shard's missing ranks — instead of
//! hanging.

use cypress::core::merge_all;
use cypress::cst::analyze_program;
use cypress::minilang::{check_program, parse};
use cypress::net::{
    fetch_stats, spawn_tree, submit_stream, Addr, ClientConfig, ClientState, CollectedJob,
    CollectorConfig, NetError, Tree, TreeConfig,
};
use cypress::runtime::{run_rank_with_sink, InterpConfig};
use cypress::trace::Codec;
use cypress::Pipeline;
use std::time::Duration;

const STENCIL: &str = r#"fn main() {
    for it in 0..40 {
        let up = isend((rank() + 1) % size(), 512, 1);
        let dn = irecv((rank() + size() - 1) % size(), 512, 1);
        waitall(up, dn);
        if it % 10 == 0 { allreduce(8); }
    }
    barrier();
}"#;

fn client_cfg() -> ClientConfig {
    ClientConfig {
        attempts: 5,
        backoff: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
        io_timeout: Duration::from_secs(10),
        chunk_events: 64,
    }
}

fn tree_cfg(relays: u32, nprocs: u32) -> TreeConfig {
    TreeConfig {
        relays,
        nprocs,
        collector: CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        },
        client: client_cfg(),
    }
}

/// Stand up a tree on loopback TCP and submit every rank through its
/// relay's leaf endpoint, in the given order with a small stagger so
/// arrival order actually follows `order`.
fn collect_tree(source: &str, nprocs: u32, relays: u32, order: &[u32]) -> CollectedJob {
    let prog = parse(source).unwrap();
    check_program(&prog).unwrap();
    let info = analyze_program(&prog);
    let cst_text = info.cst.to_text();

    let tree = spawn_tree(
        &Addr::parse("127.0.0.1:0").unwrap(),
        &tree_cfg(relays, nprocs),
    )
    .unwrap();
    // Ceil-division sharding may need fewer relays than requested (6
    // ranks over 4 relays → three shards of 2).
    let nleaves = tree.leaves().len() as u32;
    assert!(nleaves >= 1 && nleaves <= relays.min(nprocs), "{nleaves}");

    std::thread::scope(|s| {
        for (i, &rank) in order.iter().enumerate() {
            let (tree, cst_text, prog, info) = (&tree, &cst_text, &prog, &info);
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(5 * i as u64));
                let leaf = tree.leaf_for_rank(rank);
                submit_stream(leaf, &client_cfg(), rank, nprocs, cst_text, |sink| {
                    run_rank_with_sink(prog, info, rank, nprocs, &InterpConfig::default(), {
                        #[allow(clippy::needless_borrow)]
                        &mut &mut *sink
                    })
                    .map_err(|e| e.to_string())
                })
                .unwrap();
            });
        }
    });
    tree.join().unwrap()
}

fn assert_matches_local(job: &CollectedJob, source: &str, nprocs: u32) {
    let ctts = Pipeline::new(source).ranks(nprocs).run().unwrap().ctts;
    let local = merge_all(&ctts);
    assert_eq!(
        job.merged().to_bytes(),
        local.to_bytes(),
        "tree-collected merge must be byte-identical to local merge_all"
    );
    assert_eq!(
        job.total_events,
        ctts.iter().map(|c| c.op_count()).sum::<u64>()
    );
}

#[test]
fn two_relays_scrambled_arrival_is_byte_identical_to_local_merge() {
    let nprocs = 16u32;
    // Scrambled across shard boundaries: ranks of both shards interleave.
    let order = [9u32, 2, 14, 0, 11, 5, 8, 15, 3, 12, 1, 10, 6, 13, 4, 7];
    let job = collect_tree(STENCIL, nprocs, 2, &order);
    assert_eq!(job.nprocs, nprocs);
    // Relay blocks carry no rank CTTs; the merged tree is the product.
    assert!(job.rank_ctts.is_empty());
    assert_matches_local(&job, STENCIL, nprocs);
}

#[test]
fn ragged_topologies_match_local_merge() {
    // Shards of uneven size (7 ranks over 3 relays → 3+3+1; 6 over 4 →
    // 2+2+2) exercise non-power-of-two block forwarding.
    for (nprocs, relays) in [(7u32, 3u32), (6, 4)] {
        let order: Vec<u32> = (0..nprocs).rev().collect();
        let job = collect_tree(STENCIL, nprocs, relays, &order);
        assert_matches_local(&job, STENCIL, nprocs);
    }
}

#[test]
fn dead_relay_fails_loudly_with_missing_ranks() {
    let nprocs = 8u32;
    let prog = parse(STENCIL).unwrap();
    check_program(&prog).unwrap();
    let info = analyze_program(&prog);
    let cst_text = info.cst.to_text();

    // A client aimed at an endpoint nobody serves gives up loudly.
    let dead = Addr::parse("127.0.0.1:1").unwrap();
    let quick = ClientConfig {
        attempts: 2,
        backoff: Duration::from_millis(1),
        backoff_max: Duration::from_millis(2),
        io_timeout: Duration::from_millis(200),
        ..ClientConfig::default()
    };
    let err = submit_stream(&dead, &quick, 0, nprocs, &cst_text, |_| Ok(0)).unwrap_err();
    assert!(
        matches!(err, NetError::RetriesExhausted { attempts: 2, .. }),
        "{err}"
    );

    // A tree whose second shard never submits (its relay is "dead" from
    // the clients' perspective) must hit the deadline naming ranks 4..8.
    let tree: Tree = spawn_tree(
        &Addr::parse("127.0.0.1:0").unwrap(),
        &TreeConfig {
            relays: 2,
            nprocs,
            collector: CollectorConfig {
                deadline: Some(Duration::from_millis(800)),
                ..CollectorConfig::default()
            },
            client: client_cfg(),
        },
    )
    .unwrap();
    std::thread::scope(|s| {
        for rank in 0..4u32 {
            let (tree, cst_text, prog, info) = (&tree, &cst_text, &prog, &info);
            s.spawn(move || {
                let leaf = tree.leaf_for_rank(rank);
                submit_stream(leaf, &client_cfg(), rank, nprocs, cst_text, |sink| {
                    run_rank_with_sink(prog, info, rank, nprocs, &InterpConfig::default(), {
                        #[allow(clippy::needless_borrow)]
                        &mut &mut *sink
                    })
                    .map_err(|e| e.to_string())
                })
                .unwrap();
            });
        }
    });
    let err = tree.join().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("deadline"), "{msg}");
    for r in ["4", "5", "6", "7"] {
        assert!(msg.contains(r), "missing rank {r} not named: {msg}");
    }
}

/// Every endpoint of a tree answers a stats poll on the address its clients
/// use: each relay leaf reports its own shard's progress against the whole
/// job's size, and the root, which no relay has reached yet, reports none.
#[test]
fn relay_leaves_and_root_answer_stats_on_their_client_address() {
    let nprocs = 8u32;
    let prog = parse(STENCIL).unwrap();
    check_program(&prog).unwrap();
    let info = analyze_program(&prog);
    let cst_text = info.cst.to_text();
    let dir = std::env::temp_dir().join(format!("cypress-tree-stats-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let root = Addr::parse(&format!("unix:{}", dir.join("root.sock").display())).unwrap();
    let tree = spawn_tree(&root, &tree_cfg(2, nprocs)).unwrap();
    assert_eq!(tree.ranges(), [(0, 4), (4, 8)]);
    let submit = |rank: u32| {
        submit_stream(
            tree.leaf_for_rank(rank),
            &client_cfg(),
            rank,
            nprocs,
            &cst_text,
            |sink| {
                run_rank_with_sink(&prog, &info, rank, nprocs, &InterpConfig::default(), {
                    #[allow(clippy::needless_borrow)]
                    &mut &mut *sink
                })
                .map_err(|e| e.to_string())
            },
        )
        .unwrap();
    };
    // Neither shard is complete, so nothing has been forwarded to the root.
    for rank in [0, 1, 2, 4] {
        submit(rank);
    }
    let poll = |addr: &Addr| fetch_stats(addr, Duration::from_secs(5)).unwrap();
    for (leaf, merged) in tree.leaves().iter().zip([vec![0, 1, 2], vec![4]]) {
        let s = poll(leaf);
        assert_eq!(s.nprocs, nprocs, "{leaf}");
        assert_eq!(s.ranks_done, merged.len() as u32, "{leaf}");
        let rows: Vec<_> = s.clients.iter().map(|c| (c.rank, c.state)).collect();
        let want: Vec<_> = merged.iter().map(|&r| (r, ClientState::Merged)).collect();
        assert_eq!(rows, want, "{leaf}");
    }
    let s = poll(&root);
    assert_eq!((s.nprocs, s.ranks_done), (0, 0));
    assert!(s.clients.is_empty());

    for rank in [3, 5, 6, 7] {
        submit(rank);
    }
    let job = tree.join().unwrap();
    assert_matches_local(&job, STENCIL, nprocs);
    let _ = std::fs::remove_dir_all(&dir);
}
