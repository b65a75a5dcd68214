//! Loopback networked collection must be indistinguishable from the local
//! pipeline: N clients submitting out of order produce a merged CTT
//! **byte-identical** to `merge_all` over locally-compressed ranks, a
//! client killed mid-stream and retried must not corrupt the job, and
//! every bundled workload collected over the wire must decompress and
//! query exactly like its local run.

use cypress::core::{merge_all, Ctt};
use cypress::cst::analyze_program;
use cypress::minilang::{check_program, parse};
use cypress::net::proto::{read_frame, write_frame, Hello};
use cypress::net::{
    submit_stream, Addr, ClientConfig, CollectedJob, Collector, CollectorConfig, Frame, Stream,
    SubmitMode, PROTO_VERSION,
};
use cypress::runtime::{run_rank_with_sink, InterpConfig};
use cypress::trace::event::Event;
use cypress::trace::Codec;
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};
use cypress::{read_container, write_collected_container, Pipeline, QueryOptions};
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

/// Run a collector on an ephemeral TCP port and submit every rank of
/// `source` from its own thread, in the given order with a small stagger
/// so arrival order actually follows `order`.
fn collect_loopback(source: &str, nprocs: u32, order: &[u32]) -> CollectedJob {
    let prog = parse(source).unwrap();
    check_program(&prog).unwrap();
    let info = analyze_program(&prog);
    let cst_text = info.cst.to_text();

    let collector = Collector::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
    let addr = collector.local_addr().unwrap();
    let cfg = CollectorConfig {
        deadline: Some(Duration::from_secs(60)),
        ..CollectorConfig::default()
    };
    let server = std::thread::spawn(move || collector.run(&cfg).unwrap());

    std::thread::scope(|s| {
        for (i, &rank) in order.iter().enumerate() {
            let (addr, cst_text, prog, info) = (&addr, &cst_text, &prog, &info);
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(10 * i as u64));
                submit_stream(addr, &client_cfg(), rank, nprocs, cst_text, |sink| {
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
    server.join().unwrap()
}

fn local_ctts(source: &str, nprocs: u32) -> Vec<Ctt> {
    Pipeline::new(source).ranks(nprocs).run().unwrap().ctts
}

#[test]
fn out_of_order_submission_is_byte_identical_to_local_merge() {
    let nprocs = 8u32;
    // A deliberately scrambled arrival order (no sorted prefix anywhere).
    let order = [5u32, 2, 7, 0, 6, 1, 4, 3];
    let job = collect_loopback(STENCIL, nprocs, &order);

    let ctts = local_ctts(STENCIL, nprocs);
    let local = merge_all(&ctts);
    assert_eq!(
        job.merged().to_bytes(),
        local.to_bytes(),
        "networked merge must be byte-identical to local merge_all"
    );
    assert_eq!(job.rank_ctts.len(), nprocs as usize);
    for ((rank, bytes), want) in job.rank_ctts.iter().zip(&ctts) {
        assert_eq!(*rank, want.rank);
        assert_eq!(*bytes, want.to_bytes(), "rank {rank} CTT differs");
    }
    assert_eq!(
        job.total_events,
        ctts.iter().map(|c| c.op_count()).sum::<u64>()
    );
}

#[test]
fn killed_mid_stream_client_retry_leaves_job_uncorrupted() {
    let nprocs = 4u32;
    let prog = parse(STENCIL).unwrap();
    check_program(&prog).unwrap();
    let info = analyze_program(&prog);
    let cst_text = info.cst.to_text();

    let collector = Collector::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
    let addr = collector.local_addr().unwrap();
    let cfg = CollectorConfig {
        deadline: Some(Duration::from_secs(60)),
        ..CollectorConfig::default()
    };
    let server = std::thread::spawn(move || collector.run(&cfg).unwrap());

    // Rank 2's first attempt dies mid-stream: real Hello, real events, no
    // Finish — the socket just drops, as if the process was killed. The
    // collector must discard the partial session.
    let mut events: Vec<Event> = Vec::new();
    run_rank_with_sink(
        &prog,
        &info,
        2,
        nprocs,
        &InterpConfig::default(),
        &mut events,
    )
    .unwrap();
    assert!(events.len() > 32, "need a non-trivial partial stream");
    {
        let mut s = Stream::connect(&addr, Duration::from_secs(5)).unwrap();
        write_frame(
            &mut s,
            &Frame::Hello(Hello {
                version: PROTO_VERSION,
                rank: 2,
                nprocs,
                mode: SubmitMode::Stream,
                cst_text: cst_text.clone(),
            }),
        )
        .unwrap();
        match read_frame(&mut s).unwrap() {
            Frame::HelloAck { already_done, .. } => assert!(!already_done),
            f => panic!("expected HelloAck, got {}", f.name()),
        }
        write_frame(
            &mut s,
            &Frame::Events {
                events: events[..32].to_vec(),
            },
        )
        .unwrap();
        // Drop without Finish: the "kill".
    }

    // Now every rank submits properly, rank 2 last (its retry).
    std::thread::scope(|s| {
        for (i, rank) in [0u32, 1, 3, 2].into_iter().enumerate() {
            let (addr, cst_text, prog, info) = (&addr, &cst_text, &prog, &info);
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(15 * i as u64));
                let out = submit_stream(addr, &client_cfg(), rank, nprocs, cst_text, |sink| {
                    run_rank_with_sink(prog, info, rank, nprocs, &InterpConfig::default(), {
                        &mut &mut *sink
                    })
                    .map_err(|e| e.to_string())
                })
                .unwrap();
                assert!(!out.already_done, "rank {rank} was not previously merged");
            });
        }
    });

    let job = server.join().unwrap();
    let local = merge_all(&local_ctts(STENCIL, nprocs));
    assert_eq!(
        job.merged().to_bytes(),
        local.to_bytes(),
        "a killed-and-retried client must not corrupt the merged job"
    );
}

#[test]
fn every_bundled_workload_collects_identically() {
    let dir = std::env::temp_dir().join(format!("cypress-netwl-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for name in NPB_NAMES {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let order: Vec<u32> = (0..w.nprocs).rev().collect();
        let job = collect_loopback(&w.source, w.nprocs, &order);

        let mut local = Pipeline::new(w.source.clone())
            .ranks(w.nprocs)
            .run()
            .unwrap();
        assert_eq!(
            job.merged().to_bytes(),
            local.merge().to_bytes(),
            "{name}: merged CTT bytes differ between network and local paths"
        );

        // Container round trip: a collected job must query and decompress
        // exactly like the local pipeline.
        let path = dir.join(format!("{name}.cytc"));
        write_collected_container(&job, &path, true).unwrap();
        let loaded = read_container(&path).unwrap();
        assert_eq!(
            loaded.query(&QueryOptions::default()).unwrap(),
            local.query().unwrap(),
            "{name}: query results differ"
        );
        for rank in 0..w.nprocs {
            assert_eq!(
                loaded.decompress(rank).unwrap(),
                local.decompress(rank).unwrap(),
                "{name}: rank {rank} replay differs"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
