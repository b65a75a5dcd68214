//! The raw-size oracle: a session's `raw_mpi_bytes`, the numerator of every
//! container's compression ratio, is the serialized size of the raw MPI
//! records it took in. The compressor counts it per record opened and, for a
//! record that folds, from its leaf's cached length; this holds that count
//! to `MpiRecord::encoded_len` summed over the recorded trace, on every
//! bundled workload and random program, at a window of 1 and of 4 and with
//! absolute peers.

mod program_gen;

use cypress::core::{CompressConfig, CompressSession, SessionConfig};
use cypress::cst::{analyze_program, Cst};
use cypress::minilang::{check_program, parse};
use cypress::runtime::{trace_program, InterpConfig};
use cypress::trace::event::Event;
use cypress::trace::raw::{raw_mpi_size, RawTrace};
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};
use program_gen::{gen_program, master_seeds};

fn configs() -> [CompressConfig; 3] {
    [
        CompressConfig::default(),
        CompressConfig {
            window: 4,
            ..CompressConfig::default()
        },
        CompressConfig {
            relative_ranks: false,
            ..CompressConfig::default()
        },
    ]
}

/// Stream every rank's trace through a session under each config, checking
/// the running count halfway and the finished one against the oracle.
fn assert_raw_size(what: &str, cst: &Cst, traces: &[RawTrace]) {
    for cfg in configs() {
        for t in traces {
            let oracle = |events: &[Event]| -> u64 {
                let sizes = events.iter().filter_map(Event::as_mpi);
                sizes.map(|r| r.encoded_len() as u64).sum()
            };
            assert_eq!(oracle(&t.events), raw_mpi_size(t) as u64, "{what}");
            let mut s =
                CompressSession::new(cst, t.rank, t.nprocs, cfg.clone(), SessionConfig::default());
            let (head, tail) = t.events.split_at(t.events.len() / 2);
            for ev in head {
                s.push(ev);
            }
            assert_eq!(
                s.stats().raw_mpi_bytes,
                oracle(head),
                "{what}: rank {} {cfg:?}, first half",
                t.rank
            );
            s.push_batch(tail);
            let (_, stats) = s.finish(t.app_time);
            assert_eq!(
                stats.raw_mpi_bytes,
                oracle(&t.events),
                "{what}: rank {} {cfg:?}",
                t.rank
            );
        }
    }
}

fn assert_program(what: &str, src: &str, nprocs: u32) {
    let prog = parse(src).unwrap_or_else(|e| panic!("{what}: {e}"));
    check_program(&prog).unwrap_or_else(|e| panic!("{what}: {e}"));
    let info = analyze_program(&prog);
    let traces = trace_program(&prog, &info, nprocs, &InterpConfig::default())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_raw_size(what, &info.cst, &traces);
}

#[test]
fn raw_size_is_the_encoded_trace_on_every_workload() {
    for name in NPB_NAMES.iter().copied().chain(["jacobi", "leslie3d"]) {
        let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
        let (_, info) = w.compile();
        let traces = w.trace().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_raw_size(name, &info.cst, &traces);
    }
}

#[test]
fn raw_size_is_the_encoded_trace_on_random_programs() {
    for seed in (0..64).chain(master_seeds()) {
        assert_program(
            &format!("seed {seed}"),
            &gen_program(seed),
            4 + (seed % 2) as u32,
        );
    }
}

/// A wildcard `irecv` is counted when it arrives but cached until its
/// completion, so a deferred record can open a leaf's last record after
/// later arrivals at that leaf. One site here posts a wildcard every fourth
/// step and its left neighbour otherwise, so the records a fold is measured
/// against alternate between deferred and in-order ones.
#[test]
fn raw_size_is_the_encoded_trace_with_deferred_wildcards() {
    let src = r#"fn main() {
        for k in 0..40 {
            let w = 1 - (k % 4 + 3) / 4;
            let left = (rank() + size() - 1) % size();
            let a = isend((rank() + 1) % size(), 64, 0);
            let b = irecv(w * any_source() + (1 - w) * left, 64, 0);
            waitall(a, b);
            let c = irecv(any_source(), 8 + 8 * (k % 2), 1);
            let d = irecv(left, 8, 2);
            send((rank() + 1) % size(), 8 + 8 * (k % 2), 1);
            send((rank() + 1) % size(), 8, 2);
            waitall(d, c);
        }
    }"#;
    assert_program("deferred wildcards", src, 4);
}

/// Recursion re-enters open structures and force-closes them; the count
/// does not depend on the tree's shape, only on the records.
#[test]
fn raw_size_is_the_encoded_trace_under_recursion() {
    let src = r#"
        fn pingpong(n) {
            if n > 0 {
                compute(900);
                send((rank() + 1) % size(), 512 * n, 0);
                pingpong(n - 1);
                recv((rank() + size() - 1) % size(), 512 * n, 0);
            }
        }
        fn main() {
            for it in 0..4 {
                pingpong(3);
                allreduce(32);
            }
        }
    "#;
    assert_program("recursion", src, 5);
}
