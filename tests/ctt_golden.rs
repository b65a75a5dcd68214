//! The compressor's cross-commit oracle: committed CRC-32 digests of every
//! rank's CTT encoding and of the merged tree's, per bundled workload.
//!
//! The identity suites next to this one compare two computations of one
//! commit with each other (`Pipeline::run` against the offline reference,
//! one pool width against another, local against collected); a change that
//! moved all of them alike — a record folded differently, a rank set encoded
//! in another order — would pass every one. This table pins the bytes
//! themselves, the way `interp_golden.rs` pins the event stream under them.
//! The rows for `random_programs.rs`' seeds live beside its generator.
//!
//! To re-capture after an *intended* byte change, run the test and paste the
//! table it prints on mismatch.

mod ctt_digest;

use ctt_digest::{assert_matches, job_digest, Row};
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};
use cypress::{Pipeline, PipelineConfig};

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("bt@9", 0xe5582f01, 0x4cb8ccf3),
    ("bt@64", 0x03069eb8, 0x578b193f),
    ("cg@8", 0xcd528114, 0xe0d79aad),
    ("cg@64", 0xb854223d, 0x4227fded),
    ("dt@8", 0x5eafae26, 0xdc9c3df6),
    ("dt@64", 0x4e66a431, 0x6356f591),
    ("ep@8", 0x67bef7ec, 0xd3041bf6),
    ("ep@64", 0x9a1386a7, 0x88bcac70),
    ("ft@8", 0x85edb0c2, 0x8d0b3ea7),
    ("ft@64", 0xe04d36f3, 0x36f02d55),
    ("lu@8", 0x705a0849, 0x4f955608),
    ("lu@64", 0x32c0622b, 0x94b6584e),
    ("mg@8", 0x76aca1d7, 0x89b5d3e4),
    ("mg@64", 0x1fc954ec, 0x00123a10),
    ("sp@9", 0x791a3c2a, 0xfdb0ff2c),
    ("sp@64", 0x174d76be, 0x07ba3676),
    ("jacobi@8", 0x130165e1, 0x751e5d3b),
    ("jacobi@64", 0xb6e25505, 0x564ba726),
    ("leslie3d@16", 0x7a2c54eb, 0x2a154dc3),
    ("leslie3d@64", 0x4f2939df, 0x50dade4b),
];

#[test]
fn ctt_bytes_match_the_digests_captured_before_the_ingest_deletion() {
    let mut actual = Vec::new();
    for name in NPB_NAMES.iter().copied().chain(["jacobi", "leslie3d"]) {
        for nprocs in [quick_procs(name), 64] {
            let w = by_name(name, nprocs, Scale::Quick).expect("bundled workload");
            let mut job = Pipeline::new(w.source)
                .ranks(nprocs)
                .configure(PipelineConfig {
                    threads: 4,
                    ..PipelineConfig::default()
                })
                .run()
                .unwrap_or_else(|e| panic!("{name}@{nprocs}: {e}"));
            job.merge();
            let merged = job.merged.as_ref().expect("merged above");
            actual.push((format!("{name}@{nprocs}"), job_digest(&job.ctts, merged)));
        }
    }
    assert_matches("tests/ctt_golden.rs::GOLDEN", &actual, GOLDEN);
}
