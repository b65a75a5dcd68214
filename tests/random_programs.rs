//! Property-based fuzzing of the whole pipeline with randomly generated
//! MiniMPI programs.
//!
//! A seeded generator builds arbitrary (but well-formed, terminating,
//! valid-peer) SPMD programs with nested loops, rank-dependent branches,
//! user functions, non-blocking pairs, and collectives. For each program we
//! check the three headline invariants:
//!
//! 1. the CFG-based CST (Algorithm 1/2) equals the direct-AST oracle,
//! 2. `decompress(compress(trace))` reproduces each rank's exact sequence,
//! 3. compressed-domain queries (volume matrix, profile, totals, hot spots)
//!    equal the decompress-then-analyze reference, at both even and odd
//!    world sizes and with wildcard receives in the mix, and
//! 4. CTT-native analysis (LogGP replay prediction + late-sender waits)
//!    equals the decompress-then-analyze oracle exactly, tracks the
//!    raw-trace `simmpi::simulate` within the timing-averaging tolerance,
//!    and agrees with both on which programs are replay-invalid.
//!
//! Each seed's CTT bytes are also pinned across commits: `check_seed` returns
//! the job's digest row (see `ctt_digest`), compared against the tables
//! committed at the bottom of this file — the random-program half of
//! `ctt_golden.rs`.

mod ctt_digest;
mod footprint;
mod lossless;
mod merge_heads;
mod program_gen;

use ctt_digest::{assert_matches, job_digest, Row};
use cypress::analysis::{analyze_by_decompression, analyze_ctts, AnalyzeOptions};
use cypress::core::{compress_trace, decompress, merge_all, CompressConfig};
use cypress::cst::{analyze_program_with, IntraBuilder};
use cypress::minilang::{check_program, parse};
use cypress::query::{query_by_decompression, query_ctts, QueryOptions, Window};
use cypress::runtime::{trace_program, InterpConfig};
use cypress::simmpi::{from_raw_traces, simulate_traced, LogGp};
use footprint::{assert_footprint_is_the_walk, assert_trimmed};
use lossless::assert_per_rank_container_loses_nothing;
use program_gen::{gen_program, master_seeds};

/// Check every invariant for one seed; returns its CTT digest row.
fn check_seed(seed: u64) -> (u32, u32) {
    let src = gen_program(seed);
    let prog = parse(&src).unwrap_or_else(|e| panic!("seed {seed}: parse error {e}\n{src}"));
    check_program(&prog).unwrap_or_else(|e| panic!("seed {seed}: check error {e}\n{src}"));

    // Pretty-printer round trip: print(parse(src)) re-parses to the same AST.
    let printed = cypress::minilang::print_program(&prog);
    let reparsed = parse(&printed).unwrap_or_else(|e| {
        panic!("seed {seed}: printed source does not re-parse: {e}\n{printed}")
    });
    assert!(
        cypress::minilang::structurally_equal(&prog, &reparsed),
        "seed {seed}: pretty-print round trip diverged"
    );

    // Invariant 1: CFG-based CST equals the AST oracle.
    let a = analyze_program_with(&prog, IntraBuilder::Ast);
    let b = analyze_program_with(&prog, IntraBuilder::Cfg);
    assert_eq!(
        a.cst.to_compact_string(),
        b.cst.to_compact_string(),
        "seed {seed}: CST builders disagree\n{src}"
    );
    assert!(b.cst.is_preorder());

    // The CST text serialization round-trips for arbitrary program trees.
    let text = b.cst.to_text();
    let parsed = cypress::cst::Cst::from_text(&text)
        .unwrap_or_else(|e| panic!("seed {seed}: CST text parse failed: {e}"));
    assert_eq!(parsed, b.cst, "seed {seed}: CST text round trip");

    // Invariant 2: per-rank sequence preservation through compression.
    // Alternate between even and odd world sizes so relative-rank and
    // modulo peer encodings are exercised off the power-of-two happy path.
    let nprocs = 4 + (seed % 2) as u32;
    let traces = trace_program(&prog, &b, nprocs, &InterpConfig::default())
        .unwrap_or_else(|e| panic!("seed {seed}: trace error {e}\n{src}"));
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&b.cst, t, &cfg))
        .collect();
    let digest = job_digest(&ctts, &merge_all(&ctts));
    // The merge joins records by their head bytes: equal exactly when the
    // records are mergeable.
    merge_heads::check_heads_decide_merges(&ctts);
    // The compressor's running footprint is the walk, and finished trees,
    // `compress_trace`'s included, are trimmed.
    for (t, ctt) in traces.iter().zip(&ctts) {
        assert_footprint_is_the_walk(&b.cst, t, &format!("seed {seed}"));
        assert_trimmed(ctt, &format!("seed {seed}"));
    }
    for (t, ctt) in traces.iter().zip(&ctts) {
        let replay = decompress(&b.cst, ctt);
        let want: Vec<_> = t
            .mpi_records()
            .map(|r| (r.gid, r.op, r.params.clone()))
            .collect();
        let got: Vec<_> = replay
            .iter()
            .map(|o| (o.gid, o.op, o.params.clone()))
            .collect();
        assert_eq!(got, want, "seed {seed}: rank {} diverged\n{src}", t.rank);
    }

    // Invariant 3: compressed-domain queries equal decompress-then-analyze.
    // The generator emits wildcard receives (`irecv(any_source(), ..)`), so
    // this also covers the symbolic treatment of MPI_ANY_SOURCE.
    let q = query_ctts(&b.cst, &ctts, &QueryOptions::default())
        .unwrap_or_else(|e| panic!("seed {seed}: query error {e}\n{src}"));
    let r = query_by_decompression(&b.cst, &ctts)
        .unwrap_or_else(|e| panic!("seed {seed}: reference query error {e}\n{src}"));
    assert_eq!(
        q.matrix, r.matrix,
        "seed {seed}: comm matrix diverged\n{src}"
    );
    assert_eq!(q.profile, r.profile, "seed {seed}: profile diverged\n{src}");
    assert_eq!(
        q.totals, r.totals,
        "seed {seed}: rank totals diverged\n{src}"
    );
    assert_eq!(
        q.hotspots, r.hotspots,
        "seed {seed}: hot spots diverged\n{src}"
    );
    assert_eq!(
        q.loop_trips, r.loop_trips,
        "seed {seed}: loop trips diverged\n{src}"
    );
    assert_eq!(
        q.hotspot_volume(),
        q.total_volume(),
        "seed {seed}: hot-spot bytes do not sum to matrix volume\n{src}"
    );

    // Invariant 4: compressed-domain analysis equals the oracle. Random
    // programs may put collectives behind rank-dependent branches — that
    // traces fine but cannot be replayed (a real run would deadlock), so
    // the invariant for those seeds is that every path diagnoses them.
    let model = LogGp::default();
    let native = analyze_ctts(&b.cst, &ctts, &model, &AnalyzeOptions::default());
    let oracle = analyze_by_decompression(&b.cst, &ctts, &model, &AnalyzeOptions::default());
    let raw = simulate_traced(&from_raw_traces(&traces), &model);
    match (native, oracle) {
        (Ok(native), Ok(oracle)) => {
            assert_eq!(
                native.predicted, oracle.predicted,
                "seed {seed}: prediction diverged from oracle\n{src}"
            );
            assert_eq!(
                native.waits, oracle.waits,
                "seed {seed}: late-sender waits diverged from oracle\n{src}"
            );
            // The raw-trace simulator sees exact per-instance gaps where the
            // CTT replays each merged record's mean; the predicted totals
            // agree within the averaging error (measured max 0.07% across
            // both seed streams — most seeds are exactly equal).
            let (raw, _) = raw.unwrap_or_else(|e| {
                panic!("seed {seed}: raw trace failed but compressed replay ran: {e}\n{src}")
            });
            let drift =
                (native.predicted.total as f64 - raw.total as f64).abs() / raw.total.max(1) as f64;
            assert!(
                drift <= 0.005,
                "seed {seed}: CTT prediction {} vs raw-trace simulate {} ({:.3}% off)\n{src}",
                native.predicted.total,
                raw.total,
                drift * 100.0,
            );
            // A full-span window takes the windowed replay path (clock
            // reconstruction + wait pruning) and must change nothing.
            let span = AnalyzeOptions {
                window: Some(Window {
                    start_ns: 0,
                    end_ns: u64::MAX,
                }),
            };
            let windowed = analyze_ctts(&b.cst, &ctts, &model, &span)
                .unwrap_or_else(|e| panic!("seed {seed}: full-span window failed: {e}\n{src}"));
            assert_eq!(
                windowed.predicted, native.predicted,
                "seed {seed}: full-span window changed the prediction\n{src}"
            );
            assert_eq!(
                windowed.waits, native.waits,
                "seed {seed}: full-span window changed the wait report\n{src}"
            );
        }
        (Err(_), Err(_)) => {
            assert!(
                raw.is_err(),
                "seed {seed}: raw trace simulates but compressed analysis failed\n{src}"
            );
        }
        (a, b) => panic!(
            "seed {seed}: native and oracle disagree on replay validity: {a:?} vs {b:?}\n{src}"
        ),
    }
    digest
}

/// Analyze one source at a world size; assert the partial-expansion
/// (recursion) fallback fired and the CTT-native report equals the
/// decompress-then-analyze oracle exactly. Returns the native report plus
/// the raw-trace simulation for callers that can compare against it.
fn analyze_recursive(
    src: &str,
    nprocs: u32,
) -> (cypress::analysis::AnalyzeReport, cypress::simmpi::SimResult) {
    let prog = parse(src).unwrap();
    check_program(&prog).unwrap();
    let b = analyze_program_with(&prog, IntraBuilder::Cfg);
    let traces = trace_program(&prog, &b, nprocs, &InterpConfig::default()).unwrap();
    let cfg = CompressConfig::default();
    let ctts: Vec<_> = traces
        .iter()
        .map(|t| compress_trace(&b.cst, t, &cfg))
        .collect();
    let model = LogGp::default();
    let native = analyze_ctts(&b.cst, &ctts, &model, &AnalyzeOptions::default()).unwrap();
    let oracle =
        analyze_by_decompression(&b.cst, &ctts, &model, &AnalyzeOptions::default()).unwrap();
    assert!(
        native.stats.flattened,
        "nprocs={nprocs}: recursion should force the flatten fallback"
    );
    assert_eq!(native.predicted, oracle.predicted, "nprocs={nprocs}");
    assert_eq!(native.waits, oracle.waits, "nprocs={nprocs}");
    let (raw, _) = simulate_traced(&from_raw_traces(&traces), &model).unwrap();
    (native, raw)
}

/// The forced partial-expansion path: recursion cannot lower to a schedule,
/// so the analysis flattens the whole job — and must still match the
/// decompress-then-analyze oracle exactly at even and odd world sizes.
/// Tail recursion replays in exact trace order, so there the prediction
/// also tracks the raw-trace simulator within the averaging tolerance.
#[test]
fn recursive_programs_flatten_and_match_oracle() {
    for nprocs in [4u32, 5] {
        // Tail recursion: the pseudo-loop replay *is* the traced order.
        let tail = r#"
            fn walk(n) {
                if n > 0 {
                    compute(900);
                    send((rank() + 1) % size(), 512, 0);
                    recv((rank() + size() - 1) % size(), 512, 0);
                    walk(n - 1);
                }
            }
            fn main() {
                walk(6);
                allreduce(32);
            }
        "#;
        let (native, raw) = analyze_recursive(tail, nprocs);
        let drift =
            (native.predicted.total as f64 - raw.total as f64).abs() / raw.total.max(1) as f64;
        assert!(
            drift <= 0.005,
            "nprocs={nprocs}: tail-recursive prediction {} vs raw-trace simulate {}",
            native.predicted.total,
            raw.total
        );

        // Non-tail recursion: the pseudo-loop linearizes the unwind (the
        // documented approximate case, DESIGN.md §"Partial-expansion
        // fallback"), so raw-trace order is not reproduced — the pinned
        // invariant is exact equality with the decompression oracle, which
        // `analyze_recursive` asserted above.
        let pingpong = r#"
            fn pingpong(n) {
                if n > 0 {
                    compute(900);
                    send((rank() + 1) % size(), 512, 0);
                    pingpong(n - 1);
                    recv((rank() + size() - 1) % size(), 512, 0);
                }
            }
            fn main() {
                for it in 0..4 {
                    pingpong(3);
                    allreduce(32);
                }
            }
        "#;
        let (native, _raw) = analyze_recursive(pingpong, nprocs);
        assert!(native.predicted.total > 0);
    }
}

#[test]
fn random_programs_round_trip() {
    // 80 wide-range seeds derived from one master stream (the replacement
    // for the proptest `any::<u64>()` sweep; fully deterministic).
    let actual: Vec<_> = master_seeds()
        .map(|seed| (format!("{seed:#018x}"), check_seed(seed)))
        .collect();
    assert_matches(
        "tests/random_programs.rs::MASTER_GOLDEN",
        &actual,
        MASTER_GOLDEN,
    );
}

#[test]
fn specific_seeds_round_trip() {
    // Fixed small seeds keep a deterministic floor of coverage independent
    // of the master-stream constants above.
    let actual: Vec<_> = (0..64u64)
        .map(|seed| (seed.to_string(), check_seed(seed)))
        .collect();
    assert_matches(
        "tests/random_programs.rs::FIXED_GOLDEN",
        &actual,
        FIXED_GOLDEN,
    );
}

/// A per-rank container of a random program stores no merged section and
/// still rebuilds it, and answers, exactly (even and odd world sizes).
#[test]
fn per_rank_containers_of_random_programs_lose_nothing() {
    let dir = std::env::temp_dir().join(format!("cypress-random-ranks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for seed in 0..8u64 {
        let mut job = cypress::Pipeline::new(gen_program(seed))
            .ranks(4 + (seed % 2) as u32)
            .run()
            .unwrap();
        assert_per_rank_container_loses_nothing(&format!("seed{seed}"), &mut job, &dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[rustfmt::skip]
const MASTER_GOLDEN: &[Row] = &[
    ("0x6e789e6aa1b965f4", 0x9196644b, 0x608183c2),
    ("0x06c45d188009454f", 0xeae184ca, 0xfbf0c46d),
    ("0xf88bb8a8724c81ec", 0x7c2dd79a, 0x4f3c0e3c),
    ("0x1b39896a51a8749b", 0xc4d33c92, 0x2488c81c),
    ("0x53cb9f0c747ea2ea", 0xad9d0cf2, 0x6e78a01d),
    ("0x2c829abe1f4532e1", 0xcb18e4ad, 0x376851d3),
    ("0xc584133ac916ab3c", 0x32606f38, 0xde1be31e),
    ("0x3ee5789041c98ac3", 0x20c249cb, 0x821da6a2),
    ("0xf3b8488c368cb0a6", 0xb2f2b80b, 0x35ad7b86),
    ("0x657eecdd3cb13d09", 0x88131929, 0x2a956c04),
    ("0xc2d326e0055bdef6", 0x6cdf34e1, 0xf6300c90),
    ("0x8621a03fe0bbdb7b", 0x19c6c82a, 0x7d5d25ec),
    ("0x8e1f7555983aa92f", 0x3438cdea, 0x4b2eeaff),
    ("0xb54e0f1600cc4d19", 0xc66ffb4d, 0xca1429b6),
    ("0x84bb3f97971d80ab", 0xc2d80239, 0x319bbc78),
    ("0x7d29825c75521255", 0x1012ead4, 0x3db1a3d3),
    ("0xc3cf17102b7f7f86", 0x39c6e0e0, 0xf59d6b93),
    ("0x3466e9a083914f64", 0x2967f961, 0x4d145e2c),
    ("0xd81a8d2b5a4485ac", 0x2fa0e679, 0x6ff3c0ea),
    ("0xdb01602b100b9ed7", 0xb75a1028, 0xf0443614),
    ("0xa9038a921825f10d", 0x63272972, 0x93c59741),
    ("0xedf5f1d90dca2f6a", 0xccfdac83, 0xc362e32d),
    ("0x54496ad67bd2634c", 0xd4e9f076, 0xc4028643),
    ("0xdd7c01d4f5407269", 0x38100942, 0x3524dbb7),
    ("0x935e82f1db4c4f7b", 0x70b10c0e, 0x30ec8a62),
    ("0x69b82ebc92233300", 0x958a05dd, 0x8e0bbca5),
    ("0x40d29eb57de1d510", 0xa2ddf34d, 0x173fa7b3),
    ("0xa2f09dabb45c6316", 0x58fce586, 0x4e9db7e2),
    ("0xee521d7a0f4d3872", 0x6e3bf03b, 0x1a90bab4),
    ("0xf16952ee72f3454f", 0x1da711d6, 0x76bf81bc),
    ("0x377d35dea8e40225", 0x9ec45327, 0xadb63f97),
    ("0x0c7de8064963bab0", 0xedf70634, 0x80503bc8),
    ("0x05582d37111ac529", 0x98a09911, 0x95ff32e6),
    ("0xd254741f599dc6f7", 0x4973d1c6, 0xe810d908),
    ("0x69630f7593d108c3", 0xfd649cc8, 0x90a8a846),
    ("0x417ef96181daa383", 0xe454d618, 0xc0f190d4),
    ("0x3c3c41a3b43343a1", 0x1cdfbf20, 0x5a674498),
    ("0x6e19905dcbe531df", 0x9965d3ce, 0xcf52e619),
    ("0x4fa9fa7324851729", 0xe5a99cc3, 0xaf1169ae),
    ("0x84eb4454a792922a", 0xe715a82b, 0xe4789300),
    ("0x134f7096918175ce", 0x74b3088d, 0x2bcf48f8),
    ("0x07dc930b302278a8", 0xb78a234e, 0x90370bee),
    ("0x12c015a97019e937", 0x97ab6ad6, 0xe3bd3fdb),
    ("0xcc06c31652ebf438", 0x98a7ea13, 0x4ff4cb5f),
    ("0xecee65630a691e37", 0xe5a0f6b0, 0xe6d032e8),
    ("0x3e84ecb1763e79ad", 0xe3dc8df2, 0xf31a7d7c),
    ("0x690ed476743aae49", 0x6bf7d860, 0xdd5de66c),
    ("0x774615d7b1a1f2e1", 0xc6618e35, 0x9c36f896),
    ("0x22b353f04f4f52da", 0x579822bd, 0xbbf218ed),
    ("0xe3ddd86ba71a5eb1", 0x7be91612, 0xa1013cb0),
    ("0xdf268adeb6513356", 0x87330af5, 0xde5d73bf),
    ("0x2098eb73d4367d77", 0xc8baf501, 0xd8ddc98e),
    ("0x03d6845323ce3c71", 0x44718240, 0x3cb010e6),
    ("0xc952c5620043c714", 0x03b1899a, 0x802f9e1e),
    ("0x9b196bca844f1705", 0xc6618e35, 0x9c36f896),
    ("0x30260345dd9e0ec1", 0x4fb9790c, 0xb5c5c19f),
    ("0xcf448a5882bb9698", 0xda5293fb, 0xc86dc6f2),
    ("0xf4a578dccbc87656", 0xd188ca3c, 0x8a31ea6a),
    ("0xbfdeaed9a17b3c8f", 0x64c06eda, 0x453fe066),
    ("0xed79402d1d5c5d7b", 0x013f5add, 0x0d0ec6f7),
    ("0x55f070ab1cbbf170", 0x5193e299, 0xe830f03c),
    ("0x3e00a34929a88f1d", 0xa549fa27, 0xd595bde0),
    ("0xe255b237b8bb18fb", 0xca492eb0, 0x920a7698),
    ("0x2a7b67af6c6ad50e", 0x6e0f47be, 0x31bfdef6),
    ("0x466d5e7f3e46f143", 0xc5209d12, 0xca636d6c),
    ("0x42375cb399a4fc72", 0xac3163d6, 0x2b65646f),
    ("0x8c8a1f148a8bb259", 0xbbd47fff, 0x7ab7ed79),
    ("0x32fcab5daed5bdfc", 0x5dd62cf0, 0xa205d4a2),
    ("0x9e60398c8d8553c0", 0x597e4036, 0x6f2f5472),
    ("0xee89cceb8c4064c0", 0xb20d9946, 0xc403ae37),
    ("0xdb0215941d86a66f", 0xf91693f3, 0xc1848112),
    ("0x5ccde78203c367a8", 0xedc1820d, 0xe1c41dcd),
    ("0xf1bcbc6a1ec11786", 0x4ece6625, 0x47e55124),
    ("0xef054fceee954551", 0x3d36a728, 0x395db09a),
    ("0xdf82012d0555c6df", 0x333b8148, 0xd80133aa),
    ("0x292566ff72403c08", 0xf6ce89b0, 0x14b0850c),
    ("0xc4dd302a1bfa1137", 0x91a51045, 0x4d239430),
    ("0xd85f219db5c554e1", 0xc4f2ccb2, 0xa9520cfa),
    ("0x6a27ff807441bcd2", 0xf7e796d6, 0xcd3d03b0),
    ("0x96a573e9b48216e8", 0x3ec6b42d, 0xbd8b0708),
];

#[rustfmt::skip]
const FIXED_GOLDEN: &[Row] = &[
    ("0", 0x62903035, 0x96809658),
    ("1", 0xa77684c6, 0xeac295f9),
    ("2", 0x382be769, 0xf8e751a5),
    ("3", 0xdcd02446, 0x36ba3627),
    ("4", 0x8f613244, 0xf32433df),
    ("5", 0x7282eab1, 0x55a9b8cb),
    ("6", 0xd73bc09b, 0xf661fd94),
    ("7", 0x51dcc6a3, 0x7c9eae05),
    ("8", 0x596c4bc2, 0xac41f294),
    ("9", 0xdc0b0b81, 0x8bd5983c),
    ("10", 0x858418a3, 0xe7361592),
    ("11", 0xb5fa490a, 0xe01cf36e),
    ("12", 0x9271b0a0, 0x10473320),
    ("13", 0xecdcd1af, 0xf8e4cd75),
    ("14", 0xd275bf4d, 0x485b6cd8),
    ("15", 0xc6a89a0c, 0xfd52600e),
    ("16", 0x98100f6a, 0xad134a38),
    ("17", 0xe57bb4ee, 0xe8f7c57b),
    ("18", 0x7d1cf9cd, 0x85668c5f),
    ("19", 0x733b17cc, 0xf6722d0f),
    ("20", 0x5643913c, 0x85fbcbd1),
    ("21", 0x582cbf57, 0xed67396a),
    ("22", 0xa8b30e70, 0xdd837ded),
    ("23", 0x6506a883, 0xa2fbaf15),
    ("24", 0x2aac83ab, 0x05267a02),
    ("25", 0x69ac59ff, 0x24ed17c7),
    ("26", 0xf0b732a2, 0x89354ea3),
    ("27", 0x2cf19489, 0x35fe1ff3),
    ("28", 0x12e1e67f, 0x218a3336),
    ("29", 0xf0ffeb72, 0x07f456e2),
    ("30", 0x316f6bd7, 0x35602321),
    ("31", 0x56f9c533, 0x538416dd),
    ("32", 0x2d3c8770, 0xfce1ad0d),
    ("33", 0x71c04ff0, 0x0af01f97),
    ("34", 0x6f6e9fd7, 0xe7f9886a),
    ("35", 0x4ce2aa31, 0x8f7425d5),
    ("36", 0xc521ca1f, 0xd464d069),
    ("37", 0x6ffce7cb, 0x83acdde1),
    ("38", 0x2ac9f28a, 0xaea2075b),
    ("39", 0x38100942, 0x3524dbb7),
    ("40", 0xca09de85, 0xe2ec79e6),
    ("41", 0x6fa089d8, 0x13c880c5),
    ("42", 0x4c96d67f, 0xea032177),
    ("43", 0x3de0b0f4, 0x7f582cbb),
    ("44", 0xdaafe942, 0xc994cea8),
    ("45", 0xb53432f3, 0x0a2a6fa3),
    ("46", 0xb204224f, 0x7a9838d5),
    ("47", 0x45458c1a, 0x394dd80a),
    ("48", 0xa8a92dd4, 0x04bac735),
    ("49", 0xcdf3303f, 0x4449e971),
    ("50", 0xc6d2b31e, 0x43f9d8f3),
    ("51", 0x733b813b, 0x4dde5673),
    ("52", 0x6d785c49, 0x1044e459),
    ("53", 0x57500d3c, 0x9ce23364),
    ("54", 0x7879f36d, 0xa739cdd8),
    ("55", 0x79130207, 0xc4eb702d),
    ("56", 0x873fc1e8, 0x9ecf52aa),
    ("57", 0xf409d541, 0xfcee038d),
    ("58", 0xd6f6fbda, 0x1026a208),
    ("59", 0x284d3c01, 0xb2eae696),
    ("60", 0x566be159, 0xe7e6f7ba),
    ("61", 0xe5a0f6b0, 0xe6d032e8),
    ("62", 0xcf106d87, 0xf4bcffaf),
    ("63", 0x8afe35b5, 0xbb731f7f),
];
