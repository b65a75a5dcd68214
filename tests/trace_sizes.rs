//! Fig. 15 and Fig. 19 at quick scale, in bytes: the trace size of every
//! method for the eight NPB codes at their largest quick rank count, and
//! LESlie3d at each of its quick rank counts (`figures fig15` and
//! `figures fig19` print these in KB). A change that moves a byte of the
//! raw encoding, a baseline, the merged CTT or the gzip of any of them
//! moves a cell here.

use cypress::workloads::Scale;
use cypress_bench::{trace_sizes, trace_workload, TraceSizes};

/// `(code, ranks, raw, gzip, ScalaTrace, ScalaTrace-2, ScalaTrace-2 +
/// gzip, CYPRESS, CYPRESS + gzip)`, bytes.
#[rustfmt::skip]
const FIG15: [(&str, u32, [usize; 7]); 8] = [
    ("bt", 36, [102_134, 41_003, 2_495, 2_493, 364, 2_833, 1_420]),
    ("cg", 64, [69_184, 32_782, 17_827, 9_419, 1_147, 5_090, 1_748]),
    ("dt", 64, [3_546, 4_103, 1_298, 2_663, 383, 5_221, 2_443]),
    ("ep", 64, [3_328, 3_702, 36, 42, 46, 497, 439]),
    ("ft", 64, [8_000, 5_586, 71, 75, 58, 553, 509]),
    ("lu", 64, [386_373, 137_110, 1_214, 2_270, 477, 1_755, 1_063]),
    ("mg", 64, [90_071, 39_356, 5_014, 3_939, 779, 13_317, 6_253]),
    ("sp", 36, [102_096, 47_944, 29_108, 23_139, 1_408, 71_355, 23_944]),
];

/// Fig. 19's LESlie3d rows, the same columns.
#[rustfmt::skip]
const FIG19: [(&str, u32, [usize; 7]); 3] = [
    ("leslie3d", 16, [21_304, 9_760, 2_001, 3_890, 452, 1_652, 876]),
    ("leslie3d", 32, [48_224, 21_349, 3_273, 6_397, 712, 1_823, 952]),
    ("leslie3d", 64, [102_064, 44_271, 3_305, 6_493, 759, 2_113, 1_069]),
];

fn columns(s: &TraceSizes) -> [usize; 7] {
    [
        s.raw,
        s.gzip,
        s.scalatrace,
        s.scalatrace2,
        s.scalatrace2_gzip,
        s.cypress,
        s.cypress_gzip,
    ]
}

/// Every row of `table` as this build computes it; a moved row fails
/// with the whole table this build computes, to paste after an intended
/// change.
fn holds(what: &str, table: &[(&str, u32, [usize; 7])]) {
    let actual: Vec<_> = table
        .iter()
        .map(|&(name, p, _)| {
            (
                name,
                p,
                columns(&trace_sizes(&trace_workload(name, p, Scale::Quick))),
            )
        })
        .collect();
    if actual != table {
        let rows: String = actual
            .iter()
            .map(|(name, p, c)| format!("    ({name:?}, {p}, {c:?}),\n"))
            .collect();
        panic!("{what} moved; the rows this build computes:\n{rows}");
    }
}

#[test]
fn fig15_quick_sizes_hold_at_the_largest_rank_counts() {
    holds("Fig. 15", &FIG15);
}

#[test]
fn fig19_quick_leslie3d_sizes_hold() {
    holds("Fig. 19", &FIG19);
}
