//! The compression ratio, pinned without a clock: the deflated length of
//! every fixture at every level may be at most 1% over what the encoder
//! produced before zlib's per-level match-search limits and multi-block
//! output went in. A matcher change that buys speed with bytes shows its
//! price here.

mod fixtures;

use cypress_deflate::{deflate, inflate_exact, Level};

/// (fixture, level, deflated bytes), captured on the encoder before them:
/// `max_chain` 8/64/512 and no other search limit, greedy at `fast`, one
/// final block per stream.
#[rustfmt::skip]
const BEFORE: &[(&str, &str, usize)] = &[
    ("text", "fast", 78),
    ("text", "default", 78),
    ("text", "best", 78),
    ("short", "fast", 7),
    ("short", "default", 7),
    ("short", "best", 7),
    ("noise", "fast", 3005),
    ("noise", "default", 3005),
    ("noise", "best", 3005),
    ("records", "fast", 46943),
    ("records", "default", 44109),
    ("records", "best", 44098),
    ("zeros", "fast", 36),
    ("zeros", "default", 36),
    ("zeros", "best", 36),
];

#[test]
fn no_fixture_deflates_more_than_one_percent_larger_than_before() {
    let mut rows = BEFORE.iter();
    let mut over = Vec::new();
    for (name, data) in fixtures::fixtures() {
        for level in Level::ALL {
            let &(f, l, before) = rows.next().expect("a row per fixture and level");
            assert_eq!((f, l), (name, level.name()), "rows out of order");
            let z = deflate(&data, level);
            assert_eq!(inflate_exact(&z, data.len()).unwrap(), data, "{name}/{l}");
            if z.len() * 100 > before * 101 {
                over.push(format!("{name}/{l}: {before} -> {}", z.len()));
            }
        }
    }
    assert!(rows.next().is_none(), "a row without a fixture");
    assert!(over.is_empty(), "more than 1% over: {over:?}");
}
