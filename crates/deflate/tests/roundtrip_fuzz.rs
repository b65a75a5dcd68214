//! Differential round-trip fuzzing: `inflate_exact(deflate(x), x.len()) == x`
//! must hold at every compression level for random and adversarial inputs.
//! The decoder is an independent implementation of RFC 1951, so agreement is
//! meaningful.

use cypress_deflate::deflate::BLOCK_TOKENS;
use cypress_deflate::{deflate, gzip_compress, gzip_decompress, inflate_exact, Level};
use cypress_obs::rng::Rng;

fn assert_round_trip(data: &[u8], what: &str) {
    for level in Level::ALL {
        let c = deflate(data, level);
        let back = inflate_exact(&c, data.len())
            .unwrap_or_else(|e| panic!("{what}: inflate failed at {} ({e:?})", level.name()));
        assert_eq!(
            back,
            data,
            "{what}: round trip diverged at {} (len {})",
            level.name(),
            data.len()
        );
        // Determinism: the same input compresses to the same bytes.
        assert_eq!(c, deflate(data, level), "{what}: non-deterministic output");
    }
}

#[test]
fn random_inputs_round_trip_at_every_level() {
    let mut rng = Rng::new(0xf022_5eed);
    for round in 0..64 {
        let n = rng.range_usize(0..20_000);
        let mut data = vec![0u8; n];
        rng.fill_bytes(&mut data);
        assert_round_trip(&data, &format!("uniform random round {round}"));
    }
}

#[test]
fn low_entropy_random_inputs_round_trip() {
    let mut rng = Rng::new(0x10e7);
    for alphabet in [1u64, 2, 3, 16] {
        for round in 0..16 {
            let n = rng.range_usize(0..30_000);
            let data: Vec<u8> = (0..n).map(|_| rng.range_u64(0..alphabet) as u8).collect();
            assert_round_trip(&data, &format!("alphabet {alphabet} round {round}"));
        }
    }
}

#[test]
fn structured_random_inputs_round_trip() {
    // Repeated random phrases — matches at many distances and lengths.
    let mut rng = Rng::new(0xabcd);
    for round in 0..24 {
        let mut phrase = vec![0u8; rng.range_usize(1..500)];
        rng.fill_bytes(&mut phrase);
        let mut data = Vec::new();
        while data.len() < 40_000 {
            data.extend_from_slice(&phrase);
            if rng.range_u64(0..4) == 0 {
                data.push(rng.range_u64(0..256) as u8); // misalign future matches
            }
        }
        assert_round_trip(&data, &format!("phrase round {round}"));
    }
}

#[test]
fn all_zero_inputs_round_trip() {
    for n in [0usize, 1, 2, 3, 257, 258, 259, 1 << 15, (1 << 16) + 3] {
        assert_round_trip(&vec![0u8; n], &format!("all-zero len {n}"));
    }
}

#[test]
fn max_match_run_boundaries_round_trip() {
    // Runs whose lengths straddle the 258-byte MAX_MATCH and its multiples.
    for run in [256usize, 257, 258, 259, 260, 515, 516, 517, 1032] {
        let mut data = vec![b'A'; run];
        data.push(b'B'); // break the run
        data.extend(std::iter::repeat_n(b'A', run));
        assert_round_trip(&data, &format!("run length {run}"));
    }
}

#[test]
fn window_boundary_matches_round_trip() {
    // A phrase recurring exactly at / just inside / just outside the 32 KiB
    // window — exercises maximum-distance back-references and stale chains.
    const W: usize = 32 * 1024;
    let phrase: Vec<u8> = (0..64u32).map(|i| (i * 7 + 13) as u8).collect();
    for gap in [W - 70, W - 64, W - 1, W, W + 1, W + 64] {
        let mut data = phrase.clone();
        // Incompressible filler so the phrase is the only long match.
        let mut rng = Rng::new(gap as u64);
        let mut filler = vec![0u8; gap];
        rng.fill_bytes(&mut filler);
        data.extend_from_slice(&filler);
        data.extend_from_slice(&phrase);
        assert_round_trip(&data, &format!("window gap {gap}"));
    }
}

#[test]
fn stored_block_chunk_boundaries_round_trip() {
    // Incompressible inputs around the 65535-byte stored-block limit.
    let mut rng = Rng::new(0x5708ed);
    for n in [65534usize, 65535, 65536, 65537, 131070, 131071] {
        let mut data = vec![0u8; n];
        rng.fill_bytes(&mut data);
        assert_round_trip(&data, &format!("stored boundary {n}"));
    }
}

#[test]
fn gzip_container_round_trips_random_inputs() {
    let mut rng = Rng::new(0x9219);
    for _ in 0..16 {
        let n = rng.range_usize(0..10_000);
        let data: Vec<u8> = (0..n).map(|_| rng.range_u64(0..11) as u8).collect();
        for level in Level::ALL {
            let z = gzip_compress(&data, level);
            assert_eq!(gzip_decompress(&z).unwrap(), data);
        }
    }
}

#[test]
fn levels_trade_effort_for_ratio_sanely() {
    // Not a strict ordering guarantee, but Best must never be dramatically
    // worse than Fast on compressible data, and all levels must beat raw.
    let mut rng = Rng::new(0x1e7e1);
    let data: Vec<u8> = (0..100_000).map(|_| rng.range_u64(0..5) as u8).collect();
    let sizes: Vec<usize> = Level::ALL
        .iter()
        .map(|&l| deflate(&data, l).len())
        .collect();
    for (&s, l) in sizes.iter().zip(Level::ALL) {
        assert!(s < data.len() / 2, "{}: {} not compressing", l.name(), s);
    }
    assert!(
        sizes[2] <= sizes[0] * 11 / 10,
        "best ({}) much worse than fast ({})",
        sizes[2],
        sizes[0]
    );
}

/// `assert_round_trip`, plus the same through a gzip member.
fn assert_round_trip_gzip(data: &[u8], what: &str) {
    assert_round_trip(data, what);
    for level in Level::ALL {
        let z = gzip_compress(data, level);
        assert_eq!(
            gzip_decompress(&z).unwrap(),
            data,
            "{what}: gzip at {}",
            level.name()
        );
    }
}

/// The first `n` bytes of a de Bruijn sequence of 3-byte strings (the
/// Lyndon words of length 1 and 3 in lexicographic order): no 3-byte string
/// occurs twice, so LZ77 finds no match and the input is exactly `n`
/// literal tokens at every level.
fn distinct_trigrams(n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n + 3);
    let mut w: Vec<i32> = vec![-1];
    while !w.is_empty() && out.len() < n {
        *w.last_mut().expect("non-empty") += 1;
        let m = w.len();
        if 3 % m == 0 {
            out.extend(w.iter().map(|&b| b as u8));
        }
        while w.len() < 3 {
            w.push(w[w.len() - m]);
        }
        while w.last() == Some(&255) {
            w.pop();
        }
    }
    out.truncate(n);
    let mut seen = std::collections::HashSet::new();
    assert!(
        out.windows(3).all(|t| seen.insert(t)),
        "a 3-byte string repeats"
    );
    out
}

#[test]
fn inputs_of_one_two_and_many_blocks_round_trip() {
    let b = BLOCK_TOKENS;
    let inputs: Vec<(String, Vec<u8>)> = [b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1, 4 * b + 1]
        .into_iter()
        .map(|n| (format!("{n} literal tokens"), distinct_trigrams(n)))
        .chain([("empty".to_string(), Vec::new())])
        .collect();
    let first: Vec<Vec<u8>> = inputs
        .iter()
        .map(|(what, data)| {
            assert_round_trip_gzip(data, what);
            deflate(data, Level::Default)
        })
        .collect();
    // The per-thread scratch carries no state from one input to the next:
    // the same bytes in the opposite order.
    for ((what, data), want) in inputs.iter().zip(&first).rev() {
        assert_eq!(
            deflate(data, Level::Default),
            *want,
            "{what}: order changed the bytes"
        );
    }
}

#[test]
fn a_block_boundary_inside_a_max_match_run_round_trips() {
    // The first block ends `k` tokens into a run of one byte, so the next
    // block opens with 258-byte matches at distance 1 into the block before.
    for k in 1..=3 {
        let mut data = distinct_trigrams(BLOCK_TOKENS - k);
        data.extend(std::iter::repeat_n(b'Z', 1000));
        data.extend_from_slice(b"tail");
        assert_round_trip_gzip(&data, &format!("run {k} tokens before the boundary"));
    }
}

#[test]
fn an_incompressible_stretch_between_compressible_ones_is_stored_mid_stream() {
    let text = b"the compressible part of the input, said again and again; ".repeat(400);
    let mut noise = vec![0u8; 3 * BLOCK_TOKENS];
    Rng::new(0x5707ed).fill_bytes(&mut noise);
    let data = [&text[..], &noise, &text].concat();
    assert_round_trip_gzip(&data, "text, noise, text");
    // A stored block copies its bytes verbatim: a slice from the middle of
    // the noise, well inside one block's first 65535-byte chunk, appears in
    // the stream as it is.
    let inside = &noise[3 * BLOCK_TOKENS / 2..][..256];
    for level in Level::ALL {
        let z = deflate(&data, level);
        assert!(
            z.windows(inside.len()).any(|w| w == inside),
            "{}: no stored block holds the noise",
            level.name()
        );
        assert!(
            z.len() < data.len(),
            "{}: the text did not compress",
            level.name()
        );
    }
}
