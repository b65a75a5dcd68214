//! Damage sweep over `inflate_exact`: truncated prefixes and single-byte
//! flips (masks 0x01, 0x80, 0xff) of the encoder's fixture streams at every
//! level. No call may panic or return other than the declared length, and
//! the outcome of every call folds into one digest per (fixture, level),
//! pinned against a table captured on earlier decoders (see [`GOLDEN`]). A
//! decoder that accepts or rejects one damaged stream differently, or
//! decodes one to different bytes, moves a digest.

mod fixtures;

use cypress_deflate::{crc32, deflate, inflate_exact, Crc32, Level};
use fixtures::fixtures;

#[test]
fn fixtures_are_the_encoder_tests_fixtures() {
    let want = [0x12b8_d616u32, 0x978a_e164, 0x1b59_98f4];
    for (level, want) in Level::ALL.into_iter().zip(want) {
        let mut crc = Crc32::new();
        for (_, data) in fixtures() {
            crc.update(&deflate(&data, level));
        }
        assert_eq!(crc.finish(), want, "{} fixtures drifted", level.name());
    }
}

const MASKS: [u8; 3] = [0x01, 0x80, 0xff];

/// Every position of a stream's first `HEAD` bytes (block header and code
/// tables) is damaged; past that, positions are strided so that a
/// (fixture, level) decodes about `BUDGET` bytes in all.
const HEAD: usize = 64;
const BUDGET: usize = 4 << 20;

/// (fixture, level, calls, digest). The `text`, `short`, `noise` and `zeros`
/// rows were captured on the bit-at-a-time decoder this crate used to have.
/// The `records` rows, whose streams moved when zlib's per-level
/// match-search limits went into the encoder, were re-captured on the
/// table-driven `huffman::Decoder` (10-bit table, `#[cold]` canonical walk)
/// by a change that left every line of the decoder as it was.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, usize, u32)] = &[
    ("text", "fast", 312, 0xeaa85212),
    ("text", "default", 312, 0xeaa85212),
    ("text", "best", 312, 0xeaa85212),
    ("short", "fast", 28, 0x18a7e70e),
    ("short", "default", 28, 0x18a7e70e),
    ("short", "best", 28, 0x18a7e70e),
    ("noise", "fast", 4176, 0x5436477b),
    ("noise", "default", 4176, 0x5436477b),
    ("noise", "best", 4176, 0x5436477b),
    ("records", "fast", 424, 0x3fbaf105),
    ("records", "default", 424, 0xbbb4e0f0),
    ("records", "best", 424, 0x652a10c6),
    ("zeros", "fast", 144, 0xd1508395),
    ("zeros", "default", 144, 0xd1508395),
    ("zeros", "best", 144, 0xd1508395),
];

/// Damage `z` at each chosen position — truncated there, and flipped there
/// under each mask — and fold every outcome into one digest: per call, a tag
/// byte and the CRC-32 of the Ok bytes, or a zero tag and a fixed marker for
/// `Err`.
fn sweep(what: &str, z: &[u8], raw_len: usize) -> (usize, u32) {
    let stride = (z.len() * raw_len).div_ceil(BUDGET).max(1);
    let mut digest = Crc32::new();
    let mut calls = 0;
    let mut run = |case: &str, stream: &[u8]| {
        let got = std::panic::catch_unwind(|| inflate_exact(stream, raw_len))
            .unwrap_or_else(|_| panic!("{what}: inflate_exact panicked on {case}"));
        let (tag, word) = match got {
            Ok(out) => {
                assert_eq!(out.len(), raw_len, "{what}: {case} returned a wrong length");
                (1u8, crc32(&out))
            }
            Err(_) => (0, 0xffff_ffff),
        };
        digest.update(&[tag]);
        digest.update(&word.to_le_bytes());
        calls += 1;
    };
    let mut damaged = z.to_vec();
    for pos in (0..z.len()).filter(|&p| p < HEAD || p % stride == 0) {
        run(&format!("prefix {pos}"), &z[..pos]);
        for mask in MASKS {
            damaged[pos] ^= mask;
            run(&format!("flip {mask:#04x} at {pos}"), &damaged);
            damaged[pos] ^= mask;
        }
    }
    (calls, digest.finish())
}

#[test]
fn every_damaged_stream_decodes_as_the_reference_decoder_did() {
    let mut actual = Vec::new();
    for (name, data) in fixtures() {
        for level in Level::ALL {
            let z = deflate(&data, level);
            assert_eq!(inflate_exact(&z, data.len()).unwrap(), data);
            let what = format!("{name}/{}", level.name());
            let (calls, digest) = sweep(&what, &z, data.len());
            actual.push((name, level.name(), calls, digest));
        }
    }
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(f, l, n, d)| format!("    ({f:?}, {l:?}, {n}, {d:#010x}),\n"))
            .collect();
        panic!("sweep digests moved; the table this build computes:\n{table}");
    }
}
