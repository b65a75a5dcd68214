//! Hostile bytes, once for every decoder: the `wire_samples` table through
//! one generic sweep instead of a round-trip/trailing-byte test per type.
//!
//! Property, for each sample: it round-trips; every truncated prefix is an
//! error; every single-byte corruption is an error or some other value,
//! never a panic or an allocation the input did not pay for; one appended
//! byte is an error. Frames get the same treatment through [`FrameBuf`] with
//! the CRC resealed, so the damage reaches the body decoder instead of
//! stopping at the checksum. The rank CTT, whose one decoder is `CttSlab`,
//! and the merged CTT are swept on their own against committed digest
//! tables.

mod wire_samples;

use cypress::core::{Ctt, CttSlab, CttSource, MergedCtt};
use cypress::deflate::{crc32, Crc32};
use cypress::net::proto::FrameBuf;
use cypress::net::{Frame, NetError};
use cypress::trace::Codec;
use std::fmt::Debug;
use wire_samples::{for_each_sample, frames, merged_ctt, rank_ctt, unhex, Visitor};

/// Low bit (varint value), high bit (varint continuation), full inversion.
const MASKS: [u8; 3] = [0x01, 0x80, 0xff];

fn sweep<T: Codec + PartialEq + Debug>(name: &str, sample: &T) {
    let bytes = sample.to_bytes();
    assert_eq!(
        &T::from_bytes(&bytes).unwrap(),
        sample,
        "{name}: round trip"
    );
    for cut in 0..bytes.len() {
        assert!(T::from_bytes(&bytes[..cut]).is_err(), "{name}: cut {cut}");
    }
    let mut work = bytes.clone();
    for pos in 0..bytes.len() {
        for mask in MASKS {
            work[pos] ^= mask;
            // Err, or a value (equal or not): returning at all is the test.
            let _ = T::from_bytes(&work);
            work[pos] = bytes[pos];
        }
    }
    work.push(0x2a);
    let err = T::from_bytes(&work).expect_err(name);
    assert!(err.0.contains("trailing"), "{name}: {err}");
}

struct Sweep;

impl Visitor for Sweep {
    fn visit<T: Codec + PartialEq + Debug>(&mut self, name: &str, sample: &T, _golden: &str) {
        sweep(name, sample);
    }

    /// See `every_damaged_ctt_decodes_as_the_owned_decoder_did`.
    fn visit_ctt(&mut self, _name: &str, _sample: &Ctt, _golden: &str) {}

    fn refused_ctt(&mut self, _name: &str, _hex: &str, _why: &str) {}
}

#[test]
fn every_payload_survives_the_hostile_bytes_sweep() {
    for_each_sample(&mut Sweep);
}

/// (damage, inputs, digest), first captured on the commit whose owned `Ctt`
/// decoder agreed with `CttSlab` on every one of these inputs: same
/// refusals, same header, same `vertex()` views. Re-captured when the
/// sample's collective took exact-moment timing and `TimeStats` became one
/// struct (its `Debug` text moved); the decoder before that change gave
/// every one of the new sample's inputs the same outcome.
#[rustfmt::skip]
const CTT_GOLDEN: &[(&str, usize, u32)] = &[
    ("truncations", 254, 0x71fba489),
    ("mask 0x01", 254, 0x1cacba36),
    ("mask 0x80", 254, 0xc8244755),
    ("mask 0xff", 254, 0x9ae54b7b),
    ("appended byte", 1, 0x1899d7fe),
];

/// The `Ctt` row through its one decoder, `CttSlab`: every truncation,
/// every byte flipped under each mask, and one appended byte. No call
/// panics, every truncation and the appended byte is an `Err`, and each
/// outcome — a marker for `Err`, else the CRC of the header and every
/// `vertex()` view's `Debug` — folds into one digest per kind of damage,
/// pinned against the table above.
#[test]
fn every_damaged_ctt_decodes_as_the_owned_decoder_did() {
    let decoded = |input: &[u8]| -> Option<u32> {
        let slab = CttSlab::from_bytes(input).ok()?;
        let mut crc = Crc32::new();
        crc.update(format!("{} {} {}", slab.rank, slab.nprocs, slab.app_time).as_bytes());
        for gid in 0..slab.vertex_count() {
            crc.update(format!("{:?}", slab.vertex(gid)).as_bytes());
        }
        Some(crc.finish())
    };
    assert_damage_digests("damaged-CTT", &rank_ctt(1).to_bytes(), decoded, CTT_GOLDEN);
}

/// (damage, inputs, digest) for [`merged_ctt`], captured on the commit
/// before the merged tree's decoder moved onto the checked cursor.
#[rustfmt::skip]
const MERGED_GOLDEN: &[(&str, usize, u32)] = &[
    ("truncations", 457, 0x965fe4aa),
    ("mask 0x01", 457, 0xea5c3042),
    ("mask 0x80", 457, 0xb39b9190),
    ("mask 0xff", 457, 0x227cbfff),
    ("appended byte", 1, 0x1899d7fe),
];

/// The `MergedCtt` row under the same damage as the rank CTT: each
/// outcome is a marker for `Err`, else the CRC of the decoded tree's
/// `Debug` text, folded into one digest per kind of damage.
#[test]
fn every_damaged_merged_ctt_decodes_as_before() {
    let decoded = |input: &[u8]| -> Option<u32> {
        let tree = MergedCtt::from_bytes(input).ok()?;
        Some(crc32(format!("{tree:?}").as_bytes()))
    };
    assert_damage_digests(
        "damaged-merged-CTT",
        &merged_ctt().to_bytes(),
        decoded,
        MERGED_GOLDEN,
    );
}

/// Each damaged merged tree of [`every_damaged_merged_ctt_decodes_as_before`]
/// that decodes keeps, of its leaf groups, only ones that are their own
/// bytes: what decoding the group and encoding the result writes.
#[test]
fn every_damaged_merged_ctt_that_decodes_keeps_only_its_own_bytes() {
    let bytes = merged_ctt().to_bytes();
    let mut inputs: Vec<Vec<u8>> = (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect();
    for mask in [0x01u8, 0x80, 0xff] {
        for pos in 0..bytes.len() {
            let mut work = bytes.clone();
            work[pos] ^= mask;
            inputs.push(work);
        }
    }
    let mut appended = bytes.clone();
    appended.push(0x2a);
    inputs.push(appended);
    let mut kept = 0;
    for input in &inputs {
        if let Ok(tree) = MergedCtt::from_bytes(input) {
            kept += tree
                .check_kept_groups()
                .unwrap_or_else(|e| panic!("{input:02x?}: {e}"));
        }
    }
    assert!(kept > 0, "no damaged input decodes with a kept group");
}

/// Every truncation of `bytes`, every byte flipped under each mask, and one
/// appended byte through `decoded`. No call panics, every truncation and
/// the appended byte is refused, and the outcomes of each kind of damage
/// fold into one digest, held to `golden`.
fn assert_damage_digests(
    what: &str,
    bytes: &[u8],
    decoded: impl Fn(&[u8]) -> Option<u32>,
    golden: &[(&str, usize, u32)],
) {
    let flips = |mask: u8| -> Vec<Vec<u8>> {
        (0..bytes.len())
            .map(|pos| {
                let mut work = bytes.to_vec();
                work[pos] ^= mask;
                work
            })
            .collect()
    };
    let mut appended = bytes.to_vec();
    appended.push(0x2a);
    let cases = [
        (
            "truncations",
            (0..bytes.len()).map(|cut| bytes[..cut].to_vec()).collect(),
            true,
        ),
        ("mask 0x01", flips(0x01), false),
        ("mask 0x80", flips(0x80), false),
        ("mask 0xff", flips(0xff), false),
        ("appended byte", vec![appended], true),
    ];
    let mut actual = Vec::new();
    for (name, inputs, must_fail) in cases {
        let mut digest = Crc32::new();
        for input in &inputs {
            let (tag, word) = match decoded(input) {
                Some(crc) => (1u8, crc),
                None => (0, 0xffff_ffff),
            };
            assert!(
                !must_fail || tag == 0,
                "{what} {name}: {} bytes decoded",
                input.len()
            );
            digest.update(&[tag]);
            digest.update(&word.to_le_bytes());
        }
        actual.push((name, inputs.len(), digest.finish()));
    }
    if actual != golden {
        let table: String = actual
            .iter()
            .map(|(name, n, d)| format!("    ({name:?}, {n}, {d:#010x}),\n"))
            .collect();
        panic!("{what} digests moved; the table this build computes:\n{table}");
    }
}

/// `body` as it would sit on the wire, with a CRC that vouches for it.
fn sealed(body: &[u8]) -> Vec<u8> {
    let mut wire = (body.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(body);
    wire.extend_from_slice(&crc32(body).to_le_bytes());
    wire
}

fn decode_sealed(body: &[u8]) -> Result<Option<Frame>, NetError> {
    let wire = sealed(body);
    let mut fb = FrameBuf::new();
    let mut src = &wire[..];
    while !src.is_empty() {
        fb.fill(&mut src).unwrap();
    }
    fb.try_frame()
}

#[test]
fn resealed_frame_damage_is_a_frame_error_never_a_panic() {
    for (name, frame, body_hex) in frames() {
        let body = unhex(body_hex);
        assert_eq!(decode_sealed(&body).unwrap(), Some(frame), "{name}");
        for cut in 0..body.len() {
            assert!(
                matches!(decode_sealed(&body[..cut]), Err(NetError::Frame(_))),
                "{name}: cut {cut}"
            );
        }
        let mut work = body.clone();
        for pos in 0..body.len() {
            for mask in MASKS {
                work[pos] ^= mask;
                match decode_sealed(&work) {
                    Ok(Some(_)) | Err(NetError::Frame(_)) => {}
                    other => panic!("{name}: pos {pos} mask {mask:#04x}: {other:?}"),
                }
                work[pos] = body[pos];
            }
        }
        work.push(0x2a);
        assert!(
            matches!(decode_sealed(&work), Err(NetError::Frame(_))),
            "{name}: appended byte"
        );
    }
}
