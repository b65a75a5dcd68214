//! Hostile bytes, once for every decoder: the `wire_samples` table through
//! one generic sweep instead of a round-trip/trailing-byte test per type.
//!
//! Property, for each sample: it round-trips; every truncated prefix is an
//! error; every single-byte corruption is an error or some other value,
//! never a panic or an allocation the input did not pay for; one appended
//! byte is an error. Frames get the same treatment through [`FrameBuf`] with
//! the CRC resealed, so the damage reaches the body decoder instead of
//! stopping at the checksum.

mod wire_samples;

use cypress::core::{Ctt, CttSlab, CttSource};
use cypress::deflate::crc32;
use cypress::net::proto::FrameBuf;
use cypress::net::{Frame, NetError};
use cypress::trace::Codec;
use std::fmt::Debug;
use wire_samples::{for_each_sample, frames, rank_ctt, unhex, Visitor};

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
}

#[test]
fn every_payload_survives_the_hostile_bytes_sweep() {
    for_each_sample(&mut Sweep);
}

/// The `Ctt` row once more, through both of its decoders: over every
/// truncation, mutation and the appended byte, the pooled decoder refuses
/// exactly what the owned one refuses, and where both accept they hold the
/// same tree — header and every `vertex()` view.
#[test]
fn slab_and_owned_decoders_agree_on_every_damaged_ctt() {
    let agree =
        |bytes: &[u8], what: &str| match (Ctt::from_bytes(bytes), CttSlab::from_bytes(bytes)) {
            (Ok(ctt), Ok(slab)) => {
                assert_eq!(
                    (slab.rank, slab.nprocs, slab.app_time, slab.vertex_count()),
                    (ctt.rank, ctt.nprocs, ctt.app_time, ctt.data.len()),
                    "{what}"
                );
                for gid in 0..ctt.data.len() {
                    assert_eq!(slab.vertex(gid), ctt.vertex(gid), "{what}: vertex {gid}");
                }
            }
            (Err(_), Err(_)) => {}
            (owned, pooled) => panic!(
                "{what}: owned decode ok = {}, pooled decode ok = {}",
                owned.is_ok(),
                pooled.is_ok()
            ),
        };
    let bytes = rank_ctt(1).to_bytes();
    for cut in 0..=bytes.len() {
        agree(&bytes[..cut], &format!("cut {cut}"));
    }
    let mut work = bytes.clone();
    for pos in 0..bytes.len() {
        for mask in MASKS {
            work[pos] ^= mask;
            agree(&work, &format!("pos {pos} mask {mask:#04x}"));
            work[pos] = bytes[pos];
        }
    }
    work.push(0x2a);
    agree(&work, "appended byte");
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
