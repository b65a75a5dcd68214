//! Golden bytes: the proof that moving every payload onto `impl Codec` moved
//! no byte. Each sample in `wire_samples` must encode to exactly the hex
//! captured on the commit before the refactor, and that hex must decode back
//! to the sample. A frame's wire form is its body wrapped in the length
//! prefix and crc32 trailer, checked through `encode_frame_into`, `read_frame`
//! and `FrameBuf`.

mod wire_samples;

use cypress::core::{Ctt, CttSlab, CttSource};
use cypress::deflate::crc32;
use cypress::net::proto::{encode_frame_into, read_frame, FrameBuf};
use cypress::trace::Codec;
use std::fmt::Debug;
use wire_samples::{for_each_sample, frames, unhex, Visitor};

struct Golden(usize);

impl Visitor for Golden {
    fn visit<T: Codec + PartialEq + Debug>(&mut self, name: &str, sample: &T, golden_hex: &str) {
        let golden = unhex(golden_hex);
        assert_eq!(sample.to_bytes(), golden, "{name}: encoded bytes moved");
        let back = T::from_bytes(&golden).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(&back, sample, "{name}: golden bytes decode differently");
        self.0 += 1;
    }

    /// The rank CTT decodes through its one decoder, `CttSlab`: the same
    /// header and the same `vertex()` view at every vertex.
    fn visit_ctt(&mut self, name: &str, sample: &Ctt, golden_hex: &str) {
        let golden = unhex(golden_hex);
        assert_eq!(sample.to_bytes(), golden, "{name}: encoded bytes moved");
        let back = CttSlab::from_bytes(&golden).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            (back.rank, back.nprocs, back.app_time, back.vertex_count()),
            (
                sample.rank,
                sample.nprocs,
                sample.app_time,
                sample.data.len()
            ),
            "{name}: header"
        );
        for gid in 0..sample.data.len() {
            assert_eq!(back.vertex(gid), sample.vertex(gid), "{name}: vertex {gid}");
        }
        self.0 += 1;
    }

    fn refused_ctt(&mut self, name: &str, hex: &str, why: &str) {
        let err = CttSlab::from_bytes(&unhex(hex)).expect_err(name);
        assert!(err.0.contains(why), "{name}: {err}");
        self.0 += 1;
    }

    fn refused(&mut self, name: &str, bytes: &[u8], refuse: fn(&[u8]) -> String, why: &str) {
        assert_eq!(refuse(bytes), why, "{name}: refused with another text");
        self.0 += 1;
    }
}

#[test]
fn every_payload_encodes_to_its_pre_refactor_bytes() {
    let mut g = Golden(0);
    for_each_sample(&mut g);
    assert_eq!(g.0, frames().len() + 14 + 20, "a sample went missing");
}

#[test]
fn a_frame_on_the_wire_is_prefix_body_crc() {
    for (name, frame, body_hex) in frames() {
        let body = unhex(body_hex);
        let mut want = (body.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&body);
        want.extend_from_slice(&crc32(&body).to_le_bytes());
        let mut wire = Vec::new();
        encode_frame_into(&frame, &mut wire);
        assert_eq!(wire, want, "{name}");
        assert_eq!(read_frame(&mut &want[..]).unwrap(), frame, "{name}");

        let mut fb = FrameBuf::new();
        let mut src = &want[..];
        while !src.is_empty() {
            fb.fill(&mut src).unwrap();
        }
        assert_eq!(fb.try_frame().unwrap(), Some(frame), "{name}");
    }
}
