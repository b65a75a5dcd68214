//! Error-path hardening for the container reader.
//!
//! Property: every truncated prefix and every single-byte corruption of a
//! valid `.cytc` image is rejected with a clean [`ContainerError`] — never a
//! panic and never an attacker-sized allocation. The layout makes this cheap
//! to guarantee: the whole-image crc32 trailer is verified before any body
//! varint is trusted, so a corrupted length field can never demand memory.
//!
//! The trailer only stops *accidents*. Someone who edits a header field and
//! recomputes the trailer gets past it, so the fields behind it are checked
//! on their own: the crafted-image cases at the end re-seal each edit.

use cypress_deflate::{crc32, Level};
use cypress_trace::{assemble, encode_payload, ContainerError, Encoder, SectionKind, SectionTable};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// A container with every section kind the pipeline writes, sized so the
/// exhaustive sweeps below stay fast.
fn sample(level: Option<Level>) -> Vec<u8> {
    let merged: Vec<u8> = (0..800u32).map(|i| (i % 251) as u8).collect();
    let sections: [(SectionKind, Option<u32>, &[u8]); 5] = [
        (SectionKind::Meta, None, b"meta payload bytes"),
        (
            SectionKind::CstText,
            None,
            &b"Root() Loop(12) Leaf(3)".repeat(20),
        ),
        (SectionKind::MergedCtt, None, &merged),
        (SectionKind::RankCtt, Some(0), &[9; 300]),
        (SectionKind::RankCtt, Some(1), &[11; 300]),
    ];
    let encoded: Vec<_> = sections
        .iter()
        .map(|&(kind, rank, payload)| encode_payload(kind, rank, payload, level))
        .collect();
    assemble(4, &encoded)
}

fn assert_rejected(bytes: &[u8], what: &str) {
    assert!(
        SectionTable::parse(bytes).is_err(),
        "{what}: parser accepted a corrupt image"
    );
}

#[test]
fn every_truncated_prefix_is_rejected_cleanly() {
    for level in [None, Some(Level::Default)] {
        let image = sample(level);
        for cut in 0..image.len() {
            assert_rejected(&image[..cut], &format!("level {level:?} cut {cut}"));
        }
    }
}

#[test]
fn every_single_byte_corruption_is_rejected_cleanly() {
    // Masks chosen to cover the interesting bit positions: low bit (varint
    // value), high bit (varint continuation), and full inversion.
    for level in [None, Some(Level::Default)] {
        let image = sample(level);
        let mut work = image.clone();
        for pos in 0..image.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                work[pos] ^= mask;
                assert_rejected(
                    &work,
                    &format!("level {level:?} pos {pos} mask {mask:#04x}"),
                );
                work[pos] = image[pos];
            }
        }
    }
}

#[test]
fn valid_images_still_parse_after_the_sweeps() {
    // Guard against the property tests passing vacuously on a bad sample.
    for level in [None, Some(Level::Default)] {
        let table = SectionTable::parse(&sample(level)).expect("sample must be valid");
        assert_eq!(table.len(), 5);
    }
}

/// Hand-assemble a one-section image whose header varints are whatever the
/// caller says, sealed with a correct trailer — what an attacker who knows
/// the format would send.
fn crafted(nprocs: u64, rank_plus1: u64, section_crc: impl Fn(u32) -> u64) -> Vec<u8> {
    let payload = b"payload";
    let mut enc = Encoder::new();
    enc.put_uvar(nprocs);
    enc.put_uvar(1); // section count
    enc.put_u8(SectionKind::RankCtt.code());
    enc.put_uvar(rank_plus1);
    enc.put_u8(0); // raw encoding
    enc.put_bytes(payload);
    enc.put_uvar(section_crc(crc32(payload)));
    let mut image = b"CYTC".to_vec();
    image.push(cypress_trace::CONTAINER_VERSION);
    image.extend_from_slice(&enc.finish());
    let trailer = crc32(&image);
    image.extend_from_slice(&trailer.to_le_bytes());
    image
}

#[test]
fn resealed_out_of_range_header_fields_are_corrupt_not_narrowed() {
    // The honest image opens, so the rejections below are about the one
    // oversized field and nothing else.
    let table = SectionTable::parse(&crafted(4, 3, u64::from)).expect("honest image");
    assert_eq!((table.nprocs, table.sections()[0].rank), (4, Some(2)));

    let wrap = 1u64 << 32;
    let cases: [(&str, Vec<u8>); 3] = [
        // Would open as a 4-rank job.
        ("nprocs", crafted(wrap + 4, 3, u64::from)),
        // Would open as rank 2.
        ("section rank", crafted(4, wrap + 3, u64::from)),
        // Would compare equal to the real CRC.
        ("section crc", crafted(4, 3, |crc| wrap | u64::from(crc))),
    ];
    for (field, image) in cases {
        match SectionTable::parse(&image) {
            Err(ContainerError::Corrupt(e)) => {
                assert!(e.0.contains(field), "{field}: error does not name it: {e}")
            }
            Err(other) => panic!("{field}: expected Corrupt, got {other}"),
            Ok(t) => panic!("{field}: opened as a {}-rank job", t.nprocs),
        }
    }
}

/// A one-section image holding a deflated merged-ctt section whose header
/// declares `raw_len` bytes over `stream`, its CRCs honest.
fn deflated_image(raw_len: u64, stream: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_uvar(4);
    enc.put_uvar(1); // section count
    enc.put_u8(SectionKind::MergedCtt.code());
    enc.put_uvar(0); // no rank
    enc.put_u8(1); // deflate encoding
    enc.put_uvar(raw_len);
    enc.put_bytes(stream);
    enc.put_uvar(u64::from(crc32(stream)));
    let mut image = b"CYTC".to_vec();
    image.push(cypress_trace::CONTAINER_VERSION);
    image.extend_from_slice(&enc.finish());
    let trailer = crc32(&image);
    image.extend_from_slice(&trailer.to_le_bytes());
    image
}

/// A deflated section whose header declares 16 bytes over a stream that
/// holds 4 MiB: CRCs are honest, so the table opens; the payload must be
/// refused at the declared length, not inflated in full and then compared.
#[test]
fn lying_raw_len_is_refused_at_the_declared_length() {
    let bomb = cypress_deflate::deflate(&vec![0u8; 4 << 20], Level::Fast);
    assert!(bomb.len() < 64 << 10, "a zero run deflates to a few KiB");
    let image = deflated_image(16, &bomb);

    let table = cypress_trace::SectionTable::parse(&image).expect("framing and CRCs are honest");
    let arena = cypress_trace::PayloadArena::new(table.len());
    match arena.payload(&image, &table.sections()[0], 0) {
        Err(ContainerError::Corrupt(e)) => {
            assert!(e.0.contains("declared 16 bytes"), "{e}");
            assert!(!e.0.contains("got"), "stopped at the bound, not after: {e}");
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(p) => panic!("a 16-byte section opened with {} bytes", p.len()),
    }
    assert_eq!(arena.resident_bytes(), 0, "nothing was kept");
}

/// `System`, noting the largest allocation made on each thread.
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: an allocation while the thread is torn down goes unnoted.
    let _ = LARGEST.try_with(|n| n.set(n.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`; noting touches only
// a thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The opposite lie: a section declaring far more than its ~30-byte stream
/// holds. Past 2³² the table refuses the length itself; at 2³², the most it
/// accepts, the payload is refused once the stream ends short, and no
/// allocation on the way is larger than the 1032 bytes an input byte can
/// decode to.
#[test]
fn a_raw_len_past_the_stream_allocates_no_more_than_it_could_decode() {
    let payload = b"thirty bytes of honest payload";
    let stream = cypress_deflate::deflate(payload, Level::Default);
    assert!(
        (20..=40).contains(&stream.len()),
        "{} stored bytes",
        stream.len()
    );

    match SectionTable::parse(&deflated_image(1 << 40, &stream)) {
        Err(ContainerError::Corrupt(e)) => assert!(e.0.contains("raw length"), "{e}"),
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(_) => panic!("a section of 2^40 bytes opened"),
    }

    let image = deflated_image(1 << 32, &stream);
    let table = SectionTable::parse(&image).expect("2^32 is a length the table accepts");
    let arena = cypress_trace::PayloadArena::new(table.len());
    LARGEST.with(|n| n.set(0));
    let got = arena
        .payload(&image, &table.sections()[0], 0)
        .map(<[u8]>::len);
    let largest = LARGEST.with(Cell::get);
    match got {
        Err(ContainerError::Corrupt(e)) => {
            let want = format!("declared 4294967296 bytes, got {}", payload.len());
            assert!(e.0.contains(&want), "{e}")
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(n) => panic!("a {}-byte payload opened as {n} bytes", payload.len()),
    }
    assert!(
        largest <= 1032 * stream.len(),
        "a {}-byte stream allocated {largest} bytes at once",
        stream.len()
    );
}
