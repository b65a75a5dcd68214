//! The container reader: lazy, zero-copy views over an image.
//!
//! Copying (and inflating) every section payload into an owned `Vec` up
//! front is the wrong shape for a resident trace store that keeps thousands
//! of `.cytc` images open — most opens touch two or three sections, and raw
//! payloads never need to leave the backing buffer at all. So the read path
//! is three pieces, and every reader in the workspace goes through them:
//!
//! - [`SectionTable::parse`] validates all framing *without inflating
//!   anything*: magic, version, the whole-image CRC, body varints, and
//!   every per-section CRC. It yields index-based [`SectionInfo`] records
//!   (byte ranges into the image, not borrowed slices), so the table can be
//!   stored next to the buffer it describes without self-reference.
//! - [`PayloadArena`] owns lazily-inflated payloads: raw sections are served
//!   zero-copy as `&image[range]`, deflated sections are inflated **exactly
//!   once** into an arena slot (failures are cached too, so a corrupt
//!   section reports the same error on every access).
//!
//! A reader holds the image, the table and the arena side by side — the
//! trace store's job handle as fields, `cypress inspect` as locals.

use crate::codec::{Cursor, DecodeError, SEQ_PREALLOC};
use crate::container::{
    ContainerError, SectionKind, BYTES_READ, CONTAINER_MAGIC, CONTAINER_VERSION, CRC_FAILURES,
    ENC_DEFLATE,
};
use cypress_deflate::{crc32, inflate_exact};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Most sections an image may declare.
const MAX_SECTIONS: usize = 1 << 24;

/// Framing metadata for one section: where its stored bytes live in the
/// backing image and how to decode them. Holds byte *ranges* rather than
/// borrowed slices so the table is `'static` relative to the image.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionInfo {
    pub kind: SectionKind,
    /// Present for rank-scoped kinds (`RankCtt`).
    pub rank: Option<u32>,
    pub(crate) encoding: u8,
    /// Decoded payload length (equals the stored length for raw sections).
    pub raw_len: usize,
    pub(crate) stored: Range<usize>,
}

impl SectionInfo {
    /// Is the stored form a DEFLATE stream (as opposed to the payload bytes
    /// themselves)?
    pub fn is_deflated(&self) -> bool {
        self.encoding == ENC_DEFLATE
    }

    /// Bytes occupied in the file (compressed size for deflated sections).
    pub fn stored_len(&self) -> usize {
        self.stored.len()
    }

    /// The decoded payload of section `index` of `image` in a buffer of
    /// its own, for a reader that keeps it past the image: inflated
    /// straight into it when deflated, one copy out of the image when raw.
    /// Nothing is kept in an arena.
    pub fn payload_owned(&self, image: &[u8], index: usize) -> Result<Vec<u8>, ContainerError> {
        if !self.is_deflated() {
            return Ok(image[self.stored.clone()].to_vec());
        }
        self.inflate(image, index).map_err(corrupt)
    }

    fn inflate(&self, image: &[u8], index: usize) -> Result<Vec<u8>, String> {
        // Held to the header's length: a lying `raw_len` is refused at that
        // bound, not after inflating whatever the stream holds.
        inflate_exact(&image[self.stored.clone()], self.raw_len).map_err(|e| {
            format!(
                "section {index}, header said {} bytes: {}",
                self.raw_len, e.0
            )
        })
    }
}

/// Parsed container framing: version, world size, and one [`SectionInfo`]
/// per section, in file order. Produced by [`SectionTable::parse`], which
/// verifies every integrity check that does not require inflation.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionTable {
    pub version: u8,
    pub nprocs: u32,
    sections: Vec<SectionInfo>,
}

impl SectionTable {
    /// Parse and verify container framing over `image`.
    ///
    /// Checks, in order: magic, version (exactly [`CONTAINER_VERSION`]), the
    /// whole-image CRC trailer (verified over the full prefix *before* any
    /// body varint is trusted, so a corrupted length field can never demand
    /// an unbounded allocation), body framing, and each section's stored-byte
    /// CRC. No payload is inflated.
    pub fn parse(image: &[u8]) -> Result<SectionTable, ContainerError> {
        if image.len() < 5 || image[..4] != CONTAINER_MAGIC {
            return Err(ContainerError::BadMagic);
        }
        BYTES_READ.add(image.len() as u64);
        let version = image[4];
        if version != CONTAINER_VERSION {
            return Err(ContainerError::UnsupportedVersion(version));
        }
        if image.len() < 9 {
            return Err(corrupt("image too short for crc trailer".into()));
        }
        let body_end = image.len() - 4;
        let stored = u32::from_le_bytes(image[body_end..].try_into().unwrap());
        let computed = crc32(&image[..body_end]);
        if stored != computed {
            CRC_FAILURES.inc();
            return Err(ContainerError::ImageCrcMismatch { stored, computed });
        }
        const BODY_START: usize = 5;
        let body = &image[BODY_START..body_end];
        let cur = &mut Cursor::new(body);
        let nprocs = cur.u32("nprocs").ok_or_else(|| cur.error())?;
        let n = cur
            .count_capped("container sections", MAX_SECTIONS)
            .ok_or_else(|| cur.error())?;
        let mut sections = Vec::with_capacity(n.min(SEQ_PREALLOC));
        for index in 0..n {
            let code = cur.u8().ok_or_else(|| cur.error())?;
            let kind = SectionKind::from_code(code)
                .ok_or_else(|| corrupt(format!("bad section kind {code}")))?;
            let rank = match cur.uvar().ok_or_else(|| cur.error())? {
                0 => None,
                rank_plus1 => Some(
                    cur.fit(rank_plus1 - 1, "section rank")
                        .ok_or_else(|| cur.error())?,
                ),
            };
            let encoding = cur.u8().ok_or_else(|| cur.error())?;
            if encoding > ENC_DEFLATE {
                return Err(corrupt(format!("bad section encoding {encoding}")));
            }
            // Deflated sections carry their decompressed length, bounding
            // decompression up front.
            let deflated_len = if encoding == ENC_DEFLATE {
                let n = cur.uvar().ok_or_else(|| cur.error())?;
                if n > 1 << 32 {
                    return Err(corrupt(format!("absurd section raw length {n}")));
                }
                Some(n as usize)
            } else {
                None
            };
            let stored_bytes = cur.bytes().ok_or_else(|| cur.error())?;
            let end = BODY_START + (body.len() - cur.remaining());
            let stored = end - stored_bytes.len()..end;
            let crc_stored = cur.u32("section crc").ok_or_else(|| cur.error())?;
            // The CRC covers the stored bytes (what is actually in the
            // file), so corruption is caught before any decompression.
            let computed = crc32(stored_bytes);
            if crc_stored != computed {
                CRC_FAILURES.inc();
                return Err(ContainerError::CrcMismatch {
                    index,
                    stored: crc_stored,
                    computed,
                });
            }
            let raw_len = deflated_len.unwrap_or(stored_bytes.len());
            if raw_len == 0 {
                return Err(ContainerError::EmptySection {
                    index,
                    kind: kind.name(),
                });
            }
            sections.push(SectionInfo {
                kind,
                rank,
                encoding,
                raw_len,
                stored,
            });
        }
        if !cur.is_done() {
            return Err(corrupt(format!(
                "{} trailing bytes after container body",
                cur.remaining()
            )));
        }
        Ok(SectionTable {
            version,
            nprocs,
            sections,
        })
    }

    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    pub fn len(&self) -> usize {
        self.sections.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Index of the first section of `kind`, if any.
    pub fn find(&self, kind: SectionKind) -> Option<usize> {
        self.sections.iter().position(|s| s.kind == kind)
    }

    /// Indices of all rank-scoped CTT sections, in file order.
    pub fn rank_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.sections
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == SectionKind::RankCtt)
            .map(|(i, _)| i)
    }

    /// Total decoded payload bytes across sections (excludes framing).
    pub fn payload_bytes(&self) -> usize {
        self.sections.iter().map(|s| s.raw_len).sum()
    }
}

fn corrupt(msg: String) -> ContainerError {
    ContainerError::Corrupt(DecodeError(msg))
}

/// Exactly-once inflation arena for deflated section payloads.
///
/// One slot per section; raw sections never claim a slot. The first access
/// to a deflated section inflates it into its slot, every later access
/// (including from other threads) returns the same bytes. Inflation
/// *failures* are cached too: a corrupt section reports the same
/// [`ContainerError`] forever instead of re-running DEFLATE.
pub struct PayloadArena {
    slots: Vec<OnceLock<Result<Box<[u8]>, String>>>,
    inflations: AtomicU64,
}

impl PayloadArena {
    /// An empty arena with one slot per section.
    pub fn new(sections: usize) -> PayloadArena {
        PayloadArena {
            slots: (0..sections).map(|_| OnceLock::new()).collect(),
            inflations: AtomicU64::new(0),
        }
    }

    /// Number of inflations performed so far — at most one per deflated
    /// section, and exactly zero for an all-raw image however much of it is
    /// read.
    pub fn inflations(&self) -> u64 {
        self.inflations.load(Ordering::Relaxed)
    }

    /// Bytes currently resident in the arena (inflated payloads only; raw
    /// payloads live in the image and cost nothing here).
    pub fn resident_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| s.get())
            .filter_map(|r| r.as_ref().ok())
            .map(|b| b.len())
            .sum()
    }

    /// The decoded payload of section `index`: zero-copy out of `image` for
    /// raw sections, inflated exactly once into the arena for deflated ones.
    ///
    /// `image` and `info` must be the buffer and table entry this arena was
    /// sized for.
    pub fn payload<'s>(
        &'s self,
        image: &'s [u8],
        info: &SectionInfo,
        index: usize,
    ) -> Result<&'s [u8], ContainerError> {
        if info.encoding != ENC_DEFLATE {
            return Ok(&image[info.stored.clone()]);
        }
        let res = self.slots[index].get_or_init(|| {
            self.inflations.fetch_add(1, Ordering::Relaxed);
            info.inflate(image, index).map(Vec::into_boxed_slice)
        });
        match res {
            Ok(b) => Ok(b),
            Err(msg) => Err(corrupt(msg.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{assemble, encode_section, Section};
    use cypress_deflate::Level;

    fn sample() -> Vec<Section> {
        let section = |kind, rank, payload| Section {
            kind,
            rank,
            payload,
        };
        vec![
            section(SectionKind::Meta, None, b"meta-payload".to_vec()),
            section(
                SectionKind::CstText,
                None,
                b"Root() Loop()".repeat(50).to_vec(),
            ),
            section(SectionKind::MergedCtt, None, vec![42; 4096]),
            section(
                SectionKind::RankCtt,
                Some(3),
                (0..500u32).map(|i| i as u8).collect(),
            ),
        ]
    }

    /// The 4-rank image of `sections`, deflated at `level`.
    fn image(sections: &[Section], level: Option<Level>) -> Vec<u8> {
        let encoded: Vec<_> = sections.iter().map(|s| encode_section(s, level)).collect();
        assemble(4, &encoded)
    }

    #[test]
    fn raw_image_is_served_zero_copy_with_no_inflation() {
        let c = sample();
        let image = image(&c, None);
        let table = SectionTable::parse(&image).unwrap();
        let arena = PayloadArena::new(table.len());
        assert_eq!(table.nprocs, 4);
        for (i, s) in c.iter().enumerate() {
            let p = arena.payload(&image, &table.sections()[i], i).unwrap();
            assert_eq!(p, &s.payload[..], "section {i}");
            // Zero-copy: the returned slice points into the image itself.
            let image_range = image.as_ptr() as usize..image.as_ptr() as usize + image.len();
            assert!(image_range.contains(&(p.as_ptr() as usize)), "section {i}");
        }
        assert_eq!(arena.inflations(), 0, "raw sections must never inflate");
        assert_eq!(arena.resident_bytes(), 0);
    }

    #[test]
    fn deflated_sections_inflate_exactly_once() {
        let c = sample();
        let image = image(&c, Some(Level::Default));
        let table = SectionTable::parse(&image).unwrap();
        let arena = PayloadArena::new(table.len());
        assert_eq!(arena.inflations(), 0, "parse alone must not inflate");
        let deflated = table.sections().iter().filter(|s| s.is_deflated()).count();
        assert!(deflated > 0, "sample should compress");
        for _ in 0..3 {
            for (i, s) in c.iter().enumerate() {
                let p = arena.payload(&image, &table.sections()[i], i).unwrap();
                assert_eq!(p, &s.payload[..]);
            }
        }
        assert_eq!(arena.inflations(), deflated as u64);
        assert!(arena.resident_bytes() > 0);
    }

    /// An owned payload is the section's bytes, raw or deflated, and an
    /// owned inflate refuses a lying length as the arena does, in no slot.
    #[test]
    fn owned_payloads_are_the_payloads() {
        let c = sample();
        for level in [None, Some(Level::Default)] {
            let image = image(&c, level);
            let mut table = SectionTable::parse(&image).unwrap();
            for (i, s) in c.iter().enumerate() {
                assert_eq!(
                    table.sections[i].payload_owned(&image, i).unwrap(),
                    s.payload
                );
            }
            table.sections[2].raw_len += 1;
            let owned = table.sections[2].payload_owned(&image, 2);
            match (level, owned) {
                (None, Ok(p)) => assert_eq!(p, c[2].payload),
                (Some(_), Err(ContainerError::Corrupt(e))) => {
                    assert!(e.0.contains("header said 4097 bytes"), "{e}")
                }
                (_, got) => panic!("level {level:?}: {got:?}"),
            }
        }
    }

    #[test]
    fn table_metadata_matches_the_written_container() {
        let c = sample();
        let image = image(&c, Some(Level::Fast));
        let table = SectionTable::parse(&image).unwrap();
        assert_eq!(table.version, CONTAINER_VERSION);
        assert_eq!(table.len(), c.len());
        let payload_bytes: usize = c.iter().map(|s| s.payload.len()).sum();
        assert_eq!(table.payload_bytes(), payload_bytes);
        assert_eq!(table.find(SectionKind::MergedCtt), Some(2));
        assert_eq!(table.rank_indices().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn failed_inflation_is_cached_and_counted_once() {
        // A deflated section whose header raw_len disagrees with the stream
        // fails at payload() time — identically on every access, with the
        // inflation attempted only once.
        let section = Section {
            kind: SectionKind::MergedCtt,
            rank: None,
            payload: vec![7; 1024],
        };
        let encoded = encode_section(&section, Some(Level::Default));
        assert!(encoded.stored_len() < 1024, "sample should compress");
        let image = assemble(4, &[encoded]);
        let mut table = SectionTable::parse(&image).unwrap();
        table.sections[0].raw_len += 1;
        let arena = PayloadArena::new(table.len());
        let e1 = arena
            .payload(&image, &table.sections[0], 0)
            .unwrap_err()
            .to_string();
        let e2 = arena
            .payload(&image, &table.sections[0], 0)
            .unwrap_err()
            .to_string();
        assert_eq!(e1, e2);
        assert!(e1.contains("header said"), "{e1}");
        assert_eq!(arena.inflations(), 1, "failed inflation still counts once");
    }
}
