//! Versioned on-disk trace container.
//!
//! Merged traces used to live as bare `MergedCtt` codec bytes next to a
//! loose `.cst` text file — no magic, no version, no integrity check, and no
//! way to carry per-rank artifacts. This module defines a single
//! self-describing file that persists a whole compression job so it can be
//! reloaded without re-simulation (what Recorder calls its "compact on-disk
//! container"):
//!
//! ```text
//! offset  size  field
//! 0       4     magic "CYTC"
//! 4       1     format version ([`CONTAINER_VERSION`])
//! 5       …     body (cypress varint codec):
//!               uvar nprocs
//!               uvar section_count
//!               section × section_count:
//!                 u8   kind        (Meta | CstText | MergedCtt | RankCtt)
//!                 uvar rank + 1    (0 = not rank-scoped)
//!                 u8   encoding    (0 = raw, 1 = deflate)
//!                 uvar raw_len     (deflate encoding only)
//!                 uvar stored_len, stored bytes
//!                 uvar crc32(stored)    (gzip polynomial, cypress-deflate)
//! end     4     u32 LE crc32 of every preceding byte
//! ```
//!
//! Each section is independently framed and CRC-protected, so a reader can
//! skip kinds it does not understand and detect torn or corrupted writes
//! per-section.
//!
//! Writing is two steps: each section is encoded on its own
//! ([`encode_payload`] / [`encode_section`], or [`encode_parts`] for a
//! payload made in chunks; eligible payloads are deflated at a chosen
//! [`Level`]), and [`Container::write`] streams them in order into a temp
//! file that is renamed into place. Every stored part carries the crc32
//! taken where it was made, and the image trailer is combined from those
//! and the framing's ([`crc32_combine`](cypress_deflate::crc32_combine)),
//! so the write reads no payload byte twice. [`assemble`] is the same
//! writer into a `Vec`. That split is what lets the umbrella crate
//! compress sections on a worker pool without this crate depending on a
//! scheduler.
//!
//! Per-section CRCs protect payload bytes but not the *framing* varints
//! (section counts, lengths): a single flipped length byte could send a
//! reader off to allocate gigabytes or misinterpret the rest of the file.
//! The trailing image CRC is therefore verified over the full prefix
//! **before any body byte is parsed** (see
//! [`SectionTable::parse`](crate::view::SectionTable::parse)), so every
//! single-byte corruption is rejected up front with a clean error.
//!
//! Reading goes through [`crate::view`] only, and accepts exactly the
//! version this build writes.

use crate::codec::{DecodeError, Encoder};
use cypress_deflate::{crc32, crc32_combine, deflate, Level};
use cypress_obs::{Counter, Histogram, TIME_BOUNDS_NS};
use std::borrow::Cow;
use std::fmt;
use std::io::{BufWriter, Write};
use std::path::Path;

/// File magic: CYpress Trace Container.
pub const CONTAINER_MAGIC: [u8; 4] = *b"CYTC";

/// Current format version.
pub const CONTAINER_VERSION: u8 = 3;

/// Section stored exactly as its payload bytes.
pub(crate) const ENC_RAW: u8 = 0;
/// Section stored as a raw DEFLATE stream of the payload.
pub(crate) const ENC_DEFLATE: u8 = 1;

/// Payloads below this size skip compression: framing overhead dominates and
/// the extra encoding byte already costs one.
const MIN_COMPRESS_LEN: usize = 64;

// Scope `container`.
static BYTES_WRITTEN: Counter = Counter::new("container", "bytes_written");
pub(crate) static BYTES_READ: Counter = Counter::new("container", "bytes_read");
pub(crate) static CRC_FAILURES: Counter = Counter::new("container", "crc_failures");
/// Sections actually stored deflated (compression won).
static SECTIONS_DEFLATED: Counter = Counter::new("container", "sections_deflated");
/// Raw payload bytes that went into section deflate.
static DEFLATE_IN_BYTES: Counter = Counter::new("container", "deflate_in_bytes");
/// Stored bytes that came out.
static DEFLATE_OUT_BYTES: Counter = Counter::new("container", "deflate_out_bytes");
/// Wall time of per-section encode (deflate + fallback decision).
static SECTION_ENCODE_NS: Histogram =
    Histogram::new("container", "section_encode_ns", &TIME_BOUNDS_NS);

/// What a section's payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// Tool metadata (free-form codec payload; see the umbrella crate).
    Meta,
    /// The CST in its canonical text format.
    CstText,
    /// A whole-job `MergedCtt` in codec bytes.
    MergedCtt,
    /// One rank's `Ctt` in codec bytes (rank-scoped).
    RankCtt,
    /// Compact telemetry summary of how the job was produced (free-form
    /// codec payload; see the umbrella crate). Optional trailing section —
    /// readers that don't understand it skip it by frame.
    Telemetry,
}

impl SectionKind {
    pub fn code(self) -> u8 {
        match self {
            SectionKind::Meta => 0,
            SectionKind::CstText => 1,
            SectionKind::MergedCtt => 2,
            SectionKind::RankCtt => 3,
            SectionKind::Telemetry => 4,
        }
    }

    pub fn from_code(c: u8) -> Option<SectionKind> {
        Some(match c {
            0 => SectionKind::Meta,
            1 => SectionKind::CstText,
            2 => SectionKind::MergedCtt,
            3 => SectionKind::RankCtt,
            4 => SectionKind::Telemetry,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Meta => "meta",
            SectionKind::CstText => "cst-text",
            SectionKind::MergedCtt => "merged-ctt",
            SectionKind::RankCtt => "rank-ctt",
            SectionKind::Telemetry => "telemetry",
        }
    }
}

/// One framed, CRC-protected payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    pub kind: SectionKind,
    /// Present for rank-scoped kinds (`RankCtt`).
    pub rank: Option<u32>,
    pub payload: Vec<u8>,
}

/// Container I/O and integrity errors.
#[derive(Debug)]
pub enum ContainerError {
    Io(std::io::Error),
    /// The file does not start with [`CONTAINER_MAGIC`].
    BadMagic,
    /// The file's version is not [`CONTAINER_VERSION`], the only one this
    /// build reads or writes.
    UnsupportedVersion(u8),
    /// Malformed body (framing, varints, bad kind codes).
    Corrupt(DecodeError),
    /// A section's payload does not match its stored CRC.
    CrcMismatch {
        index: usize,
        stored: u32,
        computed: u32,
    },
    /// The whole-image CRC trailer does not match — some byte of the
    /// file, payload or framing, was corrupted.
    ImageCrcMismatch {
        stored: u32,
        computed: u32,
    },
    /// A required section is absent.
    MissingSection(&'static str),
    /// A section carries no payload bytes. Every defined kind has a
    /// non-empty encoding, so an empty payload is always a producer bug or
    /// corruption; rejecting it here gives a clear error instead of a
    /// confusing downstream codec failure.
    EmptySection {
        index: usize,
        kind: &'static str,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "container io error: {e}"),
            ContainerError::BadMagic => write!(f, "not a cypress container (bad magic)"),
            ContainerError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "container version {v} not supported (this build reads and writes \
                     only version {CONTAINER_VERSION})"
                )
            }
            ContainerError::Corrupt(e) => write!(f, "corrupt container: {e}"),
            ContainerError::CrcMismatch {
                index,
                stored,
                computed,
            } => write!(
                f,
                "section {index} crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ContainerError::ImageCrcMismatch { stored, computed } => write!(
                f,
                "image crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            ContainerError::MissingSection(kind) => {
                write!(f, "container has no {kind} section")
            }
            ContainerError::EmptySection { index, kind } => {
                write!(f, "section {index} ({kind}) has a zero-length payload")
            }
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            ContainerError::Corrupt(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ContainerError {
    fn from(e: std::io::Error) -> Self {
        ContainerError::Io(e)
    }
}

impl From<DecodeError> for ContainerError {
    fn from(e: DecodeError) -> Self {
        ContainerError::Corrupt(e)
    }
}

/// The container writer's namespace: encoded sections go to disk through
/// [`Container::write`], an image made by [`assemble`] through
/// [`Container::write_image`].
pub struct Container;

impl Container {
    /// Write the container of `encoded` sections atomically (temp sibling +
    /// rename), streamed: the framing and each stored part go straight to
    /// the temp file, and the image trailer is combined from their CRCs
    /// (`write_container`), so no image is built in memory.
    pub fn write(
        path: impl AsRef<Path>,
        nprocs: u32,
        encoded: &[EncodedSection],
    ) -> Result<(), ContainerError> {
        let mut written = 0;
        cypress_obs::write_atomic_with(path.as_ref(), |file| {
            let mut out = BufWriter::new(file);
            written = write_container(&mut out, nprocs, encoded)?;
            out.flush()
        })?;
        BYTES_WRITTEN.add(written);
        Ok(())
    }

    /// Write an already-assembled image atomically (temp sibling + rename).
    pub fn write_image(path: impl AsRef<Path>, image: &[u8]) -> Result<(), ContainerError> {
        cypress_obs::write_atomic(path.as_ref(), image)?;
        BYTES_WRITTEN.add(image.len() as u64);
        Ok(())
    }
}

/// Stored bytes as they were made — a whole section, or one chunk of a
/// section encoded in parts — with their crc32, taken where they were made.
#[derive(Debug, Clone, PartialEq)]
pub struct Part {
    bytes: Vec<u8>,
    crc: u32,
}

impl Part {
    /// Take `bytes`' crc32 (on the calling thread: the worker that made
    /// them).
    pub fn new(bytes: Vec<u8>) -> Part {
        Part {
            crc: crc32(&bytes),
            bytes,
        }
    }

    fn len(&self) -> usize {
        self.bytes.len()
    }
}

/// One section's serialized form: the stored bytes plus the framing fields
/// needed to emit it. Produced by [`encode_section`], [`encode_payload`] or
/// [`encode_parts`] (safe to run on any thread — this is the unit of
/// parallelism for container compression) and written in order by
/// `write_container`.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedSection {
    kind: SectionKind,
    rank: Option<u32>,
    encoding: u8,
    /// Decompressed payload length (deflate encoding only).
    raw_len: usize,
    /// The stored bytes, in the parts they were made in.
    parts: Vec<Part>,
}

impl EncodedSection {
    /// Bytes as stored in the file (compressed for deflated sections).
    pub fn stored_len(&self) -> usize {
        self.parts.iter().map(Part::len).sum()
    }

    /// crc32 of the stored bytes, combined from the parts'.
    fn crc(&self) -> u32 {
        self.parts
            .iter()
            .fold(0, |crc, p| crc32_combine(crc, p.crc, p.len() as u64))
    }
}

/// Encode one section for storage: deflate the payload at `level` when that
/// is enabled, the payload is large enough, and compression actually wins;
/// store raw otherwise. The section CRC is taken here, on the worker, over
/// the stored bytes. Pure function of `(section, level)` — parallel and
/// sequential encodes are byte-identical.
pub fn encode_section(s: &Section, level: Option<Level>) -> EncodedSection {
    encode_payload(s.kind, s.rank, &s.payload[..], level)
}

/// [`encode_section`] of a payload the caller holds outside a [`Section`]:
/// owned bytes stored raw are moved into the section, not copied.
pub fn encode_payload<'a>(
    kind: SectionKind,
    rank: Option<u32>,
    payload: impl Into<Cow<'a, [u8]>>,
    level: Option<Level>,
) -> EncodedSection {
    let payload = payload.into();
    let raw_len = payload.len();
    let _span = SECTION_ENCODE_NS
        .span("encode", "section")
        .arg(raw_len as u64);
    let (encoding, stored) = match deflated(&payload, level) {
        Some(z) => (ENC_DEFLATE, z),
        None => (ENC_RAW, payload.into_owned()),
    };
    EncodedSection {
        kind,
        rank,
        encoding,
        raw_len,
        parts: vec![Part::new(stored)],
    }
}

/// [`encode_payload`] of a payload made in parts, each CRC'd where it was
/// made ([`Part::new`]): stored raw, the parts are the section's; deflated,
/// they are joined first and the stream is one part.
pub fn encode_parts(
    kind: SectionKind,
    rank: Option<u32>,
    parts: Vec<Part>,
    level: Option<Level>,
) -> EncodedSection {
    let raw_len = parts.iter().map(Part::len).sum();
    let _span = SECTION_ENCODE_NS
        .span("encode", "section")
        .arg(raw_len as u64);
    let z = level.filter(|_| raw_len >= MIN_COMPRESS_LEN).and_then(|_| {
        let joined: Vec<u8> = parts.iter().flat_map(|p| &p.bytes).copied().collect();
        deflated(&joined, level)
    });
    let (encoding, parts) = match z {
        Some(z) => (ENC_DEFLATE, vec![Part::new(z)]),
        None => (ENC_RAW, parts),
    };
    EncodedSection {
        kind,
        rank,
        encoding,
        raw_len,
        parts,
    }
}

/// `payload` deflated at `level`, when that is enabled, the payload is
/// large enough, and compression wins.
fn deflated(payload: &[u8], level: Option<Level>) -> Option<Vec<u8>> {
    let z = level
        .filter(|_| payload.len() >= MIN_COMPRESS_LEN)
        .map(|level| deflate(payload, level))
        .filter(|z| z.len() < payload.len())?;
    SECTIONS_DEFLATED.inc();
    DEFLATE_IN_BYTES.add(payload.len() as u64);
    DEFLATE_OUT_BYTES.add(z.len() as u64);
    Some(z)
}

/// Write the container image of `encoded` to `out`: the framed body
/// followed by a whole-image crc32 trailer that lets readers reject any
/// corruption — framing included — before parsing a single body byte.
/// Each stored part is written as it was made, and the trailer is combined
/// from the framing bytes' CRCs and each part's, so no payload byte is read
/// again here. Returns the bytes written.
fn write_container(
    out: &mut impl Write,
    nprocs: u32,
    encoded: &[EncodedSection],
) -> std::io::Result<u64> {
    let mut image = ImageWriter {
        out,
        crc: 0,
        len: 0,
    };
    let mut head = Encoder::new();
    for b in CONTAINER_MAGIC {
        head.put_u8(b);
    }
    head.put_u8(CONTAINER_VERSION);
    head.put_uvar(nprocs as u64);
    head.put_uvar(encoded.len() as u64);
    image.framing(head)?;
    for e in encoded {
        let mut head = Encoder::new();
        head.put_u8(e.kind.code());
        head.put_uvar(e.rank.map(|r| r as u64 + 1).unwrap_or(0));
        head.put_u8(e.encoding);
        if e.encoding == ENC_DEFLATE {
            head.put_uvar(e.raw_len as u64);
        }
        head.put_uvar(e.stored_len() as u64);
        image.framing(head)?;
        for part in &e.parts {
            image.out.write_all(&part.bytes)?;
            image.crc = crc32_combine(image.crc, part.crc, part.len() as u64);
            image.len += part.len() as u64;
        }
        let mut tail = Encoder::new();
        tail.put_uvar(e.crc() as u64);
        image.framing(tail)?;
    }
    image.out.write_all(&image.crc.to_le_bytes())?;
    Ok(image.len + 4)
}

/// The sink [`write_container`] writes through, keeping the crc32 and the
/// length of everything written so far.
struct ImageWriter<'a, W> {
    out: &'a mut W,
    crc: u32,
    len: u64,
}

impl<W: Write> ImageWriter<'_, W> {
    fn framing(&mut self, enc: Encoder) -> std::io::Result<()> {
        let bytes = enc.finish();
        self.out.write_all(&bytes)?;
        self.crc = crc32_combine(self.crc, crc32(&bytes), bytes.len() as u64);
        self.len += bytes.len() as u64;
        Ok(())
    }
}

/// The container image of `encoded` sections in memory:
/// `write_container` into a `Vec`, the one framing path.
pub fn assemble(nprocs: u32, encoded: &[EncodedSection]) -> Vec<u8> {
    let framed: usize = encoded.iter().map(|e| e.stored_len() + 20).sum();
    let mut image = Vec::with_capacity(CONTAINER_MAGIC.len() + 1 + 8 + framed + 4);
    write_container(&mut image, nprocs, encoded).expect("writing to a Vec cannot fail");
    image
}

/// Does this byte prefix look like a container file?
pub fn is_container(prefix: &[u8]) -> bool {
    prefix.len() >= 4 && prefix[..4] == CONTAINER_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{PayloadArena, SectionTable};

    fn section(kind: SectionKind, rank: Option<u32>, payload: Vec<u8>) -> Section {
        Section {
            kind,
            rank,
            payload,
        }
    }

    /// The writer's path: encode each section, assemble in order.
    fn image(nprocs: u32, sections: &[Section], level: Option<Level>) -> Vec<u8> {
        let encoded: Vec<EncodedSection> =
            sections.iter().map(|s| encode_section(s, level)).collect();
        assemble(nprocs, &encoded)
    }

    fn sample() -> Vec<Section> {
        vec![
            section(SectionKind::Meta, None, b"meta-payload".to_vec()),
            section(SectionKind::CstText, None, b"Root()".to_vec()),
            section(SectionKind::MergedCtt, None, vec![1, 2, 3, 4, 5]),
            section(SectionKind::RankCtt, Some(0), vec![9, 9]),
            section(SectionKind::RankCtt, Some(7), vec![7; 100]),
        ]
    }

    /// Materialize every section of `image` through the one reader.
    fn read_back(image: &[u8]) -> Result<(u32, Vec<Section>), ContainerError> {
        let table = SectionTable::parse(image)?;
        let arena = PayloadArena::new(table.len());
        let mut sections = Vec::new();
        for (i, info) in table.sections().iter().enumerate() {
            let payload = arena.payload(image, info, i)?;
            sections.push(section(info.kind, info.rank, payload.to_vec()));
        }
        Ok((table.nprocs, sections))
    }

    /// Recompute the image-CRC trailer after editing `image` in place.
    fn reseal(image: &mut [u8]) {
        let split = image.len() - 4;
        let crc = crc32(&image[..split]);
        image[split..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn round_trip() {
        let back = read_back(&image(8, &sample(), None)).unwrap();
        assert_eq!(back, (8, sample()));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = image(8, &sample(), None);
        bytes[0] = b'X';
        assert!(matches!(read_back(&bytes), Err(ContainerError::BadMagic)));
        assert!(!is_container(&bytes));
        assert!(matches!(read_back(b"CY"), Err(ContainerError::BadMagic)));
    }

    /// Exactly one version reads. Anything else — older or newer, with or
    /// without a matching trailer — is `UnsupportedVersion`, and the error
    /// text names both the offered and the expected version.
    #[test]
    fn wrong_version_is_a_loud_error_naming_both_versions() {
        for offered in [0, CONTAINER_VERSION - 1, CONTAINER_VERSION + 1, 0xff] {
            let mut bytes = image(8, &sample(), None);
            bytes[4] = offered;
            // Re-seal so the version byte is the only thing wrong.
            reseal(&mut bytes);
            let err = read_back(&bytes).unwrap_err();
            assert!(
                matches!(err, ContainerError::UnsupportedVersion(v) if v == offered),
                "version {offered}: {err}"
            );
            let text = err.to_string();
            assert!(
                text.contains(&format!("version {offered} "))
                    && text.contains(&format!("version {CONTAINER_VERSION}")),
                "version {offered}: {text}"
            );
        }
    }

    #[test]
    fn payload_corruption_fails_image_crc() {
        let clean = image(8, &sample(), None);
        // Flip one byte inside the merged-ctt payload (find it by value).
        // The whole-image CRC catches this before body parsing.
        let pos = clean
            .windows(5)
            .position(|w| w == [1, 2, 3, 4, 5])
            .expect("payload present");
        let mut bytes = clean.clone();
        bytes[pos + 2] ^= 0xff;
        assert!(matches!(
            read_back(&bytes),
            Err(ContainerError::ImageCrcMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_corrupt_not_panic() {
        let bytes = image(8, &sample(), None);
        for cut in [5, 8, bytes.len() - 1] {
            let err = read_back(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ContainerError::Corrupt(_) | ContainerError::ImageCrcMismatch { .. }
                ),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = image(8, &sample(), None);
        bytes.push(0);
        assert!(matches!(
            read_back(&bytes),
            Err(ContainerError::ImageCrcMismatch { .. })
        ));
    }

    #[test]
    fn zero_length_section_rejected_on_read() {
        let sections = [
            section(SectionKind::Meta, None, b"m".to_vec()),
            section(SectionKind::RankCtt, Some(1), Vec::new()),
        ];
        let err = read_back(&image(2, &sections, None)).unwrap_err();
        assert!(
            matches!(err, ContainerError::EmptySection { index: 1, kind } if kind == "rank-ctt"),
            "{err}"
        );
        assert!(err.to_string().contains("zero-length"), "{err}");
    }

    fn compressible_sample() -> Vec<Section> {
        let mut sections = vec![
            section(SectionKind::Meta, None, b"meta-payload".to_vec()),
            section(
                SectionKind::CstText,
                None,
                b"Root() Loop() Mpi()".repeat(40).to_vec(),
            ),
            section(SectionKind::MergedCtt, None, vec![42; 4096]),
        ];
        for rank in 0..4u32 {
            sections.push(section(
                SectionKind::RankCtt,
                Some(rank),
                (0..2000u32).map(|i| (i % 17) as u8).collect(),
            ));
        }
        sections
    }

    #[test]
    fn compressed_round_trip_preserves_sections_at_every_level() {
        let c = compressible_sample();
        for level in [
            None,
            Some(Level::Fast),
            Some(Level::Default),
            Some(Level::Best),
        ] {
            let bytes = image(4, &c, level);
            let back = read_back(&bytes).unwrap_or_else(|e| panic!("level {level:?}: {e}"));
            assert_eq!(back, (4, c.clone()), "level {level:?}");
        }
    }

    #[test]
    fn raw_serialization_is_current_version_and_stable() {
        let c = compressible_sample();
        let raw = image(4, &c, None);
        assert_eq!(raw[4], CONTAINER_VERSION);
        assert_eq!(raw, image(4, &c, None));
    }

    #[test]
    fn compressed_image_is_current_version_and_smaller() {
        let c = compressible_sample();
        let raw = image(4, &c, None);
        let z = image(4, &c, Some(Level::Default));
        assert_eq!(z[4], CONTAINER_VERSION);
        assert!(
            z.len() < raw.len() / 2,
            "compressible sections should shrink: {} vs {}",
            z.len(),
            raw.len()
        );
    }

    #[test]
    fn incompressible_sections_stay_raw() {
        // A container whose only large section is incompressible: deflate
        // loses, every section stays raw, and the stored image is the same
        // size as the unleveled one.
        let mut x = 0x2468_ace1u32;
        let noise: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        let c = [section(SectionKind::MergedCtt, None, noise)];
        let z = image(1, &c, Some(Level::Best));
        assert_eq!(
            z,
            image(1, &c, None),
            "nothing compressed ⇒ same image as raw"
        );
        assert_eq!(read_back(&z).unwrap(), (1, c.to_vec()));
    }

    #[test]
    fn per_section_encode_plus_assemble_matches_sequential() {
        // The parallel encode path: encode sections independently, assemble
        // in order — byte-identical to encoding them in file order.
        let c = compressible_sample();
        for level in [None, Some(Level::Fast), Some(Level::Default)] {
            // Encode in reverse order to prove order independence, then
            // restore file order for assembly.
            let mut encoded: Vec<EncodedSection> =
                c.iter().rev().map(|s| encode_section(s, level)).collect();
            encoded.reverse();
            assert_eq!(assemble(4, &encoded), image(4, &c, level));
        }
    }

    #[test]
    fn resealed_payload_corruption_fails_section_crc() {
        // Someone who recomputes the image trailer after tampering still
        // has to get past the per-section CRC over the stored bytes — for a
        // deflated section that is before any inflation.
        let mut bytes = image(4, &compressible_sample(), Some(Level::Default));
        let n = bytes.len();
        bytes[n / 2] ^= 0xff;
        reseal(&mut bytes);
        assert!(matches!(
            SectionTable::parse(&bytes).err(),
            Some(ContainerError::CrcMismatch { .. } | ContainerError::Corrupt(_))
        ));
    }

    /// The image as the one-buffer writer made it before the streamed one:
    /// framing and stored bytes copied into one buffer, then one crc32 pass
    /// over all of it for the trailer.
    fn one_buffer_image(nprocs: u32, encoded: &[EncodedSection]) -> Vec<u8> {
        let mut enc = Encoder::new();
        for b in CONTAINER_MAGIC {
            enc.put_u8(b);
        }
        enc.put_u8(CONTAINER_VERSION);
        enc.put_uvar(nprocs as u64);
        enc.put_uvar(encoded.len() as u64);
        for e in encoded {
            let stored: Vec<u8> = e.parts.iter().flat_map(|p| &p.bytes).copied().collect();
            enc.put_u8(e.kind.code());
            enc.put_uvar(e.rank.map(|r| r as u64 + 1).unwrap_or(0));
            enc.put_u8(e.encoding);
            if e.encoding == ENC_DEFLATE {
                enc.put_uvar(e.raw_len as u64);
            }
            enc.put_bytes(&stored);
            enc.put_uvar(crc32(&stored) as u64);
        }
        let mut out = enc.finish();
        let image_crc = crc32(&out);
        out.extend_from_slice(&image_crc.to_le_bytes());
        out
    }

    /// Every section kind, raw and deflated, whole and in parts: the image
    /// streamed to a file and the one `assemble` makes are the one-buffer
    /// image, and a section made in parts stores what its joined payload
    /// would.
    #[test]
    fn streamed_image_equals_the_one_buffer_image() {
        let dir = std::env::temp_dir().join(format!("cypress-stream-{}", std::process::id()));
        let path = dir.join("job.cytc");
        let mut sections = sample();
        sections.extend(compressible_sample());
        sections.push(section(SectionKind::Telemetry, None, vec![3; 700]));
        for level in [
            None,
            Some(Level::Fast),
            Some(Level::Default),
            Some(Level::Best),
        ] {
            let whole: Vec<EncodedSection> =
                sections.iter().map(|s| encode_section(s, level)).collect();
            let want = one_buffer_image(9, &whole);
            assert_eq!(assemble(9, &whole), want, "level {level:?}");
            Container::write(&path, 9, &whole).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), want, "level {level:?}");
            // Cut every payload into 1, 2, 3 and 7 parts, empty ones too.
            for cuts in [1, 2, 3, 7] {
                let parted: Vec<EncodedSection> = sections
                    .iter()
                    .map(|s| {
                        let n = s.payload.len();
                        let parts = (0..cuts)
                            .map(|i| {
                                Part::new(s.payload[i * n / cuts..(i + 1) * n / cuts].to_vec())
                            })
                            .collect();
                        encode_parts(s.kind, s.rank, parts, level)
                    })
                    .collect();
                Container::write(&path, 9, &parted).unwrap();
                let written = std::fs::read(&path).unwrap();
                assert_eq!(written, want, "level {level:?}, {cuts} parts");
                assert_eq!(assemble(9, &parted), want, "level {level:?}, {cuts} parts");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_round_trip_is_atomic_write() {
        let dir = std::env::temp_dir().join(format!("cypress-container-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.cytc");
        Container::write_image(&path, &image(8, &sample(), None)).unwrap();
        let back = read_back(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back, (8, sample()));
        // No temp litter.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["job.cytc".to_owned()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
