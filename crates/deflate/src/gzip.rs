//! gzip container (RFC 1952) around the DEFLATE stream, with CRC-32 and
//! length verification on decompression.

use crate::bitio::BitError;
use crate::crc32::crc32;
use crate::deflate::{deflate, Level};
use crate::inflate::inflate_exact;
use cypress_obs::{Counter, Histogram, TIME_BOUNDS_NS};

const MAGIC: [u8; 2] = [0x1F, 0x8B];
const CM_DEFLATE: u8 = 8;
const OS_UNKNOWN: u8 = 255;

static COMPRESS_IN: Counter = Counter::new("deflate", "compress_bytes_in");
static COMPRESS_OUT: Counter = Counter::new("deflate", "compress_bytes_out");
static DECOMPRESS_IN: Counter = Counter::new("deflate", "decompress_bytes_in");
static DECOMPRESS_OUT: Counter = Counter::new("deflate", "decompress_bytes_out");
static COMPRESS_NS: Histogram = Histogram::new("deflate", "compress_ns", &TIME_BOUNDS_NS);
static DECOMPRESS_NS: Histogram = Histogram::new("deflate", "decompress_ns", &TIME_BOUNDS_NS);

/// Compress into a gzip member.
pub fn gzip_compress(data: &[u8], level: Level) -> Vec<u8> {
    let _span = COMPRESS_NS.span("deflate", "gzip_compress");
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    out.extend_from_slice(&MAGIC);
    out.push(CM_DEFLATE);
    out.push(0); // FLG: no name/comment/extra/hcrc
    out.extend_from_slice(&[0, 0, 0, 0]); // MTIME
    out.push(match level {
        Level::Best => 2,
        Level::Fast => 4,
        Level::Default => 0,
    }); // XFL
    out.push(OS_UNKNOWN);
    out.extend_from_slice(&deflate(data, level));
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    COMPRESS_IN.add(data.len() as u64);
    COMPRESS_OUT.add(out.len() as u64);
    out
}

/// Decompress a gzip member, verifying CRC-32 and ISIZE.
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, BitError> {
    let _span = DECOMPRESS_NS.span("deflate", "gzip_decompress");
    if data.len() < 18 {
        return Err(BitError("gzip input too short".into()));
    }
    if data[0..2] != MAGIC {
        return Err(BitError("bad gzip magic".into()));
    }
    if data[2] != CM_DEFLATE {
        return Err(BitError(format!(
            "unsupported compression method {}",
            data[2]
        )));
    }
    let flg = data[3];
    // The optional fields sit between the fixed header and the 8-byte
    // trailer; every offset is checked against that span before it is used.
    let (header, trailer) = data.split_at(data.len() - 8);
    let mut pos = 10usize;
    let truncated = |field: &str| BitError(format!("gzip header: truncated {field}"));
    if flg & 0x04 != 0 {
        let xlen = header
            .get(pos..pos + 2)
            .ok_or_else(|| truncated("FEXTRA"))?;
        pos += 2 + u16::from_le_bytes([xlen[0], xlen[1]]) as usize;
    }
    for (bit, field) in [(0x08, "FNAME"), (0x10, "FCOMMENT")] {
        if flg & bit != 0 {
            // Zero-terminated.
            let rest = header.get(pos..).ok_or_else(|| truncated(field))?;
            pos += rest
                .iter()
                .position(|&b| b == 0)
                .ok_or_else(|| truncated(field))?
                + 1;
        }
    }
    if flg & 0x02 != 0 {
        pos += 2; // FHCRC
    }
    let payload = header
        .get(pos..)
        .ok_or_else(|| BitError("gzip payload too short".into()))?;
    let want_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let want_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    // ISIZE bounds the inflate: a member declaring less than its stream
    // holds stops there (so one past 4 GiB is refused).
    let out = inflate_exact(payload, want_len as usize)
        .map_err(|e| BitError(format!("gzip ISIZE {want_len}: {}", e.0)))?;
    if crc32(&out) != want_crc {
        return Err(BitError("gzip CRC mismatch".into()));
    }
    DECOMPRESS_IN.add(data.len() as u64);
    DECOMPRESS_OUT.add(out.len() as u64);
    Ok(out)
}

/// Convenience: the gzip-compressed size of a buffer (the metric the
/// benchmark harness reports for the "+Gzip" series).
pub fn gzip_size(data: &[u8], level: Level) -> usize {
    gzip_compress(data, level).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_obs::rng::Rng;

    #[test]
    fn round_trip_text() {
        let data = b"gzip gzip gzip gzip gzip gzip gzip!".repeat(50);
        let z = gzip_compress(&data, Level::Default);
        assert!(z.len() < data.len());
        assert_eq!(gzip_decompress(&z).unwrap(), data);
    }

    #[test]
    fn detects_corrupted_payload() {
        let data = b"payload payload payload".repeat(10);
        let mut z = gzip_compress(&data, Level::Default);
        let mid = z.len() / 2;
        z[mid] ^= 0x55;
        assert!(gzip_decompress(&z).is_err());
    }

    #[test]
    fn detects_truncation_and_bad_magic() {
        let z = gzip_compress(b"abc", Level::Default);
        assert!(gzip_decompress(&z[..10]).is_err());
        let mut bad = z.clone();
        bad[0] = 0;
        assert!(gzip_decompress(&bad).is_err());
    }

    /// FEXTRA|FNAME with XLEN = 0xFFFF in a 20-byte member: the FNAME scan
    /// used to start 65,547 bytes into a 20-byte slice.
    #[test]
    fn crafted_header_offsets_are_errors() {
        let mut member = vec![0x1F, 0x8B, 8, 0x0C, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF];
        member.resize(20, 0);
        assert!(gzip_decompress(&member).is_err());
        for flg in [0x02, 0x04, 0x08, 0x10, 0x1E] {
            member[3] = flg;
            assert!(gzip_decompress(&member).is_err(), "FLG {flg:#04x}");
        }
    }

    /// Every truncation and every single-byte flip of a member with every
    /// optional header field is an error or the original bytes.
    #[test]
    fn damaged_members_are_errors_or_the_original() {
        let data = b"gzip header fields gzip header fields".repeat(4);
        let plain = gzip_compress(&data, Level::Default);
        let mut z = plain[..10].to_vec();
        z[3] = 0x1E; // FHCRC | FEXTRA | FNAME | FCOMMENT
        z.extend_from_slice(&[3, 0, b'x', b'y', b'z']);
        z.extend_from_slice(b"name\0comment\0");
        z.extend_from_slice(&[0xAB, 0xCD]);
        z.extend_from_slice(&plain[10..]);
        assert_eq!(gzip_decompress(&z).unwrap(), data);
        for cut in 0..z.len() {
            assert!(gzip_decompress(&z[..cut]).is_err(), "cut {cut}");
        }
        let mut damaged = z.clone();
        for pos in 0..z.len() {
            for mask in [0x01, 0x80, 0xFF] {
                damaged[pos] ^= mask;
                if let Ok(out) = gzip_decompress(&damaged) {
                    assert_eq!(out, data, "flip {mask:#04x} at {pos}");
                }
                damaged[pos] ^= mask;
            }
        }
    }

    /// A member whose stream holds more than its ISIZE stops at ISIZE.
    #[test]
    fn isize_bounds_the_inflate() {
        let mut z = gzip_compress(&vec![0u8; 1 << 20], Level::Default);
        let n = z.len();
        z[n - 4..].copy_from_slice(&16u32.to_le_bytes());
        let err = gzip_decompress(&z).unwrap_err();
        assert!(err.0.contains("declared 16 bytes"), "{err}");
    }

    #[test]
    fn empty_round_trip() {
        let z = gzip_compress(&[], Level::Default);
        assert_eq!(gzip_decompress(&z).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn gzip_round_trip_random() {
        let mut rng = Rng::new(0x671b);
        for _ in 0..48 {
            let n = rng.range_usize(0..6000);
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            let z = gzip_compress(&data, Level::Default);
            assert_eq!(gzip_decompress(&z).unwrap(), data);
        }
    }
}
