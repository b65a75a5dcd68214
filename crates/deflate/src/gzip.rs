//! gzip container (RFC 1952) around the DEFLATE stream, with CRC-32 and
//! length verification on decompression.

use crate::bitio::BitError;
use crate::crc32::crc32;
use crate::deflate::{deflate, Level};
use crate::inflate::inflate;
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
    let mut pos = 10usize;
    if flg & 0x04 != 0 {
        // FEXTRA
        if data.len() < pos + 2 {
            return Err(BitError("truncated FEXTRA".into()));
        }
        let xlen = u16::from_le_bytes([data[pos], data[pos + 1]]) as usize;
        pos += 2 + xlen;
    }
    if flg & 0x08 != 0 {
        // FNAME: zero-terminated
        pos += data[pos..]
            .iter()
            .position(|&b| b == 0)
            .ok_or_else(|| BitError("unterminated FNAME".into()))?
            + 1;
    }
    if flg & 0x10 != 0 {
        // FCOMMENT
        pos += data[pos..]
            .iter()
            .position(|&b| b == 0)
            .ok_or_else(|| BitError("unterminated FCOMMENT".into()))?
            + 1;
    }
    if flg & 0x02 != 0 {
        pos += 2; // FHCRC
    }
    if data.len() < pos + 8 {
        return Err(BitError("gzip payload too short".into()));
    }
    let payload = &data[pos..data.len() - 8];
    let trailer = &data[data.len() - 8..];
    let want_crc = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let want_len = u32::from_le_bytes([trailer[4], trailer[5], trailer[6], trailer[7]]);
    let out = inflate(payload)?;
    if crc32(&out) != want_crc {
        return Err(BitError("gzip CRC mismatch".into()));
    }
    if out.len() as u32 != want_len {
        return Err(BitError("gzip ISIZE mismatch".into()));
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
