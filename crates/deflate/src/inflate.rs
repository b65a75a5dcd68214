//! DEFLATE decompression (RFC 1951): stored, fixed- and dynamic-Huffman
//! blocks, decoded a table lookup per symbol (see [`Decoder`]).

use crate::bitio::{BitError, BitReader};
use crate::huffman::Decoder;
use crate::tables::*;
use std::sync::OnceLock;

/// The most bytes one input byte of DEFLATE can decode to: a 258-byte match
/// costs at least two bits.
const MAX_EXPANSION: usize = 1032;

/// Decompress a raw DEFLATE stream.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, BitError> {
    let mut out = Vec::new();
    inflate_into(data, usize::MAX, &mut out)?;
    Ok(out)
}

/// Decompress a raw DEFLATE stream that was declared to hold exactly
/// `raw_len` bytes. The declaration bounds the work: decoding stops with an
/// error as soon as the output would pass `raw_len`, so a lying length
/// cannot make the reader allocate more than it announced; a stream that
/// ends short of it is an error too. The output is reserved up front, but
/// never past what `data` could decode to.
pub fn inflate_exact(data: &[u8], raw_len: usize) -> Result<Vec<u8>, BitError> {
    let mut out = Vec::with_capacity(raw_len.min(data.len().saturating_mul(MAX_EXPANSION)));
    inflate_into(data, raw_len, &mut out)?;
    if out.len() != raw_len {
        let msg = format!("declared {raw_len} bytes, got {}", out.len());
        return Err(BitError(msg));
    }
    Ok(out)
}

fn past_limit(limit: usize) -> BitError {
    BitError(format!("output would pass the declared {limit} bytes"))
}

/// The fixed literal/length and distance decoders (RFC 1951 §3.2.6), built
/// on first use and shared by every fixed block after it.
fn fixed_decoders() -> &'static [Decoder; 2] {
    static FIXED: OnceLock<[Decoder; 2]> = OnceLock::new();
    FIXED.get_or_init(|| {
        [fixed_litlen_lens(), fixed_dist_lens()]
            .map(|fixed_lens| Decoder::new(&fixed_lens).expect("the fixed codes are well-formed"))
    })
}

/// Inflate `data` onto `out`, which never grows beyond `limit` bytes.
fn inflate_into(data: &[u8], limit: usize, out: &mut Vec<u8>) -> Result<(), BitError> {
    let mut r = BitReader::new(data);
    loop {
        let bfinal = r.read_bits(1)?;
        let btype = r.read_bits(2)?;
        match btype {
            0 => {
                r.align_byte();
                let len = r.read_bits(16)?;
                let nlen = r.read_bits(16)?;
                if len != !nlen & 0xFFFF {
                    return Err(BitError("stored block LEN/NLEN mismatch".into()));
                }
                if len as usize > limit - out.len() {
                    return Err(past_limit(limit));
                }
                out.extend_from_slice(r.read_slice(len as usize)?);
            }
            1 => {
                let [lit, dist] = fixed_decoders();
                inflate_block(&mut r, lit, dist, limit, out)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_header(&mut r)?;
                inflate_block(&mut r, &lit, &dist, limit, out)?;
            }
            _ => return Err(BitError("reserved block type 3".into())),
        }
        if bfinal == 1 {
            return Ok(());
        }
    }
}

fn read_dynamic_header(r: &mut BitReader<'_>) -> Result<(Decoder, Decoder), BitError> {
    let hlit = r.read_bits(5)? as usize + 257;
    let hdist = r.read_bits(5)? as usize + 1;
    let hclen = r.read_bits(4)? as usize + 4;
    if hlit > 286 || hdist > 30 {
        return Err(BitError(format!("bad HLIT/HDIST {hlit}/{hdist}")));
    }
    let mut clc_lens = [0u8; 19];
    for &o in CLC_ORDER.iter().take(hclen) {
        clc_lens[o] = r.read_bits(3)? as u8;
    }
    let clc = Decoder::new(&clc_lens).ok_or_else(|| BitError("bad code-length code".into()))?;

    let mut lens = Vec::with_capacity(hlit + hdist);
    while lens.len() < hlit + hdist {
        let sym = clc.decode(r)?;
        match sym {
            0..=15 => lens.push(sym as u8),
            16 => {
                let prev = *lens
                    .last()
                    .ok_or_else(|| BitError("repeat with no previous length".into()))?;
                let n = 3 + r.read_bits(2)?;
                for _ in 0..n {
                    lens.push(prev);
                }
            }
            17 => {
                let n = 3 + r.read_bits(3)? as usize;
                lens.resize(lens.len() + n, 0);
            }
            18 => {
                let n = 11 + r.read_bits(7)? as usize;
                lens.resize(lens.len() + n, 0);
            }
            _ => return Err(BitError(format!("bad code-length symbol {sym}"))),
        }
    }
    if lens.len() != hlit + hdist {
        return Err(BitError("code lengths overflow HLIT+HDIST".into()));
    }
    let lit =
        Decoder::new(&lens[..hlit]).ok_or_else(|| BitError("bad literal/length code".into()))?;
    let dist = Decoder::new(&lens[hlit..]).ok_or_else(|| BitError("bad distance code".into()))?;
    Ok((lit, dist))
}

fn inflate_block(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    limit: usize,
    out: &mut Vec<u8>,
) -> Result<(), BitError> {
    loop {
        let sym = lit.decode(r)?;
        match sym {
            0..=255 => {
                if out.len() == limit {
                    return Err(past_limit(limit));
                }
                out.push(sym as u8);
            }
            256 => return Ok(()),
            257..=285 => {
                let li = sym as usize - 257;
                let len = LEN_BASE[li] as usize + r.read_bits(LEN_EXTRA[li] as u32)? as usize;
                let dsym = dist.decode(r)? as usize;
                if dsym >= 30 {
                    return Err(BitError(format!("bad distance symbol {dsym}")));
                }
                let d = DIST_BASE[dsym] as usize + r.read_bits(DIST_EXTRA[dsym] as u32)? as usize;
                if d > out.len() {
                    return Err(BitError("back-reference before start of output".into()));
                }
                if len > limit - out.len() {
                    return Err(past_limit(limit));
                }
                // Bulk copies: the whole match when it does not overlap its
                // source, else the period so far, which doubles each round.
                let start = out.len() - d;
                let mut left = len;
                while left > 0 {
                    let n = left.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    left -= n;
                }
            }
            _ => return Err(BitError(format!("bad literal/length symbol {sym}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deflate::{deflate, Level};
    use cypress_obs::rng::Rng;

    #[test]
    fn rejects_garbage() {
        assert!(inflate(&[0xFF, 0xFF, 0xFF]).is_err());
        assert!(inflate(&[]).is_err());
    }

    #[test]
    fn rejects_bad_stored_nlen() {
        // BFINAL=1, BTYPE=0, then LEN=1 NLEN=1 (mismatch).
        let bytes = [0b001u8, 1, 0, 1, 0, 42];
        assert!(inflate(&bytes).is_err());
    }

    #[test]
    fn a_declared_length_bounds_the_output() {
        // 4 MiB of zeros is a few KiB of stream: the bomb a lying
        // `raw_len` would otherwise inflate in full before the compare.
        let zeros = vec![0u8; 4 << 20];
        for level in [Level::Fast, Level::Default, Level::Best] {
            let z = deflate(&zeros, level);
            assert!(z.len() < 64 << 10);
            let mut out = Vec::new();
            let err = inflate_into(&z, 16, &mut out).unwrap_err();
            assert!(err.0.contains("declared 16 bytes"), "{err}");
            assert!(
                out.len() <= 16,
                "{} bytes written past a limit of 16",
                out.len()
            );
            assert_eq!(inflate_exact(&z, 16).unwrap_err(), err);
            assert_eq!(inflate_exact(&z, zeros.len()).unwrap(), zeros);
            let short = inflate_exact(&z, zeros.len() + 1).unwrap_err();
            assert!(short.0.contains("bytes, got 4194304"), "{short}");
        }
        // Stored blocks copy whole: the bound is checked before the copy.
        let stored = [0b001u8, 5, 0, !5, !0, 1, 2, 3, 4, 5];
        assert_eq!(inflate_exact(&stored, 5).unwrap(), [1, 2, 3, 4, 5]);
        let err = inflate_exact(&stored, 4).unwrap_err();
        assert!(err.0.contains("declared 4 bytes"), "{err}");
    }

    #[test]
    fn known_fixed_block() {
        // Compress "hello" and verify round trip via the fixed path.
        let data = b"hello";
        let c = deflate(data, Level::Fast);
        assert_eq!(inflate(&c).unwrap(), data);
    }

    #[test]
    fn round_trip_random() {
        let mut rng = Rng::new(0x1f1a);
        for _ in 0..64 {
            let n = rng.range_usize(0..8000);
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            let c = deflate(&data, Level::Default);
            assert_eq!(inflate(&c).unwrap(), data);
        }
    }

    #[test]
    fn round_trip_structured() {
        let mut rng = Rng::new(0x57ec);
        for _ in 0..64 {
            let wlen = rng.range_usize(1..20);
            let mut word = vec![0u8; wlen];
            rng.fill_bytes(&mut word);
            let reps = rng.range_usize(1..400);
            let data: Vec<u8> = word
                .iter()
                .cycle()
                .take(word.len() * reps)
                .copied()
                .collect();
            let c = deflate(&data, Level::Best);
            assert_eq!(inflate(&c).unwrap(), data.clone());
            if data.len() > 500 {
                assert!(c.len() < data.len());
            }
        }
    }

    #[test]
    fn round_trip_all_levels() {
        let mut rng = Rng::new(0xa11e);
        for _ in 0..24 {
            let n = rng.range_usize(0..4000);
            let data: Vec<u8> = (0..n).map(|_| rng.range_u64(0..16) as u8).collect();
            for level in [Level::Fast, Level::Default, Level::Best] {
                let c = deflate(&data, level);
                assert_eq!(inflate(&c).unwrap(), data.clone());
            }
        }
    }
}
