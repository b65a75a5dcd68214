//! DEFLATE decompression (RFC 1951): stored, fixed- and dynamic-Huffman
//! blocks, written by index into a zeroed output.
//!
//! A Huffman block is one loop in two parts. The fast part runs while eight
//! input bytes and 266 output bytes (`FAST_OUT`) remain: with the reader in
//! locals it refills once per symbol and takes a literal (and a second one)
//! or a length and distance straight from the fused [`Entry`]s, whose bounds
//! those margins already check. The careful part takes one symbol through
//! [`BitReader`] with every check: the last bytes, table misses, the end of
//! the block, bad symbols and distances before the output's start.

use crate::bitio::{BitError, BitReader};
use crate::huffman::{Alphabet, Decoder, Entry};
use crate::tables::*;
use std::sync::OnceLock;

/// The most bytes one input byte of DEFLATE can decode to: a 258-byte match
/// costs at least two bits.
const MAX_EXPANSION: usize = 1032;

/// Output the fast part keeps free: the longest match and the overshoot of
/// its last 8-byte chunk.
const FAST_OUT: usize = 258 + 8;

/// Decompress a raw DEFLATE stream of undeclared length (every stream this
/// repository reads has one): the output starts at 4× the input.
pub fn inflate(data: &[u8]) -> Result<Vec<u8>, BitError> {
    inflate_into(data, usize::MAX, data.len().saturating_mul(4))
}

/// Decompress a raw DEFLATE stream that was declared to hold exactly
/// `raw_len` bytes. The declaration bounds the work: decoding stops with an
/// error as soon as the output would pass `raw_len`, so a lying length
/// cannot make the reader allocate more than it announced; a stream that
/// ends short of it is an error too. The output is allocated up front, but
/// never past what `data` could decode to.
pub fn inflate_exact(data: &[u8], raw_len: usize) -> Result<Vec<u8>, BitError> {
    let out = inflate_into(data, raw_len, raw_len)?;
    if out.len() != raw_len {
        let msg = format!("declared {raw_len} bytes, got {}", out.len());
        return Err(BitError(msg));
    }
    Ok(out)
}

/// Inflate `data` into a buffer of `first` bytes, grown as needed but never
/// past `limit`, nor past the MAX_EXPANSION bytes an input byte can make.
fn inflate_into(data: &[u8], limit: usize, first: usize) -> Result<Vec<u8>, BitError> {
    let limit = limit.min(data.len().saturating_mul(MAX_EXPANSION));
    let mut out = Output {
        buf: vec![0; first.min(limit)],
        len: 0,
        limit,
    };
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
                let len = len as usize;
                out.room(len)?;
                out.buf[out.len..out.len + len].copy_from_slice(r.read_slice(len)?);
                out.len += len;
            }
            1 => {
                let [lit, dist] = fixed_decoders();
                inflate_block(&mut r, lit, dist, &mut out)?;
            }
            2 => {
                let (lit, dist) = read_dynamic_header(&mut r)?;
                inflate_block(&mut r, &lit, &dist, &mut out)?;
            }
            _ => return Err(BitError("reserved block type 3".into())),
        }
        if bfinal == 1 {
            out.buf.truncate(out.len);
            return Ok(out.buf);
        }
    }
}

/// The output and how much of it is written; past `len` lie zeros, or what
/// the fast part's chunked copies wrote ahead.
struct Output {
    buf: Vec<u8>,
    len: usize,
    limit: usize,
}

impl Output {
    /// Room for `n` more bytes, doubling the buffer up to the limit; past
    /// it (the declared length, when a stream can reach it), an error.
    fn room(&mut self, n: usize) -> Result<(), BitError> {
        if n <= self.buf.len() - self.len {
            return Ok(());
        }
        if n > self.limit - self.len {
            let limit = self.limit;
            return Err(BitError(format!(
                "output would pass the declared {limit} bytes"
            )));
        }
        let grown = (self.len + n).max(2 * self.buf.len()).min(self.limit);
        self.buf.resize(grown, 0);
        Ok(())
    }
}

/// The fixed literal/length and distance decoders (RFC 1951 §3.2.6), built
/// on first use and shared by every fixed block after it.
fn fixed_decoders() -> &'static [Decoder; 2] {
    static FIXED: OnceLock<[Decoder; 2]> = OnceLock::new();
    FIXED.get_or_init(|| {
        [
            (fixed_litlen_lens(), Alphabet::LitLen),
            (fixed_dist_lens(), Alphabet::Dist),
        ]
        .map(|(fixed_lens, alphabet)| {
            Decoder::new(&fixed_lens, alphabet).expect("the fixed codes are well-formed")
        })
    })
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
    let clc = Decoder::new(&clc_lens, Alphabet::LitLen)
        .ok_or_else(|| BitError("bad code-length code".into()))?;

    let mut lens = Vec::with_capacity(hlit + hdist);
    while lens.len() < hlit + hdist {
        let sym = clc.decode(r)?.value();
        match sym {
            0..=15 => lens.push(sym as u8),
            16 => {
                let prev = *lens
                    .last()
                    .ok_or_else(|| BitError("repeat with no previous length".into()))?;
                let n = 3 + r.read_bits(2)? as usize;
                lens.resize(lens.len() + n, prev);
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
    let lit = Decoder::new(&lens[..hlit], Alphabet::LitLen)
        .ok_or_else(|| BitError("bad literal/length code".into()))?;
    let dist = Decoder::new(&lens[hlit..], Alphabet::Dist)
        .ok_or_else(|| BitError("bad distance code".into()))?;
    Ok((lit, dist))
}

/// The low `n` bits of `bits`.
#[inline]
fn low(bits: u64, n: u32) -> usize {
    (bits & ((1 << n) - 1)) as usize
}

fn inflate_block(
    r: &mut BitReader<'_>,
    lit: &Decoder,
    dist: &Decoder,
    out: &mut Output,
) -> Result<(), BitError> {
    loop {
        // The fast part. A refill leaves at least 56 bits of input; a
        // symbol takes at most 11 + 5 + 10 + 13 of them from the tables,
        // and two literals 22.
        let mut s = r.clone();
        let buf = &mut out.buf[..];
        let mut op = out.len;
        while s.has_word() && op + FAST_OUT <= buf.len() {
            let bits = s.refill();
            let e = lit.lookup(bits);
            match e.kind() {
                Entry::LITERAL => {
                    s.consume(e.code_len());
                    buf[op] = e.value() as u8;
                    op += 1;
                    let e = lit.lookup(bits >> e.code_len());
                    if e.kind() == Entry::LITERAL {
                        s.consume(e.code_len());
                        buf[op] = e.value() as u8;
                        op += 1;
                    }
                }
                Entry::BASE => {
                    let bits = bits >> e.code_len();
                    let len = e.value() + low(bits, e.extra());
                    let bits = bits >> e.extra();
                    let d = dist.lookup(bits);
                    let distance = d.value() + low(bits >> d.code_len(), d.extra());
                    // Left unconsumed for the careful part to take or refuse.
                    if d.kind() != Entry::BASE || distance > op {
                        break;
                    }
                    s.consume(e.code_len() + e.extra() + d.code_len() + d.extra());
                    let from = op - distance;
                    if distance >= 8 {
                        // Each chunk reads only bytes written before it.
                        for i in (0..len).step_by(8) {
                            buf.copy_within(from + i..from + i + 8, op + i);
                        }
                    } else if distance == 1 {
                        let byte = buf[from];
                        buf[op..op + len].fill(byte);
                    } else {
                        for i in op..op + len {
                            buf[i] = buf[i - distance];
                        }
                    }
                    op += len;
                }
                _ => break,
            }
        }
        *r = s;
        out.len = op;

        // The careful part: one symbol, every check.
        let e = lit.decode(r)?;
        match e.kind() {
            Entry::LITERAL => {
                out.room(1)?;
                out.buf[out.len] = e.value() as u8;
                out.len += 1;
            }
            Entry::END => return Ok(()),
            Entry::BASE => {
                let len = e.value() + r.read_bits(e.extra())? as usize;
                let d = dist.decode(r)?;
                if d.kind() != Entry::BASE {
                    return Err(BitError(format!("bad distance symbol {}", d.value())));
                }
                let distance = d.value() + r.read_bits(d.extra())? as usize;
                if distance > out.len {
                    return Err(BitError("back-reference before start of output".into()));
                }
                out.room(len)?;
                for i in out.len..out.len + len {
                    out.buf[i] = out.buf[i - distance];
                }
                out.len += len;
            }
            _ => return Err(BitError(format!("bad literal/length symbol {}", e.value()))),
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
        assert!(inflate_exact(&[0xFF, 0xFF, 0xFF], 0).is_err());
        assert!(inflate_exact(&[], 0).is_err());
    }

    #[test]
    fn rejects_bad_stored_nlen() {
        // BFINAL=1, BTYPE=0, then LEN=1 NLEN=1 (mismatch).
        let bytes = [0b001u8, 1, 0, 1, 0, 42];
        assert!(inflate_exact(&bytes, 1).is_err());
    }

    #[test]
    fn a_declared_length_bounds_the_output() {
        // 4 MiB of zeros is a few KiB of stream: the bomb a lying
        // `raw_len` would otherwise inflate in full before the compare.
        let zeros = vec![0u8; 4 << 20];
        for level in [Level::Fast, Level::Default, Level::Best] {
            let z = deflate(&zeros, level);
            assert!(z.len() < 64 << 10);
            let err = inflate_exact(&z, 16).unwrap_err();
            assert!(err.0.contains("declared 16 bytes"), "{err}");
            assert!(
                !err.0.contains("got"),
                "stopped at the bound, not after: {err}"
            );
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

    /// A structured input cut at every length from 0 to 600, at every
    /// level: the streams end at every offset of the fast part's output
    /// margin, and before and after its first symbol.
    #[test]
    fn every_length_to_600_round_trips_at_every_level() {
        let data: Vec<u8> = (0..600u32)
            .map(|i| [i % 7, i / 13 % 5, (i * i) % 11, 0][i as usize % 4] as u8)
            .collect();
        for n in 0..=data.len() {
            for level in Level::ALL {
                let c = deflate(&data[..n], level);
                assert_eq!(
                    inflate_exact(&c, n).unwrap(),
                    &data[..n],
                    "{n} at {level:?}"
                );
            }
        }
    }

    /// With no declared length the output starts small and doubles as the
    /// stream proves longer, through the same loop.
    #[test]
    fn an_undeclared_length_grows_to_the_stream() {
        let zeros = vec![0u8; 1 << 20];
        for level in Level::ALL {
            let z = deflate(&zeros, level);
            assert!(z.len() * 4 < zeros.len());
            assert_eq!(inflate(&z).unwrap(), zeros);
        }
        assert!(inflate(&[0xFF, 0xFF, 0xFF]).is_err());
    }

    #[test]
    fn known_fixed_block() {
        // Compress "hello" and verify round trip via the fixed path.
        let data = b"hello";
        let c = deflate(data, Level::Fast);
        assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn round_trip_random() {
        let mut rng = Rng::new(0x1f1a);
        for _ in 0..64 {
            let n = rng.range_usize(0..8000);
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            let c = deflate(&data, Level::Default);
            assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
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
            assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
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
                assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
            }
        }
    }
}
