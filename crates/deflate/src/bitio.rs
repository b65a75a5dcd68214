//! LSB-first bit I/O as required by DEFLATE (RFC 1951 §3.1.1). The reader
//! refills a whole `u64` word at a time and hands out bits by peek and
//! consume, so a table decoder takes a Huffman code in one lookup.

/// Bit-level writer: bits are packed starting from the least significant bit
/// of each output byte.
#[derive(Default)]
pub struct BitWriter {
    out: Vec<u8>,
    bitbuf: u64,
    nbits: u32,
}

impl BitWriter {
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Write the low `n` bits of `v` (n ≤ 32), LSB first.
    #[inline]
    pub fn write_bits(&mut self, v: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(n == 32 || v < (1u32 << n));
        // Fewer than 32 bits are pending on entry, so 64 hold the sum; four
        // whole bytes leave at a time.
        self.bitbuf |= (v as u64) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out
                .extend_from_slice(&(self.bitbuf as u32).to_le_bytes());
            self.bitbuf >>= 32;
            self.nbits -= 32;
        }
    }

    /// Write a Huffman code: DEFLATE stores Huffman codes MSB-first, so the
    /// canonical code's bits must be reversed before packing. A caller with
    /// many symbols to write reverses each code once and uses
    /// [`BitWriter::write_bits`].
    pub fn write_code(&mut self, code: u32, len: u32) {
        let rev = reverse_bits(code, len);
        self.write_bits(rev, len);
    }

    /// Pad to a byte boundary with zero bits.
    pub fn align_byte(&mut self) {
        let pending = self.nbits.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.bitbuf.to_le_bytes()[..pending]);
        self.bitbuf = 0;
        self.nbits = 0;
    }

    /// Append raw bytes (caller must be byte-aligned).
    pub fn write_bytes(&mut self, data: &[u8]) {
        debug_assert_eq!(self.nbits, 0, "write_bytes requires byte alignment");
        self.out.extend_from_slice(data);
    }

    pub fn finish(mut self) -> Vec<u8> {
        self.align_byte();
        self.out
    }
}

/// Reverse the low `n` bits of `v` (n ≤ 32; the bits above must be 0).
pub fn reverse_bits(v: u32, n: u32) -> u32 {
    v.reverse_bits().checked_shr(32 - n).unwrap_or(0)
}

/// Bit-level reader, LSB first. Cloning it is cheap: the inflate loop works
/// on a copy held in locals and writes it back.
///
/// `bitbuf` holds `nbits` unread bits for `data[..pos]`. Bits above `nbits`
/// are either zero or the true leading bits of `data[pos..]` (a word refill
/// loads eight bytes and counts only the whole ones that fit), so a peek
/// never shows a bit the stream does not have.
#[derive(Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    bitbuf: u64,
    nbits: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitError(pub String);

impl std::fmt::Display for BitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bitstream error: {}", self.0)
    }
}

impl std::error::Error for BitError {}

impl<'a> BitReader<'a> {
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    /// Whether eight input bytes remain for one word load.
    pub(crate) fn has_word(&self) -> bool {
        self.data.len() - self.pos >= 8
    }

    /// Top the buffer up to at least 56 bits, or to the end of the input:
    /// one word load, with no branch on the bits left, while eight input
    /// bytes remain; bytewise after that.
    fn fill(&mut self) {
        if let Some(word) = self.data[self.pos..].first_chunk::<8>() {
            self.bitbuf |= u64::from_le_bytes(*word) << self.nbits;
            self.pos += (63 - self.nbits as usize) / 8;
            self.nbits |= 56;
            return;
        }
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.bitbuf |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Top the buffer up and show it all: after [`BitReader::has_word`],
    /// at least 56 of its bits are input.
    #[inline]
    pub(crate) fn refill(&mut self) -> u64 {
        self.fill();
        self.bitbuf
    }

    /// The buffered bits, LSB first, and how many of them are input: at
    /// least 32 unless the input ends sooner. Bits past that count read as
    /// zero. Take them with [`BitReader::consume`].
    #[inline]
    pub fn peek(&mut self) -> (u64, u32) {
        if self.nbits < 32 {
            self.fill();
        }
        (self.bitbuf, self.nbits)
    }

    /// Drop `n` bits a [`BitReader::peek`] showed to be there.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.nbits);
        self.bitbuf >>= n;
        self.nbits -= n;
    }

    /// Read `n` bits (n ≤ 32), LSB first.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> Result<u32, BitError> {
        debug_assert!(n <= 32);
        let (bits, avail) = self.peek();
        if avail < n {
            return Err(eof());
        }
        self.consume(n);
        Ok((bits & ((1u64 << n) - 1)) as u32)
    }

    /// Discard bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.bitbuf >>= drop;
        self.nbits -= drop;
    }

    /// The next `n` bytes of input, borrowed (caller must be byte-aligned).
    /// Whole bytes still buffered are handed back to the input first.
    pub fn read_slice(&mut self, n: usize) -> Result<&'a [u8], BitError> {
        debug_assert_eq!(self.nbits % 8, 0);
        let start = self.pos - (self.nbits / 8) as usize;
        let bytes = self.data[start..].get(..n).ok_or_else(eof)?;
        self.pos = start + n;
        self.bitbuf = 0;
        self.nbits = 0;
        Ok(bytes)
    }
}

pub(crate) fn eof() -> BitError {
    BitError("unexpected end of input".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_bit_patterns() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0b11111111, 8);
        w.write_bits(0, 1);
        w.write_bits(0xABCD, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(16).unwrap(), 0xABCD);
    }

    #[test]
    fn reverse_bits_examples() {
        assert_eq!(reverse_bits(0b1, 1), 0b1);
        assert_eq!(reverse_bits(0b01, 2), 0b10);
        assert_eq!(reverse_bits(0b0011, 4), 0b1100);
    }

    #[test]
    fn align_and_raw_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        w.align_byte();
        w.write_bytes(&[0xDE, 0xAD]);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(1).unwrap(), 1);
        r.align_byte();
        assert_eq!(r.read_slice(2).unwrap(), [0xDE, 0xAD]);
        assert!(r.read_slice(1).is_err());
    }

    #[test]
    fn word_refill_and_slices_agree_with_the_bytes() {
        let data: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        // Bit-exact against a bytewise model at every split of a 3-bit
        // read and a byte-aligned slice.
        for skip in 0..data.len() {
            let mut r = BitReader::new(&data);
            for (i, &b) in data[..skip].iter().enumerate() {
                assert_eq!(r.read_bits(8).unwrap(), b as u32, "byte {i}");
            }
            let (bits, avail) = r.peek();
            assert!(avail >= 32 || avail as usize == 8 * (data.len() - skip));
            assert_eq!(bits as u8, data[skip]);
            assert_eq!(r.read_bits(3).unwrap(), (data[skip] & 7) as u32);
            r.align_byte();
            assert_eq!(
                r.read_slice(data.len() - skip - 1).unwrap(),
                &data[skip + 1..]
            );
            assert!(r.read_bits(1).is_err());
        }
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }
}
