//! LSB-first bit I/O as required by DEFLATE (RFC 1951 §3.1.1).

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

    /// Bits written so far (useful for size accounting).
    pub fn bit_len(&self) -> u64 {
        self.out.len() as u64 * 8 + self.nbits as u64
    }
}

/// Reverse the low `n` bits of `v`.
pub fn reverse_bits(v: u32, n: u32) -> u32 {
    let mut r = 0u32;
    for i in 0..n {
        if v & (1 << i) != 0 {
            r |= 1 << (n - 1 - i);
        }
    }
    r
}

/// Bit-level reader, LSB first.
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

    fn fill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.bitbuf |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Read `n` bits (n ≤ 32), LSB first.
    pub fn read_bits(&mut self, n: u32) -> Result<u32, BitError> {
        debug_assert!(n <= 32);
        self.fill();
        if self.nbits < n {
            return Err(BitError("unexpected end of input".into()));
        }
        let v = if n == 0 {
            0
        } else {
            (self.bitbuf & ((1u64 << n) - 1)) as u32
        };
        self.bitbuf >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Read a single bit.
    pub fn read_bit(&mut self) -> Result<u32, BitError> {
        self.read_bits(1)
    }

    /// Discard bits up to the next byte boundary.
    pub fn align_byte(&mut self) {
        let drop = self.nbits % 8;
        self.bitbuf >>= drop;
        self.nbits -= drop;
    }

    /// Read raw bytes after alignment.
    pub fn read_bytes(&mut self, n: usize) -> Result<Vec<u8>, BitError> {
        debug_assert_eq!(self.nbits % 8, 0);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let b = self.read_bits(8)?;
            out.push(b as u8);
        }
        Ok(out)
    }
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
        assert_eq!(r.read_bit().unwrap(), 1);
        r.align_byte();
        assert_eq!(r.read_bytes(2).unwrap(), vec![0xDE, 0xAD]);
    }

    #[test]
    fn eof_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert!(r.read_bits(8).is_ok());
        assert!(r.read_bits(1).is_err());
    }
}
