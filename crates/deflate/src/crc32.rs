//! CRC-32 (IEEE 802.3, the gzip polynomial), slice-by-8: eight bytes per
//! table step, the byte-at-a-time step only for a tail of fewer than eight.

/// Reflected polynomial for CRC-32/ISO-HDLC as used by gzip.
const POLY: u32 = 0xEDB8_8320;

/// Build the eight 256-entry lookup tables at compile time. `T[0]` is the
/// classic byte table; `T[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so one step folds eight input bytes through eight lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static T: [[u32; 256]; 8] = build_tables();

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            c = T[7][(lo & 0xFF) as usize]
                ^ T[6][(lo >> 8 & 0xFF) as usize]
                ^ T[5][(lo >> 16 & 0xFF) as usize]
                ^ T[4][(lo >> 24) as usize]
                ^ T[3][w[4] as usize]
                ^ T[2][w[5] as usize]
                ^ T[1][w[6] as usize]
                ^ T[0][w[7] as usize];
        }
        for &b in words.remainder() {
            c = T[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32 of a buffer.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

/// The CRC-32 of `a ++ b` from `crc_a = crc32(a)`, `crc_b = crc32(b)` and
/// `len_b = b.len()`, without the bytes: zlib's `crc32_combine`. A CRC is
/// the message's remainder modulo the polynomial, so appending `len_b`
/// bytes multiplies `a`'s part by x^(8·len_b) in GF(2)[x] modulo P, and
/// the initial and final inversions cancel between the two terms. The
/// power is a product of the squarings x^(2^k) in [`X2N`], one per set bit
/// of the length: O(log len_b) carry-less multiplies.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    let (mut n, mut k, mut p) = (len_b, 3, 1u32 << 31);
    while n != 0 {
        if n & 1 != 0 {
            p = mul_mod_p(X2N[k & 31], p);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod_p(p, crc_a) ^ crc_b
}

/// `a · b` modulo the polynomial, both in the reflected bit order the
/// tables use (bit 31 is x^0).
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let (mut m, mut p) = (1u32 << 31, 0u32);
    while m != 0 {
        if a & m != 0 {
            p ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    p
}

/// `X2N[k]` = x^(2^k) modulo the polynomial: x^1, then each the square of
/// the one before. Squaring x 32 times gives x again modulo this
/// polynomial, so the powers repeat every 32 entries, hence the `& 31`
/// above (a test holds the wrap).
static X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = 1u32 << 30;
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = mul_mod_p(p, p);
        k += 1;
    }
    t
};

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_obs::rng::Rng;

    /// The byte-at-a-time definition slice-by-8 must agree with.
    fn bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = T[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut c = Crc32::new();
        c.update(&data[..10]);
        c.update(&data[10..]);
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn slice_by_8_equals_bytewise_at_every_length_and_alignment() {
        let mut buf = vec![0u8; 8 + 256];
        Rng::new(0xc3c3).fill_bytes(&mut buf);
        for start in 0..8 {
            for len in 0..=256 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn combine_of_known_halves() {
        assert_eq!(
            crc32_combine(crc32(b"12345"), crc32(b"6789"), 4),
            crc32(b"123456789")
        );
        assert_eq!(crc32_combine(crc32(b"abc"), 0, 0), crc32(b"abc"));
        assert_eq!(crc32_combine(0, crc32(b"abc"), 3), crc32(b"abc"));
        // The 33rd squaring is the first: lengths of 2^29 bytes and more
        // index the table modulo 32.
        assert_eq!(mul_mod_p(X2N[31], X2N[31]), X2N[0]);
    }

    #[test]
    fn update_split_anywhere_equals_oneshot() {
        let mut buf = vec![0u8; 1024];
        Rng::new(0x5917).fill_bytes(&mut buf);
        let want = crc32(&buf);
        assert_eq!(want, bytewise(&buf));
        for split in 0..=buf.len() {
            let mut c = Crc32::new();
            c.update(&buf[..split]);
            c.update(&buf[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
    }
}
