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
