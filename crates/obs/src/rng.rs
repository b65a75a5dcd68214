//! Deterministic test PRNG (SplitMix64).
//!
//! The build environment is offline, so `rand`/`proptest` are unavailable;
//! seeded-loop tests across the workspace draw from this instead. SplitMix64
//! passes BigCrush for this use, is trivially seedable, and two different
//! seeds give independent-enough streams for fuzz-style coverage. Not for
//! cryptography.

use std::ops::Range;

#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "Rng::below(0)");
        // Multiply-shift bounded generation; the tiny modulo bias is
        // irrelevant for test workloads.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..hi` (half-open, like `rand::gen_range`).
    pub fn range_u64(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range");
        r.start + self.below(r.end - r.start)
    }

    pub fn range_usize(&mut self, r: Range<usize>) -> usize {
        self.range_u64(r.start as u64..r.end as u64) as usize
    }

    pub fn range_i64(&mut self, r: Range<i64>) -> i64 {
        assert!(r.start < r.end, "empty range");
        let span = r.end.wrapping_sub(r.start) as u64;
        r.start.wrapping_add(self.below(span) as i64)
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Derive an independent sub-stream (e.g. one per test case).
    pub fn split(&mut self) -> Rng {
        Rng(self.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.range_usize(3..17);
            assert!((3..17).contains(&x));
            let y = r.range_i64(-5..6);
            assert!((-5..6).contains(&y));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = Rng::new(123);
        let hits = (0..20_000).filter(|_| r.chance(0.25)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = Rng::new(9);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
