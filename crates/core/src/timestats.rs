//! Communication-time recording (paper §IV-A).
//!
//! When repeated operations merge into one record, their durations are kept
//! statistically. The paper offers average + standard deviation or a
//! histogram; this build keeps the first only (DESIGN §6 records the
//! departure). Timing never participates in record *equality* — only the
//! communication parameters do.
//!
//! Mean/stddev aggregates are kept as **exact integer moment sums**
//! (`n`, `Σx`, `Σx²` in 128-bit arithmetic) rather than floating-point
//! Welford state. Integer addition is associative and commutative, so
//! [`TimeStats::merge`] yields bit-identical results no matter how a set of
//! partial aggregates is parenthesised — the property the piecewise merge
//! (ranks and relay blocks arriving over the network in any order, merged
//! as contiguous pieces) relies on to give `merge_all`'s bytes exactly. Mean and deviation are derived on
//! demand.

use cypress_trace::codec::{Codec, Cursor, Encoder};

/// Aggregated timing of a merged record: exact moments of its durations.
///
/// The 128-bit sums are held as `Wide` pairs of 8-byte words, so the
/// struct is 8-byte aligned: a `u128` field would raise every record that
/// holds two of these to 16-byte alignment and pad it by 24 bytes.
#[derive(Clone, PartialEq)]
pub struct TimeStats {
    /// Samples recorded (wrapping at 2^64 like the sums beside it).
    n: u64,
    /// Exact Σx over all recorded durations (wrapping at 2^128, which is
    /// unreachable for ns-scale virtual times).
    sum: Wide,
    /// Exact Σx².
    sumsq: Wide,
    min: u64,
    max: u64,
}

/// A `u128` in two 8-byte-aligned words, low word first.
#[derive(Clone, Copy, PartialEq)]
struct Wide([u64; 2]);

impl Wide {
    #[inline]
    fn get(self) -> u128 {
        (self.0[1] as u128) << 64 | self.0[0] as u128
    }

    #[inline]
    fn new(v: u128) -> Wide {
        Wide([v as u64, (v >> 64) as u64])
    }

    #[inline]
    fn wrapping_add(self, x: u128) -> Wide {
        Wide::new(self.get().wrapping_add(x))
    }
}

/// The sums print as `u128`s, the text a derived `Debug` gives `u128`
/// fields: `tests/wire_sweep.rs` digests the `Debug` text of records.
impl std::fmt::Debug for TimeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimeStats")
            .field("n", &self.n)
            .field("sum", &self.sum.get())
            .field("sumsq", &self.sumsq.get())
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl Default for TimeStats {
    fn default() -> Self {
        TimeStats::new()
    }
}

impl TimeStats {
    /// No samples yet.
    pub fn new() -> Self {
        TimeStats {
            n: 0,
            sum: Wide::new(0),
            sumsq: Wide::new(0),
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one duration (ns).
    pub fn add(&mut self, dur: u64) {
        let x = dur as u128;
        self.n = self.n.wrapping_add(1);
        self.sum = self.sum.wrapping_add(x);
        self.sumsq = self.sumsq.wrapping_add(x * x);
        self.min = self.min.min(dur);
        self.max = self.max.max(dur);
    }

    /// Merge another aggregate into this one. Wrapping integer sums make
    /// this exactly associative and commutative, and no peer-supplied
    /// moment can overflow it.
    pub fn merge(&mut self, other: &TimeStats) {
        self.n = self.n.wrapping_add(other.n);
        self.sum = self.sum.wrapping_add(other.sum.get());
        self.sumsq = self.sumsq.wrapping_add(other.sumsq.get());
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean duration (ns).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum.get() as f64 / self.n as f64
        }
    }

    /// Sample standard deviation (0 for fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let nf = self.n as f64;
        let s = self.sum.get() as f64;
        let var = ((self.sumsq.get() as f64 - s * s / nf) / (nf - 1.0)).max(0.0);
        var.sqrt()
    }

    pub fn approx_bytes(&self) -> usize {
        56
    }
}

/// The one tag this build writes and reads. Tag 0 was a quantized mean/std
/// layout, tags 1 and 2 the histogram and no-timing modes; none has a writer,
/// and each is rejected like any other unknown tag.
const TAG_MEANSTD: u8 = 3;

fn put_u128(enc: &mut Encoder, v: u128) {
    enc.put_uvar((v >> 64) as u64);
    enc.put_uvar(v as u64);
}

/// [`put_u128`]'s two varints, high word first.
#[inline]
fn read_wide(cur: &mut Cursor<'_>) -> Option<Wide> {
    let hi = cur.uvar()?;
    let lo = cur.uvar()?;
    Some(Wide([lo, hi]))
}

impl Codec for TimeStats {
    fn encode(&self, enc: &mut Encoder) {
        // Exact moments: re-encoding a decoded aggregate is byte-stable, and
        // merge order can never perturb the bytes.
        enc.put_u8(TAG_MEANSTD);
        enc.put_uvar(self.n);
        put_u128(enc, self.sum.get());
        put_u128(enc, self.sumsq.get());
        enc.put_uvar(if self.min == u64::MAX { 0 } else { self.min });
        enc.put_uvar(self.max);
    }

    /// The exact-moment layout: its tag, then seven varints.
    #[inline]
    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let tag = cur.u8()?;
        if tag != TAG_MEANSTD {
            return cur.refuse(tag as u64, |tag| {
                format!("bad TimeStats tag {tag} (only {TAG_MEANSTD}, exact moments, is read)")
            });
        }
        let n = cur.uvar()?;
        let sum = read_wide(cur)?;
        let sumsq = read_wide(cur)?;
        let min = cur.uvar()?;
        let max = cur.uvar()?;
        // No samples read as a minimum of `u64::MAX`, which is written as 0.
        if (n == 0 && min != 0) || (n != 0 && min == u64::MAX) {
            cur.note_inexact();
        }
        Some(TimeStats {
            n,
            sum,
            sumsq,
            min: if n == 0 { u64::MAX } else { min },
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_obs::rng::Rng;

    fn of(xs: &[u64]) -> TimeStats {
        let mut s = TimeStats::new();
        for &x in xs {
            s.add(x);
        }
        s
    }

    #[test]
    fn mean_and_stddev_basic() {
        let s = of(&[10, 20, 30]);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-9);
        assert!((s.stddev() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_pooled_computation() {
        let xs = [3u64, 7, 7, 12, 100, 41];
        let mut a = of(&xs[..3]);
        a.merge(&of(&xs[3..]));
        // Integer moments: the merged aggregate IS the pooled aggregate.
        assert_eq!(a, of(&xs));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = of(&[5]);
        let mut merged = a.clone();
        merged.merge(&TimeStats::new());
        assert_eq!(merged, a);
        let mut c = TimeStats::new();
        c.merge(&a);
        assert_eq!(c, a);
    }

    /// The property the piecewise merge depends on: any
    /// parenthesisation of any permutation-preserving partition of the same
    /// samples produces bit-identical aggregates and bytes.
    #[test]
    fn merge_is_exactly_associative_random() {
        let mut rng = Rng::new(0x0b10_ba55);
        for _ in 0..200 {
            let n = rng.range_usize(1..60);
            let xs: Vec<u64> = (0..n).map(|_| rng.range_u64(0..1_000_000_000)).collect();
            // Split into three parts, merge as (a+b)+c and a+(b+c).
            let i = rng.range_usize(0..n + 1);
            let j = rng.range_usize(i..n + 1);
            let (a, b, c) = (of(&xs[..i]), of(&xs[i..j]), of(&xs[j..]));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right);
            assert_eq!(left.to_bytes(), right.to_bytes());
            assert_eq!(left, of(&xs));
        }
    }

    /// Two peer records that each claim `u64::MAX` samples: the count wraps
    /// like the sums beside it instead of overflowing (a debug-build panic
    /// under the collector's lock), and the merge stays associative and
    /// byte-stable.
    #[test]
    fn merging_saturated_counts_wraps_and_stays_associative() {
        let mut enc = Encoder::new();
        enc.put_u8(TAG_MEANSTD);
        enc.put_uvar(u64::MAX);
        put_u128(&mut enc, u128::MAX);
        put_u128(&mut enc, u128::MAX);
        enc.put_uvar(7);
        enc.put_uvar(u64::MAX);
        let big = TimeStats::from_bytes(&enc.finish()).unwrap();
        let mut left = big.clone();
        left.merge(&big);
        left.merge(&of(&[9]));
        assert_eq!(left.count(), u64::MAX);
        let mut right = of(&[9]);
        right.merge(&big);
        right.merge(&big);
        assert_eq!(left, right);
        assert_eq!(left.to_bytes(), right.to_bytes());
        assert_eq!(TimeStats::from_bytes(&left.to_bytes()).unwrap(), left);
    }

    /// `tests/wire_sweep.rs` digests the `Debug` text of decoded records:
    /// it must read as it did when the sums were `u128` fields.
    #[test]
    fn debug_text_prints_the_sums_as_u128() {
        assert_eq!(
            format!("{:?}", of(&[5, 9])),
            "TimeStats { n: 2, sum: 14, sumsq: 106, min: 5, max: 9 }"
        );
        let mut big = of(&[u64::MAX]);
        big.merge(&of(&[u64::MAX]));
        let (sum, sumsq) = (
            2 * u64::MAX as u128,
            (u64::MAX as u128).pow(2).wrapping_mul(2),
        );
        assert_eq!(
            format!("{big:?}"),
            format!(
                "TimeStats {{ n: 2, sum: {sum}, sumsq: {sumsq}, min: {m}, max: {m} }}",
                m = u64::MAX
            )
        );
        assert_eq!(std::mem::align_of::<TimeStats>(), 8);
        assert_eq!(std::mem::size_of::<TimeStats>(), 56);
    }

    #[test]
    fn codec_round_trips() {
        let s = of(&[5, 9, 9, 1000]);
        let back = TimeStats::from_bytes(&s.to_bytes()).unwrap();
        // Exact moments round trip losslessly, and the encoding is
        // canonical: re-encoding is byte-stable.
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), s.to_bytes());
    }

    #[test]
    fn codec_empty_and_single_sample() {
        for samples in [vec![], vec![77u64]] {
            let s = of(&samples);
            let back = TimeStats::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(back.count(), samples.len() as u64);
            assert_eq!(back, s);
            assert_eq!(back.to_bytes(), s.to_bytes());
        }
    }

    /// Only the tag this build writes decodes; anything else — the retired
    /// quantized tag 0, the histogram tag 1 and the no-timing tag 2
    /// included — is an error that names the tag.
    #[test]
    fn unknown_tag_is_a_loud_error_naming_the_tag() {
        for tag in [0u8, 1, 2, 4, 0xff] {
            let mut enc = Encoder::new();
            enc.put_u8(tag);
            for v in [4u64, 100, 10, 88, 115] {
                enc.put_uvar(v);
            }
            let err = TimeStats::from_bytes(&enc.finish()).unwrap_err();
            assert!(
                err.0.contains(&format!("tag {tag} ")),
                "tag {tag}: error does not name it: {err:?}"
            );
        }
    }

    #[test]
    fn mean_matches_naive_random() {
        let mut rng = Rng::new(0x3e1f);
        for _ in 0..256 {
            let n = rng.range_usize(1..100);
            let xs: Vec<u64> = (0..n).map(|_| rng.range_u64(0..1_000_000)).collect();
            let s = of(&xs);
            let naive = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
            assert!((s.mean() - naive).abs() < 1e-6 * naive.max(1.0));
        }
    }

    #[test]
    fn merge_associative_in_count_random() {
        let mut rng = Rng::new(0xa550);
        for _ in 0..256 {
            let nx = rng.range_usize(0..40);
            let ny = rng.range_usize(0..40);
            let xs: Vec<u64> = (0..nx).map(|_| rng.range_u64(0..10_000)).collect();
            let ys: Vec<u64> = (0..ny).map(|_| rng.range_u64(0..10_000)).collect();
            let mut a = of(&xs);
            a.merge(&of(&ys));
            assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
        }
    }
}
