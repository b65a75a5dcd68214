//! Communication-time recording (paper §IV-A).
//!
//! When repeated operations merge into one record, their durations are kept
//! statistically. The paper supports two modes: average + standard deviation,
//! and a histogram of the time distribution; both are implemented here.
//! Timing never participates in record *equality* — only the communication
//! parameters do.
//!
//! Mean/stddev aggregates are kept as **exact integer moment sums**
//! (`n`, `Σx`, `Σx²` in 128-bit arithmetic) rather than floating-point
//! Welford state. Integer addition is associative and commutative, so
//! [`TimeStats::merge`] yields bit-identical results no matter how a set of
//! partial aggregates is parenthesised — the property the distributed
//! binomial merge (ranks arriving over the network in any order) and
//! `merge_all_parallel` (machine-dependent chunking) both rely on for
//! canonical, byte-stable merged encodings. Mean and deviation are derived
//! on demand.

use cypress_trace::codec::{Codec, DecodeError, DecodeResult, Decoder, Encoder};

/// Which time representation the compressor keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeMode {
    /// Mean and standard deviation (exact moment sums).
    #[default]
    MeanStd,
    /// Power-of-two bucket histogram of durations.
    Histogram,
    /// Record no timing at all (smallest traces).
    None,
}

/// Number of log2 buckets in histogram mode (bucket i holds durations in
/// `[2^i, 2^(i+1))` ns; bucket 0 holds `[0, 2)`).
pub const HIST_BUCKETS: usize = 40;

/// Aggregated timing of a merged record.
#[derive(Debug, Clone, PartialEq)]
pub enum TimeStats {
    MeanStd {
        n: u64,
        /// Exact Σx over all recorded durations (wrapping at 2^128, which is
        /// unreachable for ns-scale virtual times).
        sum: u128,
        /// Exact Σx².
        sumsq: u128,
        min: u64,
        max: u64,
    },
    Histogram {
        n: u64,
        buckets: Vec<u32>,
    },
    None,
}

impl TimeStats {
    pub fn new(mode: TimeMode) -> Self {
        match mode {
            TimeMode::MeanStd => TimeStats::MeanStd {
                n: 0,
                sum: 0,
                sumsq: 0,
                min: u64::MAX,
                max: 0,
            },
            TimeMode::Histogram => TimeStats::Histogram {
                n: 0,
                buckets: vec![0; HIST_BUCKETS],
            },
            TimeMode::None => TimeStats::None,
        }
    }

    /// Record one duration (ns).
    pub fn add(&mut self, dur: u64) {
        match self {
            TimeStats::MeanStd {
                n,
                sum,
                sumsq,
                min,
                max,
            } => {
                *n += 1;
                let x = dur as u128;
                *sum = sum.wrapping_add(x);
                *sumsq = sumsq.wrapping_add(x * x);
                *min = (*min).min(dur);
                *max = (*max).max(dur);
            }
            TimeStats::Histogram { n, buckets } => {
                *n += 1;
                let b = (64 - dur.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as usize;
                buckets[b] += 1;
            }
            TimeStats::None => {}
        }
    }

    /// Merge another aggregate into this one (same mode required). Integer
    /// moment sums make this exactly associative and commutative.
    pub fn merge(&mut self, other: &TimeStats) {
        match (self, other) {
            (
                TimeStats::MeanStd {
                    n,
                    sum,
                    sumsq,
                    min,
                    max,
                },
                TimeStats::MeanStd {
                    n: n2,
                    sum: sum2,
                    sumsq: sumsq2,
                    min: min2,
                    max: max2,
                },
            ) => {
                *n += *n2;
                *sum = sum.wrapping_add(*sum2);
                *sumsq = sumsq.wrapping_add(*sumsq2);
                *min = (*min).min(*min2);
                *max = (*max).max(*max2);
            }
            (TimeStats::Histogram { n, buckets }, TimeStats::Histogram { n: n2, buckets: b2 }) => {
                *n += *n2;
                for (a, b) in buckets.iter_mut().zip(b2) {
                    *a += *b;
                }
            }
            (TimeStats::None, TimeStats::None) => {}
            _ => panic!("merging TimeStats of different modes"),
        }
    }

    pub fn count(&self) -> u64 {
        match self {
            TimeStats::MeanStd { n, .. } | TimeStats::Histogram { n, .. } => *n,
            TimeStats::None => 0,
        }
    }

    /// Mean duration (ns); histogram mode returns the bucket-midpoint mean.
    pub fn mean(&self) -> f64 {
        match self {
            TimeStats::MeanStd { n, sum, .. } => {
                if *n == 0 {
                    0.0
                } else {
                    *sum as f64 / *n as f64
                }
            }
            TimeStats::Histogram { n, buckets } => {
                if *n == 0 {
                    return 0.0;
                }
                let mut sum = 0.0;
                for (i, &c) in buckets.iter().enumerate() {
                    if c > 0 {
                        // Midpoint of [2^(i-1), 2^i) except bucket 0.
                        let mid = if i == 0 {
                            1.0
                        } else {
                            (1u64 << (i - 1)) as f64 * 1.5
                        };
                        sum += mid * c as f64;
                    }
                }
                sum / *n as f64
            }
            TimeStats::None => 0.0,
        }
    }

    /// Sample standard deviation (0 for <2 samples or histogram/none modes'
    /// approximation).
    pub fn stddev(&self) -> f64 {
        match self {
            TimeStats::MeanStd { n, sum, sumsq, .. } if *n >= 2 => {
                let nf = *n as f64;
                let s = *sum as f64;
                let var = ((*sumsq as f64 - s * s / nf) / (nf - 1.0)).max(0.0);
                var.sqrt()
            }
            _ => 0.0,
        }
    }

    pub fn approx_bytes(&self) -> usize {
        match self {
            TimeStats::MeanStd { .. } => 56,
            TimeStats::Histogram { buckets, .. } => 16 + buckets.len() * 4,
            TimeStats::None => 0,
        }
    }
}

const TAG_HIST: u8 = 1;
const TAG_NONE: u8 = 2;
/// Exact integer-moment encoding. Tag 0 was a quantized mean/std layout no
/// writer emits; it is rejected like any other unknown tag.
const TAG_MEANSTD: u8 = 3;

fn put_u128(enc: &mut Encoder, v: u128) {
    enc.put_uvar((v >> 64) as u64);
    enc.put_uvar(v as u64);
}

fn get_u128(dec: &mut Decoder<'_>) -> DecodeResult<u128> {
    let hi = dec.get_uvar()? as u128;
    let lo = dec.get_uvar()? as u128;
    Ok((hi << 64) | lo)
}

impl Codec for TimeStats {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            TimeStats::MeanStd {
                n,
                sum,
                sumsq,
                min,
                max,
            } => {
                // Exact moments: re-encoding a decoded aggregate is
                // byte-stable, and merge order can never perturb the bytes.
                enc.put_u8(TAG_MEANSTD);
                enc.put_uvar(*n);
                put_u128(enc, *sum);
                put_u128(enc, *sumsq);
                enc.put_uvar(if *min == u64::MAX { 0 } else { *min });
                enc.put_uvar(*max);
            }
            TimeStats::Histogram { n, buckets } => {
                enc.put_u8(TAG_HIST);
                enc.put_uvar(*n);
                // Sparse encoding: only non-zero buckets.
                let nz = buckets.iter().filter(|&&c| c > 0).count();
                enc.put_uvar(nz as u64);
                for (i, &c) in buckets.iter().enumerate() {
                    if c > 0 {
                        enc.put_uvar(i as u64);
                        enc.put_uvar(c as u64);
                    }
                }
            }
            TimeStats::None => enc.put_u8(TAG_NONE),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        match dec.get_u8()? {
            TAG_MEANSTD => {
                let n = dec.get_uvar()?;
                let sum = get_u128(dec)?;
                let sumsq = get_u128(dec)?;
                let min = dec.get_uvar()?;
                let max = dec.get_uvar()?;
                Ok(TimeStats::MeanStd {
                    n,
                    sum,
                    sumsq,
                    min: if n == 0 { u64::MAX } else { min },
                    max,
                })
            }
            TAG_HIST => {
                let n = dec.get_uvar()?;
                let mut buckets = vec![0u32; HIST_BUCKETS];
                let sparse = dec.get_seq("histogram buckets", |d| {
                    Ok::<_, DecodeError>((d.get_uvar()?, d.get_u32("bucket count")?))
                })?;
                for (i, c) in sparse {
                    let slot = usize::try_from(i).ok().and_then(|i| buckets.get_mut(i));
                    *slot.ok_or_else(|| DecodeError(format!("bucket index {i} out of range")))? = c;
                }
                Ok(TimeStats::Histogram { n, buckets })
            }
            TAG_NONE => Ok(TimeStats::None),
            t => Err(DecodeError(format!("bad TimeStats tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_obs::rng::Rng;

    #[test]
    fn mean_and_stddev_basic() {
        let mut s = TimeStats::new(TimeMode::MeanStd);
        for d in [10u64, 20, 30] {
            s.add(d);
        }
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 20.0).abs() < 1e-9);
        assert!((s.stddev() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_pooled_computation() {
        let xs = [3u64, 7, 7, 12, 100, 41];
        let mut a = TimeStats::new(TimeMode::MeanStd);
        let mut b = TimeStats::new(TimeMode::MeanStd);
        for &x in &xs[..3] {
            a.add(x);
        }
        for &x in &xs[3..] {
            b.add(x);
        }
        let mut all = TimeStats::new(TimeMode::MeanStd);
        for &x in &xs {
            all.add(x);
        }
        a.merge(&b);
        // Integer moments: the merged aggregate IS the pooled aggregate.
        assert_eq!(a, all);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = TimeStats::new(TimeMode::MeanStd);
        a.add(5);
        let b = TimeStats::new(TimeMode::MeanStd);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, a);
        let mut c = TimeStats::new(TimeMode::MeanStd);
        c.merge(&a);
        assert_eq!(c, a);
    }

    /// The property the distributed binomial merge depends on: any
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
            let agg = |slice: &[u64]| {
                let mut s = TimeStats::new(TimeMode::MeanStd);
                for &x in slice {
                    s.add(x);
                }
                s
            };
            let (a, b, c) = (agg(&xs[..i]), agg(&xs[i..j]), agg(&xs[j..]));
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right);
            assert_eq!(left.to_bytes(), right.to_bytes());
            assert_eq!(left, agg(&xs));
        }
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut s = TimeStats::new(TimeMode::Histogram);
        s.add(0);
        s.add(1);
        s.add(1024);
        s.add(1500);
        assert_eq!(s.count(), 4);
        let TimeStats::Histogram { buckets, .. } = &s else {
            panic!()
        };
        assert_eq!(buckets.iter().sum::<u32>(), 4);
        assert_eq!(buckets[11], 2); // 1024 and 1500 share [1024, 2048)
    }

    #[test]
    fn histogram_mean_is_plausible() {
        let mut s = TimeStats::new(TimeMode::Histogram);
        for _ in 0..100 {
            s.add(1000);
        }
        let m = s.mean();
        assert!(m > 500.0 && m < 2000.0, "mean {m}");
    }

    #[test]
    fn none_mode_records_nothing() {
        let mut s = TimeStats::new(TimeMode::None);
        s.add(42);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn codec_round_trips_all_modes() {
        for mode in [TimeMode::MeanStd, TimeMode::Histogram, TimeMode::None] {
            let mut s = TimeStats::new(mode);
            for d in [5u64, 9, 9, 1000] {
                s.add(d);
            }
            let back = TimeStats::from_bytes(&s.to_bytes()).unwrap();
            // Exact moments round trip losslessly, and the encoding is
            // canonical: re-encoding is byte-stable.
            assert_eq!(back, s);
            assert_eq!(back.to_bytes(), s.to_bytes());
        }
    }

    #[test]
    fn codec_empty_and_single_sample() {
        for samples in [vec![], vec![77u64]] {
            let mut s = TimeStats::new(TimeMode::MeanStd);
            for d in &samples {
                s.add(*d);
            }
            let back = TimeStats::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(back.count(), samples.len() as u64);
            assert_eq!(back, s);
            assert_eq!(back.to_bytes(), s.to_bytes());
        }
    }

    /// Only the tags this build writes decode; anything else — including
    /// the retired quantized tag 0 — is an error that names the tag.
    #[test]
    fn unknown_tag_is_a_loud_error_naming_the_tag() {
        for tag in [0u8, 4, 0xff] {
            let mut enc = Encoder::new();
            enc.put_u8(tag);
            for v in [4u64, 100, 10, 88, 115] {
                enc.put_uvar(v);
            }
            let err = TimeStats::from_bytes(&enc.finish()).unwrap_err();
            assert!(
                err.0.contains(&format!("tag {tag}")),
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
            let mut s = TimeStats::new(TimeMode::MeanStd);
            for &x in &xs {
                s.add(x);
            }
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
            let mut a = TimeStats::new(TimeMode::MeanStd);
            for &x in &xs {
                a.add(x);
            }
            let mut b = TimeStats::new(TimeMode::MeanStd);
            for &y in &ys {
                b.add(y);
            }
            a.merge(&b);
            assert_eq!(a.count(), (xs.len() + ys.len()) as u64);
        }
    }
}
