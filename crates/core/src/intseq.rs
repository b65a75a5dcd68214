//! Stride/run-length compressed integer sequences.
//!
//! The paper compresses loop iteration counts and branch outcomes with
//! run-length notation (`a×n`) and striding tuples (`<first,last,stride>`,
//! e.g. "iteration count goes 0..k-1 with stride 1"). [`IntSeq`] generalizes
//! both: a sequence of *segments*, each an arithmetic progression
//! `(start, stride, len)` optionally repeated `reps` times, so that a
//! triangular inner-loop count sequence `0,1,2,…,k-1` is one segment, a
//! constant sequence is one segment with stride 0, and a periodic pattern
//! (inner counts repeating every outer iteration) folds into `reps`.
//!
//! Lossless: `decompress(compress(xs)) == xs` for every `Vec<i64>`
//! (property-tested).

use cypress_trace::codec::{Codec, Cursor, Encoder};

/// One arithmetic-progression segment, repeated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Seg {
    pub start: i64,
    pub stride: i64,
    /// Number of terms in the progression (≥ 1).
    pub len: u32,
    /// How many times the whole progression repeats (≥ 1).
    pub reps: u32,
}

impl Seg {
    /// Total values this segment expands to.
    pub fn total(&self) -> u64 {
        self.len as u64 * self.reps as u64
    }

    /// Value at position `i` within a single repetition.
    fn value_at(&self, i: u32) -> i64 {
        self.start.wrapping_add(self.stride.wrapping_mul(i as i64))
    }
}

/// A compressed sequence of `i64`s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntSeq {
    segs: Vec<Seg>,
    /// Terms accumulated in the trailing, still-open progression.
    /// (Invariant maintained by `push`: the last segment may still grow.)
    total: u64,
}

impl IntSeq {
    pub fn new() -> Self {
        IntSeq::default()
    }

    /// Build from a slice.
    pub fn from_slice(xs: &[i64]) -> Self {
        let mut s = IntSeq::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Number of values in the (logical) sequence.
    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of physical segments (the compressed size driver).
    pub fn seg_count(&self) -> usize {
        self.segs.len()
    }

    pub fn segments(&self) -> &[Seg] {
        &self.segs
    }

    /// The last value, in O(1).
    pub fn last(&self) -> Option<i64> {
        self.segs.last().map(|s| s.value_at(s.len - 1))
    }

    /// Append one value, extending the trailing segment when possible.
    pub fn push(&mut self, v: i64) {
        self.total += 1;
        if let Some(last) = self.segs.last_mut() {
            if last.reps == 1 {
                // Open progression: try to extend.
                if last.len == 1 {
                    last.stride = v.wrapping_sub(last.start);
                    last.len = 2;
                    self.try_fold_reps();
                    return;
                }
                let expected = last.value_at(last.len);
                if v == expected {
                    last.len += 1;
                    self.try_fold_reps();
                    return;
                }
            }
            // Closed (repeated) segment, or open progression that `v` does
            // not continue: start a new segment below. Periodic patterns
            // re-accumulate in the new segment and fold into `reps` once it
            // replicates its predecessor (try_fold_reps).
        }
        self.segs.push(Seg {
            start: v,
            stride: 0,
            len: 1,
            reps: 1,
        });
        self.try_fold_reps();
    }

    /// If the trailing segment exactly replicates its predecessor's
    /// progression, fold it into `reps`.
    fn try_fold_reps(&mut self) {
        let n = self.segs.len();
        if n < 2 {
            return;
        }
        let (prev, last) = {
            let (a, b) = self.segs.split_at(n - 1);
            (a[n - 2], b[0])
        };
        if last.reps == 1
            && last.len == prev.len
            && last.start == prev.start
            && (last.stride == prev.stride || prev.len == 1)
        {
            self.segs[n - 2].reps = prev.reps + 1;
            self.segs.pop();
        }
    }

    /// Expand to a `Vec` (tests / small sequences).
    pub fn to_vec(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.total as usize);
        for s in &self.segs {
            for _ in 0..s.reps {
                for i in 0..s.len {
                    out.push(s.value_at(i));
                }
            }
        }
        out
    }

    /// Sequential reader over the values.
    pub fn reader(&self) -> IntSeqReader<'_> {
        self.view().reader()
    }

    /// Approximate in-memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.segs.capacity() * std::mem::size_of::<Seg>()
    }

    /// Sum of all values, computed in O(segments) with the closed form for
    /// arithmetic progressions — the symbolic-evaluation primitive of the
    /// compressed-domain query engine (total loop trip counts come from here
    /// without expanding the sequence). Wraps on overflow, matching
    /// [`Seg::value_at`]'s wrapping semantics.
    pub fn sum(&self) -> i64 {
        self.view().sum()
    }

    /// The sequence of exactly these segments, as decoded; `total` is their
    /// term count.
    pub(crate) fn from_segs(segs: Vec<Seg>, total: u64) -> IntSeq {
        debug_assert_eq!(total, segs.iter().map(Seg::total).sum::<u64>());
        IntSeq { segs, total }
    }

    /// A borrowed [`SeqRef`] view of this sequence.
    pub fn view(&self) -> SeqRef<'_> {
        SeqRef {
            segs: &self.segs,
            total: self.total,
        }
    }
}

/// A borrowed view of a compressed integer sequence: the shape shared by
/// [`IntSeq`] (which owns its segments) and pooled storage like
/// `CttSlab` (where every sequence's segments live in one contiguous
/// arena vector). `Copy`, so it passes by value; this is what
/// [`CttFold`](crate::visit::CttFold) callbacks receive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqRef<'a> {
    segs: &'a [Seg],
    total: u64,
}

impl<'a> SeqRef<'a> {
    /// View over raw parts. `total` must equal the sum of `seg.total()`s.
    pub fn from_parts(segs: &'a [Seg], total: u64) -> SeqRef<'a> {
        debug_assert_eq!(total, segs.iter().map(Seg::total).sum::<u64>());
        SeqRef { segs, total }
    }

    /// Number of values in the (logical) sequence.
    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of physical segments (the compressed size driver).
    pub fn seg_count(&self) -> usize {
        self.segs.len()
    }

    pub fn segments(&self) -> &'a [Seg] {
        self.segs
    }

    /// Closed-form sum in O(segments); see [`IntSeq::sum`].
    pub fn sum(&self) -> i64 {
        let mut total = 0i64;
        for s in self.segs {
            let n = s.len as i64;
            let one = s
                .start
                .wrapping_mul(n)
                .wrapping_add(s.stride.wrapping_mul(n.wrapping_mul(n - 1) / 2));
            total = total.wrapping_add(one.wrapping_mul(s.reps as i64));
        }
        total
    }

    /// Sequential reader over the values.
    pub fn reader(&self) -> IntSeqReader<'a> {
        IntSeqReader {
            segs: self.segs,
            seg: 0,
            rep: 0,
            idx: 0,
        }
    }
}

/// An owned copy of a view: exactly the [`IntSeq`] the view's bytes decode
/// to, so a tree lifted from pooled storage equals one lifted from owned.
impl From<SeqRef<'_>> for IntSeq {
    fn from(view: SeqRef<'_>) -> IntSeq {
        IntSeq {
            segs: view.segs.to_vec(),
            total: view.total,
        }
    }
}

/// Sequential consumer of a compressed sequence (supports peek, used by
/// branch outcome matching during decompression). Works over any segment
/// slice, so it serves both [`IntSeq`] and [`SeqRef`].
#[derive(Debug, Clone)]
pub struct IntSeqReader<'a> {
    segs: &'a [Seg],
    seg: usize,
    rep: u32,
    idx: u32,
}

#[allow(clippy::should_implement_trait)]
impl IntSeqReader<'_> {
    /// Look at the next value without consuming it.
    pub fn peek(&self) -> Option<i64> {
        let s = self.segs.get(self.seg)?;
        Some(s.value_at(self.idx))
    }

    /// Consume and return the next value.
    pub fn next(&mut self) -> Option<i64> {
        let s = self.segs.get(self.seg)?;
        let v = s.value_at(self.idx);
        self.idx += 1;
        if self.idx == s.len {
            self.idx = 0;
            self.rep += 1;
            if self.rep == s.reps {
                self.rep = 0;
                self.seg += 1;
            }
        }
        Some(v)
    }

    /// How many values remain.
    pub fn remaining(&self) -> u64 {
        let mut rem = 0u64;
        for (i, s) in self.segs.iter().enumerate().skip(self.seg) {
            if i == self.seg {
                let done = self.rep as u64 * s.len as u64 + self.idx as u64;
                rem += s.total() - done;
            } else {
                rem += s.total();
            }
        }
        rem
    }

    /// Unconditionally consume `n` values in O(segments), never O(n).
    /// Returns false (leaving the reader exhausted) if fewer than `n`
    /// values remain.
    pub fn skip(&mut self, mut n: u64) -> bool {
        while n > 0 {
            let Some(s) = self.segs.get(self.seg) else {
                return false;
            };
            let done = self.rep as u64 * s.len as u64 + self.idx as u64;
            let left_in_seg = s.total() - done;
            if n >= left_in_seg {
                n -= left_in_seg;
                self.seg += 1;
                self.rep = 0;
                self.idx = 0;
            } else {
                let pos = done + n;
                self.rep = (pos / s.len as u64) as u32;
                self.idx = (pos % s.len as u64) as u32;
                return true;
            }
        }
        true
    }

    /// Consume the next `m` values iff they form the arithmetic progression
    /// `first, first+stride, first+2·stride, …` (a constant run when
    /// `stride == 0`). On success the values are consumed and `true` is
    /// returned; on failure the reader is left untouched. Cost is
    /// O(segments touched), never O(m) — this is the bulk-verification
    /// primitive the compressed-domain schedule lowering uses to check loop
    /// bodies repeat without expanding trip counts.
    pub fn take_arith(&mut self, m: u64, first: i64, stride: i64) -> bool {
        if m == 0 {
            return true;
        }
        let mut probe = self.clone();
        let mut expect = first;
        let mut left = m;
        while left > 0 {
            let Some(s) = probe.segs.get(probe.seg) else {
                return false;
            };
            // The current chunk of equal-stride values: the rest of the whole
            // segment when it is constant (stride 0 or single-term runs),
            // else the rest of the current repetition (values reset at rep
            // boundaries, breaking any progression unless constant).
            let constant = s.stride == 0 || s.len == 1;
            let (chunk_first, chunk_stride, chunk_len) = if constant {
                let done = probe.rep as u64 * s.len as u64 + probe.idx as u64;
                (s.start, 0i64, s.total() - done)
            } else {
                (s.value_at(probe.idx), s.stride, (s.len - probe.idx) as u64)
            };
            if chunk_first != expect {
                return false;
            }
            let take = if chunk_stride == stride {
                chunk_len.min(left)
            } else {
                1
            };
            if take < left && take < chunk_len {
                // Stride mismatch with more values needed from this chunk:
                // the next chunk value cannot continue the progression.
                return false;
            }
            probe.skip(take);
            expect = expect.wrapping_add(stride.wrapping_mul(take as i64));
            left -= take;
        }
        *self = probe;
        true
    }
}

impl Codec for IntSeq {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(&self.segs, |enc, s| {
            enc.put_ivar(s.start);
            enc.put_ivar(s.stride);
            enc.put_uvar(s.len as u64);
            enc.put_uvar(s.reps as u64);
        });
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let mut segs = Vec::new();
        let total = read_segs_into(cur, &mut segs)?;
        Some(IntSeq { segs, total })
    }
}

/// Read the wire form of an [`IntSeq`], appending its segments to `out`
/// instead of allocating a fresh vector — the primitive pooled (slab) CTT
/// decoding is built on. Returns the logical length of the sequence.
pub(crate) fn read_segs_into(cur: &mut Cursor<'_>, out: &mut Vec<Seg>) -> Option<u64> {
    let n = cur.count("segments")?;
    read_segs(cur, n, out)
}

/// The `n` segments after a sequence's count, appended to `out`; their
/// term count.
pub(crate) fn read_segs(cur: &mut Cursor<'_>, n: usize, out: &mut Vec<Seg>) -> Option<u64> {
    let mut total = 0u64;
    cur.items(n, out, |cur| read_seg(cur, &mut total))?;
    Some(total)
}

/// One segment of the wire form, adding its term count to `total`.
#[inline]
pub(crate) fn read_seg(cur: &mut Cursor<'_>, total: &mut u64) -> Option<Seg> {
    let seg = Seg {
        start: cur.ivar()?,
        stride: cur.ivar()?,
        len: cur.u32("segment len")?,
        reps: cur.u32("segment reps")?,
    };
    if seg.len == 0 || seg.reps == 0 {
        return cur.refuse(0, |_| "zero-length segment".into());
    }
    let Some(sum) = total.checked_add(seg.total()) else {
        return cur.refuse(0, |_| "sequence length overflows u64".into());
    };
    *total = sum;
    Some(seg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_obs::rng::Rng;

    fn round_trip(xs: &[i64]) {
        let s = IntSeq::from_slice(xs);
        assert_eq!(s.to_vec(), xs, "segments: {:?}", s.segments());
        assert_eq!(s.len(), xs.len() as u64);
    }

    #[test]
    fn constant_run_is_one_segment() {
        let s = IntSeq::from_slice(&[7; 100]);
        assert_eq!(s.seg_count(), 1);
        assert_eq!(s.to_vec(), vec![7; 100]);
    }

    #[test]
    fn arithmetic_progression_is_one_segment() {
        let xs: Vec<i64> = (0..50).collect();
        let s = IntSeq::from_slice(&xs);
        assert_eq!(s.seg_count(), 1);
        assert_eq!(
            s.segments()[0],
            Seg {
                start: 0,
                stride: 1,
                len: 50,
                reps: 1
            }
        );
    }

    #[test]
    fn strided_progression_compresses() {
        // The paper's <0,8,2> example: branch taken at 0,2,4,6,8.
        let s = IntSeq::from_slice(&[0, 2, 4, 6, 8]);
        assert_eq!(s.seg_count(), 1);
        assert_eq!(s.segments()[0].stride, 2);
    }

    #[test]
    fn alternating_pattern_folds_into_reps() {
        // 1,0,1,0,... : pairs (1,0) repeated.
        let xs: Vec<i64> = (0..40).map(|i| (i + 1) % 2).collect();
        let s = IntSeq::from_slice(&xs);
        round_trip(&xs);
        assert!(s.seg_count() <= 3, "segments: {:?}", s.segments());
    }

    #[test]
    fn periodic_ap_folds_into_reps() {
        // 0,1,2,3 repeated 10 times (inner loop counts under an outer loop).
        let mut xs = Vec::new();
        for _ in 0..10 {
            xs.extend(0..4i64);
        }
        let s = IntSeq::from_slice(&xs);
        round_trip(&xs);
        assert!(s.seg_count() <= 3, "segments: {:?}", s.segments());
    }

    #[test]
    fn empty_and_singleton() {
        round_trip(&[]);
        round_trip(&[42]);
        assert!(IntSeq::new().is_empty());
    }

    #[test]
    fn reader_sequential_and_peek() {
        let s = IntSeq::from_slice(&[5, 5, 5, 1, 2, 3]);
        let mut r = s.reader();
        assert_eq!(r.peek(), Some(5));
        assert_eq!(r.remaining(), 6);
        let got: Vec<i64> = std::iter::from_fn(|| r.next()).collect();
        assert_eq!(got, vec![5, 5, 5, 1, 2, 3]);
        assert_eq!(r.peek(), None);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn take_arith_constant_and_strided() {
        let s = IntSeq::from_slice(&[3, 3, 3, 3, 0, 2, 4, 6, 7]);
        let mut r = s.reader();
        assert!(r.take_arith(4, 3, 0));
        assert!(!r.take_arith(4, 0, 1), "stride mismatch must not consume");
        assert_eq!(r.peek(), Some(0));
        assert!(r.take_arith(4, 0, 2));
        assert_eq!(r.next(), Some(7));
        assert!(r.take_arith(0, 99, 99), "empty take always succeeds");
        assert!(!r.take_arith(1, 7, 0), "exhausted reader fails");
    }

    #[test]
    fn take_arith_spans_segments_and_reps() {
        // 5 repeated 100× then 8 repeated 50×: constant runs across the
        // internal rep/segment structure.
        let mut xs = vec![5i64; 100];
        xs.extend(vec![8i64; 50]);
        let s = IntSeq::from_slice(&xs);
        let mut r = s.reader();
        assert!(r.take_arith(100, 5, 0));
        assert!(r.take_arith(50, 8, 0));
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn take_arith_matches_scalar_consume_random() {
        let mut rng = Rng::new(0xa717);
        for _ in 0..256 {
            let xs = random_vec(&mut rng, -4, 4, 120);
            let s = IntSeq::from_slice(&xs);
            let m = rng.range_usize(0..xs.len() + 2) as u64;
            let first = rng.range_i64(-4..5);
            let stride = rng.range_i64(-2..3);
            let mut bulk = s.reader();
            let ok = bulk.take_arith(m, first, stride);
            // Scalar oracle: peek-and-next one value at a time.
            let mut scalar = s.reader();
            let mut scalar_ok = true;
            for i in 0..m {
                let want = first.wrapping_add(stride.wrapping_mul(i as i64));
                if scalar.next() != Some(want) {
                    scalar_ok = false;
                    break;
                }
            }
            assert_eq!(
                ok, scalar_ok,
                "xs={xs:?} m={m} first={first} stride={stride}"
            );
            if ok {
                assert_eq!(bulk.remaining(), s.len() - m);
                let mut a = Vec::new();
                while let Some(v) = bulk.next() {
                    a.push(v);
                }
                assert_eq!(a, xs[m as usize..].to_vec());
            }
        }
    }

    #[test]
    fn skip_matches_scalar_random() {
        let mut rng = Rng::new(0x5517);
        for _ in 0..256 {
            let xs = random_vec(&mut rng, -6, 6, 150);
            let s = IntSeq::from_slice(&xs);
            let n = rng.range_usize(0..xs.len() + 3) as u64;
            let mut r = s.reader();
            let ok = r.skip(n);
            assert_eq!(ok, n <= xs.len() as u64);
            if ok {
                assert_eq!(r.remaining(), xs.len() as u64 - n);
                assert_eq!(r.peek(), xs.get(n as usize).copied());
            } else {
                assert_eq!(r.peek(), None);
            }
        }
    }

    #[test]
    fn codec_round_trip() {
        let s = IntSeq::from_slice(&[0, 2, 4, 9, 9, 9, -1]);
        let b = s.to_bytes();
        assert_eq!(IntSeq::from_bytes(&b).unwrap(), s);
    }

    #[test]
    fn owning_a_pooled_view_equals_decoding_the_same_bytes() {
        let mut rng = Rng::new(0x0f1e);
        let mut pool = vec![Seg {
            start: 9,
            stride: 0,
            len: 1,
            reps: 1,
        }];
        for _ in 0..64 {
            let bytes = IntSeq::from_slice(&random_vec(&mut rng, -6, 6, 80)).to_bytes();
            let lo = pool.len();
            let total = read_segs_into(&mut Cursor::new(&bytes), &mut pool).unwrap();
            let view = SeqRef::from_parts(&pool[lo..], total);
            assert_eq!(IntSeq::from(view), IntSeq::from_bytes(&bytes).unwrap());
        }
    }

    #[test]
    fn codec_rejects_zero_len_segment() {
        let mut enc = Encoder::new();
        enc.put_uvar(1);
        enc.put_ivar(0);
        enc.put_ivar(0);
        enc.put_uvar(0); // len 0
        enc.put_uvar(1);
        assert!(IntSeq::from_bytes(&enc.finish()).is_err());
    }

    fn encode_segs(segs: &[(u64, u64)]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_uvar(segs.len() as u64);
        for &(len, reps) in segs {
            enc.put_ivar(7);
            enc.put_ivar(0);
            enc.put_uvar(len);
            enc.put_uvar(reps);
        }
        enc.finish()
    }

    #[test]
    fn codec_refuses_a_len_or_reps_wider_than_32_bits() {
        let wide = (1u64 << 32) + 5;
        for (seg, field) in [((wide, 1), "len"), ((1, wide), "reps")] {
            let err = IntSeq::from_bytes(&encode_segs(&[seg])).unwrap_err();
            let want = format!("segment {field} 4294967301 does not fit in 32 bits");
            assert!(err.0.contains(&want), "{err}");
        }
    }

    #[test]
    fn codec_refuses_a_total_past_u64() {
        let max = u32::MAX as u64;
        // One such segment is (2³² − 1)² terms and fits; two do not.
        let one = IntSeq::from_bytes(&encode_segs(&[(max, max)])).unwrap();
        assert_eq!(one.len(), max * max);
        let err = IntSeq::from_bytes(&encode_segs(&[(max, max), (max, max)])).unwrap_err();
        assert!(err.0.contains("overflows u64"), "{err}");
    }

    fn random_vec(rng: &mut Rng, lo: i64, hi: i64, max_len: usize) -> Vec<i64> {
        let n = rng.range_usize(0..max_len);
        (0..n).map(|_| rng.range_i64(lo..hi)).collect()
    }

    #[test]
    fn round_trip_random_narrow() {
        let mut rng = Rng::new(0x5e91);
        for _ in 0..256 {
            round_trip(&random_vec(&mut rng, -20, 20, 200));
        }
    }

    #[test]
    fn round_trip_random_wide() {
        let mut rng = Rng::new(0x51de);
        for _ in 0..256 {
            let n = rng.range_usize(0..60);
            let xs: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
            round_trip(&xs);
        }
    }

    #[test]
    fn codec_round_trip_random() {
        let mut rng = Rng::new(0xc0dec);
        for _ in 0..256 {
            let xs = random_vec(&mut rng, -5, 5, 100);
            let s = IntSeq::from_slice(&xs);
            let back = IntSeq::from_bytes(&s.to_bytes()).unwrap();
            assert_eq!(back.to_vec(), xs);
        }
    }

    #[test]
    fn reader_matches_to_vec_random() {
        let mut rng = Rng::new(0x4ead);
        for _ in 0..256 {
            let xs = random_vec(&mut rng, -8, 8, 150);
            let s = IntSeq::from_slice(&xs);
            let mut r = s.reader();
            let got: Vec<i64> = std::iter::from_fn(|| r.next()).collect();
            assert_eq!(got, s.to_vec());
        }
    }

    #[test]
    fn compression_no_worse_than_linear_random() {
        let mut rng = Rng::new(0x11ea);
        for _ in 0..256 {
            let mut xs = random_vec(&mut rng, -4, 4, 120);
            if xs.is_empty() {
                xs.push(0);
            }
            let s = IntSeq::from_slice(&xs);
            assert!(s.seg_count() <= xs.len());
        }
    }
}
