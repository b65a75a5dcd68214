//! Compact varint binary codec — the one encoding in the workspace.
//!
//! The build environment is fully offline (no serde, no format crates), so
//! everything that is written to disk or to a socket is serialized with this
//! small hand-rolled codec: LEB128 varints for unsigned integers and
//! zigzag+LEB128 for signed. Every frame, self-versioned blob and
//! container-section payload is an `impl` [`Codec`] built from the
//! primitives here plus three combinators that hold the checks every
//! decoder of outside input needs, so they exist once:
//!
//! - [`Encoder::put_seq`] / [`Cursor::seq`] (and [`Cursor::items`], which
//!   appends to a pooled vector) — a count-prefixed sequence. The count is
//!   held to the bytes remaining *before* anything is allocated (every
//!   element costs at least one byte), and the preallocation is capped, so
//!   a hostile count can neither reserve memory nor run the element
//!   decoder once.
//! - [`Cursor::u32`] / [`Cursor::u16`] — a varint that must fit the field
//!   it is stored into; an error naming the field, never an `as`
//!   truncation.
//! - [`Cursor::expect_version`] — the leading version byte of a blob: this
//!   build's version or a loud error naming both.
//!
//! There is one reader, [`Cursor`]: its field reads return `Option` and
//! record why they failed, and [`Codec::decode`] is a run of them. The
//! failure becomes a [`DecodeError`] once, where a whole buffer is decoded
//! ([`Codec::from_bytes`], [`decode_whole`]) or a reader stops
//! ([`Cursor::error`]).
//!
//! All trace-size numbers reported by the benchmark harness are sizes of
//! these encodings. Whole-artifact traffic through [`Codec::to_bytes`] /
//! [`Codec::from_bytes`] is counted under the `codec` observability scope.

use cypress_obs::Counter;

// Byte counters for whole-artifact encode/decode traffic.
static BYTES_ENCODED: Counter = Counter::new("codec", "bytes_encoded");
static BYTES_DECODED: Counter = Counter::new("codec", "bytes_decoded");

/// Encoding error-free writer over a growable buffer.
#[derive(Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Reset to empty, keeping the allocation — lets hot paths reuse one
    /// scratch encoder (e.g. per-event raw-size accounting in sessions)
    /// instead of allocating per call.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drop everything encoded after the first `len` bytes.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Append bytes that are already an encoding, with no length prefix.
    pub fn put_raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// LEB128 unsigned varint.
    #[inline]
    pub fn put_uvar(&mut self, mut v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
            return;
        }
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    #[inline]
    pub fn put_ivar(&mut self, v: i64) {
        self.put_uvar(zigzag(v));
    }

    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_uvar(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// A count-prefixed sequence: the length as a varint, then every item
    /// through `put`. Read back by [`Cursor::seq`].
    pub fn put_seq<I>(&mut self, items: I, mut put: impl FnMut(&mut Encoder, I::Item))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.put_uvar(items.len() as u64);
        for item in items {
            put(self, item);
        }
    }
}

/// Encoded length in bytes of [`Encoder::put_uvar`]`(v)`, without encoding.
/// Lets accounting paths (e.g. raw-size stats in sessions) compute sizes
/// arithmetically instead of serializing into a scratch buffer.
#[inline]
pub fn uvar_len(v: u64) -> usize {
    // ceil(bits/7); 1 byte minimum for v == 0.
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Encoded length in bytes of [`Encoder::put_ivar`]`(v)`.
#[inline]
pub fn ivar_len(v: i64) -> usize {
    uvar_len(zigzag(v))
}

/// Zigzag map i64 -> u64 (small magnitudes become small codes).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

pub type DecodeResult<T> = Result<T, DecodeError>;

/// Why a [`Cursor`] read failed, held as plain data until the record
/// boundary turns it into the one [`DecodeError`] a refusal allocates.
#[derive(Debug, Clone, Copy)]
enum Fail {
    /// The input ended inside a field of this kind.
    End(&'static str),
    /// A varint running past its 10th byte.
    TooLong,
    /// A 10th varint byte contributing more than one bit.
    Overflow,
    /// A varint wider than the field it is stored into.
    Narrow {
        what: &'static str,
        v: u64,
        bits: u32,
    },
    /// A sequence count larger than the bytes left.
    Count {
        what: &'static str,
        n: u64,
        left: usize,
    },
    /// A byte string longer than the bytes left.
    Bytes { n: u64, left: usize },
    /// A string that is not UTF-8.
    Utf8(std::str::Utf8Error),
    /// A blob's version byte other than the one this build reads.
    Version { what: &'static str, v: u8, want: u8 },
    /// A sequence count above its domain's cap.
    Cap {
        what: &'static str,
        n: usize,
        cap: usize,
    },
    /// Bytes left after a whole buffer's value.
    Trailing(usize),
    /// A value the format refuses, and the text naming why.
    Value { v: u64, text: fn(u64) -> String },
}

impl Fail {
    #[cold]
    fn error(self) -> DecodeError {
        DecodeError(match self {
            Fail::End(what) => format!("unexpected end of input ({what})"),
            Fail::TooLong => "varint too long".into(),
            Fail::Overflow => "varint overflows u64".into(),
            Fail::Narrow { what, v, bits } => format!("{what} {v} does not fit in {bits} bits"),
            Fail::Count { what, n, left } => {
                format!("{what} claims {n} entries but only {left} bytes remain")
            }
            Fail::Bytes { n, left } => {
                format!("byte string of length {n} exceeds remaining {left}")
            }
            Fail::Utf8(e) => format!("invalid utf-8 string: {e}"),
            Fail::Version { what, v, want } => {
                format!("{what} version {v} unsupported (expected {want})")
            }
            Fail::Cap { what, n, cap } => {
                format!("{what} claims {n} entries, at most {cap} allowed")
            }
            Fail::Trailing(n) => format!("{n} trailing bytes after decode"),
            Fail::Value { v, text } => text(v),
        })
    }
}

/// The checked reader every decoder is built on. A field read returns an
/// `Option` — a varint comes back in registers, not as a `Result` with a
/// heap-backed error beside it — and a failed read records why in the
/// cursor. The caller turns that into a [`DecodeError`] once, at the
/// buffer or tree boundary ([`decode_whole`], [`Cursor::error`]), so a
/// record of twenty fields costs twenty plain reads and at most one error.
///
/// The checks are the codec's: a count is held to the bytes left before
/// anything is reserved ([`Cursor::count`]), a narrowing names its field
/// ([`Cursor::u32`]), the 10th byte of a varint contributes at most one
/// bit, and a value the format refuses is named by [`Cursor::refuse`].
pub struct Cursor<'a> {
    buf: &'a [u8],
    fail: Option<Fail>,
    /// A reader mapped several encodings to the value it read
    /// ([`Cursor::note_inexact`]).
    inexact: bool,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor {
            buf,
            fail: None,
            inexact: false,
        }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub fn is_done(&self) -> bool {
        self.buf.is_empty()
    }

    /// The bytes not yet read.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Note that the bytes just read are not what encoding the value read
    /// from them writes: a reader that maps several encodings to one value
    /// says so here. A varint longer than it needs to be is not noted, so
    /// that no read pays for it; [`has_long_varint`] finds one.
    pub fn note_inexact(&mut self) {
        self.inexact = true;
    }

    /// Whether a reader noted an inexact read since the last call
    /// ([`Cursor::note_inexact`]); clears the note.
    pub fn take_inexact(&mut self) -> bool {
        std::mem::take(&mut self.inexact)
    }

    #[cold]
    fn fail<T>(&mut self, why: Fail) -> Option<T> {
        self.fail = Some(why);
        None
    }

    /// Refuse `v`, a value the format does not allow (an unknown tag, a
    /// zero length): `text` names why when the failure becomes an error.
    #[cold]
    pub fn refuse<T>(&mut self, v: u64, text: fn(u64) -> String) -> Option<T> {
        self.fail(Fail::Value { v, text })
    }

    /// The error the last failed read recorded, taken out of the cursor.
    #[cold]
    pub fn error(&mut self) -> DecodeError {
        debug_assert!(self.fail.is_some(), "a read failed without a reason");
        match self.fail.take() {
            Some(why) => why.error(),
            None => DecodeError("malformed input".into()),
        }
    }

    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        match self.buf.split_first() {
            Some((&b, rest)) => {
                self.buf = rest;
                Some(b)
            }
            None => self.fail(Fail::End("u8")),
        }
    }

    /// LEB128 unsigned varint: at most ten bytes, the tenth contributing
    /// one bit. Every field of every record crosses this, so a one-byte
    /// varint returns at once, and a longer one is a call: kept out of
    /// line, the read is small enough that a record's every field inlines
    /// into its reader (DESIGN §10 has the measurement).
    #[inline]
    pub fn uvar(&mut self) -> Option<u64> {
        if let [b, rest @ ..] = self.buf {
            if *b < 0x80 {
                self.buf = rest;
                return Some(*b as u64);
            }
        }
        self.uvar_long()
    }

    /// [`Cursor::uvar`] past its first byte: with ten bytes left the varint
    /// decodes without a bounds check per byte. Only a short tail, or input
    /// that is an error, takes [`Cursor::uvar_tail`].
    #[inline(never)]
    fn uvar_long(&mut self) -> Option<u64> {
        let buf = self.buf;
        if let Some(head) = buf.first_chunk::<10>() {
            let mut v = 0u64;
            for (i, &b) in head[..9].iter().enumerate() {
                v |= ((b & 0x7f) as u64) << (7 * i);
                if b < 0x80 {
                    self.buf = &buf[i + 1..];
                    return Some(v);
                }
            }
            // A 10th byte of 0 or 1 ends the varint; any other is an error.
            if head[9] <= 1 {
                self.buf = &buf[10..];
                return Some(v | (head[9] as u64) << 63);
            }
        }
        self.uvar_tail()
    }

    /// [`Cursor::uvar`] a byte at a time: a varint near the end of the
    /// input, and every malformed one, whose failure this names.
    #[cold]
    fn uvar_tail(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let Some((&b, rest)) = self.buf.split_first() else {
                return self.fail(Fail::End("varint"));
            };
            self.buf = rest;
            if shift >= 64 {
                return self.fail(Fail::TooLong);
            }
            // The 10th byte may only contribute one bit.
            if shift == 63 && (b & 0x7e) != 0 {
                return self.fail(Fail::Overflow);
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }

    /// Zigzag-encoded signed varint.
    #[inline]
    pub fn ivar(&mut self) -> Option<i64> {
        self.uvar().map(unzigzag)
    }

    /// A varint stored into a 32-bit field (a rank, a job size, a GID).
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Option<u32> {
        let v = self.uvar()?;
        self.fit(v, what)
    }

    /// A varint stored into a 16-bit field.
    pub fn u16(&mut self, what: &'static str) -> Option<u16> {
        let v = self.uvar()?;
        self.fit(v, what)
    }

    /// `v`, a value read from these bytes, stored into a narrower field:
    /// `as` would let a peer's `rank = 2³² + 3` in as rank 3.
    #[inline]
    pub fn fit<T: TryFrom<u64>>(&mut self, v: u64, what: &'static str) -> Option<T> {
        match T::try_from(v) {
            Ok(t) => Some(t),
            Err(_) => self.fail(Fail::Narrow {
                what,
                v,
                bits: 8 * std::mem::size_of::<T>() as u32,
            }),
        }
    }

    /// A length-prefixed byte string, borrowed from the input.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.uvar()?;
        let left = self.remaining();
        if n > left as u64 {
            return self.fail(Fail::Bytes { n, left });
        }
        let (bytes, rest) = self.buf.split_at(n as usize);
        self.buf = rest;
        Some(bytes)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        match std::str::from_utf8(self.bytes()?) {
            Ok(s) => Some(s.to_owned()),
            Err(e) => self.fail(Fail::Utf8(e)),
        }
    }

    /// The version byte leading a self-versioned blob: exactly `want`, or a
    /// failure naming the offered and the expected version.
    pub fn expect_version(&mut self, what: &'static str, want: u8) -> Option<()> {
        let v = self.u8()?;
        if v != want {
            return self.fail(Fail::Version { what, v, want });
        }
        Some(())
    }

    /// Step over every byte left: the payload behind a frame code this
    /// build does not know, which it cannot parse.
    pub fn skip_rest(&mut self) {
        self.buf = &[];
    }

    /// `decode` over every byte left, which it must consume.
    fn whole<T>(&mut self, decode: impl FnOnce(&mut Cursor<'a>) -> Option<T>) -> Option<T> {
        BYTES_DECODED.add(self.remaining() as u64);
        let v = decode(self)?;
        if !self.is_done() {
            return self.fail(Fail::Trailing(self.remaining()));
        }
        Some(v)
    }

    /// A blob carried as a byte string, decoded whole as
    /// [`Codec::from_bytes`] decodes it; its failure is this cursor's.
    pub fn nested<T>(&mut self, decode: impl FnOnce(&mut Cursor<'a>) -> Option<T>) -> Option<T> {
        let mut inner = Cursor::new(self.bytes()?);
        let v = inner.whole(decode);
        if v.is_none() {
            self.fail = inner.fail;
        }
        v
    }

    /// A sequence's element count, held to the bytes left: every element
    /// costs at least one encoded byte, so a larger count is a lie,
    /// refused before anything is allocated for it.
    #[inline]
    pub fn count(&mut self, what: &'static str) -> Option<usize> {
        let n = self.uvar()?;
        self.hold(n, what)
    }

    /// [`Cursor::count`] for a sequence whose domain bounds it tighter than
    /// the bytes left (stage rows, container sections): more than `cap`
    /// elements is refused like an impossible count.
    #[inline]
    pub fn count_capped(&mut self, what: &'static str, cap: usize) -> Option<usize> {
        let n = self.count(what)?;
        if n > cap {
            return self.fail(Fail::Cap { what, n, cap });
        }
        Some(n)
    }

    #[inline]
    pub(crate) fn hold(&mut self, n: u64, what: &'static str) -> Option<usize> {
        let left = self.remaining();
        if n > left as u64 {
            return self.fail(Fail::Count { what, n, left });
        }
        Some(n as usize)
    }

    /// A count-prefixed sequence written by [`Encoder::put_seq`]: the count,
    /// held to the bytes left, then `get` per element, into a vector
    /// allocated once at the size the count names.
    #[inline]
    pub fn seq<T>(
        &mut self,
        what: &'static str,
        get: impl FnMut(&mut Cursor<'a>) -> Option<T>,
    ) -> Option<Vec<T>> {
        self.seq_capped(what, usize::MAX, get)
    }

    /// [`Cursor::seq`] with its count capped as [`Cursor::count_capped`]
    /// caps it.
    #[inline]
    pub fn seq_capped<T>(
        &mut self,
        what: &'static str,
        cap: usize,
        get: impl FnMut(&mut Cursor<'a>) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.count_capped(what, cap)?;
        let mut out = Vec::with_capacity(n.min(SEQ_PREALLOC));
        self.items(n, &mut out, get)?;
        Some(out)
    }

    /// `n` elements of a sequence whose count [`Cursor::count`] already
    /// read, appended to `out` with room reserved for them once.
    #[inline]
    pub fn items<T>(
        &mut self,
        n: usize,
        out: &mut Vec<T>,
        mut get: impl FnMut(&mut Cursor<'a>) -> Option<T>,
    ) -> Option<()> {
        out.reserve(n.min(SEQ_PREALLOC));
        for _ in 0..n {
            out.push(get(self)?);
        }
        Some(())
    }
}

/// Most elements a sequence read reserves room for up front. The count
/// check bounds a sequence by the *bytes* left, but an element in memory can
/// be a hundred times its one-byte minimum on the wire; longer (honest)
/// sequences grow as they decode.
pub(crate) const SEQ_PREALLOC: usize = 1 << 16;

/// Types that serialize with this codec.
pub trait Codec: Sized {
    fn encode(&self, enc: &mut Encoder);
    /// Read one value through `cur`, or record there why it cannot.
    fn decode(cur: &mut Cursor<'_>) -> Option<Self>;

    /// Encoded size in bytes.
    fn encoded_size(&self) -> usize {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.len()
    }

    /// Encode into a standalone buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        let out = enc.finish();
        BYTES_ENCODED.add(out.len() as u64);
        out
    }

    /// Decode from a standalone buffer, requiring full consumption.
    fn from_bytes(buf: &[u8]) -> DecodeResult<Self> {
        decode_whole(buf, Self::decode)
    }
}

/// Whether `bytes` holds a varint longer than it needs to be: one whose
/// last byte is 0 after a first. `bytes` must be whole fields of a format
/// whose one-byte fields are all below 0x80, so every byte at or above it
/// is a varint's, and not its last. No early exit: a record's ~40 bytes are
/// checked a vector at a time.
pub fn has_long_varint(bytes: &[u8]) -> bool {
    let pairs = bytes.iter().zip(bytes.iter().skip(1));
    pairs.fold(false, |long, (&a, &b)| long | (a >= 0x80 && b == 0))
}

/// [`Codec::from_bytes`] with the reader given: `decode` over the whole of
/// `buf`, which it must consume. For a value that needs more than the
/// bytes to be read (one that takes ownership of them, or checks them
/// against its context as it reads). The one place a failed read becomes
/// a [`DecodeError`] for a whole buffer.
pub fn decode_whole<'a, T>(
    buf: &'a [u8],
    decode: impl FnOnce(&mut Cursor<'a>) -> Option<T>,
) -> DecodeResult<T> {
    let mut cur = Cursor::new(buf);
    cur.whole(decode).ok_or_else(|| cur.error())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_obs::rng::Rng;

    #[test]
    fn uvar_round_trip_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut e = Encoder::new();
            e.put_uvar(v);
            let b = e.finish();
            let mut c = Cursor::new(&b);
            assert_eq!(c.uvar(), Some(v));
            assert!(c.is_done());
        }
    }

    #[test]
    fn ivar_round_trip_boundaries() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut e = Encoder::new();
            e.put_ivar(v);
            let b = e.finish();
            assert_eq!(Cursor::new(&b).ivar(), Some(v));
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.put_uvar(300);
        let b = e.finish();
        assert_eq!(Cursor::new(&b[..1]).uvar(), None);
    }

    #[test]
    fn overlong_varint_rejected() {
        let b = [0xffu8; 11];
        assert_eq!(Cursor::new(&b).uvar(), None);
    }

    /// `uvar` as it was before its fast paths, a byte at a time: the
    /// value and the bytes consumed, or the error text.
    fn reference_uvar(buf: &[u8]) -> Result<(u64, usize), String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        for (i, &b) in buf.iter().enumerate() {
            if shift >= 64 {
                return Err("varint too long".into());
            }
            if shift == 63 && (b & 0x7e) != 0 {
                return Err("varint overflows u64".into());
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok((v, i + 1));
            }
            shift += 7;
        }
        Err("unexpected end of input (varint)".into())
    }

    /// `put_uvar` as it was before its one-byte fast path.
    fn reference_put_uvar(mut v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return out;
            }
            out.push(byte | 0x80);
        }
    }

    fn assert_uvar_matches_reference(input: &[u8]) {
        let mut c = Cursor::new(input);
        let got = match c.uvar() {
            Some(v) => Ok((v, input.len() - c.remaining())),
            None => Err(c.error().0),
        };
        assert_eq!(got, reference_uvar(input), "{input:02x?}");
        // A varint is found long exactly when its bytes are not the
        // encoding of its value.
        if let Ok((v, n)) = reference_uvar(input) {
            let longer = reference_put_uvar(v) != input[..n];
            assert_eq!(has_long_varint(&input[..n]), longer, "{input:02x?}");
        }
    }

    #[test]
    fn uvar_fast_paths_decode_and_refuse_exactly_what_the_byte_loop_did() {
        for a in 0..=255u8 {
            assert_uvar_matches_reference(&[a]);
            for b in 0..=255u8 {
                assert_uvar_matches_reference(&[a, b]);
            }
        }
        let mut rng = Rng::new(0x7a11_0c0d);
        for len in 1..=11usize {
            for _ in 0..3000 {
                let mut input = vec![0u8; len];
                rng.fill_bytes(&mut input);
                // Continuation bits on a random prefix, so every varint length
                // (and the 10th and 11th bytes) is reached often.
                let run = rng.range_usize(0..len + 1);
                for b in &mut input[..run] {
                    *b |= 0x80;
                }
                if run < len && rng.chance(0.5) {
                    input[run] &= 0x7f;
                }
                assert_uvar_matches_reference(&input);
            }
        }
        // Every 10th byte after nine continuation bytes: 0 and 1 end the
        // varint, 2..=0x7f set bits above bit 63, 0x80/0x81 go on to an
        // overlong 11th byte; each followed by nothing and by a tail.
        for tenth in 0..=255u8 {
            let mut input = vec![0xff; 9];
            input.push(tenth);
            assert_uvar_matches_reference(&input);
            for eleventh in [0x00, 0x01, 0x7f, 0x80, 0xff] {
                input.truncate(10);
                input.extend([eleventh, 0x05, 0x06]);
                assert_uvar_matches_reference(&input);
            }
        }
        // Every truncation of every varint length, with and without the
        // bytes that would follow it in a record.
        for width in 1..=64u32 {
            let v = u64::MAX >> (64 - width);
            let mut full = reference_put_uvar(v);
            for cut in 0..full.len() {
                assert_uvar_matches_reference(&full[..cut]);
            }
            full.extend([0x80; 12]);
            for end in 0..full.len() {
                assert_uvar_matches_reference(&full[..=end]);
            }
        }
    }

    /// Among whole fields — varints and one-byte fields below 0x80 — a
    /// varint made one byte longer than it needs is found, and only then.
    #[test]
    fn a_long_varint_is_found_among_whole_fields() {
        let mut rng = Rng::new(0x10_9e57);
        for _ in 0..4000 {
            let (mut bytes, mut long) = (Vec::new(), false);
            for _ in 0..rng.range_usize(1..12) {
                if rng.chance(0.3) {
                    bytes.push(rng.range_u64(0..0x80) as u8);
                    continue;
                }
                let mut field = reference_put_uvar(rng.next_u64() >> rng.range_u64(0..64));
                if field.len() < 10 && rng.chance(0.1) {
                    *field.last_mut().unwrap() |= 0x80;
                    field.push(0);
                    long = true;
                }
                bytes.extend(field);
            }
            assert_eq!(has_long_varint(&bytes), long, "{bytes:02x?}");
        }
    }

    #[test]
    fn put_uvar_writes_the_reference_bytes() {
        let mut values = vec![0, u64::MAX];
        for k in 1..=9 {
            values.extend([(1u64 << (7 * k)) - 1, 1 << (7 * k)]);
        }
        let mut rng = Rng::new(0x9e7_5eed);
        for _ in 0..4000 {
            let width = rng.range_u64(1..65) as u32;
            values.push(rng.next_u64() >> (64 - width));
        }
        for v in values {
            let mut e = Encoder::new();
            e.put_uvar(v);
            assert_eq!(e.finish(), reference_put_uvar(v), "{v}");
        }
    }

    #[test]
    fn string_and_bytes_round_trip() {
        let mut e = Encoder::new();
        e.put_str("héllo");
        e.put_bytes(&[1, 2, 3]);
        let b = e.finish();
        let mut c = Cursor::new(&b);
        assert_eq!(c.str().as_deref(), Some("héllo"));
        assert_eq!(c.bytes(), Some(&[1, 2, 3][..]));
    }

    #[test]
    fn seq_round_trips_and_an_impossible_count_never_reaches_the_element_decoder() {
        let mut e = Encoder::new();
        e.put_seq([7u64, 300, 0], |e, v| e.put_uvar(v));
        let b = e.finish();
        let got = Cursor::new(&b).seq("vals", Cursor::uvar).unwrap();
        assert_eq!(got, [7, 300, 0]);

        // Four elements claimed over three bytes: refused on the count alone.
        let mut calls = 0;
        let err = decode_whole(&[4, 1, 2, 3], |c| {
            c.seq("vals", |c| {
                calls += 1;
                c.uvar()
            })
        })
        .unwrap_err();
        assert!(err.0.contains("vals claims 4 entries"), "{err}");
        assert_eq!(calls, 0);

        let err =
            decode_whole(&[3, 1, 2, 3], |c| c.seq_capped("vals", 2, Cursor::uvar)).unwrap_err();
        assert!(err.0.contains("at most 2"), "{err}");
    }

    #[test]
    fn narrowing_reads_refuse_what_does_not_fit() {
        let mut e = Encoder::new();
        e.put_uvar((1 << 32) + 3);
        e.put_uvar(1 << 16);
        e.put_uvar(u32::MAX as u64);
        let b = e.finish();
        let mut c = Cursor::new(&b);
        assert_eq!(c.u32("rank"), None);
        let err = c.error();
        assert!(
            err.0.contains("rank 4294967299 does not fit in 32 bits"),
            "{err}"
        );
        assert_eq!(c.u16("code"), None);
        let err = c.error();
        assert!(
            err.0.contains("code 65536 does not fit in 16 bits"),
            "{err}"
        );
        assert_eq!(c.u32("rank"), Some(u32::MAX));
    }

    #[test]
    fn uvar_round_trip_random() {
        let mut rng = Rng::new(0x5eed_c0de);
        for _ in 0..4000 {
            // Bias toward varied magnitudes by masking to a random width.
            let width = rng.range_u64(1..65) as u32;
            let v = rng.next_u64() >> (64 - width);
            let mut e = Encoder::new();
            e.put_uvar(v);
            let b = e.finish();
            let mut c = Cursor::new(&b);
            assert_eq!(c.uvar(), Some(v));
            assert!(c.is_done());
        }
    }

    #[test]
    fn ivar_round_trip_random() {
        let mut rng = Rng::new(0x1234_5678);
        for _ in 0..4000 {
            let width = rng.range_u64(1..65) as u32;
            let v = (rng.next_u64() >> (64 - width)) as i64;
            let v = if rng.chance(0.5) { v.wrapping_neg() } else { v };
            let mut e = Encoder::new();
            e.put_ivar(v);
            let b = e.finish();
            assert_eq!(Cursor::new(&b).ivar(), Some(v));
        }
    }

    #[test]
    fn mixed_sequence_round_trip_random() {
        let mut rng = Rng::new(0xabcd);
        for _ in 0..256 {
            let n = rng.range_usize(0..50);
            let vals: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
            let mut e = Encoder::new();
            e.put_uvar(vals.len() as u64);
            for &v in &vals {
                e.put_ivar(v);
            }
            let b = e.finish();
            let mut c = Cursor::new(&b);
            let m = c.uvar().unwrap() as usize;
            let got: Vec<i64> = (0..m).map(|_| c.ivar().unwrap()).collect();
            assert_eq!(got, vals);
        }
    }
}
