//! Canonical Huffman codes: length-limited construction (package-merge) and
//! canonical decoding, per RFC 1951 §3.2.2.
//!
//! A [`Decoder`] maps the next input bits to a fused [`Entry`] (code
//! length, extra bits, kind, value), so the inflate loop learns all it needs
//! of a symbol from one `u32`: in an 11-bit table for literal/length codes,
//! a 10-bit one for distances, and the canonical walk past those.

use crate::bitio::{eof, BitError, BitReader};
use crate::tables::{DIST_BASE, DIST_EXTRA, LEN_BASE, LEN_EXTRA};

/// Compute length-limited Huffman code lengths for the given symbol
/// frequencies via the package-merge algorithm. Symbols with zero frequency
/// get length 0. `max_len` is 15 for literal/distance codes and 7 for the
/// code-length code.
pub fn code_lengths(freqs: &[u64], max_len: u32) -> Vec<u8> {
    let n = freqs.len();
    let mut active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    let mut lens = vec![0u8; n];
    match active.len() {
        0 => return lens,
        1 => {
            // DEFLATE requires at least a 1-bit code for a lone symbol.
            lens[active[0]] = 1;
            return lens;
        }
        _ => {}
    }
    assert!(
        (active.len() as u64) <= (1u64 << max_len),
        "too many symbols for the length limit"
    );

    // Package-merge over counts instead of coin sets. Row `r` merges the
    // symbols (by weight, a symbol first on ties) with the pairwise
    // packages of row `r - 1`; `is_leaf` remembers which entries of each
    // row were symbols. A prefix of a row holds a prefix of the sorted
    // symbols and a prefix of the packages, and the first `p` packages
    // are the first `2p` entries of the row before: so the code lengths
    // follow from counting the symbols in ever shorter prefixes.
    active.sort_by_key(|&i| freqs[i]);
    let m = active.len();
    let mut is_leaf: Vec<Vec<bool>> = Vec::with_capacity(max_len as usize);
    let mut row: Vec<u64> = active.iter().map(|&i| freqs[i]).collect();
    is_leaf.push(vec![true; m]);
    for _ in 1..max_len {
        let packages: Vec<u64> = row.chunks_exact(2).map(|p| p[0] + p[1]).collect();
        let mut next = Vec::with_capacity(m + packages.len());
        let mut leaf = Vec::with_capacity(m + packages.len());
        let (mut a, mut b) = (0, 0);
        while a < m || b < packages.len() {
            let take_leaf = b == packages.len() || (a < m && freqs[active[a]] <= packages[b]);
            if take_leaf {
                next.push(freqs[active[a]]);
                a += 1;
            } else {
                next.push(packages[b]);
                b += 1;
            }
            leaf.push(take_leaf);
        }
        row = next;
        is_leaf.push(leaf);
    }
    // Take the first 2·(m−1) entries of the last row; each appearance of a
    // symbol in them, through packages, adds one to its code length.
    let mut take = 2 * (m - 1);
    for leaf in is_leaf.iter().rev() {
        let leaves = leaf[..take].iter().filter(|&&l| l).count();
        for &s in &active[..leaves] {
            lens[s] += 1;
        }
        take = 2 * (take - leaves);
    }
    lens
}

/// Assign canonical codes from code lengths (RFC 1951 §3.2.2). Returns codes
/// aligned with `lens` (symbols with length 0 get code 0).
pub fn canonical_codes(lens: &[u8]) -> Vec<u32> {
    let max = lens.iter().copied().max().unwrap_or(0) as usize;
    let mut bl_count = vec![0u32; max + 1];
    for &l in lens {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    let mut next_code = vec![0u32; max + 2];
    let mut code = 0u32;
    for bits in 1..=max {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    lens.iter()
        .map(|&l| {
            if l == 0 {
                0
            } else {
                let c = next_code[l as usize];
                next_code[l as usize] += 1;
                c
            }
        })
        .collect()
}

/// What a code's symbols mean, which [`Decoder`] fuses into its entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alphabet {
    /// Bytes, end of block, length bases; 286 and 287 are bad. Symbols
    /// below 256 stand for themselves, as the code-length code's do.
    LitLen,
    /// Distance bases; 30 and 31 are bad.
    Dist,
}

impl Alphabet {
    /// Index width of the decode table: codes up to this long take one
    /// lookup, longer ones the canonical walk.
    pub const fn table_bits(self) -> u32 {
        match self {
            Alphabet::LitLen => 11,
            Alphabet::Dist => 10,
        }
    }

    fn entry(self, sym: usize) -> Entry {
        let (kind, extra, value) = match (self, sym) {
            (Alphabet::LitLen, 0..=255) => (Entry::LITERAL, 0, sym),
            (Alphabet::LitLen, 256) => (Entry::END, 0, 0),
            (Alphabet::LitLen, 257..=285) => (
                Entry::BASE,
                LEN_EXTRA[sym - 257],
                LEN_BASE[sym - 257] as usize,
            ),
            (Alphabet::Dist, 0..=29) => (Entry::BASE, DIST_EXTRA[sym], DIST_BASE[sym] as usize),
            _ => (Entry::BAD, 0, sym),
        };
        Entry((value as u32) << 16 | kind << 8 | (extra as u32) << 4)
    }
}

/// A symbol fused with what it means, in one `u32`: bits 0–3 hold the code
/// length, 4–7 the count of extra bits after the code, 8–9 the kind and
/// 16–31 the value: the byte or symbol of a `LITERAL`, the length or
/// distance a `BASE` adds its extra bits to, or the symbol of a `BAD` one.
/// A table slot that no code of the table's width starts holds 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry(u32);

impl Entry {
    pub const BAD: u32 = 0;
    pub const LITERAL: u32 = 1;
    pub const BASE: u32 = 2;
    pub const END: u32 = 3;

    pub fn code_len(self) -> u32 {
        self.0 & 15
    }

    pub fn extra(self) -> u32 {
        self.0 >> 4 & 15
    }

    pub fn kind(self) -> u32 {
        self.0 >> 8 & 3
    }

    pub fn value(self) -> usize {
        (self.0 >> 16) as usize
    }
}

/// Canonical Huffman decoder: one lookup of fused [`Entry`]s on the next
/// `min(max code length, table_bits)` input bits, and the canonical walk
/// over the same peeked bits for the rare longer code.
pub struct Decoder {
    /// Indexed by the next input bits (LSB first): the entry of the code
    /// they start with, or 0 when no code that short does.
    table: Vec<Entry>,
    /// counts[l] = number of codes of length l ≤ max.
    counts: [u16; 16],
    max: u32,
    /// The entries in canonical order (by length, then symbol).
    sorted: Vec<Entry>,
}

impl Decoder {
    /// Build from code lengths in one pass over them: a count per length,
    /// then a counting sort into canonical order, from which the table is
    /// filled code by code. Returns `None` for an over-subscribed code or a
    /// length past 15; an incomplete code is accepted, and its unused bit
    /// patterns fail to decode.
    pub fn new(lens: &[u8], alphabet: Alphabet) -> Option<Decoder> {
        let mut counts = [0u16; 16];
        for &l in lens {
            *counts.get_mut(l as usize)? += 1;
        }
        counts[0] = 0;
        // Kraft check, and where each length's codes start in canonical
        // order.
        let mut left = 1i32;
        let mut starts = [0usize; 16];
        let mut total = 0;
        for l in 1..16 {
            left = (left << 1) - counts[l] as i32;
            if left < 0 {
                return None; // over-subscribed
            }
            starts[l] = total;
            total += counts[l] as usize;
        }
        let mut sorted = vec![Entry(0); total];
        for (sym, &l) in lens.iter().enumerate() {
            if l != 0 {
                let at = &mut starts[l as usize];
                sorted[*at] = Entry(alphabet.entry(sym).0 | l as u32);
                *at += 1;
            }
        }
        let max = (1..16u32)
            .rev()
            .find(|&l| counts[l as usize] != 0)
            .unwrap_or(0);
        // Canonical codes count up within a length and double from one
        // length to the next. Each code of length l ≤ width owns every
        // table index whose low l bits are the code, bit-reversed into
        // stream order.
        let width = max.min(alphabet.table_bits());
        let mut table = vec![Entry(0); 1 << width];
        let mut code = 0u32;
        let mut next = sorted.iter();
        for len in 1..=width {
            for &entry in next.by_ref().take(counts[len as usize] as usize) {
                let at = (code.reverse_bits() >> (32 - len)) as usize;
                for slot in table[at..].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
                code += 1;
            }
            code <<= 1;
        }
        Some(Decoder {
            table,
            counts,
            max,
            sorted,
        })
    }

    /// The table entry for the next input bits (LSB first).
    #[inline]
    pub(crate) fn lookup(&self, bits: u64) -> Entry {
        self.table[bits as usize & (self.table.len() - 1)]
    }

    /// Decode one symbol from the bit reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<Entry, BitError> {
        let (bits, avail) = r.peek();
        let mut entry = self.lookup(bits);
        if entry.code_len() == 0 || entry.code_len() > avail {
            entry = self.decode_long(bits, avail)?;
        }
        r.consume(entry.code_len());
        Ok(entry)
    }

    /// The canonical walk (RFC 1951 §3.2.2) over peeked bits: codes longer
    /// than the table, and input that ends inside a code or on a pattern an
    /// incomplete code leaves unused.
    #[cold]
    fn decode_long(&self, bits: u64, avail: u32) -> Result<Entry, BitError> {
        let mut code = 0i32;
        let mut first = 0i32;
        let mut index = 0i32;
        for len in 1..=self.max {
            if len > avail {
                return Err(eof());
            }
            code |= (bits >> (len - 1) & 1) as i32;
            let count = self.counts[len as usize] as i32;
            if code - first < count {
                return Ok(self.sorted[(index + (code - first)) as usize]);
            }
            index += count;
            first = (first + count) << 1;
            code <<= 1;
        }
        Err(BitError("invalid Huffman code".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitio::BitWriter;
    use cypress_obs::rng::Rng;

    #[test]
    fn lengths_respect_limit_and_kraft() {
        let freqs: Vec<u64> = (1..=40).map(|i| i * i).collect();
        for limit in [7u32, 15] {
            let lens = code_lengths(&freqs, limit);
            assert!(lens.iter().all(|&l| l as u32 <= limit));
            let kraft: f64 = lens
                .iter()
                .filter(|&&l| l > 0)
                .map(|&l| 2f64.powi(-(l as i32)))
                .sum();
            assert!(kraft <= 1.0 + 1e-12, "kraft {kraft}");
        }
    }

    /// Package-merge as first written: every coin carries its symbol set,
    /// and a symbol's length is how many of the taken coins hold it.
    fn coin_set_lengths(freqs: &[u64], max_len: u32) -> Vec<u8> {
        let mut base: Vec<(u64, Vec<usize>)> = (0..freqs.len())
            .filter(|&i| freqs[i] > 0)
            .map(|i| (freqs[i], vec![i]))
            .collect();
        base.sort_by_key(|c| c.0);
        let mut prev: Vec<(u64, Vec<usize>)> = Vec::new();
        for _ in 0..max_len {
            let packages: Vec<(u64, Vec<usize>)> = prev
                .chunks_exact(2)
                .map(|p| (p[0].0 + p[1].0, [p[0].1.clone(), p[1].1.clone()].concat()))
                .collect();
            let (mut a, mut b) = (0, 0);
            prev = Vec::new();
            while a < base.len() || b < packages.len() {
                if b == packages.len() || (a < base.len() && base[a].0 <= packages[b].0) {
                    prev.push(base[a].clone());
                    a += 1;
                } else {
                    prev.push(packages[b].clone());
                    b += 1;
                }
            }
        }
        let mut lens = vec![0u8; freqs.len()];
        for (_, syms) in prev.iter().take(2 * (base.len() - 1)) {
            for &s in syms {
                lens[s] += 1;
            }
        }
        lens
    }

    /// Counting symbols through prefixes gives the coin sets' lengths on
    /// every alphabet size, skew and limit the encoder uses.
    #[test]
    fn counted_package_merge_equals_coin_sets() {
        let mut rng = Rng::new(0xc01d);
        for round in 0..300 {
            let nsyms = [19, 30, 286][round % 3];
            let limit = if nsyms == 19 { 7 } else { 15 };
            let freqs: Vec<u64> = (0..nsyms)
                .map(|_| match rng.range_u64(0..4) {
                    0 => 0,
                    1 => 1 << rng.range_u64(0..30),
                    _ => rng.range_u64(1..1000),
                })
                .collect();
            if freqs.iter().filter(|&&f| f > 0).count() < 2 {
                continue;
            }
            assert_eq!(
                code_lengths(&freqs, limit),
                coin_set_lengths(&freqs, limit),
                "freqs {freqs:?}"
            );
        }
    }

    #[test]
    fn frequent_symbols_get_short_codes() {
        let lens = code_lengths(&[1000, 1, 1, 1], 15);
        assert!(lens[0] < lens[1]);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lens = code_lengths(&[0, 42, 0], 15);
        assert_eq!(lens, vec![0, 1, 0]);
    }

    #[test]
    fn canonical_assignment_rfc_example() {
        // RFC 1951 example: lengths (3,3,3,3,3,2,4,4) → codes.
        let lens = [3u8, 3, 3, 3, 3, 2, 4, 4];
        let codes = canonical_codes(&lens);
        assert_eq!(
            codes,
            vec![0b010, 0b011, 0b100, 0b101, 0b110, 0b00, 0b1110, 0b1111]
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let freqs: Vec<u64> = vec![50, 20, 10, 5, 5, 5, 3, 1, 1];
        let lens = code_lengths(&freqs, 15);
        let codes = canonical_codes(&lens);
        let dec = Decoder::new(&lens, Alphabet::LitLen).unwrap();
        let msg: Vec<u16> = vec![0, 1, 2, 8, 3, 0, 0, 5, 7, 2];
        let mut w = BitWriter::new();
        for &s in &msg {
            w.write_code(codes[s as usize], lens[s as usize] as u32);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode(&mut r).unwrap().value(), s as usize);
        }
    }

    /// The table is a cache of the canonical walk: on every input of zero,
    /// one and two bytes, for complete, incomplete and long codes of every
    /// alphabet, both give the same entry and consume the same bits, or both
    /// fail.
    #[test]
    fn table_lookup_equals_the_canonical_walk() {
        let mut rng = Rng::new(0x7ab1e);
        let fixed = crate::tables::fixed_litlen_lens();
        let mut cases = vec![vec![1u8, 2, 3, 3], vec![2, 2, 2], vec![0; 4], fixed];
        for _ in 0..16 {
            let nsyms = rng.range_usize(2..60);
            let freqs: Vec<u64> = (0..nsyms).map(|_| 1 << rng.range_u64(0..20)).collect();
            let mut lens = code_lengths(&freqs, 15);
            // Drop one symbol half the time: an incomplete code.
            if rng.range_u64(0..2) == 0 {
                lens[rng.range_usize(0..nsyms)] = 0;
            }
            cases.push(lens);
        }
        let alphabets = [Alphabet::LitLen, Alphabet::Dist];
        for (lens, alphabet) in cases.iter().flat_map(|l| alphabets.map(|a| (l, a))) {
            let dec = Decoder::new(lens, alphabet).unwrap();
            for nbytes in 0..=2 {
                for pattern in 0..1u32 << (8 * nbytes) {
                    let input = &pattern.to_le_bytes()[..nbytes];
                    let (mut fast, mut slow) = (BitReader::new(input), BitReader::new(input));
                    let got = dec.decode(&mut fast);
                    let (bits, avail) = slow.peek();
                    let want = dec.decode_long(bits, avail);
                    match (got, want) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "lens {lens:?} input {input:?}");
                            slow.consume(b.code_len());
                            assert_eq!(fast.peek(), slow.peek(), "lens {lens:?} input {input:?}");
                        }
                        (Err(_), Err(_)) => {}
                        (a, b) => panic!("lens {lens:?} input {input:?}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn oversubscribed_lengths_rejected() {
        assert!(Decoder::new(&[1, 1, 1], Alphabet::LitLen).is_none());
        assert!(Decoder::new(&[1, 16], Alphabet::LitLen).is_none());
    }

    #[test]
    fn round_trip_random_freqs() {
        let mut rng = Rng::new(0x48ff);
        for _ in 0..256 {
            let nsyms = rng.range_usize(2..60);
            let freqs: Vec<u64> = (0..nsyms).map(|_| rng.range_u64(0..1000)).collect();
            let active: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
            if active.len() < 2 {
                continue;
            }
            let lens = code_lengths(&freqs, 15);
            let codes = canonical_codes(&lens);
            let dec = Decoder::new(&lens, Alphabet::LitLen).unwrap();
            let msg_len = rng.range_usize(1..200);
            let msg: Vec<u16> = (0..msg_len)
                .map(|_| active[rng.range_usize(0..active.len())] as u16)
                .collect();
            let mut w = BitWriter::new();
            for &s in &msg {
                assert!(lens[s as usize] > 0);
                w.write_code(codes[s as usize], lens[s as usize] as u32);
            }
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            for &s in &msg {
                assert_eq!(dec.decode(&mut r).unwrap().value(), s as usize);
            }
        }
    }
}
