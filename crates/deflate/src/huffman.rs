//! Canonical Huffman codes: length-limited construction (package-merge) and
//! canonical decoding, per RFC 1951 §3.2.2.

use crate::bitio::{eof, reverse_bits, BitError, BitReader};

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

/// Index width of the decode table: codes up to this long take one lookup.
const TABLE_BITS: usize = 10;

/// Canonical Huffman decoder: one table lookup on the next
/// `min(max code length, TABLE_BITS)` input bits, and the canonical walk over
/// the same peeked bits for the rare longer code.
pub struct Decoder {
    /// count[l] = number of codes of length l.
    counts: Vec<u32>,
    /// Symbols sorted by (length, symbol) — canonical order.
    symbols: Vec<u16>,
    /// Indexed by the next input bits (LSB first): `symbol << 4 | length`
    /// for the code those bits start with, or 0 when no code that short does.
    table: Vec<u16>,
}

impl Decoder {
    /// Build from code lengths. Returns `None` for an over-subscribed code;
    /// an incomplete code is accepted, and its unused bit patterns fail to
    /// decode.
    pub fn new(lens: &[u8]) -> Option<Decoder> {
        let max = lens.iter().copied().max().unwrap_or(0) as usize;
        let mut counts = vec![0u32; max + 1];
        for &l in lens {
            if l > 0 {
                counts[l as usize] += 1;
            }
        }
        // Kraft check.
        let mut left = 1i64;
        for &c in counts.iter().skip(1) {
            left <<= 1;
            left -= c as i64;
            if left < 0 {
                return None; // over-subscribed
            }
        }
        let mut symbols = Vec::new();
        for bits in 1..=max {
            for (sym, &l) in lens.iter().enumerate() {
                if l as usize == bits {
                    symbols.push(sym as u16);
                }
            }
        }
        // Each code of length l ≤ width owns every table index whose low l
        // bits are the code, bit-reversed into stream order.
        let width = max.min(TABLE_BITS) as u32;
        let mut table = vec![0u16; 1 << width];
        for (sym, (&l, &code)) in lens.iter().zip(&canonical_codes(lens)).enumerate() {
            let l = l as u32;
            if l == 0 || l > width {
                continue;
            }
            let entry = (sym as u16) << 4 | l as u16;
            for slot in table
                .iter_mut()
                .skip(reverse_bits(code, l) as usize)
                .step_by(1 << l)
            {
                *slot = entry;
            }
        }
        Some(Decoder {
            counts,
            symbols,
            table,
        })
    }

    /// Decode one symbol from the bit reader.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, BitError> {
        let (bits, avail) = r.peek();
        let entry = self.table[bits as usize & (self.table.len() - 1)];
        let len = (entry & 0xF) as u32;
        if len != 0 && len <= avail {
            r.consume(len);
            return Ok(entry >> 4);
        }
        self.decode_long(r, bits, avail)
    }

    /// The canonical walk (RFC 1951 §3.2.2) over peeked bits: codes longer
    /// than the table, and input that ends inside a code or on a pattern an
    /// incomplete code leaves unused.
    #[cold]
    fn decode_long(&self, r: &mut BitReader<'_>, bits: u64, avail: u32) -> Result<u16, BitError> {
        let mut code = 0i64;
        let mut first = 0i64;
        let mut index = 0i64;
        for len in 1..self.counts.len() {
            if len as u32 > avail {
                return Err(eof());
            }
            code |= (bits >> (len - 1) & 1) as i64;
            let count = self.counts[len] as i64;
            if code - first < count {
                r.consume(len as u32);
                return Ok(self.symbols[(index + (code - first)) as usize]);
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
        let dec = Decoder::new(&lens).unwrap();
        let msg: Vec<u16> = vec![0, 1, 2, 8, 3, 0, 0, 5, 7, 2];
        let mut w = BitWriter::new();
        for &s in &msg {
            w.write_code(codes[s as usize], lens[s as usize] as u32);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(dec.decode(&mut r).unwrap(), s);
        }
    }

    /// The table is a cache of the canonical walk: on every input of zero,
    /// one and two bytes, for complete, incomplete and long codes, both give
    /// the same symbol and consume the same bits, or both fail.
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
        for lens in cases {
            let dec = Decoder::new(&lens).unwrap();
            for nbytes in 0..=2 {
                for pattern in 0..1u32 << (8 * nbytes) {
                    let input = &pattern.to_le_bytes()[..nbytes];
                    let (mut fast, mut slow) = (BitReader::new(input), BitReader::new(input));
                    let got = dec.decode(&mut fast);
                    let (bits, avail) = slow.peek();
                    let want = dec.decode_long(&mut slow, bits, avail);
                    match (got, want) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "lens {lens:?} input {input:?}");
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
        assert!(Decoder::new(&[1, 1, 1]).is_none());
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
            let dec = Decoder::new(&lens).unwrap();
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
                assert_eq!(dec.decode(&mut r).unwrap(), s);
            }
        }
    }
}
