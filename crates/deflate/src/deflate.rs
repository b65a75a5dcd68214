//! DEFLATE compression (RFC 1951): LZ77 tokens entropy-coded with canonical
//! Huffman codes, in blocks of at most [`BLOCK_TOKENS`] tokens. Each block
//! takes whichever of stored, fixed-Huffman and dynamic-Huffman encodings
//! its estimated size favours, with Huffman tables of its own.
//!
//! The hot path is allocation-free in steady state: LZ77 tokens stream out
//! of a reusable [`Lz77`] tokenizer straight into per-thread scratch (symbol
//! frequencies and a packed `u32` token buffer that holds one block), so
//! compressing neither materializes a `Vec<Token>` nor reallocates the
//! 384 KiB of hash-chain state.

use crate::bitio::{reverse_bits, BitWriter};
use crate::huffman::{canonical_codes, code_lengths};
use crate::lz77::{Lz77, Search, Token};
use crate::tables::*;
use std::cell::RefCell;

/// Compression effort: how hard the LZ77 stage searches for matches
/// ([`Search`]; fast is greedy, default and best are lazy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Level {
    Fast,
    #[default]
    Default,
    Best,
}

impl Level {
    /// The match-search limits. `Default` is zlib's level 5 with `good`
    /// and `lazy` halved: on CTT payloads that is ~18% faster for ~0.3%
    /// more bytes, nearly all of it from quartering the chain of a lazy
    /// probe. `Fast` is greedy over 8 links; `Best` is zlib's level 8 over
    /// half its chain.
    fn search(self) -> Search {
        let (good, lazy, nice, chain) = match self {
            Level::Fast => (4, 0, 32, 8),
            Level::Default => (4, 8, 32, 32),
            Level::Best => (32, 128, 258, 512),
        };
        Search {
            good,
            lazy,
            nice,
            chain,
        }
    }

    /// Stable lower-case name (CLI flag values, bench JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Level::Fast => "fast",
            Level::Default => "default",
            Level::Best => "best",
        }
    }

    /// Parse a [`Level::name`] back; `None` for unknown names.
    pub fn from_name(s: &str) -> Option<Level> {
        match s {
            "fast" => Some(Level::Fast),
            "default" => Some(Level::Default),
            "best" => Some(Level::Best),
            _ => None,
        }
    }

    /// All levels, in increasing effort order.
    pub const ALL: [Level; 3] = [Level::Fast, Level::Default, Level::Best];
}

/// Tokens per block. Each block builds its own Huffman tables, so a block
/// must hold enough tokens for that construction to stay negligible.
pub const BLOCK_TOKENS: usize = 1 << 16;

/// A token packed into 32 bits: bit 31 set ⇒ match with `len-3` in bits
/// 16..24 and `dist-1` in bits 0..15; clear ⇒ literal byte in bits 0..8.
const MATCH_FLAG: u32 = 1 << 31;

#[inline]
fn pack(t: Token) -> u32 {
    match t {
        Token::Literal(b) => b as u32,
        Token::Match { len, dist } => MATCH_FLAG | (((len - 3) as u32) << 16) | ((dist - 1) as u32),
    }
}

#[inline]
fn unpack(p: u32) -> Token {
    if p & MATCH_FLAG != 0 {
        Token::Match {
            len: ((p >> 16) & 0xFF) as u16 + 3,
            dist: (p & 0xFFFF) as u16 + 1,
        }
    } else {
        Token::Literal(p as u8)
    }
}

/// The block being gathered: its packed tokens (dynamic Huffman needs two
/// passes over them), its symbol frequencies, and the input bytes it covers.
struct Block {
    tokens: Vec<u32>,
    lit_freq: [u64; 286],
    dist_freq: [u64; 30],
    /// Total extra bits implied by the match length/distance codes seen —
    /// level-independent part of every entropy-coded block cost.
    extra_bits: u64,
    /// `data[start..end]` is what the tokens expand to.
    start: usize,
    end: usize,
}

impl Block {
    fn new() -> Self {
        Block {
            tokens: Vec::with_capacity(BLOCK_TOKENS),
            lit_freq: [0; 286],
            dist_freq: [0; 30],
            extra_bits: 0,
            start: 0,
            end: 0,
        }
    }

    /// Empty the block; the next one starts at input byte `at`.
    fn reset(&mut self, at: usize) {
        self.tokens.clear();
        self.lit_freq.fill(0);
        self.dist_freq.fill(0);
        self.extra_bits = 0;
        self.start = at;
        self.end = at;
    }

    #[inline]
    fn push(&mut self, t: Token) {
        match t {
            Token::Literal(b) => {
                self.lit_freq[b as usize] += 1;
                self.end += 1;
            }
            Token::Match { len, dist } => {
                let (lc, _) = length_code(len);
                self.lit_freq[257 + lc] += 1;
                let (dc, _) = dist_code(dist);
                self.dist_freq[dc] += 1;
                self.extra_bits += LEN_EXTRA[lc] as u64 + DIST_EXTRA[dc] as u64;
                self.end += len as usize;
            }
        }
        self.tokens.push(pack(t));
    }

    /// Write the block as whichever encoding costs fewest estimated bits —
    /// the costs follow from the frequency tables alone, O(alphabet) — and
    /// start the next one where this one ended.
    fn flush(&mut self, w: &mut BitWriter, data: &[u8], last: bool) {
        self.lit_freq[256] += 1; // end of block
        let dyn_lit_lens = code_lengths(&self.lit_freq, 15);
        let dyn_dist_lens = code_lengths(&self.dist_freq, 15);
        let (fixed_lit_lens, fixed_dist_lens) = (fixed_litlen_lens(), fixed_dist_lens());
        let fixed_cost = freq_cost(
            &self.lit_freq,
            &self.dist_freq,
            &fixed_lit_lens,
            &fixed_dist_lens,
        ) + self.extra_bits;
        let dyn_cost = freq_cost(
            &self.lit_freq,
            &self.dist_freq,
            &dyn_lit_lens,
            &dyn_dist_lens,
        ) + self.extra_bits
            + header_cost_estimate(&dyn_lit_lens, &dyn_dist_lens);
        let bytes = &data[self.start..self.end];
        let stored_cost = 8 * (bytes.len() as u64 + 5) + 8;

        if stored_cost <= fixed_cost && stored_cost <= dyn_cost {
            write_stored(w, bytes, last);
        } else if fixed_cost <= dyn_cost {
            w.write_bits(last as u32, 1); // BFINAL
            w.write_bits(1, 2); // BTYPE = fixed
            write_tokens(w, &self.tokens, &fixed_lit_lens, &fixed_dist_lens);
        } else {
            w.write_bits(last as u32, 1); // BFINAL
            w.write_bits(2, 2); // BTYPE = dynamic
            write_dynamic_header(w, &dyn_lit_lens, &dyn_dist_lens);
            write_tokens(w, &self.tokens, &dyn_lit_lens, &dyn_dist_lens);
        }
        self.reset(self.end);
    }
}

/// Per-thread reusable compression state: the LZ77 hash tables and the
/// block under construction.
struct Scratch {
    lz: Lz77,
    block: Block,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        lz: Lz77::new(),
        block: Block::new(),
    });
}

/// Compress `data` into a raw DEFLATE stream.
pub fn deflate(data: &[u8], level: Level) -> Vec<u8> {
    let name = match level {
        Level::Fast => "deflate_fast",
        Level::Default => "deflate_default",
        Level::Best => "deflate_best",
    };
    let _t = cypress_obs::trace_span("deflate", name).arg(data.len() as u64);
    SCRATCH.with(|s| {
        // A panic while the scratch is borrowed would poison nothing (no
        // locks), and `deflate` never re-enters itself.
        let Scratch { lz, block } = &mut *s.borrow_mut();
        block.reset(0);
        let mut w = BitWriter::new();
        // A full block is written when the next token arrives, so the last
        // block is never empty unless the input is.
        lz.tokenize_with(data, level.search(), |t| {
            if block.tokens.len() == BLOCK_TOKENS {
                block.flush(&mut w, data, false);
            }
            block.push(t);
        });
        block.flush(&mut w, data, true);
        w.finish()
    })
}

/// Stored blocks hold at most 65535 bytes each; only the last of the
/// final block's sets BFINAL.
fn write_stored(w: &mut BitWriter, data: &[u8], last: bool) {
    if data.is_empty() {
        w.write_bits(last as u32, 1);
        w.write_bits(0, 2);
        w.align_byte();
        w.write_bytes(&[0, 0, 0xFF, 0xFF]);
        return;
    }
    let mut chunks = data.chunks(65535).peekable();
    while let Some(chunk) = chunks.next() {
        let bfinal = last && chunks.peek().is_none();
        w.write_bits(bfinal as u32, 1);
        w.write_bits(0, 2); // BTYPE = stored
        w.align_byte();
        let len = chunk.len() as u16;
        w.write_bytes(&len.to_le_bytes());
        w.write_bytes(&(!len).to_le_bytes());
        w.write_bytes(chunk);
    }
}

/// Payload cost in bits (excluding match extra bits) of coding the given
/// symbol frequencies with the given code lengths.
fn freq_cost(lit_freq: &[u64], dist_freq: &[u64], lit_lens: &[u8], dist_lens: &[u8]) -> u64 {
    let lits: u64 = lit_freq
        .iter()
        .zip(lit_lens)
        .map(|(&f, &l)| f * l as u64)
        .sum();
    let dists: u64 = dist_freq
        .iter()
        .zip(dist_lens)
        .map(|(&f, &l)| f * l as u64)
        .sum();
    lits + dists
}

fn header_cost_estimate(lit_lens: &[u8], dist_lens: &[u8]) -> u64 {
    // 14 bits of counts + roughly 7 bits per transmitted code length.
    14 + 7 * (lit_lens.len() as u64 + dist_lens.len() as u64) / 2
}

/// Canonical codes for `lens`, each already bit-reversed into the order
/// [`BitWriter::write_bits`] packs: once per code, not once per symbol.
fn reversed_codes(lens: &[u8]) -> Vec<u32> {
    let mut codes = canonical_codes(lens);
    for (c, &l) in codes.iter_mut().zip(lens) {
        *c = reverse_bits(*c, l as u32);
    }
    codes
}

fn write_tokens(w: &mut BitWriter, tokens: &[u32], lit_lens: &[u8], dist_lens: &[u8]) {
    let lit_codes = reversed_codes(lit_lens);
    let dist_codes = reversed_codes(dist_lens);
    for &p in tokens {
        match unpack(p) {
            Token::Literal(b) => {
                w.write_bits(lit_codes[b as usize], lit_lens[b as usize] as u32);
            }
            Token::Match { len, dist } => {
                let (lc, lextra) = length_code(len);
                w.write_bits(lit_codes[257 + lc], lit_lens[257 + lc] as u32);
                if LEN_EXTRA[lc] > 0 {
                    w.write_bits(lextra, LEN_EXTRA[lc] as u32);
                }
                let (dc, dextra) = dist_code(dist);
                w.write_bits(dist_codes[dc], dist_lens[dc] as u32);
                if DIST_EXTRA[dc] > 0 {
                    w.write_bits(dextra, DIST_EXTRA[dc] as u32);
                }
            }
        }
    }
    w.write_bits(lit_codes[256], lit_lens[256] as u32);
}

/// Encode the dynamic block header: HLIT/HDIST/HCLEN and the code lengths
/// themselves, run-length coded with symbols 16/17/18 (RFC 1951 §3.2.7).
fn write_dynamic_header(w: &mut BitWriter, lit_lens: &[u8], dist_lens: &[u8]) {
    let hlit = {
        let mut n = 286;
        while n > 257 && lit_lens[n - 1] == 0 {
            n -= 1;
        }
        n
    };
    let hdist = {
        let mut n = 30;
        while n > 1 && dist_lens[n - 1] == 0 {
            n -= 1;
        }
        n
    };

    // RLE over the concatenated code lengths.
    let mut all: Vec<u8> = Vec::with_capacity(hlit + hdist);
    all.extend_from_slice(&lit_lens[..hlit]);
    all.extend_from_slice(&dist_lens[..hdist]);
    let rle = rle_code_lengths(&all);

    let mut clc_freq = vec![0u64; 19];
    for &(sym, _) in &rle {
        clc_freq[sym as usize] += 1;
    }
    let clc_lens = code_lengths(&clc_freq, 7);
    let clc_codes = reversed_codes(&clc_lens);

    let hclen = {
        let mut n = 19;
        while n > 4 && clc_lens[CLC_ORDER[n - 1]] == 0 {
            n -= 1;
        }
        n
    };

    w.write_bits((hlit - 257) as u32, 5);
    w.write_bits((hdist - 1) as u32, 5);
    w.write_bits((hclen - 4) as u32, 4);
    for &o in CLC_ORDER.iter().take(hclen) {
        w.write_bits(clc_lens[o] as u32, 3);
    }
    for &(sym, extra) in &rle {
        w.write_bits(clc_codes[sym as usize], clc_lens[sym as usize] as u32);
        match sym {
            16 => w.write_bits(extra, 2),
            17 => w.write_bits(extra, 3),
            18 => w.write_bits(extra, 7),
            _ => {}
        }
    }
}

/// Run-length encode code lengths into (symbol, extra-bits) pairs.
fn rle_code_lengths(lens: &[u8]) -> Vec<(u8, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < lens.len() {
        let v = lens[i];
        let mut run = 1;
        while i + run < lens.len() && lens[i + run] == v {
            run += 1;
        }
        if v == 0 {
            let mut rem = run;
            while rem >= 11 {
                let take = rem.min(138);
                out.push((18, (take - 11) as u32));
                rem -= take;
            }
            if rem >= 3 {
                out.push((17, (rem - 3) as u32));
                rem = 0;
            }
            for _ in 0..rem {
                out.push((0, 0));
            }
        } else {
            out.push((v, 0));
            let mut rem = run - 1;
            while rem >= 3 {
                let take = rem.min(6);
                out.push((16, (take - 3) as u32));
                rem -= take;
            }
            for _ in 0..rem {
                out.push((v, 0));
            }
        }
        i += run;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman::Alphabet;
    use crate::inflate::inflate_exact;

    #[test]
    fn rle_encodes_zero_runs() {
        let lens = vec![0u8; 20];
        let rle = rle_code_lengths(&lens);
        assert_eq!(rle, vec![(18, 9)]); // 20 zeros = code 18 with extra 9
    }

    #[test]
    fn rle_encodes_value_repeats() {
        let lens = [5u8; 8];
        let rle = rle_code_lengths(&lens);
        // 5, then repeat(16) x 7 → one 16 of 6 and one literal 5.
        assert_eq!(rle[0], (5, 0));
        assert_eq!(rle[1], (16, 3)); // repeat 6
        assert_eq!(rle[2], (5, 0));
    }

    #[test]
    fn token_packing_round_trips() {
        for b in 0..=255u8 {
            assert_eq!(unpack(pack(Token::Literal(b))), Token::Literal(b));
        }
        for (len, dist) in [(3u16, 1u16), (258, 32768), (100, 1234), (3, 32768)] {
            let t = Token::Match { len, dist };
            assert_eq!(unpack(pack(t)), t);
        }
    }

    #[test]
    fn deflate_then_inflate_text() {
        let data = b"It was the best of times, it was the worst of times, it was the age of wisdom, it was the age of foolishness".repeat(20);
        for level in Level::ALL {
            let c = deflate(&data, level);
            assert!(c.len() < data.len() / 2, "should compress text well");
            assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
        }
    }

    #[test]
    fn incompressible_data_falls_back_to_stored() {
        // Pseudo-random bytes.
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x & 0xFF) as u8
            })
            .collect();
        let c = deflate(&data, Level::Default);
        // Stored adds ~5 bytes per 64k chunk; never blow up.
        assert!(c.len() <= data.len() + 64);
        assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn empty_input() {
        let c = deflate(&[], Level::Default);
        assert_eq!(inflate_exact(&c, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn deflate_is_deterministic_per_level() {
        let data = b"deterministic deterministic deterministic!".repeat(50);
        for level in Level::ALL {
            assert_eq!(deflate(&data, level), deflate(&data, level));
        }
    }

    /// Inputs that between them take every block type and reach both ends
    /// of the length and distance alphabets: text (dynamic), a short string
    /// (fixed), noise (stored), 96 KiB of LCG-driven records with a small
    /// alphabet (matches out to the 32 KiB window), and a zero run (length
    /// 258 at distance 1).
    fn fixtures() -> Vec<Vec<u8>> {
        let text = b"It was the best of times, it was the worst of times, it was the age of wisdom, it was the age of foolishness".repeat(20);
        let short = b"abcabcabd".to_vec();
        let mut x = 0x2545_f491u32;
        let mut lcg = move || {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            x >> 16
        };
        let noise: Vec<u8> = (0..3000).map(|_| lcg() as u8).collect();
        let mut records = Vec::with_capacity(96 * 1024);
        for i in 0..12 * 1024u32 {
            let r = lcg();
            records.extend_from_slice(&[
                (i % 251) as u8,
                (i / 1024) as u8,
                (r & 0x0f) as u8,
                ((r >> 4) % 3) as u8,
                0x80 | (r >> 8 & 0x03) as u8,
                0,
                0,
                (i % 7) as u8,
            ]);
        }
        let zeros = vec![0u8; 5000];
        vec![text, short, noise, records, zeros]
    }

    /// The encoder may get faster but may not move a bit unless it says so:
    /// CRC-32 over the concatenated streams of every fixture, per level,
    /// captured when zlib's per-level match-search limits and multi-block
    /// output went in (`tests/ratio.rs` bounds what a re-capture may cost).
    #[test]
    fn fixture_streams_are_bit_identical_to_the_committed_crcs() {
        let want = [0x12b8_d616u32, 0x978a_e164, 0x1b59_98f4];
        for (level, want) in Level::ALL.into_iter().zip(want) {
            let mut crc = crate::Crc32::new();
            for data in fixtures() {
                let c = deflate(&data, level);
                assert_eq!(inflate_exact(&c, data.len()).unwrap(), data);
                crc.update(&c);
            }
            assert_eq!(
                crc.finish(),
                want,
                "{} stream changed: got {:#010x}",
                level.name(),
                crc.finish()
            );
        }
    }

    /// One final dynamic block of `tokens`, coded with Huffman codes built
    /// from their own frequencies; the bytes it expands to, by a bytewise
    /// copy; and its literal/length and distance code lengths.
    fn hand_block(tokens: &[Token]) -> (Vec<u8>, Vec<u8>, [Vec<u8>; 2]) {
        let (mut lit_freq, mut dist_freq) = ([0u64; 286], [0u64; 30]);
        let mut want = Vec::new();
        for &t in tokens {
            match t {
                Token::Literal(b) => {
                    lit_freq[b as usize] += 1;
                    want.push(b);
                }
                Token::Match { len, dist } => {
                    lit_freq[257 + length_code(len).0] += 1;
                    dist_freq[dist_code(dist).0] += 1;
                    for _ in 0..len {
                        want.push(want[want.len() - dist as usize]);
                    }
                }
            }
        }
        lit_freq[256] = 1;
        let lit_lens = code_lengths(&lit_freq, 15);
        let dist_lens = code_lengths(&dist_freq, 15);
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // BFINAL
        w.write_bits(2, 2); // dynamic
        write_dynamic_header(&mut w, &lit_lens, &dist_lens);
        let packed: Vec<u32> = tokens.iter().map(|&t| pack(t)).collect();
        write_tokens(&mut w, &packed, &lit_lens, &dist_lens);
        (w.finish(), want, [lit_lens, dist_lens])
    }

    /// Matches at distances 1 to 9 and 16 overlap their source (the fill,
    /// the bytewise copy and the 8-byte chunks), at lengths on both sides
    /// of a chunk and up to 258: once where the inflate loop's fast part
    /// copies them, with output to spare behind, and once at the end of a
    /// block, where the careful part does.
    #[test]
    fn overlapping_and_longest_matches_round_trip() {
        let lead: Vec<Token> = (0..40u8)
            .map(|i| Token::Literal(i.wrapping_mul(59)))
            .collect();
        let mut matches = Vec::new();
        for dist in (1..=9).chain([16]) {
            for len in [3, 4, 7, 8, 9, 15, 16, 17, 100, 255, 256, 257, 258] {
                matches.push(Token::Match { len, dist });
                matches.push(Token::Literal(len as u8 ^ dist as u8));
            }
        }
        let tail: Vec<Token> = (0..300u32).map(|i| Token::Literal((i * 7) as u8)).collect();
        for tokens in [
            [&lead[..], &matches, &tail].concat(),
            [&lead[..], &matches].concat(),
        ] {
            let (z, want, _) = hand_block(&tokens);
            assert_eq!(inflate_exact(&z, want.len()).unwrap(), want);
        }
    }

    /// Fibonacci-weighted literals and distances get 15-bit codes, past the
    /// 11- and 10-bit tables: the inflate loop's fast part misses on them
    /// and hands them to the canonical walk.
    #[test]
    fn fifteen_bit_codes_take_the_canonical_walk() {
        let mut fib = vec![1u64, 1];
        while fib.len() < 20 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        let mut rng = cypress_obs::rng::Rng::new(0xf1b0);
        let mut shuffled = |mut tokens: Vec<Token>| {
            for i in (1..tokens.len()).rev() {
                tokens.swap(i, rng.range_usize(0..i + 1));
            }
            tokens
        };
        // The end of block is the first weight 1, the first literal the
        // second.
        let literals = shuffled(
            (1..20)
                .flat_map(|i| std::iter::repeat_n(Token::Literal(b'a' + i as u8), fib[i] as usize))
                .collect(),
        );
        let matches = shuffled(
            (0..18)
                .flat_map(|code| {
                    let shortest = Token::Match {
                        len: 3,
                        dist: DIST_BASE[code],
                    };
                    std::iter::repeat_n(shortest, fib[code] as usize)
                })
                .collect(),
        );
        let (z, want, [lit_lens, dist_lens]) = hand_block(&[literals, matches].concat());
        let longest = |lens: &[u8]| lens.iter().copied().max().unwrap_or(0) as u32;
        assert_eq!(longest(&lit_lens), 15);
        assert_eq!(longest(&dist_lens), 15);
        assert!(longest(&lit_lens) > Alphabet::LitLen.table_bits());
        assert!(longest(&dist_lens) > Alphabet::Dist.table_bits());
        assert_eq!(inflate_exact(&z, want.len()).unwrap(), want);
    }

    #[test]
    fn level_names_round_trip() {
        for level in Level::ALL {
            assert_eq!(Level::from_name(level.name()), Some(level));
        }
        assert_eq!(Level::from_name("bogus"), None);
        assert_eq!(Level::default(), Level::Default);
    }
}
