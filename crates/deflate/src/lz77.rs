//! LZ77 matching with hash chains (32 KiB window, matches 3..=258), the
//! front end of DEFLATE compression, shaped like zlib's `deflate_slow` and
//! `deflate_fast`: every position is searched at most once, and a [`Search`]
//! bounds how hard.
//!
//! The tokenizer is a reusable object ([`Lz77`]): the 64 K-entry hash head
//! and 32 K-entry chain tables persist across calls (a `memset` instead of
//! a fresh allocation per input), tokens stream out through a
//! caller-supplied sink instead of materializing a `Vec<Token>`, and match
//! extension compares eight bytes at a time.

pub const WINDOW_SIZE: usize = 32 * 1024;
pub const MIN_MATCH: usize = 3;
pub const MAX_MATCH: usize = 258;

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Token {
    Literal(u8),
    /// Back-reference: `dist` bytes back, `len` bytes long.
    Match {
        len: u16,
        dist: u16,
    },
}

const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Empty-slot sentinel in the hash tables (positions are stored as `u32`).
const NIL: u32 = u32::MAX;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = (data[i] as u32) | ((data[i + 1] as u32) << 8) | ((data[i + 2] as u32) << 16);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max_len`, compared a word at a time. Requires `b + max_len <= data.len()`
/// and `a < b`.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max_len: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max_len {
        let x = u64::from_le_bytes(data[a + l..a + l + 8].try_into().unwrap());
        let y = u64::from_le_bytes(data[b + l..b + l + 8].try_into().unwrap());
        let diff = x ^ y;
        if diff != 0 {
            return l + (diff.trailing_zeros() >> 3) as usize;
        }
        l += 8;
    }
    while l < max_len && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// How hard one compression level searches: zlib's `configuration_table`
/// (deflate.c), under its names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Search {
    /// Walk only a quarter of the chain when the match held back for the
    /// lazy probe is already this long.
    pub good: usize,
    /// Hold a match shorter than this back one position and take the next
    /// position's match instead if it is longer (lazy matching); 0 is greedy.
    pub lazy: usize,
    /// Stop walking the chain at a match this long.
    pub nice: usize,
    /// Most chain links one search follows.
    pub chain: usize,
}

/// Reusable hash-chain tokenizer state. Construct once (256 + 128 KiB)
/// and call [`Lz77::tokenize_with`] per input; the tables are wiped with a
/// fill, not reallocated.
pub struct Lz77 {
    /// `head[h]` = most recent position with hash `h`.
    head: Vec<u32>,
    /// `prev[i % W]` = previous position in `i`'s chain.
    prev: Vec<u32>,
}

impl Default for Lz77 {
    fn default() -> Self {
        Self::new()
    }
}

impl Lz77 {
    pub fn new() -> Self {
        Lz77 {
            head: vec![NIL; HASH_SIZE],
            prev: vec![NIL; WINDOW_SIZE],
        }
    }

    /// Chain position `i` in and return the chain it joined (its most
    /// recent earlier position with the same hash, or [`NIL`]). Positions
    /// with fewer than [`MIN_MATCH`] bytes left start no match and are not
    /// chained.
    #[inline]
    fn insert(&mut self, data: &[u8], i: usize) -> u32 {
        if i + MIN_MATCH > data.len() {
            return NIL;
        }
        let h = hash3(data, i);
        let head = self.head[h];
        self.prev[i % WINDOW_SIZE] = head;
        self.head[h] = i as u32;
        head
    }

    /// zlib's `longest_match`: walk the chain from `cand` for a match at `i`
    /// longer than `best_len`, following at most `chain` links and stopping
    /// at `nice`. Returns `(best_len, 0)` when there is none.
    ///
    /// Positions at least [`WINDOW_SIZE`] back end the walk, so every link
    /// followed was written by the insert of the position it belongs to,
    /// and links only go backwards.
    fn longest(
        &self,
        data: &[u8],
        i: usize,
        mut cand: u32,
        mut best_len: usize,
        mut chain: usize,
        nice: usize,
    ) -> (usize, usize) {
        let max_len = MAX_MATCH.min(data.len() - i);
        if best_len >= max_len {
            return (best_len, 0);
        }
        let nice = nice.min(max_len);
        let limit = i.saturating_sub(WINDOW_SIZE - 1);
        let mut best_dist = 0;
        while chain > 0 && cand != NIL && cand as usize >= limit {
            chain -= 1;
            let c = cand as usize;
            // Cheap reject: a longer match must agree on the byte one past
            // the current best before a full extension is worth doing.
            if data[c + best_len] == data[i + best_len] {
                let l = match_len(data, c, i, max_len);
                if l > best_len {
                    best_len = l;
                    best_dist = i - c;
                    if l >= nice {
                        break;
                    }
                }
            }
            cand = self.prev[c % WINDOW_SIZE];
        }
        (best_len, best_dist)
    }

    /// Tokenize `data`, streaming each token into `emit`: greedy when
    /// `search.lazy` is 0 (zlib's `deflate_fast`), else one-step lazy
    /// (`deflate_slow`).
    ///
    /// The hash state is wiped at entry, so repeated calls on one `Lz77` are
    /// independent; only the allocations are reused.
    pub fn tokenize_with<F: FnMut(Token)>(&mut self, data: &[u8], search: Search, emit: F) {
        assert!(
            data.len() < NIL as usize,
            "input too large for u32 positions"
        );
        self.head.fill(NIL);
        self.prev.fill(NIL);
        if search.lazy == 0 {
            self.greedy(data, search, emit);
        } else {
            self.lazy(data, search, emit);
        }
    }

    fn greedy<F: FnMut(Token)>(&mut self, data: &[u8], s: Search, mut emit: F) {
        let mut i = 0;
        while i < data.len() {
            let head = self.insert(data, i);
            let (len, dist) = self.longest(data, i, head, MIN_MATCH - 1, s.chain, s.nice);
            if len >= MIN_MATCH {
                emit(match_token(len, dist));
                for k in i + 1..i + len {
                    self.insert(data, k);
                }
                i += len;
            } else {
                emit(Token::Literal(data[i]));
                i += 1;
            }
        }
    }

    /// Each position is searched once: the match found at `i - 1` is held
    /// back (`held`) while `i` is searched for a longer one, and emitted as
    /// a match if none turns up, as a literal otherwise.
    fn lazy<F: FnMut(Token)>(&mut self, data: &[u8], s: Search, mut emit: F) {
        // The match found at `i - 1` (length < MIN_MATCH: none), and whether
        // `data[i - 1]` still awaits a token.
        let (mut prev_len, mut prev_dist, mut held) = (MIN_MATCH - 1, 0, false);
        let mut i = 0;
        while i < data.len() {
            let head = self.insert(data, i);
            let (mut len, mut dist) = (MIN_MATCH - 1, 0);
            if prev_len < s.lazy {
                let chain = if prev_len >= s.good {
                    s.chain >> 2
                } else {
                    s.chain
                };
                (len, dist) = self.longest(data, i, head, prev_len, chain, s.nice);
                if dist == 0 {
                    len = MIN_MATCH - 1;
                }
            }
            if prev_len >= MIN_MATCH && len <= prev_len {
                emit(match_token(prev_len, prev_dist));
                // `i - 1` and `i` are chained already.
                for k in i + 1..i - 1 + prev_len {
                    self.insert(data, k);
                }
                i += prev_len - 1;
                (prev_len, held) = (MIN_MATCH - 1, false);
            } else {
                if held {
                    emit(Token::Literal(data[i - 1]));
                }
                (prev_len, prev_dist, held) = (len, dist, true);
                i += 1;
            }
        }
        if held {
            emit(Token::Literal(data[i - 1]));
        }
    }
}

#[inline]
fn match_token(len: usize, dist: usize) -> Token {
    Token::Match {
        len: len as u16,
        dist: dist as u16,
    }
}

/// Tokenize into a materialized vector (test/bench convenience; the
/// compressor proper streams through [`Lz77::tokenize_with`]).
pub fn tokenize(data: &[u8], search: Search) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(data.len() / 2 + 16);
    Lz77::new().tokenize_with(data, search, |t| tokens.push(t));
    tokens
}

/// Expand tokens back into bytes (the LZ77 half of inflate; also the test
/// oracle for `tokenize`).
pub fn expand(tokens: &[Token]) -> Vec<u8> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let start = out.len() - dist as usize;
                for k in 0..len as usize {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_obs::rng::Rng;

    /// Lazy matching over `chain` links (zlib's level-6 limits otherwise).
    fn lazy(chain: usize) -> Search {
        Search {
            good: 8,
            lazy: 16,
            nice: 128,
            chain,
        }
    }

    #[test]
    fn repetitive_input_produces_matches() {
        let data = b"abcabcabcabcabcabc";
        let toks = tokenize(data, lazy(64));
        assert!(toks.iter().any(|t| matches!(t, Token::Match { .. })));
        assert_eq!(expand(&toks), data);
    }

    #[test]
    fn short_input_is_literals() {
        let toks = tokenize(b"ab", lazy(64));
        assert_eq!(toks, vec![Token::Literal(b'a'), Token::Literal(b'b')]);
    }

    #[test]
    fn run_of_same_byte_overlapping_match() {
        let data = vec![7u8; 1000];
        let toks = tokenize(&data, lazy(64));
        assert!(
            toks.len() < 20,
            "run should compress well, got {}",
            toks.len()
        );
        assert_eq!(expand(&toks), data);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize(&[], lazy(64)).is_empty());
    }

    #[test]
    fn long_input_crossing_window() {
        // > 32 KiB with structure.
        let mut data = Vec::new();
        for i in 0..40_000u32 {
            data.push((i % 251) as u8);
        }
        let toks = tokenize(&data, lazy(32));
        assert_eq!(expand(&toks), data);
    }

    #[test]
    fn expand_inverts_tokenize_random() {
        let mut rng = Rng::new(0x1277);
        for _ in 0..128 {
            let n = rng.range_usize(0..5000);
            let mut data = vec![0u8; n];
            rng.fill_bytes(&mut data);
            let toks = tokenize(&data, lazy(16));
            assert_eq!(expand(&toks), data);
        }
    }

    #[test]
    fn low_entropy_round_trip_random() {
        let mut rng = Rng::new(0x10e0);
        for _ in 0..128 {
            let n = rng.range_usize(0..5000);
            let data: Vec<u8> = (0..n).map(|_| rng.range_u64(0..4) as u8).collect();
            let toks = tokenize(&data, lazy(16));
            assert_eq!(expand(&toks), data.clone());
            // Low-entropy inputs must actually compress.
            if data.len() > 200 {
                assert!(toks.len() < data.len());
            }
        }
    }

    #[test]
    fn reused_state_matches_fresh_state() {
        // One Lz77 across many blocks must tokenize each block exactly as a
        // fresh tokenizer would.
        let mut rng = Rng::new(0xba7c);
        let mut shared = Lz77::new();
        for _ in 0..32 {
            let n = rng.range_usize(0..3000);
            let data: Vec<u8> = (0..n).map(|_| rng.range_u64(0..7) as u8).collect();
            let mut reused = Vec::new();
            shared.tokenize_with(&data, lazy(16), |t| reused.push(t));
            assert_eq!(reused, tokenize(&data, lazy(16)));
        }
    }

    #[test]
    fn greedy_mode_round_trips() {
        let mut rng = Rng::new(0x95ee);
        for _ in 0..32 {
            let n = rng.range_usize(0..4000);
            let data: Vec<u8> = (0..n).map(|_| rng.range_u64(0..5) as u8).collect();
            let mut toks = Vec::new();
            let greedy = Search { lazy: 0, ..lazy(8) };
            Lz77::new().tokenize_with(&data, greedy, |t| toks.push(t));
            assert_eq!(expand(&toks), data);
        }
    }

    #[test]
    fn word_at_a_time_match_len_agrees_with_bytewise() {
        let mut rng = Rng::new(0x77aa);
        for _ in 0..256 {
            let n = rng.range_usize(16..600);
            let data: Vec<u8> = (0..n).map(|_| rng.range_u64(0..3) as u8).collect();
            let a = rng.range_usize(0..n / 2);
            let b = rng.range_usize(n / 2..n);
            let max_len = (n - b).min(MAX_MATCH);
            let fast = match_len(&data, a, b, max_len);
            let mut slow = 0usize;
            while slow < max_len && data[a + slow] == data[b + slow] {
                slow += 1;
            }
            assert_eq!(fast, slow);
        }
    }
}
