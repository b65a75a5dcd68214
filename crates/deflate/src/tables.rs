//! Shared DEFLATE constant tables (RFC 1951 §3.2.5–§3.2.6).

/// Length code bases (codes 257..=285 map to index 0..=28).
pub const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];

/// Extra bits for each length code.
pub const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Distance code bases (codes 0..=29).
pub const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];

/// Extra bits for each distance code.
pub const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Order in which code-length code lengths are transmitted.
pub const CLC_ORDER: [usize; 19] = [
    16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15,
];

/// Index of the last entry of `bases` that is `<= v` — the code whose range
/// holds `v`. The tables below are built from it at compile time; tests
/// check them against it over the whole domain.
const fn scan(bases: &[u16], v: u32) -> u8 {
    let mut idx = 0;
    while idx + 1 < bases.len() && bases[idx + 1] as u32 <= v {
        idx += 1;
    }
    idx as u8
}

/// Length code index of every match length, indexed by `len - 3`.
const LEN_CODE: [u8; 256] = {
    let mut t = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = scan(&LEN_BASE, i as u32 + 3);
        i += 1;
    }
    t
};

/// Distance code index, zlib's two-level table: `dist - 1` below 256 indexes
/// the first half directly; above, codes span at least 128 distances, so
/// `(dist - 1) >> 7` indexes the second half.
const DIST_CODE: [u8; 512] = {
    let mut t = [0u8; 512];
    let mut i = 0;
    while i < 256 {
        t[i] = scan(&DIST_BASE, i as u32 + 1);
        t[256 + i] = scan(&DIST_BASE, ((i as u32) << 7) + 1);
        i += 1;
    }
    t
};

/// Map a match length (3..=258) to (length code index, extra bits value).
#[inline]
pub fn length_code(len: u16) -> (usize, u32) {
    debug_assert!((3..=258).contains(&len));
    let idx = LEN_CODE[(len - 3) as usize & 0xFF] as usize;
    (idx, (len - LEN_BASE[idx]) as u32)
}

/// Map a distance (1..=32768) to (distance code index, extra bits value).
#[inline]
pub fn dist_code(dist: u16) -> (usize, u32) {
    debug_assert!(dist >= 1);
    let d = (dist - 1) as usize;
    let idx = if d < 256 {
        DIST_CODE[d]
    } else {
        DIST_CODE[256 + (d >> 7)]
    } as usize;
    (idx, (dist - DIST_BASE[idx]) as u32)
}

/// Fixed literal/length code lengths (RFC 1951 §3.2.6).
pub fn fixed_litlen_lens() -> Vec<u8> {
    let mut lens = vec![8u8; 288];
    for l in lens.iter_mut().take(256).skip(144) {
        *l = 9;
    }
    for l in lens.iter_mut().take(280).skip(256) {
        *l = 7;
    }
    lens
}

/// Fixed distance code lengths.
pub fn fixed_dist_lens() -> Vec<u8> {
    vec![5u8; 30]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_code_boundaries() {
        assert_eq!(length_code(3), (0, 0));
        assert_eq!(length_code(10), (7, 0));
        assert_eq!(length_code(11), (8, 0));
        assert_eq!(length_code(12), (8, 1));
        assert_eq!(length_code(257), (27, 30)); // 227 + 30
        assert_eq!(length_code(258), (28, 0));
    }

    #[test]
    fn dist_code_boundaries() {
        assert_eq!(dist_code(1), (0, 0));
        assert_eq!(dist_code(4), (3, 0));
        assert_eq!(dist_code(5), (4, 0));
        assert_eq!(dist_code(6), (4, 1));
        assert_eq!(dist_code(32768), (29, 8191));
    }

    #[test]
    fn luts_agree_with_the_scan_over_the_whole_domain() {
        for len in 3u16..=258 {
            assert_eq!(length_code(len).0, scan(&LEN_BASE, len as u32) as usize);
        }
        for dist in 1u32..=32768 {
            assert_eq!(
                dist_code(dist as u16).0,
                scan(&DIST_BASE, dist) as usize,
                "dist {dist}"
            );
        }
    }

    #[test]
    fn every_length_round_trips() {
        for len in 3u16..=258 {
            let (idx, extra) = length_code(len);
            assert_eq!(LEN_BASE[idx] + extra as u16, len);
            assert!(extra < (1 << LEN_EXTRA[idx]) || LEN_EXTRA[idx] == 0);
        }
    }

    #[test]
    fn every_distance_round_trips() {
        for dist in 1u32..=32768 {
            let (idx, extra) = dist_code(dist as u16);
            assert_eq!(DIST_BASE[idx] as u32 + extra, dist);
        }
    }

    #[test]
    fn fixed_code_shapes() {
        let l = fixed_litlen_lens();
        assert_eq!(l[0], 8);
        assert_eq!(l[144], 9);
        assert_eq!(l[256], 7);
        assert_eq!(l[280], 8);
        assert_eq!(fixed_dist_lens().len(), 30);
    }
}
