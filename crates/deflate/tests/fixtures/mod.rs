//! `deflate.rs`' fixtures, byte for byte: text (dynamic), a short string
//! (fixed), noise (stored), 96 KiB of LCG-driven records (matches out to the
//! 32 KiB window), and a zero run (length 258 at distance 1).
//! `inflate_sweep.rs::fixtures_are_the_encoder_tests_fixtures` holds the copy
//! to the original through its committed stream CRCs.

pub fn fixtures() -> Vec<(&'static str, Vec<u8>)> {
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
    vec![
        ("text", text),
        ("short", short),
        ("noise", noise),
        ("records", records),
        ("zeros", zeros),
    ]
}
