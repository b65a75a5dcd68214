//! `crc32_combine` against the CRC of the concatenation: the container
//! writer derives its image trailer from the CRCs of the parts it writes,
//! so the combine must give `crc32(a ++ b)` for every split, empty parts
//! included, and compose over many parts.

use cypress_deflate::{crc32, crc32_combine};
use cypress_obs::rng::Rng;

#[test]
fn combine_of_any_split_is_the_crc_of_the_whole() {
    let mut rng = Rng::new(0xc0b1);
    for round in 0..200 {
        let n = match round % 4 {
            0 => rng.range_usize(0..16),
            1 => rng.range_usize(0..300),
            _ => rng.range_usize(0..70_000),
        };
        let mut data = vec![0u8; n];
        rng.fill_bytes(&mut data);
        let want = crc32(&data);
        for split in [0, n, rng.range_usize(0..n + 1), rng.range_usize(0..n + 1)] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len() as u64),
                want,
                "round {round}: {n} bytes split at {split}"
            );
        }
    }
}

#[test]
fn combine_folds_over_many_parts_in_order() {
    let mut rng = Rng::new(0x9a27);
    for round in 0..50 {
        let parts: Vec<Vec<u8>> = (0..rng.range_usize(1..12))
            .map(|i| {
                // Every third part is empty.
                let mut part = vec![
                    0u8;
                    if i % 3 == 2 {
                        0
                    } else {
                        rng.range_usize(0..5_000)
                    }
                ];
                rng.fill_bytes(&mut part);
                part
            })
            .collect();
        let combined = parts
            .iter()
            .fold(0, |crc, p| crc32_combine(crc, crc32(p), p.len() as u64));
        assert_eq!(combined, crc32(&parts.concat()), "round {round}");
    }
}
