//! Digest rows shared by `ctt_golden.rs` and `random_programs.rs`: one
//! `(label, ranks, merged)` per job, where `ranks` folds the CRC-32 of every
//! rank's `Ctt::to_bytes()` (in rank order) into one CRC and `merged` is the
//! CRC-32 of the merged tree's encoding.

use cypress::core::{Ctt, MergedCtt};
use cypress::deflate::crc32;
use cypress::trace::codec::Codec;

pub type Row = (&'static str, u32, u32);

pub fn job_digest(ctts: &[Ctt], merged: &MergedCtt) -> (u32, u32) {
    let per_rank: Vec<u8> = ctts
        .iter()
        .flat_map(|c| crc32(&c.to_bytes()).to_le_bytes())
        .collect();
    (crc32(&per_rank), crc32(&merged.to_bytes()))
}

/// Compare against the committed table; on mismatch name the diverged rows
/// and print the replacement table, ready to paste.
pub fn assert_matches(table: &str, actual: &[(String, (u32, u32))], golden: &[Row]) {
    let want: Vec<(String, (u32, u32))> = golden
        .iter()
        .map(|&(label, ranks, merged)| (label.to_string(), (ranks, merged)))
        .collect();
    if actual == want {
        return;
    }
    let diverged: Vec<&str> = actual
        .iter()
        .filter(|row| !want.contains(row))
        .map(|(label, _)| label.as_str())
        .collect();
    let mut rows = String::new();
    for (label, (ranks, merged)) in actual {
        rows.push_str(&format!(
            "    ({label:?}, {ranks:#010x}, {merged:#010x}),\n"
        ));
    }
    panic!("CTT bytes diverged from {table} in {diverged:?}; actual table:\n{rows}");
}
