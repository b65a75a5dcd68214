//! The interpreter's oracle: committed per-rank hashes of the full event
//! stream, captured at the commit before the interpreter was rewritten to
//! index resolved slots and direct site tables.
//!
//! The identity suites next to this one compare computations of one commit
//! with each other (in-line = offline reference = collected); an interpreter
//! that changed every mode alike — a GID off by one, a tick charged twice, a
//! duration computed differently — would pass all of them. This one pins the
//! stream itself: `Enter`/`Exit` GIDs in order and, per MPI record, `gid, op,
//! params, t_start, dur`, plus the returned `app_time`.
//!
//! To re-capture after an *intended* stream change, run the test and paste
//! the table it prints on mismatch.

use cypress::cst::analyze_program;
use cypress::minilang::{check_program, parse};
use cypress::runtime::{trace_program, InterpConfig};
use cypress::trace::event::Event;
use cypress::trace::RawTrace;
use cypress::workloads::{by_name, quick_procs, Scale, NPB_NAMES};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn hash_trace(t: &RawTrace) -> u64 {
    let mut h = Fnv::new();
    for e in &t.events {
        match e {
            Event::Enter { gid } => {
                h.word(1);
                h.word(*gid as u64);
            }
            Event::Exit { gid } => {
                h.word(2);
                h.word(*gid as u64);
            }
            Event::Mpi(r) => {
                h.word(3);
                h.word(r.gid as u64);
                h.word(r.op.code() as u64);
                let p = &r.params;
                for v in [
                    p.dest, p.src, p.count, p.rcount, p.tag, p.rtag, p.root, p.comm,
                ] {
                    h.word(v as u64);
                }
                h.word(p.req_gids.len() as u64);
                for g in &p.req_gids {
                    h.word(*g as u64);
                }
                h.word(r.t_start);
                h.word(r.dur);
            }
        }
    }
    h.word(t.app_time);
    h.0
}

/// The regular shape of `benchmark/src/gen.rs` (2×2 grid, 230 outer trips so
/// the wavefront sweep runs three times), copied as text.
const REGULAR: &str = r#"
fn sweep(x, y, n) {
    for d in 0..n {
        if x > 0 { recv(rank() - 1, 2048, 3); }
        if y > 0 { recv(rank() - 2, 2048, 4); }
        compute(50);
        if x < 2 - 1 { send(rank() + 1, 2048, 3); }
        if y < 2 - 1 { send(rank() + 2, 2048, 4); }
    }
}
fn main() {
    let x = rank() % 2;
    let y = rank() / 2;
    let e = y * 2 + (x + 1) % 2;
    let w = y * 2 + (x + 2 - 1) % 2;
    let n = ((y + 1) % 2) * 2 + x;
    let s = ((y + 2 - 1) % 2) * 2 + x;
    for it in 0..230 {
        let a = isend(e, 7168, 1);
        let b = isend(w, 7168, 1);
        let c = isend(n, 3072, 2);
        let d = isend(s, 3072, 2);
        let f = irecv(w, 7168, 1);
        let g = irecv(e, 7168, 1);
        let h = irecv(s, 3072, 2);
        let i = irecv(n, 3072, 2);
        waitall(a, b, c, d, f, g, h, i);
        compute(417);
        if it % 5 == 0 { allreduce(8); }
        if it % 100 == 0 { sweep(x, y, 20); }
    }
    barrier();
}
"#;

/// The irregular shape of `benchmark/src/gen.rs` (150 outer trips), copied
/// as text.
const IRREGULAR: &str = r#"
fn main() {
    let p = size();
    let r = rank();
    let left = (r + p - 1) % p;
    let xs = 1804289383;
    for it in 0..150 {
        xs = (xs * 1103515245 + 12345) % 2147483648;
        let off = 1 + (xs / 4096) % 5;
        let from = (r + p - off) % p;
        let sb = 64 + ((xs / 65536 + r * 61) % 1000) * 8;
        let rb = 64 + ((xs / 65536 + from * 61) % 1000) * 8;
        for k in 0..3 {
            let a = isend((r + off) % p, sb, 1);
            let b = irecv(from, rb, 1);
            waitall(a, b);
        }
        if (xs / 1024) % 4 == 0 { allreduce(8); }
        if (xs / 256 + r * 11) % 8 < 3 { send((r + 1) % p, sb / 2, 2); }
        if (xs / 256 + left * 11) % 8 < 3 {
            recv(left, (64 + ((xs / 65536 + left * 61) % 1000) * 8) / 2, 2);
        }
        compute(100 + (xs + r) % 400);
    }
    barrier();
}
"#;

/// Self recursion with recursive calls before, between and after MPI
/// operations, a function reached through two call paths, and mutual
/// recursion: `EnterRecursive` at every first entry, `BackCall` at every
/// cut, and the `Exit` of a pseudo loop only when its outermost invocation
/// returns.
const RECURSIVE: &str = r#"
fn walk(n) {
    if n == 0 {
    } else if n < 4 {
        bcast(0, 8 * n);
        reduce(0, 8);
        walk(n - 1);
    } else {
        bcast(0, 8);
        walk(n - 1);
        reduce(0, 8 * n);
    }
}
fn ping(n) { if n > 0 { send((rank() + 1) % size(), 4 * n, 0); pong(n - 1); } }
fn pong(n) { if n > 0 { recv((rank() + size() - 1) % size(), 4 * (n + 1), 0); ping(n - 1); } }
fn depth(n) {
    let d = 0;
    if n > 0 { d = depth(n - 1) + 1; }
    return d;
}
fn main() {
    walk(7);
    for k in 0..3 { walk(k + 2); }
    ping(6);
    compute(depth(5));
    barrier();
}
"#;

/// Partial completion, single waits, wildcards and every remaining
/// operation, with `while`, a negative step, shadowing, nested user calls in
/// argument position and an int-returning helper.
const MIXED: &str = r#"
fn next(r) { return (r + 1) % size(); }
fn twice(v) { let v = v * 2; return v; }
fn main() {
    let r = rank();
    let p = size();
    for k in 0..4 {
        let a = isend(next(r), 64 * (k + 1), k);
        let b = irecv(any_source(), 64 * (k + 1), k);
        let c = isend(next(next(r)), twice(twice(8)), 9);
        let d = irecv((r + p - 2) % p, 32, 9);
        waitany(a, b, c, d);
        waitany(a, b, c, d);
        wait(c);
        waitall(d);
    }
    let i = 0;
    while i < 3 {
        let i2 = i * i;
        sendrecv(next(r), 100 + i2, 1, (r + p - 1) % p, 100 + i2, 1);
        i = i + 1;
    }
    for j in 10..0 step 0 - 3 {
        if j % 2 == 0 { alltoall(j); } else { allgather(j); }
        let j = j + 1;
        compute(j);
    }
    if r == 0 { bcast(0, 16); } else { bcast(0, 16); }
    reduce(p - 1, 24);
    allreduce(8);
}
"#;

fn programs() -> Vec<(String, String, u32)> {
    let mut v: Vec<(String, String, u32)> = NPB_NAMES
        .iter()
        .copied()
        .chain(["jacobi", "leslie3d"])
        .map(|name| {
            let w = by_name(name, quick_procs(name), Scale::Quick).expect("bundled workload");
            (name.to_string(), w.source, w.nprocs)
        })
        .collect();
    v.push(("gen-regular".into(), REGULAR.into(), 4));
    v.push(("gen-irregular".into(), IRREGULAR.into(), 8));
    v.push(("recursive".into(), RECURSIVE.into(), 3));
    v.push(("mixed".into(), MIXED.into(), 5));
    v
}

fn rank_hashes(source: &str, nprocs: u32) -> Vec<u64> {
    let prog = parse(source).expect("parses");
    check_program(&prog).expect("checks");
    let info = analyze_program(&prog);
    trace_program(&prog, &info, nprocs, &InterpConfig::default())
        .expect("traces")
        .iter()
        .map(hash_trace)
        .collect()
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &[u64])] = &[
    ("bt", &[0x9f79d1ae9397266d, 0x25572426188f319e, 0x8aaa5d77ed8e843f, 0x1658da729888a2a8, 0xd631799001bb275f, 0xe3e271faf93448cd, 0x952c5a3419b9e4dd, 0xb271279c891fa072, 0x76b5ed64ae0fb71b]),
    ("cg", &[0xab576e98797d48de, 0xd5543680fb77426a, 0xc0593ccffcea2648, 0x08820846abfa08d5, 0xd031510c2743fd1c, 0xc3e75235d7f5b882, 0x013fd3c62a5a7431, 0x84016f522f32565d]),
    ("dt", &[0x7ee828af25f7916b, 0x2ce8a4b60896b70e, 0x2981759bc1fb3381, 0xe3f54f0a03f67fb5, 0x8e7359c6e65c1467, 0xabd2cb1fa38fe42e, 0x65811196169e15fc, 0xf2a9716386ba1d4c]),
    ("ep", &[0xc41b28905deaff80, 0xcd78b7bbe93a6ca6, 0x66111466f3610760, 0xa087c10a2b7b020c, 0x10f51b4504518f55, 0x8158c8cbcfaa55bd, 0xde45d43f32763c41, 0x947897ac0f535daf]),
    ("ft", &[0x0d2547e9e61679d7, 0xf2886d5ef53e845c, 0xf829b8152ca97c5b, 0x3e55d35c0a5acb9f, 0x8e76ab69066f0578, 0x93fdfd418edd46c5, 0xf3078d3bf92673da, 0xccba3f63d317f8a6]),
    ("lu", &[0x03e5e8dfcbfc46bb, 0x6f9b24f9a51863bb, 0x16f79abaa18c2ea9, 0x7d32eebacb47fa19, 0x95cda00dd779b4cb, 0x0c161d20435a46e0, 0x34be77eacef46a95, 0x2fdbc623562a71fa]),
    ("mg", &[0x1e8b929aa8655fde, 0xfd99633946178dcc, 0xce5a1a7c2de0056d, 0xfe70efc2de5f2fb3, 0x7ae7bc20c190e965, 0x1ed7b71890f71da7, 0x2ffe3f38611361b9, 0xbeced9ce5a9e1d98]),
    ("sp", &[0x3cc65ce831027262, 0x36aa9bfd8b6d1d30, 0xcd9b989f9f33bff6, 0x0a918977f422ea1a, 0xe989ddfb7c30667c, 0x98f8de63bab85785, 0x89654a2611486c12, 0xd3ef49f9b5f14d52, 0xa4f30989e2ce5ec8]),
    ("jacobi", &[0xe8decac93cc3fee9, 0x9db8ded13812a024, 0x2517ece8963a47d4, 0x353d2b4b9c9c3eff, 0x6160c87e008d0bf9, 0xd58d2d468dd48bf7, 0x08369334de6bd139, 0x03d1f206f95d59f3]),
    ("leslie3d", &[0xbb4959b9a76b1fce, 0x5dcbc0268a70ae3e, 0xa6dabe8176703993, 0x3e82cb16a805d888, 0x95c333061a3c6eaa, 0xfd464e4aa659bfbd, 0x4b54e0fa8d501714, 0x03ddbd6d318226c9, 0x9c66bef2d2c9927f, 0xabf30f98691b992b, 0x22aee63afc404365, 0xd9784e39c4c8b956, 0x16c4ffd7ac4a6a4d, 0xfb26d4580174e259, 0xabb7dfa1da5ce55c, 0xfe29c7e0792a013d]),
    ("gen-regular", &[0x79d4fcbfda44e9d3, 0xb5d64e78dbe623cc, 0x1d45e2b3504b7f92, 0x0883d7f10736ac73]),
    ("gen-irregular", &[0x9463af2feccaf724, 0x0d233133fd8580ba, 0xecf246ad4dc63485, 0xc235bc57684ba392, 0xc67cb635cf14db10, 0xa4b700fea31998fb, 0x9b678a8c4ff2887a, 0x20de71f62ca1105b]),
    ("recursive", &[0x6721a3a88bfea564, 0x9052b9b9517418d0, 0xdc36b75ee780b89e]),
    ("mixed", &[0x68ca6304a3f770c2, 0x8aebdd92fb4cf819, 0x92112f40f92b0de4, 0x6d67866d9e0a14cd, 0xec13da857ffb89e6]),
];

#[test]
fn event_streams_match_the_hashes_captured_before_the_rewrite() {
    let actual: Vec<(String, Vec<u64>)> = programs()
        .into_iter()
        .map(|(name, source, nprocs)| (name, rank_hashes(&source, nprocs)))
        .collect();
    let want: Vec<(String, Vec<u64>)> = GOLDEN
        .iter()
        .map(|(name, hashes)| (name.to_string(), hashes.to_vec()))
        .collect();
    if actual != want {
        let mut table = String::new();
        for (name, hashes) in &actual {
            let row: Vec<String> = hashes.iter().map(|h| format!("{h:#018x}")).collect();
            table.push_str(&format!("    ({name:?}, &[{}]),\n", row.join(", ")));
        }
        let diverged: Vec<&str> = actual
            .iter()
            .filter(|row| !want.contains(row))
            .map(|(name, _)| name.as_str())
            .collect();
        panic!("event streams diverged from the committed hashes in {diverged:?}; actual table:\n{table}");
    }
}
