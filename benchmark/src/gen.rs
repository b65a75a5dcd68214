//! Seeded input generators: MiniMPI programs and request streams.
//!
//! Everything the benchmark feeds the system comes from here and is a pure
//! function of the seed, so the same `--seed` gives the same programs, the
//! same events and the same request order. The program under test sees only
//! the generated MiniMPI text, events or containers — never the seed.

use cypress::obs::rng::Rng;

/// A generated MiniMPI job.
#[derive(Debug, Clone)]
pub struct Program {
    pub source: String,
    pub nprocs: u32,
    /// MPI events the generator sized the trip counts for. The harness
    /// rejects a seed whose program yields less than 90% of this.
    pub target_events: u64,
}

impl Program {
    /// Reject a seed whose program ran short: `events` is what it yielded.
    pub fn check_yield(&self, seed: u64, events: u64) {
        assert!(
            events * 10 >= self.target_events * 9,
            "seed {seed} rejected: program yields {events} of {} target events",
            self.target_events
        );
    }
}

/// `px × py` process grid for the rank counts the benchmark uses.
fn grid(nprocs: u32) -> (u32, u32) {
    let mut px = (nprocs as f64).sqrt() as u32;
    while px > 1 && !nprocs.is_multiple_of(px) {
        px -= 1;
    }
    (px.max(1), nprocs / px.max(1))
}

/// `count` of `it in 0..iters` with `it % every == 0`.
fn multiples(iters: u64, every: u64) -> u64 {
    iters.div_ceil(every)
}

/// The **regular** family: a 2-D halo exchange (`isend`/`irecv`/`waitall`
/// with the four torus neighbours), an `allreduce` every 5th step and, every
/// 100th step, a nested LU-style wavefront sweep of 20 trips (receive from
/// west and north, compute, send east and south).
///
/// Why this shape: it is the paper's best case. Every rank runs the same
/// loop nest with rank-relative peers and loop-invariant sizes, so each
/// rank's CTT stays a few hundred bytes however many iterations run, and the
/// interpreter plus the compression session do almost all the work. The
/// seed picks the halo sizes and compute costs — values, not shapes: the
/// periods and the sweep depth are constants, because they set the cost per
/// event and two seeds must measure the same amount of work. The outer trip
/// count is solved from `target_events`, so the event count is within one
/// outer iteration of the target and the same for every seed (P=16, target
/// 4×10⁶ → 4,000,112 events; P=64, target 2×10⁶ → 2,001,088).
pub fn regular(rng: &mut Rng, nprocs: u32, target_events: u64) -> Program {
    let (px, py) = grid(nprocs);
    // All sizes below 16 KiB, so every seed's sizes take two varint bytes.
    let halo_x = 1024 * rng.range_u64(1..16);
    let halo_y = 1024 * rng.range_u64(1..16);
    let work = rng.range_u64(100..1000);
    let (reduce_every, sweep_every, sweep_trips) = (5u64, 100u64, 20u64);
    // One send and one receive per wavefront link and sweep trip.
    let links = (py * (px - 1) + px * (py - 1)) as u64;
    let p = nprocs as u64;
    let count = |iters: u64| {
        9 * p * iters
            + p * multiples(iters, reduce_every)
            + 2 * links * sweep_trips * multiples(iters, sweep_every)
            + p
    };
    let per_iter = count(sweep_every * reduce_every) as f64 / (sweep_every * reduce_every) as f64;
    let mut iters = ((target_events as f64 / per_iter) as u64).max(1);
    while count(iters) < target_events {
        iters += 1;
    }
    let source = format!(
        r#"// regular family: {px}x{py} halo exchange + allreduce + wavefront sweep
fn sweep(x, y, n) {{
    for d in 0..n {{
        if x > 0 {{ recv(rank() - 1, 2048, 3); }}
        if y > 0 {{ recv(rank() - {px}, 2048, 4); }}
        compute(50);
        if x < {px} - 1 {{ send(rank() + 1, 2048, 3); }}
        if y < {py} - 1 {{ send(rank() + {px}, 2048, 4); }}
    }}
}}
fn main() {{
    let x = rank() % {px};
    let y = rank() / {px};
    let e = y * {px} + (x + 1) % {px};
    let w = y * {px} + (x + {px} - 1) % {px};
    let n = ((y + 1) % {py}) * {px} + x;
    let s = ((y + {py} - 1) % {py}) * {px} + x;
    for it in 0..{iters} {{
        let a = isend(e, {halo_x}, 1);
        let b = isend(w, {halo_x}, 1);
        let c = isend(n, {halo_y}, 2);
        let d = isend(s, {halo_y}, 2);
        let f = irecv(w, {halo_x}, 1);
        let g = irecv(e, {halo_x}, 1);
        let h = irecv(s, {halo_y}, 2);
        let i = irecv(n, {halo_y}, 2);
        waitall(a, b, c, d, f, g, h, i);
        compute({work});
        if it % {reduce_every} == 0 {{ allreduce(8); }}
        if it % {sweep_every} == 0 {{ sweep(x, y, {sweep_trips}); }}
    }}
    barrier();
}}
"#
    );
    Program {
        source,
        nprocs,
        target_events,
    }
}

/// The **irregular** family: every outer iteration draws from a linear
/// congruential stream and uses the draw for the neighbour offset (5
/// values), the message size (1000 values, mixed with the sender's rank so
/// no two ranks agree), and three data-dependent branches (an `allreduce`
/// and the two halves of a ring shift).
///
/// Why this shape: it is where CYPRESS's compression ratio collapses. Almost
/// every record of every rank carries parameters seen nowhere else, so CTTs
/// grow to megabytes per rank, the inter-process merge finds little to fold,
/// and merge, section encoding and DEFLATE carry most of the wall time. The
/// stream is shared by all ranks and sizes are a function of (draw, sender),
/// so sender and receiver compute the same size and collectives stay
/// matched — the program is a valid MPI program, not just an event source.
/// The inner exchange repeats `inner` times per draw, which sets how far the
/// intra-process compressor can fold. Events per rank-iteration average
/// `3·inner + 1`, and the trip count is solved from that (seed 1, P=64,
/// target 10⁶ → 999,056 events; other seeds within 0.2% of that).
pub fn irregular(rng: &mut Rng, nprocs: u32, target_events: u64) -> Program {
    let inner = 3u64;
    let stream_seed = rng.range_u64(1..2_147_483_648);
    // Coprime to the 1000 size classes, so no two of up to 1000 ranks draw
    // the same size sequence (a multiple of 25 made ranks r and r+40 agree
    // and the merged tree a third smaller).
    let mix = [37, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97][rng.range_usize(0..13)];
    // 3·inner from the exchange, ¼ allreduce, ⅜ send, ⅜ recv.
    let per_rank_iter = 3 * inner + 1;
    let iters = (target_events.div_ceil(per_rank_iter * nprocs as u64)).max(1);
    let source = format!(
        r#"// irregular family: LCG-driven sizes, offsets and branches
fn main() {{
    let p = size();
    let r = rank();
    let left = (r + p - 1) % p;
    let xs = {stream_seed};
    for it in 0..{iters} {{
        xs = (xs * 1103515245 + 12345) % 2147483648;
        let off = 1 + (xs / 4096) % 5;
        let from = (r + p - off) % p;
        let sb = 64 + ((xs / 65536 + r * {mix}) % 1000) * 8;
        let rb = 64 + ((xs / 65536 + from * {mix}) % 1000) * 8;
        for k in 0..{inner} {{
            let a = isend((r + off) % p, sb, 1);
            let b = irecv(from, rb, 1);
            waitall(a, b);
        }}
        if (xs / 1024) % 4 == 0 {{ allreduce(8); }}
        if (xs / 256 + r * 11) % 8 < 3 {{ send((r + 1) % p, sb / 2, 2); }}
        if (xs / 256 + left * 11) % 8 < 3 {{
            recv(left, (64 + ((xs / 65536 + left * {mix}) % 1000) * 8) / 2, 2);
        }}
        compute(100 + (xs + r) % 400);
    }}
    barrier();
}}
"#
    );
    Program {
        source,
        nprocs,
        target_events,
    }
}

/// A **loop-free** job for analyze requests: `rounds` ring exchanges written
/// out statement by statement, with seeded sizes and an occasional
/// `allreduce`.
///
/// Why this shape: with no loop to lower symbolically the analysis engine
/// feeds every op through the simulator, which is the case ROADMAP item 2
/// records as slower than its own oracle. `3·rounds·P` ops plus about
/// `0.15·rounds·P` collectives stays under the 4k fed-op cap (P=8, 130
/// rounds → about 3,300 ops).
pub fn loop_free(rng: &mut Rng, nprocs: u32, rounds: u32) -> Program {
    let mut body = String::new();
    let mut events = 0u64;
    for i in 0..rounds {
        let bytes = 256 * rng.range_u64(1..65);
        let tag = i % 7;
        body.push_str(&format!(
            "    let a{i} = isend((rank() + 1) % size(), {bytes}, {tag});\n    \
             let b{i} = irecv((rank() + size() - 1) % size(), {bytes}, {tag});\n    \
             waitall(a{i}, b{i});\n    compute({});\n",
            rng.range_u64(50..500)
        ));
        events += 3;
        if rng.chance(0.15) {
            body.push_str("    allreduce(8);\n");
            events += 1;
        }
    }
    Program {
        source: format!("// loop-free analysis job\nfn main() {{\n{body}}}\n"),
        nprocs,
        target_events: events * nprocs as u64,
    }
}

/// A **uniform-loop** job for analyze requests: one loop whose every
/// iteration does the same exchange and reduction on every rank.
///
/// Why this shape: the analysis engine proves the loop uniform, simulates a
/// few trips and extrapolates the rest arithmetically, so cost is flat in
/// the trip count (P=8, target 8×10³ → 8,000 events for every seed, a few
/// dozen of them fed to the simulator).
pub fn uniform_loop(rng: &mut Rng, nprocs: u32, target_events: u64) -> Program {
    let bytes = 512 * rng.range_u64(1..33);
    let work = rng.range_u64(100..1000);
    let iters = target_events.div_ceil(4 * nprocs as u64).max(1);
    Program {
        source: format!(
            r#"// uniform-loop analysis job
fn main() {{
    for it in 0..{iters} {{
        let a = isend((rank() + 1) % size(), {bytes}, 1);
        let b = irecv((rank() + size() - 1) % size(), {bytes}, 1);
        waitall(a, b);
        compute({work});
        allreduce(8);
    }}
}}
"#
        ),
        nprocs,
        target_events: 4 * nprocs as u64 * iters,
    }
}

/// Zipf(`s`) sampler over `n` items by inverse CDF.
///
/// Why Zipf: job popularity in a trace store is skewed — a few recent jobs
/// take most queries — and skew decides how much a resident cache helps.
/// Item 0 is the most popular; callers map items to jobs through a seeded
/// permutation so popularity is independent of job size.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for i in 1..=n {
            sum += 1.0 / (i as f64).powf(s);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Fisher–Yates permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.range_usize(0..i + 1));
    }
    v
}

/// What one queryd request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    Query,
    /// A query restricted to the first half of the job's timeline, which
    /// forces O(events) replay instead of the symbolic fold.
    WindowedQuery,
    Analyze,
}

/// One request of a generated stream: an index into the caller's job list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub job: usize,
    pub kind: ReqKind,
}

/// The `queryd-hot` stream: Zipf(1.0) over the jobs in `by_popularity`
/// (most popular first); 20% of requests are analyze requests spread
/// uniformly over the `analyzable` jobs; 1 in 8 queries carries a window when
/// its target is in `windowable` (windowed queries replay every event, so
/// they are kept to jobs small enough that the mix still measures the daemon
/// and not one replay).
pub fn hot_requests(
    rng: &mut Rng,
    n: usize,
    by_popularity: &[usize],
    analyzable: &[usize],
    windowable: &[bool],
) -> Vec<Request> {
    let zipf = Zipf::new(by_popularity.len(), 1.0);
    (0..n)
        .map(|_| {
            if !analyzable.is_empty() && rng.chance(0.2) {
                return Request {
                    job: analyzable[rng.range_usize(0..analyzable.len())],
                    kind: ReqKind::Analyze,
                };
            }
            let job = by_popularity[zipf.sample(rng)];
            let kind = if rng.below(8) == 0 && windowable[job] {
                ReqKind::WindowedQuery
            } else {
                ReqKind::Query
            };
            Request { job, kind }
        })
        .collect()
}

/// The `queryd-churn` stream: plain queries, uniform over `jobs`.
///
/// Why uniform: with a resident budget of an eighth of the jobs, uniform
/// popularity makes seven in eight requests miss, so the stream measures the
/// open path (read, CRC, inflate, decode, evict) rather than the hit path.
pub fn churn_requests(rng: &mut Rng, n: usize, jobs: usize) -> Vec<Request> {
    (0..n)
        .map(|_| Request {
            job: rng.range_usize(0..jobs),
            kind: ReqKind::Query,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(64, 1.0);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..10_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same stream");
        assert_ne!(a, draw(8), "another seed, another stream");
        let hits = |item| a.iter().filter(|&&x| x == item).count();
        // Zipf(1.0) over 64 items: item 0 has mass 1/H(64) ≈ 0.21, item 63
        // has 1/64 of that.
        assert!((1800..2400).contains(&hits(0)), "item 0 drew {}", hits(0));
        assert!(hits(63) < 100);
        assert!(a.iter().all(|&x| x < 64));
    }

    #[test]
    fn request_streams_repeat_for_a_seed() {
        let mk = |seed| {
            let mut rng = Rng::new(seed);
            let ranking = permutation(&mut Rng::new(99), 16);
            hot_requests(&mut rng, 5000, &ranking, &[2, 3], &[true; 16])
        };
        let a = mk(1);
        assert_eq!(a, mk(1));
        let analyze = a.iter().filter(|r| r.kind == ReqKind::Analyze).count();
        assert!((800..1200).contains(&analyze), "analyze share {analyze}");
        assert!(a
            .iter()
            .filter(|r| r.kind == ReqKind::Analyze)
            .all(|r| r.job == 2 || r.job == 3));
        let mut rng = Rng::new(1);
        let c = churn_requests(&mut rng, 1000, 256);
        assert!(c.iter().all(|r| r.job < 256 && r.kind == ReqKind::Query));
    }

    #[test]
    fn regular_trip_count_hits_the_target() {
        for (p, target) in [(16, 100_000u64), (64, 10_000), (8, 1_000)] {
            let prog = regular(&mut Rng::new(3), p, target);
            let job = cypress::Pipeline::new(prog.source).ranks(p).run().unwrap();
            let got = job.total_events();
            assert!(got >= target, "{got} < {target}");
            assert!(
                got < target + target / 2 + 20 * p as u64,
                "{got} ≫ {target}"
            );
        }
    }

    #[test]
    fn irregular_and_analysis_programs_compile_and_size() {
        let prog = irregular(&mut Rng::new(3), 16, 50_000);
        let job = cypress::Pipeline::new(prog.source).ranks(16).run().unwrap();
        let got = job.total_events() as f64;
        assert!((0.9..1.2).contains(&(got / 50_000.0)), "irregular {got}");
        for prog in [
            loop_free(&mut Rng::new(3), 8, 120),
            uniform_loop(&mut Rng::new(3), 8, 8000),
        ] {
            let job = cypress::Pipeline::new(prog.source).ranks(8).run().unwrap();
            assert_eq!(job.total_events(), prog.target_events);
        }
    }
}
