//! The seeded MiniMPI program generator behind `random_programs.rs`:
//! well-formed, terminating, valid-peer SPMD programs with nested loops,
//! rank-dependent branches, user functions, non-blocking pairs (some with
//! wildcard receives) and collectives.

use cypress::obs::rng::Rng;
use std::fmt::Write;

/// The 80 wide-range seeds `random_programs_round_trip` checks, derived
/// from one master stream.
pub fn master_seeds() -> impl Iterator<Item = u64> {
    let mut master = Rng::new(0x9e3779b97f4a7c15);
    (0..80).map(move |_| master.next_u64())
}

/// Generate a random well-formed MiniMPI program.
pub fn gen_program(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let n_helpers = rng.range_usize(0..3);
    let mut out = String::new();
    let helper_names: Vec<String> = (0..n_helpers).map(|i| format!("helper{i}")).collect();
    for name in &helper_names {
        writeln!(out, "fn {name}(arg) {{").unwrap();
        gen_block(&mut rng, &mut out, &["arg"], &[], 2, 1);
        writeln!(out, "}}").unwrap();
    }
    writeln!(out, "fn main() {{").unwrap();
    gen_block(&mut rng, &mut out, &[], &helper_names, 3, 1);
    writeln!(out, "}}").unwrap();
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

/// Emit 1..=4 statements. `vars` are in-scope int variables; `helpers` are
/// callable function names; `depth` bounds structural nesting.
fn gen_block(
    rng: &mut Rng,
    out: &mut String,
    vars: &[&str],
    helpers: &[String],
    depth: usize,
    ind: usize,
) {
    let n = rng.range_usize(1..5);
    for _ in 0..n {
        gen_stmt(rng, out, vars, helpers, depth, ind);
    }
}

fn gen_int_expr(rng: &mut Rng, vars: &[&str]) -> String {
    match rng.range_u64(0..5) {
        0 => format!("{}", rng.range_i64(0..64)),
        1 => "rank()".to_string(),
        2 => "size()".to_string(),
        3 if !vars.is_empty() => vars[rng.range_usize(0..vars.len())].to_string(),
        _ => format!(
            "({} + {})",
            rng.range_i64(0..16),
            if vars.is_empty() || rng.chance(0.5) {
                "rank()".to_string()
            } else {
                vars[rng.range_usize(0..vars.len())].to_string()
            }
        ),
    }
}

fn gen_cond(rng: &mut Rng, vars: &[&str]) -> String {
    let lhs = gen_int_expr(rng, vars);
    let op = ["==", "!=", "<", "<=", ">", ">="][rng.range_usize(0..6)];
    match rng.range_u64(0..3) {
        0 => format!(
            "rank() % {} {op} {}",
            rng.range_i64(2..5),
            rng.range_i64(0..3)
        ),
        1 => format!("{lhs} {op} size()"),
        _ => format!(
            "{lhs} % {} {op} {}",
            rng.range_i64(2..6),
            rng.range_i64(0..4)
        ),
    }
}

fn gen_mpi(rng: &mut Rng, out: &mut String, vars: &[&str], ind: usize) {
    indent(out, ind);
    let bytes = [8i64, 64, 1024, 43 * 1024][rng.range_usize(0..4)];
    let tag = rng.range_i64(0..4);
    match rng.range_u64(0..7) {
        // Paired send/recv around the ring: always matches (every rank
        // sends to +k and receives from -k with the same tag).
        0 => {
            let k = rng.range_i64(1..4);
            writeln!(out, "send((rank() + {k}) % size(), {bytes}, {tag});").unwrap();
            indent(out, ind);
            writeln!(
                out,
                "recv((rank() + size() - {k}) % size(), {bytes}, {tag});"
            )
            .unwrap();
        }
        1 => {
            let k = rng.range_i64(1..4);
            writeln!(
                out,
                "let rq_a = isend((rank() + {k}) % size(), {bytes}, {tag});"
            )
            .unwrap();
            indent(out, ind);
            if rng.chance(0.5) {
                writeln!(
                    out,
                    "let rq_b = irecv((rank() + size() - {k}) % size(), {bytes}, {tag});"
                )
                .unwrap();
            } else {
                writeln!(out, "let rq_b = irecv(any_source(), {bytes}, {tag});").unwrap();
            }
            indent(out, ind);
            writeln!(out, "waitall(rq_a, rq_b);").unwrap();
        }
        2 => writeln!(out, "barrier();").unwrap(),
        3 => writeln!(out, "bcast(0, {bytes});").unwrap(),
        4 => writeln!(out, "reduce(0, {bytes});").unwrap(),
        5 => writeln!(out, "allreduce({bytes});").unwrap(),
        _ => {
            let k = rng.range_i64(1..3);
            writeln!(
                out,
                "sendrecv((rank() + {k}) % size(), {bytes}, {tag}, (rank() + size() - {k}) % size(), {bytes}, {tag});"
            )
            .unwrap();
        }
    }
    let _ = vars;
}

fn gen_stmt(
    rng: &mut Rng,
    out: &mut String,
    vars: &[&str],
    helpers: &[String],
    depth: usize,
    ind: usize,
) {
    let choice = rng.range_u64(0..10);
    match choice {
        0..=3 => gen_mpi(rng, out, vars, ind),
        4 | 5 if depth > 0 => {
            // A for loop; bound may be rank-dependent.
            let var = format!("i{depth}{ind}");
            let hi = match rng.range_u64(0..3) {
                0 => format!("{}", rng.range_i64(1..7)),
                1 => "rank() + 1".to_string(),
                _ => format!("{} + rank() % 3", rng.range_i64(1..4)),
            };
            indent(out, ind);
            writeln!(out, "for {var} in 0..{hi} {{").unwrap();
            let mut vars2: Vec<&str> = vars.to_vec();
            vars2.push(&var);
            gen_block(rng, out, &vars2, helpers, depth - 1, ind + 1);
            indent(out, ind);
            writeln!(out, "}}").unwrap();
        }
        6 | 7 if depth > 0 => {
            indent(out, ind);
            writeln!(out, "if {} {{", gen_cond(rng, vars)).unwrap();
            gen_block(rng, out, vars, helpers, depth - 1, ind + 1);
            indent(out, ind);
            if rng.chance(0.5) {
                writeln!(out, "}} else {{").unwrap();
                gen_block(rng, out, vars, helpers, depth - 1, ind + 1);
                indent(out, ind);
            }
            writeln!(out, "}}").unwrap();
        }
        8 if !helpers.is_empty() => {
            indent(out, ind);
            let h = &helpers[rng.range_usize(0..helpers.len())];
            writeln!(out, "{h}({});", gen_int_expr(rng, vars)).unwrap();
        }
        _ => {
            indent(out, ind);
            writeln!(out, "compute({});", rng.range_i64(1..5000)).unwrap();
        }
    }
}
