//! What compile-time slot resolution must preserve, seen from outside the
//! interpreter: lexical scoping as the name-keyed scopes gave it, run-time
//! failures (never panics) for a program that skipped `check_program`, the
//! step budget's meaning, and arithmetic on the program's own numbers that
//! saturates instead of wrapping.

use cypress::cst::analyze_program;
use cypress::minilang::{check_program, parse};
use cypress::runtime::{run_rank_with_sink, trace_program, InterpConfig};
use cypress::trace::event::{Event, MpiRecord};

/// Trace rank 0 of 1 of a checked program.
fn records(src: &str) -> Vec<MpiRecord> {
    let prog = parse(src).expect("parses");
    check_program(&prog).expect("checks");
    let info = analyze_program(&prog);
    let traces = trace_program(&prog, &info, 1, &InterpConfig::default()).expect("traces");
    traces[0].mpi_records().cloned().collect()
}

/// The `count` of every MPI record: programs below report a variable's
/// value as the size of an `allreduce`.
fn counts(src: &str) -> Vec<i64> {
    records(src).iter().map(|r| r.params.count).collect()
}

/// Run rank 0 of 1 *without* `check_program`, with `max_steps` steps:
/// the events emitted before it stopped, and how it ended.
fn unchecked(src: &str, max_steps: u64) -> (Vec<Event>, Result<u64, String>) {
    let prog = parse(src).expect("parses");
    let info = analyze_program(&prog);
    let cfg = InterpConfig { max_steps };
    let mut events: Vec<Event> = Vec::new();
    let end = run_rank_with_sink(&prog, &info, 0, 1, &cfg, &mut events);
    (events, end.map_err(|e| e.to_string()))
}

// ── scoping ────────────────────────────────────────────────────────────

#[test]
fn nested_let_shadows_and_the_outer_binding_returns_after_the_block() {
    let src = "fn main() { let x = 1; if x > 0 { let x = 2; allreduce(x); } allreduce(x); }";
    assert_eq!(counts(src), [2, 1]);
}

#[test]
fn second_let_of_a_name_in_one_scope_wins_and_may_read_the_first() {
    let src = "fn main() { let x = 1; let x = x + 10; allreduce(x); }";
    assert_eq!(counts(src), [11]);
}

#[test]
fn for_variable_is_fresh_per_iteration_and_assigning_it_keeps_the_trip_count() {
    let src = "fn main() { for i in 0..3 { allreduce(i); i = i + 10; allreduce(i); } }";
    assert_eq!(counts(src), [0, 10, 1, 11, 2, 12]);
}

#[test]
fn inner_blocks_assign_to_outer_variables() {
    let src = "fn main() {
        let s = 0;
        for i in 0..4 { if i > 0 { s = s + i; } }
        allreduce(s);
    }";
    assert_eq!(counts(src), [6]);
}

#[test]
fn a_read_before_the_let_of_the_same_name_in_a_loop_body_sees_the_outer_binding() {
    let src = "fn main() {
        let x = 1;
        for i in 0..2 { allreduce(x); let x = 50 + i; allreduce(x); }
        allreduce(x);
    }";
    assert_eq!(counts(src), [1, 50, 1, 51, 1]);
}

#[test]
fn sibling_blocks_reuse_slots_without_leaking_values() {
    let src = "fn main() {
        let k = 3;
        if k > 0 { let a = 5; allreduce(a); }
        if k > 0 { let b = 6; let c = 7; allreduce(b * 10 + c); }
        allreduce(k);
    }";
    assert_eq!(counts(src), [5, 67, 3]);
}

#[test]
fn live_recursion_frames_hold_independent_locals() {
    let src = "fn f(n) { let mine = n * 10; if n > 0 { f(n - 1); } allreduce(mine); }
               fn main() { f(2); }";
    assert_eq!(counts(src), [0, 10, 20]);
}

#[test]
fn locals_shadow_parameters_and_calls_in_argument_position_nest() {
    let src = "fn f(a) {
                   allreduce(a);
                   let a = a + 100;
                   allreduce(a);
                   if a > 0 { let a = 7; allreduce(a); }
                   allreduce(a);
               }
               fn add(a, b) { return a + b; }
               fn main() { f(1); allreduce(add(add(1, 2), add(3, add(4, 5)))); }";
    assert_eq!(counts(src), [1, 101, 7, 101, 15]);
}

// ── the unchecked path ─────────────────────────────────────────────────

/// MPI ops emitted before the run ended.
fn ops_before(events: &[Event]) -> usize {
    events.iter().filter(|e| e.as_mpi().is_some()).count()
}

#[test]
fn unchecked_programs_fail_at_the_executing_statement_with_a_runtime_error() {
    for (src, want) in [
        (
            "fn main() { barrier(); compute(y); barrier(); }",
            "runtime error: undefined variable `y`",
        ),
        (
            "fn main() { barrier(); y = 3; barrier(); }",
            "runtime error: assignment to undefined `y`",
        ),
        (
            "fn main() { barrier(); nope(1); barrier(); }",
            "runtime error: call to undefined `nope`",
        ),
        (
            "fn f(a, b) { } fn main() { barrier(); f(1); barrier(); }",
            "runtime error: arity mismatch calling `f`",
        ),
        (
            "fn main() { barrier(); send(0, 2); barrier(); }",
            "runtime error: arity mismatch calling `send`",
        ),
        (
            "fn main() { barrier(); wait(3); barrier(); }",
            "runtime error: expected request, got Int(3)",
        ),
        (
            "fn main() { barrier(); if 1 { barrier(); } }",
            "runtime error: expected bool, got Int(1)",
        ),
        // A `let` that never ran leaves its name undefined, even though a
        // later block declares the same name at the same depth.
        (
            "fn main() { barrier(); if rank() > 9 { let y = 1; } compute(y); }",
            "runtime error: undefined variable `y`",
        ),
    ] {
        let (events, end) = unchecked(src, 10_000);
        assert_eq!(end, Err(want.to_string()), "{src}");
        assert_eq!(
            ops_before(&events),
            1,
            "{src}: stops where the name executes"
        );
    }
}

#[test]
fn unchecked_errors_in_code_that_never_executes_do_not_fire() {
    for src in [
        "fn main() { if rank() > 9 { compute(y); y = 1; nope(); } barrier(); }",
        "fn f(a) { } fn main() { for i in 0..0 { f(); send(1); } barrier(); }",
    ] {
        let (events, end) = unchecked(src, 10_000);
        assert!(end.is_ok(), "{src}: {end:?}");
        assert_eq!(ops_before(&events), 1, "{src}");
    }
}

#[test]
fn runaway_while_trips_the_step_budget() {
    let (_, end) = unchecked("fn main() { while true { } }", 1_000);
    assert_eq!(
        end,
        Err("runtime error: step budget of 1000 exhausted (runaway loop?)".to_string())
    );
}

/// One tick per executed statement, loop iteration and expression node: this
/// program costs exactly `STEPS`, counted before the interpreter was
/// rewritten.
#[test]
fn the_step_budget_counts_statements_iterations_and_expression_nodes() {
    const SRC: &str = "fn next(r) { return (r + 1) % size(); }
        fn main() {
            let r = rank();
            for k in 0..3 {
                let a = isend(next(r), 64 * (k + 1), k);
                let b = irecv(any_source(), 64, k);
                if k % 2 == 0 && r >= 0 { waitall(a, b); } else { waitany(a, b); wait(b); }
            }
            let i = 0;
            while i < 2 { compute(i); i = i + 1; }
            barrier();
        }";
    const STEPS: u64 = 143;
    let (_, exact) = unchecked(SRC, STEPS);
    assert!(exact.is_ok(), "{exact:?}");
    let (_, short) = unchecked(SRC, STEPS - 1);
    assert_eq!(
        short,
        Err(format!(
            "runtime error: step budget of {} exhausted (runaway loop?)",
            STEPS - 1
        ))
    );
}

// ── arithmetic on the program's own numbers ────────────────────────────

#[test]
fn for_induction_past_i64_ends_the_loop() {
    // 0, then 9223372036854775806 (< end), then the next value is past i64.
    let src = "fn main() {
        for i in 0..9223372036854775807 step 9223372036854775806 { allreduce(i); }
        for i in 0..(0 - 9223372036854775807) step 0 - 9223372036854775806 { allreduce(i); }
    }";
    assert_eq!(
        counts(src),
        [0, 9223372036854775806, 0, -9223372036854775806]
    );
}

#[test]
fn sendrecv_of_two_huge_counts_saturates_its_duration() {
    let recs = records(
        "fn main() {
            sendrecv(0, 1073741824, 1, 0, 1073741824, 1);
            sendrecv(0, 9223372036854775807, 1, 0, 9223372036854775807, 1);
        }",
    );
    assert!(
        recs[1].dur > recs[0].dur,
        "{} bytes took {} ns, 2 GiB took {} ns",
        u64::MAX,
        recs[1].dur,
        recs[0].dur
    );
}

#[test]
fn send_of_a_huge_count_saturates_its_duration_and_the_clock() {
    // 2^62 bytes × 400 is a multiple of 2^64: it used to wrap to no time at
    // all.
    let recs = records(
        "fn main() {
            send(0, 1073741824, 1);
            for i in 0..2000 { send(0, 4611686018427387904, 1); }
        }",
    );
    assert!(
        recs[1].dur > recs[0].dur,
        "2^62 bytes took {} ns",
        recs[1].dur
    );
    assert!(recs.windows(2).all(|w| w[0].t_start <= w[1].t_start));
}

#[test]
fn compute_of_a_huge_cost_saturates_the_clock() {
    let prog = parse("fn main() { for i in 0..64 { compute(9223372036854775807); } barrier(); }")
        .expect("parses");
    check_program(&prog).expect("checks");
    let info = analyze_program(&prog);
    let traces = trace_program(&prog, &info, 4, &InterpConfig::default()).expect("traces");
    assert!(traces.iter().all(|t| t.app_time == u64::MAX));
}
