//! The six workloads. Each is one function from a run context to an
//! outcome: set up (timed as `setup_s`), warm up, repeat the timed region,
//! check the outputs, and — in a traced run — measure the layers it uses.

pub mod collect;
pub mod local;
pub mod queryd;

use crate::harness::{Ctx, Outcome};

pub fn run(ctx: &Ctx) -> Outcome {
    match ctx.workload {
        "local-regular" => local::run(ctx, local::Family::Regular),
        "local-irregular" => local::run(ctx, local::Family::Irregular),
        "collect-stream" => collect::run_stream(ctx),
        "collect-ctt-tree" => collect::run_tree(ctx),
        "queryd-hot" => queryd::run(ctx, queryd::Mix::Hot),
        "queryd-churn" => queryd::run(ctx, queryd::Mix::Churn),
        other => unreachable!("workload {other} is not in the catalogue"),
    }
}
