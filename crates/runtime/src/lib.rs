//! # cypress-runtime — instrumented SPMD execution substrate
//!
//! The dynamic half of the tracing pipeline: a deterministic per-rank
//! interpreter of MiniMPI programs that emits the same event stream the
//! paper's PMPI-based library would observe — `PMPI_COMM_Structure`-style
//! enter/exit markers around every (surviving) control structure, plus one
//! [`cypress_trace::MpiRecord`] per MPI invocation, with request handles
//! mapped to posting-operation GIDs.
//!
//! Ranks execute independently (MiniMPI control flow never depends on
//! message payloads); message matching, wildcard resolution, and global
//! timing live in `cypress-simmpi`.

pub mod driver;
pub mod interp;
pub mod sched;

pub use driver::{run_rank_with_sink, trace_program, trace_program_parallel};
pub use interp::{has_op, well_nested, EventSink, Interp, InterpConfig, RunResult, RuntimeError};
pub use sched::{run_ranks, DEFAULT_BATCH_EVENTS, WORKER_STACK_BYTES};
