//! # cypress-workloads — benchmark communication skeletons in MiniMPI
//!
//! MiniMPI implementations of the communication behaviour of the paper's
//! evaluation programs: the NAS Parallel Benchmarks (BT, CG, DT, EP, FT, LU,
//! MG, SP — §VII, Fig. 15–18, Table I) and the LESlie3d CFD application
//! (§VII-D, Fig. 19–21), plus the Jacobi example of Fig. 3. Each skeleton
//! reproduces the *communication structure* that drives compression
//! behaviour — loop nesting, branch irregularity, neighbour topology, and
//! parameter variability across ranks and iterations — with iteration
//! counts scaled for laptop runs ([`Scale::Quick`]) or paper-shaped runs
//! ([`Scale::Paper`]).

pub mod jacobi;
pub mod leslie3d;
pub mod npb;

use cypress_cst::{analyze_program, StaticInfo};
use cypress_minilang::ast::Program;
use cypress_minilang::{check_program, parse};
use cypress_runtime::{trace_program, trace_program_parallel, InterpConfig, RunResult};
use cypress_trace::raw::RawTrace;

/// Iteration-count scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced step counts for tests and quick runs.
    Quick,
    /// Paper-shaped step counts (CLASS-D-like iteration structure).
    Paper,
}

impl Scale {
    /// Scale a paper step count.
    pub fn steps(&self, paper: u32) -> u32 {
        match self {
            Scale::Quick => (paper / 25).max(3),
            Scale::Paper => paper,
        }
    }
}

/// A ready-to-run workload: a MiniMPI program plus its process count.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: String,
    pub source: String,
    pub nprocs: u32,
}

impl Workload {
    pub fn new(name: impl Into<String>, source: String, nprocs: u32) -> Self {
        Workload {
            name: name.into(),
            source,
            nprocs,
        }
    }

    /// Parse, check, and statically analyze the program.
    pub fn compile(&self) -> (Program, StaticInfo) {
        let prog = parse(&self.source)
            .unwrap_or_else(|e| panic!("workload {}: parse error: {e}", self.name));
        check_program(&prog).unwrap_or_else(|e| panic!("workload {}: check error: {e}", self.name));
        let info = analyze_program(&prog);
        (prog, info)
    }

    /// Trace all ranks one at a time: the rank pool with one worker.
    pub fn trace(&self) -> RunResult<Vec<RawTrace>> {
        let (prog, info) = self.compile();
        trace_program(&prog, &info, self.nprocs, &InterpConfig::default())
    }

    /// Trace all ranks across worker threads.
    pub fn trace_parallel(&self, threads: usize) -> RunResult<Vec<RawTrace>> {
        let (prog, info) = self.compile();
        trace_program_parallel(&prog, &info, self.nprocs, &InterpConfig::default(), threads)
    }
}

/// Names of the NPB skeletons, in the paper's order.
pub const NPB_NAMES: [&str; 8] = ["bt", "cg", "dt", "ep", "ft", "lu", "mg", "sp"];

/// Look up a workload by name. Returns `None` for unknown names; panics if
/// `nprocs` is invalid for that benchmark (see each constructor).
pub fn by_name(name: &str, nprocs: u32, scale: Scale) -> Option<Workload> {
    Some(match name {
        "jacobi" => jacobi::jacobi(nprocs, scale),
        "bt" => npb::bt(nprocs, scale),
        "cg" => npb::cg(nprocs, scale),
        "dt" => npb::dt(nprocs, scale),
        "ep" => npb::ep(nprocs, scale),
        "ft" => npb::ft(nprocs, scale),
        "lu" => npb::lu(nprocs, scale),
        "mg" => npb::mg(nprocs, scale),
        "sp" => npb::sp(nprocs, scale),
        "leslie3d" => leslie3d::leslie3d(nprocs, scale),
        _ => return None,
    })
}

/// The process counts each benchmark uses in the paper's figures.
pub fn paper_procs(name: &str) -> &'static [u32] {
    match name {
        "bt" | "sp" => &[64, 121, 256, 400],
        "dt" => &[48, 64, 128, 256],
        "leslie3d" => &[32, 64, 128, 256, 512],
        _ => &[64, 128, 256, 512],
    }
}

/// Small process counts valid for each benchmark (used by tests).
pub fn quick_procs(name: &str) -> u32 {
    match name {
        "bt" | "sp" => 9,
        "dt" => 8,
        "leslie3d" => 16,
        _ => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_compiles_and_traces_quick() {
        for name in NPB_NAMES.iter().chain(["jacobi", "leslie3d"].iter()) {
            let w = by_name(name, quick_procs(name), Scale::Quick)
                .unwrap_or_else(|| panic!("unknown workload {name}"));
            let traces = w
                .trace()
                .unwrap_or_else(|e| panic!("workload {name} failed: {e}"));
            assert_eq!(traces.len(), w.nprocs as usize);
            let total: usize = traces.iter().map(|t| t.mpi_count()).sum();
            assert!(total > 0, "workload {name} produced no MPI events");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("nope", 4, Scale::Quick).is_none());
    }

    #[test]
    fn scale_quick_reduces_steps() {
        assert!(Scale::Quick.steps(250) < Scale::Paper.steps(250));
        assert!(Scale::Quick.steps(250) >= 3);
    }
}
