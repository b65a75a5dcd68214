//! # cypress-minilang — the MiniMPI language front end
//!
//! MiniMPI is a small C-like SPMD language standing in for "C/Fortran + MPI
//! compiled by LLVM" in this reproduction of the SC'14 CYPRESS paper. It
//! expresses exactly what CYPRESS's static analysis consumes — loops,
//! branches, user function calls (including recursion), and MPI invocations —
//! plus integer/boolean expressions over `rank()`/`size()` so control flow
//! can depend on the process rank, as in real MPI codes.
//!
//! ```
//! use cypress_minilang::{parse, check_program};
//!
//! let prog = parse(r#"
//!     fn main() {
//!         let r = rank();
//!         for k in 0..10 {
//!             if r < size() - 1 { send(r + 1, 1024, 0); }
//!             if r > 0 { recv(r - 1, 1024, 0); }
//!             compute(100);
//!         }
//!     }
//! "#).unwrap();
//! check_program(&prog).unwrap();
//! assert_eq!(prog.funcs.len(), 1);
//! ```

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod token;

pub use ast::{
    BinOp, Block, Builtin, Call, Callee, Expr, ExprKind, Func, NodeId, Program, Stmt, StmtKind,
    Type, UnOp,
};
pub use error::{LangError, Result};
pub use parser::parse_program;
pub use pretty::{print_program, structurally_equal};
pub use resolve::{check_program, resolve_program, Resolved};

/// Parse MiniMPI source into an AST (no semantic checks).
pub fn parse(src: &str) -> Result<Program> {
    parser::parse_program(src)
}

/// Parse and type check MiniMPI source.
pub fn compile(src: &str) -> Result<(Program, Resolved)> {
    let prog = parse(src)?;
    let resolved = check_program(&prog)?;
    Ok((prog, resolved))
}
