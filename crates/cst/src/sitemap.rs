//! The instrumentation site map — compile-time output consumed at runtime.
//!
//! The paper instruments the program with `PMPI_COMM_Structure(type, id)` /
//! `..._Exit(id)` calls carrying the CST GID of each control structure as a
//! compile-time constant. In this reproduction the "instrumented program" is
//! the original AST plus this map: because inter-procedural inlining copies a
//! function's subtree once per (transitive) call site, a single AST node can
//! correspond to several CST vertices — one per *call path*. The interpreter
//! therefore keeps a current [`PathId`] (an interned chain of call sites)
//! and asks for `(path, ast-node)` here to learn which GID to emit, exactly
//! as the inserted instrumentation calls would report.
//!
//! The answer is three loads, not a hash. Every loop, branch arm, MPI call
//! and user call of a function is a *site*, numbered densely within its
//! function (`site_of`, indexed by AST node; 0 for nodes that are not
//! sites). A path lies in exactly one function, so it owns one row of
//! `table` with a cell per site of that function, and
//! `table[path_base[path] + site_of[node]]` is the constant the
//! instrumentation call would have carried. Rows are as long as their
//! function has sites, so the map is as large as the inlined tree the
//! analysis already built — never paths × nodes.

use crate::tree::{Arm, Gid};
use cypress_minilang::ast::NodeId;

/// Interned call path (chain of call-site expression ids from `main`).
/// `PathId(0)` is the empty path (code in `main` itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

pub const ROOT_PATH: PathId = PathId(0);

/// Cells 0 and 1 of every path's row stay empty: a node that is no site has
/// site index 0, and an `if` that is none still adds its arm to that.
pub(crate) const FIRST_SITE: u32 = 2;

/// Set in a user-call cell, whose low bits index `SiteMap::actions`; clear
/// in a loop, branch-arm or MPI cell, which holds a GID.
pub(crate) const ACTION_CELL: u32 = 1 << 31;

/// What the runtime does when it executes a user-function call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallAction {
    /// Plain (non-recursive) call: descend into `path`.
    Inline { path: PathId },
    /// First entry into a recursive function: each invocation is one
    /// iteration of the pseudo loop `pseudo` (emit `Enter`), and the
    /// matching `Exit` fires when the *outermost* invocation returns.
    /// `pseudo` is `None` when the pseudo loop was pruned (no MPI inside).
    EnterRecursive { pseudo: Option<Gid>, path: PathId },
    /// A recursive re-invocation (the callee is already on the inline
    /// stack): emit another `Enter` of the pseudo loop — the next
    /// iteration — and continue at `path` (the callee's body path).
    BackCall { pseudo: Option<Gid>, path: PathId },
}

/// Compile-time map from `(call path, AST node)` to CST GIDs and call
/// actions. A cell is set only for a vertex that survived pruning; an empty
/// cell means "emit nothing" (the structure contains no MPI).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SiteMap {
    /// AST node → its site index within its function; 0 for non-sites. An
    /// `if` takes two consecutive sites, `Then` first.
    pub(crate) site_of: Vec<u32>,
    /// Path → offset of its row in `table`; one entry per call path, `main`
    /// itself first.
    pub(crate) path_base: Vec<u32>,
    /// Loop, branch-arm and MPI sites hold the GID (0, the root, for a
    /// pruned vertex); user-call sites hold [`ACTION_CELL`] | an index into
    /// `actions`.
    pub(crate) table: Vec<u32>,
    /// Call actions, in table order.
    pub(crate) actions: Vec<CallAction>,
}

impl SiteMap {
    /// The cell of site `node` (+ `arm` for a branch) in `path`'s row; 0 for
    /// anything the analysis never saw, never a panic.
    fn cell(&self, path: PathId, node: NodeId, arm: usize) -> u32 {
        let site = self.site_of.get(node.0 as usize).copied().unwrap_or(0);
        let base = self.path_base.get(path.0 as usize).copied().unwrap_or(0);
        let at = base as usize + site as usize + arm;
        self.table.get(at).copied().unwrap_or(0)
    }

    fn gid(&self, path: PathId, node: NodeId, arm: usize) -> Option<Gid> {
        match self.cell(path, node, arm) {
            0 => None,
            c if c & ACTION_CELL != 0 => None,
            g => Some(Gid(g)),
        }
    }

    pub fn loop_gid(&self, path: PathId, stmt: NodeId) -> Option<Gid> {
        self.gid(path, stmt, 0)
    }

    pub fn branch_gid(&self, path: PathId, stmt: NodeId, arm: Arm) -> Option<Gid> {
        self.gid(path, stmt, arm as usize)
    }

    pub fn mpi_gid(&self, path: PathId, call_expr: NodeId) -> Option<Gid> {
        self.gid(path, call_expr, 0)
    }

    pub fn call_action(&self, path: PathId, call_expr: NodeId) -> Option<CallAction> {
        let c = self.cell(path, call_expr, 0);
        if c & ACTION_CELL == 0 {
            return None;
        }
        self.actions.get((c & !ACTION_CELL) as usize).copied()
    }

    /// Total number of instrumentation entries (a proxy for the size of the
    /// compile-time artifact).
    pub fn entry_count(&self) -> usize {
        self.table.iter().filter(|&&c| c != 0).count()
    }
}
