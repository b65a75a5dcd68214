//! Algorithm 2 — inter-procedural CST construction.
//!
//! Combines the per-procedure intermediate CSTs into the whole-program CST by
//! replacing every user-defined-function leaf with the callee's tree. The
//! paper iterates a work-list bottom-up over the program call graph until no
//! `UserCall` vertex remains; this implementation performs the equivalent
//! expansion as a top-down recursive copy from `main`, which visits exactly
//! the vertices the fixed point would produce, one call-path at a time —
//! and simultaneously records the [`SiteMap`] entries the runtime needs.
//!
//! Recursion (paper §III-B, Fig. 8): on the first entry into a recursive
//! function a *pseudo loop* vertex is inserted at its entry point; call sites
//! that re-enter a function already being inlined are cut (each re-invocation
//! becomes one more iteration of the pseudo loop at runtime).
//!
//! After expansion the tree is pruned (every leaf must be an MPI invocation)
//! and GIDs are assigned in pre-order.

use crate::build_ast::build_intra_ast;
use crate::build_cfg::build_intra_cfg;
use crate::sitemap::{CallAction, PathId, SiteMap, ACTION_CELL, FIRST_SITE, ROOT_PATH};
use crate::tree::{Cst, Gid, VertexKind};
use cypress_minilang::ast::{NodeId, Program};
use cypress_minilang::{resolve_program, Resolved};
use cypress_staticir::callgraph::CallGraph;
use std::collections::HashMap;

/// The complete static-analysis output for one program: the finalized
/// whole-program CST, the runtime instrumentation map, and the frame slots
/// name resolution assigned — everything the interpreter indexes instead of
/// looking up.
#[derive(Debug, Clone)]
pub struct StaticInfo {
    pub cst: Cst,
    pub sitemap: SiteMap,
    pub resolved: Resolved,
}

/// Which intra-procedural builder to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraBuilder {
    /// CFG + dominators (Algorithm 1) — the production pipeline.
    Cfg,
    /// Direct AST walk — the test oracle.
    Ast,
}

/// Run the full static analysis (intra- + inter-procedural) on a checked
/// program, using the CFG-based Algorithm 1.
pub fn analyze_program(prog: &Program) -> StaticInfo {
    analyze_program_with(prog, IntraBuilder::Cfg)
}

/// Number each function's sites — every vertex origin of its intermediate
/// CST — from [`FIRST_SITE`]; returns the per-node index and each function's
/// row length.
fn number_sites(prog: &Program, intra: &[Cst]) -> (Vec<u32>, Vec<u32>) {
    let mut site_of = vec![0u32; prog.node_count as usize];
    let row_len = intra
        .iter()
        .map(|cst| {
            let mut next = FIRST_SITE;
            for v in &cst.vertices {
                let (origin, width) = match &v.kind {
                    VertexKind::Root => continue,
                    VertexKind::Loop { origin, .. }
                    | VertexKind::Mpi { origin, .. }
                    | VertexKind::UserCall { origin, .. } => (*origin, 1),
                    // Both arms, `Then` first, whichever the tree kept.
                    VertexKind::Branch { origin, .. } => (*origin, 2),
                };
                let site = &mut site_of[origin.0 as usize];
                if *site == 0 {
                    *site = next;
                    next += width;
                }
            }
            next
        })
        .collect();
    (site_of, row_len)
}

/// Run the full static analysis with an explicit intra-procedural builder.
pub fn analyze_program_with(prog: &Program, builder: IntraBuilder) -> StaticInfo {
    let intra: Vec<Cst> = prog
        .funcs
        .iter()
        .map(|f| match builder {
            IntraBuilder::Cfg => build_intra_cfg(f),
            IntraBuilder::Ast => build_intra_ast(f),
        })
        .collect();
    let cg = CallGraph::build(prog);
    let (site_of, row_len) = number_sites(prog, &intra);

    let mut inl = Inliner {
        prog,
        intra: &intra,
        cg: &cg,
        tree: Cst::with_root(),
        site_of: &site_of,
        row_len: &row_len,
        path_base: Vec::new(),
        table: Vec::new(),
        active: HashMap::new(),
    };
    let main_idx = prog.func_index("main").expect("checked programs have main");
    let root_path = inl.fresh_path(main_idx);
    debug_assert_eq!(root_path, ROOT_PATH);
    let root = inl.tree.root();
    inl.inline_func(main_idx, ROOT_PATH, root);

    let Inliner {
        tree,
        path_base,
        table,
        ..
    } = inl;
    let (cst, map) = tree.prune_and_finalize();

    // Rewrite raw vertex indices into final GIDs, dropping pruned entries.
    let remap = |v: usize| -> Option<Gid> { map[v].map(|nv| Gid(nv as u32)) };
    let mut actions = Vec::new();
    let table = table
        .into_iter()
        .map(|cell| {
            let action = match cell {
                RawCell::Empty => return 0,
                RawCell::Vertex(v) => return remap(v).map_or(0, |g| g.0),
                RawCell::Inline { path } => CallAction::Inline { path },
                RawCell::EnterRecursive { pseudo, path } => CallAction::EnterRecursive {
                    pseudo: remap(pseudo),
                    path,
                },
                RawCell::BackCall { pseudo, path } => CallAction::BackCall {
                    pseudo: remap(pseudo),
                    path,
                },
            };
            actions.push(action);
            ACTION_CELL | (actions.len() - 1) as u32
        })
        .collect();
    StaticInfo {
        cst,
        sitemap: SiteMap {
            site_of,
            path_base,
            table,
            actions,
        },
        resolved: resolve_program(prog).0,
    }
}

/// One cell of the site table before pruning: vertices are indices into the
/// unpruned tree.
#[derive(Clone)]
enum RawCell {
    Empty,
    Vertex(usize),
    Inline { path: PathId },
    EnterRecursive { pseudo: usize, path: PathId },
    BackCall { pseudo: usize, path: PathId },
}

struct Inliner<'a> {
    prog: &'a Program,
    intra: &'a [Cst],
    cg: &'a CallGraph,
    tree: Cst,
    site_of: &'a [u32],
    row_len: &'a [u32],
    path_base: Vec<u32>,
    table: Vec<RawCell>,
    /// Functions currently being inlined → (pseudo-loop vertex, body path).
    /// Only recursive functions are registered here.
    active: HashMap<usize, (usize, PathId)>,
}

impl Inliner<'_> {
    /// A new path through `fidx`, with an empty row of that function's sites.
    fn fresh_path(&mut self, fidx: usize) -> PathId {
        let id = PathId(self.path_base.len() as u32);
        self.path_base.push(self.table.len() as u32);
        let end = self.table.len() + self.row_len[fidx] as usize;
        self.table.resize(end, RawCell::Empty);
        id
    }

    /// Fill the cell of site `origin` (+ `arm` for a branch) in `path`'s row.
    fn set(&mut self, path: PathId, origin: NodeId, arm: u32, cell: RawCell) {
        let at = self.path_base[path.0 as usize] + self.site_of[origin.0 as usize] + arm;
        self.table[at as usize] = cell;
    }

    /// Copy the body of `fidx`'s intra-procedural CST under `parent`.
    fn inline_func(&mut self, fidx: usize, path: PathId, parent: usize) {
        let intra = &self.intra[fidx];
        if intra.is_empty() {
            return;
        }
        let root_children: Vec<usize> = intra.vertex(intra.root()).children.clone();
        for c in root_children {
            self.copy_vertex(fidx, c, path, parent);
        }
    }

    fn copy_vertex(&mut self, fidx: usize, v: usize, path: PathId, parent: usize) {
        let kind = self.intra[fidx].vertex(v).kind.clone();
        match kind {
            VertexKind::Root => unreachable!("root is never copied"),
            VertexKind::Loop { origin, pseudo } => {
                let nv = self.tree.add(parent, VertexKind::Loop { origin, pseudo });
                self.set(path, origin, 0, RawCell::Vertex(nv));
                self.copy_children(fidx, v, path, nv);
            }
            VertexKind::Branch { origin, arm } => {
                let nv = self.tree.add(parent, VertexKind::Branch { origin, arm });
                self.set(path, origin, arm as u32, RawCell::Vertex(nv));
                self.copy_children(fidx, v, path, nv);
            }
            VertexKind::Mpi { origin, op } => {
                let nv = self.tree.add(parent, VertexKind::Mpi { origin, op });
                self.set(path, origin, 0, RawCell::Vertex(nv));
            }
            VertexKind::UserCall { origin, name } => {
                // A call to a function that does not exist (the program
                // skipped the check) gets no action; the interpreter reports
                // it when — if — the call executes.
                let Some(callee) = self.prog.func_index(&name) else {
                    return;
                };
                if let Some(&(pseudo, body_path)) = self.active.get(&callee) {
                    // Re-entering a function on the inline stack: cut the
                    // recursion. No vertex is created — at runtime this call
                    // is the next iteration of the callee's pseudo loop.
                    self.set(
                        path,
                        origin,
                        0,
                        RawCell::BackCall {
                            pseudo,
                            path: body_path,
                        },
                    );
                } else if self.cg.recursive[callee] {
                    let new_path = self.fresh_path(callee);
                    let pseudo = self.tree.add(
                        parent,
                        VertexKind::Loop {
                            origin: self.prog.funcs[callee].id,
                            pseudo: true,
                        },
                    );
                    self.set(
                        path,
                        origin,
                        0,
                        RawCell::EnterRecursive {
                            pseudo,
                            path: new_path,
                        },
                    );
                    self.active.insert(callee, (pseudo, new_path));
                    self.inline_func(callee, new_path, pseudo);
                    self.active.remove(&callee);
                } else {
                    let new_path = self.fresh_path(callee);
                    self.set(path, origin, 0, RawCell::Inline { path: new_path });
                    // Splice the callee's children in place of the call.
                    self.inline_func(callee, new_path, parent);
                }
            }
        }
    }

    fn copy_children(&mut self, fidx: usize, v: usize, path: PathId, new_parent: usize) {
        let children: Vec<usize> = self.intra[fidx].vertex(v).children.clone();
        for c in children {
            self.copy_vertex(fidx, c, path, new_parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Arm;
    use cypress_minilang::{check_program, parse};

    fn analyze(src: &str) -> StaticInfo {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        analyze_program(&p)
    }

    /// The paper's running example (Fig. 5 → Fig. 7): after inlining `bar`
    /// and pruning `foo`, the final CST matches Fig. 7.
    #[test]
    fn paper_fig7_complete_cst() {
        let info = analyze(
            r#"
            fn bar() {
                for k in 0..5 { bcast(0, 4); }
            }
            fn foo() {
                let sum = 0;
                for j in 0..7 { sum = sum + j; }
            }
            fn main() {
                for i in 0..10 {
                    if rank() % 2 == 0 { send(rank() + 1, 4, 0); }
                    else { recv(rank() - 1, 4, 0); }
                    bar();
                }
                foo();
                if rank() % 2 == 0 { reduce(0, 4); }
            }
        "#,
        );
        assert_eq!(
            info.cst.to_compact_string(),
            "Root(Loop(BrT(Mpi:MPI_Send) BrE(Mpi:MPI_Recv) Loop(Mpi:MPI_Bcast)) BrT(Mpi:MPI_Reduce))"
        );
        // GIDs are dense pre-order: Fig. 7 numbering (0..=9) minus the nodes
        // that only exist pre-pruning.
        assert!(info.cst.is_preorder());
        assert_eq!(info.cst.mpi_leaf_count(), 4);
    }

    #[test]
    fn same_function_two_sites_gets_two_subtrees() {
        let info = analyze(
            r#"
            fn halo() { sendrecv(rank() + 1, 8, 0, rank() - 1, 8, 0); }
            fn main() { halo(); barrier(); halo(); }
        "#,
        );
        assert_eq!(
            info.cst.to_compact_string(),
            "Root(Mpi:MPI_Sendrecv Mpi:MPI_Barrier Mpi:MPI_Sendrecv)"
        );
        // Two distinct paths exist for the two call sites.
        assert!(info.sitemap.path_base.len() >= 3);
    }

    #[test]
    fn recursion_gets_pseudo_loop_fig8() {
        let info = analyze(
            r#"
            fn walk(n) {
                if n == 0 {
                } else if n < 5 {
                    bcast(0, 8);
                    reduce(0, 8);
                    walk(n - 1);
                } else {
                    bcast(0, 8);
                    walk(n - 1);
                    reduce(0, 8);
                }
            }
            fn main() { walk(7); }
        "#,
        );
        // A pseudo loop wraps walk's body; the recursive call sites create
        // no vertices (Fig. 8 conversion).
        let s = info.cst.to_compact_string();
        assert!(
            s.starts_with("Root(PseudoLoop("),
            "expected pseudo loop at entry, got {s}"
        );
        assert_eq!(info.cst.mpi_leaf_count(), 4);
        // The two recursive call sites are BackCall actions.
        let back_calls = info
            .sitemap
            .actions
            .iter()
            .filter(|a| matches!(a, CallAction::BackCall { .. }))
            .count();
        assert_eq!(back_calls, 2);
        let enters = info
            .sitemap
            .actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    CallAction::EnterRecursive {
                        pseudo: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(enters, 1);
    }

    #[test]
    fn mutual_recursion_single_pseudo_loop_at_entry() {
        let info = analyze(
            r#"
            fn ping(n) { if n > 0 { send(1, 4, 0); pong(n - 1); } }
            fn pong(n) { if n > 0 { recv(0, 4, 0); ping(n - 1); } }
            fn main() { ping(6); }
        "#,
        );
        let s = info.cst.to_compact_string();
        // ping wraps in a pseudo loop; pong is inlined within (it is
        // entered fresh from ping), and pong's call back to ping is cut.
        assert_eq!(
            s,
            "Root(PseudoLoop(BrT(Mpi:MPI_Send PseudoLoop(BrT(Mpi:MPI_Recv)))))"
        );
    }

    #[test]
    fn functions_without_mpi_vanish() {
        let info = analyze(
            r#"
            fn noise() { let x = 1; for i in 0..3 { x = x * 2; } }
            fn main() { noise(); barrier(); noise(); }
        "#,
        );
        assert_eq!(info.cst.to_compact_string(), "Root(Mpi:MPI_Barrier)");
    }

    #[test]
    fn sitemap_covers_every_final_vertex() {
        let info = analyze(
            r#"
            fn halo(dir) {
                if rank() + dir >= 0 { send(rank() + dir, 64, 0); }
                if rank() - dir >= 0 { recv(rank() - dir, 64, 0); }
            }
            fn main() {
                for s in 0..20 { halo(1); halo(0 - 1); }
                allreduce(8);
            }
        "#,
        );
        // Every non-root vertex is reachable through exactly one sitemap
        // cell (loops ∪ branches ∪ mpi) or, for pseudo loops, one action.
        let sm = &info.sitemap;
        let mut covered = vec![false; info.cst.len()];
        covered[0] = true;
        for &c in sm.table.iter().filter(|&&c| c != 0 && c & ACTION_CELL == 0) {
            assert!(!covered[c as usize], "vertex {c} has two cells");
            covered[c as usize] = true;
        }
        for a in &sm.actions {
            if let CallAction::EnterRecursive {
                pseudo: Some(g), ..
            } = a
            {
                covered[g.0 as usize] = true;
            }
        }
        assert!(
            covered.iter().all(|&c| c),
            "uncovered vertices in {}",
            info.cst.to_compact_string()
        );
    }

    #[test]
    fn ast_and_cfg_pipelines_agree_end_to_end() {
        let src = r#"
            fn stage(n) {
                for i in 0..n {
                    if i % 2 == 0 { isendwrap(i); } else { barrier(); }
                }
            }
            fn isendwrap(i) {
                let r = isend(rank() + 1, 128, i);
                wait(r);
            }
            fn main() {
                stage(4);
                for k in 0..3 { stage(k); reduce(0, 64); }
            }
        "#;
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let a = analyze_program_with(&p, IntraBuilder::Ast);
        let b = analyze_program_with(&p, IntraBuilder::Cfg);
        assert_eq!(a.cst.to_compact_string(), b.cst.to_compact_string());
        assert_eq!(a.sitemap, b.sitemap);
    }

    #[test]
    fn pruned_branch_has_no_sitemap_entry() {
        let info = analyze("fn main() { if rank() == 0 { barrier(); } else { compute(5); } }");
        // Only the then-arm survives.
        assert_eq!(info.sitemap.entry_count(), 2); // the arm and the barrier
        let if_stmt = info.sitemap.site_of.iter().position(|&s| s == FIRST_SITE);
        let if_stmt = NodeId(if_stmt.unwrap() as u32);
        assert!(info
            .sitemap
            .branch_gid(ROOT_PATH, if_stmt, Arm::Then)
            .is_some());
        assert!(info
            .sitemap
            .branch_gid(ROOT_PATH, if_stmt, Arm::Else)
            .is_none());
    }
}
