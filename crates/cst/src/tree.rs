//! The Communication Structure Tree (CST) — paper §III.
//!
//! An ordered tree whose pre-order traversal matches the static structure of
//! the program: leaf vertices are MPI invocations, non-leaf vertices are
//! control structures (loop and branch vertices), and — before
//! inter-procedural inlining — user-defined function calls appear as
//! placeholder leaves that Algorithm 2 later replaces. Each vertex of the
//! final tree gets a unique global id (GID) assigned in pre-order.

use cypress_minilang::ast::{Builtin, NodeId};
use cypress_trace::event::MpiOp;
use std::fmt;

/// Global id of a CST vertex, assigned in pre-order over the final tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Gid(pub u32);

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Which arm of an `if` a branch vertex represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    Then,
    Else,
}

/// Vertex payload.
#[derive(Debug, Clone, PartialEq)]
pub enum VertexKind {
    /// The virtual root connecting all first-level vertices (paper §III-A).
    Root,
    /// A loop vertex. `pseudo` marks the approximate loop inserted at the
    /// entry of a recursive function (paper §III-B, Fig. 8).
    Loop { origin: NodeId, pseudo: bool },
    /// A branch vertex — one per path of a conditional.
    Branch { origin: NodeId, arm: Arm },
    /// An MPI invocation leaf; `origin` is the call expression's AST id.
    Mpi { origin: NodeId, op: MpiOp },
    /// A user-defined function call placeholder (intra-procedural trees
    /// only; eliminated by inter-procedural analysis).
    UserCall { origin: NodeId, name: String },
}

impl VertexKind {
    pub fn is_mpi(&self) -> bool {
        matches!(self, VertexKind::Mpi { .. })
    }

    pub fn is_loop(&self) -> bool {
        matches!(self, VertexKind::Loop { .. })
    }

    pub fn is_user_call(&self) -> bool {
        matches!(self, VertexKind::UserCall { .. })
    }

    /// Short tag used by the text serialization.
    pub fn tag(&self) -> &'static str {
        match self {
            VertexKind::Root => "Root",
            VertexKind::Loop { pseudo: false, .. } => "Loop",
            VertexKind::Loop { pseudo: true, .. } => "PseudoLoop",
            VertexKind::Branch { arm: Arm::Then, .. } => "BrT",
            VertexKind::Branch { arm: Arm::Else, .. } => "BrE",
            VertexKind::Mpi { .. } => "Mpi",
            VertexKind::UserCall { .. } => "Call",
        }
    }
}

/// One vertex of a CST.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    pub kind: VertexKind,
    /// Indices of children, in program order.
    pub children: Vec<usize>,
    /// Index of the parent (`None` for the root).
    pub parent: Option<usize>,
}

/// An ordered tree of [`Vertex`]s. In a *finalized* CST (after pruning and
/// GID assignment) the vertex index **is** the GID: vertices are stored in
/// pre-order and `vertices\[0\]` is the root.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cst {
    pub vertices: Vec<Vertex>,
}

impl Cst {
    /// Create a tree containing only a root vertex.
    pub fn with_root() -> Self {
        Cst {
            vertices: vec![Vertex {
                kind: VertexKind::Root,
                children: Vec::new(),
                parent: None,
            }],
        }
    }

    pub fn root(&self) -> usize {
        0
    }

    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    pub fn vertex(&self, i: usize) -> &Vertex {
        &self.vertices[i]
    }

    /// Append a vertex under `parent`, returning its index.
    pub fn add(&mut self, parent: usize, kind: VertexKind) -> usize {
        let idx = self.vertices.len();
        self.vertices.push(Vertex {
            kind,
            children: Vec::new(),
            parent: Some(parent),
        });
        self.vertices[parent].children.push(idx);
        idx
    }

    /// Pre-order traversal (root first, children in order).
    pub fn pre_order(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.vertices.len());
        let mut stack = vec![self.root()];
        while let Some(v) = stack.pop() {
            out.push(v);
            for &c in self.vertices[v].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Delete leaf vertices that are not MPI invocations, repeating until
    /// every leaf is an MPI invocation (the paper's two-step pruning pass,
    /// §III-B). The root is never deleted. Returns a *finalized* tree in
    /// pre-order plus, for each old index, its new index (or `None` if
    /// pruned).
    pub fn prune_and_finalize(&self) -> (Cst, Vec<Option<usize>>) {
        let n = self.vertices.len();
        let mut alive = vec![true; n];
        // Iteratively kill non-MPI leaves. A vertex is a leaf if it has no
        // live children.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..n {
                if !alive[i] || i == self.root() {
                    continue;
                }
                let v = &self.vertices[i];
                if v.kind.is_mpi() {
                    continue;
                }
                let has_live_child = v.children.iter().any(|&c| alive[c]);
                if !has_live_child {
                    alive[i] = false;
                    changed = true;
                }
            }
        }

        // Rebuild in pre-order over live vertices.
        let mut map: Vec<Option<usize>> = vec![None; n];
        let mut out = Cst::default();
        // Pre-order walk restricted to live vertices.
        let mut stack: Vec<(usize, Option<usize>)> = vec![(self.root(), None)];
        // Use explicit recursion via stack while keeping child order: push
        // children reversed.
        while let Some((old, new_parent)) = stack.pop() {
            if !alive[old] {
                continue;
            }
            let new_idx = out.vertices.len();
            out.vertices.push(Vertex {
                kind: self.vertices[old].kind.clone(),
                children: Vec::new(),
                parent: new_parent,
            });
            if let Some(p) = new_parent {
                out.vertices[p].children.push(new_idx);
            }
            map[old] = Some(new_idx);
            for &c in self.vertices[old].children.iter().rev() {
                stack.push((c, Some(new_idx)));
            }
        }
        (out, map)
    }

    /// Verify the finalized-tree invariant: vertices stored in pre-order.
    pub fn is_preorder(&self) -> bool {
        self.pre_order() == (0..self.vertices.len()).collect::<Vec<_>>()
    }

    /// Number of MPI leaves.
    pub fn mpi_leaf_count(&self) -> usize {
        self.vertices.iter().filter(|v| v.kind.is_mpi()).count()
    }

    /// Is `anc` an ancestor of `v` (reflexive)?
    pub fn is_ancestor(&self, anc: usize, v: usize) -> bool {
        let mut cur = v;
        loop {
            if cur == anc {
                return true;
            }
            match self.vertices[cur].parent {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Depth of vertex `v` (root = 0).
    pub fn depth(&self, v: usize) -> usize {
        let mut d = 0;
        let mut cur = v;
        while let Some(p) = self.vertices[cur].parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Loop/branch provenance of vertex `gid`: its ancestor chain (root and
    /// the vertex itself excluded) rendered as `Loop#3 > BrT#5`. Empty for a
    /// top-level vertex and for a GID this tree does not have.
    pub fn render_path(&self, gid: usize) -> String {
        let mut chain = Vec::new();
        let mut cur = self.vertices.get(gid).and_then(|v| v.parent);
        while let Some(p) = cur {
            let v = self.vertex(p);
            if !matches!(v.kind, VertexKind::Root) {
                chain.push(format!("{}#{}", v.kind.tag(), p));
            }
            cur = v.parent;
        }
        chain.reverse();
        chain.join(" > ")
    }

    /// Compact single-line rendering, e.g.
    /// `Root(Loop(BrT(Mpi:MPI_Send) BrE(Mpi:MPI_Recv)) Mpi:MPI_Reduce)`.
    pub fn to_compact_string(&self) -> String {
        fn rec(t: &Cst, v: usize, out: &mut String) {
            let vx = &t.vertices[v];
            match &vx.kind {
                VertexKind::Mpi { op, .. } => {
                    out.push_str("Mpi:");
                    out.push_str(op.name());
                }
                VertexKind::UserCall { name, .. } => {
                    out.push_str("Call:");
                    out.push_str(name);
                }
                k => out.push_str(k.tag()),
            }
            if !vx.children.is_empty() {
                out.push('(');
                for (i, &c) in vx.children.iter().enumerate() {
                    if i > 0 {
                        out.push(' ');
                    }
                    rec(t, c, out);
                }
                out.push(')');
            }
        }
        let mut s = String::new();
        rec(self, self.root(), &mut s);
        s
    }

    /// The paper stores the program CST in a compressed text file; this is
    /// our text serialization: one line per vertex in pre-order:
    /// `gid parent tag origin [extra]`.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "cst {}", self.vertices.len()).unwrap();
        for (i, v) in self.vertices.iter().enumerate() {
            let parent = v.parent.map(|p| p as i64).unwrap_or(-1);
            match &v.kind {
                VertexKind::Root => writeln!(out, "{i} {parent} Root").unwrap(),
                VertexKind::Loop { origin, pseudo } => writeln!(
                    out,
                    "{i} {parent} {} {}",
                    if *pseudo { "PseudoLoop" } else { "Loop" },
                    origin.0
                )
                .unwrap(),
                VertexKind::Branch { origin, arm } => writeln!(
                    out,
                    "{i} {parent} {} {}",
                    if *arm == Arm::Then { "BrT" } else { "BrE" },
                    origin.0
                )
                .unwrap(),
                VertexKind::Mpi { origin, op } => {
                    writeln!(out, "{i} {parent} Mpi {} {}", origin.0, op.name()).unwrap()
                }
                VertexKind::UserCall { origin, name } => {
                    writeln!(out, "{i} {parent} Call {} {}", origin.0, name).unwrap()
                }
            }
        }
        out
    }

    /// Parse the [`Cst::to_text`] format. Text that `to_text` never writes
    /// is refused: line `i` must name index `i`, the first is the root with
    /// parent −1, and every other names an earlier vertex that is not a
    /// communication leaf as its parent.
    pub fn from_text(s: &str) -> Result<Cst, String> {
        let mut lines = s.lines();
        let header = lines.next().ok_or("empty CST text")?;
        let n: usize = header
            .strip_prefix("cst ")
            .ok_or("missing `cst` header")?
            .trim()
            .parse()
            .map_err(|e| format!("bad vertex count: {e}"))?;
        let mut tree = Cst::default();
        for line in lines.take(n) {
            let mut it = line.split_whitespace();
            let at = tree.vertices.len();
            let idx: usize = it
                .next()
                .ok_or("missing idx")?
                .parse()
                .map_err(|_| "bad idx")?;
            if idx != at {
                return Err(format!("vertex line {at} names index {idx}"));
            }
            let parent: i64 = it
                .next()
                .ok_or("missing parent")?
                .parse()
                .map_err(|_| "bad parent")?;
            let tag = it.next().ok_or("missing tag")?;
            let kind = match tag {
                "Root" => VertexKind::Root,
                "Loop" | "PseudoLoop" => VertexKind::Loop {
                    origin: NodeId(
                        it.next()
                            .ok_or("missing origin")?
                            .parse()
                            .map_err(|_| "bad origin")?,
                    ),
                    pseudo: tag == "PseudoLoop",
                },
                "BrT" | "BrE" => VertexKind::Branch {
                    origin: NodeId(
                        it.next()
                            .ok_or("missing origin")?
                            .parse()
                            .map_err(|_| "bad origin")?,
                    ),
                    arm: if tag == "BrT" { Arm::Then } else { Arm::Else },
                },
                "Mpi" => {
                    let origin = NodeId(
                        it.next()
                            .ok_or("missing origin")?
                            .parse()
                            .map_err(|_| "bad origin")?,
                    );
                    let name = it.next().ok_or("missing op name")?;
                    let op = MpiOp::ALL
                        .iter()
                        .copied()
                        .find(|o| o.name() == name)
                        .ok_or_else(|| format!("unknown op {name}"))?;
                    VertexKind::Mpi { origin, op }
                }
                "Call" => VertexKind::UserCall {
                    origin: NodeId(
                        it.next()
                            .ok_or("missing origin")?
                            .parse()
                            .map_err(|_| "bad origin")?,
                    ),
                    name: it.next().ok_or("missing call name")?.to_owned(),
                },
                other => return Err(format!("unknown vertex tag {other}")),
            };
            let parent = match (idx, &kind) {
                (0, VertexKind::Root) if parent == -1 => None,
                (0, _) => return Err(format!("vertex 0 is not the root: {line}")),
                (_, VertexKind::Root) => return Err(format!("vertex {idx} is a second root")),
                _ if parent < 0 || parent as usize >= idx => {
                    return Err(format!(
                        "vertex {idx} has parent {parent}, not an earlier vertex"
                    ))
                }
                _ => Some(parent as usize),
            };
            if let Some(p) = parent {
                let up = &mut tree.vertices[p];
                if matches!(up.kind, VertexKind::Mpi { .. }) {
                    return Err(format!("vertex {idx} has parent {p}, a communication leaf"));
                }
                up.children.push(idx);
            }
            tree.vertices.push(Vertex {
                kind,
                children: Vec::new(),
                parent,
            });
        }
        if tree.vertices.len() != n {
            return Err(format!(
                "expected {n} vertices, parsed {}",
                tree.vertices.len()
            ));
        }
        Ok(tree)
    }
}

/// Map a MiniMPI builtin to its MPI operation (communication builtins only).
pub fn mpi_op_of_builtin(b: Builtin) -> Option<MpiOp> {
    Some(match b {
        Builtin::Send => MpiOp::Send,
        Builtin::Recv => MpiOp::Recv,
        Builtin::Isend => MpiOp::Isend,
        Builtin::Irecv => MpiOp::Irecv,
        Builtin::Wait => MpiOp::Wait,
        Builtin::Waitall => MpiOp::Waitall,
        Builtin::Waitany => MpiOp::Waitany,
        Builtin::Barrier => MpiOp::Barrier,
        Builtin::Bcast => MpiOp::Bcast,
        Builtin::Reduce => MpiOp::Reduce,
        Builtin::Allreduce => MpiOp::Allreduce,
        Builtin::Alltoall => MpiOp::Alltoall,
        Builtin::Allgather => MpiOp::Allgather,
        Builtin::Sendrecv => MpiOp::Sendrecv,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cst {
        // Root(Loop(BrT(Send) BrE(Recv)) Reduce)
        let mut t = Cst::with_root();
        let l = t.add(
            t.root(),
            VertexKind::Loop {
                origin: NodeId(1),
                pseudo: false,
            },
        );
        let bt = t.add(
            l,
            VertexKind::Branch {
                origin: NodeId(2),
                arm: Arm::Then,
            },
        );
        t.add(
            bt,
            VertexKind::Mpi {
                origin: NodeId(3),
                op: MpiOp::Send,
            },
        );
        let be = t.add(
            l,
            VertexKind::Branch {
                origin: NodeId(2),
                arm: Arm::Else,
            },
        );
        t.add(
            be,
            VertexKind::Mpi {
                origin: NodeId(4),
                op: MpiOp::Recv,
            },
        );
        t.add(
            t.root(),
            VertexKind::Mpi {
                origin: NodeId(5),
                op: MpiOp::Reduce,
            },
        );
        t
    }

    #[test]
    fn pre_order_matches_insertion_for_sample() {
        let t = sample();
        assert!(t.is_preorder());
        assert_eq!(t.mpi_leaf_count(), 3);
    }

    #[test]
    fn compact_string_shape() {
        let t = sample();
        assert_eq!(
            t.to_compact_string(),
            "Root(Loop(BrT(Mpi:MPI_Send) BrE(Mpi:MPI_Recv)) Mpi:MPI_Reduce)"
        );
    }

    #[test]
    fn pruning_removes_empty_structures() {
        let mut t = sample();
        // Add a loop with no MPI descendants and a dangling user call.
        let dead_loop = t.add(
            t.root(),
            VertexKind::Loop {
                origin: NodeId(9),
                pseudo: false,
            },
        );
        t.add(
            dead_loop,
            VertexKind::Branch {
                origin: NodeId(10),
                arm: Arm::Then,
            },
        );
        t.add(
            t.root(),
            VertexKind::UserCall {
                origin: NodeId(11),
                name: "f".into(),
            },
        );
        let (pruned, map) = t.prune_and_finalize();
        assert!(pruned.is_preorder());
        assert_eq!(pruned.mpi_leaf_count(), 3);
        // All leaves of the pruned tree are MPI invocations.
        for v in &pruned.vertices {
            if v.children.is_empty() && !matches!(v.kind, VertexKind::Root) {
                assert!(v.kind.is_mpi());
            }
        }
        // The dead loop maps to nothing.
        assert_eq!(map[dead_loop], None);
    }

    #[test]
    fn pruning_keeps_deep_mpi() {
        let mut t = Cst::with_root();
        let l1 = t.add(
            t.root(),
            VertexKind::Loop {
                origin: NodeId(1),
                pseudo: false,
            },
        );
        let l2 = t.add(
            l1,
            VertexKind::Loop {
                origin: NodeId(2),
                pseudo: false,
            },
        );
        t.add(
            l2,
            VertexKind::Mpi {
                origin: NodeId(3),
                op: MpiOp::Barrier,
            },
        );
        let (pruned, _) = t.prune_and_finalize();
        assert_eq!(pruned.len(), 4);
    }

    #[test]
    fn prune_of_all_dead_yields_root_only() {
        let mut t = Cst::with_root();
        let l = t.add(
            t.root(),
            VertexKind::Loop {
                origin: NodeId(1),
                pseudo: false,
            },
        );
        t.add(
            l,
            VertexKind::UserCall {
                origin: NodeId(2),
                name: "g".into(),
            },
        );
        let (pruned, _) = t.prune_and_finalize();
        assert_eq!(pruned.len(), 1);
        assert!(matches!(pruned.vertex(0).kind, VertexKind::Root));
    }

    #[test]
    fn text_round_trip() {
        let t = sample();
        let txt = t.to_text();
        let back = Cst::from_text(&txt).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_text_rejects_garbage() {
        assert!(Cst::from_text("").is_err());
        assert!(Cst::from_text("cst 1\n0 -1 Wat").is_err());
    }

    fn refused(text: &str) -> String {
        Cst::from_text(text).expect_err(text)
    }

    #[test]
    fn from_text_refuses_a_first_line_other_than_the_root() {
        assert_eq!(
            refused("cst 2\n0 -1 Loop 0\n1 0 Mpi 1 MPI_Barrier"),
            "vertex 0 is not the root: 0 -1 Loop 0"
        );
        assert_eq!(
            refused("cst 1\n0 0 Root"),
            "vertex 0 is not the root: 0 0 Root"
        );
        assert_eq!(
            refused("cst 2\n0 -1 Root\n1 0 Root"),
            "vertex 1 is a second root"
        );
    }

    #[test]
    fn from_text_refuses_an_index_other_than_the_line_position() {
        assert_eq!(
            refused("cst 2\n0 -1 Root\n5 0 Loop 0"),
            "vertex line 1 names index 5"
        );
    }

    /// `1 7 Loop 0` used to index past the end, and `1 1 Loop 0`, a vertex
    /// that is its own parent, was accepted.
    #[test]
    fn from_text_refuses_a_parent_not_below_its_child() {
        for (parent, text) in [
            (7, "cst 2\n0 -1 Root\n1 7 Loop 0"),
            (1, "cst 2\n0 -1 Root\n1 1 Loop 0"),
            (-1, "cst 2\n0 -1 Root\n1 -1 Loop 0"),
        ] {
            assert_eq!(
                refused(text),
                format!("vertex 1 has parent {parent}, not an earlier vertex")
            );
        }
    }

    #[test]
    fn from_text_refuses_a_communication_leaf_as_parent() {
        assert_eq!(
            refused("cst 3\n0 -1 Root\n1 0 Mpi 1 MPI_Barrier\n2 1 Loop 0"),
            "vertex 2 has parent 1, a communication leaf"
        );
    }

    #[test]
    fn ancestor_and_depth() {
        let t = sample();
        // vertex 1 = Loop, vertex 3 = Send leaf
        assert!(t.is_ancestor(0, 3));
        assert!(t.is_ancestor(1, 3));
        assert!(!t.is_ancestor(3, 1));
        assert_eq!(t.depth(0), 0);
        assert_eq!(t.depth(3), 3);
    }

    #[test]
    fn builtin_mapping_covers_all_comm_ops() {
        assert_eq!(mpi_op_of_builtin(Builtin::Send), Some(MpiOp::Send));
        assert_eq!(mpi_op_of_builtin(Builtin::Rank), None);
        assert_eq!(mpi_op_of_builtin(Builtin::Compute), None);
    }
}
