//! Per-GID hot-spot attribution with call-path provenance.
//!
//! A decompressed record stream can tell you *which op* was hot; only the
//! tree can tell you *where in the program* — which loop nest and which
//! branch arm the volume came from. Each [`HotSpot`] carries the CST
//! call path from the root to the communication leaf, rendered from the
//! vertex tags (`Loop`, `PseudoLoop`, `BrT`/`BrE`) plus GIDs so spots are
//! clickable back into `cypress dump`'s tree view.

use cypress_cst::tree::VertexKind;
use cypress_cst::Cst;
use cypress_trace::MpiOp;

/// Communication volume attributed to one CST leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSpot {
    /// CST GID of the communication leaf.
    pub gid: u32,
    pub op: MpiOp,
    /// Total calls at this leaf across all ranks.
    pub calls: u64,
    /// Sender-attributed point-to-point bytes (same rule as the
    /// communication matrix, so hot-spot volumes sum to the matrix total).
    pub bytes: u64,
    /// Loop/branch provenance: the leaf's ancestor chain rendered as
    /// `Loop#3 > BrT#5`, empty for a top-level call.
    pub path: String,
}

impl HotSpot {
    pub(crate) fn new(cst: &Cst, gid: u32, calls: u64, bytes: u64) -> HotSpot {
        let v = cst.vertex(gid as usize);
        let op = match v.kind {
            VertexKind::Mpi { op, .. } => op,
            // Non-leaf GIDs never accumulate calls; keep a stable value for
            // robustness against malformed inputs.
            _ => MpiOp::Barrier,
        };
        HotSpot {
            gid,
            op,
            calls,
            bytes,
            path: cst.render_path(gid as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};

    #[test]
    fn path_names_loop_and_branch_ancestors() {
        let p = parse(
            r#"fn main() {
                for i in 0..4 {
                    if rank() == 0 { send(1, 64, 0); }
                }
            }"#,
        )
        .unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let send_gid = (0..info.cst.len())
            .find(|&i| info.cst.vertex(i).kind.is_mpi())
            .expect("has a send leaf");
        let h = HotSpot::new(&info.cst, send_gid as u32, 4, 256);
        assert_eq!(h.op, MpiOp::Send);
        assert!(h.path.contains("Loop#"), "path: {}", h.path);
        assert!(h.path.contains("BrT#"), "path: {}", h.path);
        assert!(h.path.contains(" > "), "path: {}", h.path);
    }
}
