//! One opened container, held zero-copy and query-ready: the one way a
//! `.cytc` job is opened, by the store, the daemon, the CLI and
//! `cypress::read_container` alike.

use crate::StoreError;
use cypress_analysis::{analyze_ctts, AnalyzeOptions, AnalyzeReport};
use cypress_core::{check_shape, decompress, BlockError, CttSlab, MergedCtt, ReplayOp};
use cypress_cst::tree::{Cst, Vertex, VertexKind};
use cypress_query::{has_complete_rank_set, query_ctts, query_merged, QueryOptions, QueryResult};
use cypress_simmpi::LogGp;
use cypress_trace::{ContainerError, PayloadArena, SectionKind, SectionTable};
use std::collections::HashMap;
use std::path::Path;

/// A `.cytc` job opened by the store: what it answers from, and nothing
/// else — the CST, the per-rank CTT slabs in rank order, or the merged
/// tree.
///
/// Opening reads the image once, serving raw sections as slices of it and
/// inflating each deflated section it decodes once; the image, its section
/// table and the inflated payloads are dropped before `open` returns. The
/// merged tree keeps its payload: a deflated one is inflated into the
/// buffer it keeps, a raw one copied there.
/// Per-rank CTTs decode into [`CttSlab`]s — index-based vertices over two
/// shared pools — so opening a job costs a handful of allocations
/// regardless of tree size.
///
/// The merged tree is only decoded when the per-rank set is incomplete:
/// a complete set answers every query with exact per-rank timing. Writers
/// store no merged section beside a complete set; an older container that
/// holds both opens the same way, its merged payload left un-inflated.
pub struct StoreJob {
    name: String,
    nprocs: u32,
    cst: Cst,
    /// In rank order, whatever order the sections were stored in.
    slabs: Vec<CttSlab>,
    merged: Option<MergedCtt>,
    complete: bool,
}

impl StoreJob {
    /// Open and fully verify one container file. All per-section CRCs are
    /// checked by the table parse; only the sections a query needs are
    /// inflated/decoded.
    pub fn open(path: &Path, name: &str) -> Result<StoreJob, StoreError> {
        let image = std::fs::read(path)?.into_boxed_slice();
        let table = SectionTable::parse(&image)?;
        let arena = PayloadArena::new(table.len());
        let nprocs = table.nprocs;

        let cst_idx = table
            .find(SectionKind::CstText)
            .ok_or(ContainerError::MissingSection("cst-text"))?;
        let cst_bytes = arena.payload(&image, &table.sections()[cst_idx], cst_idx)?;
        let cst_text = std::str::from_utf8(cst_bytes)
            .map_err(|e| StoreError::Invalid(format!("cst section is not utf-8: {e}")))?;
        let cst = Cst::from_text(cst_text).map_err(StoreError::Invalid)?;

        // A slab's rank is the one its section header names: the writer
        // decided from the headers whether to store the merged tree, so a
        // payload that disagrees, or a rank stored twice, is refused. So is
        // a tree that does not fit the CST, before any reader walks it.
        let mut slabs = Vec::new();
        let mut seen = HashMap::new();
        for idx in table.rank_indices() {
            let header = table.sections()[idx].rank;
            let payload = arena.payload(&image, &table.sections()[idx], idx)?;
            let slab = CttSlab::from_bytes(payload)?;
            if header != Some(slab.rank) {
                let label = header.map_or("no rank".into(), |r| format!("rank {r}"));
                return Err(StoreError::Invalid(format!(
                    "rank-ctt section [{idx}] is labelled {label} \
                     but holds the CTT of rank {}",
                    slab.rank
                )));
            }
            if let Some(first) = seen.insert(slab.rank, idx) {
                return Err(StoreError::Invalid(format!(
                    "rank-ctt sections [{first}] and [{idx}] both hold rank {}",
                    slab.rank
                )));
            }
            check_shape(&slab, &cst, nprocs).map_err(|e| {
                StoreError::Invalid(format!(
                    "rank-ctt section [{idx}] (rank {}): {e}",
                    slab.rank
                ))
            })?;
            slabs.push(slab);
        }
        slabs.sort_by_key(|s| s.rank);
        // Nothing reads the merged tree of a complete job, so its (often
        // large) section, if the writer stored one, stays un-inflated and
        // un-decoded.
        let complete = has_complete_rank_set(nprocs, slabs.iter().map(|s| s.rank));
        let merged = if complete {
            None
        } else {
            match table.find(SectionKind::MergedCtt) {
                Some(idx) => {
                    // The tree keeps the payload, whose groups are decoded
                    // when they are visited: a deflated one is inflated
                    // straight into the buffer it keeps, a raw one copied.
                    let payload = table.sections()[idx].payload_owned(&image, idx)?;
                    let merged = MergedCtt::from_block(payload, &cst, nprocs, 0, nprocs).map_err(
                        |e| match e {
                            BlockError::Undecodable(e) => StoreError::from(e),
                            BlockError::Misfit(e) => {
                                StoreError::Invalid(format!("merged-ctt section [{idx}]: {e}"))
                            }
                        },
                    )?;
                    Some(merged)
                }
                None => None,
            }
        };

        Ok(StoreJob {
            name: name.to_string(),
            nprocs,
            cst,
            slabs,
            merged,
            complete,
        })
    }

    /// Evaluate the compressed-domain query suite on the complete per-rank
    /// set (its per-rank timing is exact), else on the merged tree, whose
    /// group-aggregated timing is what the format stores. Slab evaluation is
    /// pinned byte-identical to owned-CTT evaluation, so answers from a file
    /// equal those of the in-memory job bit for bit.
    pub fn query(&self, opts: &QueryOptions) -> Result<QueryResult, StoreError> {
        if self.complete {
            return Ok(query_ctts(&self.cst, &self.slabs, opts)?);
        }
        let missing = ContainerError::MissingSection("merged-ctt or complete rank-ctt set");
        Ok(query_merged(
            &self.cst,
            self.merged.as_ref().ok_or(missing)?,
            opts,
        )?)
    }

    /// Run the compressed-domain analysis suite (CTT-native LogGP replay
    /// prediction + late-sender wait states) on this job. Analysis needs
    /// per-rank timing, so it requires the complete per-rank CTT set — the
    /// merged tree cannot drive the simulator. The model is the canonical
    /// [`LogGp::default`], the same one local evaluation uses, so daemon
    /// answers equal local ones bit for bit.
    pub fn analyze(&self, opts: &AnalyzeOptions) -> Result<AnalyzeReport, StoreError> {
        if !self.complete {
            return Err(StoreError::Invalid(format!(
                "job {:?} lacks a complete per-rank CTT set ({} of {} ranks); \
                 analysis needs per-rank timing",
                self.name,
                self.slabs.len(),
                self.nprocs
            )));
        }
        analyze_ctts(&self.cst, &self.slabs, &LogGp::default(), opts)
            .map_err(|e| StoreError::Invalid(e.to_string()))
    }

    /// Replay one rank's exact MPI operation sequence from its own section
    /// when the container has one, else extracted from the merged tree.
    pub fn decompress(&self, rank: u32) -> Result<Vec<ReplayOp>, StoreError> {
        let nprocs = self.nprocs;
        if rank >= nprocs {
            return Err(StoreError::Invalid(format!(
                "rank {rank} out of 0..{nprocs}"
            )));
        }
        if let Some(slab) = self.slabs.iter().find(|s| s.rank == rank) {
            return Ok(decompress(&self.cst, slab));
        }
        let missing = ContainerError::MissingSection("merged-ctt or rank-ctt");
        let merged = self.merged.as_ref().ok_or(missing)?;
        Ok(decompress(&self.cst, &merged.extract_rank(rank, &self.cst)))
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn nprocs(&self) -> u32 {
        self.nprocs
    }

    /// Number of per-rank CTT sections decoded.
    pub fn rank_count(&self) -> usize {
        self.slabs.len()
    }

    /// The per-rank CTTs, checked against the CST, in rank order.
    pub fn rank_ctts(&self) -> &[CttSlab] {
        &self.slabs
    }

    /// Whether queries run on the complete per-rank set (vs. merged tree).
    pub fn has_complete_rank_set(&self) -> bool {
        self.complete
    }

    /// The parsed CST.
    pub fn cst(&self) -> &Cst {
        &self.cst
    }

    /// Approximate bytes this handle keeps resident: the CST, the decoded
    /// slab pools, the merged tree and the name. This is the figure the store
    /// charges against its byte budget.
    pub fn resident_bytes(&self) -> usize {
        cst_heap(&self.cst)
            + self.slabs.iter().map(|s| s.approx_bytes()).sum::<usize>()
            + self.merged.as_ref().map_or(0, |m| m.approx_bytes())
            + self.name.len()
    }
}

/// The heap a parsed CST holds: its vertex table, child lists and call
/// names.
fn cst_heap(cst: &Cst) -> usize {
    let held = |v: &Vertex| {
        let name = match &v.kind {
            VertexKind::UserCall { name, .. } => name.capacity(),
            _ => 0,
        };
        v.children.capacity() * size_of::<usize>() + name
    };
    cst.vertices.capacity() * size_of::<Vertex>() + cst.vertices.iter().map(held).sum::<usize>()
}
