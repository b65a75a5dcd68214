//! Structure-preserving access to compressed trace trees.
//!
//! There is one way to read a per-process CTT: [`CttSource::vertex`], a
//! borrowed [`VertexRef`] of one vertex's recorded data, whether the tree is
//! an owned [`Ctt`] or a pooled [`CttSlab`](crate::slab::CttSlab). Both
//! readers in the workspace are built on it and nothing else:
//!
//! - the *fold* ([`CttSource::fold`], a provided method): every vertex's data
//!   exactly once, in GID order, into a [`CttFold`] — how the compressed-domain
//!   query engine runs in O(|CTT|), proportional to the stored segments and
//!   records and never to the original events;
//! - the *replay cursor* ([`ReplayCursor`](crate::decompress::ReplayCursor)):
//!   the paper's pre-order decompression walk.
//!
//! [`fold_merged`] is the fold over an inter-process [`MergedCtt`], handing
//! each group's [`RankSet`] to the callback so per-rank quantities can be
//! expanded symbolically (e.g. resolving `rank ± c` relative encodings per
//! member rank) without materializing per-rank trees.

use crate::ctt::{Ctt, LeafRecord};
use crate::intseq::SeqRef;
use crate::merge::{MergedCtt, RankIter, RankSet};

/// The set of ranks a folded datum applies to: a single process's rank when
/// folding a per-rank [`Ctt`], or a merged group's [`RankSet`].
#[derive(Clone, Copy)]
pub enum RankScope<'a> {
    One(u32),
    Set(&'a RankSet),
}

impl<'a> RankScope<'a> {
    /// Number of ranks in scope.
    pub fn len(&self) -> u64 {
        match self {
            RankScope::One(_) => 1,
            RankScope::Set(rs) => rs.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the member ranks without allocating. Folds call this once
    /// per record, so both scopes share one flat iterator: a chain over the
    /// set's own iterator measurably slowed the hot query path.
    pub fn iter(&self) -> RankIter<'a> {
        match *self {
            RankScope::One(r) => RankIter::One(Some(r)),
            RankScope::Set(rs) => rs.iter(),
        }
    }
}

/// Callbacks for one pass over a compressed trace tree. Control-vertex hooks
/// default to no-ops so record-only analyses (volume, profiles) stay terse;
/// hot-spot provenance implements `on_loop` to recover trip counts.
pub trait CttFold {
    /// Whether the fold reads records: one that does not is handed none,
    /// so a merged tree's leaf groups are not decoded for it.
    const RECORDS: bool = true;
    /// A loop vertex's per-visit iteration-count sequence.
    fn on_loop(&mut self, _gid: u32, _ranks: RankScope, _counts: SeqRef<'_>) {}
    /// A branch vertex's taken-visit-index sequence.
    fn on_branch(&mut self, _gid: u32, _ranks: RankScope, _taken: SeqRef<'_>) {}
    /// One merged leaf record. `slot` is the record's first-occurrence index
    /// within its leaf; `rec.count` is the total occurrence count for *each*
    /// rank in scope (merging requires equal counts, so the group total is
    /// `rec.count * ranks.len()`).
    fn on_record(&mut self, gid: u32, slot: usize, ranks: RankScope, rec: &LeafRecord);
}

/// One vertex's recorded data, borrowed from wherever the tree keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VertexRef<'a> {
    Root,
    /// Per-visit iteration counts.
    Loop(SeqRef<'a>),
    /// Parent-visit indices at which this arm was taken.
    Branch(SeqRef<'a>),
    /// Merged communication records, in first-occurrence order.
    Leaf(&'a [LeafRecord]),
}

/// One process's compressed trace tree, however it is stored: an owned
/// [`Ctt`], or a pooled [`CttSlab`](crate::slab::CttSlab) whose vertices live
/// in shared arena vectors. Folds, replay, lowering and queries are generic
/// over this trait, so the trace store answers from slab-decoded jobs through
/// exactly the code paths owned CTTs take — no copy, identical results.
/// A source is `Sync`: a large merge reads every rank's tree from several
/// workers at once.
pub trait CttSource: Sync {
    fn rank(&self) -> u32;
    fn nprocs(&self) -> u32;
    fn app_time(&self) -> u64;
    /// Number of CTT vertices (must mirror the CST shape).
    fn vertex_count(&self) -> usize;
    /// The data recorded at vertex `gid` (`gid < vertex_count()`).
    fn vertex(&self, gid: usize) -> VertexRef<'_>;

    /// Hand every vertex's data to `f`, in GID order, scoped to this rank.
    fn fold<F: CttFold>(&self, f: &mut F) {
        let scope = RankScope::One(self.rank());
        for gid in 0..self.vertex_count() {
            match self.vertex(gid) {
                VertexRef::Root => {}
                VertexRef::Loop(counts) => f.on_loop(gid as u32, scope, counts),
                VertexRef::Branch(taken) => f.on_branch(gid as u32, scope, taken),
                VertexRef::Leaf(_) if !F::RECORDS => {}
                VertexRef::Leaf(records) => {
                    for (slot, rec) in records.iter().enumerate() {
                        f.on_record(gid as u32, slot, scope, rec);
                    }
                }
            }
        }
    }
}

/// A shared reference to a source is itself a source, so callers can build
/// reordered views (`Vec<&CttSlab>` sorted by rank) without cloning trees.
impl<S: CttSource> CttSource for &S {
    fn rank(&self) -> u32 {
        (**self).rank()
    }
    fn nprocs(&self) -> u32 {
        (**self).nprocs()
    }
    fn app_time(&self) -> u64 {
        (**self).app_time()
    }
    fn vertex_count(&self) -> usize {
        (**self).vertex_count()
    }
    fn vertex(&self, gid: usize) -> VertexRef<'_> {
        (**self).vertex(gid)
    }
}

impl CttSource for Ctt {
    fn rank(&self) -> u32 {
        self.rank
    }
    fn nprocs(&self) -> u32 {
        self.nprocs
    }
    fn app_time(&self) -> u64 {
        self.app_time
    }
    fn vertex_count(&self) -> usize {
        self.data.len()
    }
    fn vertex(&self, gid: usize) -> VertexRef<'_> {
        self.data[gid].view()
    }
}

/// Fold a merged CTT. Each callback receives its group's [`RankSet`]; the
/// walk is O(total groups), independent of `nprocs * events`. A group's
/// record is read from its head and timing for its callback.
pub fn fold_merged<F: CttFold>(m: &MergedCtt, f: &mut F) {
    m.fold(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_trace, CompressConfig};
    use crate::merge::merge_all;
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};

    struct CountFold {
        loops: usize,
        records: usize,
        total_occurrences: u64,
    }

    impl CttFold for CountFold {
        fn on_loop(&mut self, _gid: u32, _ranks: RankScope, _counts: SeqRef<'_>) {
            self.loops += 1;
        }
        fn on_record(&mut self, _gid: u32, _slot: usize, ranks: RankScope, rec: &LeafRecord) {
            self.records += 1;
            self.total_occurrences += rec.count * ranks.len();
        }
    }

    fn compile_and_trace(src: &str, nprocs: u32) -> (cypress_cst::Cst, Vec<Ctt>) {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        let ctts = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        (info.cst, ctts)
    }

    #[test]
    fn fold_ctt_and_merged_agree_on_occurrence_totals() {
        let (_cst, ctts) = compile_and_trace(
            r#"fn main() {
                for i in 0..20 {
                    if rank() > 0 { send(rank() - 1, 64, 0); }
                    if rank() < size() - 1 { recv(rank() + 1, 64, 0); }
                }
            }"#,
            4,
        );
        let mut per_rank = CountFold {
            loops: 0,
            records: 0,
            total_occurrences: 0,
        };
        for ctt in &ctts {
            ctt.fold(&mut per_rank);
        }
        let merged = merge_all(&ctts);
        let mut m = CountFold {
            loops: 0,
            records: 0,
            total_occurrences: 0,
        };
        fold_merged(&merged, &mut m);
        // SPMD symmetry: merging collapses groups, so the merged fold sees
        // fewer (or equal) callbacks but the same total occurrence count.
        assert!(m.records <= per_rank.records);
        assert_eq!(m.total_occurrences, per_rank.total_occurrences);
        let events: u64 = ctts.iter().map(|c| c.op_count()).sum();
        assert_eq!(m.total_occurrences, events);
    }

    #[test]
    fn rank_scope_iteration() {
        let one = RankScope::One(7);
        assert_eq!(one.iter().collect::<Vec<_>>(), vec![7]);
        assert_eq!(one.len(), 1);
        let mut rs = RankSet::singleton(1);
        rs.extend(&RankSet::singleton(2));
        rs.extend(&RankSet::singleton(3));
        let set = RankScope::Set(&rs);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());
    }
}
