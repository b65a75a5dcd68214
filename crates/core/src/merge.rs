//! Inter-process trace compression (paper §IV-B, Fig. 13).
//!
//! Because every per-process CTT shares the CST's shape, merging two
//! compressed traces is a *vertex-by-vertex* walk — O(n) in the number of
//! vertices/records — instead of the O(n²) sequence-alignment search
//! dynamic-only tools need. Per vertex, processes whose recorded data is
//! identical (after relative-rank encoding) collapse into one *rank group*;
//! a process that never executed a call path simply contributes nothing at
//! those vertices.
//!
//! Granularity follows the paper's Fig. 13: control vertices group ranks by
//! their whole recorded sequence (`<p0,p1: k>` / `<p0: 0,k,1, p1: null>`),
//! while communication vertices group ranks **per record slot** of the
//! per-vertex linked list — so ranks that agree on their first record but
//! diverge later still share the common slots.
//!
//! A group is found by key, not by a scan: a hash of the fields the
//! compatibility test compares leads to the group's position in its slot,
//! and the test itself confirms every hit. So an absorb costs O(records)
//! however many rank groups a slot holds. [`merge_all`] merges vertex by
//! vertex, every rank's data at one vertex before the next;
//! [`BinomialMerger`] reduces ranks arriving in any order over a binomial
//! tree — the O(n log P) schedule the paper describes for end-of-job
//! merging inside `MPI_Finalize`.

use crate::ctt::{bad_vertex_tag, Ctt, LeafRecord, VertexData, VD_BRANCH, VD_LOOP};
use crate::intseq::{read_seg, read_segs, IntSeq, IntSeqReader};
use crate::visit::{CttSource, VertexRef};
use cypress_cst::tree::{Cst, VertexKind};
use cypress_obs::{obs_log, Counter, Gauge, Histogram, Level, TIME_BOUNDS_NS};
use cypress_trace::codec::{Codec, Cursor, DecodeResult, Decoder, Encoder};
use std::hash::{Hash, Hasher};

// Scope `merge`.
/// Pairwise `absorb` operations performed.
static PAIR_MERGES: Counter = Counter::new("merge", "pair_merges");
/// New rank groups opened because no existing group was compatible.
static GROUPS_FORMED: Counter = Counter::new("merge", "groups_formed");
/// Final group count of the last full merge.
static MERGED_GROUPS: Gauge = Gauge::new("merge", "merged_groups");
/// Group compatibility tests (`record_mergeable`, control-data equality)
/// run by the absorbs.
static COMPARISONS: Counter = Counter::new("merge", "comparisons");
/// Wall time per pairwise absorb.
static PAIR_MERGE_NS: Histogram = Histogram::new("merge", "pair_merge_ns", &TIME_BOUNDS_NS);
/// Wall time per whole-job merge.
static MERGE_NS: Histogram = Histogram::new("merge", "merge_ns", &TIME_BOUNDS_NS);
/// High-water depth of the incremental binomial buddy tree.
static BINOMIAL_DEPTH: Gauge = Gauge::new("merge", "binomial_depth");
/// Partial blocks currently resident in a [`BinomialMerger`].
static BINOMIAL_BLOCKS: Gauge = Gauge::new("merge", "binomial_blocks");

/// Record `acc`'s group count as the last full merge's (guarded: counting
/// walks every vertex).
fn note_merged_groups(acc: &MergedCtt) {
    if cypress_obs::enabled() {
        MERGED_GROUPS.set_max(acc.group_count() as i64);
    }
}

/// A compressed set of ranks, in ascending order. A set of one rank —
/// almost every group of an irregular job — is held inline; two or more
/// ranks are stride-encoded ("ranks 1..size-2" is one segment). The wire
/// form is the [`IntSeq`]'s either way.
#[derive(Clone, PartialEq, Eq)]
pub struct RankSet(Ranks);

/// Invariant: `Seq` never holds the set `One` stands for, so the derived
/// equality is the sequences' equality.
#[derive(Clone, PartialEq, Eq)]
enum Ranks {
    /// Exactly the set `IntSeq::from_slice(&[r])` encodes.
    One(u32),
    /// Any other set: two or more ranks, none, or a one-value sequence in a
    /// form other than that one (kept as decoded, so it re-encodes alike).
    Seq(IntSeq),
}

impl Default for RankSet {
    fn default() -> Self {
        RankSet(Ranks::Seq(IntSeq::new()))
    }
}

/// Every set prints as the [`IntSeq`] it encodes as, one-rank sets included.
impl std::fmt::Debug for RankSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let one;
        let seq = match &self.0 {
            Ranks::One(r) => {
                one = IntSeq::from_slice(&[*r as i64]);
                &one
            }
            Ranks::Seq(s) => s,
        };
        f.debug_tuple("RankSet").field(seq).finish()
    }
}

impl RankSet {
    pub fn singleton(rank: u32) -> Self {
        RankSet(Ranks::One(rank))
    }

    pub fn len(&self) -> u64 {
        match &self.0 {
            Ranks::One(_) => 1,
            Ranks::Seq(s) => s.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn contains(&self, rank: u32) -> bool {
        match &self.0 {
            Ranks::One(r) => *r == rank,
            Ranks::Seq(s) => {
                let mut r = s.reader();
                while let Some(v) = r.next() {
                    if v == rank as i64 {
                        return true;
                    }
                }
                false
            }
        }
    }

    pub fn ranks(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Allocation-free iteration over the member ranks, in stored order.
    pub fn iter(&self) -> RankIter<'_> {
        match &self.0 {
            Ranks::One(r) => RankIter::One(Some(*r)),
            Ranks::Seq(s) => RankIter::Seq(s.reader()),
        }
    }

    /// Append one value, as `IntSeq::push` would.
    fn push_value(&mut self, v: i64) {
        match &mut self.0 {
            Ranks::One(r) => {
                let mut s = IntSeq::from_slice(&[*r as i64]);
                s.push(v);
                self.0 = Ranks::Seq(s);
            }
            Ranks::Seq(s) => match u32::try_from(v) {
                Ok(r) if s.is_empty() => self.0 = Ranks::One(r),
                _ => s.push(v),
            },
        }
    }

    /// Append `rank`, which must be above every rank already here: the
    /// order that keeps sets ascending and stride-compressible.
    fn push_above(&mut self, rank: u32) {
        let last = match &self.0 {
            Ranks::One(r) => Some(*r as i64),
            Ranks::Seq(s) => s.last(),
        };
        assert!(
            last.is_none_or(|l| l < rank as i64),
            "rank {rank} absorbed after rank {last:?}: ranks must arrive in ascending order"
        );
        self.push_value(rank as i64);
    }

    /// Append all ranks of `other` (callers maintain sorted order by merging
    /// lower-rank halves first).
    pub fn extend(&mut self, other: &RankSet) {
        match &other.0 {
            Ranks::One(r) => self.push_value(*r as i64),
            Ranks::Seq(s) => {
                let mut r = s.reader();
                while let Some(v) = r.next() {
                    self.push_value(v);
                }
            }
        }
    }

    /// Whether every member lies in `[lo, hi)`, in strictly ascending order —
    /// what a relay's block must hold for the ranks it says it covers.
    /// O(segments), whatever the set's length.
    fn check_within(&self, lo: u32, hi: u64) -> Result<(), String> {
        let (lo, hi) = (lo as i128, hi as i128);
        let outside = |v: i128| format!("rank {v} outside the block's ranks [{lo}, {hi})");
        let segs = match &self.0 {
            Ranks::One(r) if (lo..hi).contains(&(*r as i128)) => return Ok(()),
            Ranks::One(r) => return Err(outside(*r as i128)),
            Ranks::Seq(s) if s.is_empty() => return Err("a group names no rank".into()),
            Ranks::Seq(s) => s.segments(),
        };
        let mut next = lo;
        for s in segs {
            let first = s.start as i128;
            let last = first + s.stride as i128 * (s.len as i128 - 1);
            let (min, max) = (first.min(last), first.max(last));
            if min < lo || max >= hi {
                return Err(outside(if min < lo { min } else { max }));
            }
            if first < next || s.reps != 1 || (s.len > 1 && s.stride <= 0) {
                return Err("a group's ranks are not strictly ascending".into());
            }
            next = last + 1;
        }
        Ok(())
    }

    pub fn approx_bytes(&self) -> usize {
        match &self.0 {
            Ranks::One(_) => std::mem::size_of::<Self>(),
            Ranks::Seq(s) => s.approx_bytes(),
        }
    }
}

/// The members of a [`RankSet`] or a [`RankScope`](crate::visit::RankScope):
/// one flat enum, so the per-record loop over a single rank is one branch
/// and a copy, never a chain of adapters.
#[derive(Debug, Clone)]
pub enum RankIter<'a> {
    One(Option<u32>),
    Seq(IntSeqReader<'a>),
}

impl Iterator for RankIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            RankIter::One(r) => r.take(),
            RankIter::Seq(r) => r.next().map(|v| v as u32),
        }
    }
}

impl Codec for RankSet {
    fn encode(&self, enc: &mut Encoder) {
        match &self.0 {
            // `IntSeq::from_slice(&[r])`'s bytes: one segment
            // `(start r, stride 0, len 1, reps 1)`.
            Ranks::One(r) => {
                enc.put_uvar(1);
                enc.put_ivar(*r as i64);
                enc.put_ivar(0);
                enc.put_uvar(1);
                enc.put_uvar(1);
            }
            Ranks::Seq(s) => s.encode(enc),
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        dec.read(RankSet::read)
    }
}

impl RankSet {
    /// The canonical one-rank form reads without allocating; every other
    /// form keeps its segments, in one allocation, so read → encode is
    /// byte-stable.
    #[inline]
    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        let n = cur.count("segments")?;
        if n == 1 {
            let mut total = 0;
            let seg = read_seg(cur, &mut total)?;
            return Some(match u32::try_from(seg.start) {
                Ok(r) if (seg.stride, seg.len, seg.reps) == (0, 1, 1) => RankSet::singleton(r),
                _ => RankSet(Ranks::Seq(IntSeq::from_segs(vec![seg], total))),
            });
        }
        let mut segs = Vec::new();
        let total = read_segs(cur, n, &mut segs)?;
        Some(RankSet(Ranks::Seq(IntSeq::from_segs(segs, total))))
    }
}

/// Merged data of one CST vertex.
#[derive(Debug, Clone, PartialEq)]
pub enum MergedVertex {
    /// Root, or a vertex no rank ever reached.
    Empty,
    /// Loop/branch vertex: ranks grouped by their whole recorded sequence.
    Control(Vec<(RankSet, VertexData)>),
    /// Communication vertex: per record-slot rank groups.
    Leaf(Vec<Vec<(RankSet, LeafRecord)>>),
}

impl MergedVertex {
    /// The control groups here, opened empty at a vertex no rank reached yet.
    fn control_groups(&mut self) -> &mut Vec<(RankSet, VertexData)> {
        if let MergedVertex::Empty = self {
            *self = MergedVertex::Control(Vec::new());
        }
        match self {
            MergedVertex::Control(g) => g,
            _ => unreachable!("CTTs share the CST shape: leaf vs control mismatch"),
        }
    }

    /// The leaf slots here, at least `n` of them, opened empty at a vertex no
    /// rank reached yet.
    fn leaf_slots(&mut self, n: usize) -> &mut [Vec<(RankSet, LeafRecord)>] {
        if let MergedVertex::Empty = self {
            *self = MergedVertex::Leaf(Vec::new());
        }
        match self {
            MergedVertex::Leaf(slots) => {
                if slots.len() < n {
                    slots.resize_with(n, Vec::new);
                }
                slots
            }
            _ => unreachable!("CTTs share the CST shape: control vs leaf mismatch"),
        }
    }

    fn group_count(&self) -> usize {
        match self {
            MergedVertex::Empty => 0,
            MergedVertex::Control(g) => g.len(),
            MergedVertex::Leaf(slots) => slots.iter().map(|s| s.len()).sum(),
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            MergedVertex::Empty => 0,
            MergedVertex::Control(g) => g
                .iter()
                .map(|(rs, d)| rs.approx_bytes() + d.approx_bytes())
                .sum(),
            MergedVertex::Leaf(slots) => slots
                .iter()
                .flat_map(|s| s.iter())
                .map(|(rs, r)| rs.approx_bytes() + r.approx_bytes())
                .sum(),
        }
    }
}

/// The merged (inter-process compressed) trace of a whole job, or of a
/// contiguous block of its ranks.
///
/// Contract: ranks enter in ascending order. Whatever is merged in —
/// one rank through [`absorb_rank`](Self::absorb_rank), a block through
/// [`absorb`](Self::absorb) — lies above every rank already held, so each
/// group's [`RankSet`] stays ascending and stride-compressible, and
/// `app_times` stays in rank order.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedCtt {
    pub nprocs: u32,
    /// Indexed by CST GID.
    pub vertices: Vec<MergedVertex>,
    /// Per-rank application times, stride-compressed in rank order.
    pub app_times: IntSeq,
}

/// Control-data compatibility: identical sequences (timing is not part of
/// control data).
pub fn control_mergeable(a: &VertexData, b: &VertexData) -> bool {
    match (a, b) {
        (VertexData::Loop { counts: x }, VertexData::Loop { counts: y }) => x == y,
        (VertexData::Branch { taken: x }, VertexData::Branch { taken: y }) => x == y,
        _ => false,
    }
}

/// Record compatibility: parameters and repeat count match ("all but the
/// communication time", §IV-A).
pub fn record_mergeable(a: &LeafRecord, b: &LeafRecord) -> bool {
    // Message sizes and repeat counts are what tell ranks apart at one call
    // site, so they are compared before the rest of the parameters.
    a.params.count == b.params.count && a.count == b.count && a.params == b.params
}

/// Does a tree fit the job it is offered to? Its job size, vertex count,
/// and the variant of every vertex's data against the CST vertex it
/// records — what [`MergedCtt::absorb`] and [`BinomialMerger`] assert, so a
/// peer's tree can be refused with an error before it reaches them.
/// [`MergedCtt::check_shape`] is this check for a merged block.
pub fn check_shape<S: CttSource>(ctt: &S, cst: &Cst, nprocs: u32) -> Result<(), String> {
    check_size(cst, nprocs, ctt.nprocs(), ctt.vertex_count())?;
    (0..ctt.vertex_count()).try_for_each(|gid| check_vertex(cst, gid, ctt.vertex(gid)))
}

fn check_size(cst: &Cst, nprocs: u32, tree_nprocs: u32, vertices: usize) -> Result<(), String> {
    if tree_nprocs != nprocs {
        return Err(format!(
            "tree is for {tree_nprocs} ranks, the job has {nprocs}"
        ));
    }
    if vertices != cst.len() {
        return Err(format!(
            "tree has {vertices} vertices, the job's CST {}",
            cst.len()
        ));
    }
    Ok(())
}

fn check_vertex(cst: &Cst, gid: usize, data: VertexRef<'_>) -> Result<(), String> {
    let kind = &cst.vertex(gid).kind;
    let held = match (kind, data) {
        (VertexKind::Root, VertexRef::Root)
        | (VertexKind::Loop { .. }, VertexRef::Loop(_))
        | (VertexKind::Branch { .. }, VertexRef::Branch(_))
        | (VertexKind::Mpi { .. } | VertexKind::UserCall { .. }, VertexRef::Leaf(_)) => {
            return Ok(())
        }
        (_, VertexRef::Root) => "root",
        (_, VertexRef::Loop(_)) => "loop",
        (_, VertexRef::Branch(_)) => "branch",
        (_, VertexRef::Leaf(_)) => "leaf",
    };
    Err(format!("vertex {gid} ({}) holds {held} data", kind.tag()))
}

impl MergedCtt {
    /// The merge of no rank yet: a job of `nprocs` ranks over a CST of
    /// `vertices` vertices, every vertex empty.
    pub fn new(nprocs: u32, vertices: usize) -> Self {
        MergedCtt {
            nprocs,
            vertices: vec![MergedVertex::Empty; vertices],
            app_times: IntSeq::new(),
        }
    }

    /// [`check_shape`] for a merged block said to cover ranks
    /// `[first, first + nranks)`: the same job size, vertex count and
    /// per-vertex data checks (every group of a control vertex, and leaf data
    /// only at leaves), a range inside the job, every group's ranks inside
    /// that range in strictly ascending order, and one application time per
    /// covered rank.
    pub fn check_shape(
        &self,
        cst: &Cst,
        nprocs: u32,
        first: u32,
        nranks: u32,
    ) -> Result<(), String> {
        check_size(cst, nprocs, self.nprocs, self.vertices.len())?;
        let end = first as u64 + nranks as u64;
        if end > nprocs as u64 {
            return Err(format!("block [{first}, {end}) exceeds job size {nprocs}"));
        }
        let ranks = |gid: usize, rs: &RankSet| {
            rs.check_within(first, end)
                .map_err(|e| format!("vertex {gid}: {e}"))
        };
        for (gid, mv) in self.vertices.iter().enumerate() {
            match mv {
                MergedVertex::Empty => {}
                MergedVertex::Control(groups) => {
                    for (rs, d) in groups {
                        check_vertex(cst, gid, d.view())?;
                        ranks(gid, rs)?;
                    }
                }
                MergedVertex::Leaf(slots) => {
                    check_vertex(cst, gid, VertexRef::Leaf(&[]))?;
                    for (rs, _) in slots.iter().flatten() {
                        ranks(gid, rs)?;
                    }
                }
            }
        }
        if self.app_times.len() != nranks as u64 {
            let times = self.app_times.len();
            return Err(format!(
                "block holds {times} application times for {nranks} ranks"
            ));
        }
        Ok(())
    }

    /// Merge one rank's CTT, owned or pooled, into `self`, vertex by vertex,
    /// straight from its view: a record is copied out only when it opens a
    /// new group.
    ///
    /// The rank must be above every rank already merged — the order that
    /// keeps rank sets ascending and stride-compressible. A rank that would
    /// join a group holding a higher rank panics; [`check_shape`] refuses a
    /// peer's tree before it gets here.
    ///
    /// A list that, with the rank's group, holds more than [`SCAN_GROUPS`]
    /// is matched by key, through a table filled from it and emptied once
    /// the vertex is done.
    pub fn absorb_rank<S: CttSource>(&mut self, ctt: &S) {
        assert_eq!(self.vertices.len(), ctt.vertex_count());
        let _span = PAIR_MERGE_NS.span("merge", "absorb_rank");
        PAIR_MERGES.inc();
        let rank = ctt.rank();
        let (mut tables, mut tally) = (Vec::new(), Tally::default());
        for (gid, mine) in self.vertices.iter_mut().enumerate() {
            let lists = absorb_vertex(mine, ctt.vertex(gid), rank, &mut tables, &mut tally);
            tables[..lists].iter_mut().for_each(KeyTable::clear);
        }
        self.app_times.push(ctt.app_time() as i64);
        tally.flush();
    }

    /// Merge `other` into `self`, vertex by vertex. Ranks in `other` must be
    /// greater than ranks in `self` (reduce contiguous halves) so rank sets
    /// stay sorted and stride-compressible.
    ///
    /// A vertex or slot whose groups, with the incoming ones, number more
    /// than [`SCAN_GROUPS`] is matched through a key table filled with them
    /// (one scratch table, reused), so it costs O(g_self + g_other) rather
    /// than a scan's O(g_self · g_other).
    pub fn absorb(&mut self, other: MergedCtt) {
        assert_eq!(self.vertices.len(), other.vertices.len());
        let _span = PAIR_MERGE_NS.span("merge", "absorb");
        PAIR_MERGES.inc();
        let mut tally = Tally::default();
        let mut scratch = KeyTable::default();
        for (mine, theirs) in self.vertices.iter_mut().zip(other.vertices) {
            match theirs {
                MergedVertex::Empty => {}
                MergedVertex::Control(groups) => tally.absorb_groups(
                    mine.control_groups(),
                    groups,
                    &mut scratch,
                    |d| control_key(d.view()),
                    control_mergeable,
                    |_, _| {},
                ),
                MergedVertex::Leaf(slots) => {
                    let dst = mine.leaf_slots(slots.len());
                    for (slot, groups) in dst.iter_mut().zip(slots) {
                        tally.absorb_groups(
                            slot,
                            groups,
                            &mut scratch,
                            record_key,
                            record_mergeable,
                            |r, rec| {
                                r.time.merge(&rec.time);
                                r.gap.merge(&rec.gap);
                            },
                        );
                    }
                }
            }
        }
        let mut r = other.app_times.reader();
        while let Some(v) = r.next() {
            self.app_times.push(v);
        }
        tally.flush();
    }

    /// Total group count across vertices (the merged trace's record
    /// measure).
    pub fn group_count(&self) -> usize {
        self.vertices.iter().map(|v| v.group_count()).sum()
    }

    /// Extract one rank's view back out as a per-process CTT (inverse of the
    /// merge, used for per-rank decompression and replay).
    pub fn extract_rank(&self, rank: u32, cst: &Cst) -> Ctt {
        let data = self
            .vertices
            .iter()
            .enumerate()
            .map(|(i, mv)| {
                match mv {
                    MergedVertex::Control(groups) => {
                        for (rs, d) in groups {
                            if rs.contains(rank) {
                                return d.clone();
                            }
                        }
                    }
                    MergedVertex::Leaf(slots) => {
                        let mut records = Vec::new();
                        for slot in slots {
                            for (rs, r) in slot {
                                if rs.contains(rank) {
                                    records.push(r.clone());
                                    break;
                                }
                            }
                        }
                        return VertexData::Leaf { records };
                    }
                    MergedVertex::Empty => {}
                }
                // The rank never reached this vertex: empty data of the
                // right shape.
                match &cst.vertex(i).kind {
                    VertexKind::Root => VertexData::Root,
                    VertexKind::Loop { .. } => VertexData::Loop {
                        counts: IntSeq::new(),
                    },
                    VertexKind::Branch { .. } => VertexData::Branch {
                        taken: IntSeq::new(),
                    },
                    VertexKind::Mpi { .. } | VertexKind::UserCall { .. } => VertexData::Leaf {
                        records: Vec::new(),
                    },
                }
            })
            .collect();
        // O(segments): a failed skip leaves the reader exhausted.
        let mut times = self.app_times.reader();
        times.skip(rank as u64);
        let app_time = times.next().unwrap_or(0) as u64;
        Ctt {
            rank,
            nprocs: self.nprocs,
            app_time,
            data,
        }
    }

    pub fn approx_bytes(&self) -> usize {
        self.vertices
            .iter()
            .map(|v| v.approx_bytes())
            .sum::<usize>()
            + self.app_times.approx_bytes()
    }
}

/// Sequentially merge all per-process CTTs (must be in rank order), vertex
/// by vertex as the paper does: every rank's data at one vertex is absorbed
/// from its view before the next vertex, so a long list's key table lives
/// only while its vertex is merged — O(records), however many rank groups
/// a slot holds.
pub fn merge_all<S: CttSource>(ctts: &[S]) -> MergedCtt {
    assert!(!ctts.is_empty(), "merge_all needs at least one CTT");
    let _span = MERGE_NS.span("merge", "merge_all").arg(ctts.len() as u64);
    let mut acc = MergedCtt::new(ctts[0].nprocs(), ctts[0].vertex_count());
    for c in ctts {
        assert_eq!(acc.vertices.len(), c.vertex_count());
        acc.app_times.push(c.app_time() as i64);
    }
    let (mut tables, mut tally) = (Vec::new(), Tally::default());
    for (gid, mine) in acc.vertices.iter_mut().enumerate() {
        let mut lists = 0;
        for c in ctts {
            let used = absorb_vertex(mine, c.vertex(gid), c.rank(), &mut tables, &mut tally);
            lists = lists.max(used);
        }
        tables[..lists].iter_mut().for_each(KeyTable::clear);
    }
    tally.flush();
    note_merged_groups(&acc);
    obs_log!(
        Level::Info,
        "merge",
        "merged {} ctts into {} groups",
        ctts.len(),
        acc.group_count()
    );
    acc
}

/// Merge one rank's data at one vertex into `mine`, finding a long list's
/// group through `tables[slot]` (a control vertex's one list is slot 0).
/// Returns how many lists it met: the tables it may have filled, which the
/// caller empties once every rank it merges here is done.
fn absorb_vertex(
    mine: &mut MergedVertex,
    theirs: VertexRef<'_>,
    rank: u32,
    tables: &mut Vec<KeyTable>,
    tally: &mut Tally,
) -> usize {
    match theirs {
        // Empty data = the rank never reached this vertex: it contributes
        // nothing there (paper: "if a process has not executed a certain
        // call path, the path is ignored").
        VertexRef::Root | VertexRef::Leaf([]) => 0,
        VertexRef::Loop(s) | VertexRef::Branch(s) if s.is_empty() => 0,
        VertexRef::Loop(s) | VertexRef::Branch(s) => {
            let dst = mine.control_groups();
            let found = tally.find(
                dst,
                1,
                &mut first_tables(tables, 1)[0],
                || control_key(theirs),
                |(_, d)| control_key(d.view()),
                |(_, d)| d.view() == theirs,
            );
            match found {
                Some(p) => dst[p].0.push_above(rank),
                None => {
                    tally.groups_formed += 1;
                    let data = match theirs {
                        VertexRef::Loop(_) => VertexData::Loop { counts: s.into() },
                        _ => VertexData::Branch { taken: s.into() },
                    };
                    dst.push((RankSet::singleton(rank), data));
                }
            }
            1
        }
        VertexRef::Leaf(records) => {
            let dst = mine.leaf_slots(records.len());
            let tables = first_tables(tables, records.len());
            for ((slot, rec), table) in dst.iter_mut().zip(records).zip(tables) {
                let found = tally.find(
                    slot,
                    1,
                    table,
                    || record_key(rec),
                    |(_, r)| record_key(r),
                    |(_, r)| record_mergeable(r, rec),
                );
                match found {
                    Some(p) => {
                        let (rs, r) = &mut slot[p];
                        rs.push_above(rank);
                        r.time.merge(&rec.time);
                        r.gap.merge(&rec.gap);
                    }
                    None => {
                        tally.groups_formed += 1;
                        slot.push((RankSet::singleton(rank), rec.clone()));
                    }
                }
            }
            records.len()
        }
    }
}

/// The first `n` of `tables`, grown to hold them.
fn first_tables(tables: &mut Vec<KeyTable>, n: usize) -> &mut [KeyTable] {
    if tables.len() < n {
        tables.resize_with(n, KeyTable::default);
    }
    &mut tables[..n]
}

/// [`merge_all`], whatever `threads` says: the one merge is sequential.
#[doc(hidden)]
pub fn merge_all_parallel<S: CttSource>(ctts: &[S], _threads: usize) -> MergedCtt {
    merge_all(ctts)
}

/// A group list is scanned while it and the groups coming into it number
/// at most this many; past that it is matched by key. A scan test that
/// fails on the message size costs a few nanoseconds, a key a hash and a
/// probe, so short lists scan faster. On the 64 `local-irregular` rank CTTs
/// (DESIGN §10 has the numbers) a `BinomialMerger` is about a third slower
/// when every list is keyed and runs fastest at 32 or 64, and `merge_all`
/// runs fastest at 16 or 32 and slows at 64, where it scans every
/// rank-unique list. Either way an absorb runs at most half this many tests
/// per group of the lists it touches, short of crafted key collisions
/// ([`KeyTable`]).
const SCAN_GROUPS: usize = 32;

/// The tallies of one absorb or one whole merge, flushed into the `merge`
/// counters once.
#[derive(Default)]
struct Tally {
    groups_formed: u64,
    comparisons: u64,
}

impl Tally {
    /// The position of the first of `groups` that `matches`. A list that
    /// holds, with the `incoming` groups still to meet it, at most
    /// [`SCAN_GROUPS`] is scanned; a longer one is looked up under `key()`
    /// in `table`, once that has entered every group.
    fn find<G>(
        &mut self,
        groups: &[G],
        incoming: usize,
        table: &mut KeyTable,
        key: impl FnOnce() -> u32,
        key_of: impl Fn(&G) -> u32,
        matches: impl Fn(&G) -> bool,
    ) -> Option<usize> {
        let mut hit = |p: usize| {
            self.comparisons += 1;
            matches(&groups[p])
        };
        if groups.len() + incoming <= SCAN_GROUPS {
            return (0..groups.len()).find(|&p| hit(p));
        }
        table.catch_up(groups, incoming, key_of);
        table.find(key(), hit)
    }

    /// Merge `groups` into `dst` for [`MergedCtt::absorb`]: each group's
    /// ranks and data `join` the compatible group already there, or it opens
    /// its own after them.
    fn absorb_groups<T>(
        &mut self,
        dst: &mut Vec<(RankSet, T)>,
        groups: Vec<(RankSet, T)>,
        scratch: &mut KeyTable,
        key: impl Fn(&T) -> u32,
        compatible: impl Fn(&T, &T) -> bool,
        join: impl Fn(&mut T, &T),
    ) {
        scratch.clear();
        let mut incoming = groups.len();
        for (ranks, data) in groups {
            let found = self.find(
                dst,
                incoming,
                scratch,
                || key(&data),
                |(_, d)| key(d),
                |(_, d)| compatible(d, &data),
            );
            incoming -= 1;
            match found {
                Some(p) => {
                    let (rs, d) = &mut dst[p];
                    rs.extend(&ranks);
                    join(d, &data);
                }
                None => {
                    self.groups_formed += 1;
                    dst.push((ranks, data));
                }
            }
        }
    }

    fn flush(self) {
        GROUPS_FORMED.add(self.groups_formed);
        COMPARISONS.add(self.comparisons);
    }
}

/// Open-addressing multimap from a group's key to its position in its group
/// list. The key hashes the fields the compatibility test compares, so equal
/// groups share a key; distinct groups may too, and every hit is confirmed
/// by the test. Never part of a [`MergedCtt`]: group order, rank sets and
/// bytes are what a scan gives, because the groups of one list are pairwise
/// incompatible and a scan's first hit is the only one. The hash is not
/// keyed, so a peer can craft relay blocks whose keys collide; a probe then
/// tests at most every group of the list, which is what a scan costs.
#[derive(Default)]
struct KeyTable {
    /// `(key, position)`; a `VACANT` position marks a free bucket.
    buckets: Vec<(u32, u32)>,
    /// The list's positions `0..len` are entered.
    len: usize,
}

const VACANT: u32 = u32::MAX;

impl KeyTable {
    /// Forget every entry, keeping the allocation.
    fn clear(&mut self) {
        self.buckets.clear();
        self.len = 0;
    }

    /// Enter the groups the table has not seen, those from position `len`
    /// on, with room, at most half full, for `more` after them.
    fn catch_up<G>(&mut self, groups: &[G], more: usize, key_of: impl Fn(&G) -> u32) {
        let want = ((groups.len() + more) * 2).next_power_of_two();
        if want > self.buckets.len() {
            let old: Vec<_> = self
                .buckets
                .drain(..)
                .filter(|&(_, p)| p != VACANT)
                .collect();
            self.buckets.resize(want, (0, VACANT));
            for (k, p) in old {
                self.put(k, p);
            }
        }
        for (p, g) in groups.iter().enumerate().skip(self.len) {
            self.put(key_of(g), p as u32);
        }
        self.len = groups.len();
    }

    fn put(&mut self, key: u32, pos: u32) {
        let mask = self.buckets.len() - 1;
        let mut i = key as usize & mask;
        while self.buckets[i].1 != VACANT {
            i = (i + 1) & mask;
        }
        self.buckets[i] = (key, pos);
    }

    /// The first position entered under `key` that `hit` accepts.
    fn find(&self, key: u32, mut hit: impl FnMut(usize) -> bool) -> Option<usize> {
        let mask = self.buckets.len().checked_sub(1)?;
        let mut i = key as usize & mask;
        loop {
            match self.buckets[i] {
                (_, VACANT) => return None,
                (k, p) if k == key && hit(p as usize) => return Some(p as usize),
                _ => i = (i + 1) & mask,
            }
        }
    }
}

/// FxHash's word step: cheap and well spread for the integer fields a
/// group key is made of.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    /// Finalized (MurmurHash3's `fmix64`), so the low bits a table indexes
    /// by depend on every field.
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }
}

/// Key of a leaf record: what [`record_mergeable`] compares.
fn record_key(r: &LeafRecord) -> u32 {
    let mut h = KeyHasher::default();
    r.params.hash(&mut h);
    h.write_u64(r.count);
    h.finish() as u32
}

/// Key of control data: its kind and segments, what [`control_mergeable`]
/// compares.
fn control_key(d: VertexRef<'_>) -> u32 {
    let mut h = KeyHasher::default();
    match d {
        VertexRef::Loop(s) => (VD_LOOP, s.segments()).hash(&mut h),
        VertexRef::Branch(s) => (VD_BRANCH, s.segments()).hash(&mut h),
        _ => unreachable!("control groups hold loop or branch data"),
    }
    h.finish() as u32
}

/// The maximal aligned buddy blocks that tile ranks `[first, end)`, in
/// ascending order, as `(start, len)`: each is the largest power-of-two
/// block aligned at its start that ends by `end`. A contiguous shard of a
/// job folds into exactly these blocks on the job's buddy tree.
pub fn buddy_pieces(first: u32, end: u32) -> impl Iterator<Item = (u32, u32)> {
    let mut start = first;
    std::iter::from_fn(move || {
        (start < end).then(|| {
            let len = 1 << start.trailing_zeros().min((end - start).ilog2());
            start += len;
            (start - len, len)
        })
    })
}

/// Incremental binomial reduction over per-rank CTTs arriving in **any
/// order** — the event-driven form of the paper's `MPI_Finalize` merge
/// schedule, used by the network collector's root to reduce rank CTTs as
/// they complete instead of barriering for the full set. A relay, which
/// holds its shard and merges it once, enters whole runs of ranks through
/// [`add_run`](Self::add_run) instead: one linear merge per buddy piece
/// rather than `log2` of the piece's size pairwise merges per rank.
///
/// Blocks of merged ranks live on the fixed *buddy tree* over rank indices:
/// a block covering `[start, start+len)` (with `len` a power of two and
/// `start % len == 0`) merges with its sibling `[start+len, start+2·len)`
/// the moment both are complete. At most `⌈log2 P⌉ + 1` partial merges are
/// resident at any time, and each rank's CTT participates in at most
/// `log2 P` pairwise merges — O(n log P) total work.
///
/// The association tree is determined by rank indices alone (never by
/// arrival order), and [`TimeStats`] aggregation is exactly associative, so
/// [`BinomialMerger::finish`] is byte-identical to [`merge_all`] over the
/// same CTTs in rank order — the invariant `tests/net_collect.rs` pins for
/// out-of-order network submission.
///
/// [`TimeStats`]: crate::timestats::TimeStats
pub struct BinomialMerger {
    nprocs: u32,
    /// Completed buddy blocks, keyed by start rank → (len, partial merge).
    blocks: std::collections::BTreeMap<u32, (u32, MergedCtt)>,
    /// Bitset of ranks already accepted.
    seen: Vec<u64>,
    received: u32,
}

impl BinomialMerger {
    pub fn new(nprocs: u32) -> Self {
        assert!(nprocs > 0, "BinomialMerger needs at least one rank");
        BinomialMerger {
            nprocs,
            blocks: std::collections::BTreeMap::new(),
            seen: vec![0u64; (nprocs as usize).div_ceil(64)],
            received: 0,
        }
    }

    /// Offer one rank's finished CTT. Returns `false` (and changes nothing)
    /// if this rank was already merged — a retried client re-submitting a
    /// rank the collector completed earlier is a no-op, not corruption.
    pub fn add<S: CttSource>(&mut self, ctt: &S) -> bool {
        let rank = ctt.rank();
        assert_eq!(
            ctt.nprocs(),
            self.nprocs,
            "CTT job size {} does not match merger size {}",
            ctt.nprocs(),
            self.nprocs
        );
        assert!(
            rank < self.nprocs,
            "rank {rank} out of range for {} procs",
            self.nprocs
        );
        if self.has_rank(rank) {
            return false;
        }
        self.mark(rank, rank + 1);

        let _t = cypress_obs::trace_span("merge", "binomial_add").arg(rank as u64);
        // An odd rank whose lower buddy is resident alone joins it directly;
        // any other rank starts a one-rank block. Either way the rank is
        // absorbed from its view, above every rank in the block.
        let lower = rank.wrapping_sub(1);
        let paired =
            !rank.is_multiple_of(2) && self.blocks.get(&lower).is_some_and(|(l, _)| *l == 1);
        let (start, len, mut block) = if paired {
            (lower, 2, self.blocks.remove(&lower).unwrap().1)
        } else {
            (rank, 1, MergedCtt::new(self.nprocs, ctt.vertex_count()))
        };
        block.absorb_rank(ctt);
        self.fold_block(start, len, block);
        true
    }

    /// Climb the buddy tree from an aligned block `[start, start+len)`:
    /// blocks are always power-of-two sized and len-aligned, so
    /// `start % (2·len)` is 0 (we are the lower sibling) or `len` (we are
    /// the upper sibling). Shared by [`add`](Self::add) (len 1 or 2),
    /// [`add_run`](Self::add_run) (a run's pieces) and
    /// [`add_block`](Self::add_block) (relay-forwarded partial merges).
    fn fold_block(&mut self, mut start: u32, mut len: u32, mut cur: MergedCtt) {
        loop {
            if start.is_multiple_of(2 * len) {
                let buddy = start + len;
                if self.blocks.get(&buddy).is_some_and(|(l, _)| *l == len) {
                    let (_, upper) = self.blocks.remove(&buddy).unwrap();
                    cur.absorb(upper);
                    len *= 2;
                    continue;
                }
            } else {
                let buddy = start - len;
                if self.blocks.get(&buddy).is_some_and(|(l, _)| *l == len) {
                    let (_, mut lower) = self.blocks.remove(&buddy).unwrap();
                    lower.absorb(cur);
                    cur = lower;
                    start = buddy;
                    len *= 2;
                    continue;
                }
            }
            break;
        }
        self.blocks.insert(start, (len, cur));
        BINOMIAL_DEPTH.set_max(len.trailing_zeros() as i64);
        BINOMIAL_BLOCKS.set_max(self.blocks.len() as i64);
    }

    /// Offer an already-merged aligned buddy block covering ranks
    /// `[first, first+count)` — what a relay collector forwards upstream.
    ///
    /// A block a *global-sized* merger produced for any subset of ranks is
    /// necessarily aligned on the global buddy tree (power-of-two `count`,
    /// `first % count == 0`), so absorbing it here continues the exact same
    /// association as if the ranks had arrived individually — the
    /// byte-identity invariant survives relaying.
    ///
    /// Returns `Ok(false)` when every covered rank was already merged (a
    /// relay retry; no-op like a duplicate rank in [`add`](Self::add)),
    /// `Err` on a misaligned/out-of-range block or one that partially
    /// overlaps merged ranks (protocol corruption, not a benign retry).
    pub fn add_block(&mut self, first: u32, count: u32, block: MergedCtt) -> Result<bool, String> {
        if count == 0 || !count.is_power_of_two() {
            return Err(format!("block rank count {count} is not a power of two"));
        }
        // `first` and `count` come off the wire: their sum must not wrap.
        let end = first as u64 + count as u64;
        if !first.is_multiple_of(count) {
            return Err(format!(
                "block [{first}, {end}) is not aligned on the buddy tree"
            ));
        }
        if end > self.nprocs as u64 {
            return Err(format!(
                "block [{first}, {end}) exceeds job size {}",
                self.nprocs
            ));
        }
        let end = end as u32;
        let seen = self.seen_in(first, end);
        if seen == count {
            return Ok(false);
        }
        if seen != 0 {
            return Err(format!(
                "block [{first}, {end}) partially overlaps {seen} already-merged ranks"
            ));
        }
        self.mark(first, end);
        let _t = cypress_obs::trace_span("merge", "binomial_add_block").arg(first as u64);
        self.fold_block(first, count, block);
        Ok(true)
    }

    /// Offer a run of consecutive ranks in ascending order, none of them
    /// merged yet: what a relay holds between the blocks it was sent. The
    /// run splits into its maximal aligned buddy pieces ([`buddy_pieces`]).
    /// Each piece is merged vertex by vertex ([`merge_all`], linear in its
    /// records) and entered as [`add_block`](Self::add_block) enters a
    /// forwarded block. `merge_all` over a piece is the block that adding
    /// its ranks one by one builds, so the bytes are [`add`](Self::add)'s.
    ///
    /// `Err` naming the run's range, with the merger unchanged, when the
    /// run is not consecutive ranks in ascending order, belongs to another
    /// job size, or overlaps a rank or block already merged. An empty run
    /// adds nothing.
    pub fn add_run<S: CttSource>(&mut self, run: &[S]) -> Result<(), String> {
        let Some(head) = run.first() else {
            return Ok(());
        };
        let first = head.rank();
        // Ranks come from the caller's trees: the run's end must not wrap.
        let end = first as u64 + run.len() as u64;
        let out_of_order = run
            .iter()
            .enumerate()
            .find(|(i, c)| c.rank() as u64 != first as u64 + *i as u64);
        if let Some((i, c)) = out_of_order {
            return Err(format!(
                "run [{first}, {end}) is not consecutive ranks in order: rank {} at position {i}",
                c.rank()
            ));
        }
        if let Some(c) = run.iter().find(|c| c.nprocs() != self.nprocs) {
            return Err(format!(
                "run [{first}, {end}): rank {} is of a {}-rank job, the merger's has {}",
                c.rank(),
                c.nprocs(),
                self.nprocs
            ));
        }
        if end > self.nprocs as u64 {
            return Err(format!(
                "run [{first}, {end}) exceeds job size {}",
                self.nprocs
            ));
        }
        let end = end as u32;
        let seen = self.seen_in(first, end);
        if seen != 0 {
            return Err(format!(
                "run [{first}, {end}) overlaps {seen} already-merged ranks"
            ));
        }
        let _t = cypress_obs::trace_span("merge", "binomial_add_run").arg(first as u64);
        for (start, len) in buddy_pieces(first, end) {
            let piece = &run[(start - first) as usize..][..len as usize];
            self.mark(start, start + len);
            self.fold_block(start, len, merge_all(piece));
        }
        Ok(())
    }

    /// How many of ranks `[first, end)` are merged.
    fn seen_in(&self, first: u32, end: u32) -> u32 {
        (first..end).map(|r| self.has_rank(r) as u32).sum()
    }

    /// Count ranks `[first, end)`, none of them merged before, as merged.
    fn mark(&mut self, first: u32, end: u32) {
        for r in first..end {
            self.seen[r as usize / 64] |= 1u64 << (r % 64);
        }
        self.received += end - first;
    }

    /// Consume the merger, yielding its resident blocks in ascending start
    /// order as `(first_rank, rank_count, partial)` — the payload a relay
    /// forwards upstream. Unlike [`finish`](Self::finish) this does not
    /// require completeness: a relay's rank range is an arbitrary contiguous
    /// slice of the job, which folds into ≤ 2·log2(P) aligned blocks.
    pub fn into_blocks(self) -> Vec<(u32, u32, MergedCtt)> {
        self.blocks
            .into_iter()
            .map(|(start, (len, part))| (start, len, part))
            .collect()
    }

    /// Ranks accepted so far.
    pub fn received(&self) -> u32 {
        self.received
    }

    /// Whether every rank `0..nprocs` has been merged.
    pub fn is_complete(&self) -> bool {
        self.received == self.nprocs
    }

    /// Whether this rank's CTT was already accepted.
    pub fn has_rank(&self, rank: u32) -> bool {
        rank < self.nprocs && self.seen[rank as usize / 64] & (1u64 << (rank % 64)) != 0
    }

    /// Partial blocks currently resident (≤ ⌈log2 P⌉ + 1 once complete).
    pub fn pending_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Depth of the largest merged buddy block: log2 of its rank count
    /// (0 when nothing has merged yet).
    pub fn max_depth(&self) -> u32 {
        self.blocks
            .values()
            .map(|(len, _)| len.trailing_zeros())
            .max()
            .unwrap_or(0)
    }

    /// Ranks not yet submitted, in ascending order.
    pub fn missing_ranks(&self) -> Vec<u32> {
        (0..self.nprocs)
            .filter(|r| self.seen[*r as usize / 64] & (1u64 << (r % 64)) == 0)
            .collect()
    }

    /// Fold the remaining blocks (ascending start rank; non-power-of-two
    /// job sizes leave a short tail) into the final merged trace.
    ///
    /// Panics unless [`is_complete`](Self::is_complete) — callers decide how
    /// to handle missing ranks (the collector reports them by number).
    pub fn finish(self) -> MergedCtt {
        assert!(
            self.is_complete(),
            "binomial merge incomplete: missing ranks {:?}",
            self.missing_ranks()
        );
        let _span = MERGE_NS.span("merge", "binomial_finish");
        let mut iter = self.blocks.into_values();
        let (_, mut acc) = iter.next().expect("complete merger has blocks");
        for (_, part) in iter {
            acc.absorb(part);
        }
        note_merged_groups(&acc);
        obs_log!(
            Level::Info,
            "merge",
            "binomial merge of {} ranks complete ({} groups)",
            self.nprocs,
            acc.group_count()
        );
        acc
    }
}

const MV_EMPTY: u8 = 0;
const MV_CONTROL: u8 = 1;
const MV_LEAF: u8 = 2;

impl Codec for MergedCtt {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.nprocs as u64);
        self.app_times.encode(enc);
        enc.put_seq(&self.vertices, |enc, mv| match mv {
            MergedVertex::Empty => enc.put_u8(MV_EMPTY),
            MergedVertex::Control(groups) => {
                enc.put_u8(MV_CONTROL);
                enc.put_seq(groups, |enc, (rs, d)| {
                    rs.encode(enc);
                    d.encode(enc);
                });
            }
            MergedVertex::Leaf(slots) => {
                enc.put_u8(MV_LEAF);
                enc.put_seq(slots, |enc, slot| {
                    enc.put_seq(slot, |enc, (rs, r)| {
                        rs.encode(enc);
                        r.encode(enc);
                    })
                });
            }
        });
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        dec.read(MergedCtt::read)
    }
}

impl MergedCtt {
    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        /// A control group holds a loop's counts or a branch's taken
        /// indices, never root or leaf data.
        fn control(cur: &mut Cursor<'_>) -> Option<(RankSet, VertexData)> {
            let ranks = RankSet::read(cur)?;
            let data = match cur.u8()? {
                VD_LOOP => VertexData::Loop {
                    counts: IntSeq::read(cur)?,
                },
                VD_BRANCH => VertexData::Branch {
                    taken: IntSeq::read(cur)?,
                },
                t => return bad_vertex_tag(cur, t),
            };
            Some((ranks, data))
        }
        fn record(cur: &mut Cursor<'_>) -> Option<(RankSet, LeafRecord)> {
            Some((RankSet::read(cur)?, LeafRecord::read(cur)?))
        }
        Some(MergedCtt {
            nprocs: cur.u32("merged ctt nprocs")?,
            app_times: IntSeq::read(cur)?,
            vertices: cur.seq("merged vertices", |cur| {
                Some(match cur.u8()? {
                    MV_EMPTY => MergedVertex::Empty,
                    MV_CONTROL => MergedVertex::Control(cur.seq("control groups", control)?),
                    MV_LEAF => MergedVertex::Leaf(
                        cur.seq("leaf slots", |cur| cur.seq("slot groups", record))?,
                    ),
                    t => return cur.refuse(t as u64, |t| format!("bad MergedVertex tag {t}")),
                })
            })?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_trace, CompressConfig};
    use crate::decompress::decompress;
    use crate::intseq::Seg;
    use crate::slab::CttSlab;
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};

    fn pipeline(src: &str, nprocs: u32) -> (cypress_cst::StaticInfo, Vec<Ctt>) {
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        let ctts = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        (info, ctts)
    }

    const JACOBI: &str = r#"fn main() {
        let r = rank(); let s = size();
        for k in 0..10 {
            if r < s - 1 { send(r + 1, 1024, 0); }
            if r > 0 { recv(r - 1, 1024, 0); }
            if r > 0 { send(r - 1, 1024, 1); }
            if r < s - 1 { recv(r + 1, 1024, 1); }
        }
    }"#;

    #[test]
    fn jacobi_merges_into_few_groups_fig13() {
        let (_, ctts) = pipeline(JACOBI, 16);
        let merged = merge_all(&ctts);
        // Every vertex has at most 2 groups: the send/recv leaves merge
        // across all participating ranks thanks to relative encoding, and
        // the branch outcomes split only edge vs interior ranks.
        for v in &merged.vertices {
            assert!(v.group_count() <= 2, "groups: {}", v.group_count());
        }
        // The merged trace is far smaller than the sum of per-process CTTs.
        let merged_sz = merged.encoded_size();
        let sum_sz: usize = ctts.iter().map(|c| c.to_bytes().len()).sum();
        assert!(merged_sz * 4 < sum_sz, "merged {merged_sz} vs sum {sum_sz}");
    }

    #[test]
    fn merged_trace_size_nearly_constant_in_p() {
        let (_, ctts16) = pipeline(JACOBI, 16);
        let (_, ctts64) = pipeline(JACOBI, 64);
        let s16 = merge_all(&ctts16).encoded_size();
        let s64 = merge_all(&ctts64).encoded_size();
        // Sub-linear: 4x the processes should cost well under 2x the bytes.
        assert!((s64 as f64) < (s16 as f64) * 2.0, "s16={s16} s64={s64}");
    }

    #[test]
    fn extract_rank_reads_its_own_app_time_from_first_to_last_rank() {
        // P = 1 (a one-value sequence) and P = 8 through the last rank.
        for nprocs in [1, 8] {
            let (info, ctts) = pipeline(JACOBI, nprocs);
            let merged = merge_all(&ctts);
            for ctt in &ctts {
                let extracted = merged.extract_rank(ctt.rank, &info.cst);
                assert_eq!(
                    extracted.app_time, ctt.app_time,
                    "P {nprocs} rank {}",
                    ctt.rank
                );
            }
            assert_eq!(merged.extract_rank(nprocs, &info.cst).app_time, 0);
        }
    }

    #[test]
    fn extract_rank_round_trips_through_merge() {
        let (info, ctts) = pipeline(JACOBI, 8);
        let merged = merge_all(&ctts);
        for (rank, ctt) in ctts.iter().enumerate() {
            let extracted = merged.extract_rank(rank as u32, &info.cst);
            let a = decompress(&info.cst, ctt);
            let b = decompress(&info.cst, &extracted);
            // Identical op sequences (params included); timing becomes the
            // group aggregate, so compare (gid, op, params).
            let strip = |ops: &[crate::decompress::ReplayOp]| {
                ops.iter()
                    .map(|o| (o.gid, o.op, o.params.clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(strip(&a), strip(&b), "rank {rank}");
        }
    }

    #[test]
    fn slotwise_grouping_shares_common_prefixes() {
        // Ranks share their first record (send to rank+1 mod P with equal
        // size) but diverge on the second (rank-dependent size). Slot-wise
        // grouping keeps slot 0 fully shared.
        let (_, ctts) = pipeline(
            r#"fn main() {
                send((rank() + 1) % size(), 64, 0);
                recv(any_source(), 64, 0);
                send((rank() + 1) % size(), 64 + rank() * 8, 1);
                recv(any_source(), 64 + rank() * 8, 1);
            }"#,
            8,
        );
        let merged = merge_all(&ctts);
        let leaf_slotcounts: Vec<Vec<usize>> = merged
            .vertices
            .iter()
            .filter_map(|v| match v {
                MergedVertex::Leaf(slots) => Some(slots.iter().map(|s| s.len()).collect()),
                _ => None,
            })
            .collect();
        // Four leaves; the equal-size ones have 1 group, the rank-dependent
        // ones have 8 groups — but they are separate call sites here, so
        // check totals: at least one leaf fully merged.
        assert!(leaf_slotcounts.iter().any(|s| s == &vec![1]));
        assert!(leaf_slotcounts.iter().any(|s| s[0] == 8));
    }

    #[test]
    fn butterfly_groups_stay_logarithmic() {
        // CG-style butterfly: per-stage partner deltas differ in sign across
        // ranks; slot-wise grouping yields ≤2 groups per stage, not P.
        let (_, ctts) = pipeline(
            r#"fn main() {
                let stage = 1;
                while stage < size() {
                    let partner = 0;
                    if (rank() / stage) % 2 == 0 { partner = rank() + stage; }
                    else { partner = rank() - stage; }
                    let a = irecv(partner, 512, 5);
                    send(partner, 512, 5);
                    wait(a);
                    stage = stage * 2;
                }
            }"#,
            16,
        );
        let merged = merge_all(&ctts);
        for v in &merged.vertices {
            if let MergedVertex::Leaf(slots) = v {
                for (si, slot) in slots.iter().enumerate() {
                    assert!(
                        slot.len() <= 2,
                        "slot {si} has {} groups (want ≤2)",
                        slot.len()
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_merge_equals_sequential() {
        let (_, ctts) = pipeline(JACOBI, 32);
        let seq = merge_all(&ctts);
        for threads in [2, 3, 8] {
            let par = merge_all_parallel(&ctts, threads);
            assert_eq!(par.nprocs, seq.nprocs);
            assert_eq!(par.group_count(), seq.group_count());
            for (vs, vp) in seq.vertices.iter().zip(&par.vertices) {
                assert_eq!(vs.group_count(), vp.group_count());
            }
        }
    }

    #[test]
    fn parallel_merge_byte_identical_for_any_thread_count() {
        // 19 ranks: non-power-of-two, so chunk boundaries differ per thread
        // count. Exact TimeStats make every association byte-identical.
        let (_, ctts) = pipeline(JACOBI, 19);
        let seq = merge_all(&ctts).to_bytes();
        for threads in [0, 1, 2, 3, 5, 8, 19, 64] {
            let par = merge_all_parallel(&ctts, threads).to_bytes();
            assert_eq!(par, seq, "threads={threads} diverged from sequential");
        }
    }

    #[test]
    fn parallel_merge_clamps_zero_threads() {
        let (_, ctts) = pipeline(JACOBI, 4);
        // threads == 0 (e.g. an unconfigured pool) degrades to sequential.
        let m = merge_all_parallel(&ctts, 0);
        assert_eq!(m.to_bytes(), merge_all(&ctts).to_bytes());
    }

    #[test]
    fn parallel_merge_clamps_excess_threads() {
        let (_, ctts) = pipeline(JACOBI, 3);
        // More workers than CTTs must not spawn empty chunks or panic.
        let m = merge_all_parallel(&ctts, 1000);
        assert_eq!(m.to_bytes(), merge_all(&ctts).to_bytes());
    }

    #[test]
    fn parallel_merge_single_rank_input() {
        let (_, ctts) = pipeline("fn main() { barrier(); }", 1);
        for threads in [0, 1, 7] {
            let m = merge_all_parallel(&ctts[..1], threads);
            assert_eq!(m.nprocs, 1);
            assert_eq!(m.to_bytes(), merge_all(&ctts[..1]).to_bytes());
        }
    }

    #[test]
    fn binomial_merger_matches_merge_all_in_rank_order() {
        for nprocs in [1u32, 2, 3, 5, 8, 13, 16] {
            let (_, ctts) = pipeline(JACOBI, nprocs);
            let mut bm = BinomialMerger::new(nprocs);
            for c in &ctts {
                assert!(bm.add(c));
            }
            assert!(bm.is_complete());
            assert_eq!(bm.finish().to_bytes(), merge_all(&ctts).to_bytes());
        }
    }

    #[test]
    fn binomial_merger_is_arrival_order_independent() {
        let (_, ctts) = pipeline(JACOBI, 13);
        let want = merge_all(&ctts).to_bytes();
        let mut rng = cypress_obs::rng::Rng::new(0xcafe);
        for _ in 0..16 {
            // Fisher–Yates shuffle of submission order.
            let mut order: Vec<usize> = (0..ctts.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range_usize(0..i + 1));
            }
            let mut bm = BinomialMerger::new(13);
            for &i in &order {
                bm.add(&ctts[i]);
            }
            assert_eq!(bm.finish().to_bytes(), want, "order {order:?}");
        }
    }

    #[test]
    fn binomial_merger_bounds_resident_blocks() {
        let (_, ctts) = pipeline(JACOBI, 32);
        let mut bm = BinomialMerger::new(32);
        let mut peak = 0;
        for c in &ctts {
            bm.add(c);
            peak = peak.max(bm.pending_blocks());
        }
        // In rank order the buddy tree keeps at most log2(P)+1 partials.
        assert!(peak <= 6, "peak resident blocks {peak}");
        assert_eq!(bm.pending_blocks(), 1);
    }

    #[test]
    fn binomial_merger_ignores_duplicate_ranks() {
        let (_, ctts) = pipeline(JACOBI, 6);
        let mut bm = BinomialMerger::new(6);
        assert!(bm.add(&ctts[2]));
        // A retried client re-submitting the same rank is discarded.
        assert!(!bm.add(&ctts[2]));
        assert_eq!(bm.received(), 1);
        assert_eq!(bm.missing_ranks(), vec![0, 1, 3, 4, 5]);
        for c in &ctts {
            bm.add(c);
        }
        assert!(bm.is_complete());
        assert_eq!(bm.finish().to_bytes(), merge_all(&ctts).to_bytes());
    }

    #[test]
    #[should_panic(expected = "missing ranks")]
    fn binomial_merger_finish_requires_all_ranks() {
        let (_, ctts) = pipeline(JACOBI, 4);
        let mut bm = BinomialMerger::new(4);
        bm.add(&ctts[0]);
        bm.add(&ctts[3]);
        let _ = bm.finish();
    }

    #[test]
    fn relayed_blocks_reproduce_merge_all_bytes() {
        // The collector-tree invariant: relays run global-sized mergers
        // over contiguous rank shards, forward their resident blocks, and
        // the root absorbing those blocks is byte-identical to merge_all —
        // including ragged (non-power-of-two, unevenly split) shards.
        for (nprocs, cuts) in [
            (16u32, vec![0u32, 8, 16]),
            (16, vec![0, 5, 16]),
            (13, vec![0, 4, 9, 13]),
            (6, vec![0, 3, 6]),
            (7, vec![0, 2, 5, 7]),
        ] {
            let (_, ctts) = pipeline(JACOBI, nprocs);
            let want = merge_all(&ctts).to_bytes();
            let mut root = BinomialMerger::new(nprocs);
            for shard in cuts.windows(2) {
                let (a, b) = (shard[0], shard[1]);
                let mut relay = BinomialMerger::new(nprocs);
                for r in a..b {
                    assert!(relay.add(&ctts[r as usize]));
                }
                for (first, count, part) in relay.into_blocks() {
                    assert!(count.is_power_of_two(), "{nprocs}p shard [{a},{b})");
                    assert!(first.is_multiple_of(count));
                    assert!(root.add_block(first, count, part).unwrap());
                }
            }
            assert!(root.is_complete(), "{nprocs}p cuts {cuts:?}");
            assert_eq!(root.finish().to_bytes(), want, "{nprocs}p cuts {cuts:?}");
        }
    }

    #[test]
    fn relayed_blocks_arrival_order_independent() {
        let (_, ctts) = pipeline(JACOBI, 11);
        let want = merge_all(&ctts).to_bytes();
        // Gather every shard's blocks, then feed them to the root in
        // scrambled orders.
        let mut blocks = Vec::new();
        for shard in [0u32..4, 4..9, 9..11] {
            let mut relay = BinomialMerger::new(11);
            for r in shard {
                relay.add(&ctts[r as usize]);
            }
            blocks.extend(relay.into_blocks());
        }
        let mut rng = cypress_obs::rng::Rng::new(0xbeef);
        for _ in 0..8 {
            let mut order: Vec<usize> = (0..blocks.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.range_usize(0..i + 1));
            }
            let mut root = BinomialMerger::new(11);
            for &i in &order {
                let (first, count, part) = blocks[i].clone();
                assert!(root.add_block(first, count, part).unwrap());
            }
            assert_eq!(root.finish().to_bytes(), want, "order {order:?}");
        }
    }

    #[test]
    fn add_block_rejects_bad_and_duplicate_blocks() {
        let (_, ctts) = pipeline(JACOBI, 8);
        let one = merge_all(&ctts[..1]);
        let mut bm = BinomialMerger::new(8);
        // Misaligned, non-power-of-two, and out-of-range blocks are errors.
        assert!(bm.add_block(1, 2, one.clone()).is_err());
        assert!(bm.add_block(0, 3, one.clone()).is_err());
        assert!(bm.add_block(8, 1, one.clone()).is_err());
        assert!(bm.add_block(4, 8, one.clone()).is_err());
        // first + count wraps to 0 in u32: still out of range, not accepted.
        assert!(bm.add_block(0x8000_0000, 0x8000_0000, one.clone()).is_err());
        assert_eq!(bm.received(), 0);
        // A fully-duplicate block is a benign no-op; partial overlap is not.
        let mut relay = BinomialMerger::new(8);
        for ctt in &ctts[..4] {
            relay.add(ctt);
        }
        let (first, count, part) = relay.into_blocks().remove(0);
        assert!(bm.add_block(first, count, part.clone()).unwrap());
        assert!(!bm.add_block(first, count, part.clone()).unwrap());
        assert_eq!(bm.received(), 4);
        assert!(bm.add_block(0, 8, part).is_err());
    }

    #[test]
    fn slabs_merge_to_the_bytes_owned_ctts_merge_to() {
        let (_, ctts) = pipeline(JACOBI, 13);
        let slabs: Vec<CttSlab> = ctts
            .iter()
            .map(|c| CttSlab::from_bytes(&c.to_bytes()).unwrap())
            .collect();
        let want = merge_all(&ctts).to_bytes();
        assert_eq!(merge_all(&slabs).to_bytes(), want);
        assert_eq!(merge_all_parallel(&slabs, 3).to_bytes(), want);
        let mut bm = BinomialMerger::new(13);
        for s in slabs.iter().rev() {
            assert!(bm.add(s));
        }
        assert_eq!(bm.finish().to_bytes(), want);
    }

    #[test]
    fn shape_check_refuses_what_the_merge_would_assert_on() {
        let (info, mut ctts) = pipeline(JACOBI, 4);
        let cst = &info.cst;
        assert_eq!(check_shape(&ctts[1], cst, 4), Ok(()));
        let err = check_shape(&ctts[1], cst, 5).unwrap_err();
        assert!(err.contains("for 4 ranks, the job has 5"), "{err}");

        let loop_gid = (0..cst.len())
            .find(|&g| cst.vertex(g).kind.is_loop())
            .unwrap();
        let leaf_gid = (0..cst.len())
            .find(|&g| cst.vertex(g).kind.is_mpi())
            .unwrap();
        let block = merge_all(&ctts[..2]);
        assert_eq!(block.check_shape(cst, 4, 0, 2), Ok(()));
        let err = block.check_shape(cst, 4, 0, 3).unwrap_err();
        assert!(err.contains("2 application times for 3 ranks"), "{err}");
        // Ranks 0 and 1 offered as the block [2, 4): their groups name ranks
        // outside it, which the merge would silently file under 2 and 3.
        let err = block.check_shape(cst, 4, 2, 2).unwrap_err();
        assert!(
            err.contains("rank 0 outside the block's ranks [2, 4)"),
            "{err}"
        );
        let err = block.check_shape(cst, 4, 3, 2).unwrap_err();
        assert!(err.contains("block [3, 5) exceeds job size 4"), "{err}");
        let mut bad = block.clone();
        bad.vertices[loop_gid] = bad.vertices[leaf_gid].clone();
        let err = bad.check_shape(cst, 4, 0, 2).unwrap_err();
        assert!(
            err.contains(&format!("vertex {loop_gid} (Loop) holds leaf data")),
            "{err}"
        );

        ctts[1].data.pop();
        let err = check_shape(&ctts[1], cst, 4).unwrap_err();
        assert!(err.contains("vertices, the job's CST"), "{err}");
        ctts[2].data.swap(loop_gid, leaf_gid);
        let err = check_shape(&ctts[2], cst, 4).unwrap_err();
        assert!(
            err.contains(&format!("vertex {loop_gid} (Loop) holds leaf data")),
            "{err}"
        );
    }

    #[test]
    fn merged_codec_round_trip() {
        let (_, ctts) = pipeline(JACOBI, 4);
        let merged = merge_all(&ctts);
        let back = MergedCtt::from_bytes(&merged.to_bytes()).unwrap();
        assert_eq!(back.nprocs, merged.nprocs);
        assert_eq!(back.group_count(), merged.group_count());
        assert_eq!(back.app_times.to_vec(), merged.app_times.to_vec());
        // Canonical encoding: decode → encode is byte-stable.
        assert_eq!(back.to_bytes(), merged.to_bytes());
    }

    /// Every `IntSeq` encoding the sequence-backed `RankSet` decoded keeps
    /// its bytes, its `Debug` text and its `extend` behaviour; only the
    /// canonical one-rank form is held inline.
    #[test]
    fn rank_sets_keep_every_encoding_an_int_seq_had() {
        assert!(std::mem::size_of::<RankSet>() <= 32);
        let seg = |start, stride, len, reps| Seg {
            start,
            stride,
            len,
            reps,
        };
        let raw = |segs: &[Seg]| {
            let total = segs.iter().map(Seg::total).sum();
            IntSeq::from(crate::intseq::SeqRef::from_parts(segs, total))
        };
        let cases = [
            (IntSeq::from_slice(&[7]), true),
            (IntSeq::from_slice(&[0]), true),
            (IntSeq::from_slice(&[u32::MAX as i64]), true),
            (raw(&[seg(7, 3, 1, 1)]), false),
            (raw(&[seg(7, 0, 1, 2)]), false),
            (IntSeq::new(), false),
            (IntSeq::from_slice(&[-1]), false),
            (IntSeq::from_slice(&[-3, -2]), false),
            (IntSeq::from_slice(&[1 << 32]), false),
            (IntSeq::from_slice(&[5, 1 << 33]), false),
            (IntSeq::from_slice(&[0, 1, 4, 5, 8]), false),
            (IntSeq::from_slice(&[2, 4]), false),
        ];
        for (seq, inline) in cases {
            let bytes = seq.to_bytes();
            let rs = RankSet::from_bytes(&bytes).unwrap();
            let what = format!("{seq:?}");
            assert_eq!(matches!(rs.0, Ranks::One(_)), inline, "{what}");
            assert_eq!(rs.to_bytes(), bytes, "{what}");
            assert_eq!(format!("{rs:?}"), format!("RankSet({seq:?})"));
            assert_eq!(rs.len(), seq.len(), "{what}");
            let values: Vec<u32> = seq.to_vec().into_iter().map(|v| v as u32).collect();
            assert_eq!(rs.ranks(), values, "{what}");
            // Appending a rank, and appending the set to an empty one, give
            // the bytes pushing onto the sequence gave.
            let mut grown = rs.clone();
            grown.extend(&RankSet::singleton(9));
            let mut pushed = seq.clone();
            pushed.push(9);
            assert_eq!(grown.to_bytes(), pushed.to_bytes(), "{what}");
            let mut copied = RankSet::default();
            copied.extend(&rs);
            let repushed = IntSeq::from_slice(&seq.to_vec()).to_bytes();
            assert_eq!(copied.to_bytes(), repushed, "{what}");
            // Equality stays the sequences' equality.
            assert_eq!(copied, RankSet::from_bytes(&repushed).unwrap(), "{what}");
        }
        assert_eq!(
            RankSet::singleton(3).to_bytes(),
            IntSeq::from_slice(&[3]).to_bytes()
        );
    }

    #[test]
    fn block_rank_sets_must_lie_in_the_block_in_ascending_order() {
        let seq = |xs: &[i64]| RankSet::from_bytes(&IntSeq::from_slice(xs).to_bytes()).unwrap();
        for ok in [seq(&[4]), seq(&[4, 5, 6, 7]), seq(&[4, 6, 7])] {
            assert_eq!(ok.check_within(4, 8), Ok(()), "{ok:?}");
        }
        for (bad, why) in [
            (seq(&[3]), "rank 3 outside the block's ranks [4, 8)"),
            (seq(&[8]), "rank 8 outside the block's ranks [4, 8)"),
            (seq(&[5, 9]), "rank 9 outside"),
            (seq(&[-1, 5]), "rank -1 outside"),
            (seq(&[1 << 32]), "rank 4294967296 outside"),
            (seq(&[6, 5]), "not strictly ascending"),
            (seq(&[5, 5]), "not strictly ascending"),
            (seq(&[4, 6, 5]), "not strictly ascending"),
            (seq(&[4, 5, 4, 5]), "not strictly ascending"),
            (RankSet::default(), "names no rank"),
        ] {
            let err = bad.check_within(4, 8).unwrap_err();
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "ranks must arrive in ascending order")]
    fn absorbing_a_rank_below_a_group_it_joins_panics() {
        let (_, ctts) = pipeline(JACOBI, 4);
        let mut m = merge_all(&ctts[2..3]);
        m.absorb_rank(&ctts[1]);
    }

    /// Long lists at two leaves and a loop, over several slots, whose first
    /// group is shared by later ranks, and ranks that skip a vertex: a list
    /// must find its groups through a table of its own, empty when its
    /// vertex begins, on every merge path.
    #[test]
    fn keyed_lists_merge_alike_on_every_path() {
        use crate::ctt::EncParams;
        use crate::timestats::TimeStats;
        use cypress_trace::event::{MpiOp, MpiParams};
        const P: u32 = 80;
        let rank_ctt = |rank: u32| {
            let r = rank as i64;
            let rec = |size: i64, tag: i64| {
                let mut time = TimeStats::new();
                time.add(100 + rank as u64);
                let send = MpiParams::send(r + 1, size, tag);
                LeafRecord {
                    params: EncParams::encode(r, MpiOp::Send, &send),
                    count: 1,
                    time,
                    gap: TimeStats::new(),
                }
            };
            // A size of `1000 + rank` is no other rank's; 64 is rank 0's.
            let mine = |tag| rec(1000 + r, tag);
            let every = |k: u32, tag| {
                if rank.is_multiple_of(k) {
                    rec(64, tag)
                } else {
                    mine(tag)
                }
            };
            let counts = match rank {
                _ if rank % 6 == 1 => IntSeq::new(),
                _ if rank.is_multiple_of(5) => IntSeq::from_slice(&[7]),
                _ => IntSeq::from_slice(&[3, r]),
            };
            let last = match rank % 7 {
                3 => vec![],
                _ => vec![every(4, 3), mine(4)],
            };
            Ctt {
                rank,
                nprocs: P,
                app_time: 10_000 + rank as u64,
                data: vec![
                    VertexData::Root,
                    VertexData::Leaf {
                        records: vec![mine(0), every(3, 1), mine(2)],
                    },
                    VertexData::Loop { counts },
                    VertexData::Leaf { records: last },
                ],
            }
        };
        let ctts: Vec<Ctt> = (0..P).map(rank_ctt).collect();
        let merged = merge_all(&ctts);
        let want = merged.to_bytes();
        let mut one_by_one = MergedCtt::new(P, 4);
        let mut bm = BinomialMerger::new(P);
        for c in &ctts {
            one_by_one.absorb_rank(c);
            bm.add(c);
        }
        assert!(one_by_one.to_bytes() == want, "absorb_rank rank by rank");
        assert!(bm.finish().to_bytes() == want, "BinomialMerger");

        // Every list named is long enough to be keyed, and its first group
        // holds the ranks that share it.
        let first = |gid: usize, slot: usize| match &merged.vertices[gid] {
            MergedVertex::Leaf(slots) => {
                assert!(slots[slot].len() > SCAN_GROUPS, "vertex {gid} slot {slot}");
                slots[slot][0].0.ranks()
            }
            MergedVertex::Control(groups) => {
                assert!(groups.len() > SCAN_GROUPS, "vertex {gid}");
                groups[0].0.ranks()
            }
            MergedVertex::Empty => unreachable!(),
        };
        let sharing = |k: u32, skip: &dyn Fn(u32) -> bool| {
            (0..P)
                .filter(|r| r % k == 0 && !skip(*r))
                .collect::<Vec<_>>()
        };
        assert_eq!(first(1, 0), vec![0]);
        assert_eq!(first(1, 1), sharing(3, &|_| false));
        assert_eq!(first(2, 0), sharing(5, &|r| r % 6 == 1));
        assert_eq!(first(3, 0), sharing(4, &|r| r % 7 == 3));
    }

    #[test]
    fn key_table_confirms_every_hit_across_growth() {
        // Keys collide in pairs; the table grows and rehashes between the
        // two catch-ups.
        let groups: Vec<u32> = (0..100).collect();
        let key = |g: &u32| g / 2;
        let mut t = KeyTable::default();
        t.catch_up(&groups[..10], 0, key);
        t.catch_up(&groups, 1, key);
        for g in 0..100u32 {
            assert_eq!(t.find(g / 2, |p| groups[p] == g), Some(g as usize));
        }
        assert_eq!(t.find(7, |_| false), None);
        assert_eq!(t.find(500, |_| true), None);
        t.clear();
        assert_eq!(t.find(0, |_| true), None);
    }

    #[test]
    fn rank_set_stride_compresses_contiguous_ranks() {
        let mut rs = RankSet::singleton(1);
        for r in 2..63u32 {
            rs.extend(&RankSet::singleton(r));
        }
        assert_eq!(rs.len(), 62);
        assert!(rs.contains(30));
        assert!(!rs.contains(0));
        // One arithmetic-progression segment regardless of P.
        assert!(rs.approx_bytes() <= 256, "contiguous ranks must stay tiny");
    }

    #[test]
    fn spmd_uniform_program_merges_to_one_group_per_vertex() {
        let (_, ctts) = pipeline(
            "fn main() { for i in 0..50 { allreduce(64); barrier(); } }",
            12,
        );
        let merged = merge_all(&ctts);
        for v in merged.vertices.iter().skip(1) {
            assert_eq!(v.group_count(), 1);
        }
    }

    #[test]
    fn divergent_rank_forms_its_own_group() {
        let (_, ctts) = pipeline(
            r#"fn main() {
                if rank() == 0 {
                    for i in 0..5 { bcast(0, 8); }
                } else {
                    for i in 0..5 { bcast(0, 8); barrier(); }
                }
            }"#,
            6,
        );
        let merged = merge_all(&ctts);
        // The barrier leaf exists only for ranks 1..5.
        let mut found = false;
        for v in &merged.vertices {
            if let MergedVertex::Leaf(slots) = v {
                for slot in slots {
                    for (rs, r) in slot {
                        if r.params.op == cypress_trace::event::MpiOp::Barrier {
                            assert_eq!(rs.ranks(), vec![1, 2, 3, 4, 5]);
                            found = true;
                        }
                    }
                }
            }
        }
        assert!(found, "barrier group missing");
    }
}
