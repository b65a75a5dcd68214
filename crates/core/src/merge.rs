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
//! [`BinomialMerger`] holds ranks and merged blocks arriving in any order
//! as contiguous pieces and merges them the same way, piece by piece at
//! each vertex, once they are all in. The paper reduces pairwise on a
//! binomial tree inside `MPI_Finalize`, where every process merges in
//! parallel; here one process merges, so the pieces are taken in rank
//! order, which gives the same bytes however the job is cut, and a large
//! merge gets its parallelism from the slot lists instead: they are
//! independent, so workers take ranges of them at the same time.
//!
//! Almost every group of an irregular job holds one rank and never merges,
//! so a leaf group stays in its wire form — a span of bytes its tree keeps
//! — from the merge that opens it, through the block a relay sends and
//! the root that reads it, to the container: only a group another rank or
//! piece joins is decoded and held owned.

use crate::ctt::{bad_vertex_tag, Ctt, LeafRecord, VertexData, VD_BRANCH, VD_LOOP};
use crate::intseq::{read_seg, read_segs, IntSeq, IntSeqReader};
use crate::visit::{CttFold, CttSource, RankScope, VertexRef};
use cypress_cst::tree::{Cst, VertexKind};
use cypress_obs::{obs_log, Counter, Gauge, Histogram, Level, TIME_BOUNDS_NS};
use cypress_trace::codec::{
    decode_whole, has_long_varint, Codec, Cursor, DecodeError, DecodeResult, Decoder, Encoder,
};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::ops::Range;

// Scope `merge`.
/// New rank groups opened because no existing group was compatible.
static GROUPS_FORMED: Counter = Counter::new("merge", "groups_formed");
/// Final group count of the last full merge.
static MERGED_GROUPS: Gauge = Gauge::new("merge", "merged_groups");
/// Group compatibility tests (`record_mergeable`, control-data equality)
/// run by the absorbs.
static COMPARISONS: Counter = Counter::new("merge", "comparisons");
/// Wall time per whole-job merge.
static MERGE_NS: Histogram = Histogram::new("merge", "merge_ns", &TIME_BOUNDS_NS);

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

/// The members of a [`RankSet`] or a [`RankScope`]:
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
#[derive(Clone)]
enum MergedVertex {
    /// Root, or a vertex no rank ever reached.
    Empty,
    /// Loop/branch vertex: ranks grouped by their whole recorded sequence.
    Control(Vec<(RankSet, VertexData)>),
    /// Communication vertex: per record-slot rank groups.
    Leaf(Vec<Vec<Group>>),
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
    fn leaf_slots(&mut self, n: usize) -> &mut [Vec<Group>] {
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
            MergedVertex::Leaf(slots) => slots.iter().flatten().map(Group::approx_bytes).sum(),
        }
    }
}

/// One rank group of a leaf slot. A group one rank or one piece opened is
/// *kept*: a span of one of its tree's byte buffers that holds exactly the
/// bytes the merged codec writes for it, its [`RankSet`] and then its
/// [`LeafRecord`]. The first time another rank's record or another piece's
/// group joins it, it is decoded into an *owned* pair, which the join
/// updates. So a group that never merges — almost every group of an
/// irregular job — is never built, moved whole, re-encoded or freed on its
/// own: the merge, the wire and the readers all take its bytes.
#[derive(Clone)]
struct Group {
    /// [`head_key`] of its record's head: equal records share it.
    key: u32,
    form: Form,
}

#[derive(Clone)]
enum Form {
    /// `bufs[buf][start..start + len]` of its tree.
    Kept {
        buf: u32,
        start: u32,
        len: u32,
    },
    Owned(Box<(RankSet, LeafRecord)>),
}

impl Group {
    /// The group kept at `range` of buffer `buf`, whose bytes are `bytes`;
    /// owned instead past the 4 GiB a span addresses.
    fn kept(key: u32, buf: usize, range: Range<usize>, bytes: &[u8]) -> Group {
        let span = (
            u32::try_from(buf),
            u32::try_from(range.start),
            u32::try_from(range.end),
        );
        let form = match span {
            (Ok(buf), Ok(start), Ok(end)) => Form::Kept {
                buf,
                start,
                len: end - start,
            },
            _ => Form::Owned(Box::new(decode_group(&bytes[range]))),
        };
        Group { key, form }
    }

    /// The buffer a kept group is a span of (none for an owned one).
    fn buf_of<'b>(&self, bufs: &'b [Vec<u8>]) -> &'b [u8] {
        match self.form {
            Form::Kept { buf, .. } => &bufs[buf as usize],
            Form::Owned(_) => &[],
        }
    }

    /// A kept group's bytes, `buf` being [`Group::buf_of`] (none for an
    /// owned one).
    fn span_in<'b>(&self, buf: &'b [u8]) -> &'b [u8] {
        match self.form {
            Form::Kept { start, len, .. } => &buf[start as usize..][..len as usize],
            Form::Owned(_) => &[],
        }
    }

    /// The group as an owned pair: decoded if it is kept.
    fn decoded<'g>(&'g self, bufs: &[Vec<u8>]) -> Cow<'g, (RankSet, LeafRecord)> {
        match &self.form {
            Form::Owned(g) => Cow::Borrowed(g),
            Form::Kept { .. } => Cow::Owned(decode_group(self.span_in(self.buf_of(bufs)))),
        }
    }

    /// Whether the group's record is mergeable with `rec`
    /// ([`record_mergeable`]). A kept group, a span of `buf`, is decoded for
    /// the test; when it passes, the pair is left in `decoded` for the join
    /// that follows ([`Group::owned_mut`]), so no group is decoded twice.
    fn mergeable(
        &self,
        rec: &LeafRecord,
        buf: &[u8],
        decoded: &mut Option<(RankSet, LeafRecord)>,
    ) -> bool {
        match &self.form {
            Form::Owned(g) => record_mergeable(&g.1, rec),
            Form::Kept { .. } => {
                let pair = decode_group(self.span_in(buf));
                let hit = record_mergeable(&pair.1, rec);
                if hit {
                    *decoded = Some(pair);
                }
                hit
            }
        }
    }

    /// The owned pair a join updates: a kept group's is `decoded`, what
    /// [`Group::mergeable`] left when it found the group.
    fn owned_mut(&mut self, decoded: Option<(RankSet, LeafRecord)>) -> &mut (RankSet, LeafRecord) {
        if let Some(pair) = decoded {
            self.form = Form::Owned(Box::new(pair));
        }
        match &mut self.form {
            Form::Owned(g) => g,
            Form::Kept { .. } => unreachable!("a kept group is decoded by the test that finds it"),
        }
    }

    fn has_rank(&self, rank: u32, bufs: &[Vec<u8>]) -> bool {
        match &self.form {
            Form::Owned(g) => g.0.contains(rank),
            Form::Kept { .. } => {
                let mut cur = Cursor::new(self.span_in(self.buf_of(bufs)));
                RankSet::read(&mut cur).is_some_and(|rs| rs.contains(rank))
            }
        }
    }

    /// The merged codec's bytes for the group: a kept group's are copied.
    fn encode(&self, enc: &mut Encoder, bufs: &[Vec<u8>]) {
        match &self.form {
            Form::Kept { .. } => enc.put_raw(self.span_in(self.buf_of(bufs))),
            Form::Owned(g) => {
                g.0.encode(enc);
                g.1.encode(enc);
            }
        }
    }

    /// Move a kept group's buffer index up by `by`: its piece's buffers now
    /// follow those of the pieces before it.
    fn rebase(&mut self, by: u32) {
        if let Form::Kept { buf, .. } = &mut self.form {
            *buf += by;
        }
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + match &self.form {
                Form::Kept { .. } => 0,
                Form::Owned(g) => g.0.approx_bytes() + g.1.approx_bytes(),
            }
    }
}

/// A kept group's bytes decoded: they were checked when they were kept.
fn decode_group(bytes: &[u8]) -> (RankSet, LeafRecord) {
    let mut cur = Cursor::new(bytes);
    let group =
        RankSet::read(&mut cur).and_then(|ranks| Some((ranks, LeafRecord::read(&mut cur)?)));
    group.expect("a kept group's bytes were checked when they were kept")
}

/// The merged (inter-process compressed) trace of a whole job, or of a
/// contiguous block of its ranks.
///
/// Contract: ranks enter in ascending order. Whatever is merged in —
/// ranks through [`merge_all`], a piece through a [`BinomialMerger`]'s one
/// pass — lies above every rank already held, so each group's [`RankSet`]
/// stays ascending and stride-compressible, and `app_times` stays in rank
/// order.
///
/// A leaf group stays in its wire form until a second rank or piece joins
/// it (see the module docs), so its layout is this module's alone: readers take the
/// groups decoded, through [`fold_merged`](crate::visit::fold_merged),
/// [`MergedCtt::leaf_slots`] and [`MergedCtt::control_groups`]. `Debug`,
/// `PartialEq` and `Clone` are those of the decoded tree.
#[derive(Clone)]
pub struct MergedCtt {
    pub nprocs: u32,
    /// Indexed by CST GID.
    vertices: Vec<MergedVertex>,
    /// Per-rank application times, stride-compressed in rank order.
    pub app_times: IntSeq,
    /// The buffers kept groups are spans of: the bytes the tree was read
    /// from, each merge worker's new groups, and the buffers of every piece
    /// merged in.
    bufs: Vec<Vec<u8>>,
}

/// The text a derived `Debug` gives the decoded tree.
impl std::fmt::Debug for MergedCtt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedCtt")
            .field("nprocs", &self.nprocs)
            .field("vertices", &Decoded(&self.vertices, &self.bufs))
            .field("app_times", &self.app_times)
            .finish()
    }
}

/// A list of a tree's vertices, slots or groups, printed as a derived
/// `Debug` prints its decoded form.
struct Decoded<'a, T>(&'a [T], &'a [Vec<u8>]);

impl std::fmt::Debug for Decoded<'_, MergedVertex> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bufs = self.1;
        f.debug_list()
            .entries(self.0.iter().map(|v| Shown(v, bufs)))
            .finish()
    }
}

impl std::fmt::Debug for Decoded<'_, Vec<Group>> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bufs = self.1;
        f.debug_list()
            .entries(self.0.iter().map(|groups| Decoded(groups, bufs)))
            .finish()
    }
}

impl std::fmt::Debug for Decoded<'_, Group> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.0.iter().map(|g| g.decoded(self.1)))
            .finish()
    }
}

/// One vertex, printed as the derived `Debug` of its decoded data.
struct Shown<'a>(&'a MergedVertex, &'a [Vec<u8>]);

impl std::fmt::Debug for Shown<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            MergedVertex::Empty => f.write_str("Empty"),
            MergedVertex::Control(groups) => f.debug_tuple("Control").field(groups).finish(),
            MergedVertex::Leaf(slots) => f
                .debug_tuple("Leaf")
                .field(&Decoded(slots, self.1))
                .finish(),
        }
    }
}

/// Equality of the decoded trees.
impl PartialEq for MergedCtt {
    fn eq(&self, other: &Self) -> bool {
        let vertex = |(a, b): (&MergedVertex, &MergedVertex)| match (a, b) {
            (MergedVertex::Empty, MergedVertex::Empty) => true,
            (MergedVertex::Control(x), MergedVertex::Control(y)) => x == y,
            (MergedVertex::Leaf(x), MergedVertex::Leaf(y)) => {
                x.len() == y.len()
                    && x.iter().zip(y).all(|(s, t)| {
                        s.len() == t.len()
                            && s.iter()
                                .zip(t)
                                .all(|(g, h)| g.decoded(&self.bufs) == h.decoded(&other.bufs))
                    })
            }
            _ => false,
        };
        self.nprocs == other.nprocs
            && self.app_times == other.app_times
            && self.vertices.len() == other.vertices.len()
            && self.vertices.iter().zip(&other.vertices).all(vertex)
    }
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
/// records — what [`merge_all`] and [`BinomialMerger`] assert, so a peer's
/// tree can be refused with an error before it reaches them.
/// [`MergedCtt::from_block`] holds a merged block to this as it reads it.
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

/// Why [`MergedCtt::from_block`] refused a block.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockError {
    /// Not a merged tree's bytes: what `MergedCtt::from_bytes` refuses.
    Undecodable(DecodeError),
    /// A merged tree, but not one of the job and ranks it is offered for.
    Misfit(String),
}

impl MergedCtt {
    /// The merge of no rank yet: a job of `nprocs` ranks over a CST of
    /// `vertices` vertices, every vertex empty.
    pub fn new(nprocs: u32, vertices: usize) -> Self {
        MergedCtt {
            nprocs,
            vertices: vec![MergedVertex::Empty; vertices],
            app_times: IntSeq::new(),
            bufs: Vec::new(),
        }
    }

    /// Read a merged block said to cover ranks `[first, first + nranks)` of
    /// a job of `nprocs` ranks over `cst`, in one checked pass that keeps
    /// `bytes` as the tree's buffer, so a group read as kept is a span of
    /// them. Refused as undecodable: what `from_bytes` refuses. Then, as a
    /// misfit: what [`check_shape`] refuses of a rank's tree (another job
    /// size or vertex count, a vertex holding data of the wrong kind, every
    /// group of a control vertex checked), a range outside the job, a group
    /// whose ranks leave the range or are not strictly ascending, and other
    /// than one application time per covered rank.
    pub fn from_block(
        bytes: Vec<u8>,
        cst: &Cst,
        nprocs: u32,
        first: u32,
        nranks: u32,
    ) -> Result<Self, BlockError> {
        let end = first as u64 + nranks as u64;
        let mut reader = Reader::new(&bytes, Some((cst, first, end)));
        let tree = decode_whole(&bytes, |dec| dec.read(|cur| reader.tree(cur)))
            .map_err(BlockError::Undecodable)?;
        let times = tree.app_times.len();
        let misfit = check_size(cst, nprocs, tree.nprocs, tree.vertices.len())
            .err()
            .or_else(|| {
                (end > nprocs as u64)
                    .then(|| format!("block [{first}, {end}) exceeds job size {nprocs}"))
            })
            .or(reader.misfit)
            .or_else(|| {
                (times != nranks as u64)
                    .then(|| format!("block holds {times} application times for {nranks} ranks"))
            });
        match misfit {
            Some(e) => Err(BlockError::Misfit(e)),
            None => Ok(MergedCtt {
                bufs: vec![bytes],
                ..tree
            }),
        }
    }

    /// Total group count across vertices (the merged trace's record
    /// measure).
    pub fn group_count(&self) -> usize {
        self.vertices.iter().map(|v| v.group_count()).sum()
    }

    /// Vertices held: the CST's, in a tree that fits its job.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// The control groups of vertex `gid`: none unless it is a loop or a
    /// branch that some rank reached.
    pub fn control_groups(&self, gid: usize) -> &[(RankSet, VertexData)] {
        match &self.vertices[gid] {
            MergedVertex::Control(groups) => groups,
            _ => &[],
        }
    }

    /// The slots of leaf vertex `gid`, every group decoded: none unless it
    /// is a leaf that some rank reached.
    pub fn leaf_slots(&self, gid: usize) -> Vec<Vec<(RankSet, LeafRecord)>> {
        match &self.vertices[gid] {
            MergedVertex::Leaf(slots) => slots
                .iter()
                .map(|groups| {
                    let groups = groups.iter().map(|g| g.decoded(&self.bufs));
                    groups.map(Cow::into_owned).collect()
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Every group to `f`, in GID order, scoped to its rank set
    /// ([`fold_merged`](crate::visit::fold_merged)); a kept group is decoded
    /// for its callback, and no group for a fold that reads no records.
    pub(crate) fn fold<F: CttFold>(&self, f: &mut F) {
        for (gid, mv) in self.vertices.iter().enumerate() {
            let gid = gid as u32;
            match mv {
                MergedVertex::Empty => {}
                MergedVertex::Control(groups) => {
                    for (rs, vd) in groups {
                        match vd.view() {
                            VertexRef::Loop(counts) => f.on_loop(gid, RankScope::Set(rs), counts),
                            VertexRef::Branch(taken) => f.on_branch(gid, RankScope::Set(rs), taken),
                            _ => {}
                        }
                    }
                }
                MergedVertex::Leaf(_) if !F::RECORDS => {}
                MergedVertex::Leaf(slots) => {
                    for (slot, groups) in slots.iter().enumerate() {
                        for g in groups {
                            let g = g.decoded(&self.bufs);
                            f.on_record(gid, slot, RankScope::Set(&g.0), &g.1);
                        }
                    }
                }
            }
        }
    }

    /// Check every kept group: its bytes decoded and encoded again are its
    /// bytes, and its key is the decoded record's. Returns the number of
    /// kept groups.
    #[doc(hidden)]
    pub fn check_kept_groups(&self) -> Result<usize, String> {
        let mut kept = 0;
        let mut scratch = Encoder::new();
        for (gid, mv) in self.vertices.iter().enumerate() {
            let MergedVertex::Leaf(slots) = mv else {
                continue;
            };
            for (slot, groups) in slots.iter().enumerate() {
                for (i, g) in groups.iter().enumerate() {
                    let Form::Kept { .. } = g.form else {
                        continue;
                    };
                    kept += 1;
                    let bytes = g.span_in(g.buf_of(&self.bufs));
                    let (ranks, rec) = decode_group(bytes);
                    let mut enc = Encoder::new();
                    ranks.encode(&mut enc);
                    rec.encode(&mut enc);
                    let at = format!("vertex {gid} slot {slot} group {i}");
                    if enc.as_bytes() != bytes {
                        return Err(format!(
                            "{at}: kept {bytes:?}, re-encoded {:?}",
                            enc.as_bytes()
                        ));
                    }
                    if g.key != record_key(&rec, &mut scratch) {
                        return Err(format!("{at}: key {} is not its record's", g.key));
                    }
                }
            }
        }
        Ok(kept)
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
                            if let Some(g) = slot.iter().find(|g| g.has_rank(rank, &self.bufs)) {
                                records.push(g.decoded(&self.bufs).into_owned().1);
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

    /// Bytes held: the groups, the buffers kept groups are spans of, and
    /// the application times.
    pub fn approx_bytes(&self) -> usize {
        self.vertices
            .iter()
            .map(|v| v.approx_bytes())
            .sum::<usize>()
            + self.bufs.iter().map(Vec::len).sum::<usize>()
            + self.app_times.approx_bytes()
    }
}

/// Merge all per-process CTTs (must be in rank order), vertex by vertex as
/// the paper does: every rank's data at one vertex is absorbed from its view
/// before the next vertex, so a long list's key table lives only while its
/// vertex is merged — O(records), however many rank groups a slot holds.
/// The slots of a leaf are independent lists, so a large job's slots are
/// cut into ranges that workers merge at the same time; the bytes are the
/// same at any worker count.
pub fn merge_all<S: CttSource>(ctts: &[S]) -> MergedCtt {
    let _span = MERGE_NS.span("merge", "merge_all").arg(ctts.len() as u64);
    let (acc, tally) = merge_ranks(ctts, workers_for);
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

/// Bytes reserved per record a merge worker absorbs, for the group it may
/// open: a little above what a one-rank group of `local-irregular` takes
/// on the wire (~41 B).
const GROUP_BYTES: usize = 48;

/// [`merge_all`] on `workers(records)` workers, with the tallies it has not
/// flushed. The caller sizes every leaf's slot list to the most records any
/// rank has there, and allocates each worker's buffer, room for one group
/// per record it absorbs; then each worker absorbs its slot ranges (a
/// control vertex's one list whole) rank after rank, writing the groups it
/// opens into its buffer, which becomes one of the tree's.
fn merge_ranks<S: CttSource>(ctts: &[S], workers: fn(u64) -> usize) -> (MergedCtt, Tally) {
    assert!(!ctts.is_empty(), "merge_all needs at least one CTT");
    let mut acc = MergedCtt::new(ctts[0].nprocs(), ctts[0].vertex_count());
    for c in ctts {
        assert_eq!(acc.vertices.len(), c.vertex_count());
        acc.app_times.push(c.app_time() as i64);
    }
    // A slot's weight is the ranks that reach it: a leaf's rank of n
    // records marks slot n - 1, and the suffix sums count the rest.
    let mut plan = Plan::default();
    for (gid, mine) in acc.vertices.iter_mut().enumerate() {
        let start = plan.begin_vertex();
        let mut control = 0;
        for c in ctts {
            match c.vertex(gid) {
                VertexRef::Root | VertexRef::Leaf([]) => {}
                VertexRef::Loop(s) | VertexRef::Branch(s) if s.is_empty() => {}
                VertexRef::Loop(_) | VertexRef::Branch(_) => control += 1,
                VertexRef::Leaf(records) => {
                    let last = start + records.len() - 1;
                    if plan.weights.len() <= last {
                        plan.weights.resize(last + 1, 0);
                    }
                    plan.weights[last] += 1;
                }
            }
        }
        let slots = plan.weights.len() - start;
        if slots > 0 {
            for i in (start..plan.weights.len() - 1).rev() {
                plan.weights[i] += plan.weights[i + 1];
            }
            mine.leaf_slots(slots);
        }
        if control > 0 {
            mine.control_groups();
            plan.weights.push(control);
        }
    }
    plan.cut(workers(plan.total()));
    let mut parts: Vec<Vec<Absorb<'_>>> = plan.parts();
    for (gid, mine) in acc.vertices.iter_mut().enumerate() {
        match mine {
            MergedVertex::Empty => {}
            MergedVertex::Control(groups) => {
                if let Some((k, _)) = plan.spans(gid).next() {
                    parts[k].push(Absorb::Control(gid, groups));
                }
            }
            MergedVertex::Leaf(slots) => {
                let spans: Vec<_> = plan.spans(gid).collect();
                for ((k, span), dst) in spans.iter().zip(cut_list(slots, &spans)) {
                    parts[*k].push(Absorb::Leaf(gid, span.start, dst));
                }
            }
        }
    }
    let parts = parts.into_iter().enumerate().map(|(k, part)| {
        let room = plan.weight(k) as usize * GROUP_BYTES;
        (k, part, Encoder::with_capacity(room))
    });
    let done = split(parts.collect(), |(k, part, out)| {
        absorb_part(ctts, k, part, out)
    });
    let (tallies, bufs): (Vec<_>, _) = done.into_iter().unzip();
    acc.bufs = bufs;
    (acc, tallies.into_iter().sum())
}

/// One worker's share of a [`merge_all`] at one vertex: a control vertex's
/// list, or the leaf slots from `.1` on.
enum Absorb<'a> {
    Control(usize, &'a mut Vec<(RankSet, VertexData)>),
    Leaf(usize, usize, &'a mut [Vec<Group>]),
}

/// Absorb every rank's data into the lists of worker `k`, rank by rank at
/// each of its vertices, finding a long list's group through its own key
/// table, emptied when the worker's share of the vertex is merged. The
/// groups it opens are kept in `out`, the tree's buffer `k`, returned.
fn absorb_part<S: CttSource>(
    ctts: &[S],
    k: usize,
    part: Vec<Absorb<'_>>,
    mut out: Encoder,
) -> (Tally, Vec<u8>) {
    let (mut tables, mut tally) = (Vec::new(), Tally::default());
    for share in part {
        match share {
            Absorb::Control(gid, dst) => {
                let table = &mut first_tables(&mut tables, 1)[0];
                for c in ctts {
                    let theirs = c.vertex(gid);
                    if let VertexRef::Loop(s) | VertexRef::Branch(s) = theirs {
                        if !s.is_empty() {
                            absorb_control(dst, theirs, c.rank(), table, &mut tally);
                        }
                    }
                }
                table.clear();
            }
            Absorb::Leaf(gid, first, dst) => {
                let tables = first_tables(&mut tables, dst.len());
                for c in ctts {
                    // Empty data = the rank never reached this vertex: it
                    // contributes nothing there (paper: "if a process has
                    // not executed a certain call path, the path is
                    // ignored").
                    let VertexRef::Leaf(records) = c.vertex(gid) else {
                        continue;
                    };
                    let records = records.get(first..).unwrap_or_default();
                    for ((slot, rec), table) in dst.iter_mut().zip(records).zip(&mut *tables) {
                        let rank = c.rank();
                        absorb_record(slot, rec, rank, table, &mut tally, &mut out, k);
                    }
                }
                tables.iter_mut().for_each(KeyTable::clear);
            }
        }
    }
    // The room reserved was one group per record; most records join a
    // group instead, so what is left over is handed back.
    let mut buf = out.finish();
    buf.shrink_to_fit();
    (tally, buf)
}

/// Merge one rank's control data into the groups of its vertex.
fn absorb_control(
    dst: &mut Vec<(RankSet, VertexData)>,
    theirs: VertexRef<'_>,
    rank: u32,
    table: &mut KeyTable,
    tally: &mut Tally,
) {
    let found = tally.find(
        dst,
        1,
        table,
        || control_key(theirs),
        |(_, d)| control_key(d.view()),
        |(_, d)| d.view() == theirs,
    );
    match found {
        Some(p) => dst[p].0.push_above(rank),
        None => {
            tally.groups_formed += 1;
            let data = match theirs {
                VertexRef::Loop(s) => VertexData::Loop { counts: s.into() },
                VertexRef::Branch(s) => VertexData::Branch { taken: s.into() },
                _ => unreachable!("control groups hold loop or branch data"),
            };
            dst.push((RankSet::singleton(rank), data));
        }
    }
}

/// Merge one rank's record into the groups of its slot. The group it
/// would open is written at the end of `out`, buffer `buf` of the tree,
/// first its rank and head, whose key finds the group it joins instead;
/// then, if it joins none, its timing, and the bytes stay as the new kept
/// group.
fn absorb_record(
    slot: &mut Vec<Group>,
    rec: &LeafRecord,
    rank: u32,
    table: &mut KeyTable,
    tally: &mut Tally,
    out: &mut Encoder,
    buf: usize,
) {
    let start = out.len();
    RankSet::singleton(rank).encode(out);
    let head_at = out.len();
    rec.encode_head(out);
    let bytes = out.as_bytes();
    let key = head_key(&bytes[head_at..]);
    let mut decoded = None;
    let found = tally.find(
        slot,
        1,
        table,
        || key,
        |g| g.key,
        |g| g.key == key && g.mergeable(rec, bytes, &mut decoded),
    );
    match found {
        Some(p) => {
            out.truncate(start);
            let (rs, r) = slot[p].owned_mut(decoded);
            rs.push_above(rank);
            r.time.merge(&rec.time);
            r.gap.merge(&rec.gap);
        }
        None => {
            tally.groups_formed += 1;
            rec.time.encode(out);
            rec.gap.encode(out);
            slot.push(Group::kept(key, buf, start..out.len(), out.as_bytes()));
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

/// Merge `pieces`, each a contiguous run of ranks right above the one
/// before it, into one tree, vertex by vertex as [`merge_all`] merges
/// ranks, on `workers(groups)` workers. The first piece is the base, and
/// the buffers of the later pieces join its own. The caller reserves each
/// of the base's lists' final length (the sum of every piece's list there),
/// then at each vertex every later piece's groups move into the base lists
/// without a reallocation, a long list's group found through one key table
/// per list that is filled once and emptied when the worker's share of the
/// vertex is done. A leaf group moves as its key and span; only a group
/// another joins is decoded. So the pass is linear in the groups however
/// many pieces there are, and it copies no group's bytes. The emptied
/// lists of the later pieces are freed after the pass, on the calling
/// thread.
fn merge_pieces(pieces: Vec<MergedCtt>, workers: fn(u64) -> usize) -> (MergedCtt, Tally) {
    let mut pieces = pieces.into_iter();
    let mut acc = pieces.next().expect("a merge of pieces needs at least one");
    let mut rest: Vec<MergedCtt> = pieces.collect();
    let mut bufs = std::mem::take(&mut acc.bufs);
    let mut offsets = Vec::with_capacity(rest.len());
    for p in &mut rest {
        assert_eq!(acc.vertices.len(), p.vertices.len());
        let mut r = p.app_times.reader();
        while let Some(v) = r.next() {
            acc.app_times.push(v);
        }
        offsets.push(bufs.len() as u32);
        bufs.append(&mut p.bufs);
    }
    // A list's weight is the groups it ends with.
    let mut plan = Plan::default();
    for (gid, mine) in acc.vertices.iter_mut().enumerate() {
        let start = plan.begin_vertex();
        let (mut leaf, mut control) = (false, false);
        for p in &rest {
            match &p.vertices[gid] {
                MergedVertex::Empty => {}
                MergedVertex::Control(groups) => {
                    control = true;
                    plan.add_lens(start, [groups.len()]);
                }
                MergedVertex::Leaf(slots) => {
                    leaf = true;
                    plan.add_lens(start, slots.iter().map(Vec::len));
                }
            }
        }
        let incoming = &mut plan.weights[start..];
        if leaf {
            reserve_lists(mine.leaf_slots(incoming.len()), incoming);
        }
        if control {
            reserve_lists(std::slice::from_mut(mine.control_groups()), incoming);
        }
    }
    plan.cut(workers(plan.total()));
    let mut parts: Vec<Vec<Move<'_>>> = plan.parts();
    let mut theirs: Vec<_> = rest.iter_mut().map(|p| p.vertices.iter_mut()).collect();
    for (gid, mine) in acc.vertices.iter_mut().enumerate() {
        let from: Vec<&mut MergedVertex> = theirs
            .iter_mut()
            .map(|v| v.next().expect("pieces share the vertex count"))
            .collect();
        match mine {
            MergedVertex::Empty => {}
            MergedVertex::Control(dst) => {
                if let Some((k, _)) = plan.spans(gid).next() {
                    let from = from.into_iter().filter_map(|v| match v {
                        MergedVertex::Control(groups) => Some(groups),
                        _ => None,
                    });
                    parts[k].push(Move::Control(dst, from.collect()));
                }
            }
            MergedVertex::Leaf(dst) => {
                let spans: Vec<_> = plan.spans(gid).collect();
                let mut moves: Vec<_> = cut_list(dst, &spans).map(|d| (d, Vec::new())).collect();
                for (v, &by) in from.into_iter().zip(&offsets) {
                    if let MergedVertex::Leaf(src) = v {
                        for (m, s) in moves.iter_mut().zip(cut_list(src, &spans)) {
                            m.1.push((s, by));
                        }
                    }
                }
                for ((k, _), (dst, from)) in spans.into_iter().zip(moves) {
                    parts[k].push(Move::Leaf(dst, from));
                }
            }
        }
    }
    let tally = split(parts, |part| move_groups(part, &bufs));
    acc.bufs = bufs;
    (acc, tally.into_iter().sum())
}

/// Reserve room in each list for the groups still to come into it, whose
/// count `incoming` holds; it then holds each list's final length.
fn reserve_lists<T>(lists: &mut [Vec<T>], incoming: &mut [u64]) {
    for (list, n) in lists.iter_mut().zip(incoming) {
        list.reserve_exact(*n as usize);
        *n += list.len() as u64;
    }
}

/// `list` cut into the ranges of `spans` (consecutive, from 0), each
/// clipped to the list's length.
fn cut_list<'a: 's, 's, T>(
    list: &'a mut [T],
    spans: &'s [(usize, Range<usize>)],
) -> impl Iterator<Item = &'a mut [T]> + 's {
    let len = list.len();
    let mut left = list;
    spans.iter().map(move |(_, span)| {
        let n = span.end.min(len) - span.start.min(len);
        let (head, tail) = std::mem::take(&mut left).split_at_mut(n);
        left = tail;
        head
    })
}

/// One worker's share of a piece merge at one vertex: the base piece's
/// lists, and the same lists of every later piece, whose groups move in,
/// each with what its kept groups' buffer indices move up by.
enum Move<'a> {
    Control(
        &'a mut Vec<(RankSet, VertexData)>,
        Vec<&'a mut Vec<(RankSet, VertexData)>>,
    ),
    Leaf(&'a mut [Vec<Group>], Vec<(&'a mut [Vec<Group>], u32)>),
}

/// Move one worker's groups, piece by piece at each of its vertices, as
/// [`absorb_record`] moves one rank's data: each joins the compatible group
/// already there or opens its own after them. The emptied lists stay where
/// they are.
fn move_groups(part: Vec<Move<'_>>, bufs: &[Vec<u8>]) -> Tally {
    let (mut tables, mut tally) = (Vec::new(), Tally::default());
    for share in part {
        match share {
            Move::Control(dst, from) => {
                let table = &mut first_tables(&mut tables, 1)[0];
                for groups in from {
                    tally.absorb_controls(dst, groups.drain(..), table);
                }
                table.clear();
            }
            Move::Leaf(dst, from) => {
                let tables = first_tables(&mut tables, dst.len());
                for (slots, by) in from {
                    for ((slot, groups), table) in dst.iter_mut().zip(slots).zip(&mut *tables) {
                        let groups = groups.drain(..);
                        tally.absorb_groups(slot, groups, by, table, bufs);
                    }
                }
                tables.iter_mut().for_each(KeyTable::clear);
            }
        }
    }
    tally
}

/// [`merge_all`], whatever `threads` says: the merge picks its own worker
/// count from the job's size.
#[doc(hidden)]
pub fn merge_all_parallel<S: CttSource>(ctts: &[S], _threads: usize) -> MergedCtt {
    merge_all(ctts)
}

/// At most this many workers split one merge or merged encode: the cap
/// `Server::new(0)` puts on its event loops.
const MAX_WORKERS: usize = 8;

/// The items (records absorbed, groups moved or encoded) a worker must have
/// before one more is started. Below it a merge or an encode runs on the
/// calling thread alone: a regular job, a stream collection and every
/// bundled workload at its quick rank count merge fewer records than this,
/// and a thread start costs tens of microseconds.
const ITEMS_PER_WORKER: u64 = 32_768;

/// Workers for `items` items: one per [`ITEMS_PER_WORKER`], at most one per
/// core and at most [`MAX_WORKERS`]. The core count is asked for only when
/// a second worker is wanted: on Linux it reads the cgroup's CPU quota,
/// ~16 µs a call on the 2-core sizing box, which a one-rank `add` should not
/// pay.
fn workers_for(items: u64) -> usize {
    let wanted = (items / ITEMS_PER_WORKER).max(1) as usize;
    if wanted == 1 {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(4, |n| n.get().min(MAX_WORKERS));
    wanted.min(cores)
}

/// Run `work` on every part, the first on the calling thread and each other
/// on a scoped thread of its own, and return the results in part order. The
/// one place this crate starts threads; a worker's panic resumes on the
/// caller.
fn split<P: Send, R: Send>(parts: Vec<P>, work: impl Fn(P) -> R + Sync) -> Vec<R> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.len() == 0 {
        return vec![work(first)];
    }
    std::thread::scope(|s| {
        let work = &work;
        let others: Vec<_> = parts.map(|p| s.spawn(move || work(p))).collect();
        let mut out = vec![work(first)];
        for h in others {
            out.push(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        out
    })
}

/// The items of one merge or merged encode in vertex order — each slot of a
/// leaf, the one list of a control vertex — each weighed by the groups or
/// records it takes, and cut into one run of items per worker. A vertex's
/// items are independent lists, so the runs can be worked at the same time
/// and give what one worker gives.
#[derive(Default)]
struct Plan {
    /// Vertex `gid`'s items are `starts[gid]..starts[gid + 1]`.
    starts: Vec<usize>,
    weights: Vec<u64>,
    /// Part `k`'s items are `bounds[k]..bounds[k + 1]`.
    bounds: Vec<usize>,
}

impl Plan {
    /// Open the next vertex; its items are the weights pushed until the
    /// next. Returns its first item's index.
    fn begin_vertex(&mut self) -> usize {
        self.starts.push(self.weights.len());
        self.weights.len()
    }

    /// Add list lengths, from the vertex's first item (`start`) on.
    fn add_lens(&mut self, start: usize, lens: impl IntoIterator<Item = usize>) {
        for (i, len) in lens.into_iter().enumerate() {
            match self.weights.get_mut(start + i) {
                Some(w) => *w += len as u64,
                None => self.weights.push(len as u64),
            }
        }
    }

    fn total(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Part `k`'s weight.
    fn weight(&self, k: usize) -> u64 {
        self.weights[self.bounds[k]..self.bounds[k + 1]]
            .iter()
            .sum()
    }

    /// Close the last vertex and cut the items into `parts` runs of
    /// near-equal weight: a part starts at the first item whose weight
    /// before it reaches the part's share.
    fn cut(&mut self, parts: usize) {
        self.starts.push(self.weights.len());
        let total = self.total() as u128;
        let mut before = 0u128;
        self.bounds = vec![0];
        for (i, &w) in self.weights.iter().enumerate() {
            while self.bounds.len() < parts
                && before * parts as u128 >= total * self.bounds.len() as u128
            {
                self.bounds.push(i);
            }
            before += w as u128;
        }
        self.bounds.resize(parts + 1, self.weights.len());
    }

    /// One empty list per part.
    fn parts<T>(&self) -> Vec<Vec<T>> {
        (1..self.bounds.len()).map(|_| Vec::new()).collect()
    }

    /// The parts that hold items of vertex `gid`, in order, each with its
    /// range of the vertex's items.
    fn spans(&self, gid: usize) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let (first, end) = (self.starts[gid], self.starts[gid + 1]);
        self.bounds
            .windows(2)
            .enumerate()
            .filter_map(move |(k, b)| {
                let (lo, hi) = (b[0].max(first), b[1].min(end));
                (lo < hi).then(|| (k, lo - first..hi - first))
            })
    }

    /// What part `k` encodes of vertex `gid`: whether it writes the
    /// vertex's header — the part holding its first item, or the last part
    /// for a vertex after every item — and its range of the vertex's items.
    fn part(&self, k: usize, gid: usize) -> (bool, Range<usize>) {
        let (first, end) = (self.starts[gid], self.starts[gid + 1]);
        let owner = self.bounds.partition_point(|&b| b <= first) - 1;
        let (lo, hi) = (self.bounds[k].max(first), self.bounds[k + 1].min(end));
        let items = if lo < hi {
            lo - first..hi - first
        } else {
            0..0
        };
        (owner.min(self.bounds.len() - 2) == k, items)
    }
}

/// A group list is scanned while it and the groups coming into it number
/// at most this many; past that it is matched by key. A scan test that
/// fails on the message size costs a few nanoseconds, a key a hash and a
/// probe, so short lists scan faster. On the 64 `local-irregular` rank CTTs
/// (DESIGN §10 has the numbers) the pairwise merger this crate had before
/// was about a third slower when every list was keyed and ran fastest at
/// 32 or 64, and `merge_all` runs fastest at 16 or 32 and slows at 64,
/// where it scans every rank-unique list. Either way an absorb runs at most
/// half this many tests per group of the lists it touches, short of
/// crafted key collisions ([`KeyTable`]).
const SCAN_GROUPS: usize = 32;

/// The tallies of one worker's share of a merge, summed over the workers
/// and flushed into the `merge` counters once.
#[derive(Default, Debug, PartialEq)]
struct Tally {
    groups_formed: u64,
    comparisons: u64,
}

impl std::iter::Sum for Tally {
    fn sum<I: Iterator<Item = Tally>>(tallies: I) -> Tally {
        tallies.fold(Tally::default(), |a, b| Tally {
            groups_formed: a.groups_formed + b.groups_formed,
            comparisons: a.comparisons + b.comparisons,
        })
    }
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
        mut matches: impl FnMut(&G) -> bool,
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

    /// Merge one piece's control `groups` into `dst`, whose key table is
    /// `table`: each group's ranks join the group of equal data already
    /// there, or it opens its own after them.
    fn absorb_controls(
        &mut self,
        dst: &mut Vec<(RankSet, VertexData)>,
        groups: impl ExactSizeIterator<Item = (RankSet, VertexData)>,
        table: &mut KeyTable,
    ) {
        let mut incoming = groups.len();
        for (ranks, data) in groups {
            let found = self.find(
                dst,
                incoming,
                table,
                || control_key(data.view()),
                |(_, d)| control_key(d.view()),
                |(_, d)| control_mergeable(d, &data),
            );
            incoming -= 1;
            match found {
                Some(p) => dst[p].0.extend(&ranks),
                None => {
                    self.groups_formed += 1;
                    dst.push((ranks, data));
                }
            }
        }
    }

    /// Merge one piece's leaf `groups` into `dst`, whose key table is
    /// `table`: each group, its buffer index moved up `by`, joins the group
    /// of a mergeable record already there — the two decoded into its owned
    /// pair — or opens its own after them, as it came.
    fn absorb_groups(
        &mut self,
        dst: &mut Vec<Group>,
        groups: impl ExactSizeIterator<Item = Group>,
        by: u32,
        table: &mut KeyTable,
        bufs: &[Vec<u8>],
    ) {
        let mut incoming = groups.len();
        for mut group in groups {
            group.rebase(by);
            let key = group.key;
            // The incoming group is decoded at its first key hit, if any.
            let (mut theirs, mut mine) = (None, None);
            let found = self.find(
                dst,
                incoming,
                table,
                || key,
                |g| g.key,
                |g| {
                    if g.key != key {
                        return false;
                    }
                    let theirs = theirs.get_or_insert_with(|| group.decoded(bufs));
                    g.mergeable(&theirs.1, g.buf_of(bufs), &mut mine)
                },
            );
            incoming -= 1;
            match found {
                Some(p) => {
                    let theirs = theirs.expect("a group is decoded before it is joined");
                    let (rs, r) = dst[p].owned_mut(mine);
                    rs.extend(&theirs.0);
                    r.time.merge(&theirs.1.time);
                    r.gap.merge(&theirs.1.gap);
                }
                None => {
                    self.groups_formed += 1;
                    dst.push(group);
                }
            }
        }
    }

    /// Add the tallies to the `merge` counters.
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
    /// Eight bytes a word, little-endian, the last word padded with zeros.
    /// Every record merged and every leaf group read hashes its head (~13
    /// bytes), so the short last word is put together from its bytes, not
    /// copied into a padded array.
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.write_u64(u64::from_le_bytes(w.try_into().unwrap_or_default()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let tail = rest.iter().rev().fold(0, |w, &b| w << 8 | b as u64);
            self.write_u64(tail);
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

/// Key of a record's head bytes ([`LeafRecord::encode_head`]): what
/// [`record_mergeable`] compares, as the codec writes it. So a kept group's
/// key hashes its own bytes, and an owned record's the head it encodes.
fn head_key(head: &[u8]) -> u32 {
    let mut h = KeyHasher::default();
    h.write_usize(head.len());
    h.write(head);
    h.finish() as u32
}

/// [`head_key`] of an owned record, its head encoded into `scratch`.
fn record_key(r: &LeafRecord, scratch: &mut Encoder) -> u32 {
    scratch.clear();
    r.encode_head(scratch);
    head_key(scratch.as_bytes())
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

/// Ranks and merged blocks arriving in **any order**, merged once when they
/// are all in — what the network collector, root and relay alike, runs.
/// The merger holds disjoint contiguous *pieces*: a run of ranks enters
/// through [`add_run`](Self::add_run) as one [`merge_all`] over it, a lower
/// tier's merged block through [`add_block`](Self::add_block) as it came.
/// Nothing merges while pieces arrive; [`finish`](Self::finish) and
/// [`into_blocks`](Self::into_blocks) make one vertex-by-vertex pass over
/// them in rank order.
///
/// The merge is associative over contiguous pieces taken in ascending rank
/// order: the groups of one list are pairwise incompatible, so a scan's
/// first hit is its only hit; rank sets and `app_times` are rebuilt value
/// by value, so they come out canonical; and [`TimeStats`] holds exact
/// integer moments. So however a job is cut, [`finish`](Self::finish) is
/// byte-identical to [`merge_all`] over the same CTTs in rank order — the
/// invariant `tests/merge_identity.rs` and `tests/net_collect.rs` pin. The
/// type keeps the name of the binomial schedule it used to run.
///
/// [`TimeStats`]: crate::timestats::TimeStats
pub struct BinomialMerger {
    nprocs: u32,
    /// Disjoint pieces, keyed by first rank → (rank count, merge).
    pieces: std::collections::BTreeMap<u32, (u32, MergedCtt)>,
    /// Bitset of ranks already accepted.
    seen: Vec<u64>,
    received: u32,
}

impl BinomialMerger {
    pub fn new(nprocs: u32) -> Self {
        assert!(nprocs > 0, "BinomialMerger needs at least one rank");
        BinomialMerger {
            nprocs,
            pieces: std::collections::BTreeMap::new(),
            seen: vec![0u64; (nprocs as usize).div_ceil(64)],
            received: 0,
        }
    }

    /// Offer one rank's finished CTT: a one-rank [`add_run`](Self::add_run).
    /// Returns `false` (and changes nothing) if this rank was already merged
    /// — a retried client re-submitting a rank the collector completed
    /// earlier is a no-op, not corruption. Panics, naming both numbers, on a
    /// CTT of another job size or a rank outside the job.
    pub fn add<S: CttSource>(&mut self, ctt: &S) -> bool {
        if ctt.nprocs() == self.nprocs && self.has_rank(ctt.rank()) {
            return false;
        }
        if let Err(e) = self.add_run(std::slice::from_ref(ctt)) {
            panic!("{e}");
        }
        true
    }

    /// Offer an already-merged block covering ranks `[first, first+count)`
    /// — what a relay collector forwards upstream. It is held as one piece,
    /// so any non-empty range inside the job will do.
    ///
    /// Returns `Ok(false)` when every covered rank was already merged (a
    /// relay retry; no-op like a duplicate rank in [`add`](Self::add)),
    /// `Err` on an empty or out-of-range block or one that partially
    /// overlaps merged ranks (protocol corruption, not a benign retry).
    pub fn add_block(&mut self, first: u32, count: u32, block: MergedCtt) -> Result<bool, String> {
        // `first` and `count` come off the wire: their sum must not wrap.
        let end = first as u64 + count as u64;
        if count == 0 {
            return Err(format!("block [{first}, {end}) covers no rank"));
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
        self.pieces.insert(first, (count, block));
        Ok(true)
    }

    /// Offer a run of consecutive ranks in ascending order, none of them
    /// merged yet: what a collector holds between the blocks it was sent.
    /// The run is merged vertex by vertex ([`merge_all`], linear in its
    /// records) and held as one piece.
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
        self.mark(first, end);
        self.pieces.insert(first, (end - first, merge_all(run)));
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

    /// Consume the merger, yielding one block per maximal contiguous range
    /// of its ranks, in ascending order, as `(first_rank, rank_count,
    /// merge)` — the payload a relay forwards upstream, one block for its
    /// shard. Unlike [`finish`](Self::finish) this does not require
    /// completeness.
    pub fn into_blocks(self) -> Vec<(u32, u32, MergedCtt)> {
        let mut ranges: Vec<(u32, u32, Vec<MergedCtt>)> = Vec::new();
        for (first, (count, piece)) in self.pieces {
            match ranges.last_mut() {
                Some((start, len, pieces)) if *start + *len == first => {
                    *len += count;
                    pieces.push(piece);
                }
                _ => ranges.push((first, count, vec![piece])),
            }
        }
        ranges
            .into_iter()
            .map(|(first, count, pieces)| {
                let (block, tally) = merge_pieces(pieces, workers_for);
                tally.flush();
                (first, count, block)
            })
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

    /// Pieces held: runs and blocks, each still a merge of its own.
    pub fn pieces(&self) -> usize {
        self.pieces.len()
    }

    /// Ranks not yet submitted, in ascending order.
    pub fn missing_ranks(&self) -> Vec<u32> {
        (0..self.nprocs)
            .filter(|r| self.seen[*r as usize / 64] & (1u64 << (r % 64)) == 0)
            .collect()
    }

    /// Merge every piece, in rank order, into the whole job's tree.
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
        let pieces = self.pieces.into_values().map(|(_, piece)| piece).collect();
        let (acc, tally) = merge_pieces(pieces, workers_for);
        tally.flush();
        note_merged_groups(&acc);
        obs_log!(
            Level::Info,
            "merge",
            "merge of {} ranks complete ({} groups)",
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
    /// The one chunk of a one-worker [`MergedCtt::encode_chunks`].
    fn encode(&self, enc: &mut Encoder) {
        self.encode_head(enc);
        for mv in &self.vertices {
            encode_vertex(enc, mv, true, 0..mv.items(), &self.bufs);
        }
    }

    /// The checked pass [`MergedCtt::from_block`] makes, with no block to
    /// hold the tree to; the bytes it read are copied into the tree, whose
    /// kept groups are spans of them.
    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        dec.read(|cur| {
            let input = cur.rest();
            let mut tree = Reader::new(input, None).tree(cur)?;
            tree.bufs = vec![input[..input.len() - cur.remaining()].to_vec()];
            Some(tree)
        })
    }
}

/// One checked pass over a merged tree's bytes, `input`, from its start,
/// through the one reader of each field. A leaf group whose bytes are what
/// encoding the group read writes is kept as their span of buffer 0, which
/// the caller makes of `input`; any other (a varint longer than it needs to
/// be, a `TimeStats` minimum its encoder would not write) is held owned,
/// so the tree's bytes are decode-then-encode on any input.
struct Reader<'a, 'c> {
    input: &'a [u8],
    /// The CST a block must fit and the ranks `[first, end)` it covers.
    block: Option<(&'c Cst, u32, u64)>,
    /// The first vertex or group that does not fit the block.
    misfit: Option<String>,
    scratch: Encoder,
}

impl<'a, 'c> Reader<'a, 'c> {
    fn new(input: &'a [u8], block: Option<(&'c Cst, u32, u64)>) -> Self {
        Reader {
            input,
            block,
            misfit: None,
            scratch: Encoder::new(),
        }
    }

    fn at(&self, cur: &Cursor<'_>) -> usize {
        self.input.len() - cur.remaining()
    }

    fn tree(&mut self, cur: &mut Cursor<'a>) -> Option<MergedCtt> {
        let nprocs = cur.u32("merged ctt nprocs")?;
        let app_times = IntSeq::read(cur)?;
        let mut gid = 0;
        let vertices = cur.seq("merged vertices", |cur| {
            gid += 1;
            self.vertex(cur, gid - 1)
        })?;
        Some(MergedCtt {
            nprocs,
            vertices,
            app_times,
            bufs: Vec::new(),
        })
    }

    fn vertex(&mut self, cur: &mut Cursor<'a>, gid: usize) -> Option<MergedVertex> {
        Some(match cur.u8()? {
            MV_EMPTY => MergedVertex::Empty,
            MV_CONTROL => MergedVertex::Control(cur.seq("control groups", |cur| {
                let group = read_control(cur)?;
                self.fits(gid, group.1.view(), Some(&group.0));
                Some(group)
            })?),
            MV_LEAF => {
                self.fits(gid, VertexRef::Leaf(&[]), None);
                MergedVertex::Leaf(cur.seq("leaf slots", |cur| {
                    cur.seq("slot groups", |cur| self.group(cur, gid))
                })?)
            }
            t => return cur.refuse(t as u64, |t| format!("bad MergedVertex tag {t}")),
        })
    }

    /// Hold vertex `gid`'s `data`, and a group's `ranks`, to the block,
    /// unless something before did not fit it. A leaf vertex is held
    /// before its groups too, so one with no group is held.
    fn fits(&mut self, gid: usize, data: VertexRef<'_>, ranks: Option<&RankSet>) {
        let Some((cst, first, end)) = self.block else {
            return;
        };
        if self.misfit.is_some() || gid >= cst.len() {
            return;
        }
        let fit = check_vertex(cst, gid, data).and_then(|()| match ranks {
            Some(rs) => rs
                .check_within(first, end)
                .map_err(|e| format!("vertex {gid}: {e}")),
            None => Ok(()),
        });
        self.misfit = fit.err();
    }

    /// One leaf group, read, its ranks held to the block's range. It is
    /// kept as its span of `input` unless encoding what was read would not
    /// write those bytes again — a reader noted an inexact read, or the
    /// bytes hold a varint longer than it needs (every one-byte field of a
    /// group is a tag or an op code below 0x80) — and held owned then.
    fn group(&mut self, cur: &mut Cursor<'a>, gid: usize) -> Option<Group> {
        cur.take_inexact();
        let start = self.at(cur);
        let ranks = RankSet::read(cur)?;
        let head = self.at(cur);
        let (rec, head_len) = LeafRecord::read_with_head(cur)?;
        let end = self.at(cur);
        self.fits(gid, VertexRef::Leaf(&[]), Some(&ranks));
        if !cur.take_inexact() && !has_long_varint(&self.input[start..end]) {
            let key = head_key(&self.input[head..head + head_len]);
            return Some(Group::kept(key, 0, start..end, self.input));
        }
        let key = record_key(&rec, &mut self.scratch);
        let form = Form::Owned(Box::new((ranks, rec)));
        Some(Group { key, form })
    }
}

/// A control group holds a loop's counts or a branch's taken indices,
/// never root or leaf data.
fn read_control(cur: &mut Cursor<'_>) -> Option<(RankSet, VertexData)> {
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

impl MergedCtt {
    /// [`Codec::to_bytes`] as slot-range chunks encoded at the same time, one
    /// per worker, each handed to `seal` on the worker that made it (the
    /// container writer takes its CRC there). The chunks, in order, are
    /// `to_bytes()`, at any worker count.
    pub fn encode_chunks<T: Send>(&self, seal: impl Fn(Vec<u8>) -> T + Sync) -> Vec<T> {
        self.encode_split(workers_for, seal)
    }

    /// [`MergedCtt::encode_chunks`] on `workers(items)` workers, a list of
    /// `n` groups weighing `n + 1`.
    fn encode_split<T: Send>(
        &self,
        workers: fn(u64) -> usize,
        seal: impl Fn(Vec<u8>) -> T + Sync,
    ) -> Vec<T> {
        let mut plan = Plan::default();
        for mv in &self.vertices {
            let start = plan.begin_vertex();
            match mv {
                MergedVertex::Empty => {}
                MergedVertex::Control(groups) => plan.add_lens(start, [groups.len() + 1]),
                MergedVertex::Leaf(slots) => {
                    plan.add_lens(start, slots.iter().map(|s| s.len() + 1))
                }
            }
        }
        plan.cut(workers(plan.total()));
        let parts = (0..plan.bounds.len() - 1).collect();
        split(parts, |k| {
            let mut enc = Encoder::new();
            if k == 0 {
                self.encode_head(&mut enc);
            }
            for (gid, mv) in self.vertices.iter().enumerate() {
                let (head, items) = plan.part(k, gid);
                encode_vertex(&mut enc, mv, head, items, &self.bufs);
            }
            seal(enc.finish())
        })
    }

    /// Job size, application times and the vertex count: what comes before
    /// the first vertex.
    fn encode_head(&self, enc: &mut Encoder) {
        enc.put_uvar(self.nprocs as u64);
        self.app_times.encode(enc);
        enc.put_uvar(self.vertices.len() as u64);
    }
}

impl MergedVertex {
    /// The lists a split encodes apart: a leaf's slots, a control vertex's
    /// one list.
    fn items(&self) -> usize {
        match self {
            MergedVertex::Empty => 0,
            MergedVertex::Control(_) => 1,
            MergedVertex::Leaf(slots) => slots.len(),
        }
    }
}

/// The one group encoder: vertex `mv`'s tag (and a leaf's slot count) when
/// `head` is set, then its lists `items` — a leaf's slots, or a control
/// vertex's one list as item 0. A kept group's bytes are copied from
/// `bufs`.
fn encode_vertex(
    enc: &mut Encoder,
    mv: &MergedVertex,
    head: bool,
    items: Range<usize>,
    bufs: &[Vec<u8>],
) {
    match mv {
        MergedVertex::Empty => {
            if head {
                enc.put_u8(MV_EMPTY);
            }
        }
        MergedVertex::Control(groups) => {
            if head {
                enc.put_u8(MV_CONTROL);
            }
            if !items.is_empty() {
                enc.put_seq(groups, |enc, (rs, d)| {
                    rs.encode(enc);
                    d.encode(enc);
                });
            }
        }
        MergedVertex::Leaf(slots) => {
            if head {
                enc.put_u8(MV_LEAF);
                enc.put_uvar(slots.len() as u64);
            }
            for slot in &slots[items] {
                enc.put_seq(slot, |enc, g| g.encode(enc, bufs));
            }
        }
    }
}

/// The merge job `tests/merge_identity.rs` checks.
#[cfg(test)]
#[path = "../../../tests/merge_job/mod.rs"]
mod merge_job;

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

    /// `ctts` (rank order) merged in `k` uneven contiguous chunks: even
    /// chunks enter a `BinomialMerger` through `add_run`, odd ones as the
    /// block another job-sized merger built from them, through `add_block`.
    fn merge_in_chunks<S: CttSource>(ctts: &[S], k: usize) -> MergedCtt {
        let nprocs = ctts[0].nprocs();
        let mut bm = BinomialMerger::new(nprocs);
        // Chunk i ends at (i+1)·len/k, rounded up: sizes differ by one.
        let ends = (1..=k).map(|i| (i * ctts.len()).div_ceil(k));
        let mut first = 0;
        for (i, end) in ends.enumerate() {
            let chunk = &ctts[first..end];
            first = end;
            if i % 2 == 0 {
                bm.add_run(chunk).unwrap();
                continue;
            }
            let mut elsewhere = BinomialMerger::new(nprocs);
            elsewhere.add_run(chunk).unwrap();
            for (start, len, block) in elsewhere.into_blocks() {
                assert_eq!(bm.add_block(start, len, block), Ok(true));
            }
        }
        bm.finish()
    }

    #[test]
    fn chunked_merge_equals_sequential() {
        let (_, ctts) = pipeline(JACOBI, 32);
        let seq = merge_all(&ctts);
        for k in [2, 3, 8] {
            let chunked = merge_in_chunks(&ctts, k);
            assert_eq!(chunked.nprocs, seq.nprocs);
            assert_eq!(chunked.group_count(), seq.group_count());
            for (vs, vc) in seq.vertices.iter().zip(&chunked.vertices) {
                assert_eq!(vs.group_count(), vc.group_count());
            }
        }
    }

    #[test]
    fn chunked_merge_byte_identical_for_any_chunking() {
        // 19 ranks, cut at unaligned boundaries that differ per chunk
        // count. Exact TimeStats make every association byte-identical.
        let (_, ctts) = pipeline(JACOBI, 19);
        let seq = merge_all(&ctts).to_bytes();
        for k in [1, 2, 3, 5, 8, 19] {
            let chunked = merge_in_chunks(&ctts, k).to_bytes();
            assert_eq!(chunked, seq, "{k} chunks diverged from sequential");
        }
        let (_, one) = pipeline("fn main() { barrier(); }", 1);
        assert_eq!(
            merge_in_chunks(&one, 1).to_bytes(),
            merge_all(&one).to_bytes()
        );
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
        // over contiguous rank shards, forward one block each, and the root
        // merging those blocks is byte-identical to merge_all — including
        // ragged (non-power-of-two, unevenly split) shards.
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
                let mut blocks = relay.into_blocks();
                let (first, count, part) = blocks.pop().unwrap();
                assert!(blocks.is_empty(), "{nprocs}p shard [{a},{b})");
                assert_eq!((first, count), (a, b - a));
                assert!(root.add_block(first, count, part).unwrap());
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
        // Empty and out-of-range blocks are errors.
        assert!(bm.add_block(3, 0, one.clone()).is_err());
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
        assert_eq!(merge_in_chunks(&slabs, 3).to_bytes(), want);
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
        // A block's checks, made as its bytes are read.
        let fit = |block: &MergedCtt, first, nranks| match MergedCtt::from_block(
            block.to_bytes(),
            cst,
            4,
            first,
            nranks,
        ) {
            Ok(read) => {
                assert!(read == *block);
                Ok(())
            }
            Err(BlockError::Misfit(e)) => Err(e),
            Err(BlockError::Undecodable(e)) => panic!("{e}"),
        };
        assert_eq!(fit(&block, 0, 2), Ok(()));
        let err = fit(&block, 0, 3).unwrap_err();
        assert!(err.contains("2 application times for 3 ranks"), "{err}");
        // Ranks 0 and 1 offered as the block [2, 4): their groups name ranks
        // outside it, which the merge would silently file under 2 and 3.
        let err = fit(&block, 2, 2).unwrap_err();
        assert!(
            err.contains("rank 0 outside the block's ranks [2, 4)"),
            "{err}"
        );
        let err = fit(&block, 3, 2).unwrap_err();
        assert!(err.contains("block [3, 5) exceeds job size 4"), "{err}");
        let mut bad = block.clone();
        bad.vertices[loop_gid] = bad.vertices[leaf_gid].clone();
        let err = fit(&bad, 0, 2).unwrap_err();
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

    /// Every rank set shape, request lists, control groups and one-rank
    /// groups: ranks share the loop count two in three, odd ranks take a
    /// branch, and sizes are rank-dependent.
    const MIXED: &str = r#"fn main() {
        for it in 0..4 {
            if rank() % 2 == 1 { barrier(); }
            for k in 0..(rank() % 3 + it % 2) { allreduce(8); }
            let a = isend((rank() + 1) % size(), 64 + rank() * it, 0);
            let b = irecv((rank() + size() - 1) % size(), 64, 0);
            waitall(a, b);
        }
    }"#;

    /// The merged tree's decoder before groups were kept: every group read
    /// into an owned pair, which encodes as the tree did then.
    fn read_owned(bytes: &[u8]) -> DecodeResult<MergedCtt> {
        let group = |cur: &mut Cursor<'_>| {
            let pair = (RankSet::read(cur)?, LeafRecord::read(cur)?);
            let form = Form::Owned(Box::new(pair));
            Some(Group { key: 0, form })
        };
        decode_whole(bytes, |dec| {
            dec.read(|cur| {
                Some(MergedCtt {
                    nprocs: cur.u32("merged ctt nprocs")?,
                    app_times: IntSeq::read(cur)?,
                    vertices: cur.seq("merged vertices", |cur| {
                        Some(match cur.u8()? {
                            MV_EMPTY => MergedVertex::Empty,
                            MV_CONTROL => {
                                MergedVertex::Control(cur.seq("control groups", read_control)?)
                            }
                            MV_LEAF => MergedVertex::Leaf(
                                cur.seq("leaf slots", |cur| cur.seq("slot groups", group))?,
                            ),
                            t => {
                                return cur
                                    .refuse(t as u64, |t| format!("bad MergedVertex tag {t}"))
                            }
                        })
                    })?,
                    bufs: Vec::new(),
                })
            })
        })
    }

    /// `bytes` read as kept groups and as owned ones alike: the same
    /// refusal, or a tree of the same `Debug` text, value and bytes whose
    /// kept groups are their decoded form's bytes. Returns the kept groups.
    fn reads_as_owned(bytes: &[u8]) -> usize {
        match (MergedCtt::from_bytes(bytes), read_owned(bytes)) {
            (Err(kept), Err(owned)) => {
                assert_eq!(kept, owned);
                0
            }
            (Ok(kept), Ok(owned)) => {
                assert_eq!(format!("{kept:?}"), format!("{owned:?}"));
                assert!(kept == owned);
                assert!(kept.to_bytes() == owned.to_bytes());
                kept.check_kept_groups().unwrap()
            }
            (kept, owned) => panic!("kept {kept:?}, owned {owned:?}"),
        }
    }

    /// Kept groups are today's bytes: on a merged tree of every group shape,
    /// on every truncation, flipped byte and appended byte of it, and on
    /// groups whose bytes an owned group would not encode again (a longer
    /// varint than needed, a minimum the encoder rewrites), which are read
    /// owned.
    #[test]
    fn kept_groups_read_and_write_what_owned_groups_did() {
        let (_, ctts) = pipeline(MIXED, 6);
        let bytes = merge_all(&ctts).to_bytes();
        assert!(reads_as_owned(&bytes) > 0);
        let mut accepted = 0;
        for cut in 0..bytes.len() {
            assert_eq!(reads_as_owned(&bytes[..cut]), 0);
        }
        for pos in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut work = bytes.clone();
                work[pos] ^= mask;
                accepted += (MergedCtt::from_bytes(&work).is_ok()) as usize;
                reads_as_owned(&work);
            }
        }
        assert!(accepted > 0);
        let mut appended = bytes.clone();
        appended.push(0x2a);
        assert_eq!(reads_as_owned(&appended), 0);

        // One leaf group: ranks `set`, a send's head, then `time` and `gap`.
        let tree = |set: &[u8], stats: &[u8]| {
            let mut enc = Encoder::new();
            enc.put_uvar(1);
            IntSeq::from_slice(&[5]).encode(&mut enc);
            enc.put_uvar(1);
            enc.put_u8(MV_LEAF);
            enc.put_uvar(1);
            enc.put_uvar(1);
            enc.put_raw(set);
            let params = crate::ctt::EncParams::encode(
                0,
                cypress_trace::event::MpiOp::Send,
                &cypress_trace::event::MpiParams::send(1, 64, 0),
            );
            params.encode(&mut enc);
            enc.put_uvar(1);
            enc.put_raw(stats);
            enc.put_raw(stats);
            enc.finish()
        };
        let canonical_set = RankSet::singleton(0).to_bytes();
        let mut stats = crate::timestats::TimeStats::new();
        stats.add(9);
        let canonical_stats = stats.to_bytes();
        assert_eq!(reads_as_owned(&tree(&canonical_set, &canonical_stats)), 1);
        let no_samples_min_7 = [3, 0, 0, 0, 0, 0, 7, 0];
        let mut min_max = vec![3, 1, 0, 9, 0, 81];
        min_max.extend([0xff; 9]);
        min_max.extend([0x01, 9]);
        for (set, stats) in [
            (&[0x81, 0x00, 0, 0, 1, 1][..], &canonical_stats[..]),
            (&[1, 0x80, 0x00, 0, 1, 1], &canonical_stats),
            (&[1, 0, 0, 1, 0x81, 0x00], &canonical_stats),
            (&canonical_set, &no_samples_min_7),
            (&canonical_set, &min_max),
        ] {
            let bytes = tree(set, stats);
            assert_eq!(reads_as_owned(&bytes), 0, "{bytes:?}");
            let read = MergedCtt::from_bytes(&bytes).unwrap();
            assert!(read.to_bytes() != bytes);
        }
    }

    /// The reader finds a long varint in a group's bytes by reading every
    /// byte at or above 0x80 as a varint's: no op code or tag a group
    /// holds reaches it.
    #[test]
    fn a_groups_one_byte_fields_are_below_0x80() {
        use cypress_trace::event::MpiOp;
        assert!((0x80..=0xff).all(|c| MpiOp::from_code(c).is_none()));
        for c in 0x80..=0xffu8 {
            let params = crate::ctt::EncParams::from_bytes(&[0, c, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
            assert!(params.unwrap_err().0.contains("bad RankEnc tag"));
            let stats = crate::timestats::TimeStats::from_bytes(&[c, 0, 0, 0, 0, 0, 0, 0]);
            assert!(stats.unwrap_err().0.contains("bad TimeStats tag"));
        }
    }

    /// The block check before it ran inside the read: on the decoded tree.
    fn check_owned(
        tree: &MergedCtt,
        cst: &Cst,
        nprocs: u32,
        first: u32,
        n: u32,
    ) -> Result<(), String> {
        check_size(cst, nprocs, tree.nprocs, tree.vertices.len())?;
        let end = first as u64 + n as u64;
        if end > nprocs as u64 {
            return Err(format!("block [{first}, {end}) exceeds job size {nprocs}"));
        }
        let ranks = |gid: usize, rs: &RankSet| {
            rs.check_within(first, end)
                .map_err(|e| format!("vertex {gid}: {e}"))
        };
        for (gid, mv) in tree.vertices.iter().enumerate() {
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
                    for g in slots.iter().flatten() {
                        ranks(gid, &g.decoded(&tree.bufs).0)?;
                    }
                }
            }
        }
        if tree.app_times.len() != n as u64 {
            let times = tree.app_times.len();
            return Err(format!(
                "block holds {times} application times for {n} ranks"
            ));
        }
        Ok(())
    }

    /// A block's checks, made as its bytes are read, refuse what reading
    /// and then checking the decoded tree refused, with the same text: over
    /// ranges inside, across and outside the job, and over every flipped
    /// byte of the tree.
    #[test]
    fn a_block_is_checked_as_it_is_read_as_it_was_once_decoded() {
        let (info, ctts) = pipeline(MIXED, 6);
        let cst = &info.cst;
        let outcome = |bytes: &[u8], nprocs, first, n| {
            let read = MergedCtt::from_block(bytes.to_vec(), cst, nprocs, first, n);
            let old = read_owned(bytes)
                .map_err(BlockError::Undecodable)
                .and_then(|tree| {
                    check_owned(&tree, cst, nprocs, first, n).map_err(BlockError::Misfit)
                });
            assert_eq!(read.map(drop), old, "[{first}, +{n}) of {nprocs}");
        };
        for (range, nprocs, first, n) in [
            (0..6, 6, 0, 6),
            (0..6, 7, 0, 6),
            (0..6, 6, 0, 5),
            (0..6, 6, 1, 6),
            (2..5, 6, 2, 3),
            (2..5, 6, 3, 3),
            (2..5, 6, 1, 3),
            (2..5, 6, 4, 3),
        ] {
            let bytes = merge_all(&ctts[range]).to_bytes();
            outcome(&bytes, nprocs, first, n);
        }
        let bytes = merge_all(&ctts[2..5]).to_bytes();
        for pos in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut work = bytes.clone();
                work[pos] ^= mask;
                outcome(&work, 6, 2, 3);
            }
        }
        // Two vertices of other kinds trade places.
        let mut bad = merge_all(&ctts);
        bad.vertices.swap(1, 2);
        outcome(&bad.to_bytes(), 6, 0, 6);
    }

    /// Rank 2 joins the group rank 0 kept, in `merge_all` and as a later
    /// piece in `finish`; rank 1's group and rank 3's stay kept.
    #[test]
    fn a_kept_group_joined_by_a_later_rank_or_piece_becomes_owned() {
        let (_, ctts) = pipeline(
            r#"fn main() {
                send((rank() + 1) % size(), 64 + (rank() % 2) * rank(), 0);
                recv(any_source(), 64, 0);
            }"#,
            4,
        );
        let forms = |tree: &MergedCtt| -> Vec<Vec<(Vec<u32>, bool)>> {
            let MergedVertex::Leaf(slots) = &tree.vertices[1] else {
                panic!("vertex 1 is the send")
            };
            let group = |g: &Group| {
                let kept = matches!(g.form, Form::Kept { .. });
                (g.decoded(&tree.bufs).0.ranks(), kept)
            };
            slots
                .iter()
                .map(|s| s.iter().map(group).collect())
                .collect()
        };
        let want = vec![vec![(vec![0, 2], false), (vec![1], true), (vec![3], true)]];
        let merged = merge_all(&ctts);
        assert_eq!(forms(&merged), want);
        let bytes = merged.to_bytes();
        let mut bm = BinomialMerger::new(4);
        bm.add_run(&ctts[..2]).unwrap();
        let mut relay = BinomialMerger::new(4);
        relay.add_run(&ctts[2..]).unwrap();
        let (first, count, block) = relay.into_blocks().remove(0);
        let block = MergedCtt::from_bytes(&block.to_bytes()).unwrap();
        assert_eq!(bm.add_block(first, count, block), Ok(true));
        let finished = bm.finish();
        assert_eq!(forms(&finished), want);
        assert!(finished.to_bytes() == bytes);
        let (rs, rec) = &finished.leaf_slots(1)[0][0];
        let time = |rank: usize| match &ctts[rank].data[1] {
            VertexData::Leaf { records } => records[0].time.clone(),
            _ => unreachable!("vertex 1 is the send"),
        };
        let mut both = time(0);
        both.merge(&time(2));
        assert_eq!((rs.ranks(), &rec.time), (vec![0, 2], &both));
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
        merge_all(&[ctts[2].clone(), ctts[1].clone()]);
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
        let mut one_by_one = BinomialMerger::new(P);
        for c in &ctts {
            assert!(one_by_one.add(c));
        }
        assert!(one_by_one.finish().to_bytes() == want, "rank by rank");
        // Uneven runs: pieces the one pass meets at every size.
        let mut runs = BinomialMerger::new(P);
        for run in [0..3, 3..40, 40..41, 41..80] {
            runs.add_run(&ctts[run]).unwrap();
        }
        assert!(runs.finish().to_bytes() == want, "uneven runs");

        // Every list named is long enough to be keyed, and its first group
        // holds the ranks that share it.
        let first = |gid: usize, slot: usize| match merged.control_groups(gid) {
            [] => {
                let slots = merged.leaf_slots(gid);
                assert!(slots[slot].len() > SCAN_GROUPS, "vertex {gid} slot {slot}");
                slots[slot][0].0.ranks()
            }
            groups => {
                assert!(groups.len() > SCAN_GROUPS, "vertex {gid}");
                groups[0].0.ranks()
            }
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

    /// A worker count that ignores the job's size.
    fn fixed<const W: usize>(_items: u64) -> usize {
        W
    }

    /// The merge job at P = 64 and 1024, and every bundled workload at its
    /// quick rank count, rank CTTs in rank order.
    fn identity_jobs() -> Vec<(String, Vec<Ctt>)> {
        use cypress_workloads::{by_name, quick_procs, Scale, NPB_NAMES};
        let mut jobs: Vec<_> = [64, 1024]
            .map(|p| (format!("merge job P {p}"), merge_job::job(p)))
            .into();
        for name in NPB_NAMES.iter().chain(&["jacobi", "leslie3d"]) {
            let w = by_name(name, quick_procs(name), Scale::Quick).unwrap();
            let (_, info) = w.compile();
            let traces = w.trace().unwrap();
            let ctts = traces.iter();
            let ctts = ctts.map(|t| compress_trace(&info.cst, t, &CompressConfig::default()));
            jobs.push((name.to_string(), ctts.collect()));
        }
        jobs
    }

    /// `merge_all`, a relay's `into_blocks` (the pieces of a middle range of
    /// ranks), the root's `finish` (every piece, one of them through its
    /// bytes as a decoded block) and the chunked encode give, at 2, 3 and 8
    /// workers, the bytes and the comparison and group tallies of one
    /// worker; the chunks' CRCs combine to the CRC of `to_bytes`.
    #[test]
    fn every_worker_count_gives_the_one_worker_merge_and_bytes() {
        use cypress_deflate::{crc32, crc32_combine};
        let runs: [fn(u64) -> usize; 3] = [fixed::<2>, fixed::<3>, fixed::<8>];
        for (name, ctts) in identity_jobs() {
            let (want, want_tally) = merge_ranks(&ctts, fixed::<1>);
            let bytes = want.to_bytes();
            // Uneven contiguous pieces, as a root holds them.
            let p = ctts.len();
            let cuts = [0, 1, p / 3, p / 3 + 1, p - 1, p];
            let pieces = |range: &[usize]| -> Vec<MergedCtt> {
                let mut pieces: Vec<_> = range
                    .windows(2)
                    .filter(|w| w[0] < w[1])
                    .map(|w| merge_ranks(&ctts[w[0]..w[1]], fixed::<1>).0)
                    .collect();
                pieces[0] = MergedCtt::from_bytes(&pieces[0].to_bytes()).unwrap();
                pieces
            };
            let (whole, whole_tally) = merge_pieces(pieces(&cuts), fixed::<1>);
            assert!(whole.to_bytes() == bytes, "{name}: finish");
            let (block, block_tally) = merge_pieces(pieces(&cuts[1..5]), fixed::<1>);
            let block_bytes = block.to_bytes();
            for (w, workers) in runs.into_iter().enumerate() {
                let (merged, tally) = merge_ranks(&ctts, workers);
                assert!(merged.to_bytes() == bytes, "{name}: merge_all, run {w}");
                assert_eq!(tally, want_tally, "{name}: merge_all, run {w}");
                let (merged, tally) = merge_pieces(pieces(&cuts), workers);
                assert!(merged.to_bytes() == bytes, "{name}: finish, run {w}");
                assert_eq!(tally, whole_tally, "{name}: finish, run {w}");
                let (merged, tally) = merge_pieces(pieces(&cuts[1..5]), workers);
                assert!(merged.to_bytes() == block_bytes, "{name}: block, run {w}");
                assert_eq!(tally, block_tally, "{name}: block, run {w}");
            }
            for workers in [fixed::<1>, fixed::<2>, fixed::<3>, fixed::<8>] {
                let chunks = want.encode_split(workers, |c| (crc32(&c), c));
                let joined: Vec<u8> = chunks.iter().flat_map(|(_, c)| c).copied().collect();
                assert!(joined == bytes, "{name}: {} chunks", chunks.len());
                let crc = chunks
                    .iter()
                    .fold(0, |crc, (c, b)| crc32_combine(crc, *c, b.len() as u64));
                assert_eq!(crc, crc32(&bytes), "{name}: {} chunks", chunks.len());
            }
        }
    }

    /// A plan's parts cover every item once, in order, and a vertex's header
    /// goes to the part that holds its first item.
    #[test]
    fn plan_parts_cover_every_item_once() {
        let mut plan = Plan::default();
        // Vertices of 0, 3, 0, 1 and 5 items, and one more empty at the end.
        for lens in [&[][..], &[5, 1, 1], &[], &[9], &[1, 1, 1, 1, 1], &[]] {
            let start = plan.begin_vertex();
            plan.add_lens(start, lens.iter().copied());
        }
        for parts in 1..=12 {
            plan.starts.truncate(6);
            plan.cut(parts);
            assert_eq!(plan.bounds.len(), parts + 1);
            for gid in 0..6 {
                let heads = (0..parts).filter(|&k| plan.part(k, gid).0).count();
                assert_eq!(heads, 1, "{parts} parts, vertex {gid}");
                let spans: Vec<_> = plan.spans(gid).map(|(_, r)| r).collect();
                let items = plan.starts[gid + 1] - plan.starts[gid];
                let covered: Vec<usize> = spans.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(covered, (0..items).collect::<Vec<_>>(), "{parts} parts");
                for (k, r) in plan.spans(gid) {
                    assert_eq!(plan.part(k, gid).1, r);
                }
            }
        }
    }

    /// The hash reads a short last word as that word padded with zeros.
    #[test]
    fn key_hash_pads_the_last_word_with_zeros() {
        let bytes: Vec<u8> = (0xf0..=0xff).chain(1..=9).collect();
        for n in 0..=bytes.len() {
            let mut padded = bytes[..n].to_vec();
            padded.resize(n.div_ceil(8) * 8, 0);
            let mut want = KeyHasher::default();
            for w in padded.chunks(8) {
                want.write_u64(u64::from_le_bytes(w.try_into().unwrap()));
            }
            let mut got = KeyHasher::default();
            got.write(&bytes[..n]);
            assert_eq!(got.finish(), want.finish(), "{n} bytes");
        }
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
        for gid in 0..merged.vertex_count() {
            for (rs, r) in merged.leaf_slots(gid).into_iter().flatten() {
                if r.params.op == cypress_trace::event::MpiOp::Barrier {
                    assert_eq!(rs.ranks(), vec![1, 2, 3, 4, 5]);
                    found = true;
                }
            }
        }
        assert!(found, "barrier group missing");
    }
}
