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
//! One kernel merges *pieces*, contiguous runs of ranks taken in rank
//! order, vertex by vertex. A rank is a one-rank piece, whose every list
//! holds the one group its record or control data opens, so [`merge_all`]
//! over ranks and [`BinomialMerger`] over pieces that arrived in any order
//! make the same pass. The paper reduces pairwise on a binomial tree inside
//! `MPI_Finalize`, where every process merges in parallel; here one
//! process merges, so the pieces are taken in rank order, which gives the
//! same bytes however the job is cut, and a large merge gets its
//! parallelism from the slot lists instead: they are independent, so
//! workers take ranges of them at the same time.
//!
//! A group is found by key, not by a scan: a hash of its head — the bytes
//! its record's compared fields encode to — leads to its position in its
//! slot, and equal head bytes confirm every hit, so no record is decoded to
//! be compared. Almost every group of an irregular job holds one rank and
//! never merges, so a leaf group stays in its wire form, a span of bytes
//! its tree keeps, from the merge that opens it to the container.

use crate::ctt::{
    bad_vertex_tag, Ctt, EncParams, LeafRecord, VertexData, VD_BRANCH, VD_LEAF, VD_LOOP, VD_ROOT,
};
use crate::intseq::{read_seg, read_segs, read_segs_into, IntSeq, IntSeqReader, SeqRef};
use crate::timestats::TimeStats;
use crate::visit::{CttFold, CttSource, RankScope, VertexRef};
use cypress_cst::tree::{Cst, VertexKind};
use cypress_obs::{obs_log, Counter, Gauge, Histogram, Level, TIME_BOUNDS_NS};
use cypress_trace::codec::{decode_whole, has_long_varint, Codec, Cursor, DecodeError, Encoder};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::ops::Range;

// Scope `merge`.
/// New rank groups opened because no existing group was compatible.
static GROUPS_FORMED: Counter = Counter::new("merge", "groups_formed");
/// Final group count of the last full merge.
static MERGED_GROUPS: Gauge = Gauge::new("merge", "merged_groups");
/// Group compatibility tests (equal heads, equal control data) run by the
/// merge.
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

    /// Append the ranks of `other`, which must lie above every rank already
    /// here: the order that keeps sets ascending and stride-compressible.
    fn extend_above(&mut self, other: &RankSet) {
        let last = match &self.0 {
            Ranks::One(r) => Some(*r as i64),
            Ranks::Seq(s) => s.last(),
        };
        if let Some((last, first)) = last.zip(other.iter().next()) {
            let first = first as i64;
            assert!(
                last < first,
                "rank {first} absorbed after rank {last}: ranks must arrive in ascending order"
            );
        }
        self.extend(other);
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

    /// The canonical one-rank form reads without allocating; every other
    /// form keeps its segments, in one allocation, so read → encode is
    /// byte-stable.
    #[inline]
    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
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
    Leaf(Vec<Slot>),
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
    fn leaf_slots(&mut self, n: usize) -> &mut [Slot] {
        if let MergedVertex::Empty = self {
            *self = MergedVertex::Leaf(Vec::new());
        }
        match self {
            MergedVertex::Leaf(slots) => {
                if slots.len() < n {
                    slots.resize_with(n, Slot::default);
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
            MergedVertex::Leaf(slots) => slots.iter().map(Slot::approx_bytes).sum(),
        }
    }
}

/// One rank group of a leaf slot, found and joined by its *head*: the
/// bytes [`LeafRecord::encode_head`] writes for its record, a span of one
/// of its tree's byte buffers. Every head is canonical, so two groups'
/// records are mergeable ([`record_mergeable`]) exactly when their heads
/// are equal bytes.
///
/// A group one rank or one piece opened is *kept*: a span holding exactly
/// what the merged codec writes for it, its [`RankSet`], its head and its
/// two [`TimeStats`]. The first group that joins it makes it *joined*: its
/// head stays where it was, and its ranks and timing, which joins update,
/// are held beside it. So a group that never merges is never built,
/// re-encoded or freed on its own.
#[derive(Clone)]
struct Group {
    /// [`head_key`] of its head: equal heads share it.
    key: u32,
    /// The tree's buffer its bytes are in.
    buf: u32,
    /// Where they start there: a kept group's rank set, a joined group's
    /// head.
    start: u32,
    /// A kept group's length, and the lengths of the rank set before its
    /// head and of the timing after it; 0 for a joined group.
    len: u16,
    ranks: u8,
    stats: u8,
    joined: Option<Box<Joined>>,
}

/// What joins update of a group, held beside its head once it is joined.
#[derive(Clone)]
struct Joined {
    head_len: u32,
    ranks: RankSet,
    time: TimeStats,
    gap: TimeStats,
}

/// The buffers groups are spans of: a tree's, and while a merge worker
/// runs, buffer `.1`, the one it writes, whose bytes so far are `.2`.
#[derive(Clone, Copy)]
struct Bufs<'b>(&'b [Vec<u8>], u32, &'b [u8]);

impl<'b> Bufs<'b> {
    fn of_tree(tree: &'b [Vec<u8>]) -> Self {
        Bufs(tree, u32::MAX, &[])
    }

    #[inline]
    fn get(&self, buf: u32) -> &'b [u8] {
        if buf == self.1 {
            self.2
        } else {
            &self.0[buf as usize]
        }
    }
}

impl Group {
    /// The group whose canonical bytes are in buffer `buf` of its tree,
    /// `bytes`: a rank set, a head and two `TimeStats`, starting at `at`'s
    /// first three offsets and ending at its last. Kept, unless a length
    /// passes what a kept group records (a head of tens of kilobytes, a
    /// rank set of many segments); joined then, its rank set and timing
    /// read from the bytes.
    #[inline]
    fn new(buf: u32, bytes: &[u8], at: Offsets) -> Group {
        match Group::kept_at(buf, bytes, at) {
            Some(group) => group,
            None => Group::joined(buf, bytes, at),
        }
    }

    /// The group as [`Group::new`] keeps it, if it can. Every group read
    /// or merged is made here: it inlines, and reading a merged tree pays
    /// for each call it would make.
    #[inline(always)]
    fn kept_at(buf: u32, bytes: &[u8], at: Offsets) -> Option<Group> {
        let [start, head, stats, end] = at;
        if end > u32::MAX as usize
            || end - start > 0xffff
            || head - start > 0xff
            || end - stats > 0xff
        {
            return None;
        }
        Some(Group {
            key: head_key(&bytes[head..stats]),
            buf,
            start: start as u32,
            len: (end - start) as u16,
            ranks: (head - start) as u8,
            stats: (end - stats) as u8,
            joined: None,
        })
    }

    #[cold]
    #[inline(never)]
    fn joined(buf: u32, bytes: &[u8], [start, head, stats, end]: Offsets) -> Group {
        let parts = read_parts(&bytes[start..end], head - start, stats - head);
        Group {
            key: head_key(&bytes[head..stats]),
            buf,
            start: u32::try_from(head).expect("a group lies in the first 4 GiB of its buffer"),
            len: 0,
            ranks: 0,
            stats: 0,
            joined: Some(Box::new(parts)),
        }
    }

    /// A kept group's bytes (none for a joined one).
    #[inline]
    fn kept<'b>(&self, bufs: Bufs<'b>) -> Option<&'b [u8]> {
        let start = self.start as usize;
        let bytes = &bufs.get(self.buf)[start..start + self.len as usize];
        self.joined.is_none().then_some(bytes)
    }

    #[inline]
    fn head<'b>(&self, bufs: Bufs<'b>) -> &'b [u8] {
        let (buf, start) = (bufs.get(self.buf), self.start as usize);
        match &self.joined {
            None => {
                &buf[start + self.ranks as usize..start + (self.len - self.stats as u16) as usize]
            }
            Some(j) => &buf[start..][..j.head_len as usize],
        }
    }

    /// Its ranks and timing: a joined group's, or read from a kept group's
    /// bytes.
    fn parts<'g>(&'g self, bufs: Bufs<'_>) -> Cow<'g, Joined> {
        match (&self.joined, self.kept(bufs)) {
            (Some(j), _) => Cow::Borrowed(j),
            (None, bytes) => {
                let bytes = bytes.unwrap_or_default();
                let head = self.len as usize - self.ranks as usize - self.stats as usize;
                Cow::Owned(read_parts(bytes, self.ranks as usize, head))
            }
        }
    }

    /// `f` of the group's ranks and record: a kept group's read from its
    /// bytes in one pass, a joined group's head read and its ranks lent.
    #[inline]
    fn read<R>(&self, bufs: Bufs<'_>, f: impl FnOnce(&RankSet, LeafRecord) -> R) -> R {
        let checked = "a group's bytes were checked when they were kept";
        let Some(j) = &self.joined else {
            let mut cur = Cursor::new(self.kept(bufs).unwrap_or_default());
            let group = RankSet::decode(&mut cur)
                .and_then(|ranks| Some((ranks, LeafRecord::decode(&mut cur)?)));
            let (ranks, rec) = group.expect(checked);
            return f(&ranks, rec);
        };
        let mut cur = Cursor::new(self.head(bufs));
        let (params, count) = <EncParams as Codec>::decode(&mut cur)
            .zip(cur.uvar())
            .expect(checked);
        let (time, gap) = (j.time.clone(), j.gap.clone());
        let rec = LeafRecord {
            params,
            count,
            time,
            gap,
        };
        f(&j.ranks, rec)
    }

    /// The group as the pair the merged codec's fields decode to.
    fn decoded(&self, bufs: Bufs<'_>) -> (RankSet, LeafRecord) {
        self.read(bufs, |ranks, rec| (ranks.clone(), rec))
    }

    /// Take in `theirs`, the ranks and timing of a group of an equal head
    /// whose ranks are all above this group's: a kept group becomes joined.
    fn join(&mut self, theirs: &Joined, bufs: Bufs<'_>) {
        let mine = match self.joined.take() {
            Some(j) => j,
            None => {
                let parts = self.parts(bufs).into_owned();
                self.start += self.ranks as u32;
                (self.len, self.ranks, self.stats) = (0, 0, 0);
                Box::new(parts)
            }
        };
        let mine = self.joined.insert(mine);
        mine.ranks.extend_above(&theirs.ranks);
        mine.time.merge(&theirs.time);
        mine.gap.merge(&theirs.gap);
    }

    #[inline]
    fn has_rank(&self, rank: u32, bufs: Bufs<'_>) -> bool {
        match (&self.joined, self.kept(bufs)) {
            (Some(j), _) => j.ranks.contains(rank),
            (None, bytes) => {
                let mut cur = Cursor::new(bytes.unwrap_or_default());
                RankSet::decode(&mut cur).is_some_and(|rs| rs.contains(rank))
            }
        }
    }

    /// The merged codec's bytes for the group: a kept group's are copied,
    /// a joined group's head too.
    fn encode(&self, enc: &mut Encoder, bufs: Bufs<'_>) {
        match &self.joined {
            None => enc.put_raw(self.kept(bufs).unwrap_or_default()),
            Some(j) => {
                j.ranks.encode(enc);
                enc.put_raw(self.head(bufs));
                j.time.encode(enc);
                j.gap.encode(enc);
            }
        }
    }

    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.joined.as_ref().map_or(0, |j| {
                std::mem::size_of::<Joined>() + j.ranks.approx_bytes()
            })
    }
}

/// The groups of one leaf slot, in list order. A slot of one group — each
/// slot of a one-rank piece, most of a regular job's — holds it inline, so
/// a one-rank piece allocates nothing per record.
#[derive(Clone)]
enum Slot {
    One(Group),
    Many(Vec<Group>),
}

impl Default for Slot {
    fn default() -> Self {
        Slot::Many(Vec::new())
    }
}

impl std::ops::Deref for Slot {
    type Target = [Group];

    fn deref(&self) -> &[Group] {
        match self {
            Slot::One(g) => std::slice::from_ref(g),
            Slot::Many(groups) => groups,
        }
    }
}

impl std::ops::DerefMut for Slot {
    fn deref_mut(&mut self) -> &mut [Group] {
        match self {
            Slot::One(g) => std::slice::from_mut(g),
            Slot::Many(groups) => groups,
        }
    }
}

impl Slot {
    /// The groups, held as a list; one held inline moves into a list with
    /// room for `more` after it.
    fn many(&mut self, more: usize) -> &mut Vec<Group> {
        if let Slot::One(_) = self {
            let mut groups = Vec::with_capacity(1 + more);
            if let Slot::One(g) = std::mem::take(self) {
                groups.push(g);
            }
            *self = Slot::Many(groups);
        }
        match self {
            Slot::Many(groups) => groups,
            Slot::One(_) => unreachable!("the slot was just made a list"),
        }
    }

    fn push(&mut self, group: Group) {
        match self {
            Slot::Many(groups) if groups.capacity() == 0 => *self = Slot::One(group),
            _ => self.many(1).push(group),
        }
    }

    fn reserve_exact(&mut self, more: usize) {
        if more > 0 {
            self.many(more).reserve_exact(more);
        }
    }

    fn approx_bytes(&self) -> usize {
        self.iter().map(Group::approx_bytes).sum()
    }
}

/// Where a group's rank set, head and timing start in a buffer, and where
/// it ends.
type Offsets = [usize; 4];

/// Write the merged codec's bytes for a group of `ranks` and `rec` at the
/// end of `enc`; returns where they lie.
fn encode_group(enc: &mut Encoder, ranks: &RankSet, rec: &LeafRecord) -> Offsets {
    let start = enc.len();
    ranks.encode(enc);
    let head = enc.len();
    rec.encode_head(enc);
    let stats = enc.len();
    rec.time.encode(enc);
    rec.gap.encode(enc);
    [start, head, stats, enc.len()]
}

/// The ranks and timing of the kept group `bytes`, whose rank set and head
/// are `ranks` and `head` bytes long: checked when they were kept.
fn read_parts(bytes: &[u8], ranks: usize, head: usize) -> Joined {
    let set = RankSet::decode(&mut Cursor::new(bytes));
    let mut cur = Cursor::new(&bytes[ranks + head..]);
    let stats = TimeStats::decode(&mut cur).zip(TimeStats::decode(&mut cur));
    let (ranks, (time, gap)) = set
        .zip(stats)
        .expect("a kept group's bytes were checked when they were kept");
    Joined {
        head_len: head as u32,
        ranks,
        time,
        gap,
    }
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
/// it (see [`Group`]), so its layout is this module's alone: readers take
/// the groups decoded, through [`fold_merged`](crate::visit::fold_merged),
/// [`MergedCtt::leaf_slots`] and [`MergedCtt::control_groups`]. `Debug`,
/// `PartialEq` and `Clone` are those of the decoded tree.
#[derive(Clone)]
pub struct MergedCtt {
    pub nprocs: u32,
    /// Indexed by CST GID.
    vertices: Vec<MergedVertex>,
    /// Per-rank application times, stride-compressed in rank order.
    pub app_times: IntSeq,
    /// The buffers groups are spans of: the bytes the tree was read from
    /// and the groups its reader re-encoded, each merge worker's new
    /// groups, and the buffers of every piece merged in.
    bufs: Vec<Vec<u8>>,
}

/// The text a derived `Debug` gives the decoded tree.
impl std::fmt::Debug for MergedCtt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedCtt")
            .field("nprocs", &self.nprocs)
            .field("vertices", &self.decoded())
            .field("app_times", &self.app_times)
            .finish()
    }
}

/// Equality of the decoded trees.
impl PartialEq for MergedCtt {
    fn eq(&self, other: &Self) -> bool {
        self.nprocs == other.nprocs
            && self.app_times == other.app_times
            && self.decoded() == other.decoded()
    }
}

/// A vertex of the decoded tree, as its derived `Debug` prints it.
#[derive(Debug, PartialEq)]
enum Decoded<'a> {
    Empty,
    Control(&'a [(RankSet, VertexData)]),
    Leaf(Vec<Vec<(RankSet, LeafRecord)>>),
}

/// Record compatibility: parameters and repeat count match ("all but the
/// communication time", §IV-A). The merge makes this test as an equality
/// of head bytes ([`Group`]); `tests/merge_heads` holds the two to each
/// other.
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
    /// whose ranks leave the range or are not strictly ascending, a slot
    /// holding two groups of one record or a control vertex two of one
    /// sequence, which no merge writes and a later merge would join twice,
    /// and other than one application time per covered rank.
    pub fn from_block(
        bytes: Vec<u8>,
        cst: &Cst,
        nprocs: u32,
        first: u32,
        nranks: u32,
    ) -> Result<Self, BlockError> {
        let end = first as u64 + nranks as u64;
        let mut reader = Reader::new(&bytes, Some((cst, first, end)));
        let tree = decode_whole(&bytes, |cur| reader.tree(cur)).map_err(BlockError::Undecodable)?;
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
            None => {
                let mut tree = tree;
                tree.bufs[0] = bytes;
                Ok(tree)
            }
        }
    }

    /// A rank's CTT bytes, as [`Ctt`]'s codec writes them, read as the
    /// one-rank piece they make for a job of `nprocs` ranks over `cst`, in
    /// one checked pass that builds no tree of records: each record's group
    /// is the rank's one-rank set, then the record's own bytes (encoded
    /// again if they are not canonical). Returns the piece, its rank and its
    /// operation count. Refused as undecodable: what
    /// [`CttSlab::from_bytes`](crate::slab::CttSlab::from_bytes) refuses,
    /// with its text; as a misfit: what [`check_shape`] refuses of it.
    pub fn from_rank(
        bytes: &[u8],
        cst: &Cst,
        nprocs: u32,
    ) -> Result<(MergedCtt, u32, u64), BlockError> {
        let cur = &mut Cursor::new(bytes);
        // Its vertices are held to the job as a block's are.
        let (mut shape, mut segs, mut ops) = (Reader::new(bytes, Some((cst, 0, 0))), Vec::new(), 0);
        // Room for the record bytes and a one-rank set (5 B below rank 64)
        // ahead of each, so the ack waits on no copy of them.
        let mut out = Encoder::with_capacity(bytes.len() * 5 / 4);
        let mut read = || {
            let (rank, tree_nprocs, app_time) =
                (cur.u32("ctt rank")?, cur.u32("ctt nprocs")?, cur.uvar()?);
            let (one, mut gid) = (RankSet::singleton(rank), 0);
            let prefix = one.to_bytes();
            let vertices = cur.seq("ctt vertices", |cur| {
                gid += 1;
                Some(match cur.u8()? {
                    VD_ROOT => MergedVertex::Empty,
                    tag @ (VD_LOOP | VD_BRANCH) => {
                        segs.clear();
                        let total = read_segs_into(cur, &mut segs)?;
                        let seq: IntSeq = SeqRef::from_parts(&segs, total).into();
                        let data = match tag {
                            VD_LOOP => VertexData::Loop { counts: seq },
                            _ => VertexData::Branch { taken: seq },
                        };
                        shape.fits(gid - 1, data.view(), None);
                        match total {
                            0 => MergedVertex::Empty,
                            _ => MergedVertex::Control(vec![(one.clone(), data)]),
                        }
                    }
                    VD_LEAF => {
                        shape.fits(gid - 1, VertexRef::Leaf(&[]), None);
                        let n = cur.count("leaf records")?;
                        let mut slots = Vec::with_capacity(n);
                        for _ in 0..n {
                            cur.take_inexact();
                            let start = bytes.len() - cur.remaining();
                            let (rec, head_len) = LeafRecord::read_with_head(cur)?;
                            let record = &bytes[start..bytes.len() - cur.remaining()];
                            let at = out.len();
                            ops += rec.count;
                            let at = if cur.take_inexact() || has_long_varint(record) {
                                encode_group(&mut out, &one, &rec)
                            } else {
                                out.put_raw(&prefix);
                                out.put_raw(record);
                                let head = at + prefix.len();
                                [at, head, head + head_len, out.len()]
                            };
                            slots.push(Slot::One(Group::new(0, out.as_bytes(), at)));
                        }
                        match n {
                            0 => MergedVertex::Empty,
                            _ => MergedVertex::Leaf(slots),
                        }
                    }
                    t => return bad_vertex_tag(cur, t),
                })
            })?;
            let tree = MergedCtt {
                nprocs: tree_nprocs,
                app_times: IntSeq::from_slice(&[app_time as i64]),
                vertices,
                bufs: Vec::new(),
            };
            Some((tree, rank))
        };
        let Some((mut tree, rank)) = read() else {
            return Err(BlockError::Undecodable(cur.error()));
        };
        if !cur.is_done() {
            let e = format!("{} trailing bytes after CttSlab", cur.remaining());
            return Err(BlockError::Undecodable(DecodeError(e)));
        }
        let size = check_size(cst, nprocs, tree.nprocs, tree.vertices.len());
        if let Some(e) = size.err().or(shape.misfit) {
            return Err(BlockError::Misfit(e));
        }
        tree.bufs.push(out.finish());
        Ok((tree, rank, ops))
    }

    /// One rank's tree as the one-rank piece it makes: [`merge_all`] of it
    /// alone, with nothing logged or counted as a merge, so the `merge`
    /// metrics keep meaning whole merges.
    pub fn one_rank<S: CttSource>(ctt: &S) -> MergedCtt {
        let none = MergedCtt::new(ctt.nprocs(), ctt.vertex_count());
        merge(none, std::slice::from_ref(ctt), Vec::new(), workers_for).0
    }

    /// Every vertex, decoded.
    fn decoded(&self) -> Vec<Decoded<'_>> {
        let vertex = |gid| match &self.vertices[gid] {
            MergedVertex::Empty => Decoded::Empty,
            MergedVertex::Control(groups) => Decoded::Control(groups),
            MergedVertex::Leaf(_) => Decoded::Leaf(self.leaf_slots(gid)),
        };
        (0..self.vertices.len()).map(vertex).collect()
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
                    let bufs = Bufs::of_tree(&self.bufs);
                    groups.iter().map(|g| g.decoded(bufs)).collect()
                })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Every group to `f`, in GID order, scoped to its rank set
    /// ([`fold_merged`](crate::visit::fold_merged)); a group's record is
    /// read from its head and timing for its callback, and no group's for a
    /// fold that reads no records.
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
                        for g in groups.iter() {
                            g.read(Bufs::of_tree(&self.bufs), |ranks, rec| {
                                f.on_record(gid, slot, RankScope::Set(ranks), &rec)
                            });
                        }
                    }
                }
            }
        }
    }

    /// Check every group: what it encodes as is what encoding it decoded
    /// writes, and its key is its head's. Returns the number of kept
    /// groups.
    #[doc(hidden)]
    pub fn check_kept_groups(&self) -> Result<usize, String> {
        let (bufs, mut kept) = (Bufs::of_tree(&self.bufs), 0);
        for (gid, mv) in self.vertices.iter().enumerate() {
            let MergedVertex::Leaf(slots) = mv else {
                continue;
            };
            for (slot, groups) in slots.iter().enumerate() {
                for (i, g) in groups.iter().enumerate() {
                    let (mut held, mut again) = (Encoder::new(), Encoder::new());
                    g.encode(&mut held, bufs);
                    let (ranks, rec) = g.decoded(bufs);
                    encode_group(&mut again, &ranks, &rec);
                    let (held, again) = (held.as_bytes(), again.as_bytes());
                    let at = format!("vertex {gid} slot {slot} group {i}");
                    if held != again {
                        return Err(format!("{at}: holds {held:?}, re-encoded {again:?}"));
                    }
                    if g.key != head_key(g.head(bufs)) {
                        return Err(format!("{at}: key {} is not its head's", g.key));
                    }
                    kept += g.kept(bufs).is_some() as usize;
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
                            let bufs = Bufs::of_tree(&self.bufs);
                            if let Some(g) = slot.iter().find(|g| g.has_rank(rank, bufs)) {
                                records.push(g.read(bufs, |_, rec| rec));
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

    /// Bytes held: the groups, the buffers they are spans of, and the
    /// application times.
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
/// the paper does, each rank a one-rank piece of the pass a
/// [`BinomialMerger`] makes over merged pieces ([`merge`]): O(records),
/// however many rank groups a slot holds, and the same bytes at any worker
/// count.
pub fn merge_all<S: CttSource>(ctts: &[S]) -> MergedCtt {
    assert!(!ctts.is_empty(), "merge_all needs at least one CTT");
    let _span = MERGE_NS.span("merge", "merge_all").arg(ctts.len() as u64);
    let none = MergedCtt::new(ctts[0].nprocs(), ctts[0].vertex_count());
    let (acc, tally) = merge(none, ctts, Vec::new(), workers_for);
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

/// Bytes reserved per rank record a merge worker takes in, for the group it
/// may open: a little above what a one-rank group of `local-irregular`
/// takes on the wire (~41 B).
const GROUP_BYTES: usize = 48;

/// The one merge kernel: `ranks`, one-rank pieces in ascending order, then
/// `pieces`, each a contiguous run of ranks right above the one before it,
/// merged into `acc`, whose ranks lie below them all, vertex by vertex on
/// `workers(items)` workers; with the tallies it has not flushed.
///
/// One pass weighs every list of `acc` by the groups it holds and the items
/// coming into it — a rank's record or control data, a piece's groups —
/// and cuts the lists into one run per worker; the pieces' buffers join
/// `acc`'s. Then each worker takes every item of its run into its list,
/// input by input at each vertex ([`Worker::take_group`],
/// [`Worker::take_control`]). A rank's record comes in as the one-rank
/// group it would open, written into the worker's buffer, which becomes
/// one of the tree's; a piece's group as its 24-byte reference. So the pass
/// is linear in the items, and copies no piece's bytes.
fn merge<S: CttSource>(
    mut acc: MergedCtt,
    ranks: &[S],
    pieces: Vec<MergedCtt>,
    workers: fn(u64) -> usize,
) -> (MergedCtt, Tally) {
    let mut bufs = std::mem::take(&mut acc.bufs);
    for c in ranks {
        assert_eq!(acc.vertices.len(), c.vertex_count());
        acc.app_times.push(c.app_time() as i64);
    }
    let mut pieces: Vec<(MergedCtt, u32)> = pieces.into_iter().map(|p| (p, 0)).collect();
    for (p, offset) in &mut pieces {
        assert_eq!(acc.vertices.len(), p.vertices.len());
        let mut r = p.app_times.reader();
        while let Some(v) = r.next() {
            acc.app_times.push(v);
        }
        *offset = bufs.len() as u32;
        bufs.append(&mut p.bufs);
    }
    let mut plan = Plan::default();
    for (gid, mine) in acc.vertices.iter_mut().enumerate() {
        let start = plan.begin_vertex();
        let (mut leaf, mut control) = (false, false);
        for c in ranks {
            match c.vertex(gid) {
                VertexRef::Root | VertexRef::Leaf([]) => {}
                VertexRef::Loop(s) | VertexRef::Branch(s) if s.is_empty() => {}
                VertexRef::Loop(_) | VertexRef::Branch(_) => {
                    control = true;
                    plan.add_lens(start, [1]);
                }
                VertexRef::Leaf(records) => {
                    leaf = true;
                    plan.add_lens(start, records.iter().map(|_| 1));
                }
            }
        }
        for (p, _) in &pieces {
            match &p.vertices[gid] {
                MergedVertex::Empty => {}
                MergedVertex::Control(groups) => {
                    control = true;
                    plan.add_lens(start, [groups.len()]);
                }
                MergedVertex::Leaf(slots) => {
                    leaf = true;
                    plan.add_lens(start, slots.iter().map(|s| s.len()));
                }
            }
        }
        // A merge of pieces reserves each list's final length: few of an
        // irregular job's groups merge.
        let (weights, pieces_only) = (&mut plan.weights[start..], ranks.is_empty());
        if leaf {
            let n = weights.len();
            for (w, slot) in weights.iter_mut().zip(mine.leaf_slots(n)) {
                if pieces_only {
                    slot.reserve_exact(*w as usize);
                }
                *w += slot.len() as u64;
            }
        }
        if control {
            let list = mine.control_groups();
            if pieces_only {
                list.reserve_exact(weights[0] as usize);
            }
            weights[0] += list.len() as u64;
        }
    }
    plan.cut(workers(plan.total()));
    let mut parts: Vec<Vec<Share<'_>>> = plan.parts();
    for (gid, mine) in acc.vertices.iter_mut().enumerate() {
        match mine {
            MergedVertex::Empty => {}
            MergedVertex::Control(dst) => {
                if let Some((k, _)) = plan.spans(gid).next() {
                    parts[k].push(Share::Control(gid, dst));
                }
            }
            MergedVertex::Leaf(dst) => {
                let spans: Vec<_> = plan.spans(gid).collect();
                for ((k, span), dst) in spans.iter().zip(cut_list(dst, &spans)) {
                    parts[*k].push(Share::Leaf(gid, span.start, dst));
                }
            }
        }
    }
    let first_live = bufs.len();
    let parts: Vec<_> = parts.into_iter().enumerate().collect();
    let done = split(parts, |(k, part)| {
        let room = if ranks.is_empty() {
            0
        } else {
            plan.weight(k) as usize * GROUP_BYTES
        };
        Worker {
            tree: &bufs,
            live: u32::try_from(first_live + k).expect("a tree's buffers number below 2^32"),
            out: Encoder::with_capacity(room),
            tables: Vec::new(),
            tally: Tally::default(),
        }
        .run(ranks, &pieces, part)
    });
    let (tallies, outs): (Vec<_>, Vec<_>) = done.into_iter().unzip();
    bufs.extend(outs);
    acc.bufs = bufs;
    (acc, tallies.into_iter().sum())
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

/// One worker's share of a merge at vertex `.0`: the merge's lists there,
/// a control vertex's one list or the leaf slots from `.1` on.
enum Share<'a> {
    Control(usize, &'a mut Vec<(RankSet, VertexData)>),
    Leaf(usize, usize, &'a mut [Slot]),
}

/// One merge worker: the tree's buffers before `live`, its own, and a key
/// table per list of the vertex at hand.
struct Worker<'t> {
    tree: &'t [Vec<u8>],
    live: u32,
    out: Encoder,
    tables: Vec<KeyTable>,
    tally: Tally,
}

impl Worker<'_> {
    /// Take every item of `ranks`, then of `pieces` (each with what its
    /// groups' buffer indices move up by), into the lists of `part`, input
    /// by input at each of its vertices. Returns the tallies and the
    /// worker's buffer.
    fn run<S: CttSource>(
        mut self,
        ranks: &[S],
        pieces: &[(MergedCtt, u32)],
        part: Vec<Share<'_>>,
    ) -> (Tally, Vec<u8>) {
        for share in part {
            match share {
                Share::Control(gid, dst) => {
                    self.tables_for(1);
                    for c in ranks {
                        let data = match c.vertex(gid) {
                            VertexRef::Loop(s) if !s.is_empty() => {
                                VertexData::Loop { counts: s.into() }
                            }
                            VertexRef::Branch(s) if !s.is_empty() => {
                                VertexData::Branch { taken: s.into() }
                            }
                            _ => continue,
                        };
                        self.take_control(dst, RankSet::singleton(c.rank()), data, 1);
                    }
                    for (p, _) in pieces {
                        let groups = p.control_groups(gid);
                        for (n, (ranks, data)) in groups.iter().enumerate() {
                            let incoming = groups.len() - n;
                            self.take_control(dst, ranks.clone(), data.clone(), incoming);
                        }
                    }
                }
                Share::Leaf(gid, first, dst) => {
                    self.tables_for(dst.len());
                    for c in ranks {
                        // Empty data = the rank never reached this vertex:
                        // it contributes nothing there (paper: "if a
                        // process has not executed a certain call path,
                        // the path is ignored").
                        let VertexRef::Leaf(records) = c.vertex(gid) else {
                            continue;
                        };
                        let records = records.get(first..).unwrap_or_default();
                        for (i, (slot, rec)) in dst.iter_mut().zip(records).enumerate() {
                            let group = self.rank_group(c.rank(), rec);
                            self.take_group(slot, group, 1, i);
                        }
                    }
                    for (p, by) in pieces {
                        let MergedVertex::Leaf(slots) = &p.vertices[gid] else {
                            continue;
                        };
                        let slots = slots.get(first..).unwrap_or_default();
                        for (i, (slot, groups)) in dst.iter_mut().zip(slots).enumerate() {
                            for (n, group) in groups.iter().enumerate() {
                                let group = Group {
                                    buf: group.buf + by,
                                    ..group.clone()
                                };
                                self.take_group(slot, group, groups.len() - n, i);
                            }
                        }
                    }
                }
            }
        }
        // The room reserved was one group per record; most records join a
        // group instead, so what is left over is handed back.
        let mut buf = self.out.finish();
        buf.shrink_to_fit();
        (self.tally, buf)
    }

    /// Empty key tables for the `n` lists of the next vertex.
    fn tables_for(&mut self, n: usize) {
        if self.tables.len() < n {
            self.tables.resize_with(n, KeyTable::default);
        }
        self.tables[..n].iter_mut().for_each(KeyTable::clear);
    }

    /// The group `rank`'s record `rec` opens, written at the end of the
    /// worker's buffer.
    fn rank_group(&mut self, rank: u32, rec: &LeafRecord) -> Group {
        let at = encode_group(&mut self.out, &RankSet::singleton(rank), rec);
        Group::new(self.live, self.out.as_bytes(), at)
    }

    /// Take `group` into `dst`, list `list` of the vertex at hand, with
    /// `incoming` groups (this one among them) still to come into it: it
    /// joins the group of an equal head there, which reads only its ranks
    /// and timing, or opens its own after them.
    fn take_group(&mut self, dst: &mut Slot, group: Group, incoming: usize, list: usize) {
        let bufs = Bufs(self.tree, self.live, self.out.as_bytes());
        let (key, head) = (group.key, group.head(bufs));
        let found = self.tally.find(
            dst,
            incoming,
            &mut self.tables[list],
            || key,
            |g| g.key,
            |g| g.key == key && g.head(bufs) == head,
        );
        let Some(p) = found else {
            self.tally.groups_formed += 1;
            dst.push(group);
            return;
        };
        let (buf, start) = (group.buf, group.start);
        let theirs = match group.joined {
            Some(j) => *j,
            None => group.parts(bufs).into_owned(),
        };
        dst[p].join(&theirs, bufs);
        if buf == self.live {
            self.out.truncate(start as usize);
        }
    }

    /// Take a control group, `ranks` and `data`, into `dst` with `incoming`
    /// groups still to come into it: its ranks join the group of equal data
    /// already there, or it opens its own after them.
    fn take_control(
        &mut self,
        dst: &mut Vec<(RankSet, VertexData)>,
        ranks: RankSet,
        data: VertexData,
        incoming: usize,
    ) {
        let theirs = data.view();
        let found = self.tally.find(
            dst,
            incoming,
            &mut self.tables[0],
            || control_key(theirs),
            |(_, d)| control_key(d.view()),
            |(_, d)| d.view() == theirs,
        );
        if let Some(p) = found {
            return dst[p].0.extend_above(&ranks);
        }
        self.tally.groups_formed += 1;
        dst.push((ranks, data));
    }
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

/// The items (records or groups taken in, or groups encoded) a worker must have
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
/// probe, so short lists scan faster; DESIGN §10 has the numbers that
/// chose 32. An item taken in runs at most half this many tests per group
/// of the list it comes into, short of crafted key collisions
/// ([`KeyTable`]).
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
/// incompatible and a scan's first hit is the only one.
///
/// The hash is not keyed, so a peer can craft relay blocks whose groups'
/// keys collide (a repeat count's varint can be solved for any key). Each
/// group coming in is then tested against every group under that key: two
/// such blocks of n groups in one slot cost n² tests, and `finish` was
/// measured at 4× per doubling, 10.9 s at n = 8,000, when a test decoded
/// both records. A test is now a `memcmp` of two heads, not a decode: a
/// collision is cheaper, the count still quadratic.
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

/// Key of a group's head ([`LeafRecord::encode_head`]'s bytes): what
/// [`record_mergeable`] compares, as the codec writes it.
fn head_key(head: &[u8]) -> u32 {
    let mut h = KeyHasher::default();
    h.write_usize(head.len());
    h.write(head);
    h.finish() as u32
}

/// Key of control data: its kind and segments, what a control group's
/// data is compared on.
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
/// The merger holds disjoint contiguous *pieces*, each a [`MergedCtt`]: a
/// lower tier's merged block, or a collector's one-rank piece, enters
/// through [`add_block`](Self::add_block) as it came; a run of ranks
/// through [`add_run`](Self::add_run) as one [`merge_all`] over it.
/// Nothing merges while pieces arrive; [`finish`](Self::finish) and
/// [`into_blocks`](Self::into_blocks) make one vertex-by-vertex pass over
/// them in rank order, the pass [`merge_all`] makes over ranks.
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
    /// Ranks the pieces hold.
    received: u32,
}

impl BinomialMerger {
    pub fn new(nprocs: u32) -> Self {
        assert!(nprocs > 0, "BinomialMerger needs at least one rank");
        BinomialMerger {
            nprocs,
            pieces: std::collections::BTreeMap::new(),
            received: 0,
        }
    }

    /// Offer one rank's finished CTT, held as its one-rank piece
    /// ([`MergedCtt::one_rank`]) as a collector holds a streamed rank: no
    /// merge is logged or counted until [`finish`](Self::finish).
    /// Returns `false` (and changes nothing) if this rank was already merged
    /// — a retried client re-submitting a rank the collector completed
    /// earlier is a no-op, not corruption. Panics, naming both numbers, on a
    /// CTT of another job size or a rank outside the job.
    pub fn add<S: CttSource>(&mut self, ctt: &S) -> bool {
        let (rank, nprocs) = (ctt.rank(), ctt.nprocs());
        assert!(
            nprocs == self.nprocs,
            "rank {rank} is of a {nprocs}-rank job, the merger's has {}",
            self.nprocs
        );
        if self.has_rank(rank) {
            return false;
        }
        match self.add_block(rank, 1, MergedCtt::one_rank(ctt)) {
            Ok(added) => added,
            Err(e) => panic!("{e}"),
        }
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
        self.received += count;
        self.pieces.insert(first, (count, block));
        Ok(true)
    }

    /// Offer a run of consecutive ranks in ascending order, none of them
    /// merged yet. The run is merged vertex by vertex ([`merge_all`],
    /// linear in its records) and held as one piece.
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
        self.received += end - first;
        self.pieces.insert(first, (end - first, merge_all(run)));
        Ok(())
    }

    /// How many of ranks `[first, end)` are merged: those of the pieces
    /// that start below `end` and end above `first`, which are disjoint.
    fn seen_in(&self, first: u32, end: u32) -> u32 {
        let spans = self
            .pieces
            .range(..end)
            .rev()
            .map(|(&f, (n, _))| (f, f + n));
        let overlaps = spans.take_while(|&(_, e)| e > first);
        overlaps.map(|(f, e)| e.min(end) - f.max(first)).sum()
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
        rank < self.nprocs && self.seen_in(rank, rank + 1) == 1
    }

    /// Pieces held: runs and blocks, each still a merge of its own.
    pub fn pieces(&self) -> usize {
        self.pieces.len()
    }

    /// Ranks not yet submitted, in ascending order.
    pub fn missing_ranks(&self) -> Vec<u32> {
        (0..self.nprocs).filter(|&r| !self.has_rank(r)).collect()
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

/// [`merge`] of `pieces`, in rank order, into the first of them.
fn merge_pieces(pieces: Vec<MergedCtt>, workers: fn(u64) -> usize) -> (MergedCtt, Tally) {
    let mut pieces = pieces.into_iter();
    let first = pieces.next().expect("a merge of pieces needs at least one");
    merge::<Ctt>(first, &[], pieces.collect(), workers)
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
    /// groups are spans of them or of the groups it encoded again.
    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let input = cur.rest();
        let mut tree = Reader::new(input, None).tree(cur)?;
        tree.bufs[0] = input[..input.len() - cur.remaining()].to_vec();
        Some(tree)
    }
}

/// One checked pass over a merged tree's bytes, `input`, from its start,
/// through the one reader of each field. A leaf group is a span of buffer
/// 0, which the caller makes of `input`, or, where those bytes are not its
/// canonical ones, encoded again into a buffer of its own: so the tree's
/// bytes are decode-then-encode on any input.
struct Reader<'a, 'c> {
    input: &'a [u8],
    /// The CST a block must fit and the ranks `[first, end)` it covers.
    block: Option<(&'c Cst, u32, u64)>,
    /// The first vertex or group that does not fit the block.
    misfit: Option<String>,
    /// The tree's buffers: an empty one in place of `input`, then one per
    /// group encoded again.
    bufs: Vec<Vec<u8>>,
    /// What holds a block's slot lists to distinct heads.
    table: KeyTable,
}

impl<'a, 'c> Reader<'a, 'c> {
    fn new(input: &'a [u8], block: Option<(&'c Cst, u32, u64)>) -> Self {
        Reader {
            input,
            block,
            misfit: None,
            bufs: vec![Vec::new()],
            table: KeyTable::default(),
        }
    }

    fn at(&self, cur: &Cursor<'_>) -> usize {
        self.input.len() - cur.remaining()
    }

    fn tree(&mut self, cur: &mut Cursor<'a>) -> Option<MergedCtt> {
        let nprocs = cur.u32("merged ctt nprocs")?;
        let app_times = IntSeq::decode(cur)?;
        let mut gid = 0;
        let vertices = cur.seq("merged vertices", |cur| {
            gid += 1;
            self.vertex(cur, gid - 1)
        })?;
        Some(MergedCtt {
            nprocs,
            vertices,
            app_times,
            bufs: std::mem::take(&mut self.bufs),
        })
    }

    fn vertex(&mut self, cur: &mut Cursor<'a>, gid: usize) -> Option<MergedVertex> {
        Some(match cur.u8()? {
            MV_EMPTY => MergedVertex::Empty,
            MV_CONTROL => {
                let groups = cur.seq("control groups", |cur| {
                    let group = read_control(cur)?;
                    self.fits(gid, group.1.view(), Some(&group.0));
                    Some(group)
                })?;
                if self.checking() {
                    let key = |(_, d): &(RankSet, VertexData)| control_key(d.view());
                    let same = |a: &(_, VertexData), b: &(_, VertexData)| a.1.view() == b.1.view();
                    if let Some((j, i)) = repeat(&mut self.table, &groups, key, same) {
                        let why =
                            format!("vertex {gid}: control groups {j} and {i} hold one sequence");
                        self.misfit = Some(why);
                    }
                }
                MergedVertex::Control(groups)
            }
            MV_LEAF => {
                self.fits(gid, VertexRef::Leaf(&[]), None);
                let mut slot = 0;
                MergedVertex::Leaf(cur.seq("leaf slots", |cur| {
                    let groups = Slot::Many(cur.seq("slot groups", |cur| self.group(cur, gid))?);
                    if self.checking() {
                        let heads = Bufs(&self.bufs, 0, self.input);
                        let same = |a: &Group, b: &Group| a.head(heads) == b.head(heads);
                        if let Some((j, i)) = repeat(&mut self.table, &groups, |g| g.key, same) {
                            let why = format!(
                                "vertex {gid} slot {slot}: groups {j} and {i} hold one record"
                            );
                            self.misfit = Some(why);
                        }
                    }
                    slot += 1;
                    Some(groups)
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

    /// Whether the list at hand is held to a block: there is one, and
    /// nothing before it failed to fit.
    fn checking(&self) -> bool {
        self.block.is_some() && self.misfit.is_none()
    }

    /// One leaf group, read, its ranks held to the block's range. It is
    /// encoded again if a reader noted an inexact read, its bytes hold a
    /// varint longer than it needs (every one-byte field of a group is a
    /// tag or an op code below 0x80), or they are not a span a kept group
    /// records (past 4 GiB, or too long).
    fn group(&mut self, cur: &mut Cursor<'a>, gid: usize) -> Option<Group> {
        cur.take_inexact();
        let start = self.at(cur);
        let ranks = RankSet::decode(cur)?;
        let head = self.at(cur);
        let (rec, head_len) = LeafRecord::read_with_head(cur)?;
        let end = self.at(cur);
        self.fits(gid, VertexRef::Leaf(&[]), Some(&ranks));
        let canonical = !cur.take_inexact() && !has_long_varint(&self.input[start..end]);
        let at = [start, head, head + head_len, end];
        if let Some(group) = canonical
            .then(|| Group::kept_at(0, self.input, at))
            .flatten()
        {
            return Some(group);
        }
        // Such a group is rare, and a buffer of its own is always within
        // what a span addresses.
        let mut enc = Encoder::new();
        let at = encode_group(&mut enc, &ranks, &rec);
        self.bufs.push(enc.finish());
        let buf = self.bufs.len() - 1;
        Some(Group::new(buf as u32, &self.bufs[buf], at))
    }
}

/// The first two of `groups` that are `same`, in a block's list, where
/// every merge writes none: a leaf slot's groups of one head, a control
/// vertex's of one sequence, which a later merge would join to one group
/// twice. A list of up to [`FILTERED`] groups, one per rank of a job of
/// that size, is checked with a bit per key on the stack: a group whose
/// bit an earlier one set scans the earlier keys, and compares on an equal
/// one. A longer list takes one key table probe per group and, on a hit,
/// one comparison.
fn repeat<G>(
    table: &mut KeyTable,
    groups: &[G],
    key_of: impl Fn(&G) -> u32,
    same: impl Fn(&G, &G) -> bool,
) -> Option<(usize, usize)> {
    if groups.len() < 2 {
        return None;
    }
    if groups.len() <= FILTERED {
        let (mut keys, mut seen) = ([0; FILTERED], [0u64; FILTERED / 4]);
        for (i, g) in groups.iter().enumerate() {
            let key = key_of(g);
            keys[i] = key;
            let (word, bit) = ((key >> 6) as usize % seen.len(), 1 << (key % 64));
            if seen[word] & bit != 0 {
                let hit = (0..i).find(|&j| keys[j] == key && same(&groups[j], g));
                if let Some(j) = hit {
                    return Some((j, i));
                }
            }
            seen[word] |= bit;
        }
        return None;
    }
    table.clear();
    table.catch_up(&groups[..0], groups.len(), &key_of);
    for (i, g) in groups.iter().enumerate() {
        let key = key_of(g);
        if let Some(j) = table.find(key, |j| same(&groups[j], g)) {
            return Some((j, i));
        }
        table.put(key, i as u32);
    }
    None
}

/// The longest list [`repeat`] checks without a key table; its filter has
/// 16 bits per group.
const FILTERED: usize = 64;

/// A control group holds a loop's counts or a branch's taken indices,
/// never root or leaf data.
fn read_control(cur: &mut Cursor<'_>) -> Option<(RankSet, VertexData)> {
    let ranks = RankSet::decode(cur)?;
    let data = match cur.u8()? {
        VD_LOOP => VertexData::Loop {
            counts: IntSeq::decode(cur)?,
        },
        VD_BRANCH => VertexData::Branch {
            taken: IntSeq::decode(cur)?,
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
/// vertex's one list as item 0. A kept group's bytes, and a joined
/// group's head, are copied from `bufs`.
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
                enc.put_seq(slot.iter(), |enc, g| g.encode(enc, Bufs::of_tree(bufs)));
            }
        }
    }
}

/// The merge job `tests/merge_identity.rs` checks.
#[cfg(test)]
#[path = "../../../tests/merge_job/mod.rs"]
mod merge_job;

/// The head equality `tests/random_programs.rs` checks too.
#[cfg(test)]
#[path = "../../../tests/merge_heads/mod.rs"]
mod merge_heads;

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
    use cypress_trace::codec::DecodeResult;

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
    /// into an owned pair, which is encoded again into a buffer of the
    /// tree's own, so the tree encodes as its owned groups did.
    fn read_owned(bytes: &[u8]) -> DecodeResult<MergedCtt> {
        let mut side = Vec::new();
        let mut tree = read_owned_into(bytes, &mut side)?;
        tree.bufs = vec![Vec::new(), side];
        Ok(tree)
    }

    fn read_owned_into(bytes: &[u8], side: &mut Vec<u8>) -> DecodeResult<MergedCtt> {
        let mut group = |cur: &mut Cursor<'_>| {
            let (ranks, rec) = (RankSet::decode(cur)?, LeafRecord::decode(cur)?);
            let mut enc = Encoder::new();
            let at = encode_group(&mut enc, &ranks, &rec).map(|i| i + side.len());
            side.extend_from_slice(enc.as_bytes());
            Some(Group::new(1, side, at))
        };
        decode_whole(bytes, |cur| {
            Some(MergedCtt {
                nprocs: cur.u32("merged ctt nprocs")?,
                app_times: IntSeq::decode(cur)?,
                vertices: cur.seq("merged vertices", |cur| {
                    Some(match cur.u8()? {
                        MV_EMPTY => MergedVertex::Empty,
                        MV_CONTROL => {
                            MergedVertex::Control(cur.seq("control groups", read_control)?)
                        }
                        MV_LEAF => MergedVertex::Leaf(cur.seq("leaf slots", |cur| {
                            Some(Slot::Many(cur.seq("slot groups", &mut group)?))
                        })?),
                        t => return cur.refuse(t as u64, |t| format!("bad MergedVertex tag {t}")),
                    })
                })?,
                bufs: Vec::new(),
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
    /// varint than needed, a minimum the encoder rewrites), which are
    /// encoded again into a buffer of the tree's own.
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
            assert_eq!(reads_as_owned(&bytes), 1, "{bytes:?}");
            let read = MergedCtt::from_bytes(&bytes).unwrap();
            // The group is in the buffer the reader encoded it into.
            assert_eq!(read.bufs.len(), 2, "{bytes:?}");
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

    /// The block check before it ran inside the read: on the decoded tree,
    /// a slot's repeated record found by [`record_mergeable`].
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
                    for (i, (_, d)) in groups.iter().enumerate() {
                        if let Some(j) = groups[..i].iter().position(|g| g.1.view() == d.view()) {
                            return Err(format!(
                                "vertex {gid}: control groups {j} and {i} hold one sequence"
                            ));
                        }
                    }
                }
                MergedVertex::Leaf(slots) => {
                    check_vertex(cst, gid, VertexRef::Leaf(&[]))?;
                    for (slot, groups) in slots.iter().enumerate() {
                        let bufs = Bufs::of_tree(&tree.bufs);
                        let groups: Vec<_> = groups.iter().map(|g| g.decoded(bufs)).collect();
                        for (rs, _) in &groups {
                            ranks(gid, rs)?;
                        }
                        for (i, (_, rec)) in groups.iter().enumerate() {
                            if let Some(j) =
                                groups[..i].iter().position(|g| record_mergeable(&g.1, rec))
                            {
                                return Err(format!(
                                    "vertex {gid} slot {slot}: groups {j} and {i} hold one record"
                                ));
                            }
                        }
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

    /// A rank's CTT bytes read as a one-rank piece are what the slab path
    /// made of them — the same refusal, with the same text, or a piece of
    /// the bytes `merge_all` writes for the slab, whose groups are their
    /// own bytes — on every rank of a job of every group shape, on every
    /// truncation, flipped byte and appended byte of one rank's bytes, on
    /// a job of another size and on two vertices of other kinds swapped.
    #[test]
    fn a_rank_read_as_a_piece_is_the_slab_merged_alone() {
        let (info, mut ctts) = pipeline(MIXED, 6);
        let cst = &info.cst;
        let outcome = |bytes: &[u8], nprocs| {
            let piece = MergedCtt::from_rank(bytes, cst, nprocs).map(|(tree, rank, ops)| {
                tree.check_kept_groups().unwrap();
                (tree.to_bytes(), rank, ops)
            });
            let slab = CttSlab::from_bytes(bytes)
                .map_err(BlockError::Undecodable)
                .and_then(|slab| {
                    check_shape(&slab, cst, nprocs).map_err(BlockError::Misfit)?;
                    let tree = merge_all(std::slice::from_ref(&slab)).to_bytes();
                    Ok((tree, slab.rank, slab.op_count()))
                });
            assert_eq!(piece, slab, "{bytes:02x?}");
            piece.is_ok()
        };
        for ctt in &ctts {
            assert!(outcome(&ctt.to_bytes(), 6));
            assert!(!outcome(&ctt.to_bytes(), 7));
        }
        let bytes = ctts[3].to_bytes();
        let mut accepted = 0;
        for cut in 0..bytes.len() {
            assert!(!outcome(&bytes[..cut], 6));
        }
        for pos in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xff] {
                let mut work = bytes.clone();
                work[pos] ^= mask;
                accepted += outcome(&work, 6) as usize;
            }
        }
        assert!(accepted > 0);
        let mut appended = bytes.clone();
        appended.push(0x2a);
        assert!(!outcome(&appended, 6));
        ctts[1].data.swap(1, 2);
        assert!(!outcome(&ctts[1].to_bytes(), 6));
    }

    /// Rank 2 joins the group rank 0 kept, in `merge_all` and as a later
    /// piece in `finish`; rank 1's group and rank 3's stay kept.
    #[test]
    fn a_kept_group_joined_by_a_later_rank_or_piece_becomes_joined() {
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
                let bufs = Bufs::of_tree(&tree.bufs);
                (g.decoded(bufs).0.ranks(), g.kept(bufs).is_some())
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

    /// The one kernel over the ranks of a job (`merge_all`), over a relay's
    /// pieces (`into_blocks`, the pieces of a middle range of ranks) and over
    /// a root's (`finish`, every piece, one of them through its bytes as a
    /// decoded block), and the chunked encode, give at 2, 3 and 8 workers
    /// the bytes and the comparison and group tallies of one worker, and
    /// every group of `merge_all`'s tree holds its own bytes; the chunks'
    /// CRCs combine to the CRC of `to_bytes`.
    #[test]
    fn every_worker_count_gives_the_one_worker_merge_and_bytes() {
        use cypress_deflate::{crc32, crc32_combine};
        let runs: [fn(u64) -> usize; 3] = [fixed::<2>, fixed::<3>, fixed::<8>];
        for (name, ctts) in identity_jobs() {
            let ranks = |ctts: &[Ctt], workers| {
                let none = MergedCtt::new(ctts[0].nprocs, ctts[0].data.len());
                merge(none, ctts, Vec::new(), workers)
            };
            let (want, want_tally) = ranks(&ctts, fixed::<1>);
            want.check_kept_groups().unwrap();
            let bytes = want.to_bytes();
            // Uneven contiguous pieces, as a root holds them.
            let p = ctts.len();
            let cuts = [0, 1, p / 3, p / 3 + 1, p - 1, p];
            let pieces = |range: &[usize]| -> Vec<MergedCtt> {
                let mut pieces: Vec<_> = range
                    .windows(2)
                    .filter(|w| w[0] < w[1])
                    .map(|w| ranks(&ctts[w[0]..w[1]], fixed::<1>).0)
                    .collect();
                pieces[0] = MergedCtt::from_bytes(&pieces[0].to_bytes()).unwrap();
                pieces
            };
            let (whole, whole_tally) = merge_pieces(pieces(&cuts), fixed::<1>);
            assert!(whole.to_bytes() == bytes, "{name}: finish");
            let (block, block_tally) = merge_pieces(pieces(&cuts[1..5]), fixed::<1>);
            let block_bytes = block.to_bytes();
            for (w, workers) in runs.into_iter().enumerate() {
                let (merged, tally) = ranks(&ctts, workers);
                assert!(merged.to_bytes() == bytes, "{name}: merge_all, run {w}");
                assert_eq!(tally, want_tally, "{name}: merge_all, run {w}");
                merged.check_kept_groups().unwrap();
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

    /// Two records are mergeable exactly when their heads are equal bytes,
    /// for every pair at one leaf slot of every identity job: the test the
    /// merge makes instead of `record_mergeable`.
    #[test]
    fn heads_are_equal_exactly_when_records_are_mergeable() {
        let pairs: u64 = identity_jobs()
            .iter()
            .map(|(_, ctts)| merge_heads::check_heads_decide_merges(ctts))
            .sum();
        assert!(pairs > 0);
    }

    /// A block whose slot holds n copies of one group naming one rank —
    /// which would make `finish` quadratic in n — is refused as it is read,
    /// naming the repeat, at n = 8,000 and 32,000; a slot of distinct
    /// groups is not.
    #[test]
    fn a_block_slot_that_repeats_a_record_is_refused() {
        let (info, ctts) = pipeline("fn main() { barrier(); }", 2);
        let cst = &info.cst;
        let leaf = (0..cst.len())
            .find(|&g| cst.vertex(g).kind.is_mpi())
            .unwrap();
        let VertexData::Leaf { records } = &ctts[0].data[leaf] else {
            panic!("vertex {leaf} is the barrier")
        };
        let block = |groups: &[(u32, u64)]| {
            let mut enc = Encoder::new();
            enc.put_uvar(2);
            IntSeq::from_slice(&[5, 5]).encode(&mut enc);
            enc.put_uvar(cst.len() as u64);
            for gid in 0..cst.len() {
                if gid != leaf {
                    enc.put_u8(MV_EMPTY);
                    continue;
                }
                enc.put_u8(MV_LEAF);
                enc.put_uvar(1);
                enc.put_uvar(groups.len() as u64);
                for &(rank, count) in groups {
                    let rec = LeafRecord {
                        count,
                        ..records[0].clone()
                    };
                    encode_group(&mut enc, &RankSet::singleton(rank), &rec);
                }
            }
            MergedCtt::from_block(enc.finish(), cst, 2, 0, 2)
        };
        for n in [8_000, 32_000] {
            let err = block(&vec![(0, 1); n]).unwrap_err();
            let why = format!("vertex {leaf} slot 0: groups 0 and 1 hold one record");
            assert_eq!(err, BlockError::Misfit(why), "n = {n}");
        }
        assert_eq!(block(&[(0, 1), (1, 2)]).map(|t| t.group_count()), Ok(2));
        let err = block(&[(0, 1), (1, 2), (1, 1)]).unwrap_err();
        let why = format!("vertex {leaf} slot 0: groups 0 and 2 hold one record");
        assert_eq!(err, BlockError::Misfit(why));
    }

    /// A plan's parts cover every item once, in order, and a vertex's header
    /// goes to the part that holds its first item.
    /// A control list naming one sequence twice would have a merge join
    /// one group twice, the second time with ranks below the first's: the
    /// block is refused, and valid blocks still merge to `merge_all`.
    #[test]
    fn a_block_control_list_that_repeats_a_sequence_is_refused() {
        let (info, ctts) = pipeline("fn main() { for i in 0..5 { barrier(); } }", 4);
        let cst = &info.cst;
        let block = merge_all(&ctts[2..]).to_bytes();
        let mut merger = BinomialMerger::new(4);
        merger.add_run(&ctts[..2]).unwrap();
        let piece = MergedCtt::from_block(block, cst, 4, 2, 2).unwrap();
        merger.add_block(2, 2, piece).unwrap();
        assert_eq!(merger.finish().to_bytes(), merge_all(&ctts).to_bytes());

        let lp = (0..cst.len())
            .find(|&g| matches!(cst.vertex(g).kind, VertexKind::Loop { .. }))
            .unwrap();
        let block = |groups: &[(u32, i64)]| {
            let mut enc = Encoder::new();
            enc.put_uvar(4);
            IntSeq::from_slice(&[5, 5]).encode(&mut enc);
            enc.put_uvar(cst.len() as u64);
            for gid in 0..cst.len() {
                if gid != lp {
                    enc.put_u8(MV_EMPTY);
                    continue;
                }
                enc.put_u8(MV_CONTROL);
                enc.put_uvar(groups.len() as u64);
                for &(rank, trips) in groups {
                    RankSet::singleton(rank).encode(&mut enc);
                    let counts = IntSeq::from_slice(&[trips]);
                    VertexData::Loop { counts }.encode(&mut enc);
                }
            }
            MergedCtt::from_block(enc.finish(), cst, 4, 2, 2)
        };
        assert_eq!(block(&[(2, 5), (3, 6)]).map(|t| t.group_count()), Ok(2));
        let err = block(&[(3, 5), (2, 5)]).unwrap_err();
        let why = format!("vertex {lp}: control groups 0 and 1 hold one sequence");
        assert_eq!(err, BlockError::Misfit(why));
    }

    /// `repeat` finds the first pair of equal items on the filtered and
    /// the keyed path alike: items are `(key, value)`, equal by value, so
    /// keys collide, and share filter bits, without the items being equal.
    #[test]
    fn repeat_finds_the_first_equal_pair_on_either_path() {
        let mut table = KeyTable::default();
        let mut find =
            |items: &[(u32, u32)]| repeat(&mut table, items, |&(k, _)| k, |a, b| a.1 == b.1);
        for n in [2, 3, FILTERED, FILTERED + 1, 200] {
            // Every key in one of four filter bits, or all on one key.
            for key in [|i: u32| (i % 4) << 16, |_| 7] {
                let items: Vec<_> = (0..n as u32).map(|i| (key(i), i)).collect();
                assert_eq!(find(&items), None, "n = {n}");
                for (j, i) in [(0, 1), (0, n - 1), (n - 2, n - 1)] {
                    let mut twice = items.clone();
                    twice[i] = twice[j];
                    for later in i + 1..n {
                        twice[later].1 = twice[j].1 + 1_000 + later as u32;
                    }
                    assert_eq!(find(&twice), Some((j, i)), "n = {n}, pair ({j}, {i})");
                }
            }
        }
    }

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
