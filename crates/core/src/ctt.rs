//! The Compressed Trace Tree (CTT) — paper §IV.
//!
//! An ordered tree with the same shape as the CST whose vertices carry the
//! runtime information gathered top-down during execution: iteration-count
//! sequences for loop vertices, taken-visit indices for branch vertices, and
//! merged communication records for leaves. Process ranks inside
//! communication parameters are encoded *relatively* (`rank ± c`,
//! paper §IV-B) so that SPMD-symmetric operations compare equal across
//! processes during inter-process merging.

use crate::intseq::IntSeq;
use crate::timestats::TimeStats;
use crate::visit::VertexRef;
use cypress_trace::codec::{Codec, Cursor, Encoder};
use cypress_trace::event::{MpiOp, MpiParams, ANY_SOURCE, NONE};
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// A completion record's request GIDs. Almost every record has none (only
/// completion ops carry them), and the empty list holds no allocation and
/// no refcount: a refcount shared by every record would be one cache line
/// that every decode, clone and drop on every thread writes. A non-empty
/// list is one `Arc<[u32]>`, so cloning its record (merge, decode) is a
/// refcount bump, not a heap copy. Equality, hashing and `Debug` are the
/// slice's.
///
/// `Some` is never empty, so equality tests the `Option` first and never
/// hands `memcmp` an empty list: its pointer is dangling, and a zero-length
/// `memcmp` of dangling pointers is ~50× slower than of live ones on AVX-512
/// x86 (DESIGN §10), which the compare-with-last path would pay per event.
#[derive(Clone, Default)]
pub struct ReqGids(Option<Arc<[u32]>>);

impl ReqGids {
    pub fn new(gids: &[u32]) -> Self {
        ReqGids((!gids.is_empty()).then(|| Arc::from(gids)))
    }

    /// `**self == *gids`, without a `memcmp` of two empty slices.
    #[inline]
    pub(crate) fn eq_slice(&self, gids: &[u32]) -> bool {
        match &self.0 {
            None => gids.is_empty(),
            Some(list) => **list == *gids,
        }
    }
}

impl Deref for ReqGids {
    type Target = [u32];

    #[inline]
    fn deref(&self) -> &[u32] {
        self.0.as_deref().unwrap_or(&[])
    }
}

impl PartialEq for ReqGids {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for ReqGids {}

impl Hash for ReqGids {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl std::fmt::Debug for ReqGids {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A rank-valued parameter field, possibly encoded relative to the owning
/// process's rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankEnc {
    /// Field not applicable.
    None,
    /// `MPI_ANY_SOURCE` wildcard.
    Any,
    /// Absolute rank (used for collective roots, which are typically the
    /// same constant on every process).
    Abs(i64),
    /// Relative to the owning rank: actual = rank + delta (used for
    /// point-to-point peers, which are typically `rank ± c` in stencils).
    Rel(i64),
}

impl RankEnc {
    fn encode_peer(v: i64, rank: i64) -> RankEnc {
        match v {
            NONE => RankEnc::None,
            ANY_SOURCE => RankEnc::Any,
            v => RankEnc::Rel(v - rank),
        }
    }

    fn encode_root(v: i64) -> RankEnc {
        match v {
            NONE => RankEnc::None,
            v => RankEnc::Abs(v),
        }
    }

    /// Decode back to an absolute rank value for process `rank` ([`NONE`]
    /// for inapplicable fields, [`ANY_SOURCE`] for wildcards).
    pub fn resolve(&self, rank: i64) -> i64 {
        match self {
            RankEnc::None => NONE,
            RankEnc::Any => ANY_SOURCE,
            RankEnc::Abs(v) => *v,
            RankEnc::Rel(d) => rank + d,
        }
    }
}

/// Rank-relative encoded communication parameters (the compared payload of a
/// merged record).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EncParams {
    pub op: MpiOp,
    pub dest: RankEnc,
    pub src: RankEnc,
    pub root: RankEnc,
    pub count: i64,
    pub rcount: i64,
    pub tag: i64,
    pub rtag: i64,
    pub comm: i64,
    /// Request GIDs for completion ops.
    pub req_gids: ReqGids,
}

impl EncParams {
    /// Encode raw parameters relative to `rank`.
    pub fn encode(rank: i64, op: MpiOp, p: &MpiParams) -> Self {
        Self::encode_with(rank, op, p, true)
    }

    /// Encode with an explicit choice of peer encoding: `relative = false`
    /// keeps absolute ranks (the ablation knob for §IV-B's relative-ranking
    /// method).
    pub fn encode_with(rank: i64, op: MpiOp, p: &MpiParams, relative: bool) -> Self {
        let peer = |v: i64| {
            if relative {
                RankEnc::encode_peer(v, rank)
            } else {
                match v {
                    NONE => RankEnc::None,
                    ANY_SOURCE => RankEnc::Any,
                    v => RankEnc::Abs(v),
                }
            }
        };
        EncParams {
            op,
            dest: peer(p.dest),
            src: peer(p.src),
            root: RankEnc::encode_root(p.root),
            count: p.count,
            rcount: p.rcount,
            tag: p.tag,
            rtag: p.rtag,
            comm: p.comm,
            req_gids: ReqGids::new(&p.req_gids),
        }
    }

    /// Allocation-free equality against raw parameters: would encoding
    /// `(op, p)` for `rank` produce exactly `self`? This is the hot path of
    /// the paper's compare-with-last-record merge — called once per event,
    /// so it must not clone `req_gids`.
    pub fn matches_raw(&self, rank: i64, op: MpiOp, p: &MpiParams, relative: bool) -> bool {
        let peer = |v: i64| {
            if relative {
                RankEnc::encode_peer(v, rank)
            } else {
                match v {
                    NONE => RankEnc::None,
                    ANY_SOURCE => RankEnc::Any,
                    v => RankEnc::Abs(v),
                }
            }
        };
        self.op == op
            && self.count == p.count
            && self.rcount == p.rcount
            && self.tag == p.tag
            && self.rtag == p.rtag
            && self.comm == p.comm
            && self.dest == peer(p.dest)
            && self.src == peer(p.src)
            && self.root == RankEnc::encode_root(p.root)
            && self.req_gids.eq_slice(&p.req_gids)
    }

    /// Decode back to absolute parameters for process `rank`.
    pub fn decode(&self, rank: i64) -> MpiParams {
        MpiParams {
            dest: self.dest.resolve(rank),
            src: self.src.resolve(rank),
            count: self.count,
            rcount: self.rcount,
            tag: self.tag,
            rtag: self.rtag,
            root: self.root.resolve(rank),
            comm: self.comm,
            req_gids: self.req_gids.to_vec(),
        }
    }
}

/// One merged communication record of a leaf vertex: `count` consecutive
/// occurrences with identical parameters, plus aggregated timing (operation
/// duration and preceding computation gap).
#[derive(Debug, Clone, PartialEq)]
pub struct LeafRecord {
    pub params: EncParams,
    pub count: u64,
    /// Aggregated operation durations.
    pub time: TimeStats,
    /// Aggregated computation gap since the previous traced operation (used
    /// by trace-driven replay as the sequential-computation input).
    pub gap: TimeStats,
}

impl LeafRecord {
    /// Records merge when their communication parameters (not timing) match.
    pub fn matches(&self, params: &EncParams) -> bool {
        self.params == *params
    }

    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.params.req_gids.len() * 4
            + self.time.approx_bytes()
            + self.gap.approx_bytes()
    }
}

/// Per-vertex runtime data (the "linked list" of paper Fig. 10/13).
#[derive(Debug, Clone, PartialEq)]
pub enum VertexData {
    Root,
    /// Per-visit iteration counts.
    Loop {
        counts: IntSeq,
    },
    /// Parent-visit indices at which this arm was taken.
    Branch {
        taken: IntSeq,
    },
    /// Merged communication records, in first-occurrence order.
    Leaf {
        records: Vec<LeafRecord>,
    },
}

impl VertexData {
    pub fn approx_bytes(&self) -> usize {
        match self {
            VertexData::Root => 0,
            VertexData::Loop { counts } => counts.approx_bytes(),
            VertexData::Branch { taken } => taken.approx_bytes(),
            VertexData::Leaf { records } => {
                records.iter().map(|r| r.approx_bytes()).sum::<usize>() + 24
            }
        }
    }
}

/// One process's compressed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Ctt {
    pub rank: u32,
    pub nprocs: u32,
    /// Total virtual application time (ns).
    pub app_time: u64,
    /// Indexed by CST GID.
    pub data: Vec<VertexData>,
}

impl Ctt {
    /// Approximate live memory footprint (Fig. 16's memory-overhead metric).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .data
                .iter()
                .map(|d| d.approx_bytes() + std::mem::size_of::<VertexData>())
                .sum::<usize>()
    }

    /// Total merged record count across leaves (the paper's `n`, the length
    /// of the compressed per-process trace).
    pub fn record_count(&self) -> usize {
        self.data
            .iter()
            .map(|d| match d {
                VertexData::Leaf { records } => records.len(),
                _ => 0,
            })
            .sum()
    }

    /// Total uncompressed MPI operation count represented.
    pub fn op_count(&self) -> u64 {
        self.data
            .iter()
            .map(|d| match d {
                VertexData::Leaf { records } => records.iter().map(|r| r.count).sum(),
                _ => 0,
            })
            .sum()
    }
}

const TAG_NONE: u8 = 0;
const TAG_ANY: u8 = 1;
const TAG_ABS: u8 = 2;
const TAG_REL: u8 = 3;

impl RankEnc {
    /// The wire form: a tag, then the rank for `Abs` and `Rel`.
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RankEnc::None => enc.put_u8(TAG_NONE),
            RankEnc::Any => enc.put_u8(TAG_ANY),
            RankEnc::Abs(v) => {
                enc.put_u8(TAG_ABS);
                enc.put_ivar(*v);
            }
            RankEnc::Rel(d) => {
                enc.put_u8(TAG_REL);
                enc.put_ivar(*d);
            }
        }
    }

    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(match cur.u8()? {
            TAG_NONE => RankEnc::None,
            TAG_ANY => RankEnc::Any,
            TAG_ABS => RankEnc::Abs(cur.ivar()?),
            TAG_REL => RankEnc::Rel(cur.ivar()?),
            t => return cur.refuse(t as u64, |t| format!("bad RankEnc tag {t}")),
        })
    }
}

impl ReqGids {
    /// The count-prefixed GID list, checked in full before its one
    /// allocation, which is sized from the count: none for an empty list.
    fn read(cur: &mut Cursor<'_>) -> Option<Self> {
        let n = cur.count("req_gids")?;
        if n == 0 {
            return Some(ReqGids(None));
        }
        let gids = cur.rest();
        for _ in 0..n {
            cur.u32("request gid")?;
        }
        // Bytes just checked read again without fail, straight into an
        // `Arc` of the exact length: a `Vec` first would be a second
        // allocation per completion record.
        let mut again = Cursor::new(gids);
        let list = (0..n).map(|_| again.uvar().unwrap_or_default() as u32);
        Some(ReqGids(Some(list.collect())))
    }
}

impl Codec for EncParams {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.op.code());
        self.dest.encode(enc);
        self.src.encode(enc);
        self.root.encode(enc);
        enc.put_ivar(self.count);
        enc.put_ivar(self.rcount);
        enc.put_ivar(self.tag);
        enc.put_ivar(self.rtag);
        enc.put_ivar(self.comm);
        enc.put_seq(self.req_gids.iter(), |enc, &g| enc.put_uvar(g as u64));
    }

    #[inline]
    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let code = cur.u8()?;
        let Some(op) = MpiOp::from_code(code) else {
            return cur.refuse(code as u64, |code| format!("bad op code {code}"));
        };
        Some(EncParams {
            op,
            dest: RankEnc::read(cur)?,
            src: RankEnc::read(cur)?,
            root: RankEnc::read(cur)?,
            count: cur.ivar()?,
            rcount: cur.ivar()?,
            tag: cur.ivar()?,
            rtag: cur.ivar()?,
            comm: cur.ivar()?,
            req_gids: ReqGids::read(cur)?,
        })
    }
}

impl LeafRecord {
    /// [`LeafRecord::decode`], and the length of the record's head: the
    /// bytes [`LeafRecord::encode_head`] writes, which lead its encoding.
    #[inline]
    pub(crate) fn read_with_head(cur: &mut Cursor<'_>) -> Option<(Self, usize)> {
        let before = cur.remaining();
        let params = <EncParams as Codec>::decode(cur)?;
        let count = cur.uvar()?;
        let head = before - cur.remaining();
        let rec = LeafRecord {
            params,
            count,
            time: TimeStats::decode(cur)?,
            gap: TimeStats::decode(cur)?,
        };
        Some((rec, head))
    }

    /// The bytes [`record_mergeable`](crate::merge::record_mergeable)
    /// compares: the encoded parameters and repeat count, which lead the
    /// record's encoding.
    pub(crate) fn encode_head(&self, enc: &mut Encoder) {
        self.params.encode(enc);
        enc.put_uvar(self.count);
    }
}

impl Codec for LeafRecord {
    fn encode(&self, enc: &mut Encoder) {
        self.encode_head(enc);
        self.time.encode(enc);
        self.gap.encode(enc);
    }

    /// One record in one checked pass: every field through the cursor, a
    /// failure named once by whoever holds the cursor.
    #[inline]
    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(Self::read_with_head(cur)?.0)
    }
}

pub(crate) const VD_ROOT: u8 = 0;
pub(crate) const VD_LOOP: u8 = 1;
pub(crate) const VD_BRANCH: u8 = 2;
pub(crate) const VD_LEAF: u8 = 3;

/// Refuse vertex-data tag `t`.
pub(crate) fn bad_vertex_tag<T>(cur: &mut Cursor<'_>, t: u8) -> Option<T> {
    cur.refuse(t as u64, |t| format!("bad VertexData tag {t}"))
}

impl VertexData {
    /// This vertex's data as the borrowed view every reader takes.
    pub fn view(&self) -> VertexRef<'_> {
        match self {
            VertexData::Root => VertexRef::Root,
            VertexData::Loop { counts } => VertexRef::Loop(counts.view()),
            VertexData::Branch { taken } => VertexRef::Branch(taken.view()),
            VertexData::Leaf { records } => VertexRef::Leaf(records),
        }
    }

    /// The wire form: a tag, then the sequence or the records.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        match self {
            VertexData::Root => enc.put_u8(VD_ROOT),
            VertexData::Loop { counts } => {
                enc.put_u8(VD_LOOP);
                counts.encode(enc);
            }
            VertexData::Branch { taken } => {
                enc.put_u8(VD_BRANCH);
                taken.encode(enc);
            }
            VertexData::Leaf { records } => {
                enc.put_u8(VD_LEAF);
                enc.put_seq(records, |enc, r| r.encode(enc));
            }
        }
    }
}

impl Ctt {
    /// The `RankCtt` section payload and `RankCtt` frame body. The one
    /// decoder of these bytes is [`CttSlab::from_bytes`](crate::CttSlab::from_bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_uvar(self.rank as u64);
        enc.put_uvar(self.nprocs as u64);
        enc.put_uvar(self.app_time);
        enc.put_seq(&self.data, |enc, d| d.encode(enc));
        enc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visit::CttSource;

    #[test]
    fn relative_encoding_makes_stencil_params_rank_invariant() {
        let p0 = MpiParams::send(1, 64, 0); // rank 0 sends to 1
        let p5 = MpiParams::send(6, 64, 0); // rank 5 sends to 6
        let e0 = EncParams::encode(0, MpiOp::Send, &p0);
        let e5 = EncParams::encode(5, MpiOp::Send, &p5);
        assert_eq!(e0, e5);
        assert_eq!(e0.dest, RankEnc::Rel(1));
    }

    #[test]
    fn root_encoding_stays_absolute() {
        let p = MpiParams::rooted(0, 8);
        let e3 = EncParams::encode(3, MpiOp::Bcast, &p);
        let e9 = EncParams::encode(9, MpiOp::Bcast, &p);
        assert_eq!(e3, e9);
        assert_eq!(e3.root, RankEnc::Abs(0));
    }

    #[test]
    fn encode_decode_inverse_for_every_field() {
        let p = MpiParams::sendrecv(7, 100, 1, 3, 200, 2);
        let e = EncParams::encode(5, MpiOp::Sendrecv, &p);
        assert_eq!(e.decode(5), p);
    }

    #[test]
    fn wildcard_source_round_trips() {
        let p = MpiParams::recv(ANY_SOURCE, 8, 0);
        let e = EncParams::encode(2, MpiOp::Irecv, &p);
        assert_eq!(e.src, RankEnc::Any);
        assert_eq!(e.decode(2).src, ANY_SOURCE);
    }

    #[test]
    fn req_gid_interning_preserves_async_semantics() {
        // Completion records carry request GIDs; moving them behind a
        // refcounted slice must not change encode/compare/decode semantics.
        let p = MpiParams::completion(vec![4, 7]);
        let e = EncParams::encode(3, MpiOp::Waitall, &p);
        assert_eq!(e.req_gids[..], [4, 7]);
        assert!(e.matches_raw(3, MpiOp::Waitall, &p, true));
        assert_eq!(e.decode(3).req_gids, vec![4, 7]);
        // A different GID list no longer matches.
        let other = MpiParams::completion(vec![4, 8]);
        assert!(!e.matches_raw(3, MpiOp::Waitall, &other, true));
        // Cloning is a refcount bump, not a copy…
        let c = e.clone();
        let (eg, cg) = (e.req_gids.0.as_ref(), c.req_gids.0.as_ref());
        assert!(Arc::ptr_eq(eg.unwrap(), cg.unwrap()));
        assert_eq!(Arc::strong_count(eg.unwrap()), 2);
        // …and the (dominant) empty case holds no allocation, so cloning it
        // touches no refcount shared with any other record.
        let a = EncParams::encode(0, MpiOp::Send, &MpiParams::send(1, 8, 0));
        assert!(a.req_gids.0.is_none() && a.clone().req_gids.0.is_none());
        assert!(ReqGids::new(&[]).0.is_none());
        // Equality and hashing are the slice's, empty or not, so merge
        // grouping sees what it saw when the field was an `Arc<[u32]>`.
        fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        for gids in [&[][..], &[4, 7], &[4, 8], &[4]] {
            let r = ReqGids::new(gids);
            assert_eq!(hash_of(&r), hash_of(gids));
            assert_eq!(format!("{r:?}"), format!("{gids:?}"));
            for other in [&[][..], &[4, 7], &[4, 8], &[4]] {
                assert_eq!(r == ReqGids::new(other), gids == other);
                assert_eq!(r.eq_slice(other), gids == other);
            }
        }
        assert!(std::mem::size_of::<EncParams>() <= 112);
        // Every rank CTT, slab record pool and merged group is made of these:
        // 8-byte-aligned `TimeStats` keep a record at 232 bytes (256 with
        // `u128` fields), and an inline one-rank set keeps a group at 264.
        assert_eq!(std::mem::size_of::<LeafRecord>(), 232);
        assert!(std::mem::size_of::<(crate::merge::RankSet, LeafRecord)>() <= 264);
        // Codec round trip preserves the list.
        let back = EncParams::from_bytes(&e.to_bytes()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn req_gids_count_is_held_to_the_bytes_left_before_anything_is_reserved() {
        let e = EncParams::encode(3, MpiOp::Waitall, &MpiParams::completion(vec![]));
        let mut bytes = e.to_bytes();
        // The trailing byte is the empty list's count; claim a million.
        assert_eq!(bytes.pop(), Some(0));
        let mut enc = Encoder::new();
        enc.put_uvar(1_000_000);
        bytes.extend(enc.finish());
        let err = EncParams::from_bytes(&bytes).unwrap_err();
        assert!(
            err.0
                .contains("req_gids claims 1000000 entries but only 0 bytes remain"),
            "{err}"
        );
    }

    #[test]
    fn ctt_bytes_decode_to_the_vertices_written() {
        let mut time = TimeStats::new();
        time.add(120);
        time.add(130);
        let ctt = Ctt {
            rank: 3,
            nprocs: 8,
            app_time: 999,
            data: vec![
                VertexData::Root,
                VertexData::Loop {
                    counts: IntSeq::from_slice(&[10]),
                },
                VertexData::Branch {
                    taken: IntSeq::from_slice(&[0, 2, 4]),
                },
                VertexData::Leaf {
                    records: vec![LeafRecord {
                        params: EncParams::encode(3, MpiOp::Send, &MpiParams::send(4, 64, 0)),
                        count: 5,
                        time,
                        gap: TimeStats::new(),
                    }],
                },
            ],
        };
        // Timing moments are exact on the wire, so every field comes back:
        // the one decoder yields the header and every vertex as written.
        let back = crate::CttSlab::from_bytes(&ctt.to_bytes()).unwrap();
        assert_eq!(
            (back.rank, back.nprocs, back.app_time),
            (ctt.rank, ctt.nprocs, ctt.app_time)
        );
        assert_eq!(back.vertex_count(), ctt.data.len());
        for (gid, data) in ctt.data.iter().enumerate() {
            assert_eq!(back.vertex(gid), data.view(), "vertex {gid}");
        }
        assert_eq!(back.record_count(), ctt.record_count());
        assert_eq!(back.op_count(), ctt.op_count());
    }

    #[test]
    fn record_and_op_counts() {
        let ctt = Ctt {
            rank: 0,
            nprocs: 1,
            app_time: 0,
            data: vec![
                VertexData::Root,
                VertexData::Leaf {
                    records: vec![
                        LeafRecord {
                            params: EncParams::encode(0, MpiOp::Barrier, &MpiParams::collective(0)),
                            count: 7,
                            time: TimeStats::new(),
                            gap: TimeStats::new(),
                        },
                        LeafRecord {
                            params: EncParams::encode(0, MpiOp::Bcast, &MpiParams::rooted(0, 4)),
                            count: 3,
                            time: TimeStats::new(),
                            gap: TimeStats::new(),
                        },
                    ],
                },
            ],
        };
        assert_eq!(ctt.record_count(), 2);
        assert_eq!(ctt.op_count(), 10);
        assert!(ctt.approx_bytes() > 0);
    }
}
