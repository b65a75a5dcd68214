//! ScalaTrace-2-style *elastic* trace compression (Wu & Mueller, ICS'13
//! \[18\]).
//!
//! ScalaTrace-2 improves on ScalaTrace for applications with inconsistent
//! behaviour across time steps and ranks by relaxing event equality: events
//! with the same operation and parameter *shape* merge even when parameter
//! values differ, the values being kept as compressed per-field sequences
//! ("elastic" data elements), and the inter-node phase is loop-agnostic.
//! The price is partial information loss — exact interleaving across
//! different call sites is not recoverable (the paper: "the probabilistic
//! method used in ScalaTrace-2 only preserves partial communication
//! information") — and a still-expensive alignment-based inter-process
//! merge.
//!
//! This module implements that design point: windowed elastic folding
//! intra-process, LCS alignment with rank groups inter-process.

use cypress_core::intseq::IntSeq;
use cypress_core::merge::RankSet;
use cypress_trace::codec::{Codec, Cursor, Encoder};
use cypress_trace::event::{MpiOp, MpiRecord, ANY_SOURCE, NONE};
use cypress_trace::raw::RawTrace;

/// Which parameter fields an event carries — the elastic merge key together
/// with the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamShape {
    pub has_dest: bool,
    pub has_src: bool,
    pub src_wild: bool,
    pub has_root: bool,
    pub n_reqs: u8,
}

impl ParamShape {
    fn of(rec: &MpiRecord) -> ParamShape {
        ParamShape {
            has_dest: rec.params.dest != NONE,
            has_src: rec.params.src != NONE && rec.params.src != ANY_SOURCE,
            src_wild: rec.params.src == ANY_SOURCE,
            has_root: rec.params.root != NONE,
            n_reqs: rec.params.req_gids.len().min(255) as u8,
        }
    }
}

/// An elastic element: one (op, shape) bucket with per-occurrence value
/// sequences, stride-compressed.
#[derive(Debug, Clone, PartialEq)]
pub struct Elem2 {
    pub op: MpiOp,
    pub shape: ParamShape,
    pub count: u64,
    /// dest/src deltas relative to the owning rank; roots absolute.
    pub dest: IntSeq,
    pub src: IntSeq,
    pub root: IntSeq,
    pub bytes: IntSeq,
    pub rbytes: IntSeq,
    pub tag: IntSeq,
    pub rtag: IntSeq,
}

impl Elem2 {
    fn new(op: MpiOp, shape: ParamShape) -> Self {
        Elem2 {
            op,
            shape,
            count: 0,
            dest: IntSeq::new(),
            src: IntSeq::new(),
            root: IntSeq::new(),
            bytes: IntSeq::new(),
            rbytes: IntSeq::new(),
            tag: IntSeq::new(),
            rtag: IntSeq::new(),
        }
    }

    fn absorb(&mut self, rank: i64, rec: &MpiRecord) {
        self.count += 1;
        if self.shape.has_dest {
            self.dest.push(rec.params.dest - rank);
        }
        if self.shape.has_src {
            self.src.push(rec.params.src - rank);
        }
        if self.shape.has_root {
            self.root.push(rec.params.root);
        }
        self.bytes.push(rec.params.count);
        self.rbytes.push(rec.params.rcount);
        self.tag.push(rec.params.tag);
        self.rtag.push(rec.params.rtag);
    }

    /// Value-level equality (used for inter-process rank grouping).
    pub fn same_values(&self, other: &Elem2) -> bool {
        self == other
    }

    fn key(&self) -> (MpiOp, ParamShape) {
        (self.op, self.shape)
    }
}

/// How many trailing elements are scanned for an elastic match.
const WINDOW: usize = 8;

/// One process's ScalaTrace-2 compressed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Scala2Trace {
    pub rank: u32,
    pub elems: Vec<Elem2>,
}

impl Scala2Trace {
    pub fn compress(trace: &RawTrace) -> Scala2Trace {
        Self::compress_counted(trace).0
    }

    /// [`compress`](Self::compress), with the comparisons its elastic window
    /// scan ran: each trailing element tried against an event's key.
    pub fn compress_counted(trace: &RawTrace) -> (Scala2Trace, u64) {
        let rank = trace.rank as i64;
        let mut elems: Vec<Elem2> = Vec::new();
        let mut comparisons = 0u64;
        for rec in trace.mpi_records() {
            let shape = ParamShape::of(rec);
            let key = (rec.op, shape);
            let n = elems.len();
            let lo = n.saturating_sub(WINDOW);
            // From the newest element back: a hit at `i` tried the
            // `n - lo - i` elements from it to the end.
            let hit = elems[lo..n].iter().rposition(|e| e.key() == key);
            comparisons += (n - lo - hit.unwrap_or(0)) as u64;
            if let Some(i) = hit {
                elems[lo + i].absorb(rank, rec);
            } else {
                let mut e = Elem2::new(rec.op, shape);
                e.absorb(rank, rec);
                elems.push(e);
            }
        }
        let trace = Scala2Trace {
            rank: trace.rank,
            elems,
        };
        (trace, comparisons)
    }

    pub fn len(&self) -> usize {
        self.elems.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Total operations represented.
    pub fn op_count(&self) -> u64 {
        self.elems.iter().map(|e| e.count).sum()
    }
}

impl Codec for Elem2 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(self.op.code());
        enc.put_u8(u8::from(self.shape.has_dest));
        enc.put_u8(u8::from(self.shape.has_src));
        enc.put_u8(u8::from(self.shape.src_wild));
        enc.put_u8(u8::from(self.shape.has_root));
        enc.put_u8(self.shape.n_reqs);
        enc.put_uvar(self.count);
        self.dest.encode(enc);
        self.src.encode(enc);
        self.root.encode(enc);
        self.bytes.encode(enc);
        self.rbytes.encode(enc);
        self.tag.encode(enc);
        self.rtag.encode(enc);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let code = cur.u8()?;
        let Some(op) = MpiOp::from_code(code) else {
            return cur.refuse(code as u64, |c| format!("bad op code {c}"));
        };
        let shape = ParamShape {
            has_dest: cur.u8()? != 0,
            has_src: cur.u8()? != 0,
            src_wild: cur.u8()? != 0,
            has_root: cur.u8()? != 0,
            n_reqs: cur.u8()?,
        };
        Some(Elem2 {
            op,
            shape,
            count: cur.uvar()?,
            dest: IntSeq::decode(cur)?,
            src: IntSeq::decode(cur)?,
            root: IntSeq::decode(cur)?,
            bytes: IntSeq::decode(cur)?,
            rbytes: IntSeq::decode(cur)?,
            tag: IntSeq::decode(cur)?,
            rtag: IntSeq::decode(cur)?,
        })
    }
}

impl Codec for Scala2Trace {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.rank as u64);
        enc.put_seq(&self.elems, |enc, e| e.encode(enc));
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(Scala2Trace {
            rank: cur.u32("Scala2Trace rank")?,
            elems: cur.seq("Scala2Trace elements", Elem2::decode)?,
        })
    }
}

/// Inter-process merged element: groups of ranks with identical elastic
/// data under one (op, shape) slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Merged2Elem {
    pub groups: Vec<(RankSet, Elem2)>,
}

impl Merged2Elem {
    fn key(&self) -> (MpiOp, ParamShape) {
        let e = &self.groups[0].1;
        (e.op, e.shape)
    }
}

/// A whole-job ScalaTrace-2 merged trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scala2Merged {
    pub elems: Vec<Merged2Elem>,
}

impl Scala2Merged {
    pub fn from_trace(t: &Scala2Trace) -> Scala2Merged {
        Scala2Merged {
            elems: t
                .elems
                .iter()
                .map(|e| Merged2Elem {
                    groups: vec![(RankSet::singleton(t.rank), e.clone())],
                })
                .collect(),
        }
    }

    /// LCS alignment on (op, shape) keys — loop-agnostic: counts and values
    /// may differ across ranks, rank groups absorb the differences.
    pub fn merge(a: &Scala2Merged, b: &Scala2Merged) -> Scala2Merged {
        let n = a.elems.len();
        let m = b.elems.len();
        let mut dp = vec![0u32; (n + 1) * (m + 1)];
        let idx = |i: usize, j: usize| i * (m + 1) + j;
        for i in (0..n).rev() {
            for j in (0..m).rev() {
                dp[idx(i, j)] = if a.elems[i].key() == b.elems[j].key() {
                    dp[idx(i + 1, j + 1)] + 1
                } else {
                    dp[idx(i + 1, j)].max(dp[idx(i, j + 1)])
                };
            }
        }
        let mut out = Vec::with_capacity(n.max(m));
        let (mut i, mut j) = (0, 0);
        while i < n && j < m {
            if a.elems[i].key() == b.elems[j].key() {
                let mut groups = a.elems[i].groups.clone();
                for (ranks, data) in &b.elems[j].groups {
                    match groups.iter_mut().find(|(_, d)| d.same_values(data)) {
                        Some((rs, _)) => rs.extend(ranks),
                        None => groups.push((ranks.clone(), data.clone())),
                    }
                }
                out.push(Merged2Elem { groups });
                i += 1;
                j += 1;
            } else if dp[idx(i + 1, j)] >= dp[idx(i, j + 1)] {
                out.push(a.elems[i].clone());
                i += 1;
            } else {
                out.push(b.elems[j].clone());
                j += 1;
            }
        }
        out.extend(a.elems[i..].iter().cloned());
        out.extend(b.elems[j..].iter().cloned());
        Scala2Merged { elems: out }
    }

    pub fn merge_all(traces: &[Scala2Trace]) -> Scala2Merged {
        assert!(!traces.is_empty());
        let mut layer: Vec<Scala2Merged> = traces.iter().map(Self::from_trace).collect();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(Self::merge(&pair[0], &pair[1]));
                } else {
                    next.push(pair[0].clone());
                }
            }
            layer = next;
        }
        layer.pop().expect("non-empty input")
    }

    pub fn len(&self) -> usize {
        self.elems.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }
}

impl Codec for Scala2Merged {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_seq(&self.elems, |enc, e| {
            enc.put_seq(&e.groups, |enc, (rs, d)| {
                rs.encode(enc);
                d.encode(enc);
            });
        });
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let elems = cur.seq("Scala2Merged elements", |cur| {
            let groups = cur.seq("Scala2Merged groups", |cur| {
                Some((RankSet::decode(cur)?, Elem2::decode(cur)?))
            })?;
            Some(Merged2Elem { groups })
        })?;
        Some(Scala2Merged { elems })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cypress_trace::event::MpiParams;

    fn rec(op: MpiOp, params: MpiParams) -> MpiRecord {
        MpiRecord {
            gid: 0,
            op,
            params,
            t_start: 0,
            dur: 1,
        }
    }

    fn trace_of(rank: u32, recs: Vec<MpiRecord>) -> RawTrace {
        RawTrace {
            rank,
            nprocs: 8,
            events: recs
                .into_iter()
                .map(cypress_trace::event::Event::Mpi)
                .collect(),
            app_time: 0,
        }
    }

    #[test]
    fn varied_sizes_fold_elastically() {
        // The pattern that defeats ScalaTrace: size changes every iteration.
        let recs: Vec<MpiRecord> = (0..64i64)
            .map(|i| rec(MpiOp::Send, MpiParams::send(1, 8 + i, 0)))
            .collect();
        let t = Scala2Trace::compress(&trace_of(0, recs));
        assert_eq!(t.len(), 1, "elastic folding absorbs varied sizes");
        assert_eq!(t.op_count(), 64);
        // The size sequence is an AP: one stride segment.
        assert_eq!(t.elems[0].bytes.seg_count(), 1);
    }

    #[test]
    fn different_ops_stay_separate() {
        let mut recs = Vec::new();
        for _ in 0..10 {
            recs.push(rec(MpiOp::Send, MpiParams::send(1, 8, 0)));
            recs.push(rec(MpiOp::Recv, MpiParams::recv(1, 8, 0)));
        }
        let t = Scala2Trace::compress(&trace_of(0, recs));
        assert_eq!(t.len(), 2);
        assert_eq!(t.op_count(), 20);
    }

    #[test]
    fn interleaving_is_lossy_but_counts_preserved() {
        // A B A B with the same op folds into one element: the order across
        // occurrences is gone (the documented ScalaTrace-2 tradeoff), but
        // counts and value multisets survive.
        let mut recs = Vec::new();
        for _ in 0..8 {
            recs.push(rec(MpiOp::Bcast, MpiParams::rooted(0, 64)));
            recs.push(rec(MpiOp::Bcast, MpiParams::rooted(0, 128)));
        }
        let t = Scala2Trace::compress(&trace_of(0, recs));
        assert_eq!(t.len(), 1);
        assert_eq!(t.op_count(), 16);
        let sizes = t.elems[0].bytes.to_vec();
        assert_eq!(sizes.iter().filter(|&&s| s == 64).count(), 8);
        assert_eq!(sizes.iter().filter(|&&s| s == 128).count(), 8);
    }

    #[test]
    fn codec_round_trip() {
        let recs: Vec<MpiRecord> = (0..20i64)
            .map(|i| rec(MpiOp::Send, MpiParams::send(1, 8 * i, i % 3)))
            .collect();
        let t = Scala2Trace::compress(&trace_of(2, recs));
        let back = Scala2Trace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn identical_ranks_merge_to_single_group() {
        let make = |rank: u32| {
            let recs: Vec<MpiRecord> = (0..16)
                .map(|_| rec(MpiOp::Allreduce, MpiParams::collective(64)))
                .collect();
            Scala2Trace::compress(&trace_of(rank, recs))
        };
        let traces: Vec<Scala2Trace> = (0..8).map(make).collect();
        let merged = Scala2Merged::merge_all(&traces);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.elems[0].groups.len(), 1);
        assert_eq!(merged.elems[0].groups[0].0.len(), 8);
    }

    #[test]
    fn rank_dependent_values_split_groups_but_share_slots() {
        // Every rank sends a different byte count: one slot, many groups —
        // still smaller than unmerged traces.
        let make = |rank: u32| {
            let recs = vec![rec(
                MpiOp::Send,
                MpiParams::send(1 + rank as i64 % 7, 1000 + rank as i64, 0),
            )];
            Scala2Trace::compress(&trace_of(rank, recs))
        };
        let traces: Vec<Scala2Trace> = (0..6).map(make).collect();
        let merged = Scala2Merged::merge_all(&traces);
        assert_eq!(merged.len(), 1);
        assert!(merged.elems[0].groups.len() > 1);
        let total: u64 = merged.elems[0].groups.iter().map(|(rs, _)| rs.len()).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn merged_codec_round_trip() {
        let make = |rank: u32| {
            let recs: Vec<MpiRecord> = (0..4)
                .map(|i| rec(MpiOp::Bcast, MpiParams::rooted(0, 64 << i)))
                .collect();
            Scala2Trace::compress(&trace_of(rank, recs))
        };
        let traces: Vec<Scala2Trace> = (0..4).map(make).collect();
        let merged = Scala2Merged::merge_all(&traces);
        let back = Scala2Merged::from_bytes(&merged.to_bytes()).unwrap();
        assert_eq!(back, merged);
    }

    /// A rank of 2³² + 3 is refused by name, never read as rank 3.
    #[test]
    fn a_rank_past_32_bits_is_refused_not_truncated() {
        let mut enc = Encoder::new();
        enc.put_uvar((1 << 32) + 3);
        enc.put_uvar(0);
        let err = Scala2Trace::from_bytes(enc.as_bytes()).unwrap_err();
        assert_eq!(err.0, "Scala2Trace rank 4294967299 does not fit in 32 bits");
    }
}
