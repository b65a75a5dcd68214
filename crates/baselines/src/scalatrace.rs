//! ScalaTrace-style dynamic trace compression (Noeth et al., IPDPS'07 \[14\]).
//!
//! The state-of-the-art *dynamic-only* baseline the paper compares against.
//! Intra-process: a greedy online algorithm maintains a compressed element
//! list and, for each incoming event, searches the tail for a repeating
//! sequence to fold into an RSD (regular section descriptor); nested folds
//! produce power-RSDs. This is a bottom-up pattern search: unlike CYPRESS it
//! has no structural information, so every event pays a tail-window scan —
//! the intra-process overhead gap of Fig. 16.
//!
//! Inter-process: per-process element lists are merged pairwise by sequence
//! alignment (LCS dynamic programming) — the O(n²) per-pair cost of §IV-B
//! that dominates Fig. 18.
//!
//! Like the original, process ranks are encoded relative to the owner
//! (CYPRESS adopts that method *from* ScalaTrace), so SPMD-symmetric events
//! align across ranks.

use cypress_core::ctt::EncParams;
use cypress_core::merge::RankSet;
use cypress_trace::codec::{Codec, DecodeError, DecodeResult, Decoder, Encoder};
#[cfg(test)]
use cypress_trace::event::MpiOp;
use cypress_trace::event::MpiRecord;
use cypress_trace::raw::RawTrace;

/// One event key: operation + relative-encoded parameters (time excluded).
pub type EventKey = EncParams;

/// A compressed element: a run of identical events, or a repeating sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Elem {
    /// `count` consecutive occurrences of the same event.
    Ev { key: EventKey, count: u64 },
    /// A repeating sequence descriptor: `body` repeated `count` times.
    Rsd { body: Vec<Elem>, count: u64 },
}

impl Elem {
    /// Number of raw events this element expands to.
    pub fn expanded_len(&self) -> u64 {
        match self {
            Elem::Ev { count, .. } => *count,
            Elem::Rsd { body, count } => body.iter().map(|e| e.expanded_len()).sum::<u64>() * count,
        }
    }

    fn approx_bytes(&self) -> usize {
        match self {
            Elem::Ev { key, .. } => 48 + key.req_gids.len() * 4,
            Elem::Rsd { body, .. } => 16 + body.iter().map(|e| e.approx_bytes()).sum::<usize>(),
        }
    }
}

/// Maximum tail length (in elements) considered when searching for a
/// repeat — ScalaTrace's match window.
const MAX_WINDOW: usize = 32;

/// Online intra-process compressor.
pub struct ScalaCompressor {
    rank: i64,
    elems: Vec<Elem>,
    /// Total events consumed (for accounting).
    pub events_in: u64,
    /// Window comparisons run: the run-length test against the previous
    /// event, and every tail length each fold tries.
    pub comparisons: u64,
}

impl ScalaCompressor {
    pub fn new(rank: u32) -> Self {
        ScalaCompressor {
            rank: rank as i64,
            elems: Vec::new(),
            events_in: 0,
            comparisons: 0,
        }
    }

    /// Feed one MPI record.
    pub fn push(&mut self, rec: &MpiRecord) {
        self.events_in += 1;
        let key = EncParams::encode(self.rank, rec.op, &rec.params);
        // 1. Run-length with the immediately preceding event.
        if let Some(Elem::Ev { key: k, count }) = self.elems.last_mut() {
            self.comparisons += 1;
            if *k == key {
                *count += 1;
                self.try_fold();
                return;
            }
        }
        // 2. Extending a trailing RSD whose body restarts with this event is
        //    handled by the generic fold after pushing.
        self.elems.push(Elem::Ev { key, count: 1 });
        self.try_fold();
    }

    /// Greedy tail folding: if the list ends with two identical runs of
    /// length k (k ≤ window), fold them into an RSD; if it ends with
    /// `Rsd{X, c}` followed by X itself, increment c.
    fn try_fold(&mut self) {
        loop {
            let n = self.elems.len();
            let mut folded = false;
            // Try RSD increment: Rsd{X,c} ++ X.
            'k: for k in 1..=MAX_WINDOW.min(n.saturating_sub(1)) {
                if n < k + 1 {
                    break;
                }
                self.comparisons += 1;
                let tail = &self.elems[n - k..];
                if let Elem::Rsd { body, .. } = &self.elems[n - k - 1] {
                    if body.len() == k && body.as_slice() == tail {
                        self.elems.truncate(n - k);
                        let Some(Elem::Rsd { count, .. }) = self.elems.last_mut() else {
                            unreachable!("checked above");
                        };
                        *count += 1;
                        folded = true;
                        break 'k;
                    }
                }
            }
            if !folded {
                // Try fresh fold: X ++ X.
                'k2: for k in 1..=MAX_WINDOW.min(n / 2) {
                    self.comparisons += 1;
                    let (a, b) = (&self.elems[n - 2 * k..n - k], &self.elems[n - k..]);
                    if a == b {
                        let body: Vec<Elem> = self.elems[n - k..].to_vec();
                        self.elems.truncate(n - 2 * k);
                        self.elems.push(Elem::Rsd { body, count: 2 });
                        folded = true;
                        break 'k2;
                    }
                }
            }
            if !folded {
                return;
            }
            // A fold may enable another fold at the new tail; loop.
        }
    }

    pub fn finish(self) -> ScalaTrace {
        ScalaTrace {
            rank: self.rank as u32,
            elems: self.elems,
        }
    }

    /// Live memory estimate.
    pub fn approx_bytes(&self) -> usize {
        self.elems.iter().map(|e| e.approx_bytes()).sum::<usize>() + 24
    }
}

/// One process's ScalaTrace-compressed trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalaTrace {
    pub rank: u32,
    pub elems: Vec<Elem>,
}

impl ScalaTrace {
    /// Compress a raw trace (MPI events only — a dynamic tool sees no
    /// structure markers).
    pub fn compress(trace: &RawTrace) -> ScalaTrace {
        let mut c = ScalaCompressor::new(trace.rank);
        for r in trace.mpi_records() {
            c.push(r);
        }
        c.finish()
    }

    /// Number of top-level compressed elements (the paper's `n`).
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// Expand back to the full event-key sequence (losslessness check).
    pub fn expand(&self) -> Vec<EventKey> {
        fn rec(elems: &[Elem], out: &mut Vec<EventKey>) {
            for e in elems {
                match e {
                    Elem::Ev { key, count } => {
                        for _ in 0..*count {
                            out.push(key.clone());
                        }
                    }
                    Elem::Rsd { body, count } => {
                        for _ in 0..*count {
                            rec(body, out);
                        }
                    }
                }
            }
        }
        let mut out = Vec::new();
        rec(&self.elems, &mut out);
        out
    }
}

const EL_EV: u8 = 0;
const EL_RSD: u8 = 1;

impl Codec for Elem {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Elem::Ev { key, count } => {
                enc.put_u8(EL_EV);
                key.encode(enc);
                enc.put_uvar(*count);
            }
            Elem::Rsd { body, count } => {
                enc.put_u8(EL_RSD);
                enc.put_uvar(body.len() as u64);
                for e in body {
                    e.encode(enc);
                }
                enc.put_uvar(*count);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        match dec.get_u8()? {
            EL_EV => {
                let key = <EncParams as Codec>::decode(dec)?;
                let count = dec.get_uvar()?;
                Ok(Elem::Ev { key, count })
            }
            EL_RSD => {
                let n = dec.get_uvar()? as usize;
                if n > 1 << 22 {
                    return Err(DecodeError(format!("absurd RSD body length {n}")));
                }
                let mut body = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    body.push(Elem::decode(dec)?);
                }
                let count = dec.get_uvar()?;
                Ok(Elem::Rsd { body, count })
            }
            t => Err(DecodeError(format!("bad Elem tag {t}"))),
        }
    }
}

impl Codec for ScalaTrace {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.rank as u64);
        enc.put_uvar(self.elems.len() as u64);
        for e in &self.elems {
            e.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        let rank = dec.get_uvar()? as u32;
        let n = dec.get_uvar()? as usize;
        if n > 1 << 24 {
            return Err(DecodeError(format!("absurd element count {n}")));
        }
        let mut elems = Vec::with_capacity(n.min(1 << 14));
        for _ in 0..n {
            elems.push(Elem::decode(dec)?);
        }
        Ok(ScalaTrace { rank, elems })
    }
}

/// One element of a merged (inter-process) trace, tagged with the ranks that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedElem {
    pub elem: Elem,
    pub ranks: RankSet,
}

/// A whole-job ScalaTrace-merged trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScalaMerged {
    pub elems: Vec<MergedElem>,
}

impl ScalaMerged {
    pub fn from_trace(t: &ScalaTrace) -> ScalaMerged {
        ScalaMerged {
            elems: t
                .elems
                .iter()
                .map(|e| MergedElem {
                    elem: e.clone(),
                    ranks: RankSet::singleton(t.rank),
                })
                .collect(),
        }
    }

    /// Merge two per-rank(-group) sequences by LCS alignment over element
    /// equality — the O(n·m) dynamic program that makes dynamic-only
    /// inter-process compression expensive.
    pub fn merge(a: &ScalaMerged, b: &ScalaMerged) -> ScalaMerged {
        let n = a.elems.len();
        let m = b.elems.len();
        // LCS table (lengths); O(n·m) time and space.
        let mut dp = vec![0u32; (n + 1) * (m + 1)];
        let idx = |i: usize, j: usize| i * (m + 1) + j;
        for i in (0..n).rev() {
            for j in (0..m).rev() {
                dp[idx(i, j)] = if a.elems[i].elem == b.elems[j].elem {
                    dp[idx(i + 1, j + 1)] + 1
                } else {
                    dp[idx(i + 1, j)].max(dp[idx(i, j + 1)])
                };
            }
        }
        let mut out = Vec::with_capacity(n.max(m));
        let (mut i, mut j) = (0, 0);
        while i < n && j < m {
            if a.elems[i].elem == b.elems[j].elem {
                let mut ranks = a.elems[i].ranks.clone();
                ranks.extend(&b.elems[j].ranks);
                out.push(MergedElem {
                    elem: a.elems[i].elem.clone(),
                    ranks,
                });
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
        ScalaMerged { elems: out }
    }

    /// Merge all per-process traces (binary reduction; each pair is O(n²)).
    pub fn merge_all(traces: &[ScalaTrace]) -> ScalaMerged {
        assert!(!traces.is_empty());
        let mut layer: Vec<ScalaMerged> = traces.iter().map(Self::from_trace).collect();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.chunks(2);
            for pair in &mut it {
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

impl Codec for ScalaMerged {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.elems.len() as u64);
        for e in &self.elems {
            e.elem.encode(enc);
            e.ranks.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> DecodeResult<Self> {
        let n = dec.get_uvar()? as usize;
        if n > 1 << 24 {
            return Err(DecodeError(format!("absurd element count {n}")));
        }
        let mut elems = Vec::with_capacity(n.min(1 << 14));
        for _ in 0..n {
            let elem = Elem::decode(dec)?;
            let ranks = RankSet::decode(dec)?;
            elems.push(MergedElem { elem, ranks });
        }
        Ok(ScalaMerged { elems })
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

    fn compress_seq(rank: u32, recs: &[MpiRecord]) -> ScalaTrace {
        let mut c = ScalaCompressor::new(rank);
        for r in recs {
            c.push(r);
        }
        c.finish()
    }

    #[test]
    fn run_length_folds_identical_events() {
        let recs: Vec<MpiRecord> = (0..100)
            .map(|_| rec(MpiOp::Barrier, MpiParams::collective(0)))
            .collect();
        let t = compress_seq(0, &recs);
        assert_eq!(t.len(), 1);
        assert_eq!(t.expand().len(), 100);
    }

    #[test]
    fn alternating_pattern_folds_to_rsd() {
        let mut recs = Vec::new();
        for _ in 0..50 {
            recs.push(rec(MpiOp::Send, MpiParams::send(1, 8, 0)));
            recs.push(rec(MpiOp::Recv, MpiParams::recv(1, 8, 0)));
        }
        let t = compress_seq(0, &recs);
        assert_eq!(t.len(), 1, "elems: {:?}", t.elems.len());
        assert!(matches!(&t.elems[0], Elem::Rsd { count: 50, .. }));
        assert_eq!(t.expand().len(), 100);
    }

    #[test]
    fn nested_pattern_folds_to_prsd() {
        // (A A A B) x 20 — inner run inside an outer repeat.
        let mut recs = Vec::new();
        for _ in 0..20 {
            for _ in 0..3 {
                recs.push(rec(MpiOp::Bcast, MpiParams::rooted(0, 64)));
            }
            recs.push(rec(MpiOp::Reduce, MpiParams::rooted(0, 64)));
        }
        let t = compress_seq(0, &recs);
        assert!(t.len() <= 2, "got {} elems", t.len());
        assert_eq!(t.expand().len(), 80);
    }

    #[test]
    fn expansion_is_lossless() {
        let mut recs = Vec::new();
        for i in 0..30i64 {
            recs.push(rec(MpiOp::Send, MpiParams::send(1, 8 * (i % 3), 0)));
            if i % 4 == 0 {
                recs.push(rec(MpiOp::Barrier, MpiParams::collective(0)));
            }
        }
        let t = compress_seq(0, &recs);
        let expanded = t.expand();
        assert_eq!(expanded.len(), recs.len());
        for (e, r) in expanded.iter().zip(&recs) {
            assert_eq!(*e, EncParams::encode(0, r.op, &r.params));
        }
    }

    #[test]
    fn varied_sizes_defeat_folding() {
        // Message size changes every iteration: no folding possible.
        let recs: Vec<MpiRecord> = (0..64i64)
            .map(|i| rec(MpiOp::Send, MpiParams::send(1, 8 + i, 0)))
            .collect();
        let t = compress_seq(0, &recs);
        assert_eq!(
            t.len(),
            64,
            "dynamic-only folding cannot compress varied params"
        );
    }

    #[test]
    fn codec_round_trip() {
        let mut recs = Vec::new();
        for _ in 0..10 {
            recs.push(rec(MpiOp::Send, MpiParams::send(1, 8, 0)));
            recs.push(rec(MpiOp::Recv, MpiParams::recv(1, 8, 0)));
        }
        let t = compress_seq(3, &recs);
        let back = ScalaTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn merge_identical_ranks_collapses() {
        let recs: Vec<MpiRecord> = (0..16)
            .map(|_| rec(MpiOp::Allreduce, MpiParams::collective(64)))
            .collect();
        let traces: Vec<ScalaTrace> = (0..8).map(|r| compress_seq(r, &recs)).collect();
        let merged = ScalaMerged::merge_all(&traces);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.elems[0].ranks.len(), 8);
    }

    #[test]
    fn merge_aligns_mostly_similar_sequences() {
        // Rank 0 has an extra event in the middle.
        let common: Vec<MpiRecord> = (0..5)
            .map(|i| rec(MpiOp::Bcast, MpiParams::rooted(0, 64 << i)))
            .collect();
        let mut with_extra = common.clone();
        with_extra.insert(2, rec(MpiOp::Barrier, MpiParams::collective(0)));
        let t0 = compress_seq(0, &with_extra);
        let t1 = compress_seq(1, &common);
        let merged =
            ScalaMerged::merge(&ScalaMerged::from_trace(&t0), &ScalaMerged::from_trace(&t1));
        // 5 shared elements + 1 rank-0-only barrier.
        assert_eq!(merged.len(), 6);
        let shared = merged.elems.iter().filter(|e| e.ranks.len() == 2).count();
        assert_eq!(shared, 5);
    }

    #[test]
    fn relative_encoding_aligns_stencil_sends() {
        let r0 = [rec(MpiOp::Send, MpiParams::send(1, 8, 0))];
        let r3 = [rec(MpiOp::Send, MpiParams::send(4, 8, 0))];
        let t0 = compress_seq(0, &r0);
        let t3 = compress_seq(3, &r3);
        let merged =
            ScalaMerged::merge(&ScalaMerged::from_trace(&t0), &ScalaMerged::from_trace(&t3));
        assert_eq!(merged.len(), 1);
    }
}
