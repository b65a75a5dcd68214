//! Pooled ("slab") CTT decoding for the zero-copy trace store.
//!
//! [`Ctt`](crate::Ctt)'s owned representation allocates per vertex: every
//! loop/branch sequence is its own `Vec<Seg>`, every leaf its own
//! `Vec<LeafRecord>`. That is fine for a compressor building trees
//! incrementally, but a query daemon that decodes thousands of rank CTTs per
//! second wants the decoded form to be a handful of large allocations with
//! good locality, not a fresh heap object per CST vertex.
//!
//! [`CttSlab`] decodes the exact same wire format as `Ctt` into three flat
//! pools — one vertex-table entry per GID, one shared segment vector, one
//! shared record vector — with each vertex holding index ranges into the
//! pools. [`CttSource::vertex`] hands out the same borrowed [`VertexRef`]s an
//! owned tree does, so every reader of a CTT — the fold behind the query
//! engine, the replay cursor behind decompression, lowering and windowed
//! analysis — runs on a slab directly, with identical results and without
//! ever building an owned copy.

use crate::ctt::{
    bad_vertex_tag, decode_ctt_header, LeafRecord, VD_BRANCH, VD_LEAF, VD_LOOP, VD_ROOT,
};
use crate::intseq::{decode_segs_into, Seg, SeqRef};
use crate::visit::{CttSource, VertexRef};
use cypress_trace::codec::{Codec, DecodeError, DecodeResult, Decoder};

/// One vertex's slot: index ranges into the shared pools. Mirrors
/// [`VertexData`](crate::VertexData) without owning any allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlabVertex {
    Root,
    Loop { segs: (u32, u32), total: u64 },
    Branch { segs: (u32, u32), total: u64 },
    Leaf { records: (u32, u32) },
}

/// One process's compressed trace, decoded into pooled storage. Same wire
/// format as [`Ctt`](crate::Ctt); see the module docs for why the in-memory
/// shape differs.
#[derive(Debug, Clone, PartialEq)]
pub struct CttSlab {
    pub rank: u32,
    pub nprocs: u32,
    /// Total virtual application time (ns).
    pub app_time: u64,
    verts: Vec<SlabVertex>,
    /// Every loop/branch sequence's segments, contiguous in GID order.
    segs: Vec<Seg>,
    /// Every leaf's records, contiguous in GID order.
    records: Vec<LeafRecord>,
}

impl CttSlab {
    /// Decode a full buffer (the payload of a `RankCtt` container section),
    /// rejecting trailing bytes — the slab twin of `Ctt::from_bytes`.
    pub fn from_bytes(buf: &[u8]) -> DecodeResult<CttSlab> {
        let mut dec = Decoder::new(buf);
        let slab = CttSlab::decode(&mut dec)?;
        if !dec.is_done() {
            return Err(DecodeError(format!(
                "{} trailing bytes after CttSlab",
                dec.remaining()
            )));
        }
        Ok(slab)
    }

    /// Decode from a decoder position: `Ctt::decode` with pooled landings.
    pub fn decode(dec: &mut Decoder<'_>) -> DecodeResult<CttSlab> {
        let (rank, nprocs, app_time) = decode_ctt_header(dec)?;
        let (mut verts, mut segs, mut records) = (Vec::new(), Vec::new(), Vec::new());
        dec.get_seq_into("ctt vertices", &mut verts, |dec| {
            Ok::<_, DecodeError>(match dec.get_u8()? {
                VD_ROOT => SlabVertex::Root,
                VD_LOOP => {
                    let (segs, total) = decode_pooled_seq(dec, &mut segs)?;
                    SlabVertex::Loop { segs, total }
                }
                VD_BRANCH => {
                    let (segs, total) = decode_pooled_seq(dec, &mut segs)?;
                    SlabVertex::Branch { segs, total }
                }
                VD_LEAF => {
                    let lo = records.len() as u32;
                    dec.get_seq_into("leaf records", &mut records, LeafRecord::decode)?;
                    SlabVertex::Leaf {
                        records: (lo, records.len() as u32),
                    }
                }
                t => return Err(bad_vertex_tag(t)),
            })
        })?;
        Ok(CttSlab {
            rank,
            nprocs,
            app_time,
            verts,
            segs,
            records,
        })
    }

    fn seq(&self, range: (u32, u32), total: u64) -> SeqRef<'_> {
        SeqRef::from_parts(&self.segs[range.0 as usize..range.1 as usize], total)
    }

    /// Number of CTT vertices (mirrors the CST shape).
    pub fn vertex_count(&self) -> usize {
        self.verts.len()
    }

    /// Total merged record count across leaves.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Total uncompressed MPI operation count represented.
    pub fn op_count(&self) -> u64 {
        self.records.iter().map(|r| r.count).sum()
    }

    /// Approximate live memory footprint — the store's byte-budget input.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.verts.capacity() * std::mem::size_of::<SlabVertex>()
            + self.segs.capacity() * std::mem::size_of::<Seg>()
            + self.records.iter().map(|r| r.approx_bytes()).sum::<usize>()
    }
}

fn decode_pooled_seq(
    dec: &mut Decoder<'_>,
    pool: &mut Vec<Seg>,
) -> DecodeResult<((u32, u32), u64)> {
    let lo = pool.len() as u32;
    let total = decode_segs_into(dec, pool)?;
    Ok(((lo, pool.len() as u32), total))
}

impl CttSource for CttSlab {
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
        self.verts.len()
    }
    fn vertex(&self, gid: usize) -> VertexRef<'_> {
        match self.verts[gid] {
            SlabVertex::Root => VertexRef::Root,
            SlabVertex::Loop { segs, total } => VertexRef::Loop(self.seq(segs, total)),
            SlabVertex::Branch { segs, total } => VertexRef::Branch(self.seq(segs, total)),
            SlabVertex::Leaf { records } => {
                VertexRef::Leaf(&self.records[records.0 as usize..records.1 as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress_trace, CompressConfig};
    use crate::Ctt;
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};

    fn sample_ctts(nprocs: u32) -> Vec<Ctt> {
        let src = r#"fn main() {
            for i in 0..30 {
                if rank() > 0 { send(rank() - 1, 64, 0); }
                if rank() < size() - 1 { recv(rank() + 1, 64, 0); }
                for j in 0..i { barrier(); }
            }
            allreduce(8);
        }"#;
        let p = parse(src).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect()
    }

    #[test]
    fn slab_decodes_ctt_wire_format_and_round_trips() {
        for ctt in sample_ctts(4) {
            let bytes = ctt.to_bytes();
            let slab = CttSlab::from_bytes(&bytes).unwrap();
            assert_eq!(slab.rank, ctt.rank);
            assert_eq!(slab.nprocs, ctt.nprocs);
            assert_eq!(slab.app_time, ctt.app_time);
            assert_eq!(slab.vertex_count(), ctt.data.len());
            assert_eq!(slab.record_count(), ctt.record_count());
            assert_eq!(slab.op_count(), ctt.op_count());
            // The provided `fold` and the replay cursor read nothing but
            // `vertex()`, so equal views are equal folds and equal replays.
            for gid in 0..ctt.data.len() {
                assert_eq!(slab.vertex(gid), ctt.vertex(gid), "vertex {gid}");
            }
        }
    }

    #[test]
    fn slab_rejects_what_ctt_rejects() {
        let ctt = sample_ctts(2).remove(1);
        let bytes = ctt.to_bytes();
        for cut in 0..bytes.len() {
            assert_eq!(
                CttSlab::from_bytes(&bytes[..cut]).is_err(),
                Ctt::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(CttSlab::from_bytes(&trailing).is_err());
    }

    #[test]
    fn slab_is_leaner_than_owned_ctt() {
        // The point of pooling: fewer, larger allocations. The footprint
        // should never exceed the owned tree's.
        let ctts = sample_ctts(4);
        for ctt in &ctts {
            let slab = CttSlab::from_bytes(&ctt.to_bytes()).unwrap();
            assert!(
                slab.approx_bytes() <= ctt.approx_bytes() + 64,
                "slab {} vs ctt {}",
                slab.approx_bytes(),
                ctt.approx_bytes()
            );
        }
    }
}
