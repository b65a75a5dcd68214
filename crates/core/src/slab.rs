//! Pooled ("slab") CTT decoding: the one decoder of the CTT wire format.
//!
//! [`Ctt`](crate::Ctt)'s owned representation allocates per vertex: every
//! loop/branch sequence is its own `Vec<Seg>`, every leaf its own
//! `Vec<LeafRecord>`. That suits a compressor building trees incrementally,
//! and `Ctt` is build-and-write only: it has an encoder and no decoder.
//! Everything that reads CTT bytes — the trace store, `cypress::read_container`,
//! the collector — wants the decoded form to be a handful of large
//! allocations with good locality, not a fresh heap object per CST vertex.
//!
//! [`CttSlab`] decodes the wire format `Ctt::to_bytes` writes into three flat
//! pools — one vertex-table entry per GID, one shared segment vector, one
//! shared record vector — with each vertex holding index ranges into the
//! pools. [`CttSource::vertex`] hands out the same borrowed [`VertexRef`]s an
//! owned tree does, so every reader of a CTT — the fold behind the query
//! engine, the replay cursor behind decompression, lowering and windowed
//! analysis, the inter-process merge — runs on a slab directly, with
//! identical results and without ever building an owned copy.

use crate::ctt::{bad_vertex_tag, LeafRecord, VD_BRANCH, VD_LEAF, VD_LOOP, VD_ROOT};
use crate::intseq::{read_segs_into, Seg, SeqRef};
use crate::visit::{CttSource, VertexRef};
use cypress_trace::codec::{Codec, Cursor, DecodeError, DecodeResult};

/// One vertex's slot: index ranges into the shared pools. Mirrors
/// [`VertexData`](crate::VertexData) without owning any allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SlabVertex {
    Root,
    Loop { segs: (u32, u32), total: u64 },
    Branch { segs: (u32, u32), total: u64 },
    Leaf { records: (u32, u32) },
}

/// One process's compressed trace, decoded into pooled storage from the
/// bytes [`Ctt::to_bytes`](crate::Ctt::to_bytes) writes; see the module docs
/// for why the in-memory shape differs.
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
    /// Decode a whole buffer (the payload of a `RankCtt` container section
    /// or frame) in one checked pass: the header `(rank, nprocs,
    /// app_time)`, then the vertex list, each vertex's segments and records
    /// appended to the shared pools. The first failure becomes the one
    /// error; trailing bytes are an error.
    pub fn from_bytes(buf: &[u8]) -> DecodeResult<CttSlab> {
        let cur = &mut Cursor::new(buf);
        let Some(slab) = CttSlab::read(cur) else {
            return Err(cur.error());
        };
        if !cur.is_done() {
            let n = cur.remaining();
            return Err(DecodeError(format!("{n} trailing bytes after CttSlab")));
        }
        Ok(slab)
    }

    fn read(cur: &mut Cursor<'_>) -> Option<CttSlab> {
        let rank = cur.u32("ctt rank")?;
        let nprocs = cur.u32("ctt nprocs")?;
        let app_time = cur.uvar()?;
        let (mut segs, mut records) = (Vec::new(), Vec::new());
        let verts = cur.seq("ctt vertices", |cur| {
            Some(match cur.u8()? {
                VD_ROOT => SlabVertex::Root,
                VD_LOOP => {
                    let (segs, total) = read_pooled_seq(cur, &mut segs)?;
                    SlabVertex::Loop { segs, total }
                }
                VD_BRANCH => {
                    let (segs, total) = read_pooled_seq(cur, &mut segs)?;
                    SlabVertex::Branch { segs, total }
                }
                VD_LEAF => {
                    let lo = records.len() as u32;
                    let n = cur.count("leaf records")?;
                    cur.items(n, &mut records, LeafRecord::decode)?;
                    SlabVertex::Leaf {
                        records: (lo, records.len() as u32),
                    }
                }
                t => return bad_vertex_tag(cur, t),
            })
        })?;
        Some(CttSlab {
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

fn read_pooled_seq(cur: &mut Cursor<'_>, pool: &mut Vec<Seg>) -> Option<((u32, u32), u64)> {
    let lo = pool.len() as u32;
    let total = read_segs_into(cur, pool)?;
    Some(((lo, pool.len() as u32), total))
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
    use cypress_trace::codec::Encoder;

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
    fn slab_rejects_every_truncation_and_a_trailing_byte() {
        let bytes = sample_ctts(2).remove(1).to_bytes();
        for cut in 0..bytes.len() {
            assert!(CttSlab::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        let err = CttSlab::from_bytes(&trailing).unwrap_err();
        assert!(err.0.contains("1 trailing bytes"), "{err}");
    }

    #[test]
    fn header_fields_wider_than_32_bits_are_refused() {
        for (rank, nprocs, field) in [((1u64 << 32) + 1, 4, "rank"), (1, (1 << 32) + 1, "nprocs")] {
            let mut enc = Encoder::new();
            enc.put_uvar(rank);
            enc.put_uvar(nprocs);
            enc.put_uvar(999); // app_time
            enc.put_uvar(1); // one vertex
            enc.put_u8(VD_ROOT);
            let err = CttSlab::from_bytes(&enc.finish()).unwrap_err();
            let want = format!("ctt {field} 4294967297 does not fit in 32 bits");
            assert!(err.0.contains(&want), "{err}");
        }
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
