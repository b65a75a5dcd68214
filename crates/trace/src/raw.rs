//! Raw (uncompressed) per-process traces and their on-disk encoding.
//!
//! The raw encoding is what conventional collection tools would write per
//! event (operation, parameters, timestamp); its size is the baseline that
//! Fig. 15's "Gzip" series compresses, and the reference against which
//! compression ratios are computed.

use crate::codec::{ivar_len, uvar_len, Codec, Cursor, Encoder};
use crate::event::{Event, MpiOp, MpiParams, MpiRecord};

impl MpiParams {
    /// Byte length of [`Codec::encode`] for these params, computed without
    /// serializing — the hot-path replacement for encoding into a scratch
    /// buffer just to measure raw trace size.
    pub fn encoded_len(&self) -> usize {
        ivar_len(self.dest)
            + ivar_len(self.src)
            + ivar_len(self.count)
            + ivar_len(self.rcount)
            + ivar_len(self.tag)
            + ivar_len(self.rtag)
            + ivar_len(self.root)
            + ivar_len(self.comm)
            + uvar_len(self.req_gids.len() as u64)
            + self
                .req_gids
                .iter()
                .map(|&g| uvar_len(g as u64))
                .sum::<usize>()
    }
}

impl MpiRecord {
    /// Byte length of [`Codec::encode`] for this record, without serializing.
    pub fn encoded_len(&self) -> usize {
        self.untimed_len() + uvar_len(self.t_start) + uvar_len(self.dur)
    }

    /// [`MpiRecord::encoded_len`] less the two timestamps: the bytes of the
    /// gid, op and parameters, which two records of one call site with
    /// equal parameters share.
    pub fn untimed_len(&self) -> usize {
        uvar_len(self.gid as u64) + 1 + self.params.encoded_len()
    }
}

/// The full raw trace of one process.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RawTrace {
    pub rank: u32,
    /// World size when the trace was taken.
    pub nprocs: u32,
    pub events: Vec<Event>,
    /// Total virtual application time (ns) — used to express compression
    /// overhead as a percentage of runtime, as in Fig. 16.
    pub app_time: u64,
}

impl RawTrace {
    pub fn new(rank: u32, nprocs: u32) -> Self {
        RawTrace {
            rank,
            nprocs,
            events: Vec::new(),
            app_time: 0,
        }
    }

    /// Only the MPI records (what dynamic-only tools like ScalaTrace see).
    pub fn mpi_records(&self) -> impl Iterator<Item = &MpiRecord> {
        self.events.iter().filter_map(|e| e.as_mpi())
    }

    /// Number of MPI operations.
    pub fn mpi_count(&self) -> usize {
        self.mpi_records().count()
    }

    /// Strip structure events — the view a purely dynamic tool records.
    pub fn mpi_only(&self) -> Vec<MpiRecord> {
        self.mpi_records().cloned().collect()
    }
}

impl Codec for MpiParams {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_ivar(self.dest);
        enc.put_ivar(self.src);
        enc.put_ivar(self.count);
        enc.put_ivar(self.rcount);
        enc.put_ivar(self.tag);
        enc.put_ivar(self.rtag);
        enc.put_ivar(self.root);
        enc.put_ivar(self.comm);
        enc.put_seq(&self.req_gids, |enc, &g| enc.put_uvar(g as u64));
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(MpiParams {
            dest: cur.ivar()?,
            src: cur.ivar()?,
            count: cur.ivar()?,
            rcount: cur.ivar()?,
            tag: cur.ivar()?,
            rtag: cur.ivar()?,
            root: cur.ivar()?,
            comm: cur.ivar()?,
            req_gids: cur.seq("req_gids", |cur| cur.u32("request gid"))?,
        })
    }
}

impl Codec for MpiRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.gid as u64);
        enc.put_u8(self.op.code());
        self.params.encode(enc);
        enc.put_uvar(self.t_start);
        enc.put_uvar(self.dur);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let gid = cur.u32("gid")?;
        let code = cur.u8()?;
        let Some(op) = MpiOp::from_code(code) else {
            return cur.refuse(code as u64, |c| format!("bad MpiOp code {c}"));
        };
        Some(MpiRecord {
            gid,
            op,
            params: MpiParams::decode(cur)?,
            t_start: cur.uvar()?,
            dur: cur.uvar()?,
        })
    }
}

const TAG_ENTER: u8 = 0;
const TAG_EXIT: u8 = 1;
const TAG_MPI: u8 = 2;

impl Codec for Event {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Event::Enter { gid } => {
                enc.put_u8(TAG_ENTER);
                enc.put_uvar(*gid as u64);
            }
            Event::Exit { gid } => {
                enc.put_u8(TAG_EXIT);
                enc.put_uvar(*gid as u64);
            }
            Event::Mpi(r) => {
                enc.put_u8(TAG_MPI);
                r.encode(enc);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(match cur.u8()? {
            TAG_ENTER => Event::Enter {
                gid: cur.u32("gid")?,
            },
            TAG_EXIT => Event::Exit {
                gid: cur.u32("gid")?,
            },
            TAG_MPI => Event::Mpi(MpiRecord::decode(cur)?),
            t => return cur.refuse(t as u64, |t| format!("bad event tag {t}")),
        })
    }
}

impl Codec for RawTrace {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.rank as u64);
        enc.put_uvar(self.nprocs as u64);
        enc.put_uvar(self.app_time);
        enc.put_seq(&self.events, |enc, e| e.encode(enc));
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(RawTrace {
            rank: cur.u32("rank")?,
            nprocs: cur.u32("nprocs")?,
            app_time: cur.uvar()?,
            events: cur.seq("raw trace events", Event::decode)?,
        })
    }
}

/// Raw size (bytes) that a conventional per-event tracer would write for the
/// MPI events of one process — the input size for the Gzip baseline. This
/// excludes the structure markers, which exist only for CYPRESS.
pub fn raw_mpi_size(trace: &RawTrace) -> usize {
    let mut enc = Encoder::new();
    for r in trace.mpi_records() {
        r.encode(&mut enc);
    }
    enc.len()
}

/// Encode the MPI-only view of a trace as bytes (e.g. to feed Gzip).
pub fn encode_mpi_events(trace: &RawTrace) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_uvar(trace.rank as u64);
    enc.put_uvar(trace.nprocs as u64);
    let n = trace.mpi_count();
    enc.put_uvar(n as u64);
    for r in trace.mpi_records() {
        r.encode(&mut enc);
    }
    enc.finish().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MpiOp, MpiParams};

    fn sample_trace() -> RawTrace {
        let mut t = RawTrace::new(3, 8);
        t.app_time = 123_456;
        t.events.push(Event::Enter { gid: 1 });
        t.events.push(Event::Mpi(MpiRecord {
            gid: 2,
            op: MpiOp::Send,
            params: MpiParams::send(4, 1024, 9),
            t_start: 100,
            dur: 35,
        }));
        t.events.push(Event::Mpi(MpiRecord {
            gid: 3,
            op: MpiOp::Waitall,
            params: MpiParams::completion(vec![2, 5]),
            t_start: 150,
            dur: 3,
        }));
        t.events.push(Event::Exit { gid: 1 });
        t
    }

    #[test]
    fn trace_round_trips() {
        let t = sample_trace();
        let b = t.to_bytes();
        let back = RawTrace::from_bytes(&b).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn mpi_only_strips_structure_events() {
        let t = sample_trace();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.mpi_count(), 2);
        assert!(t.mpi_only().iter().all(|r| r.op != MpiOp::Barrier));
    }

    #[test]
    fn corrupted_tag_rejected() {
        let t = sample_trace();
        let mut b = t.to_bytes().to_vec();
        // Find and corrupt the first event tag byte. Events start after
        // rank/nprocs/app_time/len varints = 1+1+3+1 = 6 bytes here.
        b[6] = 77;
        assert!(RawTrace::from_bytes(&b).is_err());
    }

    #[test]
    fn raw_size_counts_only_mpi() {
        let t = sample_trace();
        let full = t.encoded_size();
        let mpi = raw_mpi_size(&t);
        assert!(mpi < full);
        assert!(mpi > 0);
    }

    /// `encoded_len` and `untimed_len` must agree exactly with the bytes
    /// `encode` produces, including multi-byte varints and req_gid lists.
    #[test]
    fn encoded_len_matches_encode() {
        let recs = [
            MpiRecord {
                gid: 0,
                op: MpiOp::Barrier,
                params: MpiParams::collective(0),
                t_start: 0,
                dur: 0,
            },
            MpiRecord {
                gid: 300,
                op: MpiOp::Send,
                params: MpiParams::send(127, 1 << 20, 65),
                t_start: u64::MAX,
                dur: 1 << 40,
            },
            MpiRecord {
                gid: 7,
                op: MpiOp::Waitall,
                params: MpiParams::completion(vec![1, 128, 16384, u32::MAX]),
                t_start: 123_456_789,
                dur: 42,
            },
            MpiRecord {
                gid: 9,
                op: MpiOp::Sendrecv,
                params: MpiParams::sendrecv(3, 8, 1, crate::event::ANY_SOURCE, 8, 2),
                t_start: 1,
                dur: 1,
            },
        ];
        for r in &recs {
            let mut enc = Encoder::new();
            r.encode(&mut enc);
            assert_eq!(r.encoded_len(), enc.len(), "{r:?}");
            // The two timestamps are the record's last fields.
            let untimed = MpiRecord {
                t_start: 0,
                dur: 0,
                ..r.clone()
            };
            assert_eq!(r.untimed_len() + 2, untimed.to_bytes().len(), "{r:?}");
        }
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = RawTrace::new(0, 1);
        assert_eq!(RawTrace::from_bytes(&t.to_bytes()).unwrap(), t);
    }
}
