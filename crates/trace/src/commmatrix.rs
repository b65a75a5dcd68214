//! Communication-volume matrices (paper Figs. 17 & 20).
//!
//! A `P×P` matrix where cell `(src, dst)` holds the point-to-point bytes sent
//! from rank `src` to rank `dst`. The paper renders these as grayscale
//! heatmaps to characterise MG/SP (Fig. 17) and LESlie3d (Fig. 20); the
//! harness here emits CSV plus a coarse ASCII heatmap.

use crate::codec::{Codec, Cursor, Encoder};
use crate::event::MpiRecord;
use crate::raw::RawTrace;

/// A dense P×P communication-volume matrix (bytes from row=sender to
/// col=receiver).
#[derive(Debug, Clone, PartialEq)]
pub struct CommMatrix {
    pub nprocs: usize,
    data: Vec<u64>,
}

impl CommMatrix {
    pub fn new(nprocs: usize) -> Self {
        CommMatrix {
            nprocs,
            data: vec![0; nprocs * nprocs],
        }
    }

    pub fn get(&self, src: usize, dst: usize) -> u64 {
        self.data[src * self.nprocs + dst]
    }

    pub fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        let cell = &mut self.data[src * self.nprocs + dst];
        *cell = cell.saturating_add(bytes);
    }

    /// Total bytes in the matrix.
    pub fn total(&self) -> u64 {
        crate::profile::saturating_sum(&self.data)
    }

    /// Largest single cell.
    pub fn max(&self) -> u64 {
        self.data.iter().copied().max().unwrap_or(0)
    }

    /// Peers that `rank` sends to (nonzero columns of its row).
    pub fn peers_of(&self, rank: usize) -> Vec<usize> {
        (0..self.nprocs)
            .filter(|&d| self.get(rank, d) > 0)
            .collect()
    }

    /// Distinct nonzero message volumes present in the matrix, sorted.
    pub fn distinct_volumes(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.data.iter().copied().filter(|&x| x > 0).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Accumulate `times` repetitions of a send of `count` elements from
    /// `src` to `dest`, applying the matrix's attribution rules: negative
    /// destinations (wildcards / inapplicable fields) and out-of-range peers
    /// contribute nothing, and negative counts clamp to zero. This is the
    /// single accumulation path shared by raw traces, decompressed replays,
    /// and the compressed-domain query engine (which passes `times > 1` for
    /// merged records). The volume saturates, as a record may claim any
    /// count.
    pub fn add_send(&mut self, src: usize, dest: i64, count: i64, times: u64) {
        if dest >= 0 {
            let dst = dest as usize;
            if src < self.nprocs && dst < self.nprocs {
                self.add(src, dst, (count.max(0) as u64).saturating_mul(times));
            }
        }
    }

    /// Accumulate one raw record emitted by rank `src` (send-like ops only).
    pub fn add_record(&mut self, src: usize, r: &MpiRecord) {
        if r.op.is_send_like() {
            self.add_send(src, r.params.dest, r.params.count, 1);
        }
    }

    /// Accumulate an event stream from rank `src` — the iterator-based entry
    /// point shared by owned traces and streamed partial expansions.
    pub fn add_rank_events<'a>(&mut self, src: usize, recs: impl Iterator<Item = &'a MpiRecord>) {
        for r in recs {
            self.add_record(src, r);
        }
    }

    /// Build from per-rank raw traces by accumulating send-like volumes.
    ///
    /// Collectives are not included: the paper's matrices visualise
    /// point-to-point structure. Wildcard receives contribute nothing here
    /// (volume is attributed at the sender).
    pub fn from_traces(traces: &[RawTrace]) -> Self {
        let mut m = CommMatrix::new(traces.len());
        for t in traces {
            m.add_rank_events(t.rank as usize, t.mpi_records());
        }
        m
    }

    /// CSV rendering (header row + one row per sender).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("sender");
        for d in 0..self.nprocs {
            write!(out, ",to_{d}").unwrap();
        }
        out.push('\n');
        for s in 0..self.nprocs {
            write!(out, "{s}").unwrap();
            for d in 0..self.nprocs {
                write!(out, ",{}", self.get(s, d)).unwrap();
            }
            out.push('\n');
        }
        out
    }

    /// Coarse ASCII heatmap: one character per cell, ' ' for zero and
    /// '.:-=+*#%@' for increasing volume relative to the maximum.
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b".:-=+*#%@";
        let max = self.max();
        let mut out = String::with_capacity(self.nprocs * (self.nprocs + 1));
        for s in 0..self.nprocs {
            for d in 0..self.nprocs {
                let v = self.get(s, d);
                if v == 0 {
                    out.push(' ');
                } else {
                    let idx = ((v as f64 / max as f64) * (RAMP.len() - 1) as f64).round() as usize;
                    out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
                }
            }
            out.push('\n');
        }
        out
    }
}

impl Codec for CommMatrix {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_uvar(self.nprocs as u64);
        for cell in &self.data {
            enc.put_uvar(*cell);
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        let nprocs = cur.uvar()? as usize;
        let Some(cells) = nprocs.checked_mul(nprocs) else {
            return cur.refuse(nprocs as u64, |n| {
                format!("comm matrix dimension {n} overflows")
            });
        };
        cur.hold(cells as u64, "comm matrix cells")?;
        let mut m = CommMatrix::new(nprocs);
        for cell in &mut m.data {
            *cell = cur.uvar()?;
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, MpiOp, MpiParams, MpiRecord};

    fn send_event(dest: i64, count: i64) -> Event {
        Event::Mpi(MpiRecord {
            gid: 0,
            op: MpiOp::Send,
            params: MpiParams::send(dest, count, 0),
            t_start: 0,
            dur: 0,
        })
    }

    #[test]
    fn accumulates_send_volumes() {
        let mut t0 = RawTrace::new(0, 2);
        t0.events.push(send_event(1, 100));
        t0.events.push(send_event(1, 50));
        let t1 = RawTrace::new(1, 2);
        let m = CommMatrix::from_traces(&[t0, t1]);
        assert_eq!(m.get(0, 1), 150);
        assert_eq!(m.get(1, 0), 0);
        assert_eq!(m.total(), 150);
    }

    #[test]
    fn collectives_do_not_contribute() {
        let mut t0 = RawTrace::new(0, 2);
        t0.events.push(Event::Mpi(MpiRecord {
            gid: 0,
            op: MpiOp::Bcast,
            params: MpiParams::rooted(0, 999),
            t_start: 0,
            dur: 0,
        }));
        let m = CommMatrix::from_traces(&[t0, RawTrace::new(1, 2)]);
        assert_eq!(m.total(), 0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t0 = RawTrace::new(0, 2);
        t0.events.push(send_event(1, 7));
        let m = CommMatrix::from_traces(&[t0, RawTrace::new(1, 2)]);
        let csv = m.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "sender,to_0,to_1");
        assert_eq!(lines[1], "0,0,7");
    }

    #[test]
    fn ascii_heatmap_dimensions() {
        let m = CommMatrix::new(4);
        let art = m.to_ascii();
        assert_eq!(art.lines().count(), 4);
        assert!(art.lines().all(|l| l.len() == 4));
    }

    #[test]
    fn codec_roundtrip() {
        let mut m = CommMatrix::new(3);
        m.add(0, 1, 150);
        m.add(2, 0, 7);
        let bytes = m.to_bytes();
        assert_eq!(CommMatrix::from_bytes(&bytes).unwrap(), m);
    }

    #[test]
    fn codec_rejects_oversized_dimension() {
        let mut enc = crate::codec::Encoder::new();
        enc.put_uvar(1 << 20); // claims a 2^40-cell matrix over no data
        let err = CommMatrix::from_bytes(&enc.finish());
        assert!(err.is_err());
    }

    #[test]
    fn distinct_volumes_and_peers() {
        let mut t0 = RawTrace::new(0, 3);
        t0.events.push(send_event(1, 43_000));
        t0.events.push(send_event(2, 83_000));
        t0.events.push(send_event(1, 43_000));
        let m = CommMatrix::from_traces(&[t0, RawTrace::new(1, 3), RawTrace::new(2, 3)]);
        assert_eq!(m.peers_of(0), vec![1, 2]);
        assert_eq!(m.distinct_volumes(), vec![83_000, 86_000]);
    }
}
