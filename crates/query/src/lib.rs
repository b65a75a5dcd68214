//! Compressed-domain query engine: analyze traces directly on the CTT.
//!
//! Every analysis the repo had so far — communication matrices
//! ([`cypress_trace::CommMatrix`]), mpiP-style profiles
//! ([`cypress_trace::Profile`]), the simulator feed — first decompressed the
//! CTT back into an O(events) record stream, paying event-proportional time
//! and memory and throwing away the structure the compressor worked to keep.
//! This crate evaluates the same analyses **directly on the compressed
//! representation** in O(|CTT|): a leaf record whose `count` says its
//! parameters repeated a million times contributes to every aggregate with
//! one multiplication, relative-rank encodings (`rank ± c`) are resolved
//! per member rank of a merged group without materializing per-rank trees,
//! and loop iteration-count sequences yield total trip counts from their
//! stride segments in closed form ([`cypress_core::IntSeq::sum`]).
//!
//! The engine answers five queries in one pass (one [`QueryResult`]):
//!
//! * the P×P point-to-point **communication-volume matrix**,
//! * the mpiP-style **per-op profile** (calls, bytes, min/mean/max time,
//!   message-size histogram, per-rank MPI/app time),
//! * per-rank **send/recv byte totals** and call counts,
//! * total **op/call counts**,
//! * a **hot-spot report** attributing volume to CST GIDs with full
//!   loop/branch call-path provenance — something a decompressed record
//!   stream cannot produce at all, because decompression erases the tree.
//!
//! ## Symbolic vs partial expansion
//!
//! All supported analyses are *multiset* functions — order-independent
//! aggregates — so the symbolic fold is exact whenever decompression itself
//! is sequence-exact. The one approximate corner of the format is recursion:
//! pseudo-loop replay is multiset-preserving per iteration but its leaf
//! cursors may redistribute occurrences across visits. For such programs,
//! and for any windowed query, the engine picks **bounded partial
//! expansion** itself: the CTT
//! is streamed through [`cypress_core::decompress_into`] directly into the
//! same accumulators — O(events) time but O(1) extra memory, never a
//! materialized trace. Wildcard receives need no fallback: volume is
//! attributed at the sender, and receive byte totals come from the posted
//! counts, not the resolved source.
//!
//! Results are pinned byte-for-byte against the decompress-then-analyze
//! reference ([`query_by_decompression`]) across the bundled workloads and
//! the random-program suite (`tests/query_equivalence.rs`,
//! `tests/random_programs.rs` in the umbrella crate).

mod accum;
mod engine;
mod hotspot;
mod wire;

pub use engine::{
    has_complete_rank_set, needs_expansion, query_by_decompression,
    query_by_decompression_windowed, query_ctts, query_merged,
};
pub use hotspot::HotSpot;
pub use wire::QUERY_WIRE_VERSION;

use cypress_trace::{CommMatrix, MpiOp, Profile};
use std::fmt;

/// Which evaluation path actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyUsed {
    /// Closed-form fold over the CTT.
    Symbolic,
    /// Streaming replay into the accumulators.
    PartialExpansion,
    /// The decompress-then-analyze oracle ([`query_by_decompression`]).
    Reference,
}

impl StrategyUsed {
    pub fn name(self) -> &'static str {
        match self {
            StrategyUsed::Symbolic => "symbolic",
            StrategyUsed::PartialExpansion => "partial-expansion",
            StrategyUsed::Reference => "reference",
        }
    }
}

/// A half-open time interval `[start_ns, end_ns)` over reconstructed replay
/// timestamps ([`cypress_core::ReplayClock`], rebuilt from the compressed
/// gap/duration statistics). Windowed queries restrict which
/// *operations* are aggregated — an op counts iff its start time falls in
/// the window; whole-trace quantities that are not per-op (per-rank app
/// time, total loop trips) are reported unrestricted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Window {
    pub fn contains(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && t_ns < self.end_ns
    }
}

/// Query knobs. How many hot spots to print is the renderer's business
/// ([`QueryResult::render`]): the result always holds every GID.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryOptions {
    /// Restrict aggregation to ops starting within this window. Timestamps
    /// require the replay clock, so a window always evaluates via partial
    /// expansion (O(events)); a full-span window is how a caller forces it.
    pub window: Option<Window>,
}

/// Per-rank point-to-point byte totals and call counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankTotals {
    /// Bytes this rank sent via send-like ops (`count`, clamped at 0).
    pub send_bytes: u64,
    /// Bytes this rank received via recv-like ops (posted counts; the
    /// receive side of `Sendrecv` uses `rcount`).
    pub recv_bytes: u64,
    /// All MPI calls made by this rank.
    pub calls: u64,
}

/// The combined answer of one query pass.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub nprocs: u32,
    pub strategy: StrategyUsed,
    /// P×P point-to-point volume matrix (sender-attributed).
    pub matrix: CommMatrix,
    /// mpiP-style per-op/per-rank profile.
    pub profile: Profile,
    /// Per-rank totals, indexed by rank.
    pub totals: Vec<RankTotals>,
    /// Per-GID volume attribution, heaviest first (all GIDs with calls).
    pub hotspots: Vec<HotSpot>,
    /// Total loop iterations executed across all ranks (closed-form from
    /// the stored iteration-count sequences).
    pub loop_trips: u64,
}

impl QueryResult {
    /// Total point-to-point communication volume (matrix sum).
    pub fn total_volume(&self) -> u64 {
        self.matrix.total()
    }

    /// Sum of per-GID hot-spot volumes; equals [`QueryResult::total_volume`]
    /// because both apply the same sender-attribution rule.
    pub fn hotspot_volume(&self) -> u64 {
        self.hotspots
            .iter()
            .fold(0, |a, h| a.saturating_add(h.bytes))
    }

    /// Per-op call counts, in stable op order.
    pub fn op_counts(&self) -> Vec<(MpiOp, u64)> {
        self.profile
            .by_op
            .iter()
            .map(|(op, s)| (*op, s.calls))
            .collect()
    }

    /// Total MPI calls across ranks.
    pub fn total_calls(&self) -> u64 {
        self.profile.total_calls()
    }

    /// Render a human-readable report: profile, per-rank totals, and the
    /// top-`limit` hot spots with call-path provenance.
    pub fn render(&self, limit: usize) -> String {
        use std::fmt::Write;
        let mut out = self.profile.report();
        writeln!(
            out,
            "\nPer-rank totals ({} ranks, {} p2p bytes total):",
            self.nprocs,
            self.total_volume()
        )
        .unwrap();
        writeln!(
            out,
            "{:<6} {:>14} {:>14} {:>10}",
            "rank", "send_bytes", "recv_bytes", "calls"
        )
        .unwrap();
        for (r, t) in self.totals.iter().enumerate() {
            writeln!(
                out,
                "{:<6} {:>14} {:>14} {:>10}",
                r, t.send_bytes, t.recv_bytes, t.calls
            )
            .unwrap();
        }
        writeln!(
            out,
            "\nHot spots by GID (top {} of {}, {} loop trips total):",
            limit.min(self.hotspots.len()),
            self.hotspots.len(),
            self.loop_trips
        )
        .unwrap();
        writeln!(
            out,
            "{:<6} {:<14} {:>10} {:>14}  path",
            "gid", "op", "calls", "bytes"
        )
        .unwrap();
        for h in self.hotspots.iter().take(limit) {
            writeln!(
                out,
                "{:<6} {:<14} {:>10} {:>14}  {}",
                h.gid,
                h.op.name(),
                h.calls,
                h.bytes,
                h.path
            )
            .unwrap();
        }
        out
    }
}

/// Query-engine errors (container access, malformed payloads, bad inputs).
#[derive(Debug)]
pub enum QueryError {
    Container(cypress_trace::ContainerError),
    Decode(cypress_trace::DecodeError),
    /// CST text section failed to parse.
    BadCst(String),
    /// Structurally invalid input (empty CTT set, rank out of range, …).
    Invalid(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Container(e) => write!(f, "query container error: {e}"),
            QueryError::Decode(e) => write!(f, "query decode error: {e}"),
            QueryError::BadCst(e) => write!(f, "query cst error: {e}"),
            QueryError::Invalid(e) => write!(f, "invalid query input: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Container(e) => Some(e),
            QueryError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cypress_trace::ContainerError> for QueryError {
    fn from(e: cypress_trace::ContainerError) -> Self {
        QueryError::Container(e)
    }
}

impl From<cypress_trace::DecodeError> for QueryError {
    fn from(e: cypress_trace::DecodeError) -> Self {
        QueryError::Decode(e)
    }
}
