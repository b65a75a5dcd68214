//! # cypress-core — the CYPRESS compressor (paper §IV–§V)
//!
//! The dynamic half of CYPRESS: top-down intra-process compression into the
//! Compressed Trace Tree, O(n)-per-pair inter-process merging with rank
//! groups, and sequence-preserving decompression.
//!
//! ```
//! use cypress_minilang::{parse, check_program};
//! use cypress_cst::analyze_program;
//! use cypress_runtime::{trace_program, InterpConfig};
//! use cypress_core::{compress_trace, decompress, merge_all, CompressConfig};
//!
//! let prog = parse("fn main() { for i in 0..100 { allreduce(64); } }").unwrap();
//! check_program(&prog).unwrap();
//! let info = analyze_program(&prog);
//! let traces = trace_program(&prog, &info, 8, &InterpConfig::default()).unwrap();
//!
//! // 100 ops per rank compress to 1 record per rank…
//! let ctts: Vec<_> = traces.iter()
//!     .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
//!     .collect();
//! assert_eq!(ctts[0].record_count(), 1);
//!
//! // …and all 8 ranks merge into a single rank group.
//! let merged = merge_all(&ctts);
//! assert_eq!(merged.group_count(), 2); // loop vertex + leaf vertex
//!
//! // Decompression preserves the exact sequence.
//! assert_eq!(decompress(&info.cst, &ctts[3]).len(), 100);
//! ```

pub mod compress;
pub mod ctt;
pub mod decompress;
pub mod intseq;
pub mod merge;
pub mod session;
pub mod slab;
pub mod timestats;
pub mod visit;

pub use compress::{compress_trace, CompressConfig, IntraCompressor};
pub use ctt::{Ctt, EncParams, LeafRecord, RankEnc, ReqGids, VertexData};
pub use decompress::{
    decompress, decompress_into, replay_to_records, ReplayClock, ReplayCursor, ReplayOp,
};
pub use intseq::{IntSeq, IntSeqReader, Seg, SeqRef};
pub use merge::{
    check_shape, merge_all, merge_all_parallel, BinomialMerger, BlockError, MergedCtt, RankSet,
};
pub use session::{CompressSession, SessionConfig, SessionStats};
pub use slab::CttSlab;
pub use timestats::TimeStats;
pub use visit::{fold_merged, CttFold, CttSource, RankScope, VertexRef};

// `tests/merge_job`, the merge job the integration tests share, names this
// crate `cypress::core` and the codec crate `cypress::trace`, as the umbrella
// crate re-exports them; the merge's unit tests include it under those names.
#[cfg(test)]
extern crate self as cypress;
#[cfg(test)]
use crate as core;
#[cfg(test)]
use cypress_trace as trace;
