//! # cypress-baselines — dynamic-only trace compressors
//!
//! The comparison points of the paper's evaluation, reimplemented from
//! their published descriptions:
//!
//! * [`scalatrace`] — ScalaTrace (Noeth et al. \[14\]): greedy online
//!   RSD/PRSD folding intra-process, O(n²) LCS alignment inter-process.
//!   Lossless, but folding fails on varied parameters and every event pays
//!   a tail-window pattern search.
//! * [`scalatrace2`] — ScalaTrace-2 (Wu & Mueller \[18\]): *elastic* folding
//!   that merges same-shaped events with differing values (value sequences
//!   kept stride-compressed) and a loop-agnostic inter-node merge. Better
//!   ratios on irregular codes, partially lossy ordering.
//!
//! The Gzip baseline lives in `cypress-deflate`.

pub mod scalatrace;
pub mod scalatrace2;

pub use scalatrace::{Elem, ScalaCompressor, ScalaMerged, ScalaTrace};
pub use scalatrace2::{Elem2, ParamShape, Scala2Merged, Scala2Trace};
