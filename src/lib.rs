//! # cypress — hybrid static-dynamic top-down MPI trace compression
//!
//! Umbrella crate for the CYPRESS reproduction (SC'14, Zhai et al.). The
//! front door is [`Pipeline`]: parse → static analysis → per-rank execution
//! on a work-stealing pool, each rank compressing in-line as it runs → merge
//! → container persistence, all behind one builder:
//!
//! ```
//! use cypress::Pipeline;
//!
//! let mut job = Pipeline::new("fn main() { for i in 0..50 { allreduce(64); } }")
//!     .ranks(8)
//!     .run()
//!     .unwrap();
//! assert_eq!(job.merge().group_count(), 2);
//! assert_eq!(job.decompress(0).unwrap().len(), 50);
//! ```
//!
//! The individual layers stay available as re-exported subcrates for code
//! that needs one piece (e.g. just the CST builder), and the types a typical
//! caller touches ([`PipelineConfig`], [`QueryOptions`], [`Level`]) are
//! re-exported at the root so examples never reach into
//! subcrates. Errors from every layer unify into [`Error`]. Networked
//! collection (the `cypress serve` / `cypress submit` daemon pair) lives in
//! [`collect`] atop the [`net`](cypress_net) subcrate. See `README.md` for
//! the architecture and `DESIGN.md` for the per-experiment index.

pub mod collect;
pub mod error;
pub mod pipeline;
pub mod telemetry;

pub use collect::{write_collected_container, write_collected_container_with};
pub use error::{Error, Result};
pub use pipeline::{read_container, CompressedJob, Ingest, MetaInfo, Pipeline, PipelineConfig};
pub use telemetry::{StageSummary, TelemetrySummary, TELEMETRY_VERSION};

pub use cypress_deflate::Level;
pub use cypress_query::QueryOptions;

pub use cypress_analysis as analysis;
pub use cypress_baselines as baselines;
pub use cypress_core as core;
pub use cypress_cst as cst;
pub use cypress_deflate as deflate;
pub use cypress_minilang as minilang;
pub use cypress_net as net;
pub use cypress_obs as obs;
pub use cypress_query as query;
pub use cypress_runtime as runtime;
pub use cypress_simmpi as simmpi;
pub use cypress_staticir as staticir;
pub use cypress_store as store;
pub use cypress_trace as trace;
pub use cypress_workloads as workloads;
