//! # cypress-store — zero-copy trace store and resident query daemon
//!
//! A `.cytc` container is a directly servable analysis artifact; this crate
//! makes serving *directories* of them cheap:
//!
//! * [`StoreJob`] — one opened container, holding only what it answers
//!   from: the CST and the per-rank CTTs, decoded into pooled
//!   [`cypress_core::CttSlab`]s in rank order, or the merged tree. Opening
//!   serves raw sections as slices of the image and inflates each deflated
//!   section it reads once, into a [`cypress_trace::PayloadArena`] dropped
//!   with the image when `open` returns. It is the one job opener:
//!   `cypress::read_container` and `cypress inspect` open through it too.
//! * [`JobStore`] — a directory of jobs behind an LRU of hot handles with
//!   byte- and entry-count budgets ([`StoreConfig`]), duplicate-open
//!   coalescing, and hit/miss/eviction metrics ([`StoreStats`], mirrored
//!   into the `store` observability scope).
//! * [`serve`]/[`spawn`] + [`QueryClient`] — `cypress queryd`: the store
//!   as a frame handler on the net crate's one server loop
//!   (`QueryRequest`/`QueryResponse` and `AnalyzeRequest`/`AnalyzeResponse`
//!   with self-versioned option/result blobs), persistent multiplexed
//!   connections, clean protocol errors.
//!
//! Evicted jobs are only *unpinned*: readers holding an `Arc<StoreJob>`
//! keep a valid handle; memory is reclaimed when the last clone drops.

mod client;
mod job;
mod serve;
mod store;

pub use client::{analyze_remote, query_remote, QueryClient};
pub use job::StoreJob;
pub use serve::{serve, spawn, ServerHandle};
pub use store::{JobStore, StoreConfig, StoreStats};

use cypress_query::QueryError;
use cypress_trace::{ContainerError, DecodeError};
use std::fmt;

/// Store failures, layered like the rest of the workspace.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem I/O (reading images, scanning the store directory).
    Io(std::io::Error),
    /// Container framing/CRC/section problems.
    Container(ContainerError),
    /// Malformed codec bytes inside a section or a wire blob.
    Decode(DecodeError),
    /// Compressed-domain query failure.
    Query(QueryError),
    /// Transport or frame-level failure talking to a daemon.
    Net(cypress_net::NetError),
    /// The named job has no `.cytc` file in the store directory.
    NotFound(String),
    /// The daemon rejected the request with a protocol error frame.
    Remote { code: u16, message: String },
    /// Bad input: invalid job name, malformed CST text, config misuse.
    Invalid(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::Container(e) => write!(f, "store container error: {e}"),
            StoreError::Decode(e) => write!(f, "store decode error: {e}"),
            StoreError::Query(e) => write!(f, "store query error: {e}"),
            StoreError::Net(e) => write!(f, "store net error: {e}"),
            StoreError::NotFound(name) => write!(f, "job {name:?} not found in store"),
            StoreError::Remote { code, message } => write!(
                f,
                "daemon rejected request ({}): {message}",
                cypress_net::proto::codes::name(*code)
            ),
            StoreError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Container(e) => Some(e),
            StoreError::Decode(e) => Some(e),
            StoreError::Query(e) => Some(e),
            StoreError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ContainerError> for StoreError {
    fn from(e: ContainerError) -> Self {
        StoreError::Container(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

impl From<QueryError> for StoreError {
    fn from(e: QueryError) -> Self {
        StoreError::Query(e)
    }
}

impl From<cypress_net::NetError> for StoreError {
    fn from(e: cypress_net::NetError) -> Self {
        StoreError::Net(e)
    }
}
