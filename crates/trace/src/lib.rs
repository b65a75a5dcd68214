//! # cypress-trace — event model, raw traces, codec, comm matrices
//!
//! Shared vocabulary of the whole system: MPI event records and structure
//! markers ([`event`]), per-process raw traces with a compact varint binary
//! encoding ([`raw`], [`codec`]), communication-volume matrices used by
//! the paper's pattern-analysis figures ([`commmatrix`]), and the versioned
//! CRC-checked on-disk container that persists whole compression jobs
//! ([`container`]).

pub mod codec;
pub mod commmatrix;
pub mod container;
pub mod event;
pub mod profile;
pub mod raw;
pub mod textfmt;
pub mod view;

pub use codec::{Codec, Cursor, DecodeError, DecodeResult, Encoder};
pub use commmatrix::CommMatrix;
pub use container::{
    assemble, encode_parts, encode_payload, encode_section, is_container, Container,
    ContainerError, EncodedSection, Part, Section, SectionKind, CONTAINER_MAGIC, CONTAINER_VERSION,
};
pub use event::{Event, EventSink, MpiOp, MpiParams, MpiRecord, ANY_SOURCE, NONE};
pub use profile::{size_bucket, OpStats, Profile};
pub use raw::{encode_mpi_events, raw_mpi_size, RawTrace};
pub use textfmt::{format_record, format_trace};
pub use view::{PayloadArena, SectionInfo, SectionTable};
