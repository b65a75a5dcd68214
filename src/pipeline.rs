//! The `Pipeline` facade — one builder for the whole CYPRESS flow.
//!
//! The original API surface made callers wire four crates by hand: parse
//! with `minilang`, analyze with `cst`, trace every rank with `runtime`,
//! then compress, merge, and persist with `core` — five imports and a page
//! of plumbing for the common "compress this program" case. [`Pipeline`]
//! folds that into one builder:
//!
//! ```
//! use cypress::Pipeline;
//!
//! let mut job = Pipeline::new("fn main() { for i in 0..64 { allreduce(32); } }")
//!     .ranks(8)
//!     .run()
//!     .unwrap();
//! assert_eq!(job.nprocs, 8);
//! assert_eq!(job.ctts[0].record_count(), 1);   // 64 iterations fold to 1 record
//! assert_eq!(job.merge().group_count(), 2);    // all 8 ranks share one group
//! assert_eq!(job.decompress(3).unwrap().len(), 64);
//! ```
//!
//! Compression is in-line, as in the paper's PMPI deployment (§IV): each
//! rank's interpreter feeds a [`CompressSession`] event by event on the
//! worker that runs the rank, so the raw trace never materializes.

use crate::error::{Error, Result};
use cypress_core::{
    decompress, merge_all, CompressConfig, CompressSession, Ctt, MergedCtt, ReplayOp,
    SessionConfig, SessionStats,
};
use cypress_cst::{analyze_program, StaticInfo};
use cypress_deflate::Level;
use cypress_minilang::{check_program, parse};
use cypress_obs::{Histogram, TIME_BOUNDS_NS};
use cypress_query::{has_complete_rank_set, query_ctts, QueryOptions, QueryResult};
use cypress_runtime::{run_rank_with_sink, run_ranks, InterpConfig};
use cypress_store::StoreJob;
use cypress_trace::{
    encode_parts, encode_payload, Codec, Container, ContainerError, Cursor, EncodedSection,
    Encoder, Part, SectionKind,
};
use std::borrow::Cow;
use std::path::Path;

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

// Pipeline stage timing (scope `pipeline`): with `--metrics` the report
// attributes wall time to ingest (rank execution + compression) vs merge vs
// encode (section serialization/deflate) vs I/O (atomic file write).
static INGEST_NS: Histogram = Histogram::new("pipeline", "ingest_ns", &TIME_BOUNDS_NS);
static MERGE_NS: Histogram = Histogram::new("pipeline", "merge_ns", &TIME_BOUNDS_NS);
static ENCODE_NS: Histogram = Histogram::new("pipeline", "encode_ns", &TIME_BOUNDS_NS);
static IO_NS: Histogram = Histogram::new("pipeline", "io_ns", &TIME_BOUNDS_NS);

/// What one section of a job container is made from. The CTTs stay trees
/// until the worker that deflates their section encodes them, so their
/// `to_bytes` fans out across the section pool with the deflate, and the
/// merged tree's encode splits further, into slot-range chunks
/// ([`MergedCtt::encode_chunks`]).
pub(crate) enum Payload<'a> {
    Bytes(Cow<'a, [u8]>),
    Merged(&'a MergedCtt),
    Rank(&'a Ctt),
}

impl Payload<'_> {
    /// The section's stored form: every byte CRC'd once, where it is made.
    fn encode(&self, kind: SectionKind, rank: Option<u32>, level: Option<Level>) -> EncodedSection {
        match self {
            Payload::Bytes(b) => encode_payload(kind, rank, &b[..], level),
            Payload::Merged(m) => encode_parts(kind, rank, m.encode_chunks(Part::new), level),
            Payload::Rank(c) => encode_payload(kind, rank, c.to_bytes(), level),
        }
    }
}

/// One section of the `.cytc` layout [`job_sections`] lays out.
pub(crate) type JobSection<'a> = (SectionKind, Option<u32>, Payload<'a>);

/// The one `.cytc` section layout, for locally compressed and collected
/// jobs alike: tool metadata, CST text, the merged CTT unless `rank_ctts`
/// covers every rank, one CRC-framed section per `(rank, CTT)` in
/// `rank_ctts`, then the optional telemetry summary (see
/// [`crate::telemetry`]).
///
/// The merged tree is `merge_all` of the rank trees, and a reader with the
/// complete set never decodes it ([`StoreJob::open`] uses the same
/// [`has_complete_rank_set`] rule), so it is stored only for a job whose
/// rank sections leave it as the one source of some rank: a merged-only job,
/// or one that keeps some ranks. `merged` is called only then.
pub(crate) fn job_sections<'a>(
    meta: &MetaInfo,
    cst_text: &'a str,
    merged: impl FnOnce() -> &'a MergedCtt,
    rank_ctts: Vec<(u32, Payload<'a>)>,
    telemetry: Option<&crate::telemetry::TelemetrySummary>,
) -> Vec<JobSection<'a>> {
    let mut sections = vec![
        (
            SectionKind::Meta,
            None,
            Payload::Bytes(meta.to_bytes().into()),
        ),
        (
            SectionKind::CstText,
            None,
            Payload::Bytes(cst_text.as_bytes().into()),
        ),
    ];
    if !has_complete_rank_set(meta.nprocs, rank_ctts.iter().map(|(rank, _)| *rank)) {
        sections.push((SectionKind::MergedCtt, None, Payload::Merged(merged())));
    }
    sections.extend(
        rank_ctts
            .into_iter()
            .map(|(rank, ctt)| (SectionKind::RankCtt, Some(rank), ctt)),
    );
    if let Some(t) = telemetry {
        sections.push((
            SectionKind::Telemetry,
            None,
            Payload::Bytes(t.to_bytes().into()),
        ));
    }
    sections
}

/// Write a job container atomically. Each section is made into bytes and
/// deflated at `level` on a work-stealing pool of `threads` workers, its CRC
/// taken there too, and [`Container::write`] streams the sections in index
/// order into the file: the image is byte-identical at every thread count.
pub(crate) fn write_job_container(
    path: &Path,
    nprocs: u32,
    sections: &[JobSection<'_>],
    level: Option<Level>,
    threads: usize,
) -> std::result::Result<(), ContainerError> {
    let encoded = {
        let _span = ENCODE_NS
            .span("encode", "container")
            .arg(sections.len() as u64);
        let encode = |index: usize| {
            let (kind, rank, payload) = &sections[index];
            let encoded = payload.encode(*kind, *rank, level);
            if encoded.stored_len() == 0 {
                return Err(ContainerError::EmptySection {
                    index,
                    kind: kind.name(),
                });
            }
            Ok(encoded)
        };
        let encoded: Vec<_> = if threads > 1 && sections.len() > 1 {
            run_ranks(sections.len() as u32, threads, |i| encode(i as usize))
        } else {
            (0..sections.len()).map(encode).collect()
        };
        encoded
            .into_iter()
            .collect::<std::result::Result<Vec<_>, _>>()?
    };
    let stored = encoded
        .iter()
        .map(EncodedSection::stored_len)
        .sum::<usize>();
    let _span = IO_NS.span("io", "write_container").arg(stored as u64);
    Container::write(path, nprocs, &encoded)
}

// Placeholder for `benchmark/`, which still names the three ingest modes:
// every variant runs the one in-line path. Goes with ROADMAP item 1 step (a).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Ingest {
    Batch,
    #[default]
    Sequential,
    Pipelined,
}

impl Ingest {
    pub fn pipelined() -> Self {
        Ingest::Pipelined
    }
}

/// Everything a [`Pipeline`] run needs beyond the program and rank count —
/// the typed replacement for the builder's accreted per-knob methods. Ranks
/// compress with the default [`CompressConfig`] and [`SessionConfig`]: the
/// paper's window of one, relative ranks, and the default checkpoint
/// cadence (`compress_trace` takes the ablation's other settings).
///
/// ```
/// use cypress::{Level, Pipeline, PipelineConfig};
///
/// let cfg = PipelineConfig {
///     threads: 2,
///     level: Some(Level::Default),
///     ..PipelineConfig::default()
/// };
/// let job = Pipeline::new("fn main() { barrier(); }")
///     .ranks(2)
///     .configure(cfg)
///     .run()
///     .unwrap();
/// assert_eq!(job.nprocs, 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Interpreter knobs (step budget).
    pub interp: InterpConfig,
    /// Worker-pool width for rank execution and section encoding.
    pub threads: usize,
    // Placeholder for `benchmark/`; [`Pipeline::run`] never reads it. Goes
    // with ROADMAP item 1 step (a).
    #[doc(hidden)]
    pub mode: Ingest,
    /// DEFLATE container sections at this level when persisting
    /// ([`CompressedJob::write_container`]); `None` stores raw sections.
    pub level: Option<Level>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            interp: InterpConfig::default(),
            threads: default_threads(),
            mode: Ingest::Sequential,
            level: None,
        }
    }
}

/// Builder for a full compression run over a MiniMPI program.
#[derive(Debug, Clone)]
pub struct Pipeline {
    source: String,
    nprocs: u32,
    cfg: PipelineConfig,
}

impl Pipeline {
    /// Start a pipeline over MiniMPI source text. Defaults: 4 ranks and
    /// [`PipelineConfig::default`] (one worker per available core).
    pub fn new(source: impl Into<String>) -> Self {
        Pipeline {
            source: source.into(),
            nprocs: 4,
            cfg: PipelineConfig::default(),
        }
    }

    /// Number of simulated MPI ranks.
    pub fn ranks(mut self, nprocs: u32) -> Self {
        self.nprocs = nprocs;
        self
    }

    /// Replace the whole run configuration.
    pub fn configure(mut self, cfg: PipelineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Parse, analyze, execute every rank, and compress. Ranks run on a
    /// work-stealing pool of [`PipelineConfig::threads`] workers, each
    /// interpreter feeding its own [`CompressSession`] in lockstep.
    pub fn run(self) -> Result<CompressedJob> {
        if self.nprocs == 0 {
            return Err(Error::Invalid("pipeline needs at least 1 rank".into()));
        }
        let Pipeline {
            source,
            nprocs,
            cfg,
        } = self;
        let (prog, info) = {
            let _t = cypress_obs::trace_span("parse", "analyze");
            let prog = parse(&source)?;
            check_program(&prog)?;
            let info = analyze_program(&prog);
            (prog, info)
        };

        let ingest = INGEST_NS.span("ingest", "run_ranks").arg(nprocs as u64);
        let per_rank = run_ranks(nprocs, cfg.threads, |rank| {
            // Rank span on the worker thread: the session's synthetic
            // complete event nests inside it, splitting interpreter time
            // from compression time in the profile.
            let _t = cypress_obs::trace_span("interp", "rank");
            let mut session = CompressSession::new(
                &info.cst,
                rank,
                nprocs,
                CompressConfig::default(),
                SessionConfig::default(),
            );
            let app_time =
                run_rank_with_sink(&prog, &info, rank, nprocs, &cfg.interp, &mut session)?;
            Ok(session.finish(app_time))
        });
        let mut ctts = Vec::with_capacity(per_rank.len());
        let mut stats = Vec::with_capacity(per_rank.len());
        for r in per_rank {
            let (ctt, st) = r.map_err(Error::Runtime)?;
            ctts.push(ctt);
            stats.push(st);
        }
        drop(ingest);

        Ok(CompressedJob {
            info,
            nprocs,
            ctts,
            stats,
            merged: None,
            threads: cfg.threads,
            level: cfg.level,
        })
    }
}

/// The output of [`Pipeline::run`]: static analysis plus every rank's CTT,
/// with merging, decompression, and persistence as methods.
pub struct CompressedJob {
    /// Static analysis (CST, site map) of the program.
    pub info: StaticInfo,
    pub nprocs: u32,
    /// Per-rank compressed trace trees, indexed by rank.
    pub ctts: Vec<Ctt>,
    /// Per-rank session accounting, indexed by rank.
    pub stats: Vec<SessionStats>,
    /// Cached merge result; populated by [`CompressedJob::merge`].
    pub merged: Option<MergedCtt>,
    threads: usize,
    /// Section compression level for [`CompressedJob::write_container`].
    level: Option<Level>,
}

impl CompressedJob {
    /// Merge all rank CTTs with [`merge_all`], once: later calls return the
    /// cached tree.
    pub fn merge(&mut self) -> &MergedCtt {
        merged_of(&mut self.merged, &self.ctts)
    }

    /// Replay one rank's exact MPI operation sequence.
    pub fn decompress(&self, rank: u32) -> Result<Vec<ReplayOp>> {
        let ctt = self
            .ctts
            .get(rank as usize)
            .ok_or_else(|| Error::Invalid(format!("rank {rank} out of 0..{}", self.nprocs)))?;
        Ok(decompress(&self.info.cst, ctt))
    }

    /// Run the full compressed-domain query suite (volume matrix, per-op
    /// profile, per-rank totals, GID hot spots) directly on the per-rank
    /// CTTs — no decompression, O(|CTT|) for non-recursive programs.
    pub fn query(&self) -> Result<QueryResult> {
        self.query_with(&QueryOptions::default())
    }

    /// [`CompressedJob::query`] with explicit strategy/reporting knobs.
    pub fn query_with(&self, opts: &QueryOptions) -> Result<QueryResult> {
        Ok(query_ctts(&self.info.cst, &self.ctts, opts)?)
    }

    /// Total MPI events this job traced.
    pub fn total_events(&self) -> u64 {
        self.stats.iter().map(|s| s.mpi_events).sum()
    }

    /// Serialized size of the raw MPI records this job would have written
    /// without compression.
    pub fn raw_mpi_bytes(&self) -> u64 {
        self.stats.iter().map(|s| s.raw_mpi_bytes).sum()
    }

    /// Peak live CTT bytes across ranks.
    pub fn peak_ctt_bytes(&self) -> usize {
        self.stats
            .iter()
            .map(|s| s.peak_ctt_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Persist the job as a versioned container: tool metadata, CST text,
    /// and every rank's CTT as its own CRC-framed section when `per_rank`
    /// is set, else the merged CTT (see [`job_sections`]). Merges first only
    /// when the merged CTT is written and not already merged.
    pub fn write_container(&mut self, path: impl AsRef<Path>, per_rank: bool) -> Result<()> {
        self.write_container_with(path, per_rank, None)
    }

    /// [`CompressedJob::write_container`] with an optional telemetry
    /// summary persisted as a trailing [`SectionKind::Telemetry`] section
    /// (see [`crate::telemetry`]), so `cypress inspect` can report how the
    /// job was produced.
    pub fn write_container_with(
        &mut self,
        path: impl AsRef<Path>,
        per_rank: bool,
        telemetry: Option<&crate::telemetry::TelemetrySummary>,
    ) -> Result<()> {
        let meta = MetaInfo::new(self.nprocs, self.total_events(), self.raw_mpi_bytes());
        let cst_text = self.info.cst.to_text();
        let rank_ctts = self.ctts.iter().filter(|_| per_rank);
        let (ctts, slot) = (&self.ctts, &mut self.merged);
        let sections = job_sections(
            &meta,
            &cst_text,
            || merged_of(slot, ctts),
            rank_ctts.map(|c| (c.rank, Payload::Rank(c))).collect(),
            telemetry,
        );
        write_job_container(
            path.as_ref(),
            self.nprocs,
            &sections,
            self.level,
            self.threads,
        )?;
        Ok(())
    }
}

/// The merged tree of `ctts`, made with [`merge_all`] on first use and kept
/// in `slot`.
fn merged_of<'a>(slot: &'a mut Option<MergedCtt>, ctts: &[Ctt]) -> &'a MergedCtt {
    slot.get_or_insert_with(|| {
        let _span = MERGE_NS.span("merge", "merge").arg(ctts.len() as u64);
        merge_all(ctts)
    })
}

/// Tool metadata stored in a container's `Meta` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetaInfo {
    pub tool: String,
    pub version: String,
    pub nprocs: u32,
    /// Total MPI events the job traced.
    pub events: u64,
    /// Serialized size of the raw MPI records before compression.
    pub raw_bytes: u64,
}

impl MetaInfo {
    /// What this build records about a job it writes.
    pub fn new(nprocs: u32, events: u64, raw_bytes: u64) -> MetaInfo {
        MetaInfo {
            tool: "cypress".into(),
            version: env!("CARGO_PKG_VERSION").into(),
            nprocs,
            events,
            raw_bytes,
        }
    }
}

/// The `Meta` section payload: every field, nothing after the last one.
impl Codec for MetaInfo {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.tool);
        enc.put_str(&self.version);
        enc.put_uvar(self.nprocs as u64);
        enc.put_uvar(self.events);
        enc.put_uvar(self.raw_bytes);
    }

    fn decode(cur: &mut Cursor<'_>) -> Option<Self> {
        Some(MetaInfo {
            tool: cur.str()?,
            version: cur.str()?,
            nprocs: cur.u32("meta nprocs")?,
            events: cur.uvar()?,
            raw_bytes: cur.uvar()?,
        })
    }
}

/// Open a container written by [`CompressedJob::write_container`] or a
/// collector through the one job opener, [`StoreJob::open`], named by its
/// path as the CLI names it. Framing and every CRC are verified; per-rank
/// sections decode into pooled slabs, the merged tree only when they do not
/// cover every rank.
pub fn read_container(path: impl AsRef<Path>) -> Result<StoreJob> {
    let path = path.as_ref();
    Ok(StoreJob::open(path, &path.to_string_lossy())?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STENCIL: &str = r#"fn main() {
        for it in 0..40 {
            let up = isend((rank() + 1) % size(), 512, 1);
            let dn = irecv((rank() + size() - 1) % size(), 512, 1);
            waitall(up, dn);
            if it % 10 == 0 { allreduce(8); }
        }
        barrier();
    }"#;

    /// The in-line path against the offline reference: record every rank's
    /// raw trace, then compress it.
    #[test]
    fn streaming_and_batch_produce_identical_ctts() {
        let cfg = PipelineConfig {
            threads: 3,
            ..PipelineConfig::default()
        };
        let a = Pipeline::new(STENCIL)
            .ranks(6)
            .configure(cfg.clone())
            .run()
            .unwrap();
        let traces = cypress_runtime::trace_program_parallel(
            &parse(STENCIL).unwrap(),
            &a.info,
            6,
            &cfg.interp,
            3,
        )
        .unwrap();
        let b: Vec<Ctt> = traces
            .iter()
            .map(|t| cypress_core::compress_trace(&a.info.cst, t, &CompressConfig::default()))
            .collect();
        assert_eq!(a.ctts, b);
        assert_eq!(a.stats.len(), 6);
        assert!(a.peak_ctt_bytes() > 0);
    }

    #[test]
    fn container_round_trip_preserves_replay() {
        let dir = std::env::temp_dir().join(format!("cypress-pipe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.cytc");

        let mut job = Pipeline::new(STENCIL).ranks(4).run().unwrap();
        job.write_container(&path, true).unwrap();

        let loaded = read_container(&path).unwrap();
        assert_eq!(loaded.nprocs(), 4);
        assert!(loaded.has_complete_rank_set());
        for rank in 0..4 {
            assert_eq!(
                loaded.decompress(rank).unwrap(),
                job.decompress(rank).unwrap(),
                "rank {rank}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_needs_every_field_and_a_32_bit_nprocs() {
        let good = MetaInfo::new(4, 1000, 64_000).to_bytes();
        let meta = MetaInfo::from_bytes(&good).unwrap();
        assert_eq!(
            (meta.nprocs, meta.events, meta.raw_bytes),
            (4, 1000, 64_000)
        );
        // raw_bytes, then events too, cut off the end: no field defaults to 0.
        for cut in [good.len() - 1, good.len() - 4] {
            assert!(MetaInfo::from_bytes(&good[..cut]).is_err(), "cut at {cut}");
        }

        let mut enc = Encoder::new();
        enc.put_str("cypress");
        enc.put_str("0.1.0");
        enc.put_uvar((1 << 32) + 4); // would narrow to a 4-rank job
        enc.put_uvar(1000);
        enc.put_uvar(64_000);
        match MetaInfo::from_bytes(&enc.finish()) {
            Err(e) => assert!(e.0.contains("nprocs"), "{e}"),
            other => panic!(
                "expected Corrupt naming nprocs, got {:?}",
                other.map(|m| m.nprocs)
            ),
        }
    }

    #[test]
    fn zero_ranks_is_an_error_not_a_panic() {
        assert!(matches!(
            Pipeline::new(STENCIL).ranks(0).run(),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn parse_errors_surface_as_lang() {
        assert!(matches!(
            Pipeline::new("fn main( {").run(),
            Err(Error::Lang(_))
        ));
    }
}
