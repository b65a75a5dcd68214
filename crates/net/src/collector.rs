//! The collector daemon.
//!
//! One [`Collector`] gathers a whole job: it accepts many concurrent
//! clients (TCP or Unix sockets), feeds each stream-mode client into its
//! own [`CompressSession`] so raw events never accumulate server-side, and
//! takes in finished rank CTTs **as they arrive**: the root reduces each
//! through a [`BinomialMerger`] at once, with no barrier on the full rank
//! set, and a relay holds its shard and merges it once it is complete.
//!
//! Sockets, buffers and wake-ups belong to [`crate::server`]; this module
//! is the collection [`Handler`] on it — a per-connection state machine
//! ([`ConnState`]) that advances on whole frames, on the one listener its
//! clients use. The job is one [`Job`], installed by the first valid
//! `Hello`; every submission state carries it and the rank its `Hello`
//! named. A connection whose first frame is `StatsRequest` instead gets one
//! live [`Stats`] snapshot and is closed: the protocol state is per
//! connection, so a poll never touches a submission.
//!
//! Two roles share that handler:
//!
//! - **Root** (plain `serve`): completes when all `nprocs` ranks are
//!   merged, yields the [`CollectedJob`].
//! - **Relay** (`serve --tree`, started by [`crate::tree::spawn_tree`]):
//!   accepts only a contiguous rank shard. It checks each rank as the root
//!   does, holds its slab and acknowledges it at once; no merge runs on the
//!   ack path. Once the shard is complete it folds every run of held ranks
//!   into a *global-sized* [`BinomialMerger`] with
//!   [`BinomialMerger::add_run`], one vertex-by-vertex `merge_all` per
//!   aligned buddy piece, then forwards the merger's buddy blocks upstream
//!   as raw `MergedBlock` frames. Because a global-sized merger's blocks are
//!   aligned on the global association tree, the root absorbing them is
//!   byte-identical to a local `merge_all` — relaying never perturbs the
//!   merge.
//!
//! Failure model: a client that disconnects (or corrupts a frame)
//! mid-stream loses only its own partial session — the collector discards
//! it and the retried client re-streams from scratch. A rank submitted
//! twice (a retry whose first attempt actually landed) is acknowledged and
//! discarded; the merge and a relay's held shard are
//! first-completion-wins, so a killed-and-retried client can never corrupt
//! the merged job. A relay
//! retry re-forwarding blocks that already landed is absorbed the same way
//! (duplicate blocks are no-ops). A dead relay surfaces as a deadline
//! failure at the root naming the shard's missing ranks — loud, never a
//! hang.

use crate::client::{submit_merged_blocks, ClientConfig};
use crate::proto::{codes, Frame, Hello, MergedBlock, SubmitMode, PROTO_VERSION};
use crate::server::{Handler, Outbox, Server};
use crate::stats::{ClientStat, ClientState, QuantileStat, Stats, STATS_VERSION};
use crate::transport::{Addr, Listener};
use crate::{obs, NetError};
use cypress_core::{
    buddy_pieces, check_shape, BinomialMerger, CompressConfig, CompressSession, Ctt, CttSlab,
    MergedCtt, SessionConfig, SessionStats,
};
use cypress_cst::Cst;
use cypress_deflate::crc32;
use cypress_obs::{obs_log, Level};
use cypress_obs::{Histogram, TIME_BOUNDS_NS};
use cypress_trace::codec::Codec;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Collector knobs. The collector runs one event loop per core, capped at
/// 8, as queryd does (`Server::new(0)`); stream-mode sessions compress
/// with the default `CompressConfig` and `SessionConfig`, and a connection
/// silent for [`IO_TIMEOUT`] mid-protocol is dropped.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Keep every rank's CTT (exact per-rank timing in queries and
    /// `--per-rank` containers) in addition to the incremental merge.
    pub keep_rank_ctts: bool,
    /// Overall wall-clock budget; when it expires with ranks missing the
    /// run fails listing them instead of hanging forever.
    pub deadline: Option<Duration>,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            keep_rank_ctts: true,
            deadline: None,
        }
    }
}

/// Everything a finished collection produced — the networked counterpart
/// of the local pipeline's `CompressedJob`.
#[derive(Debug)]
pub struct CollectedJob {
    pub nprocs: u32,
    pub cst: Cst,
    /// Canonical CST text as received in the first `Hello` (persisted
    /// verbatim into containers).
    pub cst_text: String,
    /// The binomial-merged whole-job tree — byte-identical to a local
    /// `merge_all` over the same rank CTTs. Read it through
    /// [`merged`](Self::merged); the field stays public while
    /// `benchmark/` reads it directly.
    pub merged: MergedCtt,
    /// Per-rank CTT bytes `(rank, bytes)` in rank order, as a `RankCtt`
    /// section stores them: what a ctt-mode client sent, or the
    /// encoding of a stream-mode session's tree. Empty when
    /// [`CollectorConfig::keep_rank_ctts`] is off, and always empty for
    /// ranks that arrived as relay blocks.
    pub rank_ctts: Vec<(u32, Vec<u8>)>,
    /// Total MPI events across ranks (session accounting for stream mode,
    /// record counts for ctt mode, relay-reported totals for blocks mode).
    pub total_events: u64,
    /// Raw serialized size of the MPI records before compression (stream
    /// mode only; 0 for ctt-mode ranks).
    pub raw_mpi_bytes: u64,
}

impl CollectedJob {
    /// The whole job's merged tree.
    pub fn merged(&self) -> &MergedCtt {
        &self.merged
    }
}

/// The job, fixed by the first valid `Hello`: its CST, size and merge.
/// Later clients must match it exactly (CRC over the canonical CST text).
struct Job {
    nprocs: u32,
    cst_text: String,
    cst_crc: u32,
    cst: Cst,
    merge: Mutex<Merge>,
}

/// The incremental merge and the job's accounting.
struct Merge {
    merger: BinomialMerger,
    /// A relay's checked ranks, kept until its shard is complete
    /// (`run_relay` merges them then). Always empty at the root.
    held: BTreeMap<u32, CttSlab>,
    rank_ctts: Vec<(u32, Vec<u8>)>,
    total_events: u64,
    raw_mpi_bytes: u64,
    /// Per-rank submission state and received-event counts, feeding the
    /// live [`Stats`] snapshot. Rank-keyed: a retry of a merged rank never
    /// regresses its state.
    clients: BTreeMap<u32, (ClientState, u64)>,
}

impl Merge {
    /// Whether this rank is merged, held, or covered by a block.
    fn has_rank(&self, rank: u32) -> bool {
        self.merger.has_rank(rank) || self.held.contains_key(&rank)
    }

    /// Ranks merged or held: what `FinAck`, the stats and completion count.
    fn received(&self) -> u32 {
        self.merger.received() + self.held.len() as u32
    }
}

impl Job {
    fn lock(&self) -> MutexGuard<'_, Merge> {
        self.merge.lock().unwrap()
    }

    /// Mark a rank's submission state, never downgrading `Merged` (a late
    /// duplicate or abort of a rank that already landed changes nothing).
    fn mark_client(&self, rank: u32, st: ClientState) {
        let mut m = self.lock();
        let e = m.clients.entry(rank).or_insert((st, 0));
        if e.0 != ClientState::Merged {
            e.0 = st;
        }
    }
}

struct State {
    job: OnceLock<Job>,
    /// The first collection-wide failure. A job that completes anyway
    /// still succeeds.
    fatal: Mutex<Option<String>>,
    started: Instant,
}

/// Which slice of the job this collector is responsible for.
#[derive(Debug, Clone, Copy)]
enum Role {
    /// The whole job.
    Root,
    /// Ranks `[first, last)` of an `nprocs`-rank job.
    Relay { first: u32, last: u32, nprocs: u32 },
}

impl Role {
    fn expected(&self, job_nprocs: u32) -> u32 {
        match self {
            Role::Root => job_nprocs,
            Role::Relay { first, last, .. } => last - first,
        }
    }
}

// Collector-side measurements feeding the `Stats` quantile rows. These use
// the ungated [`Histogram::record`] path so the stats endpoint reports real
// numbers whether or not the daemon runs with metrics enabled.
/// Events per `Events` frame (client batch sizes as received).
static BATCH_EVENTS: Histogram =
    Histogram::new("collector", "batch_events", &[1, 8, 64, 512, 4096, 32768]);
/// Wall time of one merge step at the root (`BinomialMerger::add` or
/// `add_block`); a relay's ranks take none.
static MERGE_STEP_NS: Histogram = Histogram::new("collector", "merge_step_ns", &TIME_BOUNDS_NS);

/// Everything the handler needs, cheap to copy into each event loop.
#[derive(Clone, Copy)]
struct Shared<'a> {
    state: &'a State,
    cfg: &'a CollectorConfig,
    role: Role,
    server: &'a Server,
}

/// Record a collection-wide failure (first one wins) and stop the loops.
fn fail_collection(sh: Shared<'_>, msg: String) {
    sh.state.fatal.lock().unwrap().get_or_insert(msg);
    sh.server.stop();
}

/// Protocol position of one multiplexed connection. A submission's states
/// carry the job its `Hello` joined and the rank that `Hello` named.
#[derive(Default)]
enum ConnState<'a> {
    /// Accepted: a `Hello` opens a submission, a `StatsRequest` is answered.
    #[default]
    AwaitHello,
    Streaming {
        job: &'a Job,
        rank: u32,
        session: Box<CompressSession<'a>>,
        count: u64,
    },
    AwaitCtt {
        job: &'a Job,
        rank: u32,
    },
    Blocks {
        job: &'a Job,
        rank: u32,
        nblocks: u64,
    },
    /// Terminal: everything left to do is flush the replies and close.
    Done,
}

impl ConnState<'_> {
    /// This connection's submission ended without merging.
    fn mark_aborted(&self) {
        match *self {
            ConnState::Streaming { job, rank, .. } => {
                obs::SESSIONS_ABORTED.inc();
                job.mark_client(rank, ClientState::Aborted);
            }
            ConnState::AwaitCtt { job, rank } | ConnState::Blocks { job, rank, .. } => {
                job.mark_client(rank, ClientState::Aborted);
            }
            ConnState::AwaitHello | ConnState::Done => {}
        }
    }
}

/// A connection silent this long mid-protocol is dropped (its client
/// retries from scratch).
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The collector as a [`Handler`]: the server loop owns sockets, buffers
/// and wake-ups, this owns what the frames mean.
impl<'a> Handler for Shared<'a> {
    type Conn = ConnState<'a>;

    fn on_frame(&self, c: &mut ConnState<'a>, frame: Frame, out: &mut Outbox) {
        let st = std::mem::replace(c, ConnState::Done);
        *c = match handle_frame(*self, st, frame, out) {
            Ok(next) => next,
            // A refused frame: answer with an `Error` frame, then flush and close.
            Err((refused_in, (code, message))) => {
                refused_in.mark_aborted();
                let name = codes::name(code);
                obs_log!(Level::Warn, "net", "rejecting client ({name}): {message}");
                out.send(&Frame::Error { code, message });
                out.close();
                ConnState::Done
            }
        };
    }

    /// Abort bookkeeping for a connection dropped mid-protocol.
    fn on_drop(&self, c: &mut ConnState<'a>, why: &str) {
        if !matches!(c, ConnState::Done) {
            c.mark_aborted();
            obs_log!(Level::Warn, "net", "connection dropped: {why}");
        }
    }

    fn idle_timeout(&self) -> Option<Duration> {
        Some(IO_TIMEOUT)
    }

    fn deadline(&self) -> Option<Instant> {
        self.cfg.deadline.map(|d| self.state.started + d)
    }

    fn on_deadline(&self) {
        let missing = match (self.state.job.get(), self.role) {
            (Some(job), role) => {
                let (first, last) = match role {
                    Role::Root => (0, job.nprocs),
                    Role::Relay { first, last, .. } => (first, last),
                };
                let m = job.lock();
                let v: Vec<u32> = (first..last).filter(|&r| !m.has_rank(r)).collect();
                format!("{v:?}")
            }
            // No client ever connected, but a relay still
            // knows exactly which ranks it was waiting for.
            (None, Role::Relay { first, last, .. }) => {
                format!("{:?}", (first..last).collect::<Vec<u32>>())
            }
            (None, Role::Root) => "all".into(),
        };
        let deadline = self.cfg.deadline.unwrap_or_default();
        fail_collection(
            *self,
            format!("deadline {deadline:?} exceeded with ranks missing: {missing}"),
        );
    }

    fn on_accept_error(&self, e: std::io::Error) {
        fail_collection(*self, format!("listener failed: {e}"));
    }
}

/// A bound collector. Binding is split from running so callers (tests, the
/// bench, `cypress serve` with port 0) can learn the resolved address
/// before clients start.
pub struct Collector {
    listener: Listener,
}

impl Collector {
    pub fn bind(addr: &Addr) -> Result<Collector, NetError> {
        Ok(Collector {
            listener: Listener::bind(addr)?,
        })
    }

    /// The resolved listen address (ephemeral TCP ports filled in).
    pub fn local_addr(&self) -> Result<Addr, NetError> {
        self.listener.local_addr()
    }

    /// Serve until every rank of the job (sized by the first `Hello`) is
    /// merged, then return the collected job. Blocks the calling thread
    /// (which runs event loop 0).
    pub fn run(self, cfg: &CollectorConfig) -> Result<CollectedJob, NetError> {
        let job = run_core(&self.listener, cfg, Role::Root)?;
        let m = job.merge.into_inner().unwrap();
        let mut rank_ctts = m.rank_ctts;
        rank_ctts.sort_by_key(|&(rank, _)| rank);
        Ok(CollectedJob {
            nprocs: job.nprocs,
            cst: job.cst,
            cst_text: job.cst_text,
            merged: m.merger.finish(),
            rank_ctts,
            total_events: m.total_events,
            raw_mpi_bytes: m.raw_mpi_bytes,
        })
    }

    /// Serve as a mid-tier relay: collect ranks `[first, last)` of an
    /// `nprocs`-rank job, holding each rank's slab, then merge every run of
    /// held ranks and forward the shard's buddy blocks to `upstream` with
    /// `client`'s retry policy. Per-rank CTT retention is a root-only
    /// concern and is off here.
    pub(crate) fn run_relay(
        self,
        (first, last): (u32, u32),
        nprocs: u32,
        upstream: &Addr,
        client: &ClientConfig,
        cfg: &CollectorConfig,
    ) -> Result<(), NetError> {
        let cfg = CollectorConfig {
            keep_rank_ctts: false,
            ..cfg.clone()
        };
        let role = Role::Relay {
            first,
            last,
            nprocs,
        };
        let job = run_core(&self.listener, &cfg, role)?;
        // Free the shard's endpoint before the (possibly retried) upstream
        // submission; nothing else will connect here.
        drop(self);
        let mut m = job.merge.into_inner().unwrap();
        // Fold each maximal run of held ranks one buddy piece at a time, so
        // a piece's slabs are dropped as soon as it is merged.
        while let Some(run_first) = m.held.keys().next().copied() {
            let run_len = m
                .held
                .keys()
                .zip(run_first..)
                .take_while(|(r, want)| **r == *want);
            let run_end = run_first + run_len.count() as u32;
            for (start, len) in buddy_pieces(run_first, run_end) {
                let rest = m.held.split_off(&(start + len));
                let piece: Vec<CttSlab> =
                    std::mem::replace(&mut m.held, rest).into_values().collect();
                m.merger.add_run(&piece).map_err(NetError::Collect)?;
            }
        }
        let blocks = m.merger.into_blocks();
        let mut uploads = Vec::with_capacity(blocks.len());
        for (i, (first_rank, nranks, part)) in blocks.into_iter().enumerate() {
            uploads.push(MergedBlock {
                first_rank,
                nranks,
                // The shard's accounting totals ride on the first block;
                // the root sums per-frame, so totals stay exact even though
                // per-rank attribution is lost above the relay.
                events: if i == 0 { m.total_events } else { 0 },
                raw_mpi_bytes: if i == 0 { m.raw_mpi_bytes } else { 0 },
                bytes: part.to_bytes(),
            });
        }
        let forwarded = uploads.len();
        submit_merged_blocks(upstream, client, nprocs, &job.cst_text, uploads)?;
        obs_log!(
            Level::Info,
            "net",
            "relay for ranks [{first}, {last}) forwarded {forwarded} blocks upstream"
        );
        Ok(())
    }
}

/// Run the server loops until the collection completes or fails; returns
/// the job with every rank of `role` merged.
fn run_core(listener: &Listener, cfg: &CollectorConfig, role: Role) -> Result<Job, NetError> {
    let state = State {
        job: OnceLock::new(),
        fatal: Mutex::new(None),
        started: Instant::now(),
    };
    let server = Server::new(0)?;
    let on = listener.local_addr().map(|a| a.to_string());
    let (on, loops) = (on.unwrap_or_default(), server.loops());
    obs_log!(
        Level::Info,
        "net",
        "collector listening on {on} with {loops} event loops"
    );
    let sh = Shared {
        state: &state,
        cfg,
        role,
        server: &server,
    };
    server.run(&sh, listener)?;
    let fatal = state.fatal.into_inner().unwrap();
    match state.job.into_inner() {
        Some(job) if job.lock().received() == role.expected(job.nprocs) => Ok(job),
        _ => Err(NetError::Collect(
            fatal.unwrap_or_else(|| "stopped with ranks missing".into()),
        )),
    }
}

/// Why a frame is refused: the `Error` frame's code and message.
type Reject = (u16, String);

/// What one frame does to a connection: its next state, or the state that
/// refused the frame and why.
type Step<'a> = Result<ConnState<'a>, (ConnState<'a>, Reject)>;

/// A step that ends the connection when it succeeds and is refused in `st`
/// when it does not.
fn done_or<'a>(st: ConnState<'a>, step: Result<(), Reject>) -> Step<'a> {
    step.map(|()| ConnState::Done).map_err(|r| (st, r))
}

/// The per-connection protocol state machine.
fn handle_frame<'a>(sh: Shared<'a>, st: ConnState<'a>, frame: Frame, out: &mut Outbox) -> Step<'a> {
    match (st, frame) {
        (ConnState::AwaitHello, Frame::Hello(hello)) => {
            on_hello(sh, out, hello).map_err(|r| (ConnState::AwaitHello, r))
        }
        (ConnState::AwaitHello, Frame::StatsRequest) => {
            out.send(&Frame::Stats {
                stats: build_stats(sh.state),
            });
            out.close();
            Ok(ConnState::Done)
        }
        (
            ConnState::Streaming {
                job,
                rank,
                mut session,
                count,
            },
            Frame::Events { events },
        ) => {
            let n = events.len() as u64;
            BATCH_EVENTS.record(n);
            job.lock()
                .clients
                .entry(rank)
                .or_insert((ClientState::Streaming, 0))
                .1 += n;
            session.push_batch(&events);
            Ok(ConnState::Streaming {
                job,
                rank,
                session,
                count: count + n,
            })
        }
        (
            ConnState::Streaming {
                job,
                rank,
                session,
                count,
            },
            Frame::Finish {
                app_time,
                event_count,
            },
        ) => {
            if event_count != count {
                let msg = format!("client sent {event_count} events, collector saw {count}");
                let st = ConnState::Streaming {
                    job,
                    rank,
                    session,
                    count,
                };
                return Err((st, (codes::PROTOCOL, msg)));
            }
            let (ctt, stats) = session.finish(app_time);
            let bytes = sh.cfg.keep_rank_ctts.then(|| ctt.to_bytes());
            let st = ConnState::AwaitCtt { job, rank };
            done_or(
                st,
                merge_in(sh, job, out, Finished::Built(ctt), bytes, stats),
            )
        }
        (st @ ConnState::AwaitCtt { job, rank }, Frame::RankCtt { bytes }) => {
            done_or(st, on_ctt_bytes(sh, job, rank, out, bytes))
        }
        (st @ ConnState::Blocks { job, rank, nblocks }, Frame::MergedBlock(block)) => {
            match on_merged_block(sh, job, block) {
                Ok(()) => Ok(ConnState::Blocks {
                    job,
                    rank,
                    nblocks: nblocks + 1,
                }),
                Err(r) => Err((st, r)),
            }
        }
        (st @ ConnState::Blocks { job, nblocks, .. }, Frame::Finish { event_count, .. }) => {
            // In blocks mode the Finish cross-check counts blocks.
            if event_count != nblocks {
                let msg = format!("relay sent {event_count} blocks, collector saw {nblocks}");
                return Err((st, (codes::PROTOCOL, msg)));
            }
            let ranks_done = job.lock().received();
            out.send(&Frame::FinAck { ranks_done });
            out.close();
            Ok(ConnState::Done)
        }
        (st @ ConnState::AwaitHello, f) => {
            let msg = format!(
                "first frame must be Hello or StatsRequest, got {}",
                f.name()
            );
            Err((st, (codes::PROTOCOL, msg)))
        }
        (st, f) => {
            let msg = format!("unexpected {} frame here", f.name());
            Err((st, (codes::PROTOCOL, msg)))
        }
    }
}

/// Admit a client: the first valid `Hello` installs the job, later ones
/// must match it. Returns the connection's submission state.
fn on_hello<'a>(sh: Shared<'a>, out: &mut Outbox, hello: Hello) -> Result<ConnState<'a>, Reject> {
    let (rank, nprocs) = (hello.rank, hello.nprocs);
    if hello.version != PROTO_VERSION {
        let msg = format!(
            "client speaks protocol version {}, this collector only {PROTO_VERSION}",
            hello.version
        );
        return Err((codes::VERSION, msg));
    }
    if nprocs == 0 || rank >= nprocs {
        let msg = format!("rank {rank} out of range for {nprocs} procs");
        return Err((codes::BAD_RANK, msg));
    }
    if let Role::Relay {
        first,
        last,
        nprocs: shard_nprocs,
    } = sh.role
    {
        if nprocs != shard_nprocs {
            let msg = format!("relay serves a {shard_nprocs}-rank job, client claims {nprocs}");
            return Err((codes::BAD_RANK, msg));
        }
        if rank < first || rank >= last {
            let msg = format!("rank {rank} outside this relay's shard [{first}, {last})");
            return Err((codes::BAD_RANK, msg));
        }
    }

    let client_crc = crc32(hello.cst_text.as_bytes());
    let job = match sh.state.job.get() {
        Some(job) => job,
        None => {
            let cst = Cst::from_text(&hello.cst_text)
                .map_err(|e| (codes::INTERNAL, format!("unparseable CST: {e}")))?;
            // Another loop may have won the race; either way the stored job
            // is authoritative and validated below.
            sh.state.job.get_or_init(|| Job {
                nprocs,
                cst_text: hello.cst_text,
                cst_crc: client_crc,
                cst,
                merge: Mutex::new(Merge {
                    merger: BinomialMerger::new(nprocs),
                    held: BTreeMap::new(),
                    rank_ctts: Vec::new(),
                    total_events: 0,
                    raw_mpi_bytes: 0,
                    clients: BTreeMap::new(),
                }),
            })
        }
    };
    if job.nprocs != nprocs {
        let msg = format!("job has {} procs, client claims {nprocs}", job.nprocs);
        return Err((codes::BAD_RANK, msg));
    }
    if job.cst_crc != client_crc {
        let msg = "client CST differs from the CST this job was opened with";
        return Err((codes::CST_MISMATCH, msg.into()));
    }

    // A relay's Hello rank only identifies the shard; duplicate blocks are
    // per-frame no-ops, so there is no whole-session short-circuit.
    let already_done = hello.mode != SubmitMode::Blocks && job.lock().has_rank(rank);
    out.send(&Frame::HelloAck {
        version: PROTO_VERSION,
        already_done,
    });
    if already_done {
        out.close();
        return Ok(ConnState::Done);
    }
    cypress_obs::trace_instant("net", "client_accepted", rank as u64);
    if hello.mode != SubmitMode::Blocks {
        job.mark_client(rank, ClientState::Streaming);
    }
    Ok(match hello.mode {
        SubmitMode::Stream => {
            obs::SESSIONS_STARTED.inc();
            let session = CompressSession::new(
                &job.cst,
                rank,
                nprocs,
                CompressConfig::default(),
                SessionConfig::default(),
            );
            ConnState::Streaming {
                job,
                rank,
                session: Box::new(session),
                count: 0,
            }
        }
        SubmitMode::Ctt => ConnState::AwaitCtt { job, rank },
        SubmitMode::Blocks => ConnState::Blocks {
            job,
            rank,
            nblocks: 0,
        },
    })
}

/// Finish a ctt-mode submission from its CTT bytes. A tree that
/// does not fit the job is refused here, before the merge's lock is taken.
fn on_ctt_bytes(
    sh: Shared<'_>,
    job: &Job,
    rank: u32,
    out: &mut Outbox,
    bytes: Vec<u8>,
) -> Result<(), Reject> {
    let slab = CttSlab::from_bytes(&bytes)
        .map_err(|e| (codes::PROTOCOL, format!("undecodable CTT: {e}")))?;
    if slab.rank != rank {
        let msg = format!("Hello said rank {rank}, CTT says {}", slab.rank);
        return Err((codes::BAD_RANK, msg));
    }
    let misfit = |e: String| (codes::PROTOCOL, format!("CTT does not fit the job: {e}"));
    check_shape(&slab, &job.cst, job.nprocs).map_err(misfit)?;
    // No Events frames in ctt mode: the records count the events.
    let stats = SessionStats {
        mpi_events: slab.op_count(),
        ..SessionStats::default()
    };
    let keep = sh.cfg.keep_rank_ctts.then_some(bytes);
    merge_in(sh, job, out, Finished::Slab(slab), keep, stats)
}

/// Absorb one relay-forwarded buddy block into the merge.
fn on_merged_block(sh: Shared<'_>, job: &Job, block: MergedBlock) -> Result<(), Reject> {
    let (first_rank, nranks, events) = (block.first_rank, block.nranks, block.events);
    let merged = MergedCtt::from_bytes(&block.bytes)
        .map_err(|e| (codes::PROTOCOL, format!("undecodable merged block: {e}")))?;
    let misfit = |e: String| (codes::PROTOCOL, format!("block does not fit the job: {e}"));
    merged
        .check_shape(&job.cst, job.nprocs, first_rank, nranks)
        .map_err(misfit)?;
    // Both ends of the range are the peer's: add them where they cannot wrap.
    let end = first_rank as u64 + nranks as u64;
    if let Role::Relay { first, last, .. } = sh.role {
        if first_rank < first || end > last as u64 {
            let msg =
                format!("block [{first_rank}, {end}) outside this relay's shard [{first}, {last})");
            return Err((codes::BAD_RANK, msg));
        }
    }
    let mut m = job.lock();
    // A relay's held ranks are not in its merger yet: a block naming only
    // ranks it knows is a retry, one naming some of them is corrupt, as
    // `add_block` rules for merged ranks.
    let held = m
        .held
        .range(first_rank..)
        .take_while(|(r, _)| (**r as u64) < end);
    let held = held.count() as u64;
    if held > 0 {
        let merged = (first_rank..end as u32).filter(|&r| m.merger.has_rank(r));
        let known = held + merged.count() as u64;
        if known == nranks as u64 {
            return Ok(());
        }
        let msg = format!(
            "bad merged block: block [{first_rank}, {end}) partially overlaps {known} already-merged ranks"
        );
        return Err((codes::PROTOCOL, msg));
    }
    let t0 = Instant::now();
    let res = m.merger.add_block(first_rank, nranks, merged);
    MERGE_STEP_NS.record_since(t0);
    // `Ok(false)`: a relay retry re-sending blocks its first attempt landed.
    if !res.map_err(|e| (codes::PROTOCOL, format!("bad merged block: {e}")))? {
        return Ok(());
    }
    m.total_events += events;
    m.raw_mpi_bytes += block.raw_mpi_bytes;
    // `add_block` accepted the range, so it lies inside the job.
    for r in first_rank..end as u32 {
        let e = m.clients.entry(r).or_insert((ClientState::Merged, 0));
        e.0 = ClientState::Merged;
    }
    if let Some(e) = m.clients.get_mut(&first_rank) {
        e.1 += events;
    }
    note_merged(sh, job, m);
    Ok(())
}

/// Report the ranks merged so far; when that is every rank this collector
/// expects, the collection is complete and the loops stop.
fn note_merged(sh: Shared<'_>, job: &Job, m: MutexGuard<'_, Merge>) -> u32 {
    let received = m.received();
    drop(m);
    obs::RANKS_MERGED.set_max(received as i64);
    if received == sh.role.expected(job.nprocs) {
        sh.server.stop();
    }
    received
}

/// A finished rank CTT: a ctt-mode rank's slab, or the tree a stream-mode
/// session built.
enum Finished {
    Slab(CttSlab),
    Built(Ctt),
}

/// Take one finished rank CTT into the job and acknowledge it, keeping its
/// `bytes` when there are any to keep. The root folds it into the
/// incremental binomial merge; a relay holds it as a slab (a built tree as
/// the slab of its bytes, the form a ctt-mode rank arrives in), so its
/// acknowledgement waits on no merge. First-completion-wins: duplicates are
/// acknowledged but discarded.
fn merge_in(
    sh: Shared<'_>,
    job: &Job,
    out: &mut Outbox,
    tree: Finished,
    bytes: Option<Vec<u8>>,
    stats: SessionStats,
) -> Result<(), Reject> {
    let relay = matches!(sh.role, Role::Relay { .. });
    let tree = match tree {
        Finished::Built(ctt) if relay => {
            let slab = CttSlab::from_bytes(&ctt.to_bytes());
            Finished::Slab(slab.map_err(|e| (codes::INTERNAL, format!("session tree: {e}")))?)
        }
        tree => tree,
    };
    let rank = match &tree {
        Finished::Slab(slab) => slab.rank,
        Finished::Built(ctt) => ctt.rank,
    };
    let mut m = job.lock();
    let t0 = Instant::now();
    let newly_merged = match tree {
        Finished::Slab(_) if relay && m.has_rank(rank) => false,
        Finished::Slab(slab) if relay => m.held.insert(rank, slab).is_none(),
        Finished::Slab(slab) => m.merger.add(&slab),
        Finished::Built(ctt) => m.merger.add(&ctt),
    };
    if !relay {
        MERGE_STEP_NS.record_since(t0);
    }
    if newly_merged {
        let entry = m.clients.entry(rank).or_insert((ClientState::Merged, 0));
        entry.0 = ClientState::Merged;
        if entry.1 == 0 {
            entry.1 = stats.mpi_events;
        }
        m.total_events += stats.mpi_events;
        m.raw_mpi_bytes += stats.raw_mpi_bytes;
        if let Some(bytes) = bytes {
            m.rank_ctts.push((rank, bytes));
        }
        obs::SESSIONS_COMPLETED.inc();
    }
    let ranks_done = note_merged(sh, job, m);
    out.send(&Frame::FinAck { ranks_done });
    out.close();
    Ok(())
}

/// Snapshot the running collection into a wire-ready [`Stats`].
fn build_stats(state: &State) -> Stats {
    let uptime_ns = state.started.elapsed().as_nanos() as u64;
    let quantiles = [
        ("batch_events", &BATCH_EVENTS),
        ("merge_step_ns", &MERGE_STEP_NS),
    ]
    .into_iter()
    .filter(|(_, h)| h.count() > 0)
    .map(|(name, h)| QuantileStat {
        name: name.to_string(),
        count: h.count(),
        p50: h.quantile(0.50),
        p90: h.quantile(0.90),
        p99: h.quantile(0.99),
    })
    .collect();
    let mut stats = Stats {
        version: STATS_VERSION,
        uptime_ns,
        nprocs: 0,
        ranks_done: 0,
        events_total: 0,
        events_per_sec_x1000: 0,
        merge_depth: 0,
        resident_blocks: 0,
        clients: Vec::new(),
        quantiles,
    };
    let Some(job) = state.job.get() else {
        return stats;
    };
    let m = job.lock();
    // Mid-stream events are not yet in total_events; count them so the
    // rate reflects live receive progress, not just merged ranks.
    let events_total = m
        .total_events
        .max(m.clients.values().map(|&(_, ev)| ev).sum());
    stats.nprocs = job.nprocs;
    stats.ranks_done = m.received();
    stats.merge_depth = m.merger.max_depth();
    stats.resident_blocks = m.merger.pending_blocks() as u32;
    stats.events_total = events_total;
    if uptime_ns > 0 {
        stats.events_per_sec_x1000 =
            ((events_total as u128 * 1_000_000_000_000u128) / uptime_ns as u128) as u64;
    }
    stats.clients = m
        .clients
        .iter()
        .map(|(&rank, &(state, events))| ClientStat {
            rank,
            state,
            events,
        })
        .collect();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{submit_ctt, submit_stream, ClientConfig};
    use crate::proto::{read_frame, write_frame};
    use cypress_core::{compress_trace, merge_all, IntSeq, Seg, SeqRef};
    use cypress_cst::analyze_program;
    use cypress_minilang::{check_program, parse};
    use cypress_runtime::{trace_program, InterpConfig};
    use cypress_trace::codec::Codec;
    use cypress_trace::RawTrace;

    const SRC: &str = r#"fn main() {
        let r = rank(); let s = size();
        for k in 0..8 {
            if r < s - 1 { send(r + 1, 2048, 0); }
            if r > 0 { recv(r - 1, 2048, 0); }
            allreduce(16);
        }
    }"#;

    fn traces(nprocs: u32) -> (cypress_cst::StaticInfo, Vec<RawTrace>) {
        let p = parse(SRC).unwrap();
        check_program(&p).unwrap();
        let info = analyze_program(&p);
        let traces = trace_program(&p, &info, nprocs, &InterpConfig::default()).unwrap();
        (info, traces)
    }

    fn serve_in_background(
        cfg: CollectorConfig,
    ) -> (
        Addr,
        std::thread::JoinHandle<Result<CollectedJob, NetError>>,
    ) {
        let collector = Collector::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = collector.local_addr().unwrap();
        let handle = std::thread::spawn(move || collector.run(&cfg));
        (addr, handle)
    }

    #[test]
    fn loopback_stream_collection_matches_local_merge() {
        let nprocs = 6;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();

        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });
        let cfg = ClientConfig::default();
        std::thread::scope(|scope| {
            // Submit in reverse rank order: arrival order must not matter.
            for t in traces.iter().rev() {
                let (addr, cfg, cst_text) = (&addr, &cfg, &cst_text);
                scope.spawn(move || {
                    let out = submit_stream(addr, cfg, t.rank, t.nprocs, cst_text, |sink| {
                        for ev in &t.events {
                            sink.event(ev.clone());
                        }
                        Ok(t.app_time)
                    })
                    .unwrap();
                    assert!(!out.already_done);
                    assert_eq!(out.events_sent, t.events.len() as u64);
                });
            }
        });
        let job = server.join().unwrap().unwrap();
        assert_eq!(job.nprocs, nprocs);
        assert_eq!(job.merged.to_bytes(), want);
        assert_eq!(job.rank_ctts.len(), nprocs as usize);
        for ((rank, bytes), local) in job.rank_ctts.iter().zip(&local) {
            assert_eq!(*rank, local.rank);
            assert_eq!(*bytes, local.to_bytes(), "rank {rank} ctt differs");
        }
        assert_eq!(
            job.total_events,
            traces.iter().map(|t| t.mpi_count() as u64).sum::<u64>()
        );
    }

    #[test]
    fn loopback_ctt_submission_matches_local_merge() {
        let nprocs = 4;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();

        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });
        let cfg = ClientConfig::default();
        for ctt in local.iter().rev() {
            submit_ctt(&addr, &cfg, ctt, &cst_text).unwrap();
        }
        let job = server.join().unwrap().unwrap();
        assert_eq!(job.merged.to_bytes(), want);
        assert_eq!(job.raw_mpi_bytes, 0);
    }

    /// Accept one connection on `l`, acknowledge its `Hello`, and collect
    /// every frame up to and including the one `last` picks out; answer
    /// that one with `FinAck`. A hand-rolled peer, so a test sees exactly
    /// what a client or relay puts on the wire.
    fn capture_submission(l: Listener, last: fn(&Frame) -> bool) -> (Hello, Vec<Frame>) {
        let mut s = l.accept().unwrap();
        s.set_io_timeout(Duration::from_secs(30)).unwrap();
        let hello = match read_frame(&mut s).unwrap() {
            Frame::Hello(hello) => hello,
            f => panic!("expected Hello, got {}", f.name()),
        };
        let ack = Frame::HelloAck {
            version: PROTO_VERSION,
            already_done: false,
        };
        write_frame(&mut s, &ack).unwrap();
        let mut frames = Vec::new();
        loop {
            let f = read_frame(&mut s).unwrap();
            let done = last(&f);
            frames.push(f);
            if done {
                break;
            }
        }
        write_frame(&mut s, &Frame::FinAck { ranks_done: 1 }).unwrap();
        (hello, frames)
    }

    /// The wire compresses nothing: `submit_ctt` sends one `RankCtt` whose
    /// bytes are exactly `Ctt::to_bytes`.
    #[test]
    fn submit_ctt_sends_the_tree_as_its_codec_bytes() {
        let (info, traces) = traces(4);
        let cst_text = info.cst.to_text();
        let ctt = compress_trace(&info.cst, &traces[1], &CompressConfig::default());
        let l = Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = l.local_addr().unwrap();
        let peer = std::thread::spawn(move || capture_submission(l, |_| true));
        submit_ctt(&addr, &ClientConfig::default(), &ctt, &cst_text).unwrap();
        let (hello, frames) = peer.join().unwrap();
        assert_eq!(
            (hello.mode, hello.rank, hello.nprocs),
            (SubmitMode::Ctt, 1, 4)
        );
        match &frames[..] {
            [Frame::RankCtt { bytes }] => assert_eq!(*bytes, ctt.to_bytes()),
            [f] => panic!("expected RankCtt, got {}", f.name()),
            _ => unreachable!(),
        }
    }

    /// A relay forwards its buddy blocks as `MergedCtt` codec bytes: each
    /// block decodes as it arrives, and the blocks re-merge to the bytes
    /// of the local `merge_all`.
    #[test]
    fn relay_forwards_merged_blocks_as_their_codec_bytes() {
        let nprocs = 6;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();
        let l = Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let upstream = l.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            capture_submission(l, |f| matches!(f, Frame::Finish { .. }))
        });
        let relay = Collector::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let relay_addr = relay.local_addr().unwrap();
        let cfg = CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        };
        let client = ClientConfig::default();
        let forwarded = std::thread::spawn(move || {
            relay.run_relay((0, nprocs), nprocs, &upstream, &client, &cfg)
        });
        for ctt in local.iter().rev() {
            submit_ctt(&relay_addr, &ClientConfig::default(), ctt, &cst_text).unwrap();
        }
        forwarded.join().unwrap().unwrap();
        let (hello, mut frames) = peer.join().unwrap();
        assert_eq!(hello.mode, SubmitMode::Blocks);
        let Some(Frame::Finish { event_count, .. }) = frames.pop() else {
            unreachable!()
        };
        assert_eq!(event_count, frames.len() as u64);
        // Ranks [0, 6) of 6: the buddy blocks [0, 4) and [4, 6).
        assert_eq!(frames.len(), 2);
        let mut merger = BinomialMerger::new(nprocs);
        let mut events = 0;
        for f in frames {
            let Frame::MergedBlock(b) = f else {
                panic!("expected MergedBlock, got {}", f.name())
            };
            let merged = MergedCtt::from_bytes(&b.bytes).unwrap_or_else(|e| {
                panic!(
                    "block [{}, +{}) is not MergedCtt bytes: {e}",
                    b.first_rank, b.nranks
                )
            });
            assert!(merger.add_block(b.first_rank, b.nranks, merged).unwrap());
            events += b.events;
        }
        assert_eq!(merger.finish().to_bytes(), want);
        assert_eq!(events, local.iter().map(|c| c.op_count()).sum::<u64>());
    }

    /// A relay for ranks `[first, last)` of an `nprocs`-rank job, with a
    /// hand-rolled upstream that captures what the relay forwards: the
    /// relay's address, its thread, and the upstream's.
    #[allow(clippy::type_complexity)]
    fn relay_in_background(
        shard: (u32, u32),
        nprocs: u32,
    ) -> (
        Addr,
        std::thread::JoinHandle<Result<(), NetError>>,
        std::thread::JoinHandle<(Hello, Vec<Frame>)>,
    ) {
        let l = Listener::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let upstream = l.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            capture_submission(l, |f| matches!(f, Frame::Finish { .. }))
        });
        let relay = Collector::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = relay.local_addr().unwrap();
        let cfg = CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        };
        let handle = std::thread::spawn(move || {
            relay.run_relay(shard, nprocs, &upstream, &ClientConfig::default(), &cfg)
        });
        (addr, handle, peer)
    }

    /// The blocks a relay forwarded, as `(first_rank, nranks, events,
    /// bytes)`, once its `Finish` has been checked against their count.
    fn forwarded_blocks(mut frames: Vec<Frame>) -> Vec<(u32, u32, u64, Vec<u8>)> {
        let Some(Frame::Finish { event_count, .. }) = frames.pop() else {
            unreachable!()
        };
        assert_eq!(event_count, frames.len() as u64);
        frames
            .into_iter()
            .map(|f| match f {
                Frame::MergedBlock(b) => (b.first_rank, b.nranks, b.events, b.bytes),
                f => panic!("expected MergedBlock, got {}", f.name()),
            })
            .collect()
    }

    /// The one buddy block a merger builds from `ctts`, rank by rank.
    fn one_block(ctts: &[Ctt], nprocs: u32) -> MergedCtt {
        let mut bm = BinomialMerger::new(nprocs);
        for c in ctts {
            assert!(bm.add(c));
        }
        let mut blocks = bm.into_blocks();
        assert_eq!(blocks.len(), 1);
        blocks.pop().unwrap().2
    }

    /// A relay acknowledges each rank once it is checked and held: the
    /// `FinAck` comes back while the shard is incomplete and counts the
    /// held ranks, and nothing is merged yet. A repeat of a held rank, in
    /// either mode, is `already_done`. The complete shard still forwards
    /// blocks that re-merge to the local `merge_all`.
    #[test]
    fn relay_acks_held_ranks_before_its_shard_is_complete() {
        let nprocs = 4;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();
        let (addr, relay, peer) = relay_in_background((0, nprocs), nprocs);
        let cfg = ClientConfig::default();
        for (held, r) in [2usize, 0].into_iter().enumerate() {
            let out = submit_ctt(&addr, &cfg, &local[r], &cst_text).unwrap();
            assert!(!out.already_done, "rank {r}");
            assert_eq!(out.ranks_done, held as u32 + 1, "rank {r}");
        }
        let s = crate::stats::fetch_stats(&addr, Duration::from_secs(5)).unwrap();
        assert_eq!((s.nprocs, s.ranks_done), (nprocs, 2));
        // Held, not merged: the relay's merger has no block yet.
        assert_eq!((s.resident_blocks, s.merge_depth), (0, 0));
        let states: Vec<_> = s.clients.iter().map(|c| (c.rank, c.state)).collect();
        assert_eq!(states, [(0, ClientState::Merged), (2, ClientState::Merged)]);
        let stream = |t: &RawTrace| {
            submit_stream(&addr, &cfg, t.rank, t.nprocs, &cst_text, |sink| {
                for ev in &t.events {
                    sink.event(ev.clone());
                }
                Ok(t.app_time)
            })
            .unwrap()
        };
        let repeats = [
            submit_ctt(&addr, &cfg, &local[2], &cst_text).unwrap(),
            stream(&traces[2]),
        ];
        for out in repeats {
            assert!(out.already_done, "{out:?}");
            assert_eq!(out.events_sent, 0, "{out:?}");
        }
        // A stream-mode rank is held as the slab of its tree's bytes.
        assert_eq!(stream(&traces[1]).ranks_done, 3);
        assert_eq!(
            submit_ctt(&addr, &cfg, &local[3], &cst_text)
                .unwrap()
                .ranks_done,
            4
        );
        relay.join().unwrap().unwrap();
        let (_, frames) = peer.join().unwrap();
        let mut merger = BinomialMerger::new(nprocs);
        for (first, count, _, bytes) in forwarded_blocks(frames) {
            let block = MergedCtt::from_bytes(&bytes).unwrap();
            assert!(merger.add_block(first, count, block).unwrap());
        }
        assert_eq!(merger.finish().to_bytes(), want);
    }

    /// A relay sent some ranks directly and a lower tier's block for others
    /// forwards what a relay that merged each rank on arrival forwarded:
    /// the same ranges, events and bytes. A block naming only held ranks
    /// is a retry, one naming some of them a `PROTOCOL` refusal.
    #[test]
    fn relay_with_ranks_and_a_block_forwards_what_merging_each_rank_did() {
        let nprocs = 8;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let ops = |ranks: std::ops::Range<usize>| local[ranks].iter().map(|c| c.op_count()).sum();
        let block = |first: u32, nranks: u32| MergedBlock {
            first_rank: first,
            nranks,
            events: ops(first as usize..(first + nranks) as usize),
            raw_mpi_bytes: 0,
            bytes: one_block(&local[first as usize..][..nranks as usize], nprocs).to_bytes(),
        };
        // Ranks [1, 8): rank 1 and ranks [4, 8) directly, [2, 4) as a block,
        // each merged as it arrives.
        let mut each = BinomialMerger::new(nprocs);
        for r in [7usize, 1, 5, 6] {
            assert!(each.add(&local[r]));
        }
        let lower = one_block(&local[2..4], nprocs);
        assert_eq!(each.add_block(2, 2, lower), Ok(true));
        assert!(each.add(&local[4]));
        let want: Vec<_> = each
            .into_blocks()
            .into_iter()
            .enumerate()
            .map(|(i, (first, count, part))| {
                let events = if i == 0 { ops(1..8) } else { 0 };
                (first, count, events, part.to_bytes())
            })
            .collect();
        assert_eq!(want.len(), 3, "[1, 2), [2, 4) and [4, 8)");

        let (addr, relay, peer) = relay_in_background((1, nprocs), nprocs);
        let cfg = ClientConfig {
            attempts: 1,
            ..ClientConfig::default()
        };
        for r in [7usize, 1, 5, 6] {
            submit_ctt(&addr, &cfg, &local[r], &cst_text).unwrap();
        }
        let blocks = |b: Vec<MergedBlock>| submit_merged_blocks(&addr, &cfg, nprocs, &cst_text, b);
        // Every rank of [6, 8) is held: a retry, acknowledged and dropped.
        assert_eq!(blocks(vec![block(6, 2)]).unwrap().ranks_done, 4);
        match blocks(vec![block(4, 4)]).unwrap_err() {
            NetError::Remote { code, message } => {
                assert_eq!(code, codes::PROTOCOL, "{message}");
                assert!(message.contains("[4, 8) partially overlaps 3"), "{message}");
            }
            e => panic!("expected a PROTOCOL refusal, got {e}"),
        }
        assert_eq!(blocks(vec![block(2, 2)]).unwrap().ranks_done, 6);
        // A retry of a merged block is a no-op as well.
        assert_eq!(blocks(vec![block(2, 2)]).unwrap().ranks_done, 6);
        submit_ctt(&addr, &cfg, &local[4], &cst_text).unwrap();
        relay.join().unwrap().unwrap();
        let (hello, frames) = peer.join().unwrap();
        assert_eq!(hello.mode, SubmitMode::Blocks);
        assert_eq!(forwarded_blocks(frames), want);
    }

    /// A relay's deadline names the ranks of its shard that are neither
    /// held nor covered by a block it was sent.
    #[test]
    fn relay_deadline_names_ranks_neither_held_nor_in_a_block() {
        let nprocs = 8;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let relay = Collector::bind(&Addr::parse("127.0.0.1:0").unwrap()).unwrap();
        let addr = relay.local_addr().unwrap();
        let cfg = CollectorConfig {
            deadline: Some(Duration::from_secs(1)),
            ..CollectorConfig::default()
        };
        // Nothing listens upstream; the relay fails before it gets there.
        let upstream = Addr::parse("127.0.0.1:1").unwrap();
        let handle = std::thread::spawn(move || {
            relay.run_relay(
                (0, nprocs),
                nprocs,
                &upstream,
                &ClientConfig::default(),
                &cfg,
            )
        });
        let client = ClientConfig::default();
        for r in [2usize, 0] {
            submit_ctt(&addr, &client, &local[r], &cst_text).unwrap();
        }
        let block = MergedBlock {
            first_rank: 4,
            nranks: 2,
            events: 1,
            raw_mpi_bytes: 0,
            bytes: one_block(&local[4..6], nprocs).to_bytes(),
        };
        submit_merged_blocks(&addr, &client, nprocs, &cst_text, vec![block]).unwrap();
        let msg = handle.join().unwrap().unwrap_err().to_string();
        assert!(
            msg.contains("deadline") && msg.contains("ranks missing: [1, 3, 6, 7]"),
            "{msg}"
        );
    }

    /// Frame code 8 once carried a compressed rank CTT. It is retired: a
    /// peer that still sends it gets a `PROTOCOL` refusal, and the rank
    /// still merges when sent as it is.
    #[test]
    fn retired_compressed_ctt_code_is_a_protocol_refusal() {
        let (info, traces) = traces(1);
        let cst_text = info.cst.to_text();
        let ctt = compress_trace(&info.cst, &traces[0], &CompressConfig::default());
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });
        let retired = Frame::Unknown { code: 8 };
        let (code, message) = refused(&addr, &cst_text, (0, 1), SubmitMode::Ctt, retired);
        assert_eq!(code, codes::PROTOCOL, "{message}");
        submit_ctt(&addr, &ClientConfig::default(), &ctt, &cst_text).unwrap();
        server.join().unwrap().unwrap();
    }

    /// A repeat of a merged rank, in either mode, is answered `already_done`
    /// at the `Hello` and sends nothing, and the job still completes
    /// byte-identical to the local merge.
    #[test]
    fn repeated_rank_is_already_done_in_every_mode() {
        let nprocs = 2;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });
        let cfg = ClientConfig::default();
        let first = submit_ctt(&addr, &cfg, &local[0], &cst_text).unwrap();
        assert!(!first.already_done);
        assert_eq!(first.ranks_done, 1);
        let t = &traces[0];
        let repeats = [
            submit_ctt(&addr, &cfg, &local[0], &cst_text).unwrap(),
            submit_stream(&addr, &cfg, t.rank, t.nprocs, &cst_text, |sink| {
                for ev in &t.events {
                    sink.event(ev.clone());
                }
                Ok(t.app_time)
            })
            .unwrap(),
        ];
        for out in repeats {
            assert!(out.already_done, "{out:?}");
            assert_eq!(out.events_sent, 0, "{out:?}");
        }
        submit_ctt(&addr, &cfg, &local[1], &cst_text).unwrap();
        let job = server.join().unwrap().unwrap();
        assert_eq!(job.merged.to_bytes(), want);
    }

    /// One version: a Hello one version older or newer is answered over
    /// the real socket with a `codes::VERSION` error frame naming the
    /// offered and the expected version, and then the connection closes.
    #[test]
    fn wrong_hello_version_is_a_loud_error_then_close() {
        let (info, traces) = traces(1);
        let cst_text = info.cst.to_text();
        let ctt = compress_trace(&info.cst, &traces[0], &CompressConfig::default());
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });
        for offered in [PROTO_VERSION - 1, PROTO_VERSION + 1] {
            for mode in [SubmitMode::Stream, SubmitMode::Ctt, SubmitMode::Blocks] {
                let mut stream =
                    crate::transport::Stream::connect(&addr, Duration::from_secs(5)).unwrap();
                stream.set_io_timeout(Duration::from_secs(5)).unwrap();
                write_frame(
                    &mut stream,
                    &Frame::Hello(Hello {
                        version: offered,
                        rank: 0,
                        nprocs: 1,
                        mode,
                        cst_text: cst_text.clone(),
                    }),
                )
                .unwrap();
                match read_frame(&mut stream).unwrap() {
                    Frame::Error { code, message } => {
                        assert_eq!(code, codes::VERSION, "{message}");
                        assert!(
                            message.contains(&format!("version {offered},"))
                                && message.contains(&format!("only {PROTO_VERSION}")),
                            "version {offered}: {message}"
                        );
                    }
                    f => panic!("version {offered}: expected Error, got {}", f.name()),
                }
                assert!(
                    read_frame(&mut stream).is_err(),
                    "version {offered}: connection left open after the rejection"
                );
            }
        }
        // The current version still gets in, so the server exits.
        submit_ctt(&addr, &ClientConfig::default(), &ctt, &cst_text).unwrap();
        server.join().unwrap().unwrap();
    }

    /// A block whose `first_rank + nranks` wraps `u32` used to pass the
    /// range checks (release) or panic under the state lock (debug). Any
    /// peer can send one; it must cost that peer an `Error` frame and
    /// nothing else.
    #[test]
    fn wrapping_block_range_is_refused_and_the_job_still_completes() {
        let nprocs = 4;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });

        let mut stream = crate::transport::Stream::connect(&addr, Duration::from_secs(5)).unwrap();
        stream.set_io_timeout(Duration::from_secs(5)).unwrap();
        let hello = Frame::Hello(Hello {
            version: PROTO_VERSION,
            rank: 0,
            nprocs,
            mode: SubmitMode::Blocks,
            cst_text: cst_text.clone(),
        });
        write_frame(&mut stream, &hello).unwrap();
        let _ack = read_frame(&mut stream).unwrap();
        // One application time per claimed rank (a single segment), so the
        // block passes the shape check and reaches the range check.
        let mut one = merge_all(&local[..1]);
        let seg = Seg {
            start: local[0].app_time as i64,
            stride: 0,
            len: 0x8000_0000,
            reps: 1,
        };
        one.app_times = IntSeq::from(SeqRef::from_parts(&[seg], 0x8000_0000));
        let block = Frame::MergedBlock(MergedBlock {
            first_rank: 0x8000_0000,
            nranks: 0x8000_0000,
            events: 1,
            raw_mpi_bytes: 1,
            bytes: one.to_bytes(),
        });
        write_frame(&mut stream, &block).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::Error { code, message } => {
                assert_eq!(code, codes::PROTOCOL, "{message}");
                assert!(message.contains("exceeds job size 4"), "{message}");
            }
            f => panic!("expected Error, got {}", f.name()),
        }

        for ctt in &local {
            submit_ctt(&addr, &ClientConfig::default(), ctt, &cst_text).unwrap();
        }
        let job = server.join().unwrap().unwrap();
        assert_eq!(job.merged.to_bytes(), want);
        assert_eq!(
            job.total_events,
            local.iter().map(|c| c.op_count()).sum::<u64>()
        );
    }

    /// Open a connection as `rank` in `mode`, send `frame`, and return the
    /// `Error` frame the collector answers with.
    fn refused(
        addr: &Addr,
        cst_text: &str,
        (rank, nprocs): (u32, u32),
        mode: SubmitMode,
        frame: Frame,
    ) -> (u16, String) {
        let mut stream = crate::transport::Stream::connect(addr, Duration::from_secs(5)).unwrap();
        stream.set_io_timeout(Duration::from_secs(5)).unwrap();
        let hello = Frame::Hello(Hello {
            version: PROTO_VERSION,
            rank,
            nprocs,
            mode,
            cst_text: cst_text.into(),
        });
        write_frame(&mut stream, &hello).unwrap();
        let _ack = read_frame(&mut stream).unwrap();
        write_frame(&mut stream, &frame).unwrap();
        match read_frame(&mut stream).unwrap() {
            Frame::Error { code, message } => (code, message),
            f => panic!("expected Error, got {}", f.name()),
        }
    }

    /// A block's rank sets must name ranks of the block. Rank 0's tree
    /// offered as block `[1, 2)` used to be accepted, and rank 1's records
    /// vanished from the merged job; it is now a `PROTOCOL` refusal, and the
    /// real rank 1 still merges.
    #[test]
    fn block_naming_ranks_outside_its_range_is_refused() {
        let nprocs = 4;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });

        let block = Frame::MergedBlock(MergedBlock {
            first_rank: 1,
            nranks: 1,
            events: local[0].op_count(),
            raw_mpi_bytes: 1,
            bytes: merge_all(&local[..1]).to_bytes(),
        });
        let (code, message) = refused(&addr, &cst_text, (1, nprocs), SubmitMode::Blocks, block);
        assert_eq!(code, codes::PROTOCOL, "{message}");
        assert!(
            message.contains("rank 0 outside the block's ranks [1, 2)"),
            "{message}"
        );

        for ctt in &local {
            submit_ctt(&addr, &ClientConfig::default(), ctt, &cst_text).unwrap();
        }
        let job = server.join().unwrap().unwrap();
        assert_eq!(job.merged.to_bytes(), want);
    }

    /// A decodable tree of the wrong shape used to reach `BinomialMerger`'s
    /// and `absorb`'s asserts under the state lock, poisoning it for every
    /// later client. Each is now a `PROTOCOL` refusal that costs only the
    /// sender its connection.
    #[test]
    fn wrong_shape_ctts_and_blocks_are_refused_and_the_job_still_completes() {
        let nprocs = 4;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });

        let mut five = local[0].clone();
        five.nprocs = 5;
        let mut short = local[0].clone();
        short.data.pop();
        let cst = &info.cst;
        let gid_of = |is: fn(&cypress_cst::tree::VertexKind) -> bool| {
            (0..cst.len()).find(|&g| is(&cst.vertex(g).kind)).unwrap()
        };
        let (loop_gid, leaf_gid) = (gid_of(|k| k.is_loop()), gid_of(|k| k.is_mpi()));
        let mut leaf_at_loop = merge_all(&local[..1]);
        leaf_at_loop.vertices[loop_gid] = leaf_at_loop.vertices[leaf_gid].clone();
        let block = Frame::MergedBlock(MergedBlock {
            first_rank: 0,
            nranks: 1,
            events: 1,
            raw_mpi_bytes: 1,
            bytes: leaf_at_loop.to_bytes(),
        });
        for (mode, frame, why) in [
            (
                SubmitMode::Ctt,
                Frame::RankCtt {
                    bytes: five.to_bytes(),
                },
                "for 5 ranks, the job has 4",
            ),
            (
                SubmitMode::Ctt,
                Frame::RankCtt {
                    bytes: short.to_bytes(),
                },
                "vertices, the job's CST",
            ),
            (SubmitMode::Blocks, block, "(Loop) holds leaf data"),
        ] {
            let (code, message) = refused(&addr, &cst_text, (0, nprocs), mode, frame);
            assert_eq!(code, codes::PROTOCOL, "{message}");
            assert!(message.contains(why), "{message}");
        }

        for ctt in &local {
            submit_ctt(&addr, &ClientConfig::default(), ctt, &cst_text).unwrap();
        }
        let job = server.join().unwrap().unwrap();
        assert_eq!(job.merged.to_bytes(), want);
    }

    /// Rank 1 of `SRC` at two ranks, compressed by a build that could keep
    /// no timing: every record's `TimeStats` is tag 2.
    const UNTIMED_CTT: &str = "0102c5bf010700010110000101020003000201000208010301010003010080200100010000080202030109000000200101010000080202";
    /// The same tree lifted to a one-rank merged block.
    const UNTIMED_BLOCK: &str = "02018aff020001010700010101020001010101100001010000010101020001010201000208010201010102000101010003010080200100010000080202020101010200010109000000200101010000080202";

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// A well-formed tree whose timing is not exact moments used to pass
    /// the decode and the shape check, then panic in `TimeStats::merge`
    /// against rank 0's timing under the state lock, poisoning it: the job
    /// never completed. The decoder now refuses the tag, so the sender gets
    /// a `PROTOCOL` error naming it and a good retry completes the job — as
    /// a rank CTT, and as a relay's merged block.
    #[test]
    fn ctts_and_blocks_with_other_timing_are_refused_and_the_job_still_completes() {
        let nprocs = 2;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();
        let attempts = [
            (
                SubmitMode::Ctt,
                Frame::RankCtt {
                    bytes: unhex(UNTIMED_CTT),
                },
            ),
            (
                SubmitMode::Blocks,
                Frame::MergedBlock(MergedBlock {
                    first_rank: 1,
                    nranks: 1,
                    events: 1,
                    raw_mpi_bytes: 1,
                    bytes: unhex(UNTIMED_BLOCK),
                }),
            ),
        ];
        for (mode, frame) in attempts {
            let (addr, server) = serve_in_background(CollectorConfig {
                deadline: Some(Duration::from_secs(60)),
                ..CollectorConfig::default()
            });
            submit_ctt(&addr, &ClientConfig::default(), &local[0], &cst_text).unwrap();
            let (code, message) = refused(&addr, &cst_text, (1, nprocs), mode, frame);
            assert_eq!(code, codes::PROTOCOL, "{mode:?}: {message}");
            assert!(message.contains("TimeStats tag 2 "), "{mode:?}: {message}");
            submit_ctt(&addr, &ClientConfig::default(), &local[1], &cst_text).unwrap();
            let job = server.join().unwrap().unwrap();
            assert_eq!(job.merged.to_bytes(), want, "{mode:?}");
        }
    }

    #[test]
    fn deadline_reports_missing_ranks() {
        let (info, traces) = traces(4);
        let cst_text = info.cst.to_text();
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_millis(300)),
            ..CollectorConfig::default()
        });
        // Submit only rank 2; the run must fail naming the other three.
        let t = &traces[2];
        submit_stream(
            &addr,
            &ClientConfig::default(),
            t.rank,
            t.nprocs,
            &cst_text,
            |sink| {
                for ev in &t.events {
                    sink.event(ev.clone());
                }
                Ok(t.app_time)
            },
        )
        .unwrap();
        let err = server.join().unwrap().unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("deadline"), "{msg}");
        for r in ["0", "1", "3"] {
            assert!(msg.contains(r), "missing rank {r} not named: {msg}");
        }
    }

    #[test]
    fn stats_endpoint_reports_live_collection() {
        let nprocs = 4u32;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();

        // Stats are polled on the address the clients submit to.
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });

        // Before any client: an empty but well-formed snapshot.
        let s0 = crate::stats::fetch_stats(&addr, Duration::from_secs(5)).unwrap();
        assert_eq!(s0.version, STATS_VERSION);
        assert_eq!(s0.nprocs, 0);
        assert_eq!(s0.ranks_done, 0);
        assert!(s0.clients.is_empty());

        let ccfg = ClientConfig::default();
        let submit = |t: &cypress_trace::RawTrace| {
            submit_stream(&addr, &ccfg, t.rank, t.nprocs, &cst_text, |sink| {
                for ev in &t.events {
                    sink.event(ev.clone());
                }
                Ok(t.app_time)
            })
            .unwrap();
        };
        // Submit ranks 0..2 in order; FinAck means each is merged, so the
        // next snapshot is deterministic.
        for t in traces.iter().take(nprocs as usize - 1) {
            submit(t);
        }
        let s1 = crate::stats::fetch_stats(&addr, Duration::from_secs(5)).unwrap();
        assert_eq!(s1.nprocs, nprocs);
        assert_eq!(s1.ranks_done, nprocs - 1);
        assert_eq!(s1.clients.len(), nprocs as usize - 1);
        for (c, t) in s1.clients.iter().zip(&traces) {
            assert_eq!(c.rank, t.rank);
            assert_eq!(c.state, ClientState::Merged);
            assert_eq!(c.events, t.events.len() as u64, "rank {}", c.rank);
        }
        assert!(s1.events_total > 0);
        assert!(s1.uptime_ns > 0);
        // Ranks {0,1,2} of 4: buddy block [0,1] plus singleton [2].
        assert_eq!(s1.merge_depth, 1);
        assert_eq!(s1.resident_blocks, 2);
        for name in ["batch_events", "merge_step_ns"] {
            let q = s1
                .quantiles
                .iter()
                .find(|q| q.name == name)
                .unwrap_or_else(|| panic!("missing quantile row {name}"));
            assert!(q.count > 0);
        }

        // Completing the job shuts the stats endpoint down with the collector.
        submit(&traces[nprocs as usize - 1]);
        let job = server.join().unwrap().unwrap();
        assert_eq!(job.nprocs, nprocs);
        assert!(
            crate::stats::fetch_stats(&addr, Duration::from_millis(500)).is_err(),
            "stats endpoint must die with the collection"
        );
    }

    /// A stats poll is a first frame only: sent after a `Hello` it is a
    /// `PROTOCOL` refusal that aborts that submission, the next snapshot
    /// says so, and a retry of the rank completes the job unperturbed.
    #[test]
    fn stats_request_mid_submission_is_refused_and_the_rank_retries() {
        let nprocs = 2;
        let (info, traces) = traces(nprocs);
        let cst_text = info.cst.to_text();
        let local: Vec<_> = traces
            .iter()
            .map(|t| compress_trace(&info.cst, t, &CompressConfig::default()))
            .collect();
        let want = merge_all(&local).to_bytes();
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });
        let cfg = ClientConfig::default();
        submit_ctt(&addr, &cfg, &local[0], &cst_text).unwrap();
        let (code, message) = refused(
            &addr,
            &cst_text,
            (1, nprocs),
            SubmitMode::Ctt,
            Frame::StatsRequest,
        );
        assert_eq!(code, codes::PROTOCOL, "{message}");
        assert!(message.contains("StatsRequest"), "{message}");
        let s = crate::stats::fetch_stats(&addr, Duration::from_secs(5)).unwrap();
        assert_eq!((s.nprocs, s.ranks_done), (nprocs, 1));
        let states: Vec<_> = s.clients.iter().map(|c| (c.rank, c.state)).collect();
        assert_eq!(
            states,
            [(0, ClientState::Merged), (1, ClientState::Aborted)]
        );
        submit_ctt(&addr, &cfg, &local[1], &cst_text).unwrap();
        let job = server.join().unwrap().unwrap();
        assert_eq!(job.merged.to_bytes(), want);
    }

    #[test]
    fn cst_mismatch_is_rejected() {
        let (info, traces) = traces(2);
        let cst_text = info.cst.to_text();
        let (addr, server) = serve_in_background(CollectorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..CollectorConfig::default()
        });
        let cfg = ClientConfig {
            attempts: 1,
            ..ClientConfig::default()
        };
        // First client opens the job with the real CST.
        let t0 = &traces[0];
        submit_stream(&addr, &cfg, 0, 2, &cst_text, |sink| {
            for ev in &t0.events {
                sink.event(ev.clone());
            }
            Ok(t0.app_time)
        })
        .unwrap();
        // Second client lies about the CST and must be turned away.
        let other = parse("fn main() { barrier(); }").unwrap();
        let other_text = analyze_program(&other).cst.to_text();
        let err = submit_stream(&addr, &cfg, 1, 2, &other_text, |_| Ok(0)).unwrap_err();
        match err {
            NetError::Remote { code, .. } => assert_eq!(code, codes::CST_MISMATCH),
            e => panic!("expected CST_MISMATCH, got {e}"),
        }
        // Finish the job so the server thread exits cleanly.
        let t1 = &traces[1];
        submit_stream(&addr, &cfg, 1, 2, &cst_text, |sink| {
            for ev in &t1.events {
                sink.event(ev.clone());
            }
            Ok(t1.app_time)
        })
        .unwrap();
        server.join().unwrap().unwrap();
    }
}
