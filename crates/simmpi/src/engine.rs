//! Trace-driven discrete simulation engine.
//!
//! Replays per-rank operation sequences under the LogGP model: point-to-point
//! messages are matched across ranks (posted receives match in post order;
//! per-⟨src,tag⟩ message queues are FIFO, preserving MPI non-overtaking
//! semantics; `MPI_ANY_SOURCE` receives match the earliest-ready available
//! message), rendezvous sends block on the matching receive being posted,
//! non-blocking operations complete at their checking function, and
//! collectives synchronize all ranks. Ranks advance round-robin until all
//! finish; global lack of progress is reported as a deadlock listing the
//! blocked operations.
//!
//! The engine is *resumable*: [`Sim`] accepts operations incrementally
//! ([`Sim::feed`]) and runs until no further progress is possible
//! ([`Sim::run`]), so callers can drive it one loop iteration at a time.
//! For wildcard-free programs the match graph — and therefore every
//! completion time — is independent of how the op stream is chunked, which
//! is what lets the compressed-domain scheduler (`crate::schedule`) replay
//! repeated loop bodies once and extrapolate the rest arithmetically while
//! remaining *exactly* equal to a one-shot simulation.

use crate::model::LogGp;
use cypress_obs::{obs_log, Counter, Histogram, Level, TIME_BOUNDS_NS};
use cypress_trace::event::{MpiOp, MpiParams, ANY_SOURCE};
use cypress_trace::raw::RawTrace;
use std::collections::{HashMap, VecDeque};
use std::fmt;

// Scope `simmpi`. The op loop tallies into plain fields of the simulation;
// `Sim::into_result` flushes them, once per completed simulation.
/// Operations completed across all ranks.
static OPS_SIMULATED: Counter = Counter::new("simmpi", "ops_simulated");
/// Round-robin passes where a rank stayed blocked (retried next round).
static BLOCKED_RANK_ROUNDS: Counter = Counter::new("simmpi", "blocked_rank_rounds");
/// Posted-receive arrival polls that found no matching message yet.
static UNMATCHED_RECV_POLLS: Counter = Counter::new("simmpi", "unmatched_recv_polls");
/// Simulations aborted with a deadlock report.
static DEADLOCKS_DETECTED: Counter = Counter::new("simmpi", "deadlocks_detected");
/// Wall time per whole-job simulation.
static SIMULATE_NS: Histogram = Histogram::new("simmpi", "simulate_ns", &TIME_BOUNDS_NS);

/// One operation to simulate: optional preceding computation, then the op.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOp {
    /// Identifier of the call site (CST GID where available); links
    /// non-blocking posts to their completion op via `params.req_gids`.
    pub gid: u32,
    pub op: MpiOp,
    pub params: MpiParams,
    /// Sequential computation time before this operation (ns).
    pub pre_gap: u64,
}

/// Build per-rank op sequences from raw traces: compute gaps are the
/// timestamp deltas the tracer observed (the "measured" input of Fig. 21).
pub fn from_raw_traces(traces: &[RawTrace]) -> Vec<Vec<SimOp>> {
    traces
        .iter()
        .map(|t| {
            let mut prev_end = 0u64;
            t.mpi_records()
                .map(|r| {
                    let gap = r.t_start.saturating_sub(prev_end);
                    prev_end = r.t_start + r.dur;
                    SimOp {
                        gid: r.gid,
                        op: r.op,
                        params: r.params.clone(),
                        pre_gap: gap,
                    }
                })
                .collect()
        })
        .collect()
}

/// Simulation failure: communication mismatch or deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError(pub String);

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation error: {}", self.0)
    }
}

impl std::error::Error for SimError {}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Per-rank finish time (ns).
    pub finish: Vec<u64>,
    /// Predicted job time = max finish.
    pub total: u64,
    /// Per-rank time spent inside communication (transfer + blocking).
    pub comm_time: Vec<u64>,
    /// Resolved sources of wildcard receives, in per-rank match order.
    pub wildcard_sources: Vec<Vec<u32>>,
}

impl SimResult {
    /// Fraction of aggregate rank time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let total: u64 = self.finish.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.comm_time.iter().sum::<u64>() as f64 / total as f64
    }
}

/// One call site's accumulated late-sender wait time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitSite {
    /// CST GID of the receive that waited.
    pub gid: u32,
    /// Total time senders were late relative to the receive post (ns).
    pub wait_ns: u64,
    /// Number of late arrivals at this site.
    pub count: u64,
}

/// Late-sender wait-state report: for every completed receive whose matching
/// message became available *after* the receive was posted, the lateness
/// `sender_ready − recv_post` is charged to the receive's call site. This is
/// the classic late-sender wait state, detected here on the replayed match
/// graph rather than on raw timestamps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitReport {
    /// Total late-sender wait per rank (ns).
    pub per_rank: Vec<u64>,
    /// Call sites ordered by total wait descending (ties: lower GID first).
    pub sites: Vec<WaitSite>,
}

impl WaitReport {
    /// Aggregate wait across all ranks.
    pub fn total_wait_ns(&self) -> u64 {
        self.per_rank.iter().sum()
    }
}

#[derive(Debug, Clone)]
struct Message {
    src: u32,
    tag: i64,
    bytes: i64,
    /// Time the sender made the payload available (after its overhead).
    ready: u64,
    eager: bool,
    /// Post time of the matched receive (rendezvous senders block on this).
    recv_post: Option<u64>,
    consumed: bool,
}

#[derive(Debug, Clone)]
struct PostedRecv {
    src: i64,
    tag: i64,
    post_time: u64,
    /// Index of the matched message in the owner's inbox.
    matched: Option<usize>,
    wildcard: bool,
    /// Call site that posted the receive (late-sender attribution).
    gid: u32,
}

#[derive(Debug, Clone, Copy)]
enum Outstanding {
    Recv {
        posted_idx: usize,
    },
    SendEager,
    /// Rendezvous isend: (destination, index in destination's inbox).
    SendRdv {
        dst: u32,
        msg_idx: usize,
    },
}

struct RankState {
    idx: usize,
    time: u64,
    comm: u64,
    /// Messages addressed to this rank.
    inbox: Vec<Message>,
    posted: Vec<PostedRecv>,
    outstanding: VecDeque<(u32, Outstanding)>,
    coll_count: u64,
    wildcard_sources: Vec<u32>,
    /// Per-op retry state: message already delivered / recv already posted
    /// for the op currently at `idx`.
    cur_msg: Option<usize>,
    cur_recv: Option<usize>,
    done: bool,
    /// Tallies behind `ops_simulated` and `unmatched_recv_polls`.
    ops_done: u64,
    unmatched_polls: u64,
}

impl RankState {
    fn new() -> RankState {
        RankState {
            idx: 0,
            time: 0,
            comm: 0,
            inbox: Vec::new(),
            posted: Vec::new(),
            outstanding: VecDeque::new(),
            coll_count: 0,
            wildcard_sources: Vec::new(),
            cur_msg: None,
            cur_recv: None,
            done: false,
            ops_done: 0,
            unmatched_polls: 0,
        }
    }

    /// Match unmatched posted receives (in post order) against unconsumed
    /// inbox messages. Greedy and deterministic: a specific-source receive
    /// takes the earliest message in (src, tag) FIFO order; a wildcard takes
    /// the available message with the earliest ready time (ties: lowest src).
    fn match_all(&mut self) {
        for pi in 0..self.posted.len() {
            if self.posted[pi].matched.is_some() {
                continue;
            }
            let (want_src, want_tag, wildcard) = {
                let p = &self.posted[pi];
                (p.src, p.tag, p.wildcard)
            };
            let mut best: Option<usize> = None;
            for (mi, m) in self.inbox.iter().enumerate() {
                if m.consumed {
                    continue;
                }
                if m.tag != want_tag {
                    continue;
                }
                if wildcard {
                    match best {
                        None => best = Some(mi),
                        Some(b) => {
                            let bb = &self.inbox[b];
                            if (m.ready, m.src) < (bb.ready, bb.src) {
                                best = Some(mi);
                            }
                        }
                    }
                } else if m.src as i64 == want_src {
                    best = Some(mi);
                    break; // FIFO per (src, tag): first unconsumed wins
                }
            }
            if let Some(mi) = best {
                self.inbox[mi].consumed = true;
                self.inbox[mi].recv_post = Some(self.posted[pi].post_time);
                self.posted[pi].matched = Some(mi);
                if wildcard {
                    let src = self.inbox[mi].src;
                    self.wildcard_sources.push(src);
                }
            }
        }
    }

    /// Arrival-completion time of the message matched to `posted_idx`, or
    /// `None` if unmatched.
    fn recv_arrival(&mut self, posted_idx: usize, model: &LogGp) -> Option<u64> {
        let p = &self.posted[posted_idx];
        let Some(mi) = p.matched else {
            self.unmatched_polls += 1;
            return None;
        };
        let m = &self.inbox[mi];
        let start = if m.eager {
            m.ready
        } else {
            m.ready.max(p.post_time)
        };
        Some(start + model.wire_time(m.bytes))
    }

    /// Late-sender wait of the (matched) receive at `posted_idx`: how long
    /// the sender's payload lagged the receive post. Zero when the message
    /// was already available.
    fn late_sender_wait(&self, posted_idx: usize) -> (u32, u64) {
        let p = &self.posted[posted_idx];
        let gid = p.gid;
        match p.matched {
            Some(mi) => (gid, self.inbox[mi].ready.saturating_sub(p.post_time)),
            None => (gid, 0),
        }
    }
}

#[derive(Default)]
struct CollInstance {
    arrivals: HashMap<u32, u64>,
    op: Option<MpiOp>,
    bytes: i64,
    complete: Option<u64>,
}

/// Whether a [`Sim::run`] call finished the job or merely exhausted all
/// possible progress with the ops fed so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All ranks completed (finalizing runs only).
    Done,
    /// No rank can advance further until more ops are fed.
    Blocked,
}

/// A snapshot of the extrapolation-relevant simulator state, taken at a
/// quiescent (compacted) iteration boundary. See [`Sim::extrapolate`].
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    time: Vec<u64>,
    comm: Vec<u64>,
    waits: Vec<HashMap<u32, (u64, u64)>>,
}

/// Resumable simulation state. Feed ops with [`Sim::feed`], advance with
/// [`Sim::run`]; a finalizing run completes the job and [`Sim::into_result`]
/// extracts the answers.
pub struct Sim {
    model: LogGp,
    ranks: Vec<RankState>,
    ops: Vec<Vec<SimOp>>,
    collectives: Vec<CollInstance>,
    trace_waits: bool,
    /// Per-rank: gid → (total late-sender wait ns, late-arrival count).
    waits: Vec<HashMap<u32, (u64, u64)>>,
    /// Tally behind `blocked_rank_rounds`.
    blocked_rounds: u64,
}

impl Sim {
    pub fn new(nprocs: usize, model: &LogGp, trace_waits: bool) -> Sim {
        assert!(nprocs > 0, "simulate needs at least one rank");
        Sim {
            model: model.clone(),
            ranks: (0..nprocs).map(|_| RankState::new()).collect(),
            ops: vec![Vec::new(); nprocs],
            collectives: Vec::new(),
            trace_waits,
            waits: vec![HashMap::new(); nprocs],
            blocked_rounds: 0,
        }
    }

    /// Append ops to rank `r`'s pending stream.
    pub fn feed<I: IntoIterator<Item = SimOp>>(&mut self, r: usize, ops: I) {
        self.ops[r].extend(ops);
    }

    /// Round-robin all ranks until no further progress. With `finalize`,
    /// a rank that exhausts its ops retires (erroring if requests are still
    /// outstanding) and a global stall is a deadlock; without it, exhausted
    /// or blocked ranks simply wait for more fed ops.
    pub fn run(&mut self, finalize: bool) -> Result<RunOutcome, SimError> {
        let p = self.ranks.len();
        loop {
            let mut progressed = false;
            let mut all_done = true;
            for r in 0..p {
                while self.step_rank(r, finalize)? {
                    progressed = true;
                }
                if !self.ranks[r].done {
                    all_done = false;
                    self.blocked_rounds += 1;
                }
            }
            if finalize && all_done {
                return Ok(RunOutcome::Done);
            }
            if !progressed {
                if !finalize {
                    return Ok(RunOutcome::Blocked);
                }
                let blocked: Vec<String> = (0..p)
                    .filter(|&r| !self.ranks[r].done)
                    .map(|r| {
                        let o = &self.ops[r][self.ranks[r].idx.min(self.ops[r].len() - 1)];
                        format!("rank {r} at op {} ({})", self.ranks[r].idx, o.op)
                    })
                    .collect();
                DEADLOCKS_DETECTED.inc();
                obs_log!(
                    Level::Warn,
                    "simmpi",
                    "deadlock after no rank progressed: {} blocked",
                    blocked.len()
                );
                return Err(SimError(format!("deadlock: {}", blocked.join("; "))));
            }
        }
    }

    /// Whether the job is at a quiescent boundary: every fed op consumed,
    /// nothing in flight (no unconsumed messages, no unmatched posts, no
    /// outstanding requests, every collective instance complete, all ranks
    /// at the same collective count). From such a boundary the next ops see
    /// only the per-rank clocks — the precondition for [`Sim::compact`] and
    /// [`Sim::extrapolate`].
    pub fn quiescent(&self) -> bool {
        let cc0 = self.ranks.first().map(|s| s.coll_count).unwrap_or(0);
        self.ranks.iter().enumerate().all(|(r, s)| {
            s.idx == self.ops[r].len()
                && s.outstanding.is_empty()
                && s.coll_count == cc0
                && s.inbox.iter().all(|m| m.consumed)
                && s.posted.iter().all(|p| p.matched.is_some())
        }) && self.collectives.iter().all(|c| c.complete.is_some())
    }

    /// Drop fully-consumed history at a quiescent boundary: consumed ops,
    /// matched mailboxes, completed collectives. Keeps resident state O(one
    /// iteration) no matter how many iterations are replayed. Caller must
    /// have checked [`Sim::quiescent`].
    pub fn compact(&mut self) {
        debug_assert!(self.quiescent(), "compact requires a quiescent boundary");
        for (r, s) in self.ranks.iter_mut().enumerate() {
            self.ops[r].clear();
            s.idx = 0;
            s.inbox.clear();
            s.posted.clear();
            s.coll_count = 0;
        }
        self.collectives.clear();
    }

    /// Snapshot the extrapolation-relevant state (call at a compacted
    /// quiescent boundary).
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            time: self.ranks.iter().map(|s| s.time).collect(),
            comm: self.ranks.iter().map(|s| s.comm).collect(),
            waits: self.waits.clone(),
        }
    }

    /// Exact steady-state extrapolation. `base` is the snapshot at the
    /// *previous* quiescent boundary and the sim sits at the next one, so
    /// the deltas describe exactly one loop iteration. When the time delta
    /// is uniform across ranks, every subsequent iteration is a time-shifted
    /// copy of the last one (all engine arithmetic is adds and maxes of
    /// relative times; matching decisions compare relative times only), so
    /// `m` further iterations advance the state by `m`× the deltas —
    /// exactly, not approximately. Returns false (state untouched) when the
    /// delta is not uniform.
    pub fn extrapolate(&mut self, base: &SimSnapshot, m: u64) -> bool {
        let d = self.ranks[0].time.wrapping_sub(base.time[0]);
        if !(0..self.ranks.len()).all(|r| self.ranks[r].time.wrapping_sub(base.time[r]) == d) {
            return false;
        }
        for (r, s) in self.ranks.iter_mut().enumerate() {
            s.time += m * d;
            let dc = s.comm - base.comm[r];
            s.comm += m * dc;
            if self.trace_waits {
                for (gid, (w, c)) in self.waits[r].iter_mut() {
                    let (bw, bc) = base.waits[r].get(gid).copied().unwrap_or((0, 0));
                    *w += m * (*w - bw);
                    *c += m * (*c - bc);
                }
            }
        }
        true
    }

    /// Finish a completed simulation (after `run(true)` returned `Done`).
    pub fn into_result(mut self) -> (SimResult, WaitReport) {
        OPS_SIMULATED.add(self.ranks.iter().map(|s| s.ops_done).sum());
        UNMATCHED_RECV_POLLS.add(self.ranks.iter().map(|s| s.unmatched_polls).sum());
        BLOCKED_RANK_ROUNDS.add(self.blocked_rounds);
        let finish: Vec<u64> = self.ranks.iter().map(|s| s.time).collect();
        let total = finish.iter().copied().max().unwrap_or(0);
        let result = SimResult {
            total,
            comm_time: self.ranks.iter().map(|s| s.comm).collect(),
            wildcard_sources: self
                .ranks
                .iter_mut()
                .map(|s| std::mem::take(&mut s.wildcard_sources))
                .collect(),
            finish,
        };
        let per_rank: Vec<u64> = self
            .waits
            .iter()
            .map(|m| m.values().map(|(w, _)| w).sum())
            .collect();
        let mut by_gid: HashMap<u32, (u64, u64)> = HashMap::new();
        for m in &self.waits {
            for (&gid, &(w, c)) in m {
                let e = by_gid.entry(gid).or_insert((0, 0));
                e.0 += w;
                e.1 += c;
            }
        }
        let mut sites: Vec<WaitSite> = by_gid
            .into_iter()
            .map(|(gid, (wait_ns, count))| WaitSite {
                gid,
                wait_ns,
                count,
            })
            .collect();
        sites.sort_by(|a, b| b.wait_ns.cmp(&a.wait_ns).then(a.gid.cmp(&b.gid)));
        (result, WaitReport { per_rank, sites })
    }

    /// Try to advance rank `r` by one op; returns whether it advanced.
    fn step_rank(&mut self, r: usize, finalize: bool) -> Result<bool, SimError> {
        if self.ranks[r].done {
            return Ok(false);
        }
        if self.ranks[r].idx >= self.ops[r].len() {
            if !finalize {
                return Ok(false);
            }
            if !self.ranks[r].outstanding.is_empty() {
                return Err(SimError(format!(
                    "rank {r} finished with {} outstanding request(s)",
                    self.ranks[r].outstanding.len()
                )));
            }
            self.ranks[r].done = true;
            return Ok(true);
        }
        // Disjoint field borrows: `op` reads `ops` while rank/collective
        // state mutates.
        let Sim {
            model,
            ranks,
            ops,
            collectives,
            trace_waits,
            waits,
            ..
        } = self;
        let trace_waits = *trace_waits;
        let op = &ops[r][ranks[r].idx];
        let ready = ranks[r].time + op.pre_gap;
        let p = ranks.len() as u32;

        match op.op {
            MpiOp::Send | MpiOp::Isend => {
                let dst = op.params.dest;
                if dst < 0 || dst as usize >= ranks.len() {
                    return Err(SimError(format!("rank {r}: send to invalid rank {dst}")));
                }
                let dst = dst as usize;
                let bytes = op.params.count;
                let eager = model.is_eager(bytes);
                // Deliver exactly once, even across blocked retries.
                let msg_idx = match ranks[r].cur_msg {
                    Some(mi) => mi,
                    None => {
                        let msg = Message {
                            src: r as u32,
                            tag: op.params.tag,
                            bytes,
                            ready: ready + model.overhead_ns,
                            eager,
                            recv_post: None,
                            consumed: false,
                        };
                        ranks[dst].inbox.push(msg);
                        let mi = ranks[dst].inbox.len() - 1;
                        ranks[dst].match_all();
                        ranks[r].cur_msg = Some(mi);
                        mi
                    }
                };
                match op.op {
                    MpiOp::Send if !eager => match ranks[dst].inbox[msg_idx].recv_post {
                        Some(post) => {
                            let t = ready.max(post) + model.overhead_ns + model.ser_time(bytes);
                            complete(&mut ranks[r], ready, t);
                            Ok(true)
                        }
                        None => Ok(false),
                    },
                    MpiOp::Send => {
                        let t = ready + model.overhead_ns + model.ser_time(bytes);
                        complete(&mut ranks[r], ready, t);
                        Ok(true)
                    }
                    _ => {
                        // Isend: post and continue.
                        let out = if eager {
                            Outstanding::SendEager
                        } else {
                            Outstanding::SendRdv {
                                dst: dst as u32,
                                msg_idx,
                            }
                        };
                        ranks[r].outstanding.push_back((op.gid, out));
                        let t = ready + model.overhead_ns;
                        complete(&mut ranks[r], ready, t);
                        Ok(true)
                    }
                }
            }
            MpiOp::Recv | MpiOp::Irecv => {
                let posted_idx = match ranks[r].cur_recv {
                    Some(pi) => pi,
                    None => {
                        let pr = PostedRecv {
                            src: op.params.src,
                            tag: op.params.tag,
                            post_time: ready + model.overhead_ns,
                            matched: None,
                            wildcard: op.params.src == ANY_SOURCE,
                            gid: op.gid,
                        };
                        ranks[r].posted.push(pr);
                        let pi = ranks[r].posted.len() - 1;
                        ranks[r].match_all();
                        ranks[r].cur_recv = Some(pi);
                        pi
                    }
                };
                if op.op == MpiOp::Irecv {
                    ranks[r]
                        .outstanding
                        .push_back((op.gid, Outstanding::Recv { posted_idx }));
                    let t = ready + model.overhead_ns;
                    complete(&mut ranks[r], ready, t);
                    return Ok(true);
                }
                ranks[r].match_all();
                match ranks[r].recv_arrival(posted_idx, model) {
                    Some(arr) => {
                        let t = arr.max(ready) + model.overhead_ns;
                        complete(&mut ranks[r], ready, t);
                        record_wait(trace_waits, &mut waits[r], &ranks[r], posted_idx);
                        Ok(true)
                    }
                    None => Ok(false),
                }
            }
            MpiOp::Wait | MpiOp::Waitall | MpiOp::Waitany => {
                ranks[r].match_all();
                // All listed requests must be completable before any is removed.
                // Repeated gids in one waitall take queue entries in FIFO order.
                let mut completion = ready;
                let mut taken: HashMap<u32, usize> = HashMap::new();
                let mut needed: Vec<Outstanding> = Vec::with_capacity(op.params.req_gids.len());
                for &g in op.params.req_gids.iter() {
                    let nth = taken.entry(g).or_insert(0);
                    match ranks[r]
                        .outstanding
                        .iter()
                        .filter(|(k, _)| *k == g)
                        .nth(*nth)
                        .map(|(_, o)| *o)
                    {
                        Some(o) => {
                            needed.push(o);
                            *nth += 1;
                        }
                        None => {
                            return Err(SimError(format!(
                                "rank {r}: wait on unknown request gid {g}"
                            )))
                        }
                    }
                }
                for o in &needed {
                    match o {
                        Outstanding::SendEager => {}
                        Outstanding::SendRdv { dst, msg_idx } => {
                            match ranks[*dst as usize].inbox[*msg_idx].recv_post {
                                Some(post) => completion = completion.max(post),
                                None => return Ok(false),
                            }
                        }
                        Outstanding::Recv { posted_idx } => {
                            match ranks[r].recv_arrival(*posted_idx, model) {
                                Some(t) => completion = completion.max(t),
                                None => return Ok(false),
                            }
                        }
                    }
                }
                // Commit: remove the requests now.
                for &g in op.params.req_gids.iter() {
                    remove_outstanding(&mut ranks[r].outstanding, g);
                }
                let t = completion.max(ready) + model.overhead_ns;
                complete(&mut ranks[r], ready, t);
                for o in &needed {
                    if let Outstanding::Recv { posted_idx } = o {
                        record_wait(trace_waits, &mut waits[r], &ranks[r], *posted_idx);
                    }
                }
                Ok(true)
            }
            MpiOp::Barrier
            | MpiOp::Bcast
            | MpiOp::Reduce
            | MpiOp::Allreduce
            | MpiOp::Alltoall
            | MpiOp::Allgather => {
                let inst = ranks[r].coll_count as usize;
                if collectives.len() <= inst {
                    collectives.resize_with(inst + 1, CollInstance::default);
                }
                let c = &mut collectives[inst];
                match c.op {
                    None => {
                        c.op = Some(op.op);
                        c.bytes = op.params.count.max(0);
                    }
                    Some(existing) if existing != op.op => {
                        return Err(SimError(format!(
                            "collective mismatch at instance {inst}: rank {r} calls {} \
                             but another rank called {existing}",
                            op.op
                        )));
                    }
                    _ => {}
                }
                c.arrivals.entry(r as u32).or_insert(ready);
                if c.arrivals.len() < ranks.len() {
                    return Ok(false);
                }
                let start = *c.arrivals.values().max().expect("non-empty");
                let cost = match op.op {
                    MpiOp::Barrier => model.barrier(p),
                    MpiOp::Bcast | MpiOp::Reduce => model.tree_collective(p, c.bytes),
                    MpiOp::Allreduce => model.allreduce(p, c.bytes),
                    MpiOp::Alltoall => model.alltoall(p, c.bytes),
                    MpiOp::Allgather => model.allgather(p, c.bytes),
                    _ => unreachable!("matched collective ops above"),
                };
                let t = *c.complete.get_or_insert(start + cost);
                complete(&mut ranks[r], ready, t);
                ranks[r].coll_count += 1;
                Ok(true)
            }
            MpiOp::Sendrecv => {
                let dst = op.params.dest;
                if dst < 0 || dst as usize >= ranks.len() {
                    return Err(SimError(format!(
                        "rank {r}: sendrecv to invalid rank {dst}"
                    )));
                }
                let dst = dst as usize;
                if ranks[r].cur_msg.is_none() {
                    let msg = Message {
                        src: r as u32,
                        tag: op.params.tag,
                        bytes: op.params.count,
                        ready: ready + model.overhead_ns,
                        eager: true,
                        recv_post: None,
                        consumed: false,
                    };
                    ranks[dst].inbox.push(msg);
                    let mi = ranks[dst].inbox.len() - 1;
                    ranks[dst].match_all();
                    ranks[r].cur_msg = Some(mi);
                }
                let posted_idx = match ranks[r].cur_recv {
                    Some(pi) => pi,
                    None => {
                        let pr = PostedRecv {
                            src: op.params.src,
                            tag: op.params.rtag,
                            post_time: ready + model.overhead_ns,
                            matched: None,
                            wildcard: op.params.src == ANY_SOURCE,
                            gid: op.gid,
                        };
                        ranks[r].posted.push(pr);
                        let pi = ranks[r].posted.len() - 1;
                        ranks[r].match_all();
                        ranks[r].cur_recv = Some(pi);
                        pi
                    }
                };
                ranks[r].match_all();
                match ranks[r].recv_arrival(posted_idx, model) {
                    Some(arr) => {
                        let local = ready + model.overhead_ns + model.ser_time(op.params.count);
                        let t = arr.max(local) + model.overhead_ns;
                        complete(&mut ranks[r], ready, t);
                        record_wait(trace_waits, &mut waits[r], &ranks[r], posted_idx);
                        Ok(true)
                    }
                    None => Ok(false),
                }
            }
        }
    }
}

/// Simulate the given per-rank op sequences under `model`.
pub fn simulate(ops: &[Vec<SimOp>], model: &LogGp) -> Result<SimResult, SimError> {
    run_all(ops, model, false).map(|(r, _)| r)
}

/// Simulate with late-sender wait-state attribution enabled.
pub fn simulate_traced(
    ops: &[Vec<SimOp>],
    model: &LogGp,
) -> Result<(SimResult, WaitReport), SimError> {
    run_all(ops, model, true)
}

fn run_all(
    ops: &[Vec<SimOp>],
    model: &LogGp,
    trace_waits: bool,
) -> Result<(SimResult, WaitReport), SimError> {
    let p = ops.len();
    assert!(p > 0, "simulate needs at least one rank");
    let _span = SIMULATE_NS.span("simmpi", "simulate").arg(p as u64);
    let mut sim = Sim::new(p, model, trace_waits);
    for (r, rank_ops) in ops.iter().enumerate() {
        sim.feed(r, rank_ops.iter().cloned());
    }
    sim.run(true)?;
    let (result, waits) = sim.into_result();
    obs_log!(
        Level::Info,
        "simmpi",
        "simulated {p} ranks to completion: {} ns",
        result.total
    );
    Ok((result, waits))
}

/// Charge a completed receive's late-sender wait (if tracing).
fn record_wait(
    trace: bool,
    waits: &mut HashMap<u32, (u64, u64)>,
    rank: &RankState,
    posted_idx: usize,
) {
    if !trace {
        return;
    }
    let (gid, w) = rank.late_sender_wait(posted_idx);
    if w > 0 {
        let e = waits.entry(gid).or_insert((0, 0));
        e.0 += w;
        e.1 += 1;
    }
}

/// Complete the current op of rank `r`: advance clocks and op index.
fn complete(st: &mut RankState, ready: u64, t: u64) {
    st.ops_done += 1;
    st.comm += t.saturating_sub(ready);
    st.time = t;
    st.idx += 1;
    st.cur_msg = None;
    st.cur_recv = None;
}

/// Remove the first outstanding entry with gid `g`.
fn remove_outstanding(q: &mut VecDeque<(u32, Outstanding)>, g: u32) -> Option<Outstanding> {
    let pos = q.iter().position(|(k, _)| *k == g)?;
    q.remove(pos).map(|(_, o)| o)
}
