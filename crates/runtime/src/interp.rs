//! Per-rank interpreter for instrumented MiniMPI programs.
//!
//! Plays the role of the paper's "customized MPI communication library":
//! it executes one process's view of the SPMD program, emitting structure
//! enter/exit events (the `PMPI_COMM_Structure` calls) and MPI records into
//! an [`EventSink`]. Ranks interpret independently — MiniMPI control flow
//! never depends on message payloads — so tracing `P` processes is `P`
//! independent runs; message *matching* happens later in `cypress-simmpi`.
//!
//! The instrumented program is the AST plus what the static side resolved
//! before the first rank ran ([`StaticInfo`]): a frame slot for every
//! binding and variable, a function index for every call, and the GID of
//! every instrumentation site per call path. Nothing is looked up by name
//! here. All live frames share one value stack (`locals`); a frame is the
//! `frame_size` slots from `base`, a call pushes its arguments straight into
//! the callee's first slots, and neither a block nor a loop iteration
//! allocates. A name the resolver could not resolve (the program skipped
//! `check_program`) has no slot, and fails when — and only if — the
//! statement using it executes.
//!
//! **Step budget.** One `tick` is charged per executed statement, per loop
//! iteration and per evaluated expression node; `InterpConfig::max_steps`
//! bounds their sum.
//!
//! Request handles are mapped to the GID of their posting operation
//! (paper §IV-A, Fig. 12): `wait`/`waitall` records carry the posting GIDs
//! in `params.req_gids`, which lets decompression re-pair them.

use cypress_cst::sitemap::{CallAction, PathId, ROOT_PATH};
use cypress_cst::tree::Arm;
use cypress_cst::StaticInfo;
use cypress_minilang::ast::*;
use cypress_obs::{Counter, Gauge};
use cypress_trace::event::{Event, MpiOp, MpiParams, MpiRecord, ANY_SOURCE, NONE};
use std::collections::{HashMap, VecDeque};
use std::fmt;

// Scope `interp`, shared by all ranks; each interpreter tallies into its own
// fields and flushes once, at the end of `run`.
/// Structure enter/exit + MPI events handed to the sink.
static EVENTS_EMITTED: Counter = Counter::new("interp", "events_emitted");
/// High-water mark of the live request-handle → GID table.
static REQ_TABLE_HIGH_WATER: Gauge = Gauge::new("interp", "req_table_high_water");

/// Runtime failure (arithmetic fault, budget exhaustion, internal error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError(pub String);

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error: {}", self.0)
    }
}

impl std::error::Error for RuntimeError {}

pub type RunResult<T> = Result<T, RuntimeError>;

pub use cypress_trace::event::EventSink;

/// Interpreter configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpConfig {
    /// Hard budget on executed statements+expressions, to bound runaway
    /// `while` loops (important for randomly generated programs).
    pub max_steps: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            max_steps: 200_000_000,
        }
    }
}

/// Fixed per-operation software overhead (ns) in the local time model.
const OP_OVERHEAD_NS: u64 = 1_000;
/// Additional ns per 1000 payload bytes in the local time model: 0.4 ns/byte
/// ≈ 2.5 GB/s effective local copy bandwidth.
const NS_PER_BYTE_X1000: u64 = 400;
/// Virtual nanoseconds per `compute(1)` unit.
const NS_PER_COMPUTE_UNIT: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Value {
    Int(i64),
    Bool(bool),
    Req(u64),
}

/// The accessors below run on every operand; their one error, which only
/// an unchecked program reaches, is built out of line so they inline.
impl Value {
    #[inline]
    fn as_int(&self) -> RunResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            other => Err(other.type_error("int")),
        }
    }

    #[inline]
    fn as_bool(&self) -> RunResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(other.type_error("bool")),
        }
    }

    #[inline]
    fn as_req(&self) -> RunResult<u64> {
        match self {
            Value::Req(v) => Ok(*v),
            other => Err(other.type_error("request")),
        }
    }

    #[cold]
    #[inline(never)]
    fn type_error(&self, want: &str) -> RuntimeError {
        RuntimeError(format!("expected {want}, got {self:?}"))
    }
}

/// One rank's interpreter.
pub struct Interp<'a, S: EventSink> {
    prog: &'a Program,
    info: &'a StaticInfo,
    sink: &'a mut S,
    rank: i64,
    nprocs: i64,
    cfg: InterpConfig,
    /// The slots of every live frame, innermost last, then any call
    /// arguments evaluated so far.
    locals: Vec<Value>,
    /// Where the current frame starts in `locals`.
    base: usize,
    /// Call path of the current frame.
    path: PathId,
    /// Live MiniMPI frames (`main` is 1).
    depth: usize,
    clock: u64,
    steps: u64,
    /// Posting GIDs of the requests issued from id `first_req` on, `None`
    /// once completed. The front is always live, so the window is as long
    /// as the oldest outstanding request is old, not as the run is.
    reqs: VecDeque<Option<u32>>,
    first_req: u64,
    live_reqs: usize,
    /// Most requests ever live at once, and events handed to the sink.
    peak_live_reqs: usize,
    emitted: u64,
    /// Recursion depth per pseudo-loop GID (for Exit-at-outermost).
    rec_depth: HashMap<u32, u32>,
    /// Monotone counter mixed into synthetic op durations.
    op_seq: u64,
}

impl<'a, S: EventSink> Interp<'a, S> {
    pub fn new(
        prog: &'a Program,
        info: &'a StaticInfo,
        rank: u32,
        nprocs: u32,
        cfg: InterpConfig,
        sink: &'a mut S,
    ) -> Self {
        Interp {
            prog,
            info,
            sink,
            rank: rank as i64,
            nprocs: nprocs as i64,
            cfg,
            locals: Vec::new(),
            base: 0,
            path: ROOT_PATH,
            depth: 0,
            clock: 0,
            steps: 0,
            reqs: VecDeque::new(),
            first_req: 1,
            live_reqs: 0,
            peak_live_reqs: 0,
            emitted: 0,
            rec_depth: HashMap::new(),
            op_seq: 0,
        }
    }

    /// Run `main` to completion; returns total virtual time (ns).
    pub fn run(&mut self) -> RunResult<u64> {
        let result = self.run_main();
        EVENTS_EMITTED.add(self.emitted);
        REQ_TABLE_HIGH_WATER.set_max(self.peak_live_reqs as i64);
        result
    }

    fn run_main(&mut self) -> RunResult<u64> {
        let main = self
            .prog
            .func_index("main")
            .ok_or_else(|| RuntimeError("no main function".into()))?;
        self.enter_frame(main, 0, ROOT_PATH);
        self.exec_stmts(&self.prog.funcs[main].body.stmts)?;
        if self.live_reqs != 0 {
            return Err(RuntimeError(format!(
                "{} request(s) never completed (missing wait)",
                self.live_reqs
            )));
        }
        Ok(self.clock)
    }

    fn tick(&mut self) -> RunResult<()> {
        self.steps += 1;
        if self.steps > self.cfg.max_steps {
            return Err(RuntimeError(format!(
                "step budget of {} exhausted (runaway loop?)",
                self.cfg.max_steps
            )));
        }
        Ok(())
    }

    /// Make the frame of function `fidx` current: its slots start at `base`
    /// (where the caller left the arguments) on call path `path`.
    fn enter_frame(&mut self, fidx: usize, base: usize, path: PathId) {
        let size = self.info.resolved.frame_sizes.get(fidx).copied();
        self.locals
            .resize(base + size.unwrap_or(0) as usize, Value::Int(0));
        self.base = base;
        self.path = path;
        self.depth += 1;
    }

    /// The slot node `id` resolved to in the current frame; `None` for a
    /// name that resolved to nothing.
    fn slot(&mut self, id: NodeId) -> Option<&mut Value> {
        let at = self
            .base
            .checked_add(self.info.resolved.slot(id) as usize)?;
        self.locals.get_mut(at)
    }

    /// Store `v` in the slot statement `id` binds (`let`, `for`) or assigns.
    /// Only an assignment can lack one, unless `info` is of another program.
    fn store(&mut self, id: NodeId, name: &str, v: Value) -> RunResult<()> {
        let slot = self
            .slot(id)
            .ok_or_else(|| RuntimeError(format!("assignment to undefined `{name}`")))?;
        *slot = v;
        Ok(())
    }

    /// Execute statements in order; `Ok(Some(v))` signals a `return`.
    fn exec_stmts(&mut self, stmts: &[Stmt]) -> RunResult<Option<Value>> {
        for s in stmts {
            if let Some(v) = self.exec_stmt(s)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> RunResult<Option<Value>> {
        self.tick()?;
        match &s.kind {
            StmtKind::Let { name, init: value } | StmtKind::Assign { name, value } => {
                let v = self.eval(value)?;
                self.store(s.id, name, v)?;
                Ok(None)
            }
            StmtKind::Expr { expr } => {
                self.eval(expr)?;
                Ok(None)
            }
            StmtKind::Return { value } => {
                let v = match value {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Some(v))
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let taken = self.eval(cond)?.as_bool()?;
                let (blk, arm) = if taken {
                    (Some(then_blk), Arm::Then)
                } else {
                    (else_blk.as_ref(), Arm::Else)
                };
                let gid = self.info.sitemap.branch_gid(self.path, s.id, arm);
                if let Some(g) = gid {
                    self.emit(Event::Enter { gid: g.0 });
                }
                let r = match blk {
                    Some(b) => self.exec_stmts(&b.stmts)?,
                    None => None,
                };
                if let Some(g) = gid {
                    self.emit(Event::Exit { gid: g.0 });
                }
                Ok(r)
            }
            StmtKind::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                let start = self.eval(start)?.as_int()?;
                let end = self.eval(end)?.as_int()?;
                let step = match step {
                    Some(e) => self.eval(e)?.as_int()?,
                    None => 1,
                };
                if step == 0 {
                    return Err(RuntimeError("`for` loop with step 0".into()));
                }
                let gid = self.info.sitemap.loop_gid(self.path, s.id);
                let mut i = start;
                let mut ret = None;
                while (step > 0 && i < end) || (step < 0 && i > end) {
                    self.tick()?;
                    if let Some(g) = gid {
                        self.emit(Event::Enter { gid: g.0 });
                    }
                    // The trip count follows `i`, not the slot: the body may
                    // assign to the variable without changing it.
                    self.store(s.id, var, Value::Int(i))?;
                    if let Some(v) = self.exec_stmts(&body.stmts)? {
                        ret = Some(v);
                        break;
                    }
                    // Past `i64`'s range is past `end`.
                    match i.checked_add(step) {
                        Some(next) => i = next,
                        None => break,
                    }
                }
                if let Some(g) = gid {
                    self.emit(Event::Exit { gid: g.0 });
                }
                Ok(ret)
            }
            StmtKind::While { cond, body } => {
                let gid = self.info.sitemap.loop_gid(self.path, s.id);
                let mut ret = None;
                while self.eval(cond)?.as_bool()? {
                    self.tick()?;
                    if let Some(g) = gid {
                        self.emit(Event::Enter { gid: g.0 });
                    }
                    if let Some(v) = self.exec_stmts(&body.stmts)? {
                        ret = Some(v);
                        break;
                    }
                }
                if let Some(g) = gid {
                    self.emit(Event::Exit { gid: g.0 });
                }
                Ok(ret)
            }
        }
    }

    fn eval(&mut self, e: &Expr) -> RunResult<Value> {
        self.tick()?;
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Bool(v) => Ok(Value::Bool(*v)),
            ExprKind::Var(n) => match self.slot(e.id) {
                Some(v) => Ok(*v),
                None => Err(RuntimeError(format!("undefined variable `{n}`"))),
            },
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match op {
                    UnOp::Neg => Ok(Value::Int(
                        v.as_int()?
                            .checked_neg()
                            .ok_or_else(|| RuntimeError("negation overflow".into()))?,
                    )),
                    UnOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                }
            }
            ExprKind::Binary(op, l, r) => self.eval_binary(*op, l, r),
            ExprKind::Call(c) => match &c.callee {
                Callee::User(name) => self.call_user(name, e.id, &c.args),
                Callee::Builtin(Builtin::Waitall) => self.eval_waitall(e.id, &c.args),
                Callee::Builtin(Builtin::Waitany) => self.eval_waitany(e.id, &c.args),
                Callee::Builtin(b) => self.eval_builtin(e.id, *b, &c.args),
            },
        }
    }

    fn eval_binary(&mut self, op: BinOp, l: &Expr, r: &Expr) -> RunResult<Value> {
        // Short-circuit logical operators.
        if op == BinOp::And {
            return Ok(Value::Bool(
                self.eval(l)?.as_bool()? && self.eval(r)?.as_bool()?,
            ));
        }
        if op == BinOp::Or {
            return Ok(Value::Bool(
                self.eval(l)?.as_bool()? || self.eval(r)?.as_bool()?,
            ));
        }
        let a = self.eval(l)?.as_int()?;
        let b = self.eval(r)?.as_int()?;
        let arith = |v: Option<i64>| {
            v.map(Value::Int)
                .ok_or_else(|| RuntimeError("integer overflow".into()))
        };
        match op {
            BinOp::Add => arith(a.checked_add(b)),
            BinOp::Sub => arith(a.checked_sub(b)),
            BinOp::Mul => arith(a.checked_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    Err(RuntimeError("division by zero".into()))
                } else {
                    arith(a.checked_div(b))
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    Err(RuntimeError("remainder by zero".into()))
                } else {
                    arith(a.checked_rem(b))
                }
            }
            BinOp::Eq => Ok(Value::Bool(a == b)),
            BinOp::Ne => Ok(Value::Bool(a != b)),
            BinOp::Lt => Ok(Value::Bool(a < b)),
            BinOp::Le => Ok(Value::Bool(a <= b)),
            BinOp::Gt => Ok(Value::Bool(a > b)),
            BinOp::Ge => Ok(Value::Bool(a >= b)),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    /// Evaluate `args` left to right onto the top of `locals`; returns where
    /// the first one landed.
    fn push_args(&mut self, args: &[Expr]) -> RunResult<usize> {
        let first = self.locals.len();
        for a in args {
            let v = self.eval(a)?;
            self.locals.push(v);
        }
        Ok(first)
    }

    fn call_user(&mut self, name: &str, call_expr: NodeId, args: &[Expr]) -> RunResult<Value> {
        // The arguments land where the callee's parameter slots will be.
        let callee_base = self.push_args(args)?;
        let fidx = self.info.resolved.callee(call_expr) as usize;
        let func = self
            .prog
            .funcs
            .get(fidx)
            .ok_or_else(|| RuntimeError(format!("call to undefined `{name}`")))?;
        if func.params.len() != args.len() {
            return Err(RuntimeError(format!("arity mismatch calling `{name}`")));
        }
        // The interpreter recurses natively per MiniMPI frame (~a dozen
        // native frames each); the driver gives it a 64 MiB stack, which
        // comfortably fits this guard even in debug builds.
        if self.depth > 2_000 {
            return Err(RuntimeError("call stack overflow".into()));
        }

        let (caller_base, caller_path) = (self.base, self.path);
        let action = self.info.sitemap.call_action(caller_path, call_expr);
        let (new_path, enter_pseudo, exit_pseudo) = match action {
            None => (caller_path, None, None),
            Some(CallAction::Inline { path }) => (path, None, None),
            Some(CallAction::EnterRecursive { pseudo, path }) => {
                // Each invocation of a recursive function is one iteration of
                // its pseudo loop; the Exit fires when the *outermost*
                // invocation returns (tracked via rec_depth).
                (path, pseudo, pseudo)
            }
            Some(CallAction::BackCall { pseudo, path }) => (path, pseudo, None),
        };
        if let Some(g) = enter_pseudo {
            let d = self.rec_depth.entry(g.0).or_insert(0);
            *d += 1;
            self.emit(Event::Enter { gid: g.0 });
        }

        self.enter_frame(fidx, callee_base, new_path);
        let ret = self.exec_stmts(&func.body.stmts);
        self.depth -= 1;
        self.locals.truncate(callee_base);
        self.base = caller_base;
        self.path = caller_path;
        let ret = ret?;

        if let Some(g) = enter_pseudo {
            let d = self
                .rec_depth
                .get_mut(&g.0)
                .expect("depth incremented on entry");
            *d -= 1;
            let depth_now = *d;
            if depth_now == 0 {
                self.rec_depth.remove(&g.0);
            }
            // Only the outermost EnterRecursive emits the Exit; BackCall
            // invocations (exit_pseudo == None) never do.
            if exit_pseudo.is_some() && depth_now == 0 {
                self.emit(Event::Exit { gid: g.0 });
            }
        }
        Ok(ret.unwrap_or(Value::Int(0)))
    }

    /// Synthetic duration for an MPI operation: overhead + size term + a
    /// small deterministic jitter so merged records have non-trivial time
    /// statistics.
    fn op_duration(&mut self, bytes: i64) -> u64 {
        self.op_seq += 1;
        let jitter = {
            // xorshift of (rank, op_seq) — deterministic across runs.
            let mut x = (self.rank as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)
                ^ self.op_seq.wrapping_mul(0xbf58476d1ce4e5b9);
            x ^= x >> 31;
            x = x.wrapping_mul(0x94d049bb133111eb);
            x ^= x >> 29;
            x % (OP_OVERHEAD_NS / 4 + 1)
        };
        // Sizes are the program's own numbers: saturate, never wrap.
        let size_term = (bytes.max(0) as u64).saturating_mul(NS_PER_BYTE_X1000) / 1000;
        OP_OVERHEAD_NS
            .saturating_add(size_term)
            .saturating_add(jitter)
    }

    /// Single funnel for all sink events, so the interpreter can account for
    /// its own emission volume (`interp/events_emitted`).
    fn emit(&mut self, ev: Event) {
        self.emitted += 1;
        self.sink.event(ev);
    }

    /// Issue the next request id for an operation posted at `gid`.
    fn post_request(&mut self, gid: u32) -> Value {
        let req = self.first_req + self.reqs.len() as u64;
        self.reqs.push_back(Some(gid));
        self.live_reqs += 1;
        self.peak_live_reqs = self.peak_live_reqs.max(self.live_reqs);
        Value::Req(req)
    }

    /// Complete `req`: its posting GID, or `None` if it is not outstanding.
    fn complete_request(&mut self, req: u64) -> Option<u32> {
        let at = usize::try_from(req.checked_sub(self.first_req)?).ok()?;
        let gid = self.reqs.get_mut(at)?.take()?;
        self.live_reqs -= 1;
        while let Some(None) = self.reqs.front() {
            self.reqs.pop_front();
            self.first_req += 1;
        }
        Some(gid)
    }

    /// GID of the MPI call site `call_expr` on the current path.
    fn mpi_gid(&self, call_expr: NodeId) -> u32 {
        self.info
            .sitemap
            .mpi_gid(self.path, call_expr)
            .map_or(0, |g| g.0)
    }

    fn record(&mut self, gid: u32, op: MpiOp, params: MpiParams) {
        let bytes = params.count.max(0).saturating_add(params.rcount.max(0));
        let dur = self.op_duration(bytes);
        let rec = MpiRecord {
            gid,
            op,
            params,
            t_start: self.clock,
            dur,
        };
        self.clock = self.clock.saturating_add(dur);
        self.emit(Event::Mpi(rec));
    }

    /// `waitall(r, ...)`: every argument evaluates before any completes.
    fn eval_waitall(&mut self, call_expr: NodeId, args: &[Expr]) -> RunResult<Value> {
        let first = self.push_args(args)?;
        let mut gids = Vec::with_capacity(args.len());
        for at in first..self.locals.len() {
            let req = self.locals[at].as_req()?;
            let post_gid = self
                .complete_request(req)
                .ok_or_else(|| RuntimeError("waitall on unknown/completed request".into()))?;
            gids.push(post_gid);
        }
        self.locals.truncate(first);
        let gid = self.mpi_gid(call_expr);
        self.record(gid, MpiOp::Waitall, MpiParams::completion(gids));
        Ok(Value::Int(0))
    }

    /// `waitany(r, ...)` — partial completion (§IV-A): exactly one of the
    /// listed requests completes. Which one is non-deterministic in real
    /// MPI; this runtime deterministically completes the first
    /// still-outstanding request in argument order, and the trace records
    /// the completed request's posting GID so replay can re-pair it.
    fn eval_waitany(&mut self, call_expr: NodeId, args: &[Expr]) -> RunResult<Value> {
        let first = self.push_args(args)?;
        let mut completed = None;
        for at in first..self.locals.len() {
            let req = self.locals[at].as_req()?;
            completed = self.complete_request(req);
            if completed.is_some() {
                break;
            }
        }
        self.locals.truncate(first);
        let post_gid =
            completed.ok_or_else(|| RuntimeError("waitany with no outstanding request".into()))?;
        let gid = self.mpi_gid(call_expr);
        self.record(gid, MpiOp::Waitany, MpiParams::completion(vec![post_gid]));
        Ok(Value::Int(0))
    }

    /// Every builtin of fixed arity.
    fn eval_builtin(
        &mut self,
        call_expr: NodeId,
        b: Builtin,
        arg_exprs: &[Expr],
    ) -> RunResult<Value> {
        // Only a program that skipped the check gets the count wrong.
        if arg_exprs.len() != b.signature().0.len() {
            return Err(RuntimeError(format!(
                "arity mismatch calling `{}`",
                b.name()
            )));
        }
        // Evaluate arguments first (left to right), as the checker promises.
        let mut args = [Value::Int(0); 6];
        for (v, a) in args.iter_mut().zip(arg_exprs) {
            *v = self.eval(a)?;
        }
        let int = |i: usize| -> RunResult<i64> { args[i].as_int() };
        // `rank`, `size`, `any_source` and `compute` are not sites.
        let gid = if b.is_mpi_op() {
            self.mpi_gid(call_expr)
        } else {
            0
        };

        match b {
            Builtin::Rank => return Ok(Value::Int(self.rank)),
            Builtin::Size => return Ok(Value::Int(self.nprocs)),
            Builtin::AnySource => return Ok(Value::Int(ANY_SOURCE)),
            Builtin::Compute => {
                let units = int(0)?.max(0) as u64;
                let base = units.saturating_mul(NS_PER_COMPUTE_UNIT);
                // Real computation phases vary run to run (cache effects, OS
                // noise); add a deterministic ±6% wobble so merged records
                // carry non-trivial gap statistics (and trace-driven
                // prediction shows realistic error, as in Fig. 21).
                self.op_seq += 1;
                let mut x = (self.rank as u64 + 17).wrapping_mul(0x9e3779b97f4a7c15)
                    ^ self.op_seq.wrapping_mul(0xd6e8feb86659fd93);
                x ^= x >> 32;
                let wobble_pct = (x % 13) as i64 - 6; // -6..=6

                // `base * wobble_pct` fits an i64 below `i64::MAX / 7`; the
                // i128 form, for the rest, truncates alike.
                let cost = if base <= (i64::MAX / 7) as u64 {
                    let base = base as i64;
                    (base + base * wobble_pct / 100) as u64
                } else {
                    let adj = base as i128 * wobble_pct as i128 / 100;
                    u64::try_from(base as i128 + adj).unwrap_or(u64::MAX)
                };
                self.clock = self.clock.saturating_add(cost);
            }
            Builtin::Send => {
                let (dest, count, tag) = (int(0)?, int(1)?, int(2)?);
                self.check_peer(dest, "send destination")?;
                self.record(gid, MpiOp::Send, MpiParams::send(dest, count, tag));
            }
            Builtin::Recv => {
                let (src, count, tag) = (int(0)?, int(1)?, int(2)?);
                self.check_src(src)?;
                self.record(gid, MpiOp::Recv, MpiParams::recv(src, count, tag));
            }
            Builtin::Isend => {
                let (dest, count, tag) = (int(0)?, int(1)?, int(2)?);
                self.check_peer(dest, "isend destination")?;
                let req = self.post_request(gid);
                self.record(gid, MpiOp::Isend, MpiParams::send(dest, count, tag));
                return Ok(req);
            }
            Builtin::Irecv => {
                let (src, count, tag) = (int(0)?, int(1)?, int(2)?);
                self.check_src(src)?;
                let req = self.post_request(gid);
                self.record(gid, MpiOp::Irecv, MpiParams::recv(src, count, tag));
                return Ok(req);
            }
            Builtin::Wait => {
                let req = args[0].as_req()?;
                let post_gid = self
                    .complete_request(req)
                    .ok_or_else(|| RuntimeError("wait on unknown/completed request".into()))?;
                self.record(gid, MpiOp::Wait, MpiParams::completion(vec![post_gid]));
            }
            Builtin::Waitall | Builtin::Waitany => unreachable!("variadic: dispatched in eval"),
            Builtin::Barrier => self.record(gid, MpiOp::Barrier, MpiParams::collective(0)),
            Builtin::Bcast => {
                let (root, count) = (int(0)?, int(1)?);
                self.check_peer(root, "bcast root")?;
                self.record(gid, MpiOp::Bcast, MpiParams::rooted(root, count));
            }
            Builtin::Reduce => {
                let (root, count) = (int(0)?, int(1)?);
                self.check_peer(root, "reduce root")?;
                self.record(gid, MpiOp::Reduce, MpiParams::rooted(root, count));
            }
            Builtin::Allreduce => {
                self.record(gid, MpiOp::Allreduce, MpiParams::collective(int(0)?))
            }
            Builtin::Alltoall => self.record(gid, MpiOp::Alltoall, MpiParams::collective(int(0)?)),
            Builtin::Allgather => {
                self.record(gid, MpiOp::Allgather, MpiParams::collective(int(0)?))
            }
            Builtin::Sendrecv => {
                let (dest, count, tag) = (int(0)?, int(1)?, int(2)?);
                let (src, rcount, rtag) = (int(3)?, int(4)?, int(5)?);
                self.check_peer(dest, "sendrecv destination")?;
                self.check_src(src)?;
                self.record(
                    gid,
                    MpiOp::Sendrecv,
                    MpiParams::sendrecv(dest, count, tag, src, rcount, rtag),
                );
            }
        }
        Ok(Value::Int(0))
    }

    fn check_peer(&self, r: i64, what: &str) -> RunResult<()> {
        if r < 0 || r >= self.nprocs {
            return Err(RuntimeError(format!(
                "{what} {r} out of range 0..{} on rank {}",
                self.nprocs, self.rank
            )));
        }
        Ok(())
    }

    fn check_src(&self, r: i64) -> RunResult<()> {
        if r == ANY_SOURCE {
            return Ok(());
        }
        self.check_peer(r, "receive source")
    }

    /// Virtual time accumulated so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }
}

/// Convenience: does this event sequence carry a given MPI op?
pub fn has_op(events: &[Event], op: MpiOp) -> bool {
    events
        .iter()
        .any(|e| matches!(e, Event::Mpi(r) if r.op == op))
}

/// Check an event stream's structural sanity: every `Exit` matches the most
/// recent unmatched `Enter`-ed structure *or* closes an enclosing loop whose
/// iterations re-`Enter` (the protocol of §IV-A). Used by tests.
pub fn well_nested(events: &[Event]) -> bool {
    let mut stack: Vec<u32> = Vec::new();
    for e in events {
        match e {
            Event::Enter { gid } => {
                // Loop iterations re-enter the same gid: collapse.
                if stack.last() != Some(gid) {
                    stack.push(*gid);
                }
            }
            Event::Exit { gid } => {
                // Pop until we close `gid`.
                loop {
                    match stack.pop() {
                        Some(g) if g == *gid => break,
                        Some(_) => continue,
                        None => return false,
                    }
                }
            }
            Event::Mpi(_) => {}
        }
    }
    true
}

#[allow(unused)]
fn _static_assert_none_is_distinct() {
    // ANY_SOURCE and NONE must stay distinct for `check_src`.
    const _: () = assert!(ANY_SOURCE != NONE);
}
