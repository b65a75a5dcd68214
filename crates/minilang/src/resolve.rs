//! Name resolution and type checking for MiniMPI.
//!
//! One walk over each function's lexical scopes does two jobs:
//!
//! **Checking.** It validates a parsed [`Program`]:
//! - `main` exists and takes no parameters,
//! - every called user function exists, with matching arity,
//! - variables are defined before use (lexical scoping, `let` shadows),
//! - expressions are well typed (`if`/`while` conditions are `bool`,
//!   `for` bounds are `int`, builtin signatures respected),
//! - request handles (`req`) flow only from `isend`/`irecv` into
//!   `wait`/`waitall` (no arithmetic on requests, no `req` parameters),
//! - all `return` statements of a function agree on value-ness.
//!
//! **Resolution.** The same scope stack that answers "is this name
//! defined?" also answers "where does it live?": a binding's position in the
//! stack of live bindings *is* its frame slot. Every `let`/`for` binding,
//! parameter, variable read and assignment gets a slot index, every user
//! call its callee's function index and every function a frame size, so the
//! interpreter indexes a `Vec` where it used to hash a name. Slots are
//! reused once a block closes; a frame is as large as the deepest nest of
//! live bindings, not the number of `let`s.
//!
//! The walk never stops at an error: it records the first one and goes on,
//! so a program that fails the check still resolves every name that *can*
//! be resolved. [`check_program`] turns the recorded error into `Err`;
//! [`resolve_program`] hands back both, which is what static analysis uses —
//! a caller that skipped the check then gets today's run-time error at the
//! statement that executes the undefined name, not a panic.

use crate::ast::*;
use crate::error::{LangError, Result};
use crate::token::Pos;
use std::collections::HashMap;

/// [`Resolved::slot`] / [`Resolved::callee`] of a name that resolves to
/// nothing (undefined variable, unknown function).
pub const UNRESOLVED: u32 = u32::MAX;

/// Summary of a resolved program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved {
    /// Return type of each function, indexed like `Program::funcs`.
    pub ret_types: Vec<Type>,
    /// Frame slots each function needs, indexed like `Program::funcs`.
    /// Parameters take slots `0..params.len()`.
    pub frame_sizes: Vec<u32>,
    /// Indexed by [`NodeId`]: the slot a `let`/`for` statement binds, the
    /// slot an assignment or variable read refers to, or the function index
    /// a user call targets. [`UNRESOLVED`] for every other node.
    targets: Vec<u32>,
}

impl Resolved {
    /// Frame slot bound (`let`, `for`) or referred to (assignment, variable
    /// read) by node `id`; [`UNRESOLVED`] if the name is undefined there.
    pub fn slot(&self, id: NodeId) -> u32 {
        self.targets
            .get(id.0 as usize)
            .copied()
            .unwrap_or(UNRESOLVED)
    }

    /// Index into `Program::funcs` of the function the user call `id`
    /// targets; [`UNRESOLVED`] if no such function exists.
    pub fn callee(&self, id: NodeId) -> u32 {
        self.slot(id)
    }
}

/// Type check `prog`, returning per-function return types and the resolved
/// slots.
pub fn check_program(prog: &Program) -> Result<Resolved> {
    match resolve_program(prog) {
        (resolved, None) => Ok(resolved),
        (_, Some(err)) => Err(err),
    }
}

/// Resolve `prog` whether or not it is well formed: the result covers every
/// name that resolves, next to the first error [`check_program`] would
/// report.
pub fn resolve_program(prog: &Program) -> (Resolved, Option<LangError>) {
    let mut err: Option<LangError> = None;
    let mut fail = |pos: Option<Pos>, msg: String| {
        err.get_or_insert_with(|| LangError::resolve(pos, msg));
    };

    // Calls bind to the first function of a name, like `Program::func_index`.
    let mut by_name: HashMap<&str, usize> = HashMap::new();
    for (i, f) in prog.funcs.iter().enumerate() {
        if by_name.contains_key(f.name.as_str()) {
            fail(Some(f.pos), format!("duplicate function `{}`", f.name));
        } else {
            by_name.insert(f.name.as_str(), i);
        }
    }
    match prog.main() {
        None => fail(None, "program has no `main` function".to_string()),
        Some(main) if !main.params.is_empty() => {
            fail(Some(main.pos), "`main` must take no parameters".to_string())
        }
        Some(_) => {}
    }

    // Infer return types syntactically: a function whose body contains any
    // `return <expr>` returns int; otherwise unit. Mixing is an error.
    let mut ret_types = vec![Type::Unit; prog.funcs.len()];
    for (i, f) in prog.funcs.iter().enumerate() {
        let mut with_value = false;
        let mut without_value = false;
        f.body.visit_stmts(&mut |s| {
            if let StmtKind::Return { value } = &s.kind {
                if value.is_some() {
                    with_value = true;
                } else {
                    without_value = true;
                }
            }
        });
        if with_value && without_value {
            fail(
                Some(f.pos),
                format!("function `{}` mixes `return;` and `return <expr>;`", f.name),
            );
        }
        ret_types[i] = if with_value { Type::Int } else { Type::Unit };
    }

    // `return` is only allowed as the *last* top-level statement of a
    // function body. Early returns interact badly with structural CST
    // construction (they force tail duplication in CFG region walking), and
    // everything the paper's workloads express is writable with `if`/`else`
    // instead, so the language forbids them outright.
    for f in &prog.funcs {
        let last_id = f.body.stmts.last().map(|s| s.id);
        let mut bad: Option<Pos> = None;
        f.body.visit_stmts(&mut |s| {
            if matches!(s.kind, StmtKind::Return { .. }) && Some(s.id) != last_id && bad.is_none() {
                bad = Some(s.pos);
            }
        });
        if let Some(pos) = bad {
            fail(
                Some(pos),
                format!(
                    "`return` must be the last statement of function `{}`",
                    f.name
                ),
            );
        }
    }

    let mut ck = Checker {
        prog,
        by_name: &by_name,
        ret_types: &ret_types,
        bindings: Vec::new(),
        frame_size: 0,
        want_ret: Type::Unit,
        targets: vec![UNRESOLVED; prog.node_count as usize],
        err,
    };
    let mut frame_sizes = Vec::with_capacity(prog.funcs.len());
    for (f, &ret) in prog.funcs.iter().zip(&ret_types) {
        ck.bindings.clear();
        ck.frame_size = 0;
        ck.want_ret = ret;
        for p in &f.params {
            ck.declare(p, Type::Int);
        }
        ck.check_block(&f.body);
        frame_sizes.push(ck.frame_size);
    }

    let Checker { targets, err, .. } = ck;
    (
        Resolved {
            ret_types,
            frame_sizes,
            targets,
        },
        err,
    )
}

/// Reject MPI-op builtins and user-function calls anywhere in `e`.
fn forbid_comm_calls(e: &Expr) -> Result<()> {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Bool(_) | ExprKind::Var(_) => Ok(()),
        ExprKind::Unary(_, i) => forbid_comm_calls(i),
        ExprKind::Binary(_, l, r) => {
            forbid_comm_calls(l)?;
            forbid_comm_calls(r)
        }
        ExprKind::Call(c) => {
            match &c.callee {
                Callee::User(name) => {
                    return Err(LangError::resolve(
                        Some(e.pos),
                        format!("call to `{name}` not allowed in a `while` condition"),
                    ))
                }
                Callee::Builtin(b) if b.is_mpi_op() => {
                    return Err(LangError::resolve(
                        Some(e.pos),
                        format!(
                            "MPI operation `{}` not allowed in a `while` condition",
                            b.name()
                        ),
                    ))
                }
                Callee::Builtin(_) => {}
            }
            for a in &c.args {
                forbid_comm_calls(a)?;
            }
            Ok(())
        }
    }
}

struct Checker<'a> {
    prog: &'a Program,
    by_name: &'a HashMap<&'a str, usize>,
    ret_types: &'a [Type],
    /// Live bindings of the function being walked, innermost last. A
    /// binding's index is its frame slot; closing a scope truncates.
    bindings: Vec<(&'a str, Type)>,
    /// High-water mark of `bindings` over the current function.
    frame_size: u32,
    /// Return type of the current function.
    want_ret: Type,
    targets: Vec<u32>,
    /// The first error met, in walk order.
    err: Option<LangError>,
}

impl<'a> Checker<'a> {
    fn fail(&mut self, pos: Pos, msg: impl Into<String>) {
        if self.err.is_none() {
            self.err = Some(LangError::resolve(Some(pos), msg));
        }
    }

    fn declare(&mut self, name: &'a str, ty: Type) -> u32 {
        let slot = self.bindings.len() as u32;
        self.bindings.push((name, ty));
        self.frame_size = self.frame_size.max(slot + 1);
        slot
    }

    fn lookup(&self, name: &str) -> Option<(u32, Type)> {
        let slot = self.bindings.iter().rposition(|(n, _)| *n == name)?;
        Some((slot as u32, self.bindings[slot].1))
    }

    /// Run `body` in a fresh lexical scope: what it declares is gone, and
    /// its slots free, when it returns.
    fn scoped(&mut self, body: impl FnOnce(&mut Self)) {
        let mark = self.bindings.len();
        body(self);
        self.bindings.truncate(mark);
    }

    fn check_block(&mut self, b: &'a Block) {
        self.scoped(|ck| {
            for s in &b.stmts {
                ck.check_stmt(s);
            }
        });
    }

    fn check_stmt(&mut self, s: &'a Stmt) {
        match &s.kind {
            StmtKind::Let { name, init } => {
                let ty = self.check_expr(init);
                if ty == Type::Unit {
                    self.fail(
                        s.pos,
                        format!("cannot bind `{name}` to a unit-valued expression"),
                    );
                }
                self.targets[s.id.0 as usize] = self.declare(name, ty);
            }
            StmtKind::Assign { name, value } => {
                let target = self.lookup(name);
                if target.is_none() {
                    self.fail(s.pos, format!("assignment to undefined `{name}`"));
                }
                let val_ty = self.check_expr(value);
                if let Some((slot, var_ty)) = target {
                    self.targets[s.id.0 as usize] = slot;
                    if var_ty != val_ty {
                        self.fail(s.pos, format!("assigning {val_ty} to `{name}: {var_ty}`"));
                    }
                }
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expect(cond, Type::Bool);
                self.check_block(then_blk);
                if let Some(e) = else_blk {
                    self.check_block(e);
                }
            }
            StmtKind::For {
                var,
                start,
                end,
                step,
                body,
            } => {
                self.expect(start, Type::Int);
                self.expect(end, Type::Int);
                if let Some(st) = step {
                    self.expect(st, Type::Int);
                }
                // The induction variable and the body share one scope.
                self.scoped(|ck| {
                    ck.targets[s.id.0 as usize] = ck.declare(var, Type::Int);
                    for st in &body.stmts {
                        ck.check_stmt(st);
                    }
                });
            }
            StmtKind::While { cond, body } => {
                self.expect(cond, Type::Bool);
                // A `while` condition re-evaluates once more than the body
                // runs; MPI operations (or user calls, which may contain
                // them) there would break the CST's sequence-preservation
                // guarantee, so they are rejected. Pure builtins like
                // `rank()` remain allowed.
                if let Err(e) = forbid_comm_calls(cond) {
                    self.err.get_or_insert(e);
                }
                self.check_block(body);
            }
            StmtKind::Return { value } => match (value, self.want_ret) {
                (Some(e), Type::Int) => self.expect(e, Type::Int),
                (None, Type::Unit) => {}
                // Unreachable given the syntactic inference, but keep a
                // defensive error for future inference changes.
                (value, _) => {
                    if let Some(e) = value {
                        self.check_expr(e);
                    }
                    self.fail(s.pos, "return type mismatch");
                }
            },
            StmtKind::Expr { expr } => {
                self.check_expr(expr);
            }
        }
    }

    fn expect(&mut self, e: &'a Expr, want: Type) {
        let got = self.check_expr(e);
        if got != want {
            self.fail(e.pos, format!("expected {want}, found {got}"));
        }
    }

    /// Type of `e`. After an error the type is a guess; nothing reads it,
    /// because only the first error is kept.
    fn check_expr(&mut self, e: &'a Expr) -> Type {
        match &e.kind {
            ExprKind::Int(_) => Type::Int,
            ExprKind::Bool(_) => Type::Bool,
            ExprKind::Var(name) => match self.lookup(name) {
                Some((slot, ty)) => {
                    self.targets[e.id.0 as usize] = slot;
                    ty
                }
                None => {
                    self.fail(e.pos, format!("undefined variable `{name}`"));
                    Type::Int
                }
            },
            ExprKind::Unary(op, inner) => match op {
                UnOp::Neg => {
                    self.expect(inner, Type::Int);
                    Type::Int
                }
                UnOp::Not => {
                    self.expect(inner, Type::Bool);
                    Type::Bool
                }
            },
            ExprKind::Binary(op, l, r) => match op {
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                    self.expect(l, Type::Int);
                    self.expect(r, Type::Int);
                    Type::Int
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    self.expect(l, Type::Int);
                    self.expect(r, Type::Int);
                    Type::Bool
                }
                BinOp::And | BinOp::Or => {
                    self.expect(l, Type::Bool);
                    self.expect(r, Type::Bool);
                    Type::Bool
                }
            },
            ExprKind::Call(call) => self.check_call(e, call),
        }
    }

    fn check_call(&mut self, e: &'a Expr, call: &'a Call) -> Type {
        let (params, ret): (&[Type], Type) = match &call.callee {
            Callee::User(name) => match self.by_name.get(name.as_str()) {
                Some(&idx) => {
                    self.targets[e.id.0 as usize] = idx as u32;
                    let want = self.prog.funcs[idx].params.len();
                    if want != call.args.len() {
                        self.fail(
                            e.pos,
                            format!(
                                "`{name}` expects {want} argument(s), got {}",
                                call.args.len()
                            ),
                        );
                    }
                    (&[], self.ret_types[idx])
                }
                None => {
                    self.fail(e.pos, format!("call to undefined function `{name}`"));
                    (&[], Type::Int)
                }
            },
            Callee::Builtin(b @ (Builtin::Waitall | Builtin::Waitany)) => {
                if call.args.is_empty() {
                    self.fail(e.pos, format!("`{}` needs at least one request", b.name()));
                }
                for a in &call.args {
                    self.expect(a, Type::Req);
                }
                return Type::Unit;
            }
            Callee::Builtin(b) => {
                let (params, ret) = b.signature();
                if params.len() != call.args.len() {
                    self.fail(
                        e.pos,
                        format!(
                            "`{}` expects {} argument(s), got {}",
                            b.name(),
                            params.len(),
                            call.args.len()
                        ),
                    );
                }
                (params, ret)
            }
        };
        // User-function parameters are all `int`; so is the guess for an
        // argument beyond a builtin's signature.
        for (i, a) in call.args.iter().enumerate() {
            self.expect(a, params.get(i).copied().unwrap_or(Type::Int));
        }
        ret
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn check(src: &str) -> Result<Resolved> {
        check_program(&parse_program(src).unwrap())
    }

    #[test]
    fn accepts_well_typed_program() {
        check(
            "fn work(n) { for i in 0..n { send(rank() + 1, 8, 0); } }
             fn main() { work(3); let r = irecv(any_source(), 8, 0); wait(r); }",
        )
        .unwrap();
    }

    #[test]
    fn rejects_missing_main() {
        assert!(check("fn helper() { barrier(); }").is_err());
    }

    #[test]
    fn rejects_main_with_params() {
        assert!(check("fn main(x) { barrier(); }").is_err());
    }

    #[test]
    fn rejects_duplicate_function() {
        assert!(check("fn main() { } fn main() { }").is_err());
    }

    #[test]
    fn rejects_undefined_variable() {
        assert!(check("fn main() { let x = y + 1; }").is_err());
    }

    #[test]
    fn rejects_bool_condition_mismatch() {
        assert!(check("fn main() { if 1 + 2 { barrier(); } }").is_err());
        assert!(check("fn main() { while 3 { barrier(); } }").is_err());
    }

    #[test]
    fn rejects_arithmetic_on_requests() {
        assert!(check("fn main() { let r = isend(0, 8, 0); let x = r + 1; }").is_err());
    }

    #[test]
    fn rejects_wait_on_int() {
        assert!(check("fn main() { wait(3); }").is_err());
    }

    #[test]
    fn waitall_is_variadic_over_requests() {
        check("fn main() { let a = isend(0, 8, 0); let b = irecv(0, 8, 0); waitall(a, b); }")
            .unwrap();
        assert!(check("fn main() { waitall(); }").is_err());
        assert!(check("fn main() { let a = isend(0,8,0); waitall(a, 3); }").is_err());
    }

    #[test]
    fn rejects_wrong_arity_builtin() {
        assert!(check("fn main() { send(1, 2); }").is_err());
        assert!(check("fn main() { barrier(1); }").is_err());
    }

    #[test]
    fn rejects_wrong_arity_user_call() {
        assert!(check("fn f(a, b) { } fn main() { f(1); }").is_err());
    }

    #[test]
    fn rejects_call_to_undefined_function() {
        assert!(check("fn main() { nope(); }").is_err());
    }

    #[test]
    fn infers_int_return() {
        let r = check("fn half(n) { return n / 2; } fn main() { let x = half(8); compute(x); }")
            .unwrap();
        assert_eq!(r.ret_types, vec![Type::Int, Type::Unit]);
    }

    #[test]
    fn rejects_mixed_returns() {
        assert!(check("fn f(n) { if n > 0 { return 1; } return; } fn main() { f(1); }").is_err());
    }

    #[test]
    fn rejects_early_return() {
        assert!(check("fn main() { return; barrier(); }").is_err());
        assert!(check("fn f(n) { if n > 0 { return; } barrier(); } fn main() { f(1); }").is_err());
        assert!(check("fn f(n) { for i in 0..n { return; } } fn main() { f(1); }").is_err());
    }

    #[test]
    fn rejects_comm_in_while_condition() {
        assert!(check("fn p() { barrier(); return 1; } fn main() { while p() > 0 { } }").is_err());
        // (also rejected because `while barrier()` would not type check, but
        // the dedicated error fires first for int-returning wrappers)
        assert!(check("fn q() { return 1; } fn main() { while q() > 0 { barrier(); } }").is_err());
        check("fn main() { let i = 0; while i < size() { barrier(); i = i + 1; } }").unwrap();
    }

    #[test]
    fn accepts_tail_return() {
        check("fn f(n) { let r = 0; if n > 0 { r = 1; } return r; } fn main() { compute(f(2)); }")
            .unwrap();
    }

    #[test]
    fn rejects_binding_unit() {
        assert!(check("fn main() { let x = barrier(); }").is_err());
    }

    #[test]
    fn let_shadows_in_inner_scope() {
        check(
            "fn main() { let x = 1; if x > 0 { let x = true; if x { barrier(); } } compute(x); }",
        )
        .unwrap();
    }

    #[test]
    fn slots_are_positions_in_the_live_binding_stack() {
        let p = parse_program(
            "fn f(a, b) {
                 let c = a;
                 if c > 0 { let d = 1; let e = d; }
                 if c > 0 { let g = b; g = g + 1; }
             }
             fn main() { f(1, 2); }",
        )
        .unwrap();
        let r = check_program(&p).unwrap();
        // Parameters take 0 and 1; the deepest nest holds c, d and e.
        assert_eq!(r.frame_sizes, vec![5, 0]);
        let body = &p.funcs[0].body.stmts;
        let arm = |s: &Stmt| match &s.kind {
            StmtKind::If { then_blk, .. } => then_blk.stmts.clone(),
            _ => panic!("not an if"),
        };
        assert_eq!(r.slot(body[0].id), 2);
        let (first, second) = (arm(&body[1]), arm(&body[2]));
        assert_eq!((r.slot(first[0].id), r.slot(first[1].id)), (3, 4));
        // The sibling block reuses the slot the first one freed, and its
        // assignment refers to it.
        assert_eq!((r.slot(second[0].id), r.slot(second[1].id)), (3, 3));
        let StmtKind::Expr { expr: call } = &p.funcs[1].body.stmts[0].kind else {
            panic!("not a call statement");
        };
        assert_eq!(r.callee(call.id), 0);
    }

    #[test]
    fn a_failing_program_still_resolves_what_it_can() {
        let p = parse_program("fn main() { let x = 1; compute(y); nope(x); compute(x); }").unwrap();
        let (r, err) = resolve_program(&p);
        assert_eq!(err.unwrap().msg, "undefined variable `y`");
        assert_eq!(check_program(&p).unwrap_err().msg, "undefined variable `y`");
        let args = |i: usize| match &p.funcs[0].body.stmts[i].kind {
            StmtKind::Expr { expr } => match &expr.kind {
                ExprKind::Call(c) => (expr.id, c.args[0].id),
                _ => panic!("not a call"),
            },
            _ => panic!("not a call statement"),
        };
        assert_eq!(r.slot(args(1).1), UNRESOLVED); // y
        assert_eq!(r.callee(args(2).0), UNRESOLVED); // nope
        assert_eq!(r.slot(args(2).1), 0); // x, inside the bad call
        assert_eq!(r.slot(args(3).1), 0);
    }

    #[test]
    fn assignment_type_must_match() {
        assert!(check("fn main() { let x = 1; x = true; }").is_err());
    }
}
