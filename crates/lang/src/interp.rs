//! The interpreter: executes a parsed loop body against the speculative
//! engine's instrumented context — the run-time half of the pass.
//!
//! The evaluator is generic over [`DataCtx`]: the engine's context
//! ([`rlrpd_core::IterCtx`], which also carries a counter program's
//! induction counter) and the tests' stand-ins.

use crate::analyze::Class;
use crate::ast::*;
use crate::bytecode::MemKind;
use rlrpd_core::{ArrayId, IterCtx};
use std::cell::RefCell;
use std::ops::ControlFlow;

thread_local! {
    /// Per-thread `let`-slot buffer, shared by every tree-walked loop
    /// body on the thread. The body is `&self`, so the iteration frame
    /// cannot live in the loop object; keeping one grow-only buffer
    /// per thread means the block hot loop never allocates — the same
    /// treatment the VM gives its register file.
    static LOCALS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a zeroed `n`-slot locals buffer drawn from the
/// per-thread scratch (no allocation once the buffer has grown to the
/// largest body on this thread).
pub(crate) fn with_locals<R>(n: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    LOCALS.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < n {
            buf.resize(n, 0.0);
        }
        let slots = &mut buf[..n];
        slots.fill(0.0);
        f(slots)
    })
}

/// Exactly `v.round() as i64` (round half away from zero, `as`-cast
/// saturation included), computed with integer conversions instead of
/// the float intrinsic. On baseline x86-64 (no SSE4.1) `f64::round`
/// lowers to a libm call, and this helper sits on the hottest path of
/// *both* compiled tiers — every `%` operand and every subscript —
/// so the call overhead dominated iteration time. Shared by the
/// tree-walk evaluator, the VM, and the constant folder, so all three
/// agree bit-for-bit by construction.
#[inline]
pub(crate) fn round_i64(v: f64) -> i64 {
    let t = v as i64; // truncate toward zero; saturating, NaN -> 0
    let frac = v - t as f64;
    t.saturating_add((frac >= 0.5) as i64 - (frac <= -0.5) as i64)
}

/// The `%` operator of the language: round both operands to integers,
/// Euclidean remainder.
///
/// # Panics
/// Panics when the rounded divisor is zero (a program fault).
#[inline]
pub(crate) fn rem_value(l: f64, r: f64) -> f64 {
    let (li, ri) = (round_i64(l), round_i64(r));
    assert!(ri != 0, "modulo by zero");
    li.rem_euclid(ri) as f64
}

/// Evaluate a subscript value into an element index.
///
/// # Panics
/// Panics on negative or non-integral subscripts (a bug in the source
/// program, reported with the offending value).
fn subscript(v: f64) -> usize {
    let r = round_i64(v);
    assert!(
        (v - r as f64).abs() < 1e-9 && r >= 0,
        "subscript {v} is not a non-negative integer"
    );
    r as usize
}

/// Uniform data-access interface over the engine's contexts.
pub(crate) trait DataCtx {
    fn read(&mut self, a: usize, i: usize) -> f64;
    fn write(&mut self, a: usize, i: usize, v: f64);
    fn reduce(&mut self, a: usize, i: usize, v: f64);
    /// What a `kind` reference to element `idx[l]` of array `a`, with
    /// value `val[l]`, for every lane `l` set in `live` in lane order,
    /// would leave behind: one memory instruction of a validated strip.
    fn replay_lanes(&mut self, a: usize, kind: MemKind, live: u32, idx: &[usize], val: &[f64]);
    fn exit(&mut self);
    /// Current induction-counter value.
    fn counter(&self) -> usize {
        panic!("this context carries no counter")
    }
    /// Bump the induction counter.
    fn bump(&mut self) {
        panic!("this context carries no counter")
    }
}

impl DataCtx for IterCtx<'_, f64> {
    fn read(&mut self, a: usize, i: usize) -> f64 {
        IterCtx::read(self, ArrayId(a as u32), i)
    }
    fn write(&mut self, a: usize, i: usize, v: f64) {
        IterCtx::write(self, ArrayId(a as u32), i, v)
    }
    fn reduce(&mut self, a: usize, i: usize, v: f64) {
        IterCtx::reduce(self, ArrayId(a as u32), i, v)
    }
    fn replay_lanes(&mut self, a: usize, kind: MemKind, live: u32, idx: &[usize], val: &[f64]) {
        let a = ArrayId(a as u32);
        match kind {
            MemKind::Load => self.read_lanes(a, live, idx),
            MemKind::Store => self.write_lanes(a, live, idx, val),
            MemKind::Reduce => self.reduce_lanes(a, live, idx, val),
        }
    }
    fn exit(&mut self) {
        IterCtx::exit(self)
    }
    fn counter(&self) -> usize {
        IterCtx::counter(self)
    }
    fn bump(&mut self) {
        IterCtx::bump(self)
    }
}

/// A context the VM's strip executor can run ahead on: it answers what
/// reads *would* return without the reads happening, and how long an
/// array is, so a strip can execute side-effect free and turn every
/// would-be fault into an abandoned strip.
pub(crate) trait PeekCtx: DataCtx {
    /// What `read(a, idx[l])` would return, into `out[l]` for every
    /// lane `l` set in `live`; `false` when one is out of bounds.
    fn peek_lanes(&self, a: usize, live: u32, idx: &[usize], out: &mut [f64]) -> bool;
    /// Number of elements of array `a`.
    fn len(&self, a: usize) -> usize;
}

impl PeekCtx for IterCtx<'_, f64> {
    fn peek_lanes(&self, a: usize, live: u32, idx: &[usize], out: &mut [f64]) -> bool {
        IterCtx::peek_lanes(self, ArrayId(a as u32), live, idx, out)
    }
    fn len(&self, a: usize) -> usize {
        IterCtx::len(self, ArrayId(a as u32))
    }
}

/// One iteration's evaluation state: loop-variable value, `let` slots
/// (reset per iteration), classifications (routing `⊕=`), and the
/// engine context.
pub(crate) struct Eval<'a, C> {
    pub i: f64,
    pub locals: &'a mut [f64],
    pub classes: &'a [Class],
    pub ctx: &'a mut C,
}

impl<'a, C: DataCtx> Eval<'a, C> {
    pub fn expr(&mut self, e: &Expr) -> f64 {
        match e {
            Expr::Num(n) => *n,
            Expr::LoopVar => self.i,
            Expr::Counter => self.ctx.counter() as f64,
            Expr::Local(slot) => self.locals[*slot],
            Expr::Read { array, index, .. } => {
                let idx = self.expr(index);
                self.ctx.read(*array, subscript(idx))
            }
            Expr::Call { func, args } => {
                let a = self.expr(&args[0]);
                match func {
                    Intrinsic::Min => a.min(self.expr(&args[1])),
                    Intrinsic::Max => a.max(self.expr(&args[1])),
                    Intrinsic::Abs => a.abs(),
                    Intrinsic::Sqrt => a.sqrt(),
                    Intrinsic::Floor => a.floor(),
                }
            }
            Expr::Neg(e) => -self.expr(e),
            Expr::Not(e) => {
                if self.expr(e) != 0.0 {
                    0.0
                } else {
                    1.0
                }
            }
            Expr::Bin { op, lhs, rhs } => {
                // Short-circuit logical operators.
                match op {
                    BinOp::And => {
                        return if self.expr(lhs) != 0.0 && self.expr(rhs) != 0.0 {
                            1.0
                        } else {
                            0.0
                        };
                    }
                    BinOp::Or => {
                        return if self.expr(lhs) != 0.0 || self.expr(rhs) != 0.0 {
                            1.0
                        } else {
                            0.0
                        };
                    }
                    _ => {}
                }
                let l = self.expr(lhs);
                let r = self.expr(rhs);
                match op {
                    BinOp::Add => l + r,
                    BinOp::Sub => l - r,
                    BinOp::Mul => l * r,
                    BinOp::Div => l / r,
                    BinOp::Rem => rem_value(l, r),
                    BinOp::Eq => bool_val(l == r),
                    BinOp::Ne => bool_val(l != r),
                    BinOp::Lt => bool_val(l < r),
                    BinOp::Le => bool_val(l <= r),
                    BinOp::Gt => bool_val(l > r),
                    BinOp::Ge => bool_val(l >= r),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }

    /// Execute `body`; `Break(())` means the iteration requested a
    /// premature loop exit and the rest of the body must not run.
    pub fn stmts(&mut self, body: &[Stmt]) -> ControlFlow<()> {
        for s in body {
            match s {
                Stmt::Let { slot, expr } => {
                    self.locals[*slot] = self.expr(expr);
                }
                Stmt::Assign {
                    array, index, expr, ..
                } => {
                    let idx = subscript(self.expr(index));
                    let v = self.expr(expr);
                    self.ctx.write(*array, idx, v);
                }
                Stmt::Update {
                    array,
                    index,
                    op,
                    expr,
                    ..
                } => {
                    let idx = subscript(self.expr(index));
                    let delta = self.expr(expr);
                    if matches!(self.classes[*array], Class::Reduction(_)) {
                        self.ctx.reduce(*array, idx, delta);
                    } else {
                        // Desugared read-modify-write under the LRPD
                        // test (or direct access for untested arrays).
                        let cur = self.ctx.read(*array, idx);
                        let v = match op {
                            UpdateOp::Add => cur + delta,
                            UpdateOp::Mul => cur * delta,
                        };
                        self.ctx.write(*array, idx, v);
                    }
                }
                Stmt::Bump => self.ctx.bump(),
                Stmt::Break { cond } => {
                    if self.expr(cond) != 0.0 {
                        self.ctx.exit();
                        return ControlFlow::Break(());
                    }
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    let taken = if self.expr(cond) != 0.0 {
                        self.stmts(then_body)
                    } else {
                        self.stmts(else_body)
                    };
                    if taken.is_break() {
                        return ControlFlow::Break(());
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

fn bool_val(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}
