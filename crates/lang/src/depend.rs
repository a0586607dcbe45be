//! Symbolic dependence analysis — the real compile-time half of the
//! paper's hybrid static/dynamic framework.
//!
//! The classifier in [`crate::analyze`] needs to know, for every array
//! and every loop, whether two *different* iterations can touch the
//! same element with a write involved. This module answers that
//! question without enumerating the iteration space:
//!
//! * every array reference is normalized to an [`AccessDesc`] — an
//!   affine subscript `a·i + b` when the subscript provably is one, or
//!   an opaque subscript with an optional value [`Interval`] otherwise;
//! * a **value-range (interval) analysis** over `let` locals and
//!   arithmetic keeps moduli and clamped indirections like `i % 31` or
//!   `(i*11 + 3) % 512` finite: `e % m` either *stays affine* (when
//!   `range(e) ⊆ [0, m-1]` the modulo is the identity) or becomes an
//!   opaque subscript with the range `[0, |m|-1]`;
//! * cross-iteration conflicts between two affine subscripts are
//!   decided in O(1) by a **GCD test** plus a **Banerjee-style bound
//!   intersection** (the t-interval of the Diophantine solution line
//!   intersected with the iteration bounds), and when a dependence must
//!   exist its minimum **distance** and the first possible **sink
//!   iteration** are computed in closed form from the same line;
//! * opaque subscripts fall back to interval disjointness (a proof of
//!   independence) or a pigeonhole argument (`width < #iters` forces a
//!   repeated element — a *must* conflict for an unguarded write);
//! * every conflicting pair is decided once, into one [`LoopDeps`]
//!   table per loop; classification, the DOACROSS proof
//!   ([`doacross_plan`]), the strip refusal and the lint notes read it;
//! * a per-array **touch-density estimate** (how many distinct elements
//!   the loop will mark) feeds shadow-structure selection.
//!
//! Nothing in the conflict decisions iterates over the loop range, so
//! classifying a `0..10^15` loop costs the same as a `0..10` one.

use crate::analyze::{Class, Classification};
use crate::ast::*;
use crate::pretty::subscript_to_string;

/// An inclusive integer interval `[lo, hi]` (saturating arithmetic; the
/// subscript domain is well inside `i64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible value.
    pub lo: i64,
    /// Largest possible value.
    pub hi: i64,
}

impl Interval {
    /// The interval `[lo, hi]` (panics if inverted).
    pub fn new(lo: i64, hi: i64) -> Self {
        assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The single-point interval `[v, v]`.
    pub fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// Number of integers covered (saturating).
    pub fn width(&self) -> u64 {
        (self.hi as i128 - self.lo as i128 + 1).min(u64::MAX as i128) as u64
    }

    /// `self + other` (saturating).
    pub fn add(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    /// `self - other` (saturating).
    pub fn sub(&self, other: &Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(other.hi),
            hi: self.hi.saturating_sub(other.lo),
        }
    }

    /// `-self`.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: self.hi.saturating_neg(),
            hi: self.lo.saturating_neg(),
        }
    }

    /// `self * other` (all four corner products, saturating).
    pub fn mul(&self, other: &Interval) -> Interval {
        let cs = [
            self.lo as i128 * other.lo as i128,
            self.lo as i128 * other.hi as i128,
            self.hi as i128 * other.lo as i128,
            self.hi as i128 * other.hi as i128,
        ];
        let clamp = |v: i128| v.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
        Interval {
            lo: clamp(*cs.iter().min().unwrap()),
            hi: clamp(*cs.iter().max().unwrap()),
        }
    }

    /// Does `self` share any integer with `other`?
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Is every value of `self` inside `other`?
    pub fn within(&self, other: &Interval) -> bool {
        other.lo <= self.lo && self.hi <= other.hi
    }

    /// The intersection, when non-empty.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }
}

/// A normalized subscript: affine in the loop variable, or opaque with
/// whatever value range the interval analysis could prove.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Subscript {
    /// `a·i + b` for loop variable `i`.
    Affine {
        /// Coefficient of the loop variable.
        a: i64,
        /// Constant offset.
        b: i64,
    },
    /// Not affine; `range` bounds the value when known (e.g. a modulo).
    Opaque {
        /// Provable value bounds, when any.
        range: Option<Interval>,
    },
}

impl Subscript {
    /// The value range of this subscript over iterations `[lo, hi)`,
    /// when known.
    pub fn range(&self, lo: i64, hi: i64) -> Option<Interval> {
        match *self {
            Subscript::Affine { a, b } => {
                if lo >= hi {
                    return None;
                }
                let iter = Interval::new(lo, hi - 1);
                Some(iter.mul(&Interval::point(a)).add(&Interval::point(b)))
            }
            Subscript::Opaque { range } => range,
        }
    }
}

/// Symbolic value of an expression: optional affine form plus optional
/// value range (each can be known independently).
#[derive(Clone, Copy, Debug)]
struct SymVal {
    /// `a·i + b` when the value is provably that.
    affine: Option<(i64, i64)>,
    /// Provable integer value bounds.
    range: Option<Interval>,
}

impl SymVal {
    fn opaque() -> Self {
        SymVal {
            affine: None,
            range: None,
        }
    }

    fn constant(v: i64) -> Self {
        SymVal {
            affine: Some((0, v)),
            range: Some(Interval::point(v)),
        }
    }

    fn ranged(r: Interval) -> Self {
        SymVal {
            affine: None,
            range: Some(r),
        }
    }

    /// The constant value, when this is provably one.
    fn as_const(&self) -> Option<i64> {
        match (self.affine, self.range) {
            (Some((0, b)), _) => Some(b),
            (_, Some(r)) if r.lo == r.hi => Some(r.lo),
            _ => None,
        }
    }

    fn subscript(&self) -> Subscript {
        match self.affine {
            Some((a, b)) => Subscript::Affine { a, b },
            None => Subscript::Opaque { range: self.range },
        }
    }
}

/// Symbolic evaluation environment for one loop.
struct SymEnv {
    locals: Vec<SymVal>,
    /// Value interval of the loop variable (`[lo, hi-1]`), `None` for
    /// an empty loop.
    iter: Option<Interval>,
}

impl SymEnv {
    fn eval(&self, e: &Expr) -> SymVal {
        match e {
            Expr::Num(n) => {
                if n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
                    SymVal::constant(*n as i64)
                } else {
                    SymVal::opaque()
                }
            }
            Expr::LoopVar => SymVal {
                affine: Some((1, 0)),
                range: self.iter,
            },
            Expr::Counter | Expr::Read { .. } => SymVal::opaque(),
            Expr::Local(slot) => self
                .locals
                .get(*slot)
                .copied()
                .unwrap_or_else(SymVal::opaque),
            Expr::Neg(inner) => {
                let v = self.eval(inner);
                SymVal {
                    affine: v
                        .affine
                        .and_then(|(a, b)| Some((a.checked_neg()?, b.checked_neg()?))),
                    range: v.range.map(|r| r.neg()),
                }
            }
            Expr::Not(_) => SymVal::ranged(Interval::new(0, 1)),
            Expr::Bin { op, lhs, rhs } => self.eval_bin(*op, lhs, rhs),
            Expr::Call { func, args } => self.eval_call(*func, args),
        }
    }

    fn eval_bin(&self, op: BinOp, lhs: &Expr, rhs: &Expr) -> SymVal {
        let l = self.eval(lhs);
        let r = self.eval(rhs);
        match op {
            BinOp::Add => SymVal {
                affine: combine(l.affine, r.affine, i64::checked_add),
                range: l.range.zip(r.range).map(|(a, b)| a.add(&b)),
            },
            BinOp::Sub => SymVal {
                affine: combine(l.affine, r.affine, i64::checked_sub),
                range: l.range.zip(r.range).map(|(a, b)| a.sub(&b)),
            },
            BinOp::Mul => {
                let affine = match (l.as_const(), r.as_const()) {
                    (Some(c), _) => scale(r.affine, c),
                    (_, Some(c)) => scale(l.affine, c),
                    _ => None,
                };
                SymVal {
                    affine,
                    range: l.range.zip(r.range).map(|(a, b)| a.mul(&b)),
                }
            }
            BinOp::Div => {
                // Exact division only: (a·i + b) / c is affine iff c
                // divides both coefficients (otherwise the quotient is
                // fractional for some i and nothing can be proved).
                match (l.affine, r.as_const()) {
                    (Some((a, b)), Some(c)) if c != 0 && a % c == 0 && b % c == 0 => SymVal {
                        affine: Some((a / c, b / c)),
                        range: self
                            .iter
                            .map(|it| it.mul(&Interval::point(a / c)).add(&Interval::point(b / c))),
                    },
                    _ => SymVal::opaque(),
                }
            }
            BinOp::Rem => {
                // The interpreter computes `l.round().rem_euclid(m)`,
                // which lands in [0, |m|-1] for any constant m != 0.
                // The rewrite win: when range(l) already fits in
                // [0, |m|-1], the modulo is the identity and the
                // subscript stays affine.
                match r.as_const() {
                    Some(m) if m != 0 => {
                        let mab = m.abs();
                        let bound = Interval::new(0, mab - 1);
                        match l.range {
                            Some(lr) if lr.within(&bound) => l,
                            _ => SymVal::ranged(bound),
                        }
                    }
                    _ => SymVal::opaque(),
                }
            }
            BinOp::Eq
            | BinOp::Ne
            | BinOp::Lt
            | BinOp::Le
            | BinOp::Gt
            | BinOp::Ge
            | BinOp::And
            | BinOp::Or => SymVal::ranged(Interval::new(0, 1)),
        }
    }

    fn eval_call(&self, func: Intrinsic, args: &[Expr]) -> SymVal {
        let a = self.eval(&args[0]);
        match func {
            Intrinsic::Min | Intrinsic::Max => {
                let b = self.eval(&args[1]);
                let range = a.range.zip(b.range).map(|(ra, rb)| match func {
                    Intrinsic::Min => Interval::new(ra.lo.min(rb.lo), ra.hi.min(rb.hi)),
                    _ => Interval::new(ra.lo.max(rb.lo), ra.hi.max(rb.hi)),
                });
                SymVal {
                    affine: None,
                    range,
                }
            }
            Intrinsic::Abs => match a.range {
                // abs of a provably non-negative value is the identity.
                Some(r) if r.lo >= 0 => a,
                Some(r) => {
                    let hi = r.lo.abs().max(r.hi.abs());
                    let lo = if r.lo <= 0 && r.hi >= 0 {
                        0
                    } else {
                        r.lo.abs().min(r.hi.abs())
                    };
                    SymVal::ranged(Interval::new(lo, hi))
                }
                None => SymVal::opaque(),
            },
            // Affine values over an integer loop variable are integral,
            // so floor is the identity on them.
            Intrinsic::Floor => a,
            Intrinsic::Sqrt => SymVal::opaque(),
        }
    }
}

fn combine(
    l: Option<(i64, i64)>,
    r: Option<(i64, i64)>,
    op: fn(i64, i64) -> Option<i64>,
) -> Option<(i64, i64)> {
    let ((a1, b1), (a2, b2)) = (l?, r?);
    Some((op(a1, a2)?, op(b1, b2)?))
}

fn scale(v: Option<(i64, i64)>, c: i64) -> Option<(i64, i64)> {
    let (a, b) = v?;
    Some((a.checked_mul(c)?, b.checked_mul(c)?))
}

/// One array reference, normalized for dependence testing.
#[derive(Clone, Debug)]
pub struct AccessDesc {
    /// Normalized subscript.
    pub subscript: Subscript,
    /// Write (assign / update) vs read.
    pub is_write: bool,
    /// Span of the innermost enclosing `if` when the reference is
    /// conditional; `None` for an unconditional reference.
    pub guard: Option<Span>,
    /// Source position of the reference itself.
    pub span: Span,
    /// The subscript as source text (diagnostics).
    pub text: String,
}

/// Everything the walk learned about one array in one loop.
#[derive(Clone, Debug, Default)]
pub struct ArrayRefs {
    /// Normalized ordinary accesses (updates appear as write + read).
    pub accesses: Vec<AccessDesc>,
    /// `A[e] ⊕= …` operators seen, with their spans.
    pub updates: Vec<(UpdateOp, Span)>,
    /// Referenced outside the update pattern (or an update's delta or
    /// subscript reads the array itself) — disqualifies reduction.
    pub non_reduction_ref: bool,
}

struct Collector<'p> {
    program: &'p Program,
    loop_var: &'p str,
    env: SymEnv,
    guards: Vec<Span>,
    refs: Vec<ArrayRefs>,
}

impl Collector<'_> {
    fn subscript_text(&self, array: usize, index: &Expr) -> String {
        subscript_to_string(self.program, array, index, self.loop_var)
    }

    fn push_access(&mut self, array: usize, index: &Expr, span: Span, is_write: bool) {
        let desc = AccessDesc {
            subscript: self.env.eval(index).subscript(),
            is_write,
            guard: self.guards.last().copied(),
            span,
            text: self.subscript_text(array, index),
        };
        self.refs[array].accesses.push(desc);
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Read { array, index, span } => {
                self.refs[*array].non_reduction_ref = true;
                self.push_access(*array, index, *span, false);
                self.expr(index);
            }
            Expr::Bin { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Neg(e) | Expr::Not(e) => self.expr(e),
            Expr::Call { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Num(_) | Expr::LoopVar | Expr::Counter | Expr::Local(_) => {}
        }
    }

    fn reads_array(e: &Expr, array: usize) -> bool {
        match e {
            Expr::Read {
                array: a, index, ..
            } => *a == array || Self::reads_array(index, array),
            Expr::Bin { lhs, rhs, .. } => {
                Self::reads_array(lhs, array) || Self::reads_array(rhs, array)
            }
            Expr::Neg(e) | Expr::Not(e) => Self::reads_array(e, array),
            Expr::Call { args, .. } => args.iter().any(|a| Self::reads_array(a, array)),
            _ => false,
        }
    }

    fn stmts(&mut self, body: &[Stmt]) {
        for s in body {
            match s {
                Stmt::Let { slot, expr } => {
                    self.expr(expr);
                    self.env.locals[*slot] = self.env.eval(expr);
                }
                Stmt::Assign {
                    array,
                    index,
                    expr,
                    span,
                } => {
                    self.refs[*array].non_reduction_ref = true;
                    self.push_access(*array, index, *span, true);
                    self.expr(index);
                    self.expr(expr);
                }
                Stmt::Update {
                    array,
                    index,
                    op,
                    expr,
                    span,
                } => {
                    self.refs[*array].updates.push((*op, *span));
                    if Self::reads_array(expr, *array) || Self::reads_array(index, *array) {
                        self.refs[*array].non_reduction_ref = true;
                    }
                    // For the non-reduction fallback the update is a
                    // read-modify-write of one element.
                    self.push_access(*array, index, *span, true);
                    self.push_access(*array, index, *span, false);
                    self.expr(index);
                    self.expr(expr);
                }
                Stmt::Bump => {}
                Stmt::Break { cond } => self.expr(cond),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span,
                } => {
                    self.expr(cond);
                    // Guards are conservatively assumed taken, but the
                    // references under them remember the guard span.
                    self.guards.push(*span);
                    self.stmts(then_body);
                    self.stmts(else_body);
                    self.guards.pop();
                }
            }
        }
    }
}

/// Walk loop `k` of `program` and normalize every array reference:
/// `result[array_id]`.
pub fn collect_refs(program: &Program, k: usize) -> Vec<ArrayRefs> {
    let nest = &program.loops[k];
    let (lo, hi) = nest.range;
    let iter = (lo < hi).then(|| Interval::new(lo as i64, hi as i64 - 1));
    let mut c = Collector {
        program,
        loop_var: &nest.loop_var,
        env: SymEnv {
            locals: vec![SymVal::opaque(); nest.num_locals],
            iter,
        },
        guards: Vec::new(),
        refs: vec![ArrayRefs::default(); program.arrays.len()],
    };
    c.stmts(&nest.body);
    c.refs
}

/// How certain the analysis is that the dependence occurs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Certainty {
    /// Two distinct in-range iterations provably touch the same
    /// element (and every involved reference is unconditional).
    Must,
    /// A conflict cannot be ruled out (opaque subscripts or guarded
    /// references).
    May,
}

/// A cross-iteration dependence between one pair of subscripts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairDep {
    /// Proven or merely possible.
    pub certainty: Certainty,
    /// Minimum dependence distance `|i - j|` over all conflicting
    /// iteration pairs, when computable.
    pub distance: Option<usize>,
    /// Earliest iteration that can be the *sink* (later endpoint) of a
    /// conflicting pair, when computable.
    pub first_sink: Option<usize>,
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Extended Euclid on non-zero `a, b`: returns `(g, x, y)` with
/// `a·x + b·y = g = gcd(|a|, |b|) > 0`.
fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        let s = if a < 0 { -1 } else { 1 };
        return (a * s, s, 0);
    }
    let (g, x, y) = ext_gcd(b, a.rem_euclid(b));
    (g, y, x - a.div_euclid(b) * y)
}

/// The integer-`t` interval where `base + slope·t ∈ [lo, hi]`
/// (`slope != 0`); `None` when empty.
fn t_interval(base: i128, slope: i128, lo: i128, hi: i128) -> Option<(i128, i128)> {
    // base + slope·t >= lo  and  base + slope·t <= hi.
    let (a, b) = (lo - base, hi - base);
    let (tlo, thi) = if slope > 0 {
        (div_ceil(a, slope), div_floor(b, slope))
    } else {
        (div_ceil(b, slope), div_floor(a, slope))
    };
    (tlo <= thi).then_some((tlo, thi))
}

fn div_floor(a: i128, b: i128) -> i128 {
    a.div_euclid(b.abs()) * b.signum()
        - if b < 0 && a.rem_euclid(b.abs()) != 0 {
            1
        } else {
            0
        }
}

fn div_ceil(a: i128, b: i128) -> i128 {
    -div_floor(-a, b)
}

/// Decide whether subscripts `s1` and `s2` can refer to the same
/// element from two *different* iterations of `lo..hi`. `None` means
/// provably not. No iteration-space enumeration happens here: the
/// affine/affine case is a GCD test, a Banerjee-style bound
/// intersection on the solution line, and closed-form distance
/// minimization; opaque cases use interval disjointness.
pub fn subscripts_conflict(s1: Subscript, s2: Subscript, lo: usize, hi: usize) -> Option<PairDep> {
    if hi.saturating_sub(lo) < 2 {
        return None; // fewer than two iterations: nothing is cross-iteration
    }
    let (il, iu) = (lo as i128, hi as i128 - 1);
    match (s1, s2) {
        (Subscript::Affine { a: a1, b: b1 }, Subscript::Affine { a: a2, b: b2 }) => {
            affine_pair(a1 as i128, b1 as i128, a2 as i128, b2 as i128, il, iu)
        }
        _ => {
            let r1 = s1.range(lo as i64, hi as i64);
            let r2 = s2.range(lo as i64, hi as i64);
            match (r1, r2) {
                (Some(r1), Some(r2)) if !r1.intersects(&r2) => None,
                _ => Some(PairDep {
                    certainty: Certainty::May,
                    distance: None,
                    first_sink: None,
                }),
            }
        }
    }
}

/// Exact conflict decision for `a1·i + b1 = a2·j + b2`, `i, j ∈
/// [il, iu]`, `i ≠ j`.
fn affine_pair(a1: i128, b1: i128, a2: i128, b2: i128, il: i128, iu: i128) -> Option<PairDep> {
    let c = b2 - b1;
    let must = |distance: Option<usize>, first_sink: Option<usize>| {
        Some(PairDep {
            certainty: Certainty::Must,
            distance,
            first_sink,
        })
    };
    match (a1, a2) {
        (0, 0) => {
            // Two constants: conflict iff the same element.
            if c != 0 {
                return None;
            }
            must(Some(1), Some((il + 1) as usize))
        }
        (0, a) | (a, 0) => {
            // One access is a constant element; the other hits it at
            // exactly one iteration j (if integral and in range), and
            // the constant access runs at every other iteration.
            let num = if a1 == 0 { b1 - b2 } else { b2 - b1 };
            if num % a != 0 {
                return None;
            }
            let j = num / a;
            if j < il || j > iu {
                return None;
            }
            let sink = if j > il { j } else { il + 1 };
            must(Some(1), Some(sink as usize))
        }
        _ if a1 == a2 => {
            // Equal strides: i - j = c / a1 must be a non-zero integer
            // no larger than the iteration span.
            if c % a1 != 0 {
                return None;
            }
            let d = (c / a1).abs();
            if d == 0 || d > iu - il {
                return None;
            }
            must(Some(d as usize), Some((il + d) as usize))
        }
        _ => affine_general(a1, a2, c, il, iu),
    }
}

/// General case: solve the Diophantine line and intersect with bounds.
fn affine_general(a1: i128, a2: i128, c: i128, il: i128, iu: i128) -> Option<PairDep> {
    // GCD test: a1·i - a2·j = c has integer solutions iff g | c.
    let (g, x, y) = ext_gcd(a1, -a2);
    debug_assert_eq!(g, gcd(a1 as i64, a2 as i64) as i128);
    if c % g != 0 {
        return None;
    }
    // Solution line: i = i0 + si·t, j = j0 + sj·t.
    let (i0, j0) = (x * (c / g), y * (c / g));
    let (si, sj) = (a2 / g, a1 / g);
    // Banerjee-style bound intersection: the t-window where both i and
    // j stay inside the iteration bounds.
    let (ti_lo, ti_hi) = t_interval(i0, si, il, iu)?;
    let (tj_lo, tj_hi) = t_interval(j0, sj, il, iu)?;
    let (tlo, thi) = (ti_lo.max(tj_lo), ti_hi.min(tj_hi));
    if tlo > thi {
        return None;
    }
    // diff(t) = i - j is linear with non-zero slope (a1 != a2), so at
    // most one t gives i == j (a same-iteration touch, not a
    // dependence). The candidate scan below skips it.
    let d0 = i0 - j0;
    let sd = si - sj;
    debug_assert_ne!(sd, 0);
    // Candidate ts: window ends plus the integers around the real
    // minimizer of |diff| (and of the sink) — a linear function's
    // constrained integer optimum is always adjacent to its real root
    // or at the window ends.
    let t_star = -d0 as f64 / sd as f64;
    let mut cands = vec![tlo, thi, tlo + 1, thi - 1];
    for base in [t_star.floor() as i128, t_star.ceil() as i128] {
        for dt in -1..=1 {
            cands.push(base + dt);
        }
    }
    let mut best_dist: Option<i128> = None;
    let mut best_sink: Option<i128> = None;
    for t in cands {
        if t < tlo || t > thi {
            continue;
        }
        let diff = d0 + sd * t;
        if diff == 0 {
            continue;
        }
        let (i, j) = (i0 + si * t, j0 + sj * t);
        let dist = diff.abs();
        let sink = i.max(j);
        best_dist = Some(best_dist.map_or(dist, |b| b.min(dist)));
        best_sink = Some(best_sink.map_or(sink, |b| b.min(sink)));
    }
    // The whole window collapsing onto i == j means no
    // cross-iteration pair exists.
    best_dist?;
    Some(PairDep {
        certainty: Certainty::Must,
        distance: best_dist.map(|d| d as usize),
        first_sink: best_sink.map(|s| s.max(il + 1) as usize),
    })
}

/// One endpoint of a conflicting reference pair (diagnostics).
#[derive(Clone, Debug)]
pub struct RefInfo {
    /// Source position of the reference.
    pub span: Span,
    /// Write vs read.
    pub is_write: bool,
    /// The reference as source text.
    pub text: String,
    /// Span of the guard this reference sits under, when any.
    pub guard: Option<Span>,
}

impl RefInfo {
    fn of(a: &AccessDesc) -> Self {
        RefInfo {
            span: a.span,
            is_write: a.is_write,
            text: a.text.clone(),
            guard: a.guard,
        }
    }
}

/// Evidence for (or against ruling out) a cross-iteration dependence
/// on one array.
#[derive(Clone, Debug)]
pub struct ConflictEvidence {
    /// One endpoint of the conflicting pair.
    pub src: RefInfo,
    /// The other endpoint.
    pub sink: RefInfo,
    /// Proven or merely possible.
    pub certainty: Certainty,
    /// Minimum dependence distance, when computable.
    pub distance: Option<usize>,
    /// Earliest possible sink iteration, when computable.
    pub first_sink: Option<usize>,
    /// The conflicting pair involves at least one guarded reference.
    pub guarded: bool,
}

/// One conflicting reference pair of one array: `accesses[p]` and
/// `accesses[q]` of `refs[array]`, `q ≥ p` (`p == q` is one reference
/// against itself in another iteration).
#[derive(Clone, Copy, Debug)]
pub struct PairRow {
    /// Array declaration index.
    pub array: usize,
    /// The earlier reference in body order.
    pub p: usize,
    /// The later (or the same) reference in body order.
    pub q: usize,
    /// Certainty, minimum distance and first sink. A guard demotes the
    /// certainty to `May` — it may never fire — but its distance
    /// geometry still holds *if* it fires.
    pub dep: PairDep,
    /// Both subscripts are affine with equal strides, so the distance
    /// is the same at every iteration.
    pub uniform: bool,
    /// On a uniform row: `q` is the source (it touches the element at
    /// the earlier iteration) and `p` the sink. Of two references to
    /// one constant element, the write is the source.
    pub reversed: bool,
    /// At least one endpoint sits under a guard.
    pub guarded: bool,
}

/// A loop's dependence table: its references, from the one
/// [`collect_refs`] walk, and every pair of them that two *different*
/// iterations can make touch the same element with a write involved,
/// decided once — O(refs²), never O(iterations). Classification, the
/// DOACROSS proof, the strip refusal and the lint notes are folds over
/// it.
#[derive(Clone, Debug)]
pub struct LoopDeps {
    /// `refs[array]`: the normalized references.
    pub refs: Vec<ArrayRefs>,
    /// The conflicting pairs, in `(array, p, q ≥ p)` order.
    pub pairs: Vec<PairRow>,
}

impl LoopDeps {
    /// Walk loop `k` of `program` once and decide every reference pair.
    pub fn build(program: &Program, k: usize) -> Self {
        let (lo, hi) = program.loops[k].range;
        let n_iters = hi.saturating_sub(lo) as u64;
        let refs = collect_refs(program, k);
        let mut pairs = Vec::new();
        for (array, ar) in refs.iter().enumerate() {
            for (p, ap) in ar.accesses.iter().enumerate() {
                for (q, aq) in ar.accesses.iter().enumerate().skip(p) {
                    if !ap.is_write && !aq.is_write {
                        continue;
                    }
                    let dep = if p == q {
                        self_conflict(ap, lo, n_iters)
                    } else {
                        subscripts_conflict(ap.subscript, aq.subscript, lo, hi)
                    };
                    let Some(mut dep) = dep else { continue };
                    let guarded = ap.guard.is_some() || aq.guard.is_some();
                    if guarded {
                        dep.certainty = Certainty::May;
                    }
                    // `aq` at iteration `i + t` touches what `ap` did at
                    // `i`, with `t = (b1 - b2) / a`.
                    let (uniform, reversed) = match (ap.subscript, aq.subscript) {
                        (Subscript::Affine { a: 0, .. }, Subscript::Affine { a: 0, .. }) => {
                            (true, aq.is_write && !ap.is_write)
                        }
                        (
                            Subscript::Affine { a: a1, b: b1 },
                            Subscript::Affine { a: a2, b: b2 },
                        ) if a1 == a2 => (true, (b1 as i128 - b2 as i128) / (a1 as i128) < 0),
                        _ => (false, false),
                    };
                    pairs.push(PairRow {
                        array,
                        p,
                        q,
                        dep,
                        uniform,
                        reversed,
                        guarded,
                    });
                }
            }
        }
        LoopDeps { refs, pairs }
    }

    /// The rows of one array, in table order.
    pub fn rows(&self, array: usize) -> impl Iterator<Item = &PairRow> {
        self.pairs.iter().filter(move |r| r.array == array)
    }

    /// The evidence that most forces the test on `array`: the first row
    /// at the best rank — proven before possible, nearer before farther.
    pub fn evidence(&self, array: usize) -> Option<ConflictEvidence> {
        let row = self.rows(array).min_by_key(|r| {
            (
                r.dep.certainty == Certainty::May,
                r.dep.distance.unwrap_or(usize::MAX),
            )
        })?;
        let acc = &self.refs[array].accesses;
        Some(ConflictEvidence {
            src: RefInfo::of(&acc[row.p]),
            sink: RefInfo::of(&acc[row.q]),
            certainty: row.dep.certainty,
            distance: row.dep.distance,
            first_sink: row.dep.first_sink,
            guarded: row.guarded,
        })
    }
}

/// Can one access conflict with *itself* across iterations?
fn self_conflict(a: &AccessDesc, lo: usize, n_iters: u64) -> Option<PairDep> {
    if n_iters < 2 {
        return None;
    }
    match a.subscript {
        // a·i + b is injective in i for a != 0; constant subscripts
        // collide every iteration.
        Subscript::Affine { a: 0, .. } => Some(PairDep {
            certainty: Certainty::Must,
            distance: Some(1),
            first_sink: Some(lo + 1),
        }),
        Subscript::Affine { .. } => None,
        Subscript::Opaque { range } => {
            // Pigeonhole: n iterations into fewer than n slots must
            // repeat one — a proven conflict for an unguarded write.
            let must =
                a.is_write && a.guard.is_none() && range.is_some_and(|r| r.width() < n_iters);
            Some(PairDep {
                certainty: if must {
                    Certainty::Must
                } else {
                    Certainty::May
                },
                distance: None,
                first_sink: None,
            })
        }
    }
}

/// One proven uniform-distance cross-iteration dependence of a
/// DOACROSS plan: at every iteration `i ≥ lo + distance`, the `sink`
/// reference touches the element the `source` reference touched at
/// iteration `i - distance`.
#[derive(Clone, Debug)]
pub struct DoacrossDep {
    /// Array declaration index.
    pub array: usize,
    /// Uniform dependence distance, in iterations (`≥ 1`).
    pub distance: usize,
    /// The earlier-iteration endpoint.
    pub source: RefInfo,
    /// The later-iteration endpoint.
    pub sink: RefInfo,
}

/// Why the proof refused a loop.
#[derive(Clone, Debug)]
pub struct DoacrossBlock {
    /// Array declaration index of the blocking reference, when the
    /// block is attributable to one array.
    pub array: Option<usize>,
    /// The reference that defeats the proof, when one.
    pub reference: Option<RefInfo>,
    /// Human-readable reason.
    pub reason: String,
}

/// Eligibility verdict of [`doacross_plan`].
#[derive(Clone, Debug)]
pub enum DoacrossVerdict {
    /// Every cross-iteration dependence is proven (`Must`) with a
    /// uniform distance: the distances a synchronized (DOACROSS)
    /// schedule would wait at.
    Eligible,
    /// No cross-iteration dependence exists at all — a doall;
    /// speculation never restarts on such a loop.
    Independent,
    /// At least one reference defeats the proof.
    Blocked(DoacrossBlock),
}

/// The per-array distance-vector proof: either *every* cross-iteration
/// dependence of the loop is a `Must` at a uniform
/// (iteration-independent) distance — in which case the distance set
/// is a complete synchronization recipe — or the reference that
/// defeats the proof is named. `rlrpd analyze` and the lint notes
/// report it; every loop speculates either way.
///
/// The proof is deliberately all-or-nothing: one `May`, one opaque or
/// non-uniform subscript, one guarded conflicting pair, and the whole
/// loop is blocked. A synchronized run would perform direct
/// (undo-less) writes, so there is no partial credit.
#[derive(Clone, Debug)]
pub struct DoacrossPlan {
    /// Eligibility verdict.
    pub verdict: DoacrossVerdict,
    /// The proven uniform-distance dependences (deduplicated per
    /// `(array, distance)`); non-empty iff the verdict is `Eligible`.
    pub deps: Vec<DoacrossDep>,
    /// Iteration count of the analyzed loop.
    pub n_iters: usize,
}

impl DoacrossPlan {
    /// Is every cross-iteration dependence proven at a uniform
    /// distance?
    pub fn eligible(&self) -> bool {
        matches!(self.verdict, DoacrossVerdict::Eligible)
    }

    /// Minimum proven distance, when the plan has dependences.
    pub fn min_distance(&self) -> Option<usize> {
        self.deps.iter().map(|d| d.distance).min()
    }

    /// Proven distances, ascending and deduplicated.
    pub fn distances(&self) -> Vec<usize> {
        let mut ds: Vec<usize> = self.deps.iter().map(|d| d.distance).collect();
        ds.sort_unstable();
        ds.dedup();
        ds
    }
}

/// Is there a `break` anywhere in `body`? A premature exit under a
/// synchronized schedule would leave direct writes from in-flight later
/// iterations with nothing to undo them, so it blocks the proof; under
/// speculation it keeps every untested array's undo log.
pub(crate) fn body_has_break(body: &[Stmt]) -> bool {
    body.iter().any(|s| match s {
        Stmt::Break { .. } => true,
        Stmt::If {
            then_body,
            else_body,
            ..
        } => body_has_break(then_body) || body_has_break(else_body),
        _ => false,
    })
}

/// Fold loop `k`'s dependence table into its DOACROSS eligibility
/// proof.
///
/// The ladder, in order: counter programs are blocked (they compile to
/// the EXTEND two-pass scheme, not a pipelineable body); loops with
/// fewer than two iterations are trivially independent; then, array by
/// array, a reduction (hinted or natural, as `classes` says) blocks —
/// its lowered body performs speculative reduction ops with no
/// direct-mode equivalent — and so does the first row that is not
/// uniform (opaque or unequal strides) or sits under a guard; a `break`
/// blocks; and a loop with no uniform row is `Independent`, not
/// `Eligible`.
pub fn doacross_plan(
    program: &Program,
    k: usize,
    deps: &LoopDeps,
    classes: &[Classification],
) -> DoacrossPlan {
    let (lo, hi) = program.loops[k].range;
    let n_iters = hi.saturating_sub(lo);
    let (verdict, deps) = match prove(program, k, n_iters, deps, classes) {
        Ok(deps) if deps.is_empty() => (DoacrossVerdict::Independent, deps),
        Ok(deps) => (DoacrossVerdict::Eligible, deps),
        Err(block) => (DoacrossVerdict::Blocked(block), Vec::new()),
    };
    DoacrossPlan {
        verdict,
        deps,
        n_iters,
    }
}

/// The uniform dependences of [`doacross_plan`]'s ladder, or what
/// blocks it.
fn prove(
    program: &Program,
    k: usize,
    n_iters: usize,
    deps: &LoopDeps,
    classes: &[Classification],
) -> Result<Vec<DoacrossDep>, DoacrossBlock> {
    let block = |array, reference: Option<&AccessDesc>, reason: String| DoacrossBlock {
        array,
        reference: reference.map(RefInfo::of),
        reason,
    };
    if program.counter.is_some() {
        let reason = "program declares an induction counter (EXTEND scheme)";
        return Err(block(None, None, reason.into()));
    }
    if n_iters < 2 {
        return Ok(Vec::new());
    }

    let is_reduction = |c: &Classification| matches!(c.class, Class::Reduction(_));
    let opaque = |a: &AccessDesc| matches!(a.subscript, Subscript::Opaque { .. });
    let mut proven: Vec<DoacrossDep> = Vec::new();
    for (array, ar) in deps.refs.iter().enumerate() {
        let c = &classes[array];
        if is_reduction(c) || c.unhinted.as_deref().is_some_and(is_reduction) {
            let span = ar.updates.first().map(|(_, s)| *s).unwrap_or_default();
            let reason = format!(
                "'{}' is a reduction (line {}): reductions lower to speculative ops",
                program.arrays[array].name, span.line
            );
            return Err(block(Some(array), ar.accesses.first(), reason));
        }
        for row in deps.rows(array) {
            let (ap, aq) = (&ar.accesses[row.p], &ar.accesses[row.q]);
            let (r, why) = match (row.uniform, row.guarded) {
                (false, _) if opaque(ap) || opaque(aq) => (
                    if opaque(ap) { ap } else { aq },
                    "has an opaque subscript: no uniform distance can be proven",
                ),
                (false, _) => (aq, "conflicts at a non-uniform distance (unequal strides)"),
                (true, true) => (
                    if ap.guard.is_some() { ap } else { aq },
                    "conflicts under a guard: the dependence may or may not fire",
                ),
                (true, false) => {
                    let distance = row.dep.distance.expect("a uniform row has a distance");
                    if !proven
                        .iter()
                        .any(|e| e.array == array && e.distance == distance)
                    {
                        let (source, sink) = if row.reversed { (aq, ap) } else { (ap, aq) };
                        proven.push(DoacrossDep {
                            array,
                            distance,
                            source: RefInfo::of(source),
                            sink: RefInfo::of(sink),
                        });
                    }
                    continue;
                }
            };
            let reason = format!("'{}' (line {}) {why}", r.text, r.span.line);
            return Err(block(Some(array), Some(r), reason));
        }
    }
    if !proven.is_empty() && body_has_break(&program.loops[k].body) {
        let reason = "loop has a premature exit: in-flight later iterations could not be undone";
        return Err(block(None, None, reason.into()));
    }
    Ok(proven)
}

/// Predicted marking footprint of one array in one loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TouchEstimate {
    /// Predicted number of distinct elements referenced.
    pub touched: usize,
    /// `touched / size` (0.0 for a zero-sized array).
    pub density: f64,
}

/// Estimate how many distinct elements of an array of `size` elements
/// the references touch over `lo..hi` — closed form per reference,
/// summed over distinct subscripts, capped at `size`.
pub fn touch_estimate(accesses: &[AccessDesc], lo: usize, hi: usize, size: usize) -> TouchEstimate {
    let n_iters = hi.saturating_sub(lo) as u64;
    let bounds = if size == 0 {
        None
    } else {
        Some(Interval::new(0, size as i64 - 1))
    };
    let mut seen: Vec<Subscript> = Vec::new();
    let mut touched: u64 = 0;
    for acc in accesses {
        if seen.contains(&acc.subscript) {
            continue;
        }
        seen.push(acc.subscript);
        let Some(bounds) = bounds else { continue };
        touched += match acc.subscript {
            Subscript::Affine { a: 0, b } => u64::from(bounds.lo <= b && b <= bounds.hi),
            Subscript::Affine { a, b } => {
                // Distinct values (injective): count the iterations
                // whose subscript lands inside the array.
                match t_interval(b as i128, a as i128, bounds.lo as i128, bounds.hi as i128) {
                    Some((tlo, thi)) => {
                        let lo = tlo.max(lo as i128);
                        let hi = thi.min(hi as i128 - 1);
                        (hi - lo + 1).max(0) as u64
                    }
                    None => 0,
                }
            }
            Subscript::Opaque { range } => match range.and_then(|r| r.intersect(&bounds)) {
                Some(r) => r.width().min(n_iters),
                None => n_iters.min(size as u64),
            },
        };
    }
    let touched = (touched.min(size as u64)) as usize;
    TouchEstimate {
        touched,
        density: if size == 0 {
            0.0
        } else {
            touched as f64 / size as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn refs_for(src: &str, array: usize) -> (ArrayRefs, usize, usize) {
        let p = parse(src).unwrap();
        let (lo, hi) = p.loops[0].range;
        (collect_refs(&p, 0).swap_remove(array), lo, hi)
    }

    fn aff(a: i64, b: i64) -> Subscript {
        Subscript::Affine { a, b }
    }

    /// The evidence on array 0 of the first loop of `src`.
    fn evidence_for(src: &str) -> Option<ConflictEvidence> {
        LoopDeps::build(&parse(src).unwrap(), 0).evidence(0)
    }

    #[test]
    fn interval_arithmetic_is_sound() {
        let a = Interval::new(-2, 3);
        let b = Interval::new(1, 4);
        assert_eq!(a.add(&b), Interval::new(-1, 7));
        assert_eq!(a.sub(&b), Interval::new(-6, 2));
        assert_eq!(a.mul(&b), Interval::new(-8, 12));
        assert_eq!(a.neg(), Interval::new(-3, 2));
        assert!(a.intersects(&b));
        assert!(!Interval::new(0, 1).intersects(&Interval::new(2, 3)));
        assert_eq!(Interval::new(0, 9).width(), 10);
    }

    #[test]
    fn modulo_in_range_stays_affine() {
        // i in 0..10, i % 31: range [0,9] ⊆ [0,30] -> identity.
        let (refs, ..) = refs_for("array A[40];\nfor i in 0..10 { A[i % 31] = i; }", 0);
        assert_eq!(refs.accesses[0].subscript, aff(1, 0));
    }

    #[test]
    fn modulo_out_of_range_gets_an_interval() {
        let (refs, ..) = refs_for("array A[10];\nfor i in 0..100 { A[i % 10] = i; }", 0);
        assert_eq!(
            refs.accesses[0].subscript,
            Subscript::Opaque {
                range: Some(Interval::new(0, 9))
            }
        );
    }

    #[test]
    fn affine_locals_and_scaling_propagate() {
        let (refs, ..) = refs_for(
            "array A[300];\nfor i in 0..100 { let j = 2 * i + 5; A[j - 1] = i; }",
            0,
        );
        assert_eq!(refs.accesses[0].subscript, aff(2, 4));
    }

    #[test]
    fn exact_division_stays_affine() {
        let (refs, ..) = refs_for("array A[100];\nfor i in 0..100 { A[4 * i / 2] = i; }", 0);
        assert_eq!(refs.accesses[0].subscript, aff(2, 0));
    }

    #[test]
    fn inexact_division_is_opaque() {
        let (refs, ..) = refs_for("array A[100];\nfor i in 0..100 { A[i / 2] = i; }", 0);
        assert!(matches!(
            refs.accesses[0].subscript,
            Subscript::Opaque { .. }
        ));
    }

    #[test]
    fn guards_are_recorded_on_accesses() {
        let (refs, ..) = refs_for(
            "array A[200];\nfor i in 0..100 { if i > 5 { A[i] = 1; } A[i + 100] = 2; }",
            0,
        );
        assert!(refs.accesses[0].guard.is_some());
        assert!(refs.accesses[1].guard.is_none());
    }

    #[test]
    fn gcd_test_rules_out_parity_disjoint_strides() {
        // 2i vs 2j+1: even vs odd, gcd(2,2)=2 does not divide 1.
        assert_eq!(subscripts_conflict(aff(2, 0), aff(2, 1), 0, 1000), None);
    }

    #[test]
    fn equal_stride_distance_is_exact() {
        // A[i] vs A[i-3]: distance 3, first sink at lo+3.
        let d = subscripts_conflict(aff(1, 0), aff(1, -3), 5, 100).unwrap();
        assert_eq!(d.certainty, Certainty::Must);
        assert_eq!(d.distance, Some(3));
        assert_eq!(d.first_sink, Some(8));
    }

    #[test]
    fn constant_subscript_conflicts_at_distance_one() {
        let d = subscripts_conflict(aff(0, 7), aff(0, 7), 0, 10).unwrap();
        assert_eq!((d.certainty, d.distance), (Certainty::Must, Some(1)));
        assert_eq!(subscripts_conflict(aff(0, 7), aff(0, 8), 0, 10), None);
    }

    #[test]
    fn constant_vs_affine_finds_the_crossing() {
        // A[20] vs A[2j]: j = 10 is in range -> conflict.
        let d = subscripts_conflict(aff(0, 20), aff(2, 0), 0, 50).unwrap();
        assert_eq!(d.certainty, Certainty::Must);
        assert_eq!(d.first_sink, Some(10));
        // Crossing out of range -> none.
        assert_eq!(subscripts_conflict(aff(0, 200), aff(2, 0), 0, 50), None);
        // Non-integral crossing -> none.
        assert_eq!(subscripts_conflict(aff(0, 21), aff(2, 0), 0, 50), None);
    }

    #[test]
    fn general_diophantine_case_is_exact() {
        // 2i = 3j + 1: (i,j) = (2,1), (5,3), (8,5)… min |i-j| = 1 at
        // (2,1); first sink max(2,1) = 2.
        let d = subscripts_conflict(aff(2, 0), aff(3, 1), 0, 100).unwrap();
        assert_eq!(d.certainty, Certainty::Must);
        assert_eq!(d.distance, Some(1));
        assert_eq!(d.first_sink, Some(2));
    }

    #[test]
    fn banerjee_bounds_rule_out_distant_crossings() {
        // 10i = j + 500 needs i >= 50 or j >= ... out of 0..20 bounds.
        assert_eq!(subscripts_conflict(aff(10, 0), aff(1, 500), 0, 20), None);
    }

    #[test]
    fn same_iteration_touch_is_not_a_dependence() {
        // i and i: diff always 0.
        assert_eq!(subscripts_conflict(aff(1, 0), aff(1, 0), 0, 100), None);
        // 2i vs i: equal only at i = j = 0, the single valid t.
        assert_eq!(subscripts_conflict(aff(2, 0), aff(1, 0), 0, 1), None);
    }

    #[test]
    fn huge_ranges_classify_in_constant_time() {
        // Would hang an enumerator; the symbolic test is O(1).
        let n = 1_000_000_000_000_000;
        let d = subscripts_conflict(aff(1, 0), aff(1, -1), 0, n).unwrap();
        assert_eq!(d.distance, Some(1));
        assert_eq!(subscripts_conflict(aff(2, 0), aff(2, 1), 0, n), None);
    }

    #[test]
    fn disjoint_value_ranges_prove_independence() {
        let lo_half = Subscript::Opaque {
            range: Some(Interval::new(0, 9)),
        };
        let hi_half = Subscript::Opaque {
            range: Some(Interval::new(10, 19)),
        };
        assert_eq!(subscripts_conflict(lo_half, hi_half, 0, 100), None);
        assert!(subscripts_conflict(lo_half, lo_half, 0, 100).is_some());
    }

    #[test]
    fn pigeonhole_makes_narrow_opaque_writes_a_must_conflict() {
        let ev = evidence_for("array A[10];\nfor i in 0..100 { A[i % 10] = i; }").unwrap();
        assert_eq!(ev.certainty, Certainty::Must, "100 writes into 10 slots");
    }

    #[test]
    fn guards_demote_must_to_may() {
        let ev = evidence_for(
            "array A[200];\nfor i in 0..100 { if i > 5 { A[i + 5] = 1; } A[i] = A[i] + 1; }",
        )
        .unwrap();
        assert_eq!(ev.certainty, Certainty::May);
        assert!(ev.guarded);
        assert_eq!(ev.distance, Some(5), "the geometry still holds if it fires");
    }

    #[test]
    fn conflict_evidence_carries_spans_and_text() {
        let ev = evidence_for("array A[101];\nfor i in 1..100 { A[i] = A[i - 1] + 1; }").unwrap();
        assert_eq!(ev.distance, Some(1));
        assert!(ev.src.span.line > 0 && ev.sink.span.line > 0);
        assert!(
            ev.src.text.contains('A') && ev.sink.text.contains('A'),
            "{ev:?}"
        );
    }

    fn plan_for(src: &str) -> DoacrossPlan {
        crate::analyze::analyze_loop(&parse(src).unwrap(), 0).plan
    }

    #[test]
    fn uniform_distance_loop_is_eligible() {
        let plan = plan_for("array A[200];\nfor i in 3..100 { A[i] = A[i - 3] + 1; }");
        assert!(plan.eligible(), "{:?}", plan.verdict);
        assert_eq!(plan.min_distance(), Some(3));
        assert_eq!(plan.distances(), vec![3]);
        let dep = &plan.deps[0];
        assert!(dep.source.is_write && !dep.sink.is_write);
    }

    #[test]
    fn multiple_distances_collect_into_one_plan() {
        let plan = plan_for("array A[300];\nfor i in 8..100 { A[i] = A[i - 2] + A[i - 8]; }");
        assert!(plan.eligible());
        assert_eq!(plan.distances(), vec![2, 8]);
        assert_eq!(plan.min_distance(), Some(2));
    }

    #[test]
    fn independent_loop_is_not_eligible() {
        let plan = plan_for("array A[100];\narray B[100];\nfor i in 0..100 { A[i] = B[i] * 2; }");
        assert!(matches!(plan.verdict, DoacrossVerdict::Independent));
        assert!(plan.deps.is_empty());
    }

    #[test]
    fn guarded_conflict_blocks() {
        let plan = plan_for(
            "array A[200];\nfor i in 0..100 { if i > 5 { A[i] = A[i] + 1; } A[i + 5] = 2; }",
        );
        match plan.verdict {
            DoacrossVerdict::Blocked(b) => {
                assert!(b.reason.contains("guard"), "{}", b.reason);
                assert_eq!(b.array, Some(0));
                assert!(b.reference.is_some());
            }
            v => panic!("expected Blocked, got {v:?}"),
        }
    }

    #[test]
    fn opaque_subscript_blocks() {
        let plan = plan_for("array A[10];\nfor i in 0..100 { A[i % 10] = A[i % 10] + 1; }");
        match plan.verdict {
            DoacrossVerdict::Blocked(b) => assert!(b.reason.contains("opaque"), "{}", b.reason),
            v => panic!("expected Blocked, got {v:?}"),
        }
    }

    #[test]
    fn unequal_strides_block_as_non_uniform() {
        let plan = plan_for("array A[300];\nfor i in 0..100 { A[2 * i] = A[3 * i + 1] + 1; }");
        match plan.verdict {
            DoacrossVerdict::Blocked(b) => {
                assert!(b.reason.contains("non-uniform"), "{}", b.reason)
            }
            v => panic!("expected Blocked, got {v:?}"),
        }
    }

    #[test]
    fn disjoint_unequal_strides_stay_independent() {
        // 2i vs 2i' + 201 over 0..100: ranges [0,198] vs [201,399].
        let plan = plan_for("array A[400];\nfor i in 0..100 { A[2 * i] = A[2 * i + 201] + 1; }");
        assert!(matches!(plan.verdict, DoacrossVerdict::Independent));
    }

    #[test]
    fn reductions_and_breaks_and_counters_block() {
        let plan = plan_for("array S[4];\nfor i in 1..100 { S[0] += i; }");
        assert!(
            matches!(&plan.verdict, DoacrossVerdict::Blocked(b) if b.reason.contains("reduction"))
        );

        let plan =
            plan_for("array A[200];\nfor i in 1..100 { A[i] = A[i - 1] + 1; break if A[i] > 50; }");
        assert!(matches!(&plan.verdict, DoacrossVerdict::Blocked(b) if b.reason.contains("exit")));

        let plan =
            plan_for("array A[200];\ncounter c = 0;\nfor i in 1..100 { if A[i] > 0 { bump c; } }");
        assert!(
            matches!(&plan.verdict, DoacrossVerdict::Blocked(b) if b.reason.contains("counter"))
        );
    }

    #[test]
    fn constant_subscript_write_serializes_at_distance_one() {
        let plan = plan_for("array A[10];\narray B[100];\nfor i in 0..100 { A[3] = B[i]; }");
        assert!(plan.eligible(), "{:?}", plan.verdict);
        assert_eq!(plan.min_distance(), Some(1));
    }

    #[test]
    fn tiny_loops_are_independent() {
        let plan = plan_for("array A[10];\nfor i in 0..1 { A[i] = A[i] + 1; }");
        assert!(matches!(plan.verdict, DoacrossVerdict::Independent));
    }

    #[test]
    fn touch_estimates_are_closed_form() {
        // A[i] over 0..100 into size 1000: 100 touched.
        let (refs, lo, hi) = refs_for("array A[1000];\nfor i in 0..100 { A[i] = i; }", 0);
        let t = touch_estimate(&refs.accesses, lo, hi, 1000);
        assert_eq!(t.touched, 100);
        assert!((t.density - 0.1).abs() < 1e-12);

        // A[i % 16] over 0..100 into size 1000: 16 touched.
        let (refs, lo, hi) = refs_for("array A[1000];\nfor i in 0..100 { A[i % 16] += i; }", 0);
        let t = touch_estimate(&refs.accesses, lo, hi, 1000);
        assert_eq!(t.touched, 16);

        // Constant subscript: 1 touched.
        let (refs, lo, hi) = refs_for("array A[1000];\nfor i in 0..100 { A[7] = i; }", 0);
        assert_eq!(touch_estimate(&refs.accesses, lo, hi, 1000).touched, 1);

        // Unknown indirection: capped at min(n, size).
        let (refs, lo, hi) = refs_for(
            "array A[50];\narray IDX[100];\nfor i in 0..100 { A[IDX[i]] = i; }",
            0,
        );
        assert_eq!(touch_estimate(&refs.accesses, lo, hi, 50).touched, 50);
    }
}
