//! The speculative loop abstraction — what the Polaris run-time pass
//! would emit.
//!
//! A [`SpecLoop`] is the transformed loop body: a pure function of the
//! iteration number and an instrumented context. Every reference to a
//! declared array goes through [`crate::ctx::IterCtx`], exactly as the
//! compiler pass would have rewritten it with marking code. Because the
//! body owns no mutable state of its own, re-executing any suffix of
//! iterations in a later stage is trivially sound.

use crate::array::{ArrayDecl, ArrayKind, ShadowKind};
use crate::ctx::IterCtx;
use crate::value::Value;
use std::ops::Range;

/// What [`SpecLoop::run_iters`] reports about how it ran its range: a
/// body tier that executes several iterations per dispatch counts the
/// iterations it ran that way and the groups it had to re-execute one
/// iteration at a time. A loop without such a tier reports zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchTally {
    /// Iterations executed several-at-a-time.
    pub batched_iters: u64,
    /// Groups whose speculation on their independence failed (or was
    /// abandoned on a would-be fault) and that re-ran one iteration at
    /// a time.
    pub scalar_strips: u64,
}

/// A loop prepared for speculative parallelization.
pub trait SpecLoop<T: Value = f64>: Sync {
    /// Total number of iterations.
    fn num_iters(&self) -> usize;

    /// Declarations of every shared array the body references, with
    /// their loop-entry contents. Called once per run.
    fn arrays(&self) -> Vec<ArrayDecl<T>>;

    /// The loop body for iteration `iter`. All array references must go
    /// through `ctx`.
    fn body(&self, iter: usize, ctx: &mut IterCtx<'_, T>);

    /// Execute the bodies of `iters` in ascending order against `ctx`,
    /// calling `after` once each iteration's references are all made
    /// and stopping as soon as it returns `false`. The caller owns the
    /// per-iteration bookkeeping: `after` is where it records the
    /// iteration's cost, notices a premature exit and moves `ctx` on to
    /// the next iteration.
    ///
    /// The default is the per-iteration loop. A body tier that can run
    /// several iterations per dispatch overrides it; whatever it does
    /// inside, every reference must reach `ctx.read` / `write` /
    /// `reduce` in iteration order and, within an iteration, in program
    /// order, with `after` between iterations — so marks, private
    /// values and reference counts are those of the default.
    fn run_iters(
        &self,
        iters: Range<usize>,
        ctx: &mut IterCtx<'_, T>,
        after: &mut dyn FnMut(&mut IterCtx<'_, T>) -> bool,
    ) -> BatchTally {
        for iter in iters {
            self.body(iter, ctx);
            if !after(ctx) {
                break;
            }
        }
        BatchTally::default()
    }

    /// Useful work `ω_i` of iteration `iter`, in virtual time units.
    /// Drives the simulated executor and feedback-guided load
    /// balancing. Defaults to unit cost.
    fn cost(&self, _iter: usize) -> f64 {
        1.0
    }

    /// Human-readable name of the execution tier running this body —
    /// surfaced in CLI/diagnostic output so operators can tell which
    /// path a run exercised. Hand-written Rust bodies are `"native"`;
    /// compiled DSL loops report `"bytecode VM"` or
    /// `"tree-walk interpreter"`.
    fn backend(&self) -> &'static str {
        "native"
    }
}

/// Boxed iteration-body closure.
type BodyFn<T> = Box<dyn Fn(usize, &mut IterCtx<'_, T>) + Sync>;

/// A [`SpecLoop`] assembled from closures — convenient for tests,
/// examples, and synthetic workloads.
pub struct ClosureLoop<T: Value = f64> {
    n: usize,
    decls: Box<dyn Fn() -> Vec<ArrayDecl<T>> + Sync>,
    body: BodyFn<T>,
    cost: Box<dyn Fn(usize) -> f64 + Sync>,
}

impl<T: Value> ClosureLoop<T> {
    /// Build a loop of `n` iterations; `decls` produces the array
    /// declarations, `body` is the iteration body.
    pub fn new(
        n: usize,
        decls: impl Fn() -> Vec<ArrayDecl<T>> + Sync + 'static,
        body: impl Fn(usize, &mut IterCtx<'_, T>) + Sync + 'static,
    ) -> Self {
        ClosureLoop {
            n,
            decls: Box::new(decls),
            body: Box::new(body),
            cost: Box::new(|_| 1.0),
        }
    }

    /// Replace the per-iteration cost function.
    pub fn with_cost(mut self, cost: impl Fn(usize) -> f64 + Sync + 'static) -> Self {
        self.cost = Box::new(cost);
        self
    }
}

impl<T: Value> SpecLoop<T> for ClosureLoop<T> {
    fn num_iters(&self) -> usize {
        self.n
    }

    fn arrays(&self) -> Vec<ArrayDecl<T>> {
        (self.decls)()
    }

    fn body(&self, iter: usize, ctx: &mut IterCtx<'_, T>) {
        (self.body)(iter, ctx)
    }

    fn cost(&self, iter: usize) -> f64 {
        (self.cost)(iter)
    }
}

/// A [`SpecLoop`] adapter that disables shadow elision: every untested
/// (checkpointed) array is promoted to a fully instrumented tested
/// array with a dense shadow. Reduction declarations are left alone —
/// their parallel fold is a different commit path, not an
/// instrumentation level, and reordering an `f64` fold would change
/// low-order bits.
///
/// This is the always-instrumented baseline the shadow-elision tests
/// compare against: a run of the wrapped loop must produce
/// byte-identical arrays, because a tested array that never fails the
/// LRPD test commits exactly the last value written per element — the
/// same value a direct (untested) write sequence leaves behind.
pub struct FullyInstrumented<'a, T: Value = f64> {
    inner: &'a dyn SpecLoop<T>,
}

impl<'a, T: Value> FullyInstrumented<'a, T> {
    /// Wrap `inner`, promoting its untested arrays to tested.
    pub fn new(inner: &'a dyn SpecLoop<T>) -> Self {
        FullyInstrumented { inner }
    }
}

impl<T: Value> SpecLoop<T> for FullyInstrumented<'_, T> {
    fn num_iters(&self) -> usize {
        self.inner.num_iters()
    }

    fn arrays(&self) -> Vec<ArrayDecl<T>> {
        self.inner
            .arrays()
            .into_iter()
            .map(|decl| match decl.kind {
                ArrayKind::Untested => ArrayDecl::tested(decl.name, decl.init, ShadowKind::Dense),
                _ => decl,
            })
            .collect()
    }

    fn body(&self, iter: usize, ctx: &mut IterCtx<'_, T>) {
        self.inner.body(iter, ctx)
    }

    fn run_iters(
        &self,
        iters: Range<usize>,
        ctx: &mut IterCtx<'_, T>,
        after: &mut dyn FnMut(&mut IterCtx<'_, T>) -> bool,
    ) -> BatchTally {
        self.inner.run_iters(iters, ctx, after)
    }

    fn cost(&self, iter: usize) -> f64 {
        self.inner.cost(iter)
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }
}
