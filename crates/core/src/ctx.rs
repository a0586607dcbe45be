//! The instrumented iteration context — the loop body's only window
//! onto shared data.
//!
//! [`IterCtx`] plays the role of the marking code the Polaris run-time
//! pass inserts around every reference:
//!
//! * **tested** arrays dispatch to the processor's privatized
//!   [`crate::view::ProcView`] (shadow marking, copy-in, reduction
//!   deltas);
//! * **untested** arrays write directly to shared memory through the
//!   [`crate::buf::SharedBuf`] contract, recording checkpoint entries;
//! * in **direct** mode (sequential baseline, wavefront executor) all
//!   speculation is bypassed and references go straight to shared
//!   storage.
//!
//! The context also accumulates the iteration's extra virtual cost via
//! [`IterCtx::charge`] and, in DDG-extraction mode, logs per-iteration
//! marks.

use crate::array::{ArrayDecl, ArrayId, ArrayKind, ShadowKind};
use crate::buf::SharedBuf;
use crate::checkpoint::WriteLog;
use crate::value::{Reduction, Value};
use crate::view::ProcView;
use rlrpd_shadow::IterMarks;

/// Where an array's references are routed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Route {
    /// Tested array: `slot` indexes the per-processor view list.
    Tested { slot: usize },
    /// Untested array: `slot` indexes the untested (checkpointed) list.
    Untested { slot: usize },
}

/// Per-array static metadata shared by all contexts of a run.
pub(crate) struct ArrayMeta<T> {
    pub name: &'static str,
    pub route: Route,
    pub reduction: Option<Reduction<T>>,
}

/// A loop's declared arrays, routed. `meta` and `shared` hold one entry
/// per declared array — the table every context of a run dispatches
/// through; the rest is per tested / untested slot, in declaration
/// order: the array's declaration index and size, and a tested array's
/// declared shadow and reduction. Built once per run, by the
/// speculative engine and by the wavefront executor alike.
#[derive(Default)]
pub(crate) struct RoutedArrays<T> {
    pub meta: Vec<ArrayMeta<T>>,
    pub shared: Vec<SharedBuf<T>>,
    pub tested_ids: Vec<usize>,
    pub tested_sizes: Vec<usize>,
    pub tested_shadow: Vec<ShadowKind>,
    pub reductions: Vec<Option<Reduction<T>>>,
    pub untested_ids: Vec<usize>,
    pub untested_sizes: Vec<usize>,
}

impl<T: Value> RoutedArrays<T> {
    pub(crate) fn new(decls: Vec<ArrayDecl<T>>) -> Self {
        let mut routed = RoutedArrays::default();
        for (id, ArrayDecl { name, kind, init }) in decls.into_iter().enumerate() {
            let (route, reduction) = match kind {
                ArrayKind::Tested { shadow, reduction } => {
                    routed.tested_ids.push(id);
                    routed.tested_sizes.push(init.len());
                    routed.tested_shadow.push(shadow);
                    routed.reductions.push(reduction);
                    let slot = routed.tested_ids.len() - 1;
                    (Route::Tested { slot }, reduction)
                }
                ArrayKind::Untested => {
                    routed.untested_ids.push(id);
                    routed.untested_sizes.push(init.len());
                    let slot = routed.untested_ids.len() - 1;
                    (Route::Untested { slot }, None)
                }
            };
            routed.meta.push(ArrayMeta {
                name,
                route,
                reduction,
            });
            routed.shared.push(SharedBuf::new(init));
        }
        routed
    }
}

/// The body's view of one iteration.
pub struct IterCtx<'a, T: Value = f64> {
    pub(crate) iter: usize,
    pub(crate) writer: u32,
    pub(crate) meta: &'a [ArrayMeta<T>],
    pub(crate) shared: &'a [SharedBuf<T>],
    /// Per tested slot; empty in direct mode.
    pub(crate) views: &'a mut [ProcView<T>],
    /// `None` in direct mode.
    pub(crate) wlog: Option<&'a mut WriteLog<T>>,
    /// Per tested slot; present only during DDG extraction.
    pub(crate) iter_marks: Option<&'a mut [IterMarks]>,
    pub(crate) extra_cost: f64,
    /// Set when this iteration requested a premature loop exit.
    pub(crate) exited: bool,
}

impl<'a, T: Value> IterCtx<'a, T> {
    /// A direct-mode context (no speculation: references go straight
    /// to shared storage) positioned at iteration `iter`, writing as
    /// `writer`.
    pub(crate) fn direct(
        iter: usize,
        writer: u32,
        meta: &'a [ArrayMeta<T>],
        shared: &'a [SharedBuf<T>],
    ) -> Self {
        IterCtx {
            iter,
            writer,
            meta,
            shared,
            views: &mut [],
            wlog: None,
            iter_marks: None,
            extra_cost: 0.0,
            exited: false,
        }
    }

    /// A speculative context positioned at iteration `iter`: tested
    /// references go to the block's private `views`, untested writes go
    /// to shared storage as `writer` and are logged in `wlog`, and with
    /// `iter_marks` every tested reference is also logged under its
    /// iteration (DDG extraction).
    pub(crate) fn speculative(
        iter: usize,
        writer: u32,
        meta: &'a [ArrayMeta<T>],
        shared: &'a [SharedBuf<T>],
        views: &'a mut [ProcView<T>],
        wlog: &'a mut WriteLog<T>,
        iter_marks: Option<&'a mut [IterMarks]>,
    ) -> Self {
        IterCtx {
            views,
            wlog: Some(wlog),
            iter_marks,
            ..IterCtx::direct(iter, writer, meta, shared)
        }
    }

    /// Close the current iteration — its number, the extra cost it
    /// charged and whether it asked to exit — and position the context
    /// on the next one. The engine's half of the
    /// [`crate::spec_loop::SpecLoop::run_iters`] contract.
    pub(crate) fn advance(&mut self) -> (usize, f64, bool) {
        let closed = (self.iter, self.extra_cost, self.exited);
        self.iter += 1;
        self.extra_cost = 0.0;
        closed
    }

    /// The current iteration number.
    #[inline]
    pub fn iter(&self) -> usize {
        self.iter
    }

    /// Read element `i` of array `a`.
    #[inline]
    pub fn read(&mut self, a: ArrayId, i: usize) -> T {
        let m = &self.meta[a.index()];
        match m.route {
            Route::Tested { slot } if !self.views.is_empty() => {
                if let Some(marks) = self.iter_marks.as_deref_mut() {
                    marks[slot].on_read(i, self.iter as u32);
                }
                let buf = &self.shared[a.index()];
                // SAFETY: tested arrays are never written during a
                // speculative stage (all writes are privatized).
                self.views[slot].read(i, |e| unsafe { buf.get(e) })
            }
            _ => {
                // Direct mode, or untested array: read shared.
                // SAFETY: untested disjointness contract — no concurrent
                // writer of an element another iteration reads; direct
                // mode is governed by the wavefront/sequential schedule.
                unsafe { self.shared[a.index()].get(i) }
            }
        }
    }

    /// Number of elements of array `a`.
    #[inline]
    pub fn len(&self, a: ArrayId) -> usize {
        self.shared[a.index()].len()
    }

    /// This processor's speculative view of array `a` as the block has
    /// left it so far — marks, private values, touched set, reference
    /// count. `None` for an untested array and in direct mode. Read
    /// only: diagnostics and differential tests look, the engine
    /// decides.
    pub fn view(&self, a: ArrayId) -> Option<&ProcView<T>> {
        match self.meta[a.index()].route {
            Route::Tested { slot } => self.views.get(slot),
            _ => None,
        }
    }

    /// The value [`IterCtx::read`] would return for element `i` of
    /// array `a`, without the read happening: nothing is marked,
    /// nothing is materialized, no reference is counted. `None` when
    /// `i` is out of bounds (where `read` would panic). This is what
    /// lets a body tier run iterations ahead side-effect free and
    /// replay their references in order afterwards
    /// ([`crate::spec_loop::SpecLoop::run_iters`]).
    #[inline]
    pub fn peek(&self, a: ArrayId, i: usize) -> Option<T> {
        let buf = &self.shared[a.index()];
        if i >= buf.len() {
            return None;
        }
        Some(match self.meta[a.index()].route {
            Route::Tested { slot } if !self.views.is_empty() => {
                // SAFETY: as in `read` — tested shared data is stable
                // during the stage.
                self.views[slot].peek(i, |e| unsafe { buf.get(e) })
            }
            // SAFETY: as in `read`'s direct / untested arm.
            _ => unsafe { buf.get(i) },
        })
    }

    /// Write `v` to element `i` of array `a`.
    #[inline]
    pub fn write(&mut self, a: ArrayId, i: usize, v: T) {
        let m = &self.meta[a.index()];
        match m.route {
            Route::Tested { slot } if !self.views.is_empty() => {
                if let Some(marks) = self.iter_marks.as_deref_mut() {
                    marks[slot].on_write(i, self.iter as u32);
                }
                self.views[slot].write(i, v);
            }
            Route::Untested { slot } => {
                let buf = &self.shared[a.index()];
                if let Some(wlog) = self.wlog.as_deref_mut() {
                    // SAFETY: first-write snapshot read of an element
                    // only this block writes (untested contract).
                    wlog.record(slot, i, || unsafe { buf.get(i) });
                }
                // SAFETY: untested contract — this block is the sole
                // writer of element i this stage.
                unsafe { buf.set(i, v, self.writer) };
            }
            Route::Tested { .. } => {
                // Direct mode write to a tested array.
                // SAFETY: the direct schedule (sequential or wavefront
                // level) guarantees exclusivity.
                unsafe { self.shared[a.index()].set(i, v, self.writer) };
            }
        }
    }

    /// Reduction update `a[i] = a[i] ⊕ v`.
    ///
    /// # Panics
    /// Panics when `a` was declared without a reduction operator, or is
    /// untested.
    #[inline]
    pub fn reduce(&mut self, a: ArrayId, i: usize, v: T) {
        let m = &self.meta[a.index()];
        match m.route {
            Route::Tested { slot } if !self.views.is_empty() => {
                if let Some(marks) = self.iter_marks.as_deref_mut() {
                    // Conservative: a reduction is a producer; log as a
                    // write for DDG purposes.
                    marks[slot].on_write(i, self.iter as u32);
                }
                let buf = &self.shared[a.index()];
                // SAFETY: as in `read` — tested shared data is stable
                // during the stage.
                self.views[slot].reduce(i, v, |e| unsafe { buf.get(e) });
            }
            Route::Tested { .. } => {
                // Direct mode: apply the operator in place.
                let op = m
                    .reduction
                    .unwrap_or_else(|| panic!("reduce on array '{}' without operator", m.name));
                // SAFETY: direct-mode exclusivity (see `write`).
                unsafe {
                    let cur = self.shared[a.index()].get(i);
                    self.shared[a.index()].set(i, (op.combine)(cur, v), self.writer);
                }
            }
            Route::Untested { .. } => {
                panic!("reduce on untested array '{}'", m.name)
            }
        }
    }

    /// Add `cost` virtual time units to this iteration beyond the loop's
    /// static [`crate::spec_loop::SpecLoop::cost`].
    #[inline]
    pub fn charge(&mut self, cost: f64) {
        self.extra_cost += cost;
    }

    /// Request a premature loop exit: this iteration is the last one
    /// executed (the paper's DCDCMP loop-70 pattern, refs [15, 4]).
    ///
    /// The body should perform no further side effects after calling
    /// this. During speculation, later blocks have already run; the
    /// engine *trusts* the exit only when the exiting block lies below
    /// the earliest dependence sink, discards every later block's work
    /// (restoring checkpointed state), and finishes the loop.
    #[inline]
    pub fn exit(&mut self) {
        self.exited = true;
    }
}
