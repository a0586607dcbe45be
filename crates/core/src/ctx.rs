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
//!   [`crate::buf::SharedBuf`] contract, recording checkpoint entries —
//!   the write log's open run lives in the context while it runs
//!   ([`crate::checkpoint`]);
//! * in **direct** mode (sequential baseline, wavefront executor) all
//!   speculation is bypassed and references go straight to shared
//!   storage.
//!
//! The context also accumulates the iteration's extra virtual cost via
//! [`IterCtx::charge`], carries a counter loop's induction counter
//! ([`IterCtx::counter`] / [`IterCtx::bump`]) and, in DDG-extraction
//! mode, logs per-iteration marks.

use crate::array::{ArrayDecl, ArrayId, ArrayKind, ShadowKind};
use crate::buf::SharedBuf;
use crate::checkpoint::{LogView, OpenRun, WriteLog};
use crate::value::{Reduction, Value};
use crate::view::{lanes, ProcView};
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
/// order: the array's declaration index and size, a tested array's
/// declared shadow and reduction, and whether an untested array's
/// writes are undone. Built once per run, by the
/// speculative engine, the wavefront executor and `run_sequential`.
pub(crate) struct RoutedArrays<T> {
    pub meta: Vec<ArrayMeta<T>>,
    pub shared: Vec<SharedBuf<T>>,
    pub tested_ids: Vec<usize>,
    pub tested_sizes: Vec<usize>,
    pub tested_shadow: Vec<ShadowKind>,
    pub reductions: Vec<Option<Reduction<T>>>,
    pub untested_ids: Vec<usize>,
    pub untested_sizes: Vec<usize>,
    pub untested_undo: Vec<bool>,
}

impl<T: Value> RoutedArrays<T> {
    pub(crate) fn new(decls: Vec<ArrayDecl<T>>) -> Self {
        // Every table is sized once. `run_sequential` builds one per
        // call, between freeing and reallocating a loop's large arrays;
        // growth-sized small chunks cut there kept a 16 MiB free chunk
        // from being reused (peak RSS +16 MiB on NLFILT under glibc with
        // one arena and no trimming).
        let n = decls.len();
        let mut routed = RoutedArrays {
            meta: Vec::with_capacity(n),
            shared: Vec::with_capacity(n),
            tested_ids: Vec::with_capacity(n),
            tested_sizes: Vec::with_capacity(n),
            tested_shadow: Vec::with_capacity(n),
            reductions: Vec::with_capacity(n),
            untested_ids: Vec::with_capacity(n),
            untested_sizes: Vec::with_capacity(n),
            untested_undo: Vec::with_capacity(n),
        };
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
                ArrayKind::Untested { restore_free } => {
                    routed.untested_ids.push(id);
                    routed.untested_sizes.push(init.len());
                    routed.untested_undo.push(!restore_free);
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
    /// `wlog`'s open run, held here while the context lives and handed
    /// back on drop; empty in direct mode.
    open: OpenRun<T>,
    /// Per tested slot; present only during DDG extraction.
    pub(crate) iter_marks: Option<&'a mut [IterMarks]>,
    pub(crate) extra_cost: f64,
    /// Set when this iteration requested a premature loop exit.
    pub(crate) exited: bool,
    /// The loop's induction counter (0, and unread, in a loop without
    /// one); carried across iterations like `iter`.
    pub(crate) counter: usize,
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
            open: OpenRun::default(),
            iter_marks: None,
            extra_cost: 0.0,
            exited: false,
            counter: 0,
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
        let mut ctx = IterCtx::direct(iter, writer, meta, shared);
        ctx.views = views;
        ctx.open = std::mem::take(&mut wlog.open);
        ctx.wlog = Some(wlog);
        ctx.iter_marks = iter_marks;
        ctx
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

    /// Read element `i` of array `a`. Like `write` and `reduce`, an
    /// inline arm per route; DDG marks, a tested update's bound check
    /// and direct-mode updates of a tested array are out of line.
    #[inline(always)]
    pub fn read(&mut self, a: ArrayId, i: usize) -> T {
        let buf = &self.shared[a.index()];
        match self.meta[a.index()].route {
            Route::Tested { slot } if !self.views.is_empty() => {
                if self.iter_marks.is_some() {
                    self.tested_cold(slot, i, None);
                }
                // SAFETY: tested arrays are never written during a
                // speculative stage (all writes are privatized).
                self.views[slot].read(i, |e| unsafe { buf.get(e) })
            }
            // Direct mode, or untested array: read shared.
            // SAFETY: untested disjointness contract — no concurrent
            // writer of an element another iteration reads; direct
            // mode is governed by the wavefront/sequential schedule.
            _ => unsafe { buf.get(i) },
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

    /// The values [`IterCtx::read`] would return for elements
    /// `idx[l]` of array `a`, into `out[l]` for every lane `l` set in
    /// `live`, without the reads happening: nothing is marked, nothing
    /// is materialized, no reference is counted. The array's route and
    /// bound are resolved once for all lanes. `false` when a lane's
    /// index is out of bounds, where `read` would panic (`out` is then
    /// partly written). This is what lets a body tier run iterations
    /// ahead side-effect free and replay their references in order
    /// afterwards ([`crate::spec_loop::SpecLoop::run_iters`]).
    #[inline]
    pub fn peek_lanes(&self, a: ArrayId, live: u32, idx: &[usize], out: &mut [T]) -> bool {
        let buf = &self.shared[a.index()];
        let len = buf.len();
        let view = match self.meta[a.index()].route {
            Route::Tested { slot } if !self.views.is_empty() => Some(&self.views[slot]),
            _ => None,
        };
        for l in lanes(live) {
            let i = idx[l];
            if i >= len {
                return false;
            }
            out[l] = match view {
                // SAFETY: as in `read` — tested shared data is stable
                // during the stage.
                Some(view) => view.peek(i, |e| unsafe { buf.get(e) }),
                // SAFETY: as in `read`'s direct / untested arm.
                None => unsafe { buf.get(i) },
            };
        }
        true
    }

    /// Write `v` to element `i` of array `a`.
    #[inline(always)]
    pub fn write(&mut self, a: ArrayId, i: usize, v: T) {
        let buf = &self.shared[a.index()];
        match self.meta[a.index()].route {
            Route::Tested { slot } if !self.views.is_empty() => {
                if i >= buf.len() || self.iter_marks.is_some() {
                    self.tested_cold(slot, i, Some(buf.len()));
                }
                self.views[slot].write(i, v);
            }
            Route::Untested { slot } => match self.wlog.as_deref_mut() {
                // SAFETY: direct schedule — no other thread touches
                // element i while this one writes it.
                None => unsafe { buf.set(i, v, self.writer) },
                Some(wlog) => {
                    // SAFETY: untested contract — this block is the sole
                    // writer of element i this stage. Bound-checked, as
                    // is the store: a write past the end faults before
                    // the log records it.
                    let old = unsafe { buf.get(i) };
                    // SAFETY: as above.
                    unsafe { buf.set(i, v, self.writer) };
                    if self.open.extends(slot, i) {
                        self.open.push(|| old);
                    } else {
                        wlog.record_at(&mut self.open, slot, i, old);
                    }
                }
            },
            Route::Tested { .. } => self.direct_cold(a, i, v, false),
        }
    }

    /// Reduction update `a[i] = a[i] ⊕ v`.
    ///
    /// # Panics
    /// Panics when `a` was declared without a reduction operator, or is
    /// untested.
    #[inline(always)]
    pub fn reduce(&mut self, a: ArrayId, i: usize, v: T) {
        let buf = &self.shared[a.index()];
        match self.meta[a.index()].route {
            Route::Tested { slot } if !self.views.is_empty() => {
                if i >= buf.len() || self.iter_marks.is_some() {
                    self.tested_cold(slot, i, Some(buf.len()));
                }
                // SAFETY: as in `read` — tested shared data is stable
                // during the stage.
                self.views[slot].reduce(i, v, |e| unsafe { buf.get(e) });
            }
            Route::Tested { .. } => self.direct_cold(a, i, v, true),
            Route::Untested { .. } => {
                panic!("reduce on untested array '{}'", self.meta[a.index()].name)
            }
        }
    }

    /// Before a speculative reference to element `i` of tested `slot`:
    /// refuse an update (`len` given) past the array's end — a view
    /// pages values by 32 and a sparse shadow takes any element, so the
    /// commit would write out of bounds: the block faults here instead —
    /// then log the DDG mark, a reduction as a producer (a write).
    #[cold]
    #[inline(never)]
    fn tested_cold(&mut self, slot: usize, i: usize, len: Option<usize>) {
        if let Some(len) = len {
            assert!(
                i < len,
                "index out of bounds: the len is {len} but the index is {i}"
            );
        }
        if let Some(marks) = self.iter_marks.as_deref_mut() {
            match len {
                None => marks[slot].on_read(i, self.iter as u32),
                Some(_) => marks[slot].on_write(i, self.iter as u32),
            }
        }
    }

    /// A direct-mode write, or with `reduce` reduction, of tested array
    /// `a`, in place.
    #[cold]
    #[inline(never)]
    fn direct_cold(&self, a: ArrayId, i: usize, v: T, reduce: bool) {
        let (m, buf) = (&self.meta[a.index()], &self.shared[a.index()]);
        let v = match m.reduction {
            _ if !reduce => v,
            // SAFETY: the direct schedule (sequential or wavefront
            // level) guarantees exclusivity.
            Some(op) => (op.combine)(unsafe { buf.get(i) }, v),
            None => panic!("reduce on array '{}' without operator", m.name),
        };
        // SAFETY: as above.
        unsafe { buf.set(i, v, self.writer) };
    }

    /// [`IterCtx::read`] of element `idx[l]` for every lane `l` set in
    /// `live`, in lane order, the values dropped; a read with no effect
    /// (direct mode, an untested array) is skipped. With its siblings,
    /// how a strip replays one instruction: a tested array's route,
    /// shadow representation and reduction operator are resolved once.
    #[inline]
    pub fn read_lanes(&mut self, a: ArrayId, live: u32, idx: &[usize]) {
        if let Some((view, buf)) = self.batched(a) {
            // SAFETY: as in `read`.
            view.read_lanes(live, idx, |e| unsafe { buf.get(e) });
        } else if self.iter_marks.is_some() {
            for l in lanes(live) {
                self.read(a, idx[l]);
            }
        }
    }

    /// [`IterCtx::write`] of each lane (see [`IterCtx::read_lanes`]).
    #[inline]
    pub fn write_lanes(&mut self, a: ArrayId, live: u32, idx: &[usize], val: &[T]) {
        match self.batched(a) {
            Some((view, _)) => view.write_lanes(live, idx, val),
            None => lanes(live).for_each(|l| self.write(a, idx[l], val[l])),
        }
    }

    /// [`IterCtx::reduce`] of each lane (see [`IterCtx::read_lanes`]).
    #[inline]
    pub fn reduce_lanes(&mut self, a: ArrayId, live: u32, idx: &[usize], val: &[T]) {
        match self.batched(a) {
            // SAFETY: as in `reduce`.
            Some((view, buf)) => view.reduce_lanes(live, idx, val, |e| unsafe { buf.get(e) }),
            None => lanes(live).for_each(|l| self.reduce(a, idx[l], val[l])),
        }
    }

    /// The view and data the lane entries batch on: a tested array's,
    /// in a speculative context that logs no marks per iteration.
    #[inline]
    fn batched(&mut self, a: ArrayId) -> Option<(&mut ProcView<T>, &SharedBuf<T>)> {
        match self.meta[a.index()].route {
            Route::Tested { slot } if !self.views.is_empty() && self.iter_marks.is_none() => {
                Some((&mut self.views[slot], &self.shared[a.index()]))
            }
            _ => None,
        }
    }

    /// This block's write log so far, the open run included (`None` in
    /// direct mode); read only.
    pub fn write_log(&self) -> Option<LogView<'_, T>> {
        Some(self.wlog.as_deref()?.view(&self.open))
    }

    /// The current value of the loop's induction counter
    /// ([`crate::spec_loop::SpecLoop::initial_counter`]).
    #[inline]
    pub fn counter(&self) -> usize {
        self.counter
    }

    /// Increment the induction counter.
    #[inline]
    pub fn bump(&mut self) {
        self.counter += 1;
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

impl<T: Value> Drop for IterCtx<'_, T> {
    /// Hand the open run back to the write log, also when the block
    /// panicked.
    fn drop(&mut self) {
        if let Some(wlog) = self.wlog.as_deref_mut() {
            wlog.open = std::mem::take(&mut self.open);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayDecl;
    use crate::array::ShadowKind::{Dense, Packed, Sparse};
    use crate::checkpoint::CheckpointPolicy;
    use crate::view::Contribution;
    use proptest::prelude::*;
    use rlrpd_shadow::Mark;

    /// `read` / `write` / `reduce` as one function, before the hot and
    /// cold arms were split and the write log's open run moved into the
    /// context: the oracle the split must agree with. It logs untested
    /// writes one at a time with [`WriteLog::record`] into `side`, a log
    /// the context does not hold.
    /// SAFETY, for every block: one context on one thread, nothing else
    /// touches its arrays.
    fn unsplit(
        ctx: &mut IterCtx<'_, f64>,
        side: &mut WriteLog<f64>,
        op: u8,
        a: ArrayId,
        i: usize,
        v: f64,
    ) -> f64 {
        let m = &ctx.meta[a.index()];
        let buf = &ctx.shared[a.index()];
        match (op, m.route) {
            (0, Route::Tested { slot }) if !ctx.views.is_empty() => {
                if let Some(marks) = ctx.iter_marks.as_deref_mut() {
                    marks[slot].on_read(i, ctx.iter as u32);
                }
                ctx.views[slot].read(i, |e| unsafe { buf.get(e) })
            }
            (0, _) => unsafe { buf.get(i) },
            (_, Route::Tested { slot }) if !ctx.views.is_empty() => {
                if let Some(marks) = ctx.iter_marks.as_deref_mut() {
                    marks[slot].on_write(i, ctx.iter as u32);
                }
                match op {
                    1 => ctx.views[slot].write(i, v),
                    _ => ctx.views[slot].reduce(i, v, |e| unsafe { buf.get(e) }),
                }
                0.0
            }
            (1, Route::Untested { slot }) => {
                if ctx.wlog.is_some() {
                    side.record(slot, i, || unsafe { buf.get(i) });
                }
                unsafe { buf.set(i, v, ctx.writer) };
                0.0
            }
            (_, Route::Tested { .. }) => {
                let v = match op {
                    1 => v,
                    _ => (m.reduction.unwrap().combine)(unsafe { buf.get(i) }, v),
                };
                unsafe { buf.set(i, v, ctx.writer) };
                0.0
            }
            _ => unreachable!("no reduction of an untested array is drawn"),
        }
    }

    /// Four arrays: a dense reduction array, a sparse array whose last
    /// page is partial, an untested array and a restore-free one.
    fn decls(kind: ShadowKind) -> Vec<ArrayDecl<f64>> {
        let mut free = ArrayDecl::untested("D", (0..150).map(f64::from).collect());
        free.kind = ArrayKind::Untested { restore_free: true };
        vec![
            ArrayDecl::reduction("A", vec![1.0; 100], kind, Reduction::sum()),
            ArrayDecl::tested("B", (0..70).map(f64::from).collect(), Sparse),
            ArrayDecl::untested("C", vec![2.0; 50]),
            free,
        ]
    }

    /// Everything a run of references leaves behind, per engine-visible
    /// structure: per tested slot the marks, private values and deltas,
    /// touched count and reference count; the DDG marks; the write log —
    /// per untested slot its elements in first-write order, then its
    /// undo entries, its runs and its allocated flag sets; the shared
    /// arrays; the values the reads returned.
    #[derive(Debug, PartialEq)]
    struct Left {
        views: Vec<(Vec<Mark>, Vec<Option<Contribution<f64>>>, usize, u64)>,
        ddg: Vec<Vec<(usize, Vec<(u32, rlrpd_shadow::EventKind)>)>>,
        wlog: Option<(Vec<Vec<usize>>, Vec<(usize, usize, f64)>, usize)>,
        shared: Vec<Vec<f64>>,
        reads: Vec<f64>,
    }

    /// Run `ops` — `(op, array, element, value, next iteration?)` —
    /// through `path` in a context of `mode` (0 direct, 1 speculative,
    /// 2 speculative with DDG marks). The context's write log and the
    /// side log `path` may use are read as one: one of them stays empty.
    fn run(kind: ShadowKind, mode: u8, ops: &[(u8, u32, usize, f64, bool)], path: Path) -> Left {
        let routed = RoutedArrays::new(decls(kind));
        let mut views: Vec<ProcView<f64>> = (0..2)
            .map(|s| {
                ProcView::new(
                    routed.tested_sizes[s],
                    routed.tested_shadow[s],
                    routed.reductions[s],
                )
            })
            .collect();
        let log = || {
            WriteLog::new(
                &routed.untested_sizes,
                &[true, false],
                CheckpointPolicy::OnDemand,
            )
        };
        let (mut wlog, mut side) = (log(), log());
        let mut marks = vec![IterMarks::new(), IterMarks::new()];
        let mut reads = Vec::new();
        {
            let mut ctx = match mode {
                0 => IterCtx::direct(3, 0, &routed.meta, &routed.shared),
                _ => IterCtx::speculative(
                    3,
                    0,
                    &routed.meta,
                    &routed.shared,
                    &mut views,
                    &mut wlog,
                    (mode == 2).then_some(&mut marks[..]),
                ),
            };
            for &(op, a, i, v, next) in ops {
                let (a, i) = (ArrayId(a), i % ctx.len(ArrayId(a)));
                reads.push(path(&mut ctx, &mut side, op, a, i, v));
                if next {
                    ctx.advance();
                }
            }
        }
        let views = (views.iter().zip(&routed.tested_sizes))
            .map(|(view, &size)| {
                let marks: Vec<Mark> = (0..size).map(|e| view.mark(e)).collect();
                let vals = (0..size).map(|e| view.contribution(e, marks[e])).collect();
                (marks, vals, view.num_touched(), view.refs())
            })
            .collect();
        let ddg = (marks.iter())
            .map(|m| {
                let mut elems: Vec<_> =
                    m.elems().map(|(e, ev)| (e, ev.events().to_vec())).collect();
                elems.sort_unstable_by_key(|&(e, _)| e);
                elems
            })
            .collect();
        let logs = [&wlog, &side];
        let wlog = (0..2)
            .map(|slot| logs.iter().flat_map(|log| log.written(slot)).collect())
            .collect();
        let undo = logs.iter().flat_map(|log| log.undo_rev()).collect();
        let runs = logs.map(|log| log.num_runs()).iter().sum();
        Left {
            views,
            ddg,
            wlog: (mode > 0).then_some((wlog, undo, runs)),
            shared: routed.shared.into_iter().map(SharedBuf::into_vec).collect(),
            reads,
        }
    }

    /// A path the references run through (`split` or `unsplit`).
    type Path = fn(&mut IterCtx<'_, f64>, &mut WriteLog<f64>, u8, ArrayId, usize, f64) -> f64;

    /// The path under test.
    fn split(
        ctx: &mut IterCtx<'_, f64>,
        _: &mut WriteLog<f64>,
        op: u8,
        a: ArrayId,
        i: usize,
        v: f64,
    ) -> f64 {
        match op {
            0 => return ctx.read(a, i),
            1 => ctx.write(a, i, v),
            _ => ctx.reduce(a, i, v),
        }
        0.0
    }

    /// Both paths over `ops`, asserted equal; the state they left.
    fn agree(kind: ShadowKind, mode: u8, ops: &[(u8, u32, usize, f64, bool)]) -> Left {
        let left = run(kind, mode, ops, split);
        assert_eq!(left, run(kind, mode, ops, unsplit), "{kind:?} mode {mode}");
        left
    }

    #[test]
    fn ddg_marks_on_read_write_and_reduce_are_the_unsplit_ones() {
        // Read, write, reduce, read again, over two iterations, on the
        // reduction array and the sparse one.
        let ops = [
            (0, 0, 7, 0.0, false),
            (1, 0, 7, 2.0, false),
            (2, 0, 9, 3.0, true),
            (0, 0, 9, 0.0, false),
            (2, 0, 9, 1.0, false),
            (0, 1, 40, 0.0, false),
            (1, 1, 41, 5.0, true),
            (0, 1, 41, 0.0, false),
        ];
        for kind in [Dense, Packed, Sparse] {
            let left = agree(kind, 2, &ops);
            assert_eq!(left.ddg[0].len(), 2, "{kind:?}: A[7], A[9] logged");
            assert_eq!(left.ddg[1].len(), 2, "{kind:?}: B[40], B[41] logged");
            assert_eq!(left.views[0].3, 5, "{kind:?}: every reference counted");
            assert_eq!(left.reads, [1.0, 0.0, 0.0, 4.0, 0.0, 40.0, 0.0, 5.0]);
        }
    }

    #[test]
    fn direct_writes_and_reductions_of_a_tested_array_are_the_unsplit_ones() {
        let ops = [
            (1, 0, 3, 4.0, false),
            (2, 0, 3, 0.5, false),
            (2, 0, 99, 2.0, true),
            (0, 0, 3, 0.0, false),
            (1, 1, 69, -1.0, false),
            (1, 2, 10, 6.0, false),
        ];
        for kind in [Dense, Packed, Sparse] {
            let left = agree(kind, 0, &ops);
            assert_eq!((left.shared[0][3], left.shared[0][99]), (4.5, 3.0));
            assert_eq!((left.shared[1][69], left.shared[2][10]), (-1.0, 6.0));
            assert_eq!(left.views[0].3, 0, "direct mode marks nothing");
        }
    }

    #[test]
    fn a_page_laid_down_mid_block_keeps_every_page_before_it() {
        // A[5]'s page, then A[70]'s laid down between references to
        // the first, then a delta on a third page and a read of it.
        let ops = [
            (1, 0, 5, 1.5, false),
            (1, 0, 70, 2.5, true),
            (0, 0, 5, 0.0, false),
            (1, 0, 6, 3.5, false),
            (2, 0, 40, 4.0, false),
            (0, 0, 70, 0.0, false),
            (0, 0, 40, 0.0, false),
        ];
        for kind in [Dense, Packed, Sparse] {
            for mode in [1, 2] {
                let left = agree(kind, mode, &ops);
                let vals: Vec<_> = [5, 6, 40, 70].map(|e| left.views[0].1[e]).into();
                let want = [1.5, 3.5, 5.0, 2.5].map(|v| Some(Contribution::Write(v)));
                assert_eq!(vals, want);
                assert_eq!(left.reads[2..], [1.5, 0.0, 0.0, 2.5, 5.0]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 70 but the index is 70")]
    fn a_tested_write_past_the_end_faults_in_the_block() {
        // B's last page covers 64..96 and its sparse shadow takes any
        // element: only the bound check refuses 70.
        run(Sparse, 1, &[(1, 1, 0, 0.0, false)], |ctx, _, _, a, _, v| {
            ctx.write(a, 70, v);
            0.0
        });
    }

    #[test]
    #[should_panic(expected = "index out of bounds: the len is 100 but the index is 101")]
    fn a_tested_reduction_past_the_end_faults_in_the_block() {
        run(Sparse, 1, &[(2, 0, 0, 1.0, false)], |ctx, _, _, a, _, v| {
            ctx.reduce(a, 101, v);
            0.0
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn the_split_arms_leave_what_the_unsplit_path_left(
            kind in 0usize..3,
            mode in 0u8..3,
            ops in prop::collection::vec(
                (0u8..3, 0u32..4, 0usize..200, -4i8..5, any::<bool>(), 0u8..4),
                0..80,
            ),
        ) {
            // Reductions only of the array with an operator. Three times
            // in four a reference steps to the element after the
            // array's last one: ascending sweeps, within one array or
            // across a switch; the rest jump anywhere, which repeats,
            // descends and lands below a sweep's high-water mark.
            let mut last = [0usize; 4];
            let ops: Vec<_> = ops
                .into_iter()
                .map(|(op, a, i, v, next, step)| {
                    let i = if step > 0 { last[a as usize] + 1 } else { i };
                    last[a as usize] = i;
                    (if a > 0 { op.min(1) } else { op }, a, i, f64::from(v), next)
                })
                .collect();
            let kind = [Dense, Packed, Sparse][kind];
            let (left, oracle) = (run(kind, mode, &ops, split), run(kind, mode, &ops, unsplit));
            prop_assert_eq!(left, oracle);
        }
    }
}
