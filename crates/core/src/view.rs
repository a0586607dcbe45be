//! Per-processor privatized view of one tested array.
//!
//! The paper privatizes every array under test: each processor writes
//! only its own copy, and *copy-in on demand* initializes a private
//! element from shared storage at its first exposed read. The shadow
//! mark byte doubles as the per-element state machine:
//!
//! | mark               | meaning for this processor                  |
//! |--------------------|---------------------------------------------|
//! | clear              | untouched                                   |
//! | `EXPOSED_READ`     | read shared data, produced nothing          |
//! | contains `WRITE`   | private slot holds the current value        |
//! | `REDUCTION` (only) | private accumulator holds a delta           |
//!
//! Mixed reduction/ordinary references *within one processor* are
//! resolved exactly by **materialization**: the accumulated delta is
//! folded onto the shared value into the private slot, and the marks
//! become ordinary (`EXPOSED_READ | WRITE`) because the materialization
//! consumed shared data. Cross-processor mixing is then handled by the
//! ordinary dependence test.
//!
//! # Private values are paged
//!
//! A view's private values (and a reduction array's deltas) live in a
//! `PagedStore`: the array is cut into pages of `PAGE` elements, and
//! a page is laid down, filled with `T::default()`, at the first write
//! into it. A processor's private copy therefore costs what the
//! processor wrote — O(pages written) — whatever the array's size and
//! whatever its shadow representation; the only per-element cost left
//! is the page directory's 4 bytes per `PAGE` elements. The shadow's
//! WRITE / REDUCTION bits still say which slots hold a value: a slot of
//! a laid-down page the processor never wrote holds `T::default()`
//! and is never asked for.

use crate::array::ShadowKind;
use crate::value::{Reduction, Value};
use rlrpd_shadow::{Mark, Marking, Shadow};

/// Elements per page of a [`PagedStore`], the unit a store grows by.
/// Scattered writes pay a whole page each, a sweep pays the directory
/// (4 bytes a page) and a partial page at each end. On a 2-vCPU Xeon
/// the `track_doall` benchmark (one write every 352 elements) read
/// 108.7, 110.4 and 114.8 MiB peak RSS at pages of 32, 64 and 128 with
/// equal op time, and `nlfilt_partial` read the same under all three.
const PAGE: usize = 32;

/// Private value storage sized to the pages written (module docs).
#[derive(Debug)]
struct PagedStore<T> {
    /// One entry per page of the array: 0 for a page never written
    /// since the last clear, `k + 1` for the page at slab position `k`.
    dir: Vec<u32>,
    /// The written pages, `PAGE` elements each, in first-touch order.
    slab: Vec<T>,
    /// The written pages' numbers in first-touch order: what `clear`
    /// resets in `dir`.
    pages: Vec<u32>,
}

impl<T: Value> PagedStore<T> {
    fn new(size: usize) -> Self {
        let num_pages = size.div_ceil(PAGE);
        assert!(num_pages < u32::MAX as usize, "array too large to page");
        PagedStore {
            dir: vec![0; num_pages],
            slab: Vec::new(),
            pages: Vec::new(),
        }
    }

    #[inline(always)]
    fn get(&self, e: usize) -> T {
        let at = self.dir[e / PAGE];
        assert!(at != 0, "private read of unwritten element");
        self.slab[(at as usize - 1) * PAGE + e % PAGE]
    }

    #[inline(always)]
    fn set(&mut self, e: usize, val: T) {
        let mut at = self.dir[e / PAGE];
        if at == 0 {
            at = self.lay_down(e / PAGE);
        }
        self.slab[(at as usize - 1) * PAGE + e % PAGE] = val;
    }

    #[cold]
    #[inline(never)]
    fn lay_down(&mut self, page: usize) -> u32 {
        self.pages.push(page as u32);
        self.dir[page] = self.pages.len() as u32;
        self.slab.resize(self.slab.len() + PAGE, T::default());
        self.pages.len() as u32
    }

    /// Forget every page in O(pages written); the slab keeps its
    /// capacity for the next stage.
    fn clear(&mut self) {
        for &page in &self.pages {
            self.dir[page as usize] = 0;
        }
        self.pages.clear();
        self.slab.clear();
    }
}

/// What one touched element of a view hands to the commit: the paper's
/// last-value rule has two kinds of producer, and everything else a
/// block touched (an exposed read) produces nothing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Contribution<T> {
    /// An ordinary write: the block's final private value replaces the
    /// element's.
    Write(T),
    /// A reduction-only element: the accumulated delta folds onto the
    /// element's value with the array's operator.
    Delta(T),
}

/// A view's private values, and its reduction deltas and operator.
struct Values<T> {
    store: PagedStore<T>,
    /// Reduction deltas; `Some` exactly when the array has an operator.
    accum: Option<PagedStore<T>>,
    op: Option<Reduction<T>>,
}

impl<T: Value> Values<T> {
    // The per-element rules of `ProcView::read / write / reduce`, on
    // the representation `m` the view's shadow holds.
    #[inline(always)]
    fn read(&mut self, m: &mut impl Marking, e: usize, shared: &impl Fn(usize) -> T) -> T {
        let mark = m.mark(e);
        let val = self.value(mark, e, shared);
        if mark.is_reduction_only() {
            // Materialized: henceforth ordinary.
            self.store.set(e, val);
            m.materialize(e);
        } else if !mark.is_written() {
            m.on_read(e); // exposed: copy-in from shared
        }
        val
    }

    /// Element `e`'s value under `mark`: private, `shared ⊕ delta`, or shared.
    #[inline(always)]
    fn value(&self, mark: Mark, e: usize, shared: &impl Fn(usize) -> T) -> T {
        if mark.is_written() {
            self.store.get(e)
        } else if mark.is_reduction_only() {
            let op = self.op.expect("reduction mark without operator");
            (op.combine)(shared(e), self.accum.as_ref().expect("accum").get(e))
        } else {
            shared(e)
        }
    }

    #[inline(always)]
    fn write(&mut self, m: &mut impl Marking, e: usize, v: T) {
        if m.mark(e).is_reduction_only() {
            // Conservative: treat as materialize-then-overwrite. The
            // extra EXPOSED_READ mark can only add a false dependence,
            // never an incorrect result.
            m.materialize(e);
        } else {
            m.on_write(e);
        }
        self.store.set(e, v);
    }

    #[inline(always)]
    fn reduce(
        &mut self,
        m: &mut impl Marking,
        op: Reduction<T>,
        e: usize,
        v: T,
        shared: &impl Fn(usize) -> T,
    ) {
        let mark = m.mark(e);
        if mark.is_written() {
            // Ordinary read-modify-write on the private value.
            let cur = self.store.get(e);
            self.store.set(e, (op.combine)(cur, v));
        } else if mark.is_exposed_read() {
            // The element was already read ordinarily: its reduction can
            // no longer be delta-accumulated; fold onto the copy-in.
            self.store.set(e, (op.combine)(shared(e), v));
            m.on_write(e);
        } else if mark.is_reduction_only() {
            let accum = self.accum.as_mut().expect("accum");
            let cur = accum.get(e);
            accum.set(e, (op.combine)(cur, v));
        } else {
            // First touch: start a delta from the identity.
            self.accum
                .as_mut()
                .expect("accum")
                .set(e, (op.combine)(op.identity, v));
            m.on_reduce(e);
        }
    }
}

/// The lanes set in `live`, lowest first.
#[inline(always)]
pub fn lanes(mut live: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let l = live.trailing_zeros() as usize;
        live &= live.wrapping_sub(1);
        (l < 32).then_some(l)
    })
}

/// `$body` with `$m` bound to the representation `$shadow` holds.
macro_rules! with_marks {
    ($shadow:expr, |$m:ident| $body:expr) => {
        match $shadow {
            Shadow::Dense($m) => $body,
            Shadow::Packed($m) => $body,
            Shadow::Sparse($m) => $body,
        }
    };
}

/// One processor's privatized view of one tested array for one stage.
pub struct ProcView<T> {
    vals: Values<T>,
    shadow: Shadow,
    refs: u64,
}

impl<T: Value> ProcView<T> {
    /// A fresh view for an array of `size` elements, in O(size /
    /// `PAGE`): no private value exists until it is written.
    pub fn new(size: usize, kind: ShadowKind, op: Option<Reduction<T>>) -> Self {
        ProcView {
            vals: Values {
                store: PagedStore::new(size),
                accum: op.map(|_| PagedStore::new(size)),
                op,
            },
            shadow: Shadow::for_kind(kind, size),
            refs: 0,
        }
    }

    /// Ordinary read of element `e`; `shared` supplies the committed
    /// shared value for copy-in. Inline, like `write` and `reduce`: the
    /// tail of `IterCtx`'s hot arm.
    #[inline(always)]
    pub fn read(&mut self, e: usize, shared: impl Fn(usize) -> T) -> T {
        self.refs += 1;
        with_marks!(&mut self.shadow, |m| self.vals.read(m, e, &shared))
    }

    /// [`ProcView::read`] of element `idx[l]` for each lane `l` of
    /// `live`, in lane order, the values dropped.
    pub fn read_lanes(&mut self, live: u32, idx: &[usize], shared: impl Fn(usize) -> T) {
        self.refs += u64::from(live.count_ones());
        with_marks!(&mut self.shadow, |m| for l in lanes(live) {
            self.vals.read(m, idx[l], &shared);
        })
    }

    /// The value [`ProcView::read`] would return for element `e`,
    /// computed the same way but without side effects: no mark, no
    /// materialization, no reference counted.
    pub fn peek(&self, e: usize, shared: impl Fn(usize) -> T) -> T {
        self.vals.value(self.shadow.mark(e), e, &shared)
    }

    /// Ordinary write of element `e`.
    #[inline(always)]
    pub fn write(&mut self, e: usize, v: T) {
        self.refs += 1;
        with_marks!(&mut self.shadow, |m| self.vals.write(m, e, v))
    }

    /// [`ProcView::write`] of `val[l]` to `idx[l]` for each lane of `live`.
    pub fn write_lanes(&mut self, live: u32, idx: &[usize], val: &[T]) {
        self.refs += u64::from(live.count_ones());
        with_marks!(&mut self.shadow, |m| for l in lanes(live) {
            self.vals.write(m, idx[l], val[l]);
        })
    }

    /// Reduction update `x[e] = x[e] ⊕ v`.
    ///
    /// # Panics
    /// Panics if the array was declared without a reduction operator.
    #[inline(always)]
    pub fn reduce(&mut self, e: usize, v: T, shared: impl Fn(usize) -> T) {
        self.refs += 1;
        let op = self
            .vals
            .op
            .expect("reduce on an array without a reduction operator");
        with_marks!(&mut self.shadow, |m| self.vals.reduce(m, op, e, v, &shared))
    }

    /// [`ProcView::reduce`] by `val[l]` of `idx[l]` for each lane of
    /// `live`, in lane order, the operator looked up once.
    pub fn reduce_lanes(
        &mut self,
        live: u32,
        idx: &[usize],
        val: &[T],
        shared: impl Fn(usize) -> T,
    ) {
        self.refs += u64::from(live.count_ones());
        let op = self
            .vals
            .op
            .expect("reduce on an array without a reduction operator");
        with_marks!(&mut self.shadow, |m| for l in lanes(live) {
            self.vals.reduce(m, op, idx[l], val[l], &shared);
        })
    }

    /// The mark of element `e`.
    pub fn mark(&self, e: usize) -> Mark {
        self.shadow.mark(e)
    }

    /// Final private value of an element this view wrote (W mark set).
    pub fn written_value(&self, e: usize) -> T {
        debug_assert!(self.shadow.mark(e).is_written());
        self.vals.store.get(e)
    }

    /// Accumulated reduction delta of a REDUCTION-marked element.
    pub fn reduction_delta(&self, e: usize) -> T {
        debug_assert!(self.shadow.mark(e).is_reduction_only());
        self.vals.accum.as_ref().expect("accum").get(e)
    }

    /// Touched elements with marks (see [`Shadow::touched`]).
    pub fn touched(&self) -> Box<dyn Iterator<Item = (usize, Mark)> + '_> {
        self.shadow.touched()
    }

    /// The contribution rule, stated once: does touched element `e`,
    /// whose mark is `mark`, produce a value for the commit — as a
    /// write or as a reduction delta — and which. The commit fold and
    /// the fleet worker's reply both ask here.
    pub(crate) fn contribution(&self, e: usize, mark: Mark) -> Option<Contribution<T>> {
        if mark.is_written() {
            Some(Contribution::Write(self.written_value(e)))
        } else if mark.is_reduction_only() {
            Some(Contribution::Delta(self.reduction_delta(e)))
        } else {
            None
        }
    }

    /// This view's contributions in touched order: every touched
    /// element [`ProcView::contribution`] answers `Some` for.
    pub(crate) fn contributions(&self) -> impl Iterator<Item = (usize, Contribution<T>)> + '_ {
        self.touched()
            .filter_map(|(e, mark)| Some((e, self.contribution(e, mark)?)))
    }

    /// Number of distinct elements touched.
    pub fn num_touched(&self) -> usize {
        self.shadow.num_touched()
    }

    /// Dynamic reference count (for marking-overhead accounting).
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Replay one touched element received from a distributed worker
    /// ([`crate::remote`]): `exposed` carries whether the element
    /// consumed shared data (a read first touch, read-then-write, or a
    /// materialized reduction) and `produced` what
    /// [`ProcView::contribution`] answered for it on the worker.
    /// Leaves the mark bits and private value the local reference
    /// sequence would have.
    pub(crate) fn replay(&mut self, e: usize, exposed: bool, produced: Option<Contribution<T>>) {
        if exposed {
            self.shadow.on_read(e);
        }
        match produced {
            Some(Contribution::Write(v)) => {
                self.shadow.on_write(e);
                self.vals.store.set(e, v);
            }
            Some(Contribution::Delta(delta)) => {
                self.shadow.on_reduce(e);
                let accum = self
                    .vals
                    .accum
                    .as_mut()
                    .expect("reduction replay without operator");
                accum.set(e, delta);
            }
            None => {}
        }
    }

    /// Adopt the worker-counted dynamic reference count so the
    /// marking-overhead accounting is identical under local and
    /// distributed execution.
    pub(crate) fn set_refs(&mut self, refs: u64) {
        self.refs = refs;
    }

    /// Re-initialize for the next stage in O(touched).
    pub fn clear(&mut self) {
        self.shadow.clear();
        self.vals.store.clear();
        if let Some(a) = &mut self.vals.accum {
            a.clear();
        }
        self.refs = 0;
    }

    /// Shadow memory this view holds, in bytes (what the engine holds
    /// against its cap; sparse is a capacity-based estimate).
    pub fn shadow_bytes(&self) -> u64 {
        self.shadow.shadow_bytes()
    }
}

impl<T: Value> std::fmt::Debug for ProcView<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ProcView(touched={}, refs={})",
            self.num_touched(),
            self.refs
        )
    }
}

#[cfg(test)]
impl<T: Value> ProcView<T> {
    /// Pages of private values laid down, and the bytes the slabs
    /// reserve for values: what the stores cost beyond their
    /// directories.
    fn store_bytes(&self) -> (usize, usize) {
        let stores = std::iter::once(&self.vals.store).chain(&self.vals.accum);
        stores.fold((0, 0), |(pages, bytes), s| {
            (
                pages + s.pages.len(),
                bytes + s.slab.capacity() * std::mem::size_of::<T>(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ShadowKind::{Dense, Packed, Sparse};

    fn shared_of(vals: &[f64]) -> impl Fn(usize) -> f64 + '_ {
        move |e| vals[e]
    }

    #[test]
    fn exposed_read_copies_in_from_shared() {
        for kind in [Dense, Packed, Sparse] {
            let shared = [10.0, 20.0, 30.0];
            let mut v = ProcView::<f64>::new(3, kind, None);
            assert_eq!(v.read(1, shared_of(&shared)), 20.0);
            assert!(v.mark(1).is_exposed_read());
        }
    }

    #[test]
    fn write_then_read_stays_private() {
        for kind in [Dense, Packed, Sparse] {
            let shared = [10.0, 20.0, 30.0];
            let mut v = ProcView::<f64>::new(3, kind, None);
            v.write(1, 99.0);
            assert_eq!(v.read(1, shared_of(&shared)), 99.0);
            assert!(!v.mark(1).is_exposed_read(), "covered read");
            assert_eq!(v.written_value(1), 99.0);
        }
    }

    #[test]
    fn read_then_write_keeps_exposure() {
        let shared = [10.0; 3];
        let mut v = ProcView::<f64>::new(3, Dense, None);
        let _ = v.read(0, shared_of(&shared));
        v.write(0, 5.0);
        assert!(v.mark(0).is_exposed_read());
        assert!(v.mark(0).is_written());
        assert_eq!(v.written_value(0), 5.0);
    }

    #[test]
    fn pure_reduction_accumulates_delta() {
        for kind in [Dense, Packed, Sparse] {
            let shared = [100.0; 2];
            let mut v = ProcView::new(2, kind, Some(Reduction::sum()));
            v.reduce(0, 3.0, shared_of(&shared));
            v.reduce(0, 4.0, shared_of(&shared));
            assert!(v.mark(0).is_reduction_only());
            assert_eq!(v.reduction_delta(0), 7.0);
        }
    }

    #[test]
    fn read_after_reduce_materializes_exactly() {
        let shared = [100.0; 2];
        let mut v = ProcView::new(2, Dense, Some(Reduction::sum()));
        v.reduce(0, 3.0, shared_of(&shared));
        let got = v.read(0, shared_of(&shared));
        assert_eq!(got, 103.0, "shared ⊕ delta");
        assert!(v.mark(0).is_written());
        assert!(
            v.mark(0).is_exposed_read(),
            "materialization consumed shared data"
        );
        // Further reduces fold into the private value.
        v.reduce(0, 1.0, shared_of(&shared));
        assert_eq!(v.written_value(0), 104.0);
    }

    #[test]
    fn reduce_after_exposed_read_is_ordinary() {
        let shared = [50.0; 1];
        let mut v = ProcView::new(1, Dense, Some(Reduction::sum()));
        let _ = v.read(0, shared_of(&shared));
        v.reduce(0, 2.0, shared_of(&shared));
        assert!(v.mark(0).is_written());
        assert!(v.mark(0).is_exposed_read());
        assert_eq!(v.written_value(0), 52.0);
    }

    #[test]
    fn write_after_reduce_overwrites_conservatively() {
        let shared = [50.0; 1];
        let mut v = ProcView::new(1, Dense, Some(Reduction::sum()));
        v.reduce(0, 2.0, shared_of(&shared));
        v.write(0, 7.0);
        assert_eq!(v.written_value(0), 7.0);
        assert!(!v.mark(0).is_reduction_only());
    }

    #[test]
    #[should_panic(expected = "without a reduction operator")]
    fn reduce_without_operator_panics() {
        let mut v = ProcView::<f64>::new(1, Dense, None);
        v.reduce(0, 1.0, |_| 0.0);
    }

    #[test]
    fn clear_resets_all_state() {
        for kind in [Dense, Packed, Sparse] {
            let shared = [10.0; 4];
            let mut v = ProcView::new(4, kind, Some(Reduction::sum()));
            v.write(0, 1.0);
            v.reduce(1, 2.0, shared_of(&shared));
            let _ = v.read(2, shared_of(&shared));
            v.clear();
            assert_eq!(v.num_touched(), 0);
            assert_eq!(v.refs(), 0);
            // Fresh semantics after clear.
            assert_eq!(v.read(0, shared_of(&shared)), 10.0);
            assert!(v.mark(0).is_exposed_read());
        }
    }

    #[test]
    fn a_view_holds_the_pages_it_wrote() {
        const SIZE: usize = 1 << 24;
        for kind in [Dense, Packed, Sparse] {
            let mut v = ProcView::<f64>::new(SIZE, kind, None);
            for e in [5, SIZE / 2, SIZE - 1] {
                v.write(e, e as f64);
            }
            let (pages, bytes) = v.store_bytes();
            assert_eq!(pages, 3, "{kind:?}");
            // A dense store would be 128 MiB; three pages (plus the
            // slab's amortized growth) are a few KiB.
            assert!(bytes <= 4 * PAGE * 8, "{kind:?}: {bytes} bytes");
            assert_eq!(v.written_value(SIZE / 2), (SIZE / 2) as f64);
            // A second stage on three other pages reuses the slab.
            v.clear();
            for e in [PAGE, SIZE / 3, SIZE - PAGE - 1] {
                v.write(e, 1.0);
            }
            assert_eq!(v.store_bytes(), (3, bytes), "{kind:?}");
            assert_eq!(v.written_value(SIZE / 3), 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "private read of unwritten element")]
    fn reading_an_unwritten_page_panics() {
        let mut store = PagedStore::<f64>::new(4 * PAGE);
        store.set(PAGE, 1.0);
        let _ = store.get(2 * PAGE);
    }

    #[test]
    fn refs_count_every_dynamic_reference() {
        let shared = [0.0; 2];
        let mut v = ProcView::<f64>::new(2, Dense, None);
        let _ = v.read(0, shared_of(&shared));
        v.write(0, 1.0);
        let _ = v.read(0, shared_of(&shared));
        assert_eq!(v.refs(), 3);
    }
}
