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

use crate::array::ShadowKind;
use crate::value::{Reduction, Value};
use rlrpd_shadow::hasher::FxBuildHasher;
use rlrpd_shadow::{Mark, Shadow};
use std::collections::HashMap;

/// Private value storage, dense (slot per element) or sparse (hash map).
#[derive(Clone, Debug)]
enum PrivStore<T> {
    /// Slot per element; validity is gated by the shadow's WRITE bit.
    Dense(Vec<T>),
    /// Entries exist only for written elements.
    Sparse(HashMap<usize, T, FxBuildHasher>),
}

impl<T: Value> PrivStore<T> {
    fn get(&self, e: usize) -> T {
        match self {
            PrivStore::Dense(v) => v[e],
            PrivStore::Sparse(m) => *m.get(&e).expect("private read of unwritten element"),
        }
    }

    fn set(&mut self, e: usize, val: T) {
        match self {
            PrivStore::Dense(v) => v[e] = val,
            PrivStore::Sparse(m) => {
                m.insert(e, val);
            }
        }
    }

    fn clear(&mut self) {
        if let PrivStore::Sparse(m) = self {
            m.clear(); // dense slots are gated by shadow marks; no clear needed
        }
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

/// One processor's privatized view of one tested array for one stage.
pub struct ProcView<T> {
    store: PrivStore<T>,
    accum: Option<PrivStore<T>>,
    op: Option<Reduction<T>>,
    shadow: Shadow,
    size: usize,
    refs: u64,
}

impl<T: Value> ProcView<T> {
    /// A fresh view for an array of `size` elements.
    pub fn new(size: usize, kind: ShadowKind, op: Option<Reduction<T>>) -> Self {
        let (store, accum, shadow) = match kind {
            ShadowKind::Dense => (
                PrivStore::Dense(vec![T::default(); size]),
                op.map(|_| PrivStore::Dense(vec![T::default(); size])),
                Shadow::dense(size),
            ),
            ShadowKind::DensePacked => (
                PrivStore::Dense(vec![T::default(); size]),
                op.map(|_| PrivStore::Dense(vec![T::default(); size])),
                Shadow::packed(size),
            ),
            ShadowKind::Sparse => (
                PrivStore::Sparse(HashMap::default()),
                op.map(|_| PrivStore::Sparse(HashMap::default())),
                Shadow::sparse(),
            ),
        };
        ProcView {
            store,
            accum,
            op,
            shadow,
            size,
            refs: 0,
        }
    }

    /// Ordinary read of element `e`; `shared` supplies the committed
    /// shared value for copy-in.
    pub fn read(&mut self, e: usize, shared: impl Fn(usize) -> T) -> T {
        self.refs += 1;
        let m = self.shadow.mark(e);
        if m.is_written() {
            self.store.get(e)
        } else if m.is_reduction_only() {
            // Materialize: value = shared ⊕ delta; henceforth ordinary.
            let op = self.op.expect("reduction mark without operator");
            let val = (op.combine)(shared(e), self.accum.as_ref().expect("accum").get(e));
            self.store.set(e, val);
            self.shadow.materialize(e);
            val
        } else {
            self.shadow.on_read(e); // exposed: copy-in from shared
            shared(e)
        }
    }

    /// The value [`ProcView::read`] would return for element `e`,
    /// computed without side effects: no mark, no materialization, no
    /// reference counted. A reduction-only element folds its delta
    /// onto the shared value with the same `combine` call `read`'s
    /// materialization makes, so the two agree to the bit.
    pub fn peek(&self, e: usize, shared: impl Fn(usize) -> T) -> T {
        let m = self.shadow.mark(e);
        if m.is_written() {
            self.store.get(e)
        } else if m.is_reduction_only() {
            let op = self.op.expect("reduction mark without operator");
            (op.combine)(shared(e), self.accum.as_ref().expect("accum").get(e))
        } else {
            shared(e)
        }
    }

    /// Ordinary write of element `e`.
    pub fn write(&mut self, e: usize, v: T) {
        self.refs += 1;
        let m = self.shadow.mark(e);
        if m.is_reduction_only() {
            // Conservative: treat as materialize-then-overwrite. The
            // extra EXPOSED_READ mark can only add a false dependence,
            // never an incorrect result.
            self.shadow.materialize(e);
        } else {
            self.shadow.on_write(e);
        }
        self.store.set(e, v);
    }

    /// Reduction update `x[e] = x[e] ⊕ v`.
    ///
    /// # Panics
    /// Panics if the array was declared without a reduction operator.
    pub fn reduce(&mut self, e: usize, v: T, shared: impl Fn(usize) -> T) {
        self.refs += 1;
        let op = self
            .op
            .expect("reduce on array declared without a reduction operator");
        let m = self.shadow.mark(e);
        if m.is_written() {
            // Ordinary read-modify-write on the private value.
            let cur = self.store.get(e);
            self.store.set(e, (op.combine)(cur, v));
        } else if m.is_exposed_read() {
            // The element was already read ordinarily: its reduction can
            // no longer be delta-accumulated; fold onto the copy-in.
            let val = (op.combine)(shared(e), v);
            self.store.set(e, val);
            self.shadow.on_write(e);
        } else if m.is_reduction_only() {
            let accum = self.accum.as_mut().expect("accum");
            let cur = accum.get(e);
            accum.set(e, (op.combine)(cur, v));
        } else {
            // First touch: start a delta from the identity.
            self.accum
                .as_mut()
                .expect("accum")
                .set(e, (op.combine)(op.identity, v));
            self.shadow.on_reduce(e);
        }
    }

    /// The mark of element `e`.
    pub fn mark(&self, e: usize) -> Mark {
        self.shadow.mark(e)
    }

    /// Final private value of an element this view wrote (W mark set).
    pub fn written_value(&self, e: usize) -> T {
        debug_assert!(self.shadow.mark(e).is_written());
        self.store.get(e)
    }

    /// Accumulated reduction delta of a REDUCTION-marked element.
    pub fn reduction_delta(&self, e: usize) -> T {
        debug_assert!(self.shadow.mark(e).is_reduction_only());
        self.accum.as_ref().expect("accum").get(e)
    }

    /// Touched elements with marks (see [`Shadow::touched`]).
    pub fn touched(&self) -> Box<dyn Iterator<Item = (usize, Mark)> + '_> {
        self.shadow.touched()
    }

    /// The contribution rule, stated once: does touched element `e`,
    /// whose mark is `mark`, produce a value for the commit — as a
    /// write or as a reduction delta — and which. The commit fold, the
    /// fleet worker's reply and [`ProcView::migrate`] all ask here.
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
                self.store.set(e, v);
            }
            Some(Contribution::Delta(delta)) => {
                self.shadow.on_reduce(e);
                let accum = self
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
        self.store.clear();
        if let Some(a) = &mut self.accum {
            a.clear();
        }
        self.refs = 0;
    }

    /// Shadow memory this view holds, in bytes (what the view reports
    /// through the footprint accountant; sparse is a capacity-based
    /// estimate).
    pub fn shadow_bytes(&self) -> u64 {
        self.shadow.shadow_bytes()
    }

    /// The representation this view's shadow currently uses.
    pub fn shadow_kind(&self) -> ShadowKind {
        ShadowKind::from_choice(self.shadow.choice())
    }

    /// Migrate this view to representation `kind`, carrying every piece
    /// of live state across: shadow marks, private written values, and
    /// reduction deltas.
    ///
    /// **Byte-identity guarantee:** after migration the view answers
    /// every query identically — `mark(e)`, `written_value(e)`,
    /// `reduction_delta(e)`, `num_touched()`, `refs()`, and the touched
    /// *set* (touched *order* may differ; analysis must not depend on
    /// it). The engine invokes this at commit points, where views are
    /// empty and migration is O(1); the proptest suite holds it to the
    /// contract on fully live views too.
    pub fn migrate(&mut self, kind: ShadowKind) {
        let choice = kind.to_choice();
        if self.shadow.choice() != choice {
            self.shadow = self.shadow.migrated(choice, self.size);
        }
        let dense_target = !matches!(kind, ShadowKind::Sparse);
        let dense_now = matches!(self.store, PrivStore::Dense(_));
        if dense_target != dense_now {
            let mut store = if dense_target {
                PrivStore::Dense(vec![T::default(); self.size])
            } else {
                PrivStore::Sparse(HashMap::default())
            };
            let mut accum = self.accum.as_ref().map(|_| {
                if dense_target {
                    PrivStore::Dense(vec![T::default(); self.size])
                } else {
                    PrivStore::Sparse(HashMap::default())
                }
            });
            for (e, produced) in self.contributions() {
                match produced {
                    Contribution::Write(v) => store.set(e, v),
                    Contribution::Delta(d) => accum.as_mut().expect("accum").set(e, d),
                }
            }
            self.store = store;
            self.accum = accum;
        }
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
mod tests {
    use super::*;
    use crate::array::ShadowKind::{Dense, DensePacked, Sparse};

    fn shared_of(vals: &[f64]) -> impl Fn(usize) -> f64 + '_ {
        move |e| vals[e]
    }

    #[test]
    fn exposed_read_copies_in_from_shared() {
        for kind in [Dense, DensePacked, Sparse] {
            let shared = [10.0, 20.0, 30.0];
            let mut v = ProcView::<f64>::new(3, kind, None);
            assert_eq!(v.read(1, shared_of(&shared)), 20.0);
            assert!(v.mark(1).is_exposed_read());
        }
    }

    #[test]
    fn write_then_read_stays_private() {
        for kind in [Dense, DensePacked, Sparse] {
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
        for kind in [Dense, DensePacked, Sparse] {
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
        for kind in [Dense, DensePacked, Sparse] {
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
    fn refs_count_every_dynamic_reference() {
        let shared = [0.0; 2];
        let mut v = ProcView::<f64>::new(2, Dense, None);
        let _ = v.read(0, shared_of(&shared));
        v.write(0, 1.0);
        let _ = v.read(0, shared_of(&shared));
        assert_eq!(v.refs(), 3);
    }
}
