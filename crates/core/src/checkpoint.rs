//! Checkpointing and restoration of untested arrays.
//!
//! Untested arrays (Fig. 1's `B`) are modified in place during
//! speculation; when a stage fails, the state touched by uncommitted
//! processors must be restored before re-execution. The paper
//! implements this two ways and measures the difference (Fig. 12a):
//!
//! * **eager** — copy the whole array before each stage; restore by
//!   copying back the elements the failed processors wrote;
//! * **on-demand** — save `(element, old value)` on the *first* write of
//!   each element per stage; restore by replaying the failed
//!   processors' logs in reverse. For loops with large, conditionally
//!   modified state (NLFILT) this is the paper's single most important
//!   optimization.
//!
//! Both need per-processor written-element tracking; it doubles as the
//! restore index for the eager variant.
//!
//! # The write log is kept as runs
//!
//! A [`WriteLog`] remembers *which* elements a block first-wrote as
//! **runs**: `(slot, first, len)` stands for the `len` elements
//! `first..first + len` of untested array `slot`, first-written in that
//! order. A write extends the last run when it lands on that run's
//! `first + len` in the same slot, and opens a run otherwise — the last
//! run only, because first-write order is the order everything
//! downstream is defined in (the undo replay is its exact reverse; a
//! worker reply lists a block's untested writes in it, so wire bytes
//! depend on it), and a run that absorbed a later write out of order
//! would lose it. Under the on-demand policy the saved old values sit in
//! one `Vec<T>` in the same order, so entry *k* of `old` belongs to the
//! *k*-th element of the runs laid end to end.
//!
//! A block that sweeps an array — the common case: `B[i] = …` over the
//! block's consecutive iterations — is one run however long the sweep:
//! 8 bytes of old value per write where the per-element log held a flag
//! byte + 4 (touched list) + 16 (`(slot, elem, old)` triple). A fully
//! scattered block is one run per write, 12 + 8 bytes: never more than
//! before.
//!
//! # The open run is the hot state, and it lives in the context
//!
//! The last run stays *open* (`OpenRun`: slot, first and next
//! element, the slot's saves-old flag, and the old values). While a
//! block runs, its [`crate::ctx::IterCtx`] holds the open run in its own
//! fields, so a sweep keeps it in registers, and hands it back to the
//! log when dropped — also when the block panics, so a faulted block
//! leaves a complete log.
//!
//! Each slot keeps a high-water mark: one past the highest element of
//! its closed runs this stage. A run whose next element is at or above
//! the mark is *fresh*: that element is above everything the slot has
//! written, so writing it is a first write — a compare, a push and an
//! increment, with no flag to test. Every other write asks whether it
//! is the block's first of the element: one above the mark is; one
//! below is answered by the slot's first-write flags, one bit an
//! element. A slot's flags are allocated and built from its runs the
//! first time a write lands below its mark, and kept up to date from
//! then on, so a block that only sweeps upward never touches them.
//! Clearing resets each mark and zeroes each flagged run's bit range, a
//! word at a time.
//!
//! # Undo only what must be restored
//!
//! Each slot has an undo flag from its declaration
//! ([`crate::array::ArrayKind::Untested`]'s `restore_free`). A
//! restore-free slot is logged as runs like any other (the commit delta
//! and a worker's reply list its writes) but saves no old value, and
//! [`WriteLog::undo_rev`] skips its runs: re-execution rewrites what a
//! discarded block left there. `old` holds the undo slots' entries only.

use crate::value::Value;

/// When untested-array checkpoints are taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Snapshot every untested array at every stage start.
    Eager,
    /// Save old values at first write only.
    OnDemand,
}

/// `len` elements from `first` of untested array `slot`, first-written
/// in ascending order one after another.
#[derive(Clone, Copy, Debug)]
struct WriteRun {
    slot: u32,
    first: u32,
    len: u32,
}

impl WriteRun {
    fn elems(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }
}

/// Set (`on`) or clear bits `elems` of a bitset, whole words in the
/// middle and the partial words at both ends by mask.
fn fill_bits(words: &mut [u64], elems: std::ops::Range<usize>, on: bool) {
    if elems.is_empty() {
        return;
    }
    let (lo, hi) = (elems.start / 64, (elems.end - 1) / 64);
    let head = !0u64 << (elems.start % 64);
    let tail = !0u64 >> (63 - (elems.end - 1) % 64);
    let apply = |w: &mut u64, mask: u64| *w = if on { *w | mask } else { *w & !mask };
    if lo == hi {
        apply(&mut words[lo], head & tail);
    } else {
        apply(&mut words[lo], head);
        words[lo + 1..hi].fill(if on { !0 } else { 0 });
        apply(&mut words[hi], tail);
    }
}

/// One untested array's part of a [`WriteLog`].
#[derive(Debug)]
struct SlotLog {
    /// Elements in the array.
    size: u32,
    /// One past the highest element of the slot's closed runs this
    /// stage (module docs).
    high: u32,
    /// First-write flags, 64 elements a word: empty until first needed,
    /// then kept (zeroed) across stages.
    flags: Vec<u64>,
    /// `flags` hold this stage's closed runs (and the first
    /// [`OpenRun::flagged`] elements of the open run, if in this slot).
    flagged: bool,
    /// Are the array's writes undone when their block is discarded?
    undo: bool,
    /// `undo` under the on-demand policy: first writes save old values.
    save_old: bool,
}

/// The last run of a [`WriteLog`], still open, and the saved old
/// values: the log's hot state, held by the iteration context while a
/// block runs (module docs). Empty when `next == first`.
#[derive(Debug, Default)]
pub(crate) struct OpenRun<T> {
    slot: u32,
    first: u32,
    /// One past the run's last element: the element that extends it.
    next: u32,
    /// `next` is at or above the slot's high-water mark: writing it is
    /// a first write.
    fresh: bool,
    /// The slot's [`SlotLog::save_old`].
    save_old: bool,
    /// Leading elements of the run whose flags are set, when its slot
    /// is flagged.
    flagged: u32,
    /// On-demand policy: the pre-write value of every first-written
    /// element of an undo slot, in write order. Empty under the eager
    /// policy.
    old: Vec<T>,
}

impl<T> OpenRun<T> {
    /// Does a write of `elem` in `slot` extend a fresh run — a first
    /// write that [`OpenRun::push`] records?
    #[inline(always)]
    pub(crate) fn extends(&self, slot: usize, elem: usize) -> bool {
        self.fresh && self.slot as usize == slot && self.next as usize == elem
    }

    /// Extend the run by its next element, saving its old value if the
    /// slot saves old values.
    #[inline(always)]
    pub(crate) fn push(&mut self, old: impl FnOnce() -> T) {
        if self.save_old {
            self.old.push(old());
        }
        self.next += 1;
    }

    fn run(&self) -> Option<WriteRun> {
        (self.next > self.first).then_some(WriteRun {
            slot: self.slot,
            first: self.first,
            len: self.next - self.first,
        })
    }

    /// Is the run non-empty and in `slot`?
    fn in_slot(&self, slot: usize) -> bool {
        self.slot as usize == slot && self.next > self.first
    }
}

/// A [`WriteLog`]'s per-slot state and closed runs: everything but the
/// open run.
#[derive(Debug)]
struct Closed {
    /// One per untested array slot.
    slots: Vec<SlotLog>,
    /// Closed runs, in write order (module docs).
    runs: Vec<WriteRun>,
}

impl Closed {
    /// Record a write of `elem` in `slot` that does not extend a fresh
    /// run; `open` is the log's open run, wherever it lives.
    #[inline(always)]
    fn record<T>(
        &mut self,
        open: &mut OpenRun<T>,
        slot: usize,
        elem: usize,
        old: impl FnOnce() -> T,
    ) {
        let log = &self.slots[slot];
        let size = log.size as usize;
        assert!(
            elem < size,
            "index out of bounds: the len is {size} but the index is {elem}"
        );
        let in_run = open.in_slot(slot);
        let high = if in_run {
            log.high.max(open.next)
        } else {
            log.high
        };
        if elem < high as usize {
            // Below the high-water mark: the flags decide.
            if !log.flagged {
                self.flag(open, slot);
            } else if in_run && open.flagged < open.next - open.first {
                let from = (open.first + open.flagged) as usize;
                fill_bits(&mut self.slots[slot].flags, from..open.next as usize, true);
                open.flagged = open.next - open.first;
            }
            if self.slots[slot].flags[elem / 64] >> (elem % 64) & 1 != 0 {
                return;
            }
        }
        if in_run && elem == open.next as usize {
            open.push(old);
        } else {
            let save_old = self.slots[slot].save_old;
            if save_old {
                open.old.push(old());
            }
            self.close(open);
            let elem = elem as u32;
            (open.slot, open.first, open.next) = (slot as u32, elem, elem + 1);
            (open.save_old, open.flagged) = (save_old, 0);
        }
        open.fresh = open.next >= self.slots[slot].high;
    }

    /// Close the open run: flag what it has not flagged, raise its
    /// slot's mark, append it to the closed runs.
    fn close<T>(&mut self, open: &OpenRun<T>) {
        let Some(run) = open.run() else { return };
        let log = &mut self.slots[run.slot as usize];
        if log.flagged {
            let from = (run.first + open.flagged) as usize;
            fill_bits(&mut log.flags, from..open.next as usize, true);
        }
        log.high = log.high.max(open.next);
        self.runs.push(run);
    }

    /// Build `slot`'s flags from its runs, the open one included: the
    /// first write below its mark this stage.
    #[cold]
    #[inline(never)]
    fn flag<T>(&mut self, open: &mut OpenRun<T>, slot: usize) {
        let log = &mut self.slots[slot];
        if log.flags.is_empty() {
            log.flags = vec![0; (log.size as usize).div_ceil(64)];
        }
        log.flagged = true;
        let open_run = open.run().filter(|_| open.in_slot(slot));
        for run in self.runs.iter().chain(&open_run) {
            if run.slot as usize == slot {
                fill_bits(&mut log.flags, run.elems(), true);
            }
        }
        if let Some(run) = open_run {
            open.flagged = run.len;
        }
    }
}

/// One processor's write tracking for all untested arrays during one
/// stage.
#[derive(Debug)]
pub struct WriteLog<T> {
    closed: Closed,
    /// The open run, taken by an iteration context while it lives
    /// (module docs).
    pub(crate) open: OpenRun<T>,
    policy: CheckpointPolicy,
}

impl<T: Value> WriteLog<T> {
    /// A log for untested arrays of the given sizes, `undo[slot]`
    /// saying whether that slot's writes are undone (module docs).
    pub fn new(sizes: &[usize], undo: &[bool], policy: CheckpointPolicy) -> Self {
        assert!(sizes.iter().all(|&s| s <= u32::MAX as usize));
        assert_eq!(sizes.len(), undo.len());
        let slot = |(&size, &undo)| SlotLog {
            size: size as u32,
            high: 0,
            flags: Vec::new(),
            flagged: false,
            undo,
            save_old: undo && policy == CheckpointPolicy::OnDemand,
        };
        WriteLog {
            closed: Closed {
                slots: sizes.iter().zip(undo).map(slot).collect(),
                runs: Vec::new(),
            },
            open: OpenRun::default(),
            policy,
        }
    }

    /// Record a write of `elem` in untested array `slot`; `old` supplies
    /// the pre-write value and is only called on the first write of the
    /// element this stage, and only for an undo slot under the
    /// on-demand policy. One write at a time on the log's own open run:
    /// what a supervisor applying a worker's reply calls.
    pub fn record(&mut self, slot: usize, elem: usize, old: impl FnOnce() -> T) {
        if self.open.extends(slot, elem) {
            self.open.push(old);
        } else {
            self.closed.record(&mut self.open, slot, elem, old);
        }
    }

    /// [`WriteLog::record`] on the open run an iteration context holds,
    /// for a write [`OpenRun::extends`] refused. Out of line: inlined
    /// into every untested write of a body, as the bytecode VM's, it
    /// made speculative runs of the `serve_mix` NLFILT decks 4–6 %
    /// slower (`docs/results/PR-46.md`).
    #[inline(never)]
    pub(crate) fn record_at(&mut self, open: &mut OpenRun<T>, slot: usize, elem: usize, old: T) {
        self.closed.record(open, slot, elem, || old);
    }

    /// The log as read, with `open` as its open run.
    pub(crate) fn view<'a>(&'a self, open: &'a OpenRun<T>) -> LogView<'a, T> {
        LogView {
            closed: &self.closed,
            open,
        }
    }

    /// Elements this processor wrote in untested array `slot`, in
    /// first-write order.
    pub fn written(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        self.view(&self.open).written(slot)
    }

    /// Whether untested array `slot`'s writes are undone.
    pub fn needs_undo(&self, slot: usize) -> bool {
        self.closed.slots[slot].undo
    }

    /// Undo entries in reverse write order: replaying them restores the
    /// pre-stage state of everything this processor wrote in an undo
    /// slot.
    pub fn undo_rev(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.view(&self.open).undo_rev()
    }

    /// Total writes recorded (distinct elements across all slots).
    pub fn num_written(&self) -> usize {
        self.view(&self.open).num_written()
    }

    /// Number of saved undo entries.
    pub fn num_undo(&self) -> usize {
        self.open.old.len()
    }

    /// Runs the log holds — what its memory scales with.
    #[cfg(test)]
    pub(crate) fn num_runs(&self) -> usize {
        self.view(&self.open).runs().count()
    }

    /// Slots whose first-write flags are allocated.
    #[cfg(test)]
    pub(crate) fn num_flag_sets(&self) -> usize {
        self.closed
            .slots
            .iter()
            .filter(|s| !s.flags.is_empty())
            .count()
    }

    /// The active checkpoint policy.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// Reset for the next stage, O(written).
    pub fn clear(&mut self) {
        let Closed { slots, runs } = &mut self.closed;
        for run in runs.iter().chain(&self.open.run()) {
            let log = &mut slots[run.slot as usize];
            if log.flagged {
                fill_bits(&mut log.flags, run.elems(), false);
            }
        }
        for log in slots {
            (log.high, log.flagged) = (0, false);
        }
        runs.clear();
        let mut old = std::mem::take(&mut self.open.old);
        old.clear();
        self.open = OpenRun {
            old,
            ..OpenRun::default()
        };
    }
}

/// A [`WriteLog`] as read: its closed runs, then the open run wherever
/// it lives (an iteration context's [`crate::ctx::IterCtx::write_log`]
/// reads it between iterations).
#[derive(Clone, Copy)]
pub struct LogView<'a, T> {
    closed: &'a Closed,
    open: &'a OpenRun<T>,
}

impl<'a, T: Value> LogView<'a, T> {
    fn runs(self) -> impl DoubleEndedIterator<Item = WriteRun> + 'a {
        self.closed.runs.iter().copied().chain(self.open.run())
    }

    /// [`WriteLog::written`].
    pub fn written(self, slot: usize) -> impl Iterator<Item = usize> + 'a {
        self.runs()
            .filter(move |run| run.slot as usize == slot)
            .flat_map(|run| run.elems())
    }

    /// [`WriteLog::undo_rev`].
    pub fn undo_rev(self) -> impl Iterator<Item = (usize, usize, T)> + 'a {
        let slots = &self.closed.slots;
        self.runs()
            .rev()
            .filter(move |run| slots[run.slot as usize].undo)
            .flat_map(|run| run.elems().rev().map(move |elem| (run.slot as usize, elem)))
            .zip(self.open.old.iter().rev())
            .map(|((slot, elem), &old)| (slot, elem, old))
    }

    /// [`WriteLog::num_written`].
    pub fn num_written(self) -> usize {
        self.runs().map(|run| run.len as usize).sum()
    }
}

/// Whole-array snapshots for the eager policy.
#[derive(Clone, Debug, Default)]
pub struct EagerSnapshot<T> {
    arrays: Vec<Vec<T>>,
}

impl<T: Value> EagerSnapshot<T> {
    /// Snapshot the given untested arrays, one per slot (called at
    /// stage start under the eager policy). A slot that needs no undo
    /// passes an empty array.
    pub fn take(arrays: Vec<Vec<T>>) -> Self {
        EagerSnapshot { arrays }
    }

    /// Pre-stage value of `elem` in untested array `slot`.
    pub fn value(&self, slot: usize, elem: usize) -> T {
        self.arrays[slot][elem]
    }

    /// Total elements snapshotted (for cost accounting).
    pub fn num_elems(&self) -> usize {
        self.arrays.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, ArrayId, ArrayKind};
    use crate::ctx::{IterCtx, RoutedArrays};
    use proptest::prelude::*;

    #[test]
    fn on_demand_saves_old_value_once() {
        let mut log = WriteLog::<f64>::new(&[4, 2], &[true, true], CheckpointPolicy::OnDemand);
        let mut calls = 0;
        log.record(0, 2, || {
            calls += 1;
            10.0
        });
        log.record(0, 2, || {
            calls += 1;
            99.0 // must not be called: not first write
        });
        assert_eq!(calls, 1);
        assert_eq!(log.num_undo(), 1);
        let entries: Vec<_> = log.undo_rev().collect();
        assert_eq!(entries, vec![(0, 2, 10.0)]);
    }

    #[test]
    fn eager_policy_records_writes_but_no_undo() {
        let mut log = WriteLog::<f64>::new(&[4], &[true], CheckpointPolicy::Eager);
        log.record(0, 1, || unreachable!("eager never reads old values"));
        assert_eq!(log.num_undo(), 0);
        assert_eq!(log.num_written(), 1);
        let w: Vec<_> = log.written(0).collect();
        assert_eq!(w, vec![1]);
    }

    #[test]
    fn undo_replays_in_reverse_order() {
        let mut log = WriteLog::<i64>::new(&[4], &[true], CheckpointPolicy::OnDemand);
        log.record(0, 0, || 100);
        log.record(0, 1, || 200);
        let order: Vec<_> = log.undo_rev().map(|(_, e, _)| e).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn clear_resets_for_next_stage() {
        let mut log = WriteLog::<f64>::new(&[2], &[true], CheckpointPolicy::OnDemand);
        log.record(0, 0, || 1.0);
        log.clear();
        assert_eq!(log.num_written(), 0);
        assert_eq!(log.num_undo(), 0);
        // First-write detection restarts.
        let mut called = false;
        log.record(0, 0, || {
            called = true;
            2.0
        });
        assert!(called);
    }

    /// The per-element log this one replaced: a flag and a touched list
    /// per slot, `(slot, elem, old)` triples in write order — for the
    /// slots that need undo — and every first write in order.
    struct FlatLog {
        flags: Vec<Vec<bool>>,
        touched: Vec<Vec<usize>>,
        undo: Vec<(usize, usize, i64)>,
        order: Vec<(usize, usize)>,
        on_demand: bool,
        undo_slots: [bool; 2],
    }

    impl FlatLog {
        fn record(&mut self, slot: usize, elem: usize, old: i64) -> bool {
            let first = !std::mem::replace(&mut self.flags[slot][elem], true);
            if first {
                self.touched[slot].push(elem);
                self.order.push((slot, elem));
                if self.on_demand && self.undo_slots[slot] {
                    self.undo.push((slot, elem, old));
                }
            }
            first
        }

        /// The runs the first writes make: each extends the last when it
        /// is that run's next element in the same slot.
        fn runs(&self) -> Vec<(u32, u32, u32)> {
            let mut runs: Vec<(u32, u32, u32)> = Vec::new();
            for &(slot, elem) in &self.order {
                let (slot, elem) = (slot as u32, elem as u32);
                match runs.last_mut() {
                    Some(r) if r.0 == slot && r.1 + r.2 == elem => r.2 += 1,
                    _ => runs.push((slot, elem, 1)),
                }
            }
            runs
        }
    }

    impl<T: Value> WriteLog<T> {
        /// `(slot, first, len)` of every run, the open one last.
        fn run_list(&self) -> Vec<(u32, u32, u32)> {
            let runs = self.view(&self.open).runs();
            runs.map(|r| (r.slot, r.first, r.len)).collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_log_by_runs_is_the_log_by_elements(
            on_demand in any::<bool>(),
            undo_slots in (any::<bool>(), any::<bool>()),
            // Two stages of writes over two slots: sweeps up (runs),
            // sweeps down and repeats (no runs), slot changes mid-sweep,
            // writes below a sweep's high-water mark; a sweep may start
            // in a new context, as each block's does.
            stages in prop::collection::vec(
                prop::collection::vec(
                    (0usize..2, 0usize..12, 0usize..6, any::<bool>(), any::<bool>()),
                    0..10,
                ),
                2..3,
            ),
        ) {
            let sizes = [16usize, 12];
            let undo_slots = [undo_slots.0, undo_slots.1];
            let policy = if on_demand { CheckpointPolicy::OnDemand } else { CheckpointPolicy::Eager };
            // The same writes one at a time through `record`, and as a
            // block's writes through an iteration context.
            let mut log = WriteLog::<i64>::new(&sizes, &undo_slots, policy);
            let mut ctx_log = WriteLog::<i64>::new(&sizes, &undo_slots, policy);
            let decls = sizes.iter().zip(undo_slots).map(|(&size, undo)| {
                let mut decl = ArrayDecl::untested("U", vec![0i64; size]);
                decl.kind = ArrayKind::Untested { restore_free: !undo };
                decl
            });
            let routed = RoutedArrays::new(decls.collect());
            let mut stamp = 0i64;
            for sweeps in stages {
                let mut flat = FlatLog {
                    flags: sizes.iter().map(|&s| vec![false; s]).collect(),
                    touched: vec![Vec::new(); 2],
                    undo: Vec::new(),
                    order: Vec::new(),
                    on_demand,
                    undo_slots,
                };
                let (meta, shared) = (&routed.meta, &routed.shared);
                let mut ctx = IterCtx::speculative(0, 0, meta, shared, &mut [], &mut ctx_log, None);
                for (slot, from, len, up, new_ctx) in sweeps {
                    if new_ctx {
                        drop(ctx);
                        ctx = IterCtx::speculative(0, 0, meta, shared, &mut [], &mut ctx_log, None);
                    }
                    for k in 0..len {
                        let elem = if up { from + k } else { from + len - 1 - k } % sizes[slot];
                        // SAFETY: one thread, one context.
                        let before = unsafe { routed.shared[slot].get(elem) };
                        stamp += 1;
                        ctx.write(ArrayId(slot as u32), elem, stamp);
                        let mut called = false;
                        log.record(slot, elem, || {
                            called = true;
                            before
                        });
                        let first = flat.record(slot, elem, before);
                        // `old` runs on first writes of an undo slot
                        // exactly, and never under the eager policy.
                        prop_assert_eq!(called, first && on_demand && undo_slots[slot]);
                    }
                }
                drop(ctx);
                let mut want = flat.undo.clone();
                want.reverse();
                for log in [&log, &ctx_log] {
                    for slot in 0..2 {
                        prop_assert_eq!(log.written(slot).collect::<Vec<_>>(), flat.touched[slot].clone());
                    }
                    prop_assert_eq!(log.undo_rev().collect::<Vec<_>>(), want.clone());
                    prop_assert_eq!(log.run_list(), flat.runs());
                    prop_assert_eq!(log.num_written(), flat.order.len());
                    prop_assert_eq!(log.num_undo(), flat.undo.len());
                }
                // After the clear every element is first-write again:
                // the next stage is checked against a fresh flat log.
                for log in [&mut log, &mut ctx_log] {
                    log.clear();
                    prop_assert_eq!((log.num_written(), log.num_undo(), log.num_runs()), (0, 0, 0));
                }
            }
        }
    }

    #[test]
    fn a_sweep_is_one_run_and_a_scatter_is_one_run_per_write() {
        let mut log = WriteLog::<f64>::new(&[64, 64], &[true, true], CheckpointPolicy::OnDemand);
        for e in 8..40 {
            log.record(0, e, || e as f64);
            log.record(0, e, || unreachable!("second write of the iteration"));
        }
        assert_eq!(
            (log.num_runs(), log.num_written(), log.num_undo()),
            (1, 32, 32)
        );
        // Two arrays written alternately never extend each other's run.
        log.clear();
        for e in 0..4 {
            log.record(0, e, || 0.0);
            log.record(1, e, || 1.0);
        }
        assert_eq!((log.num_runs(), log.num_written()), (8, 8));
        assert_eq!(log.written(1).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let undo: Vec<_> = log.undo_rev().take(3).collect();
        assert_eq!(undo, vec![(1, 3, 1.0), (0, 3, 0.0), (1, 2, 1.0)]);
    }

    #[test]
    fn a_restore_free_slot_is_logged_but_never_undone() {
        // Slot 0 needs undo, slot 1 is restore-free; a sweep writes both
        // turn about, as `U[i] = …; W[i] = …` does.
        let mut log = WriteLog::<f64>::new(&[8, 8], &[true, false], CheckpointPolicy::OnDemand);
        for e in 2..6 {
            log.record(0, e, || 10.0 + e as f64);
            log.record(1, e, || {
                unreachable!("a restore-free slot saves no old value")
            });
            log.record(0, e, || unreachable!("second write of the iteration"));
        }
        assert_eq!(
            log.undo_rev().collect::<Vec<_>>(),
            vec![(0, 5, 15.0), (0, 4, 14.0), (0, 3, 13.0), (0, 2, 12.0)]
        );
        assert_eq!(log.written(0).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(log.written(1).collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        assert_eq!(
            (log.num_written(), log.num_undo(), log.num_runs()),
            (8, 4, 8)
        );
        assert!(log.needs_undo(0) && !log.needs_undo(1));
        // The eager policy saves nothing either way; the log is the same.
        let mut eager = WriteLog::<f64>::new(&[8, 8], &[true, false], CheckpointPolicy::Eager);
        eager.record(1, 3, || unreachable!("eager never reads old values"));
        assert_eq!((eager.num_written(), eager.num_undo()), (1, 0));
        assert_eq!(eager.undo_rev().count(), 0);
    }

    #[test]
    fn filling_a_run_sets_or_clears_exactly_its_bits() {
        // Every range over three words: inside one word, across one
        // boundary, across two, starting and ending on word edges.
        const BITS: usize = 192;
        for on in [false, true] {
            for start in 0..BITS {
                for end in start..=BITS {
                    let mut words = [if on { 0 } else { !0u64 }; BITS / 64];
                    fill_bits(&mut words, start..end, on);
                    for e in 0..BITS {
                        let set = words[e / 64] >> (e % 64) & 1 == 1;
                        assert_eq!(
                            set != on,
                            !(start..end).contains(&e),
                            "{start}..{end} bit {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_monotone_sweep_allocates_no_flags() {
        // NLFILT's shape: each block sweeps its stripes upward, across
        // two arrays turn about, over several stages.
        let mut log = WriteLog::<f64>::new(
            &[1 << 20, 1 << 20],
            &[true, false],
            CheckpointPolicy::OnDemand,
        );
        for stage in 0..3 {
            for e in (stage * 1000..stage * 1000 + 4096).step_by(2) {
                log.record(0, e, || 1.0);
                log.record(0, e + 1, || 1.0);
                log.record(1, e / 2, || unreachable!("restore-free"));
            }
            assert_eq!((log.num_written(), log.num_undo()), (4096 + 2048, 4096));
            assert_eq!(log.num_flag_sets(), 0, "stage {stage}");
            log.clear();
        }
        // A write below the mark flags that slot only, and repeats there
        // are told apart from first writes.
        log.record(0, 10, || 1.0);
        log.record(0, 5, || 2.0);
        log.record(0, 10, || unreachable!("a repeat"));
        log.record(0, 6, || 3.0);
        log.record(1, 1, || unreachable!("restore-free"));
        assert_eq!(log.num_flag_sets(), 1);
        assert_eq!(log.written(0).collect::<Vec<_>>(), [10, 5, 6]);
    }

    #[test]
    fn eager_snapshot_preserves_values() {
        let snap = EagerSnapshot::take(vec![vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(snap.value(0, 1), 2.0);
        assert_eq!(snap.value(1, 0), 3.0);
        assert_eq!(snap.num_elems(), 3);
    }
}
