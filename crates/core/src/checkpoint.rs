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
//! A [`WriteLog`] answers "is this the block's first write of the
//! element?" with one flag bit per element, and remembers *which* elements
//! were written as **runs**: `(slot, first, len)` stands for the `len`
//! elements `first..first + len` of untested array `slot`, first-written
//! in that order. A write extends the last run when it lands on that
//! run's `first + len` in the same slot, and opens a run otherwise — the
//! last run only, because first-write order is the order everything
//! downstream is defined in (the undo replay is its exact reverse; a
//! worker reply lists a block's untested writes in it, so wire bytes
//! depend on it), and a run that absorbed a later write out of order
//! would lose it. Under the on-demand policy the saved old values sit in
//! one `Vec<T>` in the same order, so entry *k* of `old` belongs to the
//! *k*-th element of the runs laid end to end.
//!
//! A block that sweeps an array — the common case: `B[i] = …` over the
//! block's consecutive iterations — is one run however long the sweep:
//! 1 flag bit + 8 bytes of old value per write where the per-element
//! log held a flag byte + 4 (touched list) + 16 (`(slot, elem, old)`
//! triple). A fully scattered block is one run per write, 12 + 8 bytes
//! and a bit: never more than before. Clearing zeroes each run's bit
//! range, a word at a time.
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

/// Clear bits `elems` of a bitset, whole words in the middle and the
/// partial words at both ends by mask.
fn clear_bits(words: &mut [u64], elems: std::ops::Range<usize>) {
    if elems.is_empty() {
        return;
    }
    let (lo, hi) = (elems.start / 64, (elems.end - 1) / 64);
    let head = !0u64 << (elems.start % 64);
    let tail = !0u64 >> (63 - (elems.end - 1) % 64);
    if lo == hi {
        words[lo] &= !(head & tail);
    } else {
        words[lo] &= !head;
        words[lo + 1..hi].fill(0);
        words[hi] &= !tail;
    }
}

/// One untested array's part of a [`WriteLog`].
#[derive(Debug)]
struct SlotLog {
    /// First-write flags, 64 elements a word.
    written: Vec<u64>,
    /// Are the array's writes undone when their block is discarded?
    undo: bool,
    /// `undo` under the on-demand policy: first writes save old values
    /// (one flag for `record` to test on every first write).
    save_old: bool,
}

/// One processor's write tracking for all untested arrays during one
/// stage.
#[derive(Debug)]
pub struct WriteLog<T> {
    /// One per untested array slot.
    slots: Vec<SlotLog>,
    /// What was first-written, in write order (module docs).
    runs: Vec<WriteRun>,
    /// On-demand policy: the pre-write value of every first-written
    /// element of an undo slot, in write order. Empty under the eager
    /// policy.
    old: Vec<T>,
    policy: CheckpointPolicy,
}

impl<T: Value> WriteLog<T> {
    /// A log for untested arrays of the given sizes, `undo[slot]`
    /// saying whether that slot's writes are undone (module docs).
    pub fn new(sizes: &[usize], undo: &[bool], policy: CheckpointPolicy) -> Self {
        assert!(sizes.iter().all(|&s| s <= u32::MAX as usize));
        assert_eq!(sizes.len(), undo.len());
        WriteLog {
            slots: sizes
                .iter()
                .zip(undo)
                .map(|(&s, &undo)| SlotLog {
                    written: vec![0; s.div_ceil(64)],
                    undo,
                    save_old: undo && policy == CheckpointPolicy::OnDemand,
                })
                .collect(),
            runs: Vec::new(),
            old: Vec::new(),
            policy,
        }
    }

    /// Record a write of `elem` in untested array `slot`; `old` supplies
    /// the pre-write value and is only called on the first write of the
    /// element this stage, and only for an undo slot under the
    /// on-demand policy. Inline; the log's growth is out of line.
    #[inline(always)]
    pub fn record(&mut self, slot: usize, elem: usize, old: impl FnOnce() -> T) {
        let log = &mut self.slots[slot];
        let (word, bit) = (&mut log.written[elem / 64], 1u64 << (elem % 64));
        if *word & bit != 0 {
            return;
        }
        *word |= bit;
        if log.save_old {
            self.old.push(old());
        }
        let (slot, elem) = (slot as u32, elem as u32);
        match self.runs.last_mut() {
            Some(run) if run.slot == slot && run.first + run.len == elem => run.len += 1,
            _ => self.runs.push(WriteRun {
                slot,
                first: elem,
                len: 1,
            }),
        }
    }

    /// Elements this processor wrote in untested array `slot`, in
    /// first-write order.
    pub fn written(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        self.runs
            .iter()
            .filter(move |run| run.slot as usize == slot)
            .flat_map(WriteRun::elems)
    }

    /// Whether untested array `slot`'s writes are undone.
    pub fn needs_undo(&self, slot: usize) -> bool {
        self.slots[slot].undo
    }

    /// Undo entries in reverse write order: replaying them restores the
    /// pre-stage state of everything this processor wrote in an undo
    /// slot.
    pub fn undo_rev(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.runs
            .iter()
            .rev()
            .filter(|run| self.slots[run.slot as usize].undo)
            .flat_map(|run| run.elems().rev().map(move |elem| (run.slot as usize, elem)))
            .zip(self.old.iter().rev())
            .map(|((slot, elem), &old)| (slot, elem, old))
    }

    /// Total writes recorded (distinct elements across all slots).
    pub fn num_written(&self) -> usize {
        self.runs.iter().map(|run| run.len as usize).sum()
    }

    /// Number of saved undo entries.
    pub fn num_undo(&self) -> usize {
        self.old.len()
    }

    /// Runs the log holds — what its memory beyond the flags scales
    /// with.
    #[cfg(test)]
    pub(crate) fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// The active checkpoint policy.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// Reset for the next stage, O(written).
    pub fn clear(&mut self) {
        for run in &self.runs {
            clear_bits(&mut self.slots[run.slot as usize].written, run.elems());
        }
        self.runs.clear();
        self.old.clear();
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
    /// slots that need undo.
    struct FlatLog {
        flags: Vec<Vec<bool>>,
        touched: Vec<Vec<usize>>,
        undo: Vec<(usize, usize, i64)>,
        on_demand: bool,
        undo_slots: [bool; 2],
    }

    impl FlatLog {
        fn record(&mut self, slot: usize, elem: usize, old: i64) -> bool {
            let first = !std::mem::replace(&mut self.flags[slot][elem], true);
            if first {
                self.touched[slot].push(elem);
                if self.on_demand && self.undo_slots[slot] {
                    self.undo.push((slot, elem, old));
                }
            }
            first
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_log_by_runs_is_the_log_by_elements(
            on_demand in any::<bool>(),
            undo_slots in (any::<bool>(), any::<bool>()),
            // Two stages of writes over two slots: sweeps up (runs),
            // sweeps down and repeats (no runs), slot changes mid-sweep.
            stages in prop::collection::vec(
                prop::collection::vec((0usize..2, 0usize..12, 0usize..6, any::<bool>()), 0..10),
                2..3,
            ),
        ) {
            let sizes = [16usize, 12];
            let undo_slots = [undo_slots.0, undo_slots.1];
            let policy = if on_demand { CheckpointPolicy::OnDemand } else { CheckpointPolicy::Eager };
            let mut log = WriteLog::<i64>::new(&sizes, &undo_slots, policy);
            for sweeps in stages {
                let mut flat = FlatLog {
                    flags: sizes.iter().map(|&s| vec![false; s]).collect(),
                    touched: vec![Vec::new(); 2],
                    undo: Vec::new(),
                    on_demand,
                    undo_slots,
                };
                let mut stamp = 0i64;
                for (slot, from, len, up) in sweeps {
                    for k in 0..len {
                        let elem = if up { from + k } else { from + len - 1 - k } % sizes[slot];
                        stamp += 1;
                        let mut called = false;
                        log.record(slot, elem, || {
                            called = true;
                            stamp
                        });
                        let first = flat.record(slot, elem, stamp);
                        // `old` runs on first writes of an undo slot
                        // exactly, and never under the eager policy.
                        prop_assert_eq!(called, first && on_demand && undo_slots[slot]);
                    }
                }
                for slot in 0..2 {
                    prop_assert_eq!(log.written(slot).collect::<Vec<_>>(), flat.touched[slot].clone());
                }
                let undo: Vec<_> = log.undo_rev().collect();
                let mut want = flat.undo.clone();
                want.reverse();
                prop_assert_eq!(undo, want);
                prop_assert_eq!(log.num_written(), flat.touched.iter().map(Vec::len).sum::<usize>());
                prop_assert_eq!(log.num_undo(), flat.undo.len());
                prop_assert!(log.num_runs() <= log.num_written());
                // After the clear every element is first-write again:
                // the next stage is checked against a fresh flat log.
                log.clear();
                prop_assert_eq!((log.num_written(), log.num_undo(), log.num_runs()), (0, 0, 0));
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
    fn clearing_a_run_clears_exactly_its_bits() {
        // Every range over three words: inside one word, across one
        // boundary, across two, starting and ending on word edges.
        const BITS: usize = 192;
        for start in 0..BITS {
            for end in start..=BITS {
                let mut words = [!0u64; BITS / 64];
                clear_bits(&mut words, start..end);
                for e in 0..BITS {
                    let set = words[e / 64] >> (e % 64) & 1 == 1;
                    assert_eq!(set, !(start..end).contains(&e), "{start}..{end} bit {e}");
                }
            }
        }
    }

    #[test]
    fn eager_snapshot_preserves_values() {
        let snap = EagerSnapshot::take(vec![vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(snap.value(0, 1), 2.0);
        assert_eq!(snap.value(1, 0), 3.0);
        assert_eq!(snap.num_elems(), 3);
    }
}
