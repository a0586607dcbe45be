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

use crate::flags::TouchedFlags;
use crate::value::Value;

/// When untested-array checkpoints are taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Snapshot every untested array at every stage start.
    Eager,
    /// Save old values at first write only.
    OnDemand,
}

/// One processor's write tracking for all untested arrays during one
/// stage.
#[derive(Debug)]
pub struct WriteLog<T> {
    /// Written-element sets, one per untested array slot.
    written: Vec<TouchedFlags>,
    /// On-demand undo entries `(untested slot, element, old value)` in
    /// write order.
    undo: Vec<(u32, u32, T)>,
    policy: CheckpointPolicy,
}

impl<T: Value> WriteLog<T> {
    /// A log for untested arrays of the given sizes.
    pub fn new(sizes: &[usize], policy: CheckpointPolicy) -> Self {
        WriteLog {
            written: sizes.iter().map(|&s| TouchedFlags::new(s)).collect(),
            undo: Vec::new(),
            policy,
        }
    }

    /// Record a write of `elem` in untested array `slot`; `old` supplies
    /// the pre-write value and is only called on the first write of the
    /// element this stage (and only under the on-demand policy).
    #[inline]
    pub fn record(&mut self, slot: usize, elem: usize, old: impl FnOnce() -> T) {
        if self.written[slot].set(elem) && self.policy == CheckpointPolicy::OnDemand {
            self.undo.push((slot as u32, elem as u32, old()));
        }
    }

    /// Elements this processor wrote in untested array `slot`.
    pub fn written(&self, slot: usize) -> impl Iterator<Item = usize> + '_ {
        self.written[slot].touched()
    }

    /// Undo entries in reverse write order: replaying them restores the
    /// pre-stage state of everything this processor wrote.
    pub fn undo_rev(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        self.undo
            .iter()
            .rev()
            .map(|&(s, e, v)| (s as usize, e as usize, v))
    }

    /// Total writes recorded (distinct elements across all slots).
    pub fn num_written(&self) -> usize {
        self.written.iter().map(TouchedFlags::count).sum()
    }

    /// Number of saved undo entries.
    pub fn num_undo(&self) -> usize {
        self.undo.len()
    }

    /// The active checkpoint policy.
    pub fn policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// Reset for the next stage, O(written).
    pub fn clear(&mut self) {
        for w in &mut self.written {
            w.clear();
        }
        self.undo.clear();
    }
}

/// Whole-array snapshots for the eager policy.
#[derive(Clone, Debug, Default)]
pub struct EagerSnapshot<T> {
    arrays: Vec<Vec<T>>,
}

impl<T: Value> EagerSnapshot<T> {
    /// Snapshot the given untested arrays (called at stage start under
    /// the eager policy).
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

    #[test]
    fn on_demand_saves_old_value_once() {
        let mut log = WriteLog::<f64>::new(&[4, 2], CheckpointPolicy::OnDemand);
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
        let mut log = WriteLog::<f64>::new(&[4], CheckpointPolicy::Eager);
        log.record(0, 1, || unreachable!("eager never reads old values"));
        assert_eq!(log.num_undo(), 0);
        assert_eq!(log.num_written(), 1);
        let w: Vec<_> = log.written(0).collect();
        assert_eq!(w, vec![1]);
    }

    #[test]
    fn undo_replays_in_reverse_order() {
        let mut log = WriteLog::<i64>::new(&[4], CheckpointPolicy::OnDemand);
        log.record(0, 0, || 100);
        log.record(0, 1, || 200);
        let order: Vec<_> = log.undo_rev().map(|(_, e, _)| e).collect();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn clear_resets_for_next_stage() {
        let mut log = WriteLog::<f64>::new(&[2], CheckpointPolicy::OnDemand);
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

    #[test]
    fn eager_snapshot_preserves_values() {
        let snap = EagerSnapshot::take(vec![vec![1.0, 2.0], vec![3.0]]);
        assert_eq!(snap.value(0, 1), 2.0);
        assert_eq!(snap.value(1, 0), 3.0);
        assert_eq!(snap.num_elems(), 3);
    }
}
