//! Per-iteration mark lists — the paper's "N-level mark list".
//!
//! For data-dependence-graph extraction (paper Section 3) processor-wise
//! marks are too coarse: the shadow must remember *which iteration*
//! produced or consumed each element so that individual DDG edges
//! `(write@i → read@j)` can be logged. [`IterMarks`] records, per
//! element, the ordered sequence of writes and *exposed* reads at
//! iteration granularity. A read is exposed (visible outside its own
//! iteration) when no earlier reference of the same iteration wrote the
//! element; privatization makes every other read iteration-local.

use crate::hasher::FxBuildHasher;
use std::collections::HashMap;

/// What an element-level event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// The iteration wrote the element (any write, first one recorded).
    Write,
    /// The iteration read the element before writing it (flow-dependence
    /// sink candidate).
    ExposedRead,
}

/// Ordered per-element event log: `(iteration, kind)` in program order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElemEvents {
    events: Vec<(u32, EventKind)>,
    last_write_iter: Option<u32>,
}

impl ElemEvents {
    /// Events in program order, deduplicated per `(iteration, kind)`.
    pub fn events(&self) -> &[(u32, EventKind)] {
        &self.events
    }

    fn push_once(&mut self, iter: u32, kind: EventKind) {
        if self.events.last() != Some(&(iter, kind))
            && !self.events.iter().any(|&(i, k)| i == iter && k == kind)
        {
            self.events.push((iter, kind));
        }
    }
}

/// Per-processor, per-array iteration-level shadow for DDG extraction.
#[derive(Clone, Debug, Default)]
pub struct IterMarks {
    map: HashMap<usize, ElemEvents, FxBuildHasher>,
}

impl IterMarks {
    /// Empty mark list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a read of `elem` at `iter`; logged as exposed unless the
    /// same iteration already wrote the element.
    pub fn on_read(&mut self, elem: usize, iter: u32) {
        let st = self.map.entry(elem).or_default();
        if st.last_write_iter != Some(iter) {
            st.push_once(iter, EventKind::ExposedRead);
        }
    }

    /// Record a write of `elem` at `iter`.
    pub fn on_write(&mut self, elem: usize, iter: u32) {
        let st = self.map.entry(elem).or_default();
        st.push_once(iter, EventKind::Write);
        st.last_write_iter = Some(iter);
    }

    /// All touched elements with their event logs (arbitrary order).
    pub fn elems(&self) -> impl Iterator<Item = (usize, &ElemEvents)> + '_ {
        self.map.iter().map(|(&e, ev)| (e, ev))
    }

    /// Event log of one element, if touched.
    pub fn get(&self, elem: usize) -> Option<&ElemEvents> {
        self.map.get(&elem)
    }

    /// Number of distinct elements touched.
    pub fn num_touched(&self) -> usize {
        self.map.len()
    }

    /// Re-initialize for the next window.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use EventKind::*;

    #[test]
    fn read_after_same_iteration_write_is_not_exposed() {
        let mut m = IterMarks::new();
        m.on_write(4, 7);
        m.on_read(4, 7);
        assert_eq!(m.get(4).unwrap().events(), &[(7, Write)]);
    }

    #[test]
    fn read_after_earlier_iteration_write_is_exposed() {
        let mut m = IterMarks::new();
        m.on_write(4, 2);
        m.on_read(4, 5);
        assert_eq!(m.get(4).unwrap().events(), &[(2, Write), (5, ExposedRead)]);
    }

    #[test]
    fn events_deduplicate_per_iteration_and_kind() {
        let mut m = IterMarks::new();
        m.on_read(1, 3);
        m.on_read(1, 3);
        m.on_write(1, 3);
        m.on_write(1, 3);
        m.on_read(1, 3); // now covered by the iteration's own write
        assert_eq!(m.get(1).unwrap().events(), &[(3, ExposedRead), (3, Write)]);
    }

    #[test]
    fn interleaved_iterations_keep_program_order() {
        // Block executes iterations 1 then 2; element ping-pongs.
        let mut m = IterMarks::new();
        m.on_read(9, 1);
        m.on_write(9, 1);
        m.on_read(9, 2); // exposed: last write was iteration 1
        m.on_write(9, 2);
        assert_eq!(
            m.get(9).unwrap().events(),
            &[(1, ExposedRead), (1, Write), (2, ExposedRead), (2, Write)]
        );
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = IterMarks::new();
        m.on_write(0, 0);
        m.clear();
        assert_eq!(m.num_touched(), 0);
        m.on_read(0, 0);
        assert_eq!(m.get(0).unwrap().events(), &[(0, ExposedRead)]);
    }
}
