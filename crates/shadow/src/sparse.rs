//! Sparse shadow: a hash map from element index to mark byte.
//!
//! SPICE's loops reference a handful of elements of an enormous
//! equivalenced work array (`VALUE`); a dense shadow would waste memory
//! and make re-initialization expensive. The sparse shadow stores only
//! touched elements — the paper's "sparse version of the R-LRPD test".

use crate::hasher::FxBuildHasher;
use crate::marks::Mark;
use crate::shadow::Marking;
use std::collections::HashMap;

/// A sparse, per-processor shadow of one array under test.
#[derive(Clone, Debug, Default)]
pub struct SparseShadow {
    marks: HashMap<usize, Mark, FxBuildHasher>,
}

impl SparseShadow {
    /// An empty sparse shadow (no size bound: any `usize` index may be
    /// marked).
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct elements referenced (arbitrary order).
    pub fn touched(&self) -> impl Iterator<Item = (usize, Mark)> + '_ {
        self.marks.iter().map(|(&e, &m)| (e, m))
    }

    /// Number of distinct elements referenced.
    pub fn num_touched(&self) -> usize {
        self.marks.len()
    }

    /// Re-initialize; keeps the allocation for reuse across stages.
    pub fn clear(&mut self) {
        self.marks.clear();
    }

    /// Estimated shadow memory held, in bytes: the hash table's
    /// capacity at ~16 bytes per slot (key + mark + control/padding),
    /// what the engine holds against its cap. An estimate — `HashMap`
    /// does not expose its exact layout.
    pub fn shadow_bytes(&self) -> usize {
        self.marks.capacity() * 16
    }
}

impl Marking for SparseShadow {
    #[inline]
    fn on_read(&mut self, elem: usize) {
        self.marks.entry(elem).or_default().on_read();
    }

    #[inline]
    fn on_write(&mut self, elem: usize) {
        self.marks.entry(elem).or_default().on_write();
    }

    #[inline]
    fn on_reduce(&mut self, elem: usize) {
        self.marks.entry(elem).or_default().on_reduce();
    }

    #[inline]
    fn materialize(&mut self, elem: usize) {
        self.marks
            .get_mut(&elem)
            .expect("materialize of untouched element")
            .materialize_reduction();
    }

    #[inline]
    fn mark(&self, elem: usize) -> Mark {
        self.marks.get(&elem).copied().unwrap_or(Mark::CLEAR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_follow_transition_rules() {
        let mut s = SparseShadow::new();
        s.on_read(1_000_000); // exposed, far beyond any dense bound
        s.on_write(2);
        s.on_read(2);
        assert!(s.mark(1_000_000).is_exposed_read());
        assert!(!s.mark(2).is_exposed_read());
        assert!(s.mark(2).is_written());
        assert!(!s.mark(0).is_touched());
    }

    #[test]
    fn touched_counts_distinct_elements() {
        let mut s = SparseShadow::new();
        s.on_write(5);
        s.on_read(5);
        s.on_read(9);
        assert_eq!(s.num_touched(), 2);
        let mut elems: Vec<usize> = s.touched().map(|(e, _)| e).collect();
        elems.sort_unstable();
        assert_eq!(elems, vec![5, 9]);
    }

    #[test]
    fn clear_resets_semantics() {
        let mut s = SparseShadow::new();
        s.on_write(7);
        s.clear();
        assert_eq!(s.num_touched(), 0);
        s.on_read(7);
        assert!(s.mark(7).is_exposed_read());
    }

    #[test]
    fn reduction_marks_round_trip() {
        let mut s = SparseShadow::new();
        s.on_reduce(3);
        assert!(s.mark(3).is_reduction_only());
        s.materialize(3);
        assert!(s.mark(3).is_written());
        assert!(s.mark(3).is_exposed_read());
    }
}
