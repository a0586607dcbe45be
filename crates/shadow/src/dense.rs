//! Dense shadow array: one mark byte per element plus a touched list.
//!
//! The touched list is the paper's shadow-structure optimization: the
//! analysis phase and the per-restart re-initialization both become
//! proportional to the number of *distinct references* marked on the
//! processor, not to the array size.

use crate::marks::Mark;
use crate::shadow::Marking;

/// A dense, per-processor shadow of one array under test.
#[derive(Clone, Debug)]
pub struct DenseShadow {
    marks: Vec<Mark>,
    touched: Vec<u32>,
}

impl DenseShadow {
    /// Shadow for an array of `size` elements, all unmarked.
    pub fn new(size: usize) -> Self {
        assert!(
            size <= u32::MAX as usize,
            "dense shadow limited to u32 indices"
        );
        DenseShadow {
            marks: vec![Mark::CLEAR; size],
            touched: Vec::new(),
        }
    }

    #[inline]
    fn touch(&mut self, elem: usize) -> &mut Mark {
        let m = &mut self.marks[elem];
        if !m.is_touched() {
            self.touched.push(elem as u32);
        }
        m
    }

    /// Distinct elements referenced, in first-touch order.
    pub fn touched(&self) -> impl Iterator<Item = (usize, Mark)> + '_ {
        self.touched
            .iter()
            .map(|&e| (e as usize, self.marks[e as usize]))
    }

    /// Number of distinct elements referenced.
    pub fn num_touched(&self) -> usize {
        self.touched.len()
    }

    /// Re-initialize in time proportional to the touched count (the
    /// paper's cheap shadow re-init between R-LRPD stages).
    pub fn clear(&mut self) {
        for &e in &self.touched {
            self.marks[e as usize] = Mark::CLEAR;
        }
        self.touched.clear();
    }

    /// Shadow memory held, in bytes: the mark array plus the touched
    /// list's allocation.
    pub fn shadow_bytes(&self) -> usize {
        self.marks.len() + self.touched.capacity() * 4
    }
}

impl Marking for DenseShadow {
    #[inline]
    fn on_read(&mut self, elem: usize) {
        self.touch(elem).on_read();
    }

    #[inline]
    fn on_write(&mut self, elem: usize) {
        self.touch(elem).on_write();
    }

    #[inline]
    fn on_reduce(&mut self, elem: usize) {
        self.touch(elem).on_reduce();
    }

    #[inline]
    fn materialize(&mut self, elem: usize) {
        self.marks[elem].materialize_reduction();
    }

    #[inline]
    fn mark(&self, elem: usize) -> Mark {
        self.marks[elem]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_follow_transition_rules() {
        let mut s = DenseShadow::new(8);
        s.on_read(1); // exposed
        s.on_write(2);
        s.on_read(2); // covered
        s.on_write(3);
        assert!(s.mark(1).is_exposed_read());
        assert!(!s.mark(2).is_exposed_read());
        assert!(s.mark(2).is_written());
        assert!(s.mark(3).is_written());
        assert!(!s.mark(0).is_touched());
    }

    #[test]
    fn touched_list_has_distinct_elements_in_first_touch_order() {
        let mut s = DenseShadow::new(8);
        s.on_write(5);
        s.on_read(5);
        s.on_read(1);
        s.on_write(1);
        s.on_write(5);
        let order: Vec<usize> = s.touched().map(|(e, _)| e).collect();
        assert_eq!(order, vec![5, 1]);
        assert_eq!(s.num_touched(), 2);
    }

    #[test]
    fn clear_is_complete_and_reusable() {
        let mut s = DenseShadow::new(4);
        s.on_read(0);
        s.on_write(3);
        s.clear();
        assert_eq!(s.num_touched(), 0);
        for e in 0..4 {
            assert!(!s.mark(e).is_touched());
        }
        // Reusable after clear with fresh semantics.
        s.on_read(3);
        assert!(
            s.mark(3).is_exposed_read(),
            "cleared write must not cover a new read"
        );
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_element_panics() {
        let mut s = DenseShadow::new(2);
        s.on_read(2);
    }
}
