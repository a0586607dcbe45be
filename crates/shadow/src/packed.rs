//! Bit-packed dense shadow: the paper's literal "two bits for Read and
//! Write" layout (plus the reduction bit), four elements per byte pair.
//!
//! [`crate::DenseShadow`] spends a whole byte per element for fast
//! unaligned access; this variant packs marks at 2 bits ×
//! {write, exposed-read} + a separate reduction plane, i.e. ~4× less
//! shadow memory — which mattered on the paper's 4 MB-cache testbed and
//! still matters for cache residency of hot marking loops. The
//! harness's `shadow.mark_ns_dense` / `shadow.mark_ns_packed` compare
//! the two.
//!
//! Semantics are bit-for-bit identical to [`crate::marks::Mark`]'s
//! transition rules; a shared test module asserts equivalence against
//! the byte-per-element shadow under random access sequences.

use crate::marks::Mark;

/// Dense shadow storing marks at 3 bits per element across packed
/// planes, with a touched list for O(touched) analysis/re-init.
#[derive(Clone, Debug)]
pub struct PackedShadow {
    /// Plane 0: WRITE bits, one per element.
    write: Vec<u64>,
    /// Plane 1: EXPOSED_READ bits.
    read: Vec<u64>,
    /// Plane 2: REDUCTION bits.
    red: Vec<u64>,
    size: usize,
    touched: Vec<u32>,
}

#[inline]
fn slot(e: usize) -> (usize, u64) {
    (e >> 6, 1u64 << (e & 63))
}

impl PackedShadow {
    /// Shadow for `size` elements, all unmarked.
    pub fn new(size: usize) -> Self {
        assert!(size <= u32::MAX as usize);
        let words = size.div_ceil(64);
        PackedShadow {
            write: vec![0; words],
            read: vec![0; words],
            red: vec![0; words],
            size,
            touched: Vec::new(),
        }
    }

    /// Number of elements shadowed.
    pub fn size(&self) -> usize {
        self.size
    }

    #[inline]
    fn is_touched(&self, e: usize) -> bool {
        let (w, m) = slot(e);
        (self.write[w] | self.read[w] | self.red[w]) & m != 0
    }

    #[inline]
    fn note_touch(&mut self, e: usize) {
        if !self.is_touched(e) {
            self.touched.push(e as u32);
        }
    }

    /// Record an ordinary read of `e` (exposed unless already written).
    #[inline]
    pub fn on_read(&mut self, e: usize) {
        debug_assert!(e < self.size);
        self.note_touch(e);
        let (w, m) = slot(e);
        if self.write[w] & m == 0 {
            self.read[w] |= m;
        }
    }

    /// Record an ordinary write of `e`.
    #[inline]
    pub fn on_write(&mut self, e: usize) {
        debug_assert!(e < self.size);
        self.note_touch(e);
        let (w, m) = slot(e);
        debug_assert!(self.red[w] & m == 0, "materialize before ordinary access");
        self.write[w] |= m;
    }

    /// Record a reduction update of `e`.
    #[inline]
    pub fn on_reduce(&mut self, e: usize) {
        debug_assert!(e < self.size);
        self.note_touch(e);
        let (w, m) = slot(e);
        debug_assert!(
            (self.write[w] | self.read[w]) & m == 0,
            "reduce after ordinary access must go through the ordinary path"
        );
        self.red[w] |= m;
    }

    /// Convert `e`'s reduction mark to ordinary marks (see
    /// [`Mark::materialize_reduction`]).
    #[inline]
    pub fn materialize(&mut self, e: usize) {
        let (w, m) = slot(e);
        debug_assert!(self.red[w] & m != 0);
        self.red[w] &= !m;
        self.read[w] |= m;
        self.write[w] |= m;
    }

    /// The element's mark byte, identical to what a [`Mark`]-based
    /// shadow would hold.
    #[inline]
    pub fn mark(&self, e: usize) -> Mark {
        let (w, m) = slot(e);
        let mut bits = 0u8;
        if self.write[w] & m != 0 {
            bits |= Mark::WRITE;
        }
        if self.read[w] & m != 0 {
            bits |= Mark::EXPOSED_READ;
        }
        if self.red[w] & m != 0 {
            bits |= Mark::REDUCTION;
        }
        Mark(bits)
    }

    /// Distinct elements referenced, in first-touch order.
    pub fn touched(&self) -> impl Iterator<Item = (usize, Mark)> + '_ {
        self.touched
            .iter()
            .map(|&e| (e as usize, self.mark(e as usize)))
    }

    /// Number of distinct elements referenced.
    pub fn num_touched(&self) -> usize {
        self.touched.len()
    }

    /// Re-initialize in O(touched).
    pub fn clear(&mut self) {
        for &e in &self.touched {
            let (w, m) = slot(e as usize);
            self.write[w] &= !m;
            self.read[w] &= !m;
            self.red[w] &= !m;
        }
        self.touched.clear();
    }

    /// Install a previously observed mark verbatim (representation
    /// migration and replay): sets the bit planes directly, bypassing
    /// the transition rules. `mark` must be a touched, legal mark and
    /// `e` must currently be untouched.
    pub fn restore(&mut self, e: usize, mark: Mark) {
        debug_assert!(e < self.size);
        debug_assert!(mark.is_touched(), "restoring an untouched mark");
        debug_assert!(!self.is_touched(e), "restore over a live mark");
        let (w, m) = slot(e);
        if mark.is_written() {
            self.write[w] |= m;
        }
        if mark.is_exposed_read() {
            self.read[w] |= m;
        }
        if mark.is_reduction_only() {
            self.red[w] |= m;
        }
        self.touched.push(e as u32);
    }

    /// Shadow memory in bytes: the bit planes plus the touched list's
    /// allocation (reported to the footprint accountant).
    pub fn shadow_bytes(&self) -> usize {
        (self.write.len() + self.read.len() + self.red.len()) * 8 + self.touched.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseShadow;

    #[test]
    fn transition_rules_match_the_byte_shadow() {
        // Replay a deterministic pseudo-random access sequence into
        // both representations and compare final marks.
        let size = 257; // crosses word boundaries
        let mut packed = PackedShadow::new(size);
        let mut dense = DenseShadow::new(size);
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let e = (x >> 33) as usize % size;
            match (x >> 7) % 3 {
                0 => {
                    // The view layer materializes reduction-marked
                    // elements before any ordinary access; mirror it.
                    if packed.mark(e).is_reduction_only() {
                        packed.materialize(e);
                        dense.materialize(e);
                    }
                    packed.on_read(e);
                    dense.on_read(e);
                }
                1 => {
                    if packed.mark(e).is_reduction_only() {
                        packed.materialize(e);
                        dense.materialize(e);
                    }
                    packed.on_write(e);
                    dense.on_write(e);
                }
                _ => {
                    // Reduce only on untouched elements (the view layer
                    // guarantees this routing).
                    if !packed.mark(e).is_touched() {
                        packed.on_reduce(e);
                        dense.on_reduce(e);
                    }
                }
            }
        }
        for e in 0..size {
            assert_eq!(packed.mark(e), dense.mark(e), "element {e}");
        }
        assert_eq!(packed.num_touched(), dense.num_touched());
    }

    #[test]
    fn read_covered_by_write_stays_unexposed() {
        let mut s = PackedShadow::new(100);
        s.on_write(64); // first bit of word 1
        s.on_read(64);
        assert!(!s.mark(64).is_exposed_read());
        assert!(s.mark(64).is_written());
    }

    #[test]
    fn reduction_round_trip() {
        let mut s = PackedShadow::new(70);
        s.on_reduce(65);
        assert!(s.mark(65).is_reduction_only());
        s.materialize(65);
        assert!(s.mark(65).is_written());
        assert!(s.mark(65).is_exposed_read());
        assert!(!s.mark(65).is_reduction_only());
    }

    #[test]
    fn clear_is_complete_and_cheap() {
        let mut s = PackedShadow::new(1000);
        for e in [0usize, 63, 64, 999] {
            s.on_write(e);
        }
        s.clear();
        assert_eq!(s.num_touched(), 0);
        for e in 0..1000 {
            assert!(!s.mark(e).is_touched());
        }
        s.on_read(63);
        assert!(s.mark(63).is_exposed_read());
    }

    #[test]
    fn footprint_is_a_quarter_of_the_byte_shadow() {
        let s = PackedShadow::new(1 << 16);
        // 3 bit-planes = 3 bits/elem vs 8 bits/elem.
        assert!(s.shadow_bytes() * 2 < (1 << 16));
    }

    #[test]
    fn touched_order_is_first_touch() {
        let mut s = PackedShadow::new(128);
        s.on_write(100);
        s.on_read(3);
        s.on_read(100);
        let order: Vec<usize> = s.touched().map(|(e, _)| e).collect();
        assert_eq!(order, vec![100, 3]);
    }
}
