//! The per-element, per-processor mark byte and its transition rules.
//!
//! The paper uses two bits per element — Read and Write — with the rule
//! that on a processor, *a read only sets the read bit if no write has
//! been seen yet*. A set read bit therefore means an **exposed read**:
//! the processor consumed a value it did not produce, which (a) forces
//! copy-in from shared storage and (b) is the only possible sink of a
//! cross-processor flow dependence. We add a third bit for speculative
//! reduction validation (tested "in a similar manner", per the paper's
//! footnote).
//!
//! Transition rules, applied by [`Mark`] methods and never violated:
//!
//! * read: sets [`Mark::EXPOSED_READ`] unless [`Mark::WRITE`] already set;
//! * write: sets [`Mark::WRITE`];
//! * reduce: sets [`Mark::REDUCTION`] — legal only while the element has
//!   no ordinary marks (the caller *materializes* otherwise, see
//!   [`Mark::materialize_reduction`]);
//! * repeated references of the same type never change the byte.
//!
//! A final per-stage mark byte for an element is therefore either
//! `REDUCTION` alone or a subset of `{WRITE, EXPOSED_READ}` — the
//! invariant the analysis phase (in `rlrpd-core`) relies on.

/// A per-element mark byte.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Mark(pub u8);

impl Mark {
    /// The element was written by this processor this stage.
    pub const WRITE: u8 = 0b001;
    /// The element was read before any write by this processor this
    /// stage (the value was copied in from shared storage).
    pub const EXPOSED_READ: u8 = 0b010;
    /// The element was referenced exclusively through the reduction
    /// operation on this processor this stage.
    pub const REDUCTION: u8 = 0b100;

    /// No reference yet.
    pub const CLEAR: Mark = Mark(0);

    /// Record an ordinary read. Sets the exposed-read bit only when no
    /// write has been observed, per the paper's marking rule.
    #[inline]
    pub fn on_read(&mut self) {
        debug_assert!(
            !self.is_reduction_only() || self.0 == 0,
            "materialize first"
        );
        if self.0 & Mark::WRITE == 0 {
            self.0 |= Mark::EXPOSED_READ;
        }
    }

    /// Record an ordinary write.
    #[inline]
    pub fn on_write(&mut self) {
        debug_assert!(!self.is_reduction_only(), "materialize first");
        self.0 |= Mark::WRITE;
    }

    /// Record a reduction update. Only legal while the element has no
    /// ordinary marks.
    #[inline]
    pub fn on_reduce(&mut self) {
        debug_assert!(
            self.0 & (Mark::WRITE | Mark::EXPOSED_READ) == 0,
            "reduce after ordinary access must go through the ordinary path"
        );
        self.0 |= Mark::REDUCTION;
    }

    /// Convert a reduction-marked element to ordinary marks after the
    /// runtime materialized its value (`private = copy_in(shared) ⊕
    /// accumulated`): the materialization *read shared data* (exposed
    /// read) and *produced a private value* (write).
    #[inline]
    pub fn materialize_reduction(&mut self) {
        debug_assert!(self.is_reduction_only());
        self.0 = Mark::EXPOSED_READ | Mark::WRITE;
    }

    /// True when any reference was recorded.
    #[inline]
    pub fn is_touched(self) -> bool {
        self.0 != 0
    }

    /// True when the element was written (ordinarily) on this processor.
    #[inline]
    pub fn is_written(self) -> bool {
        self.0 & Mark::WRITE != 0
    }

    /// True when the element has an exposed read on this processor.
    #[inline]
    pub fn is_exposed_read(self) -> bool {
        self.0 & Mark::EXPOSED_READ != 0
    }

    /// True when the element was referenced *only* through reductions.
    #[inline]
    pub fn is_reduction_only(self) -> bool {
        self.0 == Mark::REDUCTION
    }

    /// True when the element acts as a dependence *source* for later
    /// blocks: it produced data (ordinary write) or a reduction delta.
    /// An exposed read on a later block after either is a flow violation
    /// (a reduction delta is applied at commit, so reading the shared
    /// value over it would miss it).
    #[inline]
    pub fn is_dependence_source(self) -> bool {
        self.0 & (Mark::WRITE | Mark::REDUCTION) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_before_write_is_exposed() {
        let mut m = Mark::CLEAR;
        m.on_read();
        assert!(m.is_exposed_read());
        assert!(!m.is_written());
    }

    #[test]
    fn read_after_write_is_covered() {
        let mut m = Mark::CLEAR;
        m.on_write();
        m.on_read();
        assert!(
            !m.is_exposed_read(),
            "write-first read must not set the read bit"
        );
        assert!(m.is_written());
    }

    #[test]
    fn exposed_read_survives_later_write() {
        // (Read, Write) pattern: both bits stay set -> not privatizable
        // without copy-in, exactly the paper's Fig. 1 example.
        let mut m = Mark::CLEAR;
        m.on_read();
        m.on_write();
        assert!(m.is_exposed_read());
        assert!(m.is_written());
    }

    #[test]
    fn repeated_references_are_idempotent() {
        let mut m = Mark::CLEAR;
        m.on_read();
        let after_one = m;
        m.on_read();
        m.on_read();
        assert_eq!(m, after_one);

        let mut w = Mark::CLEAR;
        w.on_write();
        let after_w = w;
        w.on_write();
        assert_eq!(w, after_w);
    }

    #[test]
    fn reduction_only_tracks_and_materializes() {
        let mut m = Mark::CLEAR;
        m.on_reduce();
        assert!(m.is_reduction_only());
        assert!(m.is_dependence_source());
        assert!(!m.is_exposed_read());
        m.materialize_reduction();
        assert!(!m.is_reduction_only());
        assert!(m.is_exposed_read());
        assert!(m.is_written());
    }

    #[test]
    fn final_marks_are_reduction_xor_ordinary() {
        // The invariant the analysis relies on: after any legal sequence,
        // a mark is REDUCTION alone or a subset of {WRITE, EXPOSED_READ}.
        let sequences: Vec<Vec<&str>> = vec![
            vec!["r"],
            vec!["w"],
            vec!["r", "w"],
            vec!["w", "r"],
            vec!["red", "red"],
            vec!["red", "mat", "r", "w"],
        ];
        for seq in sequences {
            let mut m = Mark::CLEAR;
            for op in &seq {
                match *op {
                    "r" => m.on_read(),
                    "w" => m.on_write(),
                    "red" => m.on_reduce(),
                    "mat" => m.materialize_reduction(),
                    _ => unreachable!(),
                }
            }
            let red = m.0 & Mark::REDUCTION != 0;
            let ord = m.0 & (Mark::WRITE | Mark::EXPOSED_READ) != 0;
            assert!(!(red && ord), "mixed final mark from {seq:?}");
        }
    }
}
