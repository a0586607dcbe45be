//! Virtual processor identifiers.
//!
//! The processor-wise LRPD test orders dependences by *processor rank*,
//! not iteration number: a stage commits every processor strictly below
//! the first one that read data some lower-ranked processor wrote. Ranks
//! therefore have a total order that mirrors iteration order under block
//! scheduling.

use std::fmt;

/// Identifier of one virtual processor participating in a speculative
/// stage.
///
/// Ranks run from `0` to `p - 1`. Under static block scheduling processor
/// `i` always executes iterations strictly below those of processor
/// `i + 1`, which is what lets the analysis phase commit a *prefix* of
/// processors after a failed stage.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Rank as a `usize` index (for indexing per-processor state vectors).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterator over all ranks `0..p`.
    pub fn all(p: usize) -> impl ExactSizeIterator<Item = ProcId> {
        (0..p as u32).map(ProcId)
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for ProcId {
    fn from(i: usize) -> Self {
        ProcId(u32::try_from(i).expect("processor rank exceeds u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_ordered() {
        assert!(ProcId(0) < ProcId(1));
        assert!(ProcId(3) > ProcId(2));
    }

    #[test]
    fn all_enumerates_p_ranks() {
        let v: Vec<_> = ProcId::all(4).collect();
        assert_eq!(v, vec![ProcId(0), ProcId(1), ProcId(2), ProcId(3)]);
        assert_eq!(ProcId::all(0).len(), 0);
    }

    #[test]
    fn index_round_trips() {
        for p in ProcId::all(8) {
            assert_eq!(ProcId::from(p.index()), p);
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(format!("{}", ProcId(5)), "P5");
        assert_eq!(format!("{:?}", ProcId(5)), "P5");
    }
}
