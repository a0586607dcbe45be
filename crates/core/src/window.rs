//! The sliding-window (SW) strategy.
//!
//! Instead of distributing the whole iteration space, the speculative
//! process is strip-mined: the R-LRPD test runs on one *window* of
//! `w · p` contiguous iterations at a time, the commit point advances
//! past every committed block, and failed blocks re-execute inside the
//! next window. The window is organized *circularly* so re-executed
//! iterations land on their originally assigned processor, preserving
//! locality (paper Section 2, Fig. 2).
//!
//! Trade-offs the paper spells out — and which the Fig. 8/9 benches
//! reproduce: a fully parallel loop pays one synchronization per window
//! instead of one total, but a dependent loop re-executes far fewer
//! iterations; larger windows mean fewer synchronizations but more
//! uncovered dependences. Window size can adapt from failure history
//! ([`WindowPolicy`]).

/// Window-size adaptation policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowPolicy {
    /// Keep the configured size.
    Fixed,
    /// Multiply the per-processor block size by `factor` after a failed
    /// window, up to `max` — the paper's "when many close dependences
    /// are encountered, the block size is increased" (bigger blocks
    /// keep short-distance source/sink pairs on one processor).
    GrowOnFailure {
        /// Multiplicative growth per failure (> 1).
        factor: f64,
        /// Upper bound on iterations per processor.
        max: usize,
    },
    /// Divide the block size by `factor` after a failed window, down to
    /// `min` — the paper's alternative: "start with a very large block,
    /// equivalent to (N)RD and, if dependences are uncovered, reduce
    /// it".
    ShrinkOnFailure {
        /// Divisor per failure (> 1).
        factor: f64,
        /// Lower bound on iterations per processor.
        min: usize,
    },
}

/// Sliding-window configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowConfig {
    /// Iterations per processor per window (the super-iteration size),
    /// at least 1: an empty window never moves the commit point, so the
    /// run would end at its stage cap.
    pub iters_per_proc: usize,
    /// Size adaptation policy.
    pub policy: WindowPolicy,
    /// Assign window blocks to processors round-robin so re-executed
    /// blocks stay on their original processor.
    pub circular: bool,
}

impl WindowConfig {
    /// A fixed-size circular window of `w` iterations per processor.
    pub fn fixed(w: usize) -> Self {
        WindowConfig {
            iters_per_proc: w,
            policy: WindowPolicy::Fixed,
            circular: true,
        }
    }
}

/// The per-processor block size after a failed window.
pub(crate) fn adapt(w: usize, policy: WindowPolicy) -> usize {
    match policy {
        WindowPolicy::Fixed => w,
        WindowPolicy::GrowOnFailure { factor, max } => {
            let grown = (((w as f64) * factor).ceil() as usize).max(w + 1);
            grown.min(max.max(w)) // saturate at max, never shrink below w
        }
        WindowPolicy::ShrinkOnFailure { factor, min } => {
            let shrunk = (((w as f64) / factor).floor() as usize).min(w.saturating_sub(1));
            shrunk.max(min.min(w)) // saturate at min, never grow above w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_never_changes() {
        assert_eq!(adapt(8, WindowPolicy::Fixed), 8);
    }

    #[test]
    fn grow_policy_grows_and_saturates() {
        let p = WindowPolicy::GrowOnFailure {
            factor: 2.0,
            max: 16,
        };
        assert_eq!(adapt(4, p), 8);
        assert_eq!(adapt(8, p), 16);
        assert_eq!(adapt(16, p), 16);
    }

    #[test]
    fn shrink_policy_shrinks_and_saturates() {
        let p = WindowPolicy::ShrinkOnFailure {
            factor: 2.0,
            min: 2,
        };
        assert_eq!(adapt(8, p), 4);
        assert_eq!(adapt(4, p), 2);
        assert_eq!(adapt(2, p), 2);
    }

    #[test]
    fn grow_always_makes_progress_even_with_small_factor() {
        let p = WindowPolicy::GrowOnFailure {
            factor: 1.01,
            max: 100,
        };
        assert!(adapt(4, p) > 4);
    }
}
