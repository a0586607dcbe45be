//! Prefix sums.
//!
//! Two users in this reproduction, both straight from the paper:
//!
//! * feedback-guided load balancing (Section 5.1) prefix-sums the
//!   measured per-iteration times to find perfectly balancing cut points;
//! * the EXTEND_400 technique (Section 5.2) has every processor compute
//!   the conditionally incremented induction variable LSTTRK from a zero
//!   offset and then prefix-sums the per-processor totals to obtain each
//!   processor's true starting offset for the second doall.

use crate::cost::Cost;

/// Exclusive prefix sum: `out[i] = Σ_{j<i} xs[j]`, with `out.len() ==
/// xs.len() + 1` so that `out[xs.len()]` is the grand total.
pub fn exclusive_prefix_sum(xs: &[Cost]) -> Vec<Cost> {
    let mut out = Vec::with_capacity(xs.len() + 1);
    let mut acc = 0.0;
    out.push(0.0);
    for &x in xs {
        acc += x;
        out.push(acc);
    }
    out
}

/// Exclusive prefix sum for integer counts (induction-variable offsets).
pub fn exclusive_prefix_sum_usize(xs: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(xs.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &x in xs {
        acc += x;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_prefix_matches_definition() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(exclusive_prefix_sum(&xs), vec![0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn empty_input_yields_zero_total() {
        assert_eq!(exclusive_prefix_sum(&[]), vec![0.0]);
        assert_eq!(exclusive_prefix_sum_usize(&[]), vec![0]);
    }

    #[test]
    fn usize_prefix_for_induction_offsets() {
        // Per-processor LSTTRK increments 3, 0, 2, 1 -> offsets 0, 3, 3, 5
        // and total 6, exactly the EXTEND_400 second-pass offsets.
        let incs = [3, 0, 2, 1];
        assert_eq!(exclusive_prefix_sum_usize(&incs), vec![0, 3, 3, 5, 6]);
    }
}
