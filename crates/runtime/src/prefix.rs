//! Prefix sums: feedback-guided load balancing (Section 5.1)
//! prefix-sums the measured per-iteration times to find perfectly
//! balancing cut points.

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
    }
}
