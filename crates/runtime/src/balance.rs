//! Feedback-guided load balancing (paper Section 5.1).
//!
//! The R-LRPD test requires *block* scheduling, which interacts badly
//! with the irregular loops it targets. The paper's remedy: at every loop
//! instantiation, measure the execution time of each iteration; after the
//! loop, prefix-sum those times and compute the block boundaries that
//! *would have* achieved perfect balance (each block receiving
//! `total / p` time); use that distribution as a first-order predictor
//! for the next instantiation, rescaled if the iteration count changed.
//!
//! The technique also tends to preserve locality because boundaries move
//! slowly between instantiations.

use crate::cost::Cost;
use crate::prefix::exclusive_prefix_sum;
use crate::schedule::BlockSchedule;
use std::ops::Range;

/// How the next instantiation's per-iteration times are predicted from
/// history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TrendMode {
    /// First-order predictor: next = last (the paper's implemented
    /// technique).
    #[default]
    FirstOrder,
    /// Linear trend: next = last + (last − previous), clamped at 0 —
    /// the paper's announced improvement ("using higher order
    /// derivatives to better predict trends in the distribution of the
    /// execution time of the iterations").
    Linear,
}

/// Predicts balanced block boundaries from the previous instantiations'
/// per-iteration timings.
#[derive(Clone, Debug, Default)]
pub struct FeedbackPartitioner {
    last_times: Option<Vec<Cost>>,
    prev_times: Option<Vec<Cost>>,
    trend: TrendMode,
}

impl FeedbackPartitioner {
    /// A partitioner with no history: predicts even blocks until the
    /// first [`record`](Self::record).
    pub fn new() -> Self {
        Self::default()
    }

    /// A partitioner using the given trend predictor.
    pub fn with_trend(trend: TrendMode) -> Self {
        FeedbackPartitioner {
            trend,
            ..Self::default()
        }
    }

    /// Feed the measured per-iteration times of the instantiation that
    /// just completed. Non-finite or negative entries are clamped to 0.
    pub fn record(&mut self, mut iter_times: Vec<Cost>) {
        for t in &mut iter_times {
            if !t.is_finite() || *t < 0.0 {
                *t = 0.0;
            }
        }
        self.prev_times = self.last_times.take();
        self.last_times = Some(iter_times);
    }

    /// True once at least one instantiation has been recorded.
    pub fn has_history(&self) -> bool {
        self.last_times.is_some()
    }

    /// The predicted per-iteration time distribution for the next
    /// instantiation, per the trend mode.
    fn predicted(&self) -> Option<Vec<Cost>> {
        let last = self.last_times.as_ref()?;
        match (self.trend, &self.prev_times) {
            (TrendMode::Linear, Some(prev)) if prev.len() == last.len() => Some(
                last.iter()
                    .zip(prev)
                    .map(|(&l, &p)| (2.0 * l - p).max(0.0))
                    .collect(),
            ),
            _ => Some(last.clone()),
        }
    }

    /// The `p - 1` interior cut points (relative to a 0-based space of
    /// `n` iterations) that would have balanced the recorded
    /// distribution, or `None` without history. When `n` differs from the
    /// recorded length the distribution is rescaled proportionally, as
    /// the paper prescribes for changing iteration spaces.
    pub fn cuts(&self, n: usize, p: usize) -> Option<Vec<usize>> {
        assert!(p > 0);
        let times = self.predicted()?;
        if times.is_empty() || n == 0 {
            return Some(vec![0; p - 1]);
        }
        // Resample the recorded distribution onto n iterations.
        let m = times.len();
        let resampled: Vec<Cost> = if m == n {
            times.clone()
        } else {
            (0..n).map(|i| times[i * m / n]).collect()
        };
        let prefix = exclusive_prefix_sum(&resampled);
        let total = prefix[n];
        if total <= 0.0 {
            // Degenerate history: fall back to even cuts.
            return Some((1..p).map(|k| k * n / p).collect());
        }
        let mut cuts = Vec::with_capacity(p - 1);
        let mut lo = 0usize;
        for k in 1..p {
            let target = total * (k as Cost) / (p as Cost);
            // First index whose prefix reaches the target; monotone in k,
            // so resume the scan from the previous cut.
            while lo < n && prefix[lo] < target {
                lo += 1;
            }
            cuts.push(lo);
        }
        Some(cuts)
    }

    /// A block schedule for `iters` over `p` processors: balanced by
    /// history when available, even otherwise.
    pub fn schedule(&self, iters: Range<usize>, p: usize) -> BlockSchedule {
        match self.cuts(iters.len(), p) {
            Some(rel_cuts) => {
                let cuts: Vec<usize> = rel_cuts.iter().map(|c| iters.start + c).collect();
                BlockSchedule::from_cuts(iters, &cuts)
            }
            None => BlockSchedule::even(iters, p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_time(times: &[Cost], r: &Range<usize>) -> Cost {
        times[r.clone()].iter().sum()
    }

    #[test]
    fn no_history_falls_back_to_even() {
        let fp = FeedbackPartitioner::new();
        assert!(!fp.has_history());
        let s = fp.schedule(0..8, 4);
        assert_eq!(s, BlockSchedule::even(0..8, 4));
    }

    #[test]
    fn skewed_history_shifts_boundaries() {
        // Iterations 0..4 cost 1, iterations 4..8 cost 7 each: a balanced
        // 2-processor split puts far more iterations on the cheap side.
        let mut fp = FeedbackPartitioner::new();
        let times: Vec<Cost> = (0..8).map(|i| if i < 4 { 1.0 } else { 7.0 }).collect();
        fp.record(times.clone());
        let s = fp.schedule(0..8, 2);
        let b0 = block_time(&times, &s.blocks()[0].range);
        let b1 = block_time(&times, &s.blocks()[1].range);
        // Even split would be 4 vs 28; feedback must do strictly better.
        assert!((b0 - b1).abs() < 28.0 - 4.0, "b0={b0} b1={b1}");
        assert!(s.blocks()[0].range.len() > s.blocks()[1].range.len());
    }

    #[test]
    fn uniform_history_reproduces_even_split() {
        let mut fp = FeedbackPartitioner::new();
        fp.record(vec![2.0; 12]);
        let s = fp.schedule(0..12, 4);
        let lens: Vec<_> = s.blocks().iter().map(|b| b.range.len()).collect();
        assert_eq!(lens, vec![3, 3, 3, 3]);
    }

    #[test]
    fn rescales_to_changed_iteration_space() {
        let mut fp = FeedbackPartitioner::new();
        // First half cheap, second half expensive, recorded on 10 iters.
        let times: Vec<Cost> = (0..10).map(|i| if i < 5 { 1.0 } else { 9.0 }).collect();
        fp.record(times);
        // Predict for 20 iterations: the cheap/expensive boundary scales.
        let s = fp.schedule(0..20, 2);
        assert!(
            s.blocks()[0].range.len() > 10,
            "cheap side should get most iters"
        );
        assert_eq!(s.num_iters(), 20);
    }

    #[test]
    fn offset_ranges_are_respected() {
        let mut fp = FeedbackPartitioner::new();
        fp.record(vec![1.0; 6]);
        let s = fp.schedule(10..16, 3);
        assert_eq!(s.span(), Some(10..16));
        assert_eq!(s.num_iters(), 6);
    }

    #[test]
    fn degenerate_zero_history_is_even() {
        let mut fp = FeedbackPartitioner::new();
        fp.record(vec![0.0; 8]);
        let s = fp.schedule(0..8, 4);
        assert_eq!(s.num_iters(), 8);
        let lens: Vec<_> = s.blocks().iter().map(|b| b.range.len()).collect();
        assert_eq!(lens, vec![2, 2, 2, 2]);
    }

    #[test]
    fn linear_trend_extrapolates_a_growing_hotspot() {
        // A hotspot growing at the tail: first-order predicts the last
        // distribution, linear predicts it keeps growing.
        let mut fo = FeedbackPartitioner::with_trend(TrendMode::FirstOrder);
        let mut li = FeedbackPartitioner::with_trend(TrendMode::Linear);
        let prev: Vec<Cost> = (0..8).map(|i| if i >= 6 { 2.0 } else { 1.0 }).collect();
        let last: Vec<Cost> = (0..8).map(|i| if i >= 6 { 6.0 } else { 1.0 }).collect();
        for p in [&mut fo, &mut li] {
            p.record(prev.clone());
            p.record(last.clone());
        }
        // True next distribution continues the trend: tail = 10.
        let truth: Vec<Cost> = (0..8).map(|i| if i >= 6 { 10.0 } else { 1.0 }).collect();
        let imbalance = |fp: &FeedbackPartitioner| {
            let s = fp.schedule(0..8, 2);
            let t0 = block_time(&truth, &s.blocks()[0].range);
            let t1 = block_time(&truth, &s.blocks()[1].range);
            (t0 - t1).abs()
        };
        assert!(
            imbalance(&li) <= imbalance(&fo),
            "linear trend must not balance worse than first-order on a trending load"
        );
    }

    #[test]
    fn linear_trend_clamps_negative_predictions() {
        let mut li = FeedbackPartitioner::with_trend(TrendMode::Linear);
        li.record(vec![10.0, 10.0, 10.0, 10.0]);
        li.record(vec![1.0, 10.0, 10.0, 10.0]); // extrapolates to -8 at slot 0
        let s = li.schedule(0..4, 2);
        assert_eq!(
            s.num_iters(),
            4,
            "clamped prediction still yields a valid schedule"
        );
    }

    #[test]
    fn linear_trend_falls_back_with_single_history() {
        let mut li = FeedbackPartitioner::with_trend(TrendMode::Linear);
        li.record(vec![1.0; 6]);
        let s = li.schedule(0..6, 3);
        let lens: Vec<_> = s.blocks().iter().map(|b| b.range.len()).collect();
        assert_eq!(lens, vec![2, 2, 2]);
    }

    #[test]
    fn nonfinite_times_are_clamped() {
        let mut fp = FeedbackPartitioner::new();
        fp.record(vec![1.0, f64::NAN, f64::INFINITY, -3.0, 1.0, 1.0]);
        // Must not panic and must produce a valid schedule.
        let s = fp.schedule(0..6, 2);
        assert_eq!(s.num_iters(), 6);
    }
}
