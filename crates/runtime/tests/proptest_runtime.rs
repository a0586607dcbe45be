//! Property tests for schedules and the feedback-guided partitioner.

use proptest::prelude::*;
use rlrpd_runtime::{BlockSchedule, FeedbackPartitioner, TrendMode};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Even schedules partition the range exactly, in order, with block
    /// sizes differing by at most one.
    #[test]
    fn even_schedules_partition(lo in 0usize..1000, len in 0usize..2000, p in 1usize..33) {
        let s = BlockSchedule::even(lo..lo + len, p);
        prop_assert_eq!(s.num_blocks(), p);
        prop_assert_eq!(s.num_iters(), len);
        let mut next = lo;
        let mut sizes = Vec::new();
        for b in s.blocks() {
            prop_assert_eq!(b.range.start, next);
            next = b.range.end;
            sizes.push(b.len());
        }
        prop_assert_eq!(next, lo + len);
        let max = sizes.iter().copied().max().unwrap_or(0);
        let min = sizes.iter().copied().min().unwrap_or(0);
        prop_assert!(max - min <= 1);
    }

    /// Circular rotation permutes processors but never the iteration
    /// order, and every processor appears exactly once.
    #[test]
    fn circular_is_a_processor_permutation(len in 1usize..500, p in 1usize..17, rot in 0usize..40) {
        let s = BlockSchedule::circular(0..len, p, rot % p);
        let mut procs: Vec<usize> = s.blocks().iter().map(|b| b.proc.index()).collect();
        procs.sort_unstable();
        let expect: Vec<usize> = (0..p).collect();
        prop_assert_eq!(procs, expect);
        let starts: Vec<usize> = s.blocks().iter().map(|b| b.range.start).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(starts, sorted, "blocks stay in iteration order");
    }

    /// moved_from is 0 for identical schedules, bounded by the
    /// iteration count, and 0 for NRD restarts.
    #[test]
    fn moved_from_bounds(len in 1usize..500, p in 1usize..17, from in 0usize..17) {
        let s = BlockSchedule::even(0..len, p);
        prop_assert_eq!(s.moved_from(&s), 0);
        let r = s.nrd_restart(from.min(p));
        prop_assert_eq!(r.moved_from(&s), 0);
        let shifted = BlockSchedule::even(len / 2..len, p);
        let moved = shifted.moved_from(&s);
        prop_assert!(moved <= shifted.num_iters());
    }

    /// Feedback cuts are monotone, in-bounds, and the resulting
    /// schedule always covers the space — whatever garbage history is
    /// fed in.
    #[test]
    fn feedback_cuts_are_always_valid(
        times in prop::collection::vec(0.0f64..100.0, 1..200),
        n in 1usize..300,
        p in 1usize..17,
        linear in any::<bool>(),
    ) {
        let mut fp = FeedbackPartitioner::with_trend(if linear {
            TrendMode::Linear
        } else {
            TrendMode::FirstOrder
        });
        fp.record(times.clone());
        fp.record(times);
        let cuts = fp.cuts(n, p).unwrap();
        prop_assert_eq!(cuts.len(), p - 1);
        let mut prev = 0usize;
        for &c in &cuts {
            prop_assert!(c >= prev && c <= n);
            prev = c;
        }
        let s = fp.schedule(0..n, p);
        prop_assert_eq!(s.num_iters(), n);
    }

    /// With perfectly uniform history, feedback scheduling degenerates
    /// to the even split.
    #[test]
    fn uniform_history_is_even(n in 1usize..200, p in 1usize..9) {
        let mut fp = FeedbackPartitioner::new();
        fp.record(vec![3.5; n]);
        let fb = fp.schedule(0..n, p);
        let even = BlockSchedule::even(0..n, p);
        let fb_sizes: Vec<usize> = fb.blocks().iter().map(|b| b.len()).collect();
        let even_sizes: Vec<usize> = even.blocks().iter().map(|b| b.len()).collect();
        // Sizes may differ by one at boundaries due to prefix rounding.
        for (a, b) in fb_sizes.iter().zip(&even_sizes) {
            prop_assert!(a.abs_diff(*b) <= 1, "{fb_sizes:?} vs {even_sizes:?}");
        }
    }
}
