//! Per-iteration ledgers, kept as runs.
//!
//! A stage knows two things about each iteration it executed: what the
//! iteration cost ([`CostRuns`]) and which processor ran it
//! ([`LastProc`]). Neither is a property of single iterations in
//! practice — a block executes *consecutive* iterations on *one*
//! processor, and a loop's cost is usually one number — so both are
//! held as **runs**: a maximal stretch of consecutive iterations that
//! share the recorded value. A constant-cost doall over `p` processors
//! is `p` cost runs and `p` spans however many iterations it has; a
//! loop whose cost differs at every iteration degenerates to one run
//! per iteration, which is what the flat list of pairs cost before.
//!
//! **Extension looks at the last run only.** A block appends in
//! execution order, so the only run a new iteration can continue is the
//! one just written: `push` is one comparison, never a search, and the
//! runs come out in execution order — ascending or not. Two runs that
//! *could* be one (the second continues the first at a bit-equal cost)
//! therefore never coexist; that canonical form is what
//! [`crate::remote::BlockReply`] carries on the wire since v4, and the
//! decoder refuses anything else, so the in-memory ledger and its wire
//! image are one spelling.
//!
//! **Sums stay per iteration.** `f64` addition does not distribute:
//! `count · cost` is not the `count`-fold sum, and a virtual-time
//! report is pinned to the bit. [`CostRuns::total`] therefore adds one
//! iteration at a time, in execution order, exactly as the flat ledger
//! was summed — runs save the memory and the passes, not the additions
//! a fault path or a worker reply makes once per block.

use std::ops::Range;

/// One run of a [`CostRuns`] ledger: `count` consecutive iterations
/// from `first`, each at `cost` (bit-equal).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostRun {
    /// First iteration of the run.
    pub first: u32,
    /// Iterations in the run (never 0).
    pub count: u32,
    /// What each of them cost.
    pub cost: f64,
}

impl CostRun {
    /// The last iteration of the run, or `None` when `first + count - 1`
    /// leaves the iteration space (a run no ledger ever builds, but a
    /// wire image can spell).
    pub fn last(&self) -> Option<u32> {
        self.first.checked_add(self.count.checked_sub(1)?)
    }

    /// Does `(iter, cost)` continue this run?
    fn continues(&self, iter: u32, cost: f64) -> bool {
        self.cost.to_bits() == cost.to_bits() && self.first.checked_add(self.count) == Some(iter)
    }
}

/// The `(iteration, cost)` pairs a block executed, in execution order,
/// as runs — see the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CostRuns {
    runs: Vec<CostRun>,
    /// Iterations recorded: the sum of the runs' counts.
    iters: usize,
}

impl CostRuns {
    /// Record that `iter` executed at `cost`: extends the last run when
    /// `iter` is its successor at a bit-equal cost, opens a run
    /// otherwise.
    #[inline]
    pub fn push(&mut self, iter: u32, cost: f64) {
        self.iters += 1;
        match self.runs.last_mut() {
            Some(run) if run.continues(iter, cost) => run.count += 1,
            _ => self.runs.push(CostRun {
                first: iter,
                count: 1,
                cost,
            }),
        }
    }

    /// Append a whole run, as read from the wire. Refused (`false`,
    /// nothing recorded) when the run is empty, runs past the last
    /// iteration, or continues the run before it — one run spelled as
    /// two. These are the forms [`CostRuns::push`] never produces, so
    /// an accepted ledger equals the pushed one run for run.
    pub(crate) fn push_run(&mut self, run: CostRun) -> bool {
        let canonical = run.last().is_some()
            && !self
                .runs
                .last()
                .is_some_and(|prev| prev.continues(run.first, run.cost));
        if canonical {
            self.iters = self.iters.saturating_add(run.count as usize);
            self.runs.push(run);
        }
        canonical
    }

    /// Iterations recorded.
    pub fn len(&self) -> usize {
        self.iters
    }

    /// No iteration recorded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Forget everything, keeping the allocation.
    pub fn clear(&mut self) {
        self.runs.clear();
        self.iters = 0;
    }

    /// The runs, in execution order.
    pub fn runs(&self) -> &[CostRun] {
        &self.runs
    }

    /// The pairs the runs stand for, in execution order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.runs
            .iter()
            .flat_map(|run| (0..run.count).map(move |k| (run.first + k, run.cost)))
    }

    /// Σ cost, one addition per iteration in execution order: bit-equal
    /// to summing the pair list (module docs).
    pub fn total(&self) -> f64 {
        self.iter().map(|(_, cost)| cost).sum()
    }
}

impl FromIterator<(u32, f64)> for CostRuns {
    fn from_iter<I: IntoIterator<Item = (u32, f64)>>(pairs: I) -> Self {
        let mut runs = CostRuns::default();
        for (iter, cost) in pairs {
            runs.push(iter, cost);
        }
        runs
    }
}

/// One span of a [`LastProc`] map: iterations `start..end` were last
/// executed by `proc`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    pub start: usize,
    pub end: usize,
    pub proc: u32,
}

/// Which processor last executed each iteration — the remote-miss
/// locality ledger — as sorted, disjoint, non-empty spans; an iteration
/// under no span has never run. Neighbouring spans of one processor are
/// merged, so the map is as long as the run's *placement* is varied: a
/// stage adds at most one span per block.
#[derive(Clone, Debug, Default)]
pub(crate) struct LastProc {
    spans: Vec<Span>,
}

impl LastProc {
    /// How many iterations of `range` were last executed by a processor
    /// other than `proc` (never-executed iterations miss nothing).
    pub fn misses(&self, range: Range<usize>, proc: u32) -> usize {
        if range.is_empty() {
            return 0;
        }
        let from = self.spans.partition_point(|s| s.end <= range.start);
        self.spans[from..]
            .iter()
            .take_while(|s| s.start < range.end)
            .filter(|s| s.proc != proc)
            .map(|s| s.end.min(range.end) - s.start.max(range.start))
            .sum()
    }

    /// Record that `proc` executed every iteration of `range`.
    pub fn assign(&mut self, range: Range<usize>, proc: u32) {
        if range.is_empty() {
            return;
        }
        // Every span that overlaps *or touches* the range: the touching
        // ones are the merge candidates.
        let lo = self.spans.partition_point(|s| s.end < range.start);
        let hi = self.spans.partition_point(|s| s.start <= range.end);
        let mut new = Span {
            start: range.start,
            end: range.end,
            proc,
        };
        // What sticks out on either side survives — absorbed when it is
        // this processor's, cut to its remainder when it is not.
        let mut left = None;
        let mut right = None;
        if let (Some(first), Some(last)) = (self.spans[lo..hi].first(), self.spans[lo..hi].last()) {
            if first.start < new.start {
                if first.proc == proc {
                    new.start = first.start;
                } else {
                    left = Some(Span {
                        end: range.start,
                        ..*first
                    });
                }
            }
            if last.end > new.end {
                if last.proc == proc {
                    new.end = last.end;
                } else {
                    right = Some(Span {
                        start: range.end,
                        ..*last
                    });
                }
            }
        }
        self.spans
            .splice(lo..hi, left.into_iter().chain([new]).chain(right));
    }

    /// The spans, ascending.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The flat ledger `LastProc` replaces: one entry per iteration,
    /// `u32::MAX` for "never executed".
    struct FlatLastProc(Vec<u32>);

    impl FlatLastProc {
        fn misses(&self, range: Range<usize>, proc: u32) -> usize {
            self.0[range]
                .iter()
                .filter(|&&last| last != u32::MAX && last != proc)
                .count()
        }
    }

    /// A range inside `0..n`: empty, nested, adjacent to or overlapping
    /// whatever came before, as the draw has it.
    fn range_in(n: usize) -> impl Strategy<Value = Range<usize>> {
        (0..=n, 0..=n).prop_map(|(a, b)| a.min(b)..a.max(b))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn last_proc_answers_as_the_flat_vector_does(
            procs in 2u32..5,
            ops in prop::collection::vec((range_in(48), 0u32..4, any::<bool>()), 0..40),
        ) {
            let mut spans = LastProc::default();
            let mut flat = FlatLastProc(vec![u32::MAX; 48]);
            for (range, proc, assign) in ops {
                let proc = proc % procs;
                for asked in 0..procs {
                    prop_assert_eq!(
                        spans.misses(range.clone(), asked),
                        flat.misses(range.clone(), asked)
                    );
                }
                if assign {
                    spans.assign(range.clone(), proc);
                    flat.0[range].fill(proc);
                }
                // Sorted, disjoint, non-empty, merged — and the same map.
                for s in spans.spans() {
                    prop_assert!(s.start < s.end);
                    prop_assert!(flat.0[s.start..s.end].iter().all(|&last| last == s.proc));
                }
                for pair in spans.spans().windows(2) {
                    prop_assert!(pair[0].end <= pair[1].start);
                    prop_assert!(pair[0].end < pair[1].start || pair[0].proc != pair[1].proc);
                }
                let covered: usize = spans.spans().iter().map(|s| s.end - s.start).sum();
                prop_assert_eq!(covered, flat.0.iter().filter(|&&last| last != u32::MAX).count());
            }
        }

        #[test]
        fn cost_runs_are_the_pair_list(
            // Runs of consecutive iterations at one of a few costs whose
            // sums depend on the order of addition, jumping anywhere
            // (backwards, onto u32::MAX) between runs.
            stretches in prop::collection::vec((any::<u32>(), 0u32..6, 0usize..4), 0..12),
        ) {
            let costs = [0.1, 2.5, 0.0, -0.0];
            let pairs: Vec<(u32, f64)> = stretches
                .iter()
                .flat_map(|&(first, len, c)| {
                    (0..len).map(move |k| (first.saturating_add(k), costs[c]))
                })
                .collect();
            let runs: CostRuns = pairs.iter().copied().collect();
            prop_assert_eq!(runs.len(), pairs.len());
            prop_assert_eq!(runs.is_empty(), pairs.is_empty());
            let back: Vec<(u32, f64)> = runs.iter().collect();
            prop_assert_eq!(back.len(), pairs.len());
            for (got, want) in back.iter().zip(&pairs) {
                prop_assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
            }
            let flat_sum: f64 = pairs.iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(runs.total().to_bits(), flat_sum.to_bits());
            // Canonical: no run continues the one before it, so reading
            // the runs back one at a time is accepted and is the same
            // ledger.
            let mut reread = CostRuns::default();
            for &run in runs.runs() {
                prop_assert!(run.count > 0 && run.last().is_some());
                prop_assert!(reread.push_run(run));
            }
            prop_assert_eq!(&reread, &runs);
        }
    }

    #[test]
    fn a_sum_by_runs_would_not_be_the_sum() {
        // Why `total` adds per iteration: ten additions of 0.1 are not
        // 10 × 0.1, and the report is pinned to the former.
        let runs: CostRuns = (0..10).map(|i| (i, 0.1)).collect();
        assert_eq!(runs.runs().len(), 1);
        let by_iteration: f64 = (0..10).map(|_| 0.1).sum();
        assert_eq!(runs.total().to_bits(), by_iteration.to_bits());
        assert_ne!(runs.total().to_bits(), (10.0f64 * 0.1).to_bits());
    }

    #[test]
    fn push_run_refuses_what_push_never_builds() {
        let run = |first, count, cost| CostRun { first, count, cost };
        let mut runs = CostRuns::default();
        assert!(!runs.push_run(run(4, 0, 1.0)), "empty");
        assert!(
            !runs.push_run(run(u32::MAX, 2, 1.0)),
            "past the last iteration"
        );
        assert!(runs.push_run(run(4, 3, 1.0)));
        assert!(!runs.push_run(run(7, 1, 1.0)), "one run spelled as two");
        assert!(runs.push_run(run(7, 1, 2.0)), "a new cost is a new run");
        assert!(runs.push_run(run(4, 4, 2.0)), "so is going back");
        assert!(
            runs.push_run(run(0, u32::MAX, 1.0)),
            "any length, no memory"
        );
        assert_eq!(runs.len(), 3 + 1 + 4 + u32::MAX as usize);
        assert_eq!(runs.runs().len(), 4);
    }

    #[test]
    fn assign_splits_absorbs_and_merges() {
        let span = |start, end, proc| Span { start, end, proc };
        let mut m = LastProc::default();
        m.assign(0..16, 0);
        m.assign(16..32, 1);
        m.assign(32..48, 0);
        assert_eq!(
            m.spans(),
            [span(0, 16, 0), span(16, 32, 1), span(32, 48, 0)]
        );
        // Inside one span: split in three.
        m.assign(20..24, 2);
        assert_eq!(m.spans().len(), 5);
        assert_eq!(m.misses(16..32, 1), 4);
        assert_eq!(m.misses(16..32, 2), 12);
        // Over everything between two spans of one processor: one span.
        m.assign(10..40, 0);
        assert_eq!(m.spans(), [span(0, 48, 0)]);
        // An empty range is no assignment, and touches nothing.
        m.assign(7..7, 3);
        assert_eq!(m.spans(), [span(0, 48, 0)]);
        assert_eq!(m.misses(7..7, 3), 0);
        // Never-executed iterations miss nothing.
        assert_eq!(m.misses(40..64, 1), 8);
    }
}
