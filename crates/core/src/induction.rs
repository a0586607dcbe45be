//! Speculative parallelization of loops with a *conditionally
//! incremented induction variable* — the paper's EXTEND_400 / FPTRAK_300
//! technique (Section 5.2).
//!
//! The pattern: a counter (LSTTRK) indexes the live end of a set of
//! arrays; each iteration may conditionally bump it and writes near the
//! counter, while reads target the read-only prefix below the initial
//! counter value. The counter's values cannot be precomputed, so the
//! loop resists both static analysis and an inspector. The run-time
//! scheme:
//!
//! 1. **First doall**: every processor speculatively executes its block
//!    computing the counter *from a zero offset*, writing into private
//!    storage, and collecting (a) per-iteration bump counts and (b) the
//!    reference ranges of every tracked array.
//! 2. A **prefix sum** of the bump counts yields each iteration's true
//!    counter offset.
//! 3. **Range test**: the maximum exposed-read index must fall strictly
//!    below the minimum (offset-adjusted) write index — reads never saw
//!    data any iteration produced.
//! 4. **Second doall** re-executes with the correct offsets; last-value
//!    commit in block order resolves the one-slot overlap between
//!    consecutive blocks (the temporarily extended track slot — "at
//!    most one element needs to be privatized").
//!
//! If the range test fails the loop re-executes sequentially: the
//! technique degenerates to the classic-LRPD fallback.
//!
//! Contract: every write to a tracked array must be at a
//! counter-derived index (the EXTEND pattern); reads may also target
//! absolute indices in the read-only prefix.

use crate::array::ArrayDecl;
use crate::buf::SharedBuf;
use crate::report::RunReport;
use crate::value::Value;
use rlrpd_runtime::prefix::exclusive_prefix_sum_usize;
use rlrpd_runtime::{BlockSchedule, CostModel, ExecMode, Executor, OverheadKind, StageStats};
use rlrpd_shadow::hasher::FxBuildHasher;
use std::collections::HashMap;

/// A loop following the conditional-induction pattern.
pub trait InductionLoop<T: Value = f64>: Sync {
    /// Iteration count.
    fn num_iters(&self) -> usize;
    /// The counter's value at loop entry (the live end of the tracked
    /// arrays).
    fn initial_counter(&self) -> usize;
    /// The tracked arrays (all are range-tested; kinds are ignored).
    fn arrays(&self) -> Vec<ArrayDecl<T>>;
    /// Iteration body; all tracked references go through `ctx`.
    fn body(&self, iter: usize, ctx: &mut IndCtx<'_, T>);
    /// Useful work of iteration `iter`.
    fn cost(&self, _iter: usize) -> f64 {
        1.0
    }
}

/// Per-array reference-range statistics of one block.
#[derive(Clone, Copy, Debug, Default)]
struct RangeStats {
    max_exposed_read: Option<usize>,
    min_write: Option<usize>,
}

/// Per-block speculative state of one doall pass.
#[derive(Debug)]
struct PassState<T> {
    privs: HashMap<(u32, usize), T, FxBuildHasher>,
    ranges: Vec<RangeStats>,
    /// Bump count of each executed iteration, in order.
    bumps: Vec<u32>,
}

impl<T: Value> PassState<T> {
    fn new(num_arrays: usize) -> Self {
        PassState {
            privs: HashMap::default(),
            ranges: vec![RangeStats::default(); num_arrays],
            bumps: Vec::new(),
        }
    }
}

/// The body's view of one iteration of an induction loop.
pub struct IndCtx<'a, T: Value = f64> {
    counter: usize,
    bumps: u32,
    shared: &'a [SharedBuf<T>],
    /// `None` in the sequential fallback (direct references).
    state: Option<&'a mut PassState<T>>,
    writer: u32,
    extra_cost: f64,
}

impl<'a, T: Value> IndCtx<'a, T> {
    /// The current induction-counter value.
    #[inline]
    pub fn counter(&self) -> usize {
        self.counter
    }

    /// Conditionally increment the induction counter.
    #[inline]
    pub fn bump(&mut self) {
        self.counter += 1;
        self.bumps += 1;
    }

    /// Read element `i` of tracked array `a` (by declaration index).
    #[inline]
    pub fn read(&mut self, a: usize, i: usize) -> T {
        match &mut self.state {
            Some(st) => {
                if let Some(&v) = st.privs.get(&(a as u32, i)) {
                    v
                } else {
                    let r = &mut st.ranges[a];
                    r.max_exposed_read = Some(r.max_exposed_read.map_or(i, |m| m.max(i)));
                    // SAFETY: speculative passes never write shared.
                    unsafe { self.shared[a].get(i) }
                }
            }
            // SAFETY: sequential fallback — single thread.
            None => unsafe { self.shared[a].get(i) },
        }
    }

    /// Write element `i` of tracked array `a`.
    #[inline]
    pub fn write(&mut self, a: usize, i: usize, v: T) {
        match &mut self.state {
            Some(st) => {
                let r = &mut st.ranges[a];
                r.min_write = Some(r.min_write.map_or(i, |m| m.min(i)));
                st.privs.insert((a as u32, i), v);
            }
            // SAFETY: sequential fallback — single thread.
            None => unsafe { self.shared[a].set(i, v, self.writer) },
        }
    }

    /// Add extra virtual cost to this iteration.
    #[inline]
    pub fn charge(&mut self, cost: f64) {
        self.extra_cost += cost;
    }
}

/// Result of an induction-loop run.
pub struct InductionResult<T: Value> {
    /// Final tracked-array contents, in declaration order.
    pub arrays: Vec<(&'static str, Vec<T>)>,
    /// Whether the range test validated the two-pass parallel scheme.
    pub test_passed: bool,
    /// Final counter value.
    pub final_counter: usize,
    /// Timing report: two doall stages on success, one doall plus a
    /// sequential stage on failure.
    pub report: RunReport,
}

/// Execute `lp` with the speculative induction-variable technique on
/// `p` processors.
pub fn run_induction<T: Value>(
    lp: &dyn InductionLoop<T>,
    p: usize,
    exec: ExecMode,
    cost: CostModel,
) -> InductionResult<T> {
    assert!(p > 0);
    let n = lp.num_iters();
    let decls = lp.arrays();
    let num_arrays = decls.len();
    let names: Vec<&'static str> = decls.iter().map(|d| d.name).collect();
    let mut shared: Vec<SharedBuf<T>> = decls.into_iter().map(|d| SharedBuf::new(d.init)).collect();
    let initial = lp.initial_counter();
    let executor = Executor::with_procs(exec, p);
    let schedule = BlockSchedule::even(0..n, p);
    let mut report = RunReport {
        sequential_work: (0..n).map(|i| lp.cost(i)).sum(),
        ..Default::default()
    };

    // Pass 1: zero-offset speculation, collect bumps + ranges.
    let mut states: Vec<PassState<T>> = (0..p).map(|_| PassState::new(num_arrays)).collect();
    let timing = run_pass(lp, &executor, &schedule, &shared, &mut states, |_| initial);
    let mut stage1 = StageStats {
        loop_time: timing.0,
        total_work: timing.1,
        iters_attempted: n,
        wall_seconds: timing.2,
        ..Default::default()
    };
    stage1.overhead.add(OverheadKind::Sync, cost.sync);

    // Prefix-sum the per-iteration bump counts into exact offsets.
    let mut bump_counts = vec![0usize; n];
    for (st, b) in states.iter().zip(schedule.blocks()) {
        for (k, &c) in st.bumps.iter().enumerate() {
            bump_counts[b.range.start + k] = c as usize;
        }
    }
    let offsets = exclusive_prefix_sum_usize(&bump_counts);
    let total_bumps = offsets[n];
    stage1
        .overhead
        .add(OverheadKind::Analysis, n as f64 * cost.analysis_per_ref);

    report.stages.push(stage1);

    // Pass 2: repeat the execution with the exact offsets. Only this
    // pass's reference ranges are authoritative: phase 1's zero-offset
    // coordinates can misclassify a read that lands in another block's
    // (shifted) write range as covered.
    let saved_bumps: Vec<Vec<u32>> = states.iter().map(|st| st.bumps.clone()).collect();
    for st in &mut states {
        *st = PassState::new(num_arrays);
    }
    let timing = run_pass(lp, &executor, &schedule, &shared, &mut states, |iter| {
        initial + offsets[iter]
    });
    let mut stage2 = StageStats {
        loop_time: timing.0,
        total_work: timing.1,
        iters_attempted: n,
        wall_seconds: timing.2,
        ..Default::default()
    };
    stage2
        .overhead
        .add(OverheadKind::Analysis, n as f64 * cost.analysis_per_ref);

    // Range test on pass-2 (absolute) coordinates: every exposed read
    // must fall strictly below every write, so no read consumed data
    // any iteration produced. Additionally the per-iteration bump
    // counts must be stable across passes, or the offsets themselves
    // were speculative garbage.
    let mut test_passed = states
        .iter()
        .zip(&saved_bumps)
        .all(|(st, old)| st.bumps == *old);
    for a in 0..num_arrays {
        let max_read = states
            .iter()
            .filter_map(|st| st.ranges[a].max_exposed_read)
            .max();
        let min_write = states.iter().filter_map(|st| st.ranges[a].min_write).min();
        if let (Some(r), Some(w)) = (max_read, min_write) {
            if r >= w {
                test_passed = false;
            }
        }
    }

    let mut final_counter = initial + total_bumps;
    if test_passed {
        // Commit by last value in block order.
        stage2.iters_committed = n;
        let mut committed = 0usize;
        for (pos, st) in states.iter().enumerate() {
            // One epoch per block: consecutive blocks legitimately
            // overlap on the temporarily extended slot, and the commit
            // is sequential in block order (last value wins).
            for buf in &mut shared {
                buf.new_epoch();
            }
            let mut entries: Vec<_> = st.privs.iter().collect();
            entries.sort_by_key(|((a, i), _)| (*a, *i));
            committed = committed.max(entries.len());
            for (&(a, i), &v) in entries {
                // SAFETY: single-threaded commit; block order gives
                // last-value semantics for the one-slot overlap.
                unsafe { shared[a as usize].set(i, v, pos as u32) };
            }
        }
        stage2.overhead.add(
            OverheadKind::Commit,
            committed as f64 * cost.commit_per_elem,
        );
        stage2.overhead.add(OverheadKind::Sync, cost.sync);
        report.stages.push(stage2);
    } else {
        // Fallback: sequential re-execution with the true counter.
        // Speculative passes never touched shared state, so no
        // restoration is needed.
        stage2.overhead.add(OverheadKind::Sync, cost.sync);
        report.stages.push(stage2);
        report.restarts += 1;
        let (counter, work) = sequential_pass(lp, &mut shared);
        final_counter = counter;
        let mut seq = StageStats {
            loop_time: work,
            total_work: work,
            iters_attempted: n,
            iters_committed: n,
            ..Default::default()
        };
        seq.overhead.add(OverheadKind::Sync, cost.sync);
        report.stages.push(seq);
    }

    report.sum_wall_seconds();
    let arrays = names
        .into_iter()
        .zip(shared.iter_mut().map(SharedBuf::to_vec))
        .collect();
    InductionResult {
        arrays,
        test_passed,
        final_counter,
        report,
    }
}

/// Execute `lp` sequentially — no speculation, the true counter
/// threaded through every iteration — and return the final tracked
/// arrays and the final counter: the ground truth [`run_induction`] is
/// checked against, and what it degenerates to when its range test
/// fails.
pub fn run_induction_sequential<T: Value>(
    lp: &dyn InductionLoop<T>,
) -> (Vec<(&'static str, Vec<T>)>, usize) {
    let (names, mut shared): (Vec<_>, Vec<_>) = lp
        .arrays()
        .into_iter()
        .map(|d| (d.name, SharedBuf::new(d.init)))
        .unzip();
    let (counter, _) = sequential_pass(lp, &mut shared);
    let arrays = shared.into_iter().map(SharedBuf::into_vec);
    (names.into_iter().zip(arrays).collect(), counter)
}

/// The sequential execution itself, over `shared` in place; returns the
/// final counter and the work done.
fn sequential_pass<T: Value>(
    lp: &dyn InductionLoop<T>,
    shared: &mut [SharedBuf<T>],
) -> (usize, f64) {
    for buf in shared.iter_mut() {
        buf.new_epoch();
    }
    let mut counter = lp.initial_counter();
    let mut work = 0.0;
    for iter in 0..lp.num_iters() {
        let mut ctx = IndCtx {
            counter,
            bumps: 0,
            shared,
            state: None,
            writer: 0,
            extra_cost: 0.0,
        };
        lp.body(iter, &mut ctx);
        counter = ctx.counter;
        work += lp.cost(iter) + ctx.extra_cost;
    }
    (counter, work)
}

/// Run one speculative doall pass; returns (critical path, total work,
/// wall seconds).
fn run_pass<T: Value>(
    lp: &dyn InductionLoop<T>,
    executor: &Executor,
    schedule: &BlockSchedule,
    shared: &[SharedBuf<T>],
    states: &mut [PassState<T>],
    base: impl Fn(usize) -> usize + Sync,
) -> (f64, f64, f64) {
    let timing = executor.run_blocks(states, |pos, st| {
        st.bumps.clear();
        let mut total = 0.0;
        let range = schedule.blocks()[pos].range.clone();
        // Within a block the counter is continuous: later iterations
        // start where the previous one left off.
        let mut carry = 0usize;
        for iter in range.clone() {
            let mut ctx = IndCtx {
                counter: base(range.start) + carry,
                bumps: 0,
                shared,
                state: Some(st),
                writer: pos as u32,
                extra_cost: 0.0,
            };
            lp.body(iter, &mut ctx);
            let bumps = ctx.bumps;
            let extra = ctx.extra_cost;
            carry += bumps as usize;
            st.bumps.push(bumps);
            total += lp.cost(iter) + extra;
        }
        total
    });
    (
        timing.critical_path(),
        timing.total_work(),
        timing.wall_seconds,
    )
}
