//! Speculative parallelization of loops with a *conditionally
//! incremented induction variable* — the paper's EXTEND_400 / FPTRAK_300
//! technique (Section 5.2).
//!
//! The pattern: a counter (LSTTRK) indexes the live end of a set of
//! arrays; each iteration may conditionally bump it and writes near the
//! counter, while reads target the read-only prefix below the initial
//! counter value. The counter's values cannot be precomputed, so the
//! loop resists both static analysis and an inspector.
//!
//! [`run_induction`] is a policy over the engine every loop runs on —
//! its block body, views, commit and direct execution — with the
//! counter in [`crate::IterCtx`] ([`SpecLoop::initial_counter`]):
//!
//! 1. **First doall**: every block from the initial counter (a *zero
//!    offset*), reading back each block's bump total.
//! 2. A **running sum** of the totals gives each block its true start.
//! 3. **Second doall** on fresh views from the true starts.
//! 4. **Range test** over its marks: per array, every exposed read below
//!    every write, and each block bumping as often as in pass 1 (per
//!    block suffices: the counter carries inside a block).
//! 5. **Commit** in block order: last value resolves the one-slot
//!    overlap between blocks ("at most one element needs to be
//!    privatized").
//!
//! A failed test, or a panic or exit in either doall, re-executes the
//! loop directly: the classic-LRPD fallback. Contract: every array is
//! tested and every write is at a counter-derived index; reads may
//! also target the read-only prefix.

use crate::driver::RunConfig;
use crate::engine::Engine;
use crate::error::RlrpdError;
use crate::report::RunReport;
use crate::spec_loop::SpecLoop;
use crate::value::Value;
use crate::view::ProcView;
use rlrpd_runtime::{BlockSchedule, CostModel, ExecMode, OverheadKind, StageStats};

/// Result of an induction-loop run.
pub struct InductionResult<T: Value> {
    /// Final tracked-array contents, in declaration order.
    pub arrays: Vec<(&'static str, Vec<T>)>,
    /// Whether the range test validated the two-pass parallel scheme.
    pub test_passed: bool,
    /// Final counter value.
    pub final_counter: usize,
    /// Timing report: two doall stages on success, the doalls plus a
    /// sequential stage on failure.
    pub report: RunReport,
}

/// Execute the counter loop `lp` with the speculative induction-variable
/// technique on `p` processors. An `Err` is a genuine
/// [`RlrpdError::ProgramFault`] of the sequential fallback.
///
/// # Panics
/// Panics when `lp` has no counter or declares an untested array.
pub fn run_induction<T: Value>(
    lp: &dyn SpecLoop<T>,
    p: usize,
    exec: ExecMode,
    cost: CostModel,
) -> Result<InductionResult<T>, RlrpdError> {
    let initial = lp
        .initial_counter()
        .expect("run_induction runs a loop with a counter");
    let cfg = RunConfig::new(p).with_exec(exec).with_cost(cost);
    let mut eng = Engine::build(lp, cfg.engine_cfg(), false);
    assert!(
        eng.untested_ids.is_empty(),
        "a counter loop range-tests every array: declare each one tested"
    );
    let n = eng.n;
    let schedule = BlockSchedule::even(0..n, p);
    let mut report = RunReport {
        sequential_work: eng.sequential_work(),
        ..Default::default()
    };

    // Pass 1: zero-offset speculation, for the bump totals.
    let (first, totals) = doall(&mut eng, &schedule, &vec![initial; p]);
    report.stages.push(first);

    let mut test_passed = false;
    let mut final_counter = initial;
    if let Some(totals) = totals {
        // Pass 2 from the exact starts. Only its marks are
        // authoritative: pass 1's zero-offset coordinates can
        // misclassify a read that lands in another block's (shifted)
        // write range as covered.
        let bases: Vec<usize> = (0..p)
            .map(|q| initial + totals[..q].iter().sum::<usize>())
            .collect();
        final_counter = initial + totals.iter().sum::<usize>();
        let (mut second, again) = doall(&mut eng, &schedule, &bases);
        let (in_range, most_written) = range_test(&eng);
        test_passed = again.as_ref() == Some(&totals) && in_range;
        if test_passed {
            // Last value in block order: the commit every stage makes.
            for buf in &mut eng.shared {
                buf.new_epoch();
            }
            eng.commit(p);
            second.iters_committed = n;
            second.overhead.add(
                OverheadKind::Commit,
                most_written as f64 * cost.commit_per_elem,
            );
        }
        report.stages.push(second);
    }

    if !test_passed {
        // Fallback: direct re-execution with the true counter. The
        // doalls wrote only private views, so shared state is pristine.
        report.restarts += 1;
        let (work, exit) = eng.run_direct(0..n)?;
        final_counter = eng.counter;
        report.exited_at = exit;
        let mut seq = StageStats {
            loop_time: work,
            total_work: work,
            iters_attempted: n,
            iters_committed: n,
            threads: 1,
            ..Default::default()
        };
        seq.overhead.add(OverheadKind::Sync, cost.sync);
        report.stages.push(seq);
    }

    report.sum_wall_seconds();
    Ok(InductionResult {
        arrays: eng.arrays_out(),
        test_passed,
        final_counter,
        report,
    })
}

/// One doall of the scheme: every block on fresh views from its counter
/// `bases[pos]`. Returns the stage as the scheme charges it (execution,
/// `analysis_per_ref` per iteration, one `sync`) and each block's bump
/// total — `None` when a block panicked or exited, which the scheme
/// cannot commit.
fn doall<T: Value>(
    eng: &mut Engine<'_, T>,
    schedule: &BlockSchedule,
    bases: &[usize],
) -> (StageStats, Option<Vec<usize>>) {
    for (st, &base) in eng.states.iter_mut().zip(bases) {
        st.views.iter_mut().for_each(ProcView::clear);
        st.counter = base;
    }
    let (timing, fault) = eng.run_blocks_local(schedule, None, false);
    let n = schedule.num_iters();
    let mut stats = StageStats {
        loop_time: timing.critical_path(),
        total_work: timing.total_work(),
        iters_attempted: n,
        wall_seconds: timing.wall_seconds,
        threads: eng.executor.threads(),
        ..Default::default()
    };
    let cost = &eng.cfg.cost;
    stats
        .overhead
        .add(OverheadKind::Analysis, n as f64 * cost.analysis_per_ref);
    stats.overhead.add(OverheadKind::Sync, cost.sync);
    let clean = fault.is_none() && eng.states.iter().all(|st| st.exit_iter.is_none());
    let totals = eng.states.iter().zip(bases).map(|(st, b)| st.counter - b);
    (stats, clean.then(|| totals.collect()))
}

/// The range test over the views' marks: per array, every exposed read
/// strictly below every element a block produced (a write or a
/// reduction delta), and every touched element inside the array.
/// Returns the verdict and the most elements any one block produced,
/// summed over the arrays — what the commit is charged.
fn range_test<T: Value>(eng: &Engine<'_, T>) -> (bool, usize) {
    let slots = eng.tested_ids.len();
    let mut max_read = vec![None; slots];
    let mut min_write = vec![usize::MAX; slots];
    let mut in_bounds = true;
    let mut most = 0;
    for st in &eng.states {
        let mut produced = 0;
        for (slot, view) in st.views.iter().enumerate() {
            for (e, mark) in view.touched() {
                in_bounds &= e < eng.tested_sizes[slot];
                if mark.is_exposed_read() {
                    max_read[slot] = max_read[slot].max(Some(e));
                }
                if mark.is_dependence_source() {
                    min_write[slot] = min_write[slot].min(e);
                    produced += 1;
                }
            }
        }
        most = most.max(produced);
    }
    let disjoint = (max_read.iter().zip(&min_write)).all(|(r, &w)| r.is_none_or(|r| r < w));
    (in_bounds && disjoint, most)
}
