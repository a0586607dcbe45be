//! The classic (non-recursive) LRPD test — the baseline the R-LRPD
//! generalizes.
//!
//! One speculative doall over the whole iteration space; if the test
//! detects *any* cross-processor dependence, everything is discarded
//! (untested writes rolled back, nothing committed) and the loop
//! re-executes **sequentially from the start**. For a fully parallel
//! loop this is optimal; for a loop with even one cross-processor flow
//! dependence it pays the entire speculative execution as pure slowdown
//! — exactly the behaviour the R-LRPD test was designed to eliminate.

use crate::driver::{RunConfig, RunResult};
use crate::engine::{Engine, EngineCfg};
use crate::error::RlrpdError;
use crate::report::RunReport;
use crate::spec_loop::SpecLoop;
use crate::stages::sequential_fallback;
use crate::value::Value;
use rlrpd_runtime::BlockSchedule;

/// Run `lp` under the classic LRPD test: speculate once, re-execute
/// sequentially on failure. Panics on an unrecoverable fault; see
/// [`try_run_classic_lrpd`] for the fallible surface.
pub fn run_classic_lrpd<T: Value>(lp: &dyn SpecLoop<T>, cfg: &RunConfig) -> RunResult<T> {
    try_run_classic_lrpd(lp, cfg).unwrap_or_else(|e| panic!("classic LRPD run failed: {e}"))
}

/// Fallible classic LRPD: a panic during the speculative doall is
/// contained (the test simply fails and the loop re-executes
/// sequentially — classic LRPD's recovery is always total); a panic
/// during the sequential re-execution is a genuine
/// [`RlrpdError::ProgramFault`].
pub fn try_run_classic_lrpd<T: Value>(
    lp: &dyn SpecLoop<T>,
    cfg: &RunConfig,
) -> Result<RunResult<T>, RlrpdError> {
    let engine_cfg = EngineCfg {
        commit_prefix_on_failure: false, // discard everything on failure
        ..cfg.engine_cfg()
    };
    let mut engine = Engine::new(lp, engine_cfg, false);
    let n = engine.n;
    let mut report = RunReport {
        sequential_work: engine.sequential_work(),
        ..Default::default()
    };

    let schedule = BlockSchedule::even(0..n, cfg.p);
    let outcome = engine.run_stage(&schedule)?;
    let arcs = outcome.arcs.clone();
    let failed = outcome.violation.is_some() && outcome.exit.is_none();
    report.exited_at = outcome.exit;
    report.stages.push(outcome.stats);

    if failed {
        report.restarts += 1;
        // Sequential re-execution from (restored) pristine state.
        sequential_fallback(&mut engine, cfg, &mut report, 0, &mut None)?;
    }

    report.sum_wall_seconds();
    Ok(RunResult {
        arrays: engine.arrays_out(),
        report,
        arcs,
    })
}
