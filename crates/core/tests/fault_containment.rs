//! Fault-containment acceptance suite.
//!
//! A panic inside a speculative block is *not* a program fault until
//! proven so: the R-LRPD machinery already knows how to discard an
//! uncommitted suffix and re-execute it, so a contained panic is
//! treated exactly like a dependence violation of its block. These
//! tests pin down the guarantees:
//!
//! * an injected panic in any iteration, under every strategy and
//!   executor mode, leaves the final arrays byte-identical to a
//!   sequential execution, and the run reports the contained fault;
//! * a fault that re-fires from sequential-equivalent state (a fully
//!   committed prefix) surfaces as [`RlrpdError::ProgramFault`] — the
//!   process never aborts;
//! * the [`FallbackPolicy`] bounds (restart budget, virtual-time
//!   watchdog) and checkpoint faults all degrade to direct sequential
//!   execution of the remainder, again with byte-identical results.

use rlrpd_core::{
    run_sequential, ArrayDecl, ArrayId, CheckpointPolicy, ClosureLoop, ExecMode, FallbackPolicy,
    FallbackReason, FaultPlan, RlrpdError, RunConfig, Runner, ShadowKind, SpecLoop, Strategy,
    WindowConfig,
};
use rlrpd_core::{AdaptRule, RunResult};
use std::panic::resume_unwind;
use std::sync::Arc;

const A: ArrayId = ArrayId(0);
const U: ArrayId = ArrayId(1);

/// Every strategy the driver knows, including both adaptive rules and
/// two window sizes.
fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::AdaptiveRd(AdaptRule::ModelEq4),
        Strategy::AdaptiveRd(AdaptRule::Measured),
        Strategy::SlidingWindow(WindowConfig::fixed(7)),
        Strategy::SlidingWindow(WindowConfig::fixed(64)),
    ]
}

/// A partially parallel loop (backward flow dependence of distance 3)
/// that also keeps an untested array live, so fault recovery must
/// restore speculatively clobbered untested state.
fn dep3_loop(n: usize) -> ClosureLoop<i64> {
    ClosureLoop::new(
        n,
        move || {
            vec![
                ArrayDecl::tested("A", vec![0i64; n], ShadowKind::Dense),
                ArrayDecl::untested("U", vec![0i64; n]),
            ]
        },
        |i, ctx| {
            let v = ctx.read(A, i.saturating_sub(3));
            ctx.write(A, i, v + 1);
            ctx.write(U, i, v + i as i64);
        },
    )
}

/// A fully parallel loop — containment must work even when speculation
/// would otherwise succeed in a single stage.
fn parallel_loop(n: usize) -> ClosureLoop<i64> {
    ClosureLoop::new(
        n,
        move || vec![ArrayDecl::tested("A", vec![0i64; n], ShadowKind::Dense)],
        |i, ctx| {
            ctx.write(A, i, 3 * i as i64 + 1);
        },
    )
}

/// Seeds for the seeded-panic sweep; `RLRPD_FAULT_SEED` (the CI
/// fault-matrix hook) narrows the sweep to one externally chosen seed.
fn seeds() -> Vec<u64> {
    match std::env::var("RLRPD_FAULT_SEED") {
        Ok(v) => vec![v
            .parse()
            .expect("RLRPD_FAULT_SEED must be an unsigned integer")],
        Err(_) => vec![1, 2, 3, 5, 8, 13],
    }
}

fn run_with_plan(
    lp: &ClosureLoop<i64>,
    cfg: RunConfig,
    plan: FaultPlan,
) -> Result<RunResult<i64>, RlrpdError> {
    Runner::new(cfg).with_fault(Arc::new(plan)).try_run(lp)
}

/// Assert that a run with `plan` injected completes, matches the
/// sequential arrays byte-for-byte, and actually contained a fault.
fn assert_contained(
    lp: &ClosureLoop<i64>,
    cfg: RunConfig,
    plan: FaultPlan,
    label: &str,
) -> RunResult<i64> {
    let (seq, _) = run_sequential(lp);
    let res = run_with_plan(lp, cfg, plan)
        .unwrap_or_else(|e| panic!("{label}: injected fault was not contained: {e}"));
    for (name, data) in &seq {
        assert_eq!(res.array(name), &data[..], "{label}: array {name} diverged");
    }
    assert!(
        res.report.contained_faults() >= 1,
        "{label}: fault was injected but never recorded"
    );
    res
}

#[test]
fn seeded_panics_are_contained_under_every_strategy() {
    let lp = dep3_loop(96);
    for seed in seeds() {
        for strategy in strategies() {
            for p in [1usize, 3, 4] {
                let cfg = RunConfig::new(p)
                    .with_strategy(strategy)
                    .with_checkpoint(CheckpointPolicy::Eager);
                let plan = FaultPlan::seeded_panic(seed, lp.num_iters());
                let res = assert_contained(
                    &lp,
                    cfg,
                    plan,
                    &format!("seed={seed} strategy={strategy:?} p={p}"),
                );
                // The one-shot site fires exactly once.
                assert_eq!(res.report.contained_faults(), 1);
                assert!(res.report.fallback.is_none(), "no fallback was configured");
            }
        }
    }
}

#[test]
fn seeded_panics_are_contained_on_real_executors() {
    let lp = dep3_loop(64);
    let mode = ExecMode::Pooled;
    for seed in seeds() {
        let cfg = RunConfig::new(4).with_exec(mode);
        let plan = FaultPlan::seeded_panic(seed, lp.num_iters());
        assert_contained(&lp, cfg, plan, &format!("mode={mode:?} seed={seed}"));
    }
}

#[test]
fn panic_in_any_single_iteration_is_contained() {
    // Exhaustive over the iteration space of a small loop: wherever the
    // panic lands — committed prefix block, faulted block, suffix — the
    // result is sequential.
    let lp = dep3_loop(32);
    for iter in 0..32 {
        let cfg = RunConfig::new(4);
        let plan = FaultPlan::new().panic_at_iter(iter);
        assert_contained(&lp, cfg, plan, &format!("iter={iter}"));
    }
}

#[test]
fn panic_on_a_fully_parallel_loop_costs_one_restart() {
    let lp = parallel_loop(40);
    let cfg = RunConfig::new(4);
    let plan = FaultPlan::new().panic_at_iter(25);
    let res = assert_contained(&lp, cfg, plan, "parallel loop");
    // The fault is the only reason to restart; the prefix before the
    // faulted block still commits in stage one.
    assert_eq!(res.report.restarts, 1);
    let first = &res.report.stages[0];
    assert!(
        first.iters_committed > 0,
        "prefix blocks before the fault must commit"
    );
    assert!(first.iters_committed < 40, "faulted block must not commit");
}

#[test]
fn injected_delays_perturb_time_but_never_results() {
    let lp = dep3_loop(48);
    let (seq, _) = run_sequential(&lp);
    for strategy in strategies() {
        let mut plan = FaultPlan::new();
        for proc in 0..4 {
            plan = plan.delay_at(proc, 11, 500.0).delay_at(proc, 30, 250.0);
        }
        let cfg = RunConfig::new(4).with_strategy(strategy);
        let res = run_with_plan(&lp, cfg, plan).expect("delays are not faults");
        assert_eq!(res.array("A"), &seq[0].1[..], "strategy={strategy:?}");
        assert_eq!(res.report.contained_faults(), 0);
    }
}

#[test]
fn genuine_fault_surfaces_as_program_fault_not_abort() {
    // A bug in the loop body itself: iteration 29 always panics. The
    // first firing is retried as a transient; when it re-fires from a
    // fully committed prefix the driver must report ProgramFault.
    let n = 64;
    let mk = || {
        ClosureLoop::<i64>::new(
            n,
            move || vec![ArrayDecl::tested("A", vec![0i64; n], ShadowKind::Dense)],
            |i, ctx| {
                if i == 29 {
                    // resume_unwind skips the panic hook, keeping test
                    // output clean — the payload is still a panic.
                    resume_unwind(Box::new("deterministic bug in iteration 29".to_string()));
                }
                let v = ctx.read(A, i.saturating_sub(3));
                ctx.write(A, i, v + 1);
            },
        )
    };
    for strategy in strategies() {
        for p in [1usize, 4] {
            let err = Runner::new(RunConfig::new(p).with_strategy(strategy))
                .try_run(&mk())
                .expect_err("a deterministic panic must not silently succeed");
            match err {
                RlrpdError::ProgramFault { iter, message } => {
                    assert_eq!(iter, 29, "strategy={strategy:?} p={p}");
                    assert!(
                        message.contains("deterministic bug"),
                        "panic payload lost: {message}"
                    );
                }
                other => panic!("strategy={strategy:?} p={p}: expected ProgramFault, got {other}"),
            }
        }
    }
}

#[test]
fn genuine_fault_is_reported_through_the_sequential_fallback_too() {
    // With a zero restart budget the driver falls back to run_direct,
    // which must also convert the panic into ProgramFault.
    let n = 48;
    let lp = ClosureLoop::<i64>::new(
        n,
        move || vec![ArrayDecl::tested("A", vec![0i64; n], ShadowKind::Dense)],
        |i, ctx| {
            if i == 37 {
                resume_unwind(Box::new("bug at 37"));
            }
            let v = ctx.read(A, i.saturating_sub(3));
            ctx.write(A, i, v + 1);
        },
    );
    let cfg = RunConfig::new(4).with_fallback(FallbackPolicy::default().with_max_restarts(0));
    let err = Runner::new(cfg)
        .try_run(&lp)
        .expect_err("fallback re-executes the bug sequentially");
    match err {
        RlrpdError::ProgramFault { iter, .. } => assert_eq!(iter, 37),
        other => panic!("expected ProgramFault, got {other}"),
    }
}

#[test]
fn restart_budget_degrades_to_sequential_with_correct_arrays() {
    let lp = dep3_loop(96);
    let (seq, _) = run_sequential(&lp);
    for strategy in strategies() {
        let cfg = RunConfig::new(4)
            .with_strategy(strategy)
            .with_fallback(FallbackPolicy::default().with_max_restarts(0));
        let res = Runner::new(cfg)
            .try_run(&lp)
            .unwrap_or_else(|e| panic!("strategy={strategy:?}: {e}"));
        assert_eq!(
            res.report.fallback,
            Some(FallbackReason::MaxRestarts),
            "strategy={strategy:?}: dep3 violates, so a zero budget must trip"
        );
        for (name, data) in &seq {
            assert_eq!(res.array(name), &data[..], "strategy={strategy:?}");
        }
        // Every iteration is accounted for exactly once across stages.
        let committed: usize = res.report.stages.iter().map(|s| s.iters_committed).sum();
        assert_eq!(committed, 96, "strategy={strategy:?}");
    }
}

#[test]
fn watchdog_trips_on_injected_delay_and_completes_sequentially() {
    let lp = dep3_loop(48);
    let (seq, _) = run_sequential(&lp);
    for strategy in strategies() {
        // A colossal delay on iteration 5 blows the virtual-time budget
        // in the first stage, whichever processor executes it.
        let mut plan = FaultPlan::new();
        for proc in 0..4 {
            plan = plan.delay_at(proc, 5, 1.0e7);
        }
        let cfg = RunConfig::new(4)
            .with_strategy(strategy)
            .with_fallback(FallbackPolicy::default().with_watchdog(4.0));
        let res =
            run_with_plan(&lp, cfg, plan).unwrap_or_else(|e| panic!("strategy={strategy:?}: {e}"));
        assert_eq!(
            res.report.fallback,
            Some(FallbackReason::Watchdog),
            "strategy={strategy:?}"
        );
        for (name, data) in &seq {
            assert_eq!(res.array(name), &data[..], "strategy={strategy:?}");
        }
    }
}

#[test]
fn checkpoint_fault_falls_back_from_the_commit_point() {
    let lp = dep3_loop(64);
    let (seq, _) = run_sequential(&lp);
    for strategy in strategies() {
        for stage in [0usize, 1] {
            let plan = FaultPlan::new().checkpoint_fault_at(stage);
            let cfg = RunConfig::new(4)
                .with_strategy(strategy)
                .with_checkpoint(CheckpointPolicy::Eager);
            let res = run_with_plan(&lp, cfg, plan)
                .unwrap_or_else(|e| panic!("strategy={strategy:?} stage={stage}: {e}"));
            assert_eq!(
                res.report.fallback,
                Some(FallbackReason::CheckpointFault),
                "strategy={strategy:?} stage={stage}"
            );
            for (name, data) in &seq {
                assert_eq!(
                    res.array(name),
                    &data[..],
                    "strategy={strategy:?} stage={stage}"
                );
            }
        }
    }
}

#[test]
fn stage_limit_is_an_error_not_a_hang() {
    let lp = dep3_loop(64);
    let mut cfg = RunConfig::new(4);
    cfg.max_stages = 1;
    let err = Runner::new(cfg)
        .try_run(&lp)
        .expect_err("one stage cannot finish a partially parallel loop");
    assert!(matches!(err, RlrpdError::StageLimit { max_stages: 1 }));
}

#[test]
fn default_policy_never_changes_a_fault_free_run() {
    // FallbackPolicy::default() must be inert: same decisions as a run
    // with no policy knobs touched at all.
    let lp = dep3_loop(72);
    let base = Runner::new(RunConfig::new(4)).run(&lp);
    let with_default = Runner::new(RunConfig::new(4).with_fallback(FallbackPolicy::default()))
        .try_run(&lp)
        .expect("default policy is inert");
    assert_eq!(base.array("A"), with_default.array("A"));
    assert_eq!(base.report.restarts, with_default.report.restarts);
    assert_eq!(with_default.report.fallback, None);
    assert_eq!(with_default.report.contained_faults(), 0);
}
