//! Chaos suite for the subprocess fleet: SIGKILL'd, hung, and
//! divergent workers at seeded dispatch points must never change the
//! final state — every run below ends byte-identical to a sequential
//! execution of the same loop, with the recovery visible on the
//! [`RunReport`] (respawns, or a `WorkerLoss` fallback once the budget
//! is gone).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use rlrpd_core::driver::{FallbackReason, RunConfig, RunPlan, Runner, Strategy};
use rlrpd_core::{run_sequential, FaultPlan, WindowConfig};
use rlrpd_dist::{resolve_spec, DistLauncher, DistPolicy};

/// A partially parallel loop in the wire spec registry: stride-13
/// backward flow dependences, so speculation fails and restarts many
/// times and each stage dispatches real block work.
const SPEC: &str = "rlp:array A[256] = 1;\nfor i in 0..256 { A[i] = A[max(0, i - 13)] + 1; }";

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_dist-worker"))
}

/// A fast-recovery policy so chaos runs stay quick: short deadline for
/// hang detection, short backoff, generous respawn budget.
fn chaos_policy() -> DistPolicy {
    DistPolicy {
        workers: 2,
        block_deadline: Duration::from_millis(800),
        max_respawns: 8,
        backoff: Duration::from_millis(10),
        ..DistPolicy::default()
    }
}

fn launcher(policy: DistPolicy, fault: Option<FaultPlan>) -> DistLauncher {
    let mut l = DistLauncher::new(worker_bin(), Vec::new()).with_policy(policy);
    if let Some(f) = fault {
        l = l.with_fault(Arc::new(f));
    }
    l
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::SlidingWindow(WindowConfig::fixed(17)),
    ]
}

/// Run `SPEC` distributed under `fault` and assert the final arrays
/// match a sequential execution exactly.
fn assert_chaos_run_matches_sequential(
    strategy: Strategy,
    fault: Option<FaultPlan>,
    min_respawns: usize,
) {
    let lp = resolve_spec(SPEC).expect("registry spec");
    let mut cfg = RunConfig::new(4);
    cfg.strategy = strategy;
    let mut connector = launcher(chaos_policy(), fault);
    let got = Runner::new(cfg)
        .execute(
            lp.as_ref(),
            RunPlan {
                fleet: Some((SPEC, &mut connector)),
                ..Default::default()
            },
        )
        .expect("distributed run");
    let (seq, _) = run_sequential(lp.as_ref());
    assert_eq!(
        got.arrays, seq,
        "{strategy:?}: state differs from sequential"
    );
    assert_eq!(
        got.report.fallback, None,
        "{strategy:?}: unexpected fallback"
    );
    assert!(
        got.report.wire_bytes() > 0,
        "{strategy:?}: no transport stats"
    );
    assert!(
        got.report.respawns() >= min_respawns,
        "{strategy:?}: expected >= {min_respawns} respawns, saw {}",
        got.report.respawns()
    );
}

#[test]
fn faultfree_subprocess_run_matches_sequential() {
    for strategy in strategies() {
        assert_chaos_run_matches_sequential(strategy, None, 0);
    }
}

#[test]
fn killed_worker_is_respawned_and_state_is_identical() {
    for strategy in strategies() {
        assert_chaos_run_matches_sequential(strategy, Some(FaultPlan::new().kill_worker_at(3)), 1);
    }
}

#[test]
fn hung_worker_hits_the_deadline_and_is_replaced() {
    // One strategy is enough: each hang costs a block deadline of wall
    // clock, and the recovery path is strategy-independent.
    assert_chaos_run_matches_sequential(Strategy::Rd, Some(FaultPlan::new().hang_worker_at(2)), 1);
}

#[test]
fn divergent_worker_is_rejected_and_re_dispatched() {
    for strategy in strategies() {
        assert_chaos_run_matches_sequential(
            strategy,
            Some(FaultPlan::new().corrupt_result_at(4)),
            1,
        );
    }
}

#[test]
fn compound_chaos_still_converges() {
    assert_chaos_run_matches_sequential(
        Strategy::Rd,
        Some(
            FaultPlan::new()
                .kill_worker_at(1)
                .corrupt_result_at(6)
                .kill_worker_at(9),
        ),
        3,
    );
}

#[test]
fn exhausted_respawn_budget_degrades_to_in_process_not_an_error() {
    let lp = resolve_spec(SPEC).expect("registry spec");
    let mut cfg = RunConfig::new(4);
    cfg.strategy = Strategy::Rd;
    let policy = DistPolicy {
        workers: 2,
        max_respawns: 1,
        backoff: Duration::from_millis(5),
        ..chaos_policy()
    };
    // Four kills against two slots with one respawn each: by the
    // fourth, both slots have exhausted their budgets and quarantined,
    // no active worker remains, the fleet reports loss, and the engine
    // re-runs the stage on the in-process pooled path. The ordinals
    // are spaced wider than any dispatch batch — adjacent ordinals can
    // be written into the pipe of a worker already dying from the
    // previous kill and silently lost with it, which would let every
    // slot absorb only one kill and stay inside its budget.
    let fault = FaultPlan::new()
        .kill_worker_at(0)
        .kill_worker_at(10)
        .kill_worker_at(20)
        .kill_worker_at(30);
    let mut connector = launcher(policy, Some(fault));
    let got = Runner::new(cfg)
        .execute(
            lp.as_ref(),
            RunPlan {
                fleet: Some((SPEC, &mut connector)),
                ..Default::default()
            },
        )
        .expect("degraded run still completes");
    let (seq, _) = run_sequential(lp.as_ref());
    assert_eq!(got.arrays, seq, "degraded state differs from sequential");
    assert_eq!(
        got.report.fallback,
        Some(FallbackReason::WorkerLoss),
        "worker loss must be recorded on the report"
    );
    assert!(
        got.report.respawns() >= 1,
        "the spent respawn budget belongs on the report"
    );
}

#[test]
fn flapping_worker_is_quarantined_while_the_fleet_finishes() {
    // Three kills across two slots with a one-respawn budget each: by
    // pigeonhole one slot flaps twice and is quarantined, but the other
    // survives — the fleet shrinks and the run completes distributed,
    // with the quarantine on the report instead of a fallback. Spaced
    // ordinals (see above) make every kill land on a live worker.
    let lp = resolve_spec(SPEC).expect("registry spec");
    let mut cfg = RunConfig::new(4);
    cfg.strategy = Strategy::Rd;
    let policy = DistPolicy {
        workers: 2,
        max_respawns: 1,
        backoff: Duration::from_millis(5),
        ..chaos_policy()
    };
    let fault = FaultPlan::new()
        .kill_worker_at(0)
        .kill_worker_at(10)
        .kill_worker_at(20);
    let mut connector = launcher(policy, Some(fault));
    let got = Runner::new(cfg)
        .execute(
            lp.as_ref(),
            RunPlan {
                fleet: Some((SPEC, &mut connector)),
                ..Default::default()
            },
        )
        .expect("shrunken fleet still completes");
    let (seq, _) = run_sequential(lp.as_ref());
    assert_eq!(got.arrays, seq, "state differs from sequential");
    assert_eq!(
        got.report.fallback, None,
        "a quarantined slot must not sink the fleet"
    );
    assert!(
        got.report.quarantined() >= 1,
        "the quarantine belongs on the report"
    );
    assert!(got.report.respawns() >= 3, "three kills, three respawns");
}

#[test]
fn unresolvable_spec_degrades_to_in_process() {
    // Workers exit 64 on an unknown spec; the fleet burns its respawn
    // budget and the run completes in-process.
    let lp = resolve_spec(SPEC).expect("registry spec");
    let mut cfg = RunConfig::new(2);
    cfg.strategy = Strategy::Rd;
    let policy = DistPolicy {
        workers: 1,
        max_respawns: 1,
        backoff: Duration::from_millis(5),
        block_deadline: Duration::from_millis(400),
        ..DistPolicy::default()
    };
    let mut connector = launcher(policy, None);
    let got = Runner::new(cfg)
        .execute(
            lp.as_ref(),
            RunPlan {
                fleet: Some(("rlp:not a loop at all", &mut connector)),
                ..Default::default()
            },
        )
        .expect("run must complete in-process");
    let (seq, _) = run_sequential(lp.as_ref());
    assert_eq!(got.arrays, seq);
    assert_eq!(got.report.fallback, Some(FallbackReason::WorkerLoss));
}

#[test]
fn missing_worker_binary_degrades_at_connect() {
    let lp = resolve_spec(SPEC).expect("registry spec");
    let mut cfg = RunConfig::new(2);
    cfg.strategy = Strategy::Nrd;
    let mut connector = DistLauncher::new(PathBuf::from("/nonexistent/worker"), Vec::new());
    let got = Runner::new(cfg)
        .execute(
            lp.as_ref(),
            RunPlan {
                fleet: Some((SPEC, &mut connector)),
                ..Default::default()
            },
        )
        .expect("run must complete in-process");
    let (seq, _) = run_sequential(lp.as_ref());
    assert_eq!(got.arrays, seq);
    assert_eq!(got.report.fallback, Some(FallbackReason::WorkerLoss));
    assert_eq!(got.report.wire_bytes(), 0, "nothing ever hit a pipe");
}
