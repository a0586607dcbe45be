//! Chaos suite for the subprocess fleet: SIGKILL'd, hung, and
//! divergent workers at seeded dispatch points must never change the
//! final state — every run below ends byte-identical to a sequential
//! execution of the same loop, with the recovery visible on the
//! [`RunReport`] (respawns, or a `WorkerLoss` fallback once the budget
//! is gone).

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

use rlrpd_core::driver::{FallbackReason, RunConfig, RunPlan, Runner, Strategy};
use rlrpd_core::remote::{
    BlockDispatcher, BlockReply, BlockRequest, DistConnector, TransportStats, WireHello, WorkerLoss,
};
use rlrpd_core::{run_sequential, FaultPlan, RunReport, WindowConfig};
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

/// Run `SPEC` over the fleet `connector` launches; the run must stay
/// distributed and end byte-identical to sequential execution. Returns
/// its report.
fn distributed_run_report(strategy: Strategy, connector: &mut dyn DistConnector) -> RunReport {
    let lp = resolve_spec(SPEC).expect("registry spec");
    let mut cfg = RunConfig::new(4);
    cfg.strategy = strategy;
    let got = Runner::new(cfg)
        .execute(
            lp.as_ref(),
            RunPlan {
                fleet: Some((SPEC, connector)),
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
    got.report
}

/// Run `SPEC` distributed under `fault` and assert the final arrays
/// match a sequential execution exactly.
fn assert_chaos_run_matches_sequential(
    strategy: Strategy,
    fault: Option<FaultPlan>,
    min_respawns: usize,
) {
    let report = distributed_run_report(strategy, &mut launcher(chaos_policy(), fault));
    assert!(report.wire_bytes() > 0, "{strategy:?}: no transport stats");
    assert!(
        report.respawns() >= min_respawns,
        "{strategy:?}: expected >= {min_respawns} respawns, saw {}",
        report.respawns()
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

// ---------------------------------------------------------------------
// The deferred broadcast. A commit record is queued per worker and
// leaves with that worker's next block request; a worker that dies in
// between is owed nothing twice — its replacement is replayed the
// history, which holds the record, and starts with an empty queue. A
// record delivered twice would fail the replacement's chain check and
// cost one more respawn, so an exact respawn count is the
// exactly-once assertion.
// ---------------------------------------------------------------------

/// Wraps a fleet: after the `after`-th commit broadcast — the record
/// queued, the next stage's requests not yet sent — SIGKILLs the worker
/// `pidfile` lists first and waits until it is dead.
struct KillBetweenStages {
    fleet: Box<dyn BlockDispatcher>,
    pidfile: PathBuf,
    after: usize,
    broadcasts: usize,
}

impl BlockDispatcher for KillBetweenStages {
    fn broadcast(&mut self, record: &[u8]) -> Result<(), WorkerLoss> {
        self.fleet.broadcast(record)?;
        self.broadcasts += 1;
        if self.broadcasts == self.after {
            let pids = std::fs::read_to_string(&self.pidfile).expect("worker pid file");
            let pid = pids.lines().next().expect("a worker started").to_string();
            let killed = Command::new("kill").args(["-9", &pid]).status();
            assert!(killed.is_ok_and(|s| s.success()), "kill -9 {pid}");
            // Wait until it is dead to the last thread: the leader a
            // zombie (the fleet has not reaped it yet) and no other task
            // left, so its end of the pipes is closed and the next
            // write to it fails instead of vanishing with it.
            let (stat, tasks) = (format!("/proc/{pid}/stat"), format!("/proc/{pid}/task"));
            while std::fs::read_to_string(&stat).is_ok_and(|s| !s.contains(") Z "))
                || std::fs::read_dir(&tasks).is_ok_and(|t| t.count() > 1)
            {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    fn dispatch(&mut self, reqs: &[BlockRequest]) -> Result<Vec<BlockReply>, WorkerLoss> {
        self.fleet.dispatch(reqs)
    }

    fn take_stats(&mut self) -> TransportStats {
        self.fleet.take_stats()
    }
}

/// Launches workers through a shell that appends its pid to `pidfile`
/// and then *becomes* the worker, so the file lists worker pids in
/// spawn order.
struct KillingConnector {
    launcher: DistLauncher,
    pidfile: PathBuf,
    after: usize,
}

impl DistConnector for KillingConnector {
    fn connect(&mut self, hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
        Ok(Box::new(KillBetweenStages {
            fleet: self.launcher.connect(hello)?,
            pidfile: self.pidfile.clone(),
            after: self.after,
            broadcasts: 0,
        }))
    }
}

/// Run `SPEC` over a fleet one of whose workers is killed after the
/// second commit broadcast, with `fault` riding the block requests as
/// well; the run must stay distributed, verify, and respawn exactly
/// `respawns` times.
fn assert_kill_between_stages_recovers(
    strategy: Strategy,
    fault: Option<FaultPlan>,
    respawns: usize,
    tag: &str,
) {
    let pidfile = std::env::temp_dir().join(format!(
        "rlrpd-chaos-pids-{tag}-{strategy:?}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&pidfile);
    let script = format!(
        "echo $$ >> '{}'; exec '{}'",
        pidfile.display(),
        worker_bin().display()
    );
    let mut launcher = DistLauncher::new(PathBuf::from("/bin/sh"), vec!["-c".into(), script])
        .with_policy(chaos_policy());
    if let Some(f) = fault {
        launcher = launcher.with_fault(Arc::new(f));
    }
    let mut connector = KillingConnector {
        launcher,
        pidfile: pidfile.clone(),
        after: 2,
    };
    let report = distributed_run_report(strategy, &mut connector);
    let _ = std::fs::remove_file(&pidfile);
    assert_eq!(
        report.respawns(),
        respawns,
        "{strategy:?}: a replacement that saw a commit record twice (or not at all) dies of it"
    );
}

#[test]
fn worker_killed_between_stages_is_replayed_each_commit_record_once() {
    for strategy in strategies() {
        assert_kill_between_stages_recovers(strategy, None, 1, "between");
    }
}

#[test]
fn worker_killed_in_the_first_dispatch_after_a_respawn_is_replayed_once_too() {
    // Two broadcasts precede the kill, so the dead worker is found — and
    // replaced — by the third stage's dispatch, whose block requests
    // carry ordinals 8 and up (four per stage, one more for the write
    // that found the corpse). Ordinal 10 is in that same dispatch: it
    // kills a worker that was just replayed, or the survivor whose
    // queue was just flushed.
    for strategy in [
        Strategy::Rd,
        Strategy::SlidingWindow(WindowConfig::fixed(17)),
    ] {
        assert_kill_between_stages_recovers(
            strategy,
            Some(FaultPlan::new().kill_worker_at(10)),
            2,
            "after-respawn",
        );
    }
}
