//! Shadow-memory governance on the paper's workload models, end to
//! end: TRACK (FPTRAK), SPICE (DCDCMP), and NLFILT kernels run under
//! shadow budgets stepped from generous to starvation, under every
//! fixed strategy plus the sliding window — and every run must stay
//! byte-identical to sequential execution. Budget exhaustion is never
//! an abort: the degradation ladder (representation migration → window
//! shrink → sequential fallback) absorbs it, and the report records
//! what degraded.

mod common;

use std::sync::Arc;

use common::{slice, Deck, Leg};
use rlrpd::{run_sequential, ExecMode, FallbackReason, FaultPlan, RunConfig, Runner, Strategy};

/// The acceptance bar, per model loop: its slice of the plan matrix
/// (`tests/common`) under `Leg::BudgetLadder` at `p = 4`.
const STRATEGIES: [&str; 4] = ["nrd", "rd", "adaptive", "sw:7"];

#[test]
fn track_fptrak_degrades_gracefully_under_budgets() {
    slice(&["fptrak:0"], &[Leg::BudgetLadder], &STRATEGIES, &[4]);
}

#[test]
fn spice_dcdcmp_degrades_gracefully_under_budgets() {
    slice(&["dcdcmp15:17"], &[Leg::BudgetLadder], &STRATEGIES, &[4]);
}

#[test]
fn nlfilt_degrades_gracefully_under_budgets() {
    slice(&["nlfilt:i4_50"], &[Leg::BudgetLadder], &STRATEGIES, &[4]);
}

/// Injected pressure spikes (`FaultPlan::shadow_pressure_at`) are
/// contained like speculation faults: a spike the ladder can absorb is
/// relieved by migration and the run completes speculatively; a spike
/// beyond the ladder falls back to sequential — and both remain
/// byte-identical to sequential execution. The injection is
/// deterministic: two identically-built plans produce identical runs.
#[test]
fn injected_pressure_is_contained_and_deterministic() {
    let Deck { lp, seq, .. } = Deck::named("fptrak:0");

    let peak = {
        let res = Runner::new(RunConfig::new(4).with_shadow_budget(Some(u64::MAX / 2)))
            .try_run(lp.as_ref())
            .expect("baseline");
        res.report.shadow_bytes_peak()
    };

    let run = |spike: u64| {
        let cfg = RunConfig::new(4).with_shadow_budget(Some(peak.saturating_mul(2)));
        Runner::new(cfg)
            .with_fault(Arc::new(FaultPlan::new().shadow_pressure_at(0, spike)))
            .try_run(lp.as_ref())
            .expect("pressure must be contained, never an abort")
    };

    for spike in [peak.saturating_mul(3), u64::MAX / 4] {
        let a = run(spike);
        assert_eq!(a.arrays, seq, "spike {spike}: differs from sequential");
        assert!(
            a.report.shadow_pressure_events() >= 1,
            "spike {spike}: pressure not recorded"
        );
        let b = run(spike);
        assert_eq!(
            a.arrays, b.arrays,
            "spike {spike}: nondeterministic results"
        );
        assert_eq!(
            a.report.stages.len(),
            b.report.stages.len(),
            "spike {spike}: nondeterministic schedule"
        );
        assert_eq!(a.report.restarts, b.report.restarts);
    }

    // Without a cap armed, the same injection is inert.
    let inert = Runner::new(RunConfig::new(4))
        .with_fault(Arc::new(
            FaultPlan::new().shadow_pressure_at(0, u64::MAX / 4),
        ))
        .try_run(lp.as_ref())
        .expect("inert injection");
    assert_eq!(inert.report.shadow_pressure_events(), 0);
    assert_eq!(inert.arrays, seq);
}

/// A pressured stage commits nothing, so the commit point stays where
/// it was — also when the stage is an NRD re-run whose leading blocks
/// were emptied by an earlier restart. (Those idle blocks sit parked
/// *below* the commit point; re-execution starts at the first block
/// that carries iterations, not at block 0, or a fallback would run
/// committed iterations a second time.)
#[test]
fn pressure_after_an_nrd_restart_does_not_rerun_committed_iterations() {
    use rlrpd::{ArrayDecl, ArrayId, ClosureLoop, ShadowKind};
    let (a, b) = (ArrayId(0), ArrayId(1));
    // Six blocks of 40; the first cross-block flow dependence is
    // 76 -> 87, so stage 0 commits 0..80 and stage 1 re-runs 80..240
    // with blocks 0 and 1 idle. B accumulates, so a second execution of
    // any committed iteration shows in the result.
    let lp: ClosureLoop = ClosureLoop::new(
        240,
        move || {
            vec![
                // Far larger than the 240 elements the loop touches, so
                // commit-point re-selection keeps the shadow sparse.
                ArrayDecl::tested("A", vec![1.0; 1 << 16], ShadowKind::Sparse),
                ArrayDecl::untested("B", vec![0.0; 240]),
            ]
        },
        move |i, ctx| {
            let v = if i % 29 == 0 && i >= 11 {
                ctx.read(a, i - 11)
            } else {
                i as f64
            };
            ctx.write(a, i, v * 0.5 + 1.0);
            let old = ctx.read(b, i);
            ctx.write(b, i, old + v);
        },
    );
    let (seq, _) = run_sequential(&lp);
    let cfg = RunConfig::new(6)
        .with_strategy(Strategy::Nrd)
        .with_shadow_budget(Some(1 << 20));
    // Sparse shadows sit at the floor of the ladder: the spike at
    // stage 1 is unrelieved and the run falls back from the commit point.
    let res = Runner::new(cfg)
        .with_fault(Arc::new(FaultPlan::new().shadow_pressure_at(1, 1 << 30)))
        .try_run(&lp)
        .expect("pressure is never an abort");
    assert_eq!(res.report.fallback, Some(FallbackReason::ShadowBudget));
    assert_eq!(
        res.report.stages.last().unwrap().iters_attempted,
        160,
        "the fallback runs 80..240 and nothing below the commit point"
    );
    assert_eq!(res.arrays, seq);
}

/// The distributed leg: the budget rides the hello, so real `rlrpd
/// worker` subprocesses enforce the same cap — a tight budget degrades
/// the whole fleet's representations identically and the run still
/// matches sequential execution byte for byte.
#[test]
fn distributed_runs_enforce_the_budget_fleet_wide() {
    for spec in ["fptrak:0", "dcdcmp15:17"] {
        let deck = Deck::named(spec);
        let (lp, seq) = (&deck.lp, &deck.seq);
        let peak = {
            let res = Runner::new(RunConfig::new(4).with_shadow_budget(Some(u64::MAX / 2)))
                .try_run(lp.as_ref())
                .expect("baseline");
            res.report.shadow_bytes_peak()
        };
        for budget in [peak.saturating_mul(2), (peak / 4).max(1)] {
            let mut connector = common::launcher(None);
            let cfg = RunConfig::new(4)
                .with_exec(ExecMode::Distributed)
                .with_shadow_budget(Some(budget));
            let got = deck.run_over(cfg, &mut connector);
            assert_eq!(
                &got.arrays, seq,
                "{spec}: budget {budget}: differs from sequential"
            );
            assert_ne!(
                got.report.fallback,
                Some(FallbackReason::WorkerLoss),
                "{spec}: budget {budget}: fleet must survive budget pressure"
            );
            assert!(
                got.report.shadow_bytes_peak() > 0,
                "{spec}: budget {budget}: worker footprints not merged into the report"
            );
        }
    }
}
