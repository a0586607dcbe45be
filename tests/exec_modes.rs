//! Real threads vs the simulated machine: the speculative outcome —
//! stage structure, commit decisions, detected arcs, final arrays — is
//! identical; only wall-clock time differs. This is what justifies the
//! simulated machine as the substitution for the paper's 16-processor
//! testbed (DESIGN.md §2).

use rlrpd::loops::{AlphaLoop, NlfiltInput, NlfiltLoop, QuadLoop, RandomDepLoop};
use rlrpd::{run_speculative, ExecMode, RunConfig, SpecLoop, Strategy, WindowConfig};

fn assert_modes_agree(name: &str, lp: &dyn SpecLoop, strategy: Strategy, p: usize) {
    let sim = run_speculative(
        lp,
        RunConfig::new(p)
            .with_strategy(strategy)
            .with_exec(ExecMode::Simulated),
    );
    let thr = run_speculative(
        lp,
        RunConfig::new(p)
            .with_strategy(strategy)
            .with_exec(ExecMode::Pooled),
    );
    assert_eq!(
        sim.report.stages.len(),
        thr.report.stages.len(),
        "{name}: stage count differs between executors"
    );
    assert_eq!(
        sim.report.restarts, thr.report.restarts,
        "{name}: restarts differ"
    );
    for (a, b) in sim.report.stages.iter().zip(&thr.report.stages) {
        assert_eq!(
            a.iters_committed, b.iters_committed,
            "{name}: commits differ"
        );
        assert_eq!(
            a.loop_time, b.loop_time,
            "{name}: virtual loop time differs"
        );
    }
    assert_eq!(sim.arcs, thr.arcs, "{name}: detected arcs differ");
    assert_eq!(sim.arrays, thr.arrays, "{name}: final arrays differ");
    assert!(
        thr.report.wall_seconds > 0.0,
        "{name}: real threads must measure wall time"
    );
    assert_eq!(
        sim.report.wall_seconds, 0.0,
        "{name}: simulated mode has no wall time"
    );
}

#[test]
fn alpha_loop_agrees_across_executors() {
    let lp = AlphaLoop::new(512, 0.5, 1.0);
    assert_modes_agree("alpha/nrd", &lp, Strategy::Nrd, 4);
    assert_modes_agree("alpha/rd", &lp, Strategy::Rd, 4);
}

#[test]
fn random_loop_agrees_across_executors() {
    let lp = RandomDepLoop::new(300, 0.05, 25, 21, 1.0);
    assert_modes_agree(
        "random/sw",
        &lp,
        Strategy::SlidingWindow(WindowConfig::fixed(16)),
        4,
    );
}

#[test]
fn nlfilt_agrees_across_executors() {
    let lp = NlfiltLoop::new(NlfiltInput::i4_50());
    assert_modes_agree("nlfilt/nrd", &lp, Strategy::Nrd, 8);
}

/// The paper's model charges one synchronization per stage. A
/// sliding-window stage of NLFILT touches a few hundred shadow entries
/// — far below the grain at which fanning the merges out pays — so
/// its doall must be the only fork-join it issues: analysis, commit,
/// write-back and shadow clear all run on the submitting thread. The
/// simulated machine forks nothing at all, and both agree on every
/// decision.
#[test]
fn a_windowed_nlfilt_stage_costs_one_fork_join() {
    let lp = NlfiltLoop::new(NlfiltInput {
        name: "windowed",
        n: 8192,
        slots: 8192,
        write_rate: 0.012,
        max_distance: 24,
        seed: 5,
    });
    let run = |exec| {
        let strategy = Strategy::SlidingWindow(WindowConfig::fixed(64));
        run_speculative(
            &lp,
            RunConfig::new(2).with_strategy(strategy).with_exec(exec),
        )
    };
    let sim = run(ExecMode::Simulated);
    assert!(sim.report.restarts > 0, "the deck is partially parallel");
    assert_eq!(sim.report.fork_joins(), 0);
    let got = run(ExecMode::Pooled);
    assert_eq!(got.arrays, sim.arrays);
    assert_eq!(got.report.stages.len(), sim.report.stages.len());
    assert!(got.report.stages.len() >= 8192 / 128);
    for (k, stage) in got.report.stages.iter().enumerate() {
        assert_eq!(stage.fork_joins, 1, "stage {k}");
    }
    assert_eq!(got.report.fork_joins(), got.report.stages.len());
}

#[test]
fn quad_agrees_across_executors() {
    let lp = QuadLoop::new(300, 120, 9);
    assert_modes_agree("quad/nrd", &lp, Strategy::Nrd, 8);
}

#[test]
fn threads_mode_with_more_procs_than_cores_still_correct() {
    // 32 virtual processors on whatever machine runs the tests.
    let lp = AlphaLoop::new(640, 0.5, 1.0);
    assert_modes_agree("alpha/p32", &lp, Strategy::Nrd, 32);
}

#[test]
fn induction_scheme_agrees_across_executors() {
    use rlrpd::loops::extend::{ExtendInput, ExtendLoop};
    use rlrpd::{run_induction, CostModel};
    let lp = ExtendLoop::new(ExtendInput::dense());
    let sim = run_induction(&lp, 8, ExecMode::Simulated, CostModel::default());
    let thr = run_induction(&lp, 8, ExecMode::Pooled, CostModel::default());
    assert_eq!(sim.test_passed, thr.test_passed);
    assert_eq!(sim.final_counter, thr.final_counter);
    assert_eq!(sim.arrays, thr.arrays);
    assert_eq!(sim.report.stages.len(), thr.report.stages.len());
}
