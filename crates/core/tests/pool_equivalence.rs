//! Randomized cross-executor equivalence suite.
//!
//! Whatever host parallelism executes a stage, the R-LRPD decisions —
//! which blocks commit, which arcs are reported, and the final array
//! contents — are a pure function of the loop. Two layers pin that
//! down:
//!
//! 1. **Engine-level**: random loops run under every [`ExecMode`]
//!    produce identical final arrays, restart counts, per-stage commit
//!    decisions, and dependence arcs.
//! 2. **One fork-join per stage**: on a run whose first stage touches
//!    ~80 000 shadow entries, every pooled stage dispatches the doall
//!    alone (`StageStats::fork_joins == 1`) and equals the simulated
//!    run.

use proptest::prelude::*;
use rlrpd_core::{
    run_speculative, ArrayDecl, ArrayId, ClosureLoop, ExecMode, FaultPlan, Reduction, RunConfig,
    RunReport, Runner, ShadowKind,
};
use std::sync::Arc;

const SIZE: usize = 16;
const A: ArrayId = ArrayId(0);

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(usize),
    Write(usize, i64),
    Reduce(usize, i64),
}

fn ops() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(
        prop::collection::vec(
            (0usize..SIZE, -20i64..20, 0u8..3).prop_map(|(e, v, k)| match k {
                0 => Op::Read(e),
                1 => Op::Write(e, v),
                _ => Op::Reduce(e, v),
            }),
            0..6,
        ),
        1..14,
    )
}

fn make_loop(per_iter: Arc<Vec<Vec<Op>>>, kind: ShadowKind) -> ClosureLoop<i64> {
    ClosureLoop::new(
        per_iter.len(),
        move || {
            vec![ArrayDecl::reduction(
                "A",
                vec![100i64; SIZE],
                kind,
                Reduction {
                    identity: 0,
                    combine: |a, b| a + b,
                },
            )]
        },
        move |i, ctx| {
            for op in &per_iter[i] {
                match *op {
                    Op::Read(e) => {
                        ctx.read(A, e);
                    }
                    Op::Write(e, v) => ctx.write(A, e, v),
                    Op::Reduce(e, v) => ctx.reduce(A, e, v),
                }
            }
        },
    )
}

/// Everything decision-shaped a run produces, with wall-clock timings
/// (the only mode-dependent output) stripped.
#[derive(Debug, PartialEq)]
struct Decisions {
    array: Vec<i64>,
    restarts: usize,
    stages: Vec<(usize, usize)>, // (iters_attempted, iters_committed)
    arcs: Vec<rlrpd_core::DepArc>,
    exited_at: Option<usize>,
}

fn decisions(per_iter: &Arc<Vec<Vec<Op>>>, kind: ShadowKind, p: usize, e: ExecMode) -> Decisions {
    let lp = make_loop(Arc::clone(per_iter), kind);
    let res = run_speculative(&lp, RunConfig::new(p).with_exec(e));
    Decisions {
        array: res.array("A").to_vec(),
        restarts: res.report.restarts,
        stages: res
            .report
            .stages
            .iter()
            .map(|s| (s.iters_attempted, s.iters_committed))
            .collect(),
        arcs: res.arcs,
        exited_at: res.report.exited_at,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random loops: the simulated, thread-per-block, and pooled
    /// executors make identical commit decisions and produce identical
    /// arrays and arcs.
    #[test]
    fn executor_modes_make_identical_decisions(
        per_iter in ops(),
        p in 1usize..7,
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => ShadowKind::Dense,
            1 => ShadowKind::Packed,
            _ => ShadowKind::Sparse,
        };
        let per_iter = Arc::new(per_iter);
        let reference = decisions(&per_iter, kind, p, ExecMode::Simulated);
        let mode = ExecMode::Pooled;
        let got = decisions(&per_iter, kind, p, mode);
        prop_assert_eq!(&got, &reference, "mode={:?} p={} kind={:?}", mode, p, kind);
    }
}

/// A deterministic partially parallel loop (backward dependence of
/// distance 3) as a fixed smoke check: every mode agrees with the
/// simulated reference for each processor count, and the loop really
/// does restart (so the commit-prefix path is exercised, not just the
/// all-pass path).
#[test]
fn commit_prefix_identical_across_modes_on_fixed_loop() {
    for p in [1usize, 2, 3, 4, 8] {
        let mk = || {
            ClosureLoop::<i64>::new(
                48,
                || vec![ArrayDecl::tested("A", vec![0i64; 48], ShadowKind::Dense)],
                |i, ctx| {
                    let v = ctx.read(A, i.saturating_sub(3));
                    ctx.write(A, i, v + 1);
                },
            )
        };
        let reference = run_speculative(&mk(), RunConfig::new(p).with_exec(ExecMode::Simulated));
        if p > 1 {
            assert!(
                reference.report.restarts > 0,
                "p={p}: loop should be partially parallel"
            );
        }
        let mode = ExecMode::Pooled;
        let got = run_speculative(&mk(), RunConfig::new(p).with_exec(mode));
        assert_eq!(got.array("A"), reference.array("A"), "mode={mode:?} p={p}");
        assert_eq!(
            got.report.restarts, reference.report.restarts,
            "mode={mode:?} p={p}"
        );
        assert_eq!(got.arcs, reference.arcs, "mode={mode:?} p={p}");
    }
}

/// Per-stage `(iters_attempted, iters_committed, fork_joins)`.
fn stage_shape(report: &RunReport) -> Vec<(usize, usize, usize)> {
    report
        .stages
        .iter()
        .map(|s| (s.iters_attempted, s.iters_committed, s.fork_joins))
        .collect()
}

/// A first stage of ~80 000 touched entries over a flow-dependent
/// array, a reduction array and a sparse array, restarting until the
/// remainder is small. Its analysis, commit and shadow clear run on the
/// submitting thread however wide the stage, so every stage of every
/// `p` reports the doall alone — one fork-join — and arrays, arcs and
/// per-stage decisions equal the simulated run.
#[test]
fn every_wide_stage_is_one_fork_join_and_matches_the_simulated_run() {
    const N: usize = 1 << 14;
    const FLOW: ArrayId = ArrayId(0);
    const SUM: ArrayId = ArrayId(1);
    const WIDE: ArrayId = ArrayId(2);
    let mk = || {
        ClosureLoop::<i64>::new(
            N,
            || {
                vec![
                    ArrayDecl::tested("FLOW", vec![1i64; N], ShadowKind::Dense),
                    ArrayDecl::reduction(
                        "SUM",
                        vec![100i64; N / 4],
                        ShadowKind::Packed,
                        Reduction {
                            identity: 0,
                            combine: |a, b| a + b,
                        },
                    ),
                    ArrayDecl::tested("WIDE", vec![0i64; 2 * N], ShadowKind::Sparse),
                ]
            },
            |i, ctx| {
                // A flow dependence a fifth of the loop back: blocks
                // above the first fail for p >= 2, several times over.
                let v = ctx.read(FLOW, i.saturating_sub(N / 5));
                ctx.write(FLOW, i, v + i as i64);
                ctx.reduce(SUM, (i * 13) % (N / 4), v);
                ctx.write(WIDE, 2 * i, v);
                ctx.write(WIDE, (2 * i + 7) % (2 * N), i as i64); // output deps
            },
        )
    };
    for p in 1..=8usize {
        let reference = run_speculative(&mk(), RunConfig::new(p).with_exec(ExecMode::Simulated));
        assert_eq!(reference.report.restarts > 0, p > 1, "p={p}");
        assert_eq!(reference.report.fork_joins(), 0, "p={p}");
        let mode = ExecMode::Pooled;
        let got = run_speculative(&mk(), RunConfig::new(p).with_exec(mode));
        let shape = stage_shape(&got.report);
        for (k, (&(att, com, forks), &(ratt, rcom, _))) in shape
            .iter()
            .zip(&stage_shape(&reference.report))
            .enumerate()
        {
            assert_eq!((att, com), (ratt, rcom), "mode={mode:?} p={p} stage {k}");
            assert_eq!(forks, 1, "mode={mode:?} p={p} stage {k}");
        }
        assert_eq!(shape.len(), reference.report.stages.len());
        for name in ["FLOW", "SUM", "WIDE"] {
            assert_eq!(
                got.array(name),
                reference.array(name),
                "mode={mode:?} p={p}"
            );
        }
        assert_eq!(got.arcs, reference.arcs, "mode={mode:?} p={p}");
    }
}

/// An injected panic is contained identically whatever executor runs
/// the stage: same arrays, same restart count, same number of contained
/// faults, same per-stage commit decisions. A [`FaultPlan`] holds
/// one-shot interior state, so each run gets a fresh plan.
#[test]
fn fault_injection_is_identical_across_modes() {
    for p in [2usize, 4] {
        for seed in [7u64, 42, 1009] {
            let run = |mode: ExecMode| {
                let lp = ClosureLoop::<i64>::new(
                    48,
                    || vec![ArrayDecl::tested("A", vec![0i64; 48], ShadowKind::Dense)],
                    |i, ctx| {
                        let v = ctx.read(A, i.saturating_sub(3));
                        ctx.write(A, i, v + 1);
                    },
                );
                let plan = FaultPlan::seeded_panic(seed, 48);
                let res = Runner::new(RunConfig::new(p).with_exec(mode))
                    .with_fault(Arc::new(plan))
                    .try_run(&lp)
                    .expect("injected fault must be contained");
                (
                    res.array("A").to_vec(),
                    res.report.restarts,
                    res.report.contained_faults(),
                    res.report
                        .stages
                        .iter()
                        .map(|s| (s.iters_attempted, s.iters_committed))
                        .collect::<Vec<_>>(),
                )
            };
            let reference = run(ExecMode::Simulated);
            assert_eq!(reference.2, 1, "p={p} seed={seed}: fault must fire once");
            let mode = ExecMode::Pooled;
            assert_eq!(run(mode), reference, "mode={mode:?} p={p} seed={seed}");
        }
    }
}
