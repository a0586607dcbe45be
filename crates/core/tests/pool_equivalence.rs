//! Randomized cross-executor equivalence suite.
//!
//! The parallel analysis/commit pipeline must be *observationally
//! invisible*: whatever host parallelism executes a stage, the R-LRPD
//! decisions — which blocks commit, which arcs are reported, and the
//! final array contents — are a pure function of the loop. Three layers
//! pin that down:
//!
//! 1. **Engine-level**: random loops run under every [`ExecMode`]
//!    produce identical final arrays, restart counts, per-stage commit
//!    decisions, and dependence arcs.
//! 2. **Analysis-level**: [`analyze_parallel`] over randomly populated
//!    per-block shadow views equals [`analyze_seq`] byte-for-byte for
//!    every processor count 1..=16 (the partitioned merge must be
//!    insensitive to the bucket count).
//! 3. **Both sides of the grain**: the engine runs a stage's merges on
//!    the submitting thread below a touched-entry grain and partitioned
//!    above it; `StageStats::fork_joins` proves which side ran, and
//!    both must equal the simulated run (the sequential merges).

use proptest::prelude::*;
use rlrpd_core::view::ProcView;
use rlrpd_core::{
    analyze_parallel, analyze_seq, run_speculative, ArrayDecl, ArrayId, ClosureLoop, ExecMode,
    FaultPlan, Reduction, RunConfig, RunReport, Runner, ShadowKind, WindowConfig,
};
use rlrpd_runtime::Executor;
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

/// Populate two tested-array views per block from a random op tape and
/// hand back both the owning storage and the analysis-ready refs.
fn build_views(blocks: &[Vec<(u8, usize, i64)>], kind: ShadowKind) -> Vec<Vec<ProcView<i64>>> {
    const N: usize = 64;
    let sum = Reduction {
        identity: 0i64,
        combine: |a: i64, b: i64| a + b,
    };
    blocks
        .iter()
        .map(|tape| {
            let mut v0 = ProcView::new(N, kind, Some(sum));
            let mut v1 = ProcView::new(N, kind, None);
            for &(k, e, val) in tape {
                match k {
                    0 => {
                        v0.read(e, |_| 7);
                    }
                    1 => v0.write(e, val),
                    _ => v0.reduce(e, val, |_| 7),
                }
                // Drive the second slot with a shifted tape so the two
                // slots disagree about which elements are touched.
                match k {
                    0 => v1.write((e + 3) % N, val),
                    _ => {
                        v1.read((e + 3) % N, |_| 7);
                    }
                }
            }
            vec![v0, v1]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance bar of the partitioned merge: for random shadow
    /// populations and every processor count 1..=16, the parallel
    /// analysis is byte-identical to the sequential reference —
    /// same earliest violation, same arcs in the same order, same
    /// touched-element statistics.
    #[test]
    fn parallel_analysis_matches_sequential_for_1_to_16_procs(
        blocks in prop::collection::vec(
            prop::collection::vec((0u8..3, 0usize..64, -10i64..10), 0..40),
            1..17,
        ),
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => ShadowKind::Dense,
            1 => ShadowKind::Packed,
            _ => ShadowKind::Sparse,
        };
        let views = build_views(&blocks, kind);
        let refs: Vec<&[ProcView<i64>]> = views.iter().map(|v| v.as_slice()).collect();
        let tested_ids = [0usize, 3];
        let seq = analyze_seq(&refs, &tested_ids);
        for p in 1..=16usize {
            let mode = ExecMode::Pooled;
            let ex = Executor::with_procs(mode, p);
            let par = analyze_parallel(&refs, &tested_ids, &ex);
            prop_assert_eq!(
                par.first_violation, seq.first_violation,
                "mode={:?} p={}", mode, p
            );
            prop_assert_eq!(&par.arcs, &seq.arcs, "mode={:?} p={}", mode, p);
            prop_assert_eq!(par.max_touched, seq.max_touched, "mode={:?} p={}", mode, p);
            prop_assert_eq!(par.total_touched, seq.total_touched, "mode={:?} p={}", mode, p);
        }
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

/// The cases above are all tiny: since the engine sizes its phases to
/// the stage's work, they run `analyze_seq` / `merge_seq` under every
/// executor and no longer reach the partitioned paths. This one does: a
/// first stage of ~80 000 touched entries (five grains per thread at
/// the widest setting tried) over a flow-dependent array, a reduction
/// array and a sparse array, restarting until the remainder is small.
/// Every stage must report either the doall alone (1 fork-join) or the
/// doall plus the six partitioned phases (7), the first stage must be a
/// 7 for every `p > 1` — the proof that `analyze_parallel` /
/// `merge_parallel` / the parallel write-back and clear ran — and
/// arrays, arcs and per-stage decisions must equal the simulated run,
/// which is `analyze_seq` + `merge_seq` by construction.
#[test]
fn stages_above_the_grain_fan_out_and_match_the_sequential_merges() {
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
        // One thread has nobody to fan out to: p = 1 is the doall
        // alone, however wide the stage.
        let want = if p == 1 { 1 } else { 7 };
        assert_eq!(
            shape[0].2, want,
            "mode={mode:?} p={p}: which side of the grain ran"
        );
        for (k, (&(att, com, forks), &(ratt, rcom, _))) in shape
            .iter()
            .zip(&stage_shape(&reference.report))
            .enumerate()
        {
            assert_eq!((att, com), (ratt, rcom), "mode={mode:?} p={p} stage {k}");
            assert!(
                forks == 1 || forks == 7,
                "mode={mode:?} p={p} stage {k}: {forks}"
            );
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

/// One run on both sides of the grain: under a 64-iteration window the
/// first stage touches 64 entries and stays on the submitting thread,
/// the later ones touch 512 per iteration and fan out — with a
/// cross-block flow dependence in the wide part, so a partitioned
/// commit also has to stop at a prefix. Final arrays and every stage's
/// `(attempted, committed)` equal the simulated run.
#[test]
fn one_run_straddles_the_grain() {
    const LIGHT: usize = 64;
    const HEAVY: usize = 128;
    const K: usize = 512;
    const SMALL: ArrayId = ArrayId(0);
    const BIG: ArrayId = ArrayId(1);
    let mk = || {
        ClosureLoop::<i64>::new(
            LIGHT + HEAVY,
            || {
                vec![
                    ArrayDecl::tested("SMALL", vec![0i64; LIGHT + HEAVY], ShadowKind::Dense),
                    ArrayDecl::tested("BIG", vec![0i64; HEAVY * K], ShadowKind::Dense),
                ]
            },
            |i, ctx| {
                if i < LIGHT {
                    ctx.write(SMALL, i, i as i64);
                    return;
                }
                // Twenty iterations back is another block of the same
                // window (blocks are 16 iterations).
                let v = ctx.read(SMALL, i - 20);
                ctx.write(SMALL, i, v + 1);
                for j in 0..K {
                    ctx.write(BIG, (i - LIGHT) * K + j, v + j as i64);
                }
            },
        )
    };
    let cfg = |mode| {
        RunConfig::new(4)
            .with_exec(mode)
            .with_strategy(rlrpd_core::Strategy::SlidingWindow(WindowConfig::fixed(16)))
    };
    let reference = run_speculative(&mk(), cfg(ExecMode::Simulated));
    assert!(reference.report.restarts > 0);
    let mode = ExecMode::Pooled;
    let got = run_speculative(&mk(), cfg(mode));
    let forks: Vec<usize> = stage_shape(&got.report).iter().map(|s| s.2).collect();
    assert_eq!(
        forks[0], 1,
        "mode={mode:?}: the light window stays sequential"
    );
    assert!(
        forks[1..].contains(&7),
        "mode={mode:?}: a heavy window fans out"
    );
    assert!(
        forks.iter().all(|&f| f == 1 || f == 7),
        "mode={mode:?}: {forks:?}"
    );
    let decisions = |r: &RunReport| -> Vec<(usize, usize)> {
        stage_shape(r).iter().map(|s| (s.0, s.1)).collect()
    };
    assert_eq!(
        decisions(&got.report),
        decisions(&reference.report),
        "mode={mode:?}"
    );
    assert_eq!(
        got.array("SMALL"),
        reference.array("SMALL"),
        "mode={mode:?}"
    );
    assert_eq!(got.array("BIG"), reference.array("BIG"), "mode={mode:?}");
    assert_eq!(got.arcs, reference.arcs, "mode={mode:?}");
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
