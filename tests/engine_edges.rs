//! Edge cases of the speculative engine: degenerate sizes, multiple
//! arrays of every kind, cross-stage reduction interactions, and
//! checkpoint-policy equivalence under repeated failure.

use rlrpd::core::AdaptRule;
use rlrpd::{
    run_sequential, run_speculative, ArrayDecl, ArrayId, CheckpointPolicy, ClosureLoop, Reduction,
    RunConfig, ShadowKind, SpecLoop, Strategy, WindowConfig,
};

const A: ArrayId = ArrayId(0);
const B: ArrayId = ArrayId(1);
const C: ArrayId = ArrayId(2);

fn all_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::AdaptiveRd(AdaptRule::ModelEq4),
        Strategy::SlidingWindow(WindowConfig::fixed(3)),
    ]
}

#[test]
fn zero_iteration_loop() {
    let lp = ClosureLoop::new(
        0,
        || vec![ArrayDecl::tested("A", vec![7.0; 4], ShadowKind::Dense)],
        |_, _| unreachable!("no iterations"),
    );
    for strategy in all_strategies() {
        let res = run_speculative(&lp, RunConfig::new(4).with_strategy(strategy));
        assert_eq!(res.array("A"), &[7.0; 4], "{strategy:?}");
        assert_eq!(res.report.restarts, 0);
    }
}

#[test]
fn single_iteration_loop() {
    let lp = ClosureLoop::new(
        1,
        || vec![ArrayDecl::tested("A", vec![0.0; 2], ShadowKind::Dense)],
        |_, ctx| ctx.write(A, 0, 42.0),
    );
    for strategy in all_strategies() {
        let res = run_speculative(&lp, RunConfig::new(8).with_strategy(strategy));
        assert_eq!(res.array("A")[0], 42.0, "{strategy:?}");
        assert_eq!(res.report.restarts, 0, "one iteration can never conflict");
    }
}

#[test]
fn more_processors_than_iterations() {
    let lp = ClosureLoop::new(
        3,
        || vec![ArrayDecl::tested("A", vec![0.0; 8], ShadowKind::Dense)],
        |i, ctx| {
            let v = if i == 2 { ctx.read(A, 0) } else { -1.0 };
            ctx.write(A, i, v + i as f64);
        },
    );
    let (seq, _) = run_sequential(&lp);
    for strategy in all_strategies() {
        for p in [5usize, 16, 64] {
            let res = run_speculative(&lp, RunConfig::new(p).with_strategy(strategy));
            assert_eq!(res.array("A"), &seq[0].1[..], "{strategy:?} p={p}");
        }
    }
}

#[test]
fn empty_tested_array_is_harmless() {
    let lp = ClosureLoop::new(
        8,
        || {
            vec![
                ArrayDecl::tested("A", vec![], ShadowKind::Dense),
                ArrayDecl::tested("B", vec![0.0; 8], ShadowKind::Dense),
            ]
        },
        |i, ctx| ctx.write(B, i, i as f64),
    );
    let res = run_speculative(&lp, RunConfig::new(4));
    assert!(res.array("A").is_empty());
    assert_eq!(res.array("B")[5], 5.0);
}

#[test]
fn three_kinds_of_arrays_in_one_loop() {
    // Tested + untested + reduction, all interacting, with a planted
    // cross-block dependence on the tested array.
    let n = 64;
    let lp = ClosureLoop::new(
        n,
        move || {
            vec![
                ArrayDecl::tested("A", vec![1.0; 64], ShadowKind::Dense),
                ArrayDecl::untested("B", vec![0.0; 64]),
                ArrayDecl::reduction("C", vec![0.0; 4], ShadowKind::Dense, Reduction::sum()),
            ]
        },
        move |i, ctx| {
            let v = if i == 40 { ctx.read(A, 8) } else { i as f64 };
            ctx.write(A, i, v);
            ctx.write(B, i, v * 2.0);
            ctx.reduce(C, i % 4, v);
        },
    );
    let (seq, _) = run_sequential(&lp);
    for strategy in all_strategies() {
        for ckpt in [CheckpointPolicy::Eager, CheckpointPolicy::OnDemand] {
            let res = run_speculative(
                &lp,
                RunConfig::new(8)
                    .with_strategy(strategy)
                    .with_checkpoint(ckpt),
            );
            assert_eq!(res.array("A"), &seq[0].1[..], "{strategy:?}/{ckpt:?}");
            assert_eq!(res.array("B"), &seq[1].1[..], "{strategy:?}/{ckpt:?}");
            for (a, b) in res.array("C").iter().zip(&seq[2].1) {
                assert!((a - b).abs() < 1e-9, "{strategy:?}/{ckpt:?}");
            }
        }
    }
}

#[test]
fn reduction_read_across_stage_boundary_materializes_committed_deltas() {
    // Block 0 reduces into C[0]; block 1 READS C[0] — a flow violation
    // on the reduction element. After the restart, block 1's read must
    // see the committed (folded) value.
    let lp = ClosureLoop::new(
        8,
        || {
            vec![ArrayDecl::reduction(
                "A",
                vec![100.0; 2],
                ShadowKind::Dense,
                Reduction::sum(),
            )]
        },
        |i, ctx| {
            if i < 4 {
                ctx.reduce(A, 0, 1.0);
            } else if i == 4 {
                let v = ctx.read(A, 0); // must observe 104 after commit
                ctx.write(A, 1, v);
            }
        },
    );
    let res = run_speculative(&lp, RunConfig::new(2).with_strategy(Strategy::Nrd));
    assert_eq!(
        res.report.restarts, 1,
        "the exposed read over the delta must restart"
    );
    assert_eq!(res.array("A"), &[104.0, 104.0]);
    let (seq, _) = run_sequential(&lp);
    assert_eq!(res.array("A"), &seq[0].1[..]);
}

#[test]
fn mixed_reduce_then_read_within_one_block_is_exact() {
    // Same block: reduce, then ordinary read (materialization), then
    // more reduces as RMW. Sequential equivalence is the oracle.
    let lp = ClosureLoop::new(
        6,
        || {
            vec![ArrayDecl::reduction(
                "A",
                vec![10.0; 1],
                ShadowKind::Dense,
                Reduction::sum(),
            )]
        },
        |i, ctx| {
            ctx.reduce(A, 0, 1.0);
            if i == 2 {
                let v = ctx.read(A, 0);
                ctx.write(A, 0, v * 2.0);
            }
        },
    );
    let (seq, _) = run_sequential(&lp);
    // p = 1: everything in one block, pure materialization path.
    let res = run_speculative(&lp, RunConfig::new(1));
    assert_eq!(res.array("A"), &seq[0].1[..]);
    // p = 6: the read at i=2 is a cross-block sink; restarts repair it.
    let res = run_speculative(&lp, RunConfig::new(6).with_strategy(Strategy::Nrd));
    assert_eq!(res.array("A"), &seq[0].1[..]);
}

#[test]
fn checkpoint_policies_agree_under_repeated_failures() {
    // A dependence chain causing several restarts, with heavy untested
    // writes: eager and on-demand restoration must converge to the
    // same state every time.
    let n = 96;
    let lp = ClosureLoop::new(
        n,
        move || {
            vec![
                ArrayDecl::tested("A", vec![0.0; 96], ShadowKind::Dense),
                ArrayDecl::untested("B", vec![5.0; 96]),
            ]
        },
        move |i, ctx| {
            let v = if i % 13 == 0 && i > 0 {
                ctx.read(A, i - 7)
            } else {
                0.0
            };
            ctx.write(A, i, v + i as f64);
            let old = ctx.read(B, i);
            ctx.write(B, i, old * 1.5 + v);
        },
    );
    let eager = run_speculative(
        &lp,
        RunConfig::new(8)
            .with_strategy(Strategy::Rd)
            .with_checkpoint(CheckpointPolicy::Eager),
    );
    let ondemand = run_speculative(
        &lp,
        RunConfig::new(8)
            .with_strategy(Strategy::Rd)
            .with_checkpoint(CheckpointPolicy::OnDemand),
    );
    assert!(eager.report.restarts > 0);
    assert_eq!(eager.arrays, ondemand.arrays);
    let (seq, _) = run_sequential(&lp);
    assert_eq!(eager.array("B"), &seq[1].1[..]);
}

#[test]
fn packed_shadow_kind_runs_identically_to_dense() {
    let make = |kind: ShadowKind| {
        ClosureLoop::new(
            64,
            move || vec![ArrayDecl::tested("A", vec![0.0; 64], kind)],
            |i, ctx| {
                let v = if i % 9 == 0 && i > 0 {
                    ctx.read(A, i - 4)
                } else {
                    0.0
                };
                ctx.write(A, i, v + i as f64);
            },
        )
    };
    let dense = run_speculative(&make(ShadowKind::Dense), RunConfig::new(4));
    let packed = run_speculative(&make(ShadowKind::Packed), RunConfig::new(4));
    let sparse = run_speculative(&make(ShadowKind::Sparse), RunConfig::new(4));
    assert_eq!(dense.arrays, packed.arrays);
    assert_eq!(dense.arrays, sparse.arrays);
    assert_eq!(dense.report.restarts, packed.report.restarts);
    assert_eq!(dense.report.restarts, sparse.report.restarts);
    assert_eq!(dense.arcs, packed.arcs);
}

#[test]
fn single_processor_run_is_always_one_stage() {
    // With p = 1 there are no cross-processor dependences by
    // definition: any loop completes in one stage.
    let lp = ClosureLoop::new(
        50,
        || vec![ArrayDecl::tested("A", vec![1.0; 50], ShadowKind::Dense)],
        |i, ctx| {
            let v = if i > 0 { ctx.read(A, i - 1) } else { 1.0 };
            ctx.write(A, i, v + 1.0);
        },
    );
    for strategy in [Strategy::Nrd, Strategy::Rd] {
        let res = run_speculative(&lp, RunConfig::new(1).with_strategy(strategy));
        assert_eq!(res.report.stages.len(), 1, "{strategy:?}");
        assert_eq!(res.report.pr(), 1.0);
        let (seq, _) = run_sequential(&lp);
        assert_eq!(res.array("A"), &seq[0].1[..]);
    }
}

#[test]
fn dependence_on_the_last_iteration_restarts_only_the_tail() {
    let n = 64;
    let lp = ClosureLoop::new(
        n,
        move || vec![ArrayDecl::tested("A", vec![0.0; 64], ShadowKind::Dense)],
        move |i, ctx| {
            let v = if i == n - 1 { ctx.read(A, 0) } else { 0.0 };
            ctx.write(A, i, v + i as f64);
        },
    );
    let res = run_speculative(&lp, RunConfig::new(8).with_strategy(Strategy::Nrd));
    assert_eq!(res.report.restarts, 1);
    // Stage 2 re-executes only the last block (8 iterations).
    assert_eq!(res.report.stages[1].iters_attempted, 8);
    let (seq, _) = run_sequential(&lp);
    assert_eq!(res.array("A"), &seq[0].1[..]);
}

#[test]
fn same_element_written_by_every_iteration_is_output_dep_only() {
    // All iterations write A[0] (no reads): pure output dependences —
    // one stage, last value wins.
    let n = 40;
    let lp = ClosureLoop::new(
        n,
        move || vec![ArrayDecl::tested("A", vec![0.0; 1], ShadowKind::Dense)],
        |i, ctx| ctx.write(A, 0, i as f64),
    );
    let res = run_speculative(&lp, RunConfig::new(8));
    assert_eq!(res.report.stages.len(), 1);
    assert_eq!(res.array("A"), &[(n - 1) as f64]);
}

#[test]
fn charge_contributes_to_cost_accounting() {
    let lp = ClosureLoop::new(
        10,
        || vec![ArrayDecl::tested("A", vec![0.0; 10], ShadowKind::Dense)],
        |i, ctx| {
            ctx.write(A, i, 1.0);
            ctx.charge(9.0); // 1.0 static + 9.0 dynamic
        },
    );
    let res = run_speculative(&lp, RunConfig::new(2));
    assert_eq!(res.report.stages[0].total_work, 100.0);
}

#[test]
fn cost_function_drives_the_virtual_critical_path() {
    // One heavy iteration: the stage's loop time equals the heavy
    // block, not the average.
    let lp = ClosureLoop::new(
        8,
        || vec![ArrayDecl::tested("A", vec![0.0; 8], ShadowKind::Dense)],
        |i, ctx| ctx.write(A, i, i as f64),
    )
    .with_cost(|i| if i == 0 { 100.0 } else { 1.0 });
    let res = run_speculative(
        &lp,
        RunConfig::new(4).with_cost(rlrpd::CostModel::work_only(0.0)),
    );
    // Block 0 carries iterations 0..2 = 101 work; others 2 each.
    assert_eq!(res.report.stages[0].loop_time, 101.0);
    let _ = lp.cost(0);
}
