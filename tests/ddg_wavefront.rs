//! DDG extraction and wavefront execution, across crates: extracted
//! edges must be exactly the loop's true dependences, schedules must
//! respect them, and executing the schedule must reproduce sequential
//! state.

use rlrpd::core::{execute_wavefronts, run_inspector_executor, EdgeKind, WavefrontSchedule};
use rlrpd::loops::{Dcdcmp15Loop, QuadLoop, RandomDepLoop, SequentialChainLoop};
use rlrpd::{extract_ddg, run_sequential, CostModel, ExecMode, RunConfig, SpecLoop, WindowConfig};

#[test]
fn extracted_flow_edges_are_exactly_the_planted_ones() {
    let lp = RandomDepLoop::new(400, 0.06, 25, 5, 1.0);
    let ddg = extract_ddg(&lp, &RunConfig::new(4), WindowConfig::fixed(16));
    let mut expected: Vec<(u32, u32)> = lp
        .planted_deps()
        .iter()
        .map(|&(s, d)| (s as u32, d as u32))
        .collect();
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(ddg.graph.flow, expected);
}

#[test]
fn extraction_is_window_size_invariant() {
    let lp = RandomDepLoop::new(300, 0.08, 40, 8, 1.0);
    let a = extract_ddg(&lp, &RunConfig::new(4), WindowConfig::fixed(4));
    let b = extract_ddg(&lp, &RunConfig::new(4), WindowConfig::fixed(64));
    let c = extract_ddg(&lp, &RunConfig::new(2), WindowConfig::fixed(16));
    assert_eq!(a.graph.flow, b.graph.flow);
    assert_eq!(a.graph.flow, c.graph.flow);
    assert_eq!(a.graph.anti, b.graph.anti);
    assert_eq!(a.graph.output, c.graph.output);
}

#[test]
fn wavefront_schedule_respects_every_edge() {
    let lp = Dcdcmp15Loop::small(23);
    let ddg = extract_ddg(&lp, &RunConfig::new(4), WindowConfig::fixed(16));
    let schedule = WavefrontSchedule::from_graph(&ddg.graph);

    let mut level_of = vec![usize::MAX; lp.num_iters()];
    for (l, iters) in schedule.levels().iter().enumerate() {
        for &i in iters {
            level_of[i as usize] = l;
        }
    }
    assert!(
        level_of.iter().all(|&l| l != usize::MAX),
        "every iteration scheduled"
    );
    for (s, d) in ddg
        .graph
        .edges(&[EdgeKind::Flow, EdgeKind::Anti, EdgeKind::Output])
    {
        assert!(
            level_of[s as usize] < level_of[d as usize],
            "edge {s}->{d} violated by levels {} -> {}",
            level_of[s as usize],
            level_of[d as usize]
        );
    }
}

#[test]
fn wavefront_execution_reproduces_sequential_state() {
    let lp = Dcdcmp15Loop::small(31);
    let ddg = extract_ddg(&lp, &RunConfig::new(4), WindowConfig::fixed(16));
    let schedule = WavefrontSchedule::from_graph(&ddg.graph);
    let (seq, _) = run_sequential(&lp);
    for p in [1usize, 3, 8] {
        let (arrays, report) =
            execute_wavefronts(&lp, &schedule, p, ExecMode::Simulated, CostModel::default());
        assert_eq!(arrays[0].1, seq[0].1, "p={p}");
        assert_eq!(report.levels, schedule.depth());
    }
}

#[test]
fn wavefront_execution_agrees_across_executors() {
    let lp = Dcdcmp15Loop::small(7);
    let ddg = extract_ddg(&lp, &RunConfig::new(4), WindowConfig::fixed(16));
    let schedule = WavefrontSchedule::from_graph(&ddg.graph);
    let (sim, _) = execute_wavefronts(&lp, &schedule, 4, ExecMode::Simulated, CostModel::default());
    let (thr, _) = execute_wavefronts(&lp, &schedule, 4, ExecMode::Pooled, CostModel::default());
    assert_eq!(sim, thr);
}

#[test]
fn inspector_and_speculative_extraction_agree_where_both_apply() {
    // QuadLoop's connectivity is input-independent, so both the
    // inspector and the speculative extraction can build its DDG.
    let lp = QuadLoop::new(250, 90, 13);
    let insp = run_inspector_executor(&lp, 4, ExecMode::Simulated, CostModel::default());
    let spec = extract_ddg(&lp, &RunConfig::new(4), WindowConfig::fixed(16));
    assert_eq!(insp.graph.flow, spec.graph.flow);
    assert_eq!(insp.graph.anti, spec.graph.anti);
    assert_eq!(insp.graph.output, spec.graph.output);
}

#[test]
fn chain_loop_yields_serial_wavefronts() {
    let lp = SequentialChainLoop::new(40, 1.0);
    let ddg = extract_ddg(&lp, &RunConfig::new(4), WindowConfig::fixed(4));
    assert_eq!(
        ddg.graph.flow_critical_path(),
        40,
        "a chain has no parallelism"
    );
    let schedule = WavefrontSchedule::from_graph(&ddg.graph);
    assert!((schedule.avg_width() - 1.0).abs() < 1e-12);
}

#[test]
fn extraction_run_itself_is_correct_execution() {
    // Extraction must not perturb the loop's semantics.
    let lp = Dcdcmp15Loop::small(41);
    let ddg = extract_ddg(&lp, &RunConfig::new(8), WindowConfig::fixed(8));
    let (seq, _) = run_sequential(&lp);
    assert_eq!(ddg.run.array("X"), &seq[0].1[..]);
}
