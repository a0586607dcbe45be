//! Differential testing of the bytecode VM against the tree-walk
//! interpreter over randomly generated affine/guarded programs.
//!
//! The tree-walk interpreter is the oracle: the VM's lowering
//! (register allocation, constant pooling/folding, short-circuit jump
//! threading, fused marking ops, elision-as-codegen) must be
//! observationally invisible. Three observations per generated
//! program:
//!
//! 1. **Final arrays, byte-identical** (`f64::to_bits`) after a full
//!    speculative run — in the default elided mode *and* under
//!    `with_full_instrumentation` (which re-arms marking on the same
//!    bytecode via the declaration table);
//! 2. **Run shape**: stage count, restarts, and premature-exit point
//!    must match, or the two tiers scheduled different work;
//! 3. **Shadow mark state**: the dependence arcs the sliding-window
//!    test derives from the marks (flow/anti/output edge sets of the
//!    extracted DDG) must be set-identical — marks drive restarts, so
//!    any divergence in marking shows up here even when final values
//!    happen to agree.
//!
//! The same three observations — plus every stage's statistics, which
//! carry the reference counts and touched-element counts the marks
//! produce — hold the VM's *strips* (16 iterations per dispatch,
//! tested, replayed in order) to the VM at one iteration per dispatch,
//! on programs built to conflict inside a strip and on programs that
//! fault in the middle of one.

use proptest::prelude::*;
use rlrpd_core::{
    extract_ddg, ArrayDecl, ArrayId, BatchTally, IterCtx, RunConfig, RunReport, Runner, SpecLoop,
    Strategy, WindowConfig,
};
use rlrpd_lang::CompiledProgram;
use rlrpd_runtime::StageStats;
use std::ops::Range;
use std::sync::Mutex;

mod common;
use common::{program, strip_program};

/// Run `prog` speculatively and return what the differential test
/// observes: final arrays, run shape, and (from a separate
/// sliding-window extraction) the mark-derived dependence edge sets.
#[allow(clippy::type_complexity)]
fn observe(
    prog: &CompiledProgram,
) -> (
    Vec<(&'static str, Vec<u64>)>,
    (usize, usize, Option<usize>),
    (Vec<(u32, u32)>, Vec<(u32, u32)>, Vec<(u32, u32)>),
) {
    let res = prog.run(RunConfig::new(8));
    let arrays = res
        .arrays
        .iter()
        .map(|(name, data)| (*name, data.iter().map(|v| v.to_bits()).collect()))
        .collect();
    let report = &res.reports[0];
    let shape = (report.stages.len(), report.restarts, report.exited_at);
    let init = prog
        .program()
        .arrays
        .iter()
        .map(|d| vec![d.init; d.size])
        .collect();
    let lp = prog.loop_view(0, init);
    let ddg = extract_ddg(&lp, &RunConfig::new(8), WindowConfig::fixed(16));
    let mut edges = (ddg.graph.flow, ddg.graph.anti, ddg.graph.output);
    edges.0.sort_unstable();
    edges.1.sort_unstable();
    edges.2.sort_unstable();
    (arrays, shape, edges)
}

/// What one block left in one processor's view of one array: the
/// block's first iteration, the array, the view's reference count, and
/// every touched element with its mark and its private value or
/// reduction delta (`to_bits`).
type BlockMarks = (usize, usize, u64, Vec<(usize, u8, u64)>);

/// A loop that looks into the engine's speculative views at the end of
/// every block its inner loop executes.
struct Spy<'a> {
    inner: &'a dyn SpecLoop<f64>,
    num_arrays: usize,
    seen: Mutex<Vec<BlockMarks>>,
}

impl SpecLoop<f64> for Spy<'_> {
    fn num_iters(&self) -> usize {
        self.inner.num_iters()
    }
    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        self.inner.arrays()
    }
    fn body(&self, iter: usize, ctx: &mut IterCtx<'_, f64>) {
        self.inner.body(iter, ctx)
    }
    fn run_iters(
        &self,
        iters: Range<usize>,
        ctx: &mut IterCtx<'_, f64>,
        after: &mut dyn FnMut(&mut IterCtx<'_, f64>, usize) -> bool,
    ) -> BatchTally {
        let first = iters.start;
        let tally = self.inner.run_iters(iters, ctx, after);
        let mut seen = self.seen.lock().unwrap();
        for a in 0..self.num_arrays {
            let Some(view) = ctx.view(ArrayId(a as u32)) else {
                continue;
            };
            let mut touched: Vec<_> = view
                .touched()
                .map(|(e, m)| {
                    let private = if m.is_written() {
                        view.written_value(e).to_bits()
                    } else if m.is_reduction_only() {
                        view.reduction_delta(e).to_bits()
                    } else {
                        0
                    };
                    (e, m.0, private)
                })
                .collect();
            touched.sort_unstable();
            assert_eq!(touched.len(), view.num_touched());
            seen.push((first, a, view.refs(), touched));
        }
        tally
    }
    fn cost(&self, iter: usize) -> f64 {
        self.inner.cost(iter)
    }
}

/// Every block's marks, touched sets, reference counts and private
/// values over a whole speculative run of `prog`.
fn block_marks(prog: &CompiledProgram, cfg: RunConfig) -> Vec<BlockMarks> {
    let arrays = &prog.program().arrays;
    let init = arrays.iter().map(|d| vec![d.init; d.size]).collect();
    let lp = prog.loop_view(0, init);
    let spy = Spy {
        inner: &lp,
        num_arrays: arrays.len(),
        seen: Mutex::new(Vec::new()),
    };
    Runner::new(cfg).try_run(&spy).expect("the program runs");
    spy.seen.into_inner().unwrap()
}

/// Per-stage statistics without the three counters that say which way
/// the VM ran — everything else (iterations, every overhead term, and
/// through them reference and touched-element counts) must not know.
fn stages(report: &RunReport) -> Vec<StageStats> {
    report
        .stages
        .iter()
        .cloned()
        .map(|mut s| {
            s.batched_iters = 0;
            s.scalar_strips = 0;
            s.lane_replays = 0;
            s
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Strips are invisible: against the VM at one iteration per
    /// dispatch and against the tree-walk oracle, under one, two and
    /// three processors, a window smaller than a strip, and full
    /// instrumentation.
    #[test]
    fn strips_are_byte_identical_to_the_scalar_vm_and_the_oracle(
        n in 40usize..200,
        stmts in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..5),
        p in 1usize..4,
        full_instrumentation in any::<bool>(),
    ) {
        let src = strip_program(n, &stmts, None);
        let build = |tier: u8| {
            let mut prog = CompiledProgram::compile(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
            if full_instrumentation {
                prog = prog.with_full_instrumentation();
            }
            match tier {
                0 => prog,
                1 => prog.with_scalar_vm(),
                _ => prog.with_interpreter(),
            }
        };
        let small_window = Strategy::SlidingWindow(WindowConfig::fixed(5));
        for cfg in [RunConfig::new(p), RunConfig::new(p).with_strategy(small_window)] {
            let runs: Vec<_> = (0..3).map(|tier| build(tier).run(cfg)).collect();
            for (tier, other) in runs.iter().enumerate().skip(1) {
                let bits = |r: &rlrpd_lang::ProgramResult| -> Vec<Vec<u64>> {
                    r.arrays.iter().map(|(_, d)| d.iter().map(|v| v.to_bits()).collect()).collect()
                };
                prop_assert_eq!(bits(&runs[0]), bits(other), "arrays, tier {} on:\n{}", tier, src);
                prop_assert_eq!(
                    stages(&runs[0].reports[0]), stages(&other.reports[0]),
                    "stage statistics, tier {} on:\n{}", tier, src
                );
            }
            prop_assert_eq!(runs[1].reports[0].batched_iters(), 0);
        }
        // What the engine's test reads: every block's per-element
        // marks, touched sets, reference counts and private values.
        let marks = block_marks(&build(0), RunConfig::new(p));
        prop_assert_eq!(&marks, &block_marks(&build(1), RunConfig::new(p)), "marks, scalar VM on:\n{}", src);
        prop_assert_eq!(&marks, &block_marks(&build(2), RunConfig::new(p)), "marks, oracle on:\n{}", src);
        // Sequential execution — the ground truth — runs in strips too.
        prop_assert_eq!(build(0).run_sequential(), build(2).run_sequential(), "sequential on:\n{}", src);
        let (strips, scalar, oracle) = (observe(&build(0)), observe(&build(1)), observe(&build(2)));
        prop_assert_eq!(&strips, &scalar, "strips vs scalar VM on:\n{}", src);
        prop_assert_eq!(&strips, &oracle, "strips vs oracle on:\n{}", src);
    }

    /// A program fault in the middle of a strip is the scalar VM's
    /// fault: same iteration, same message, same span.
    #[test]
    fn a_fault_mid_strip_is_reported_as_the_scalar_vm_reports_it(
        n in 40usize..200,
        stmts in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 0..3),
        at in 0usize..150,
        p in 1usize..4,
    ) {
        let at = at % (n - 1);
        let src = strip_program(n, &stmts, Some(at));
        let run = |scalar: bool| {
            let mut prog = CompiledProgram::compile(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
            if scalar {
                prog = prog.with_scalar_vm();
            }
            let init = prog.program().arrays.iter().map(|d| vec![d.init; d.size]).collect();
            Runner::new(RunConfig::new(p))
                .try_run(&prog.loop_view(0, init))
                .map(|r| r.arrays)
        };
        let (strips, scalar) = (run(false), run(true));
        prop_assert!(scalar.is_err(), "iteration {} must fault on:\n{}", at + 1, src);
        let message = format!("{:?}", scalar);
        prop_assert!(message.contains("subscript"), "{}", message);
        prop_assert_eq!(strips, scalar, "on:\n{}", src);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// VM and tree-walk runs are byte-identical on final arrays, run
    /// shape, and shadow mark state — with elision on (default) and
    /// off (`with_full_instrumentation`).
    #[test]
    fn vm_is_byte_identical_to_the_tree_walk_oracle(
        n in 16usize..48,
        stmts in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()),
            1..5,
        ),
    ) {
        let src = program(n, &stmts);
        for full_instrumentation in [false, true] {
            let build = |interp: bool| {
                let mut p = CompiledProgram::compile(&src)
                    .unwrap_or_else(|e| panic!("{src}\n{e}"));
                if full_instrumentation {
                    p = p.with_full_instrumentation();
                }
                if interp {
                    p = p.with_interpreter();
                }
                p
            };
            let (vm_arrays, vm_shape, vm_marks) = observe(&build(false));
            let (tw_arrays, tw_shape, tw_marks) = observe(&build(true));
            prop_assert_eq!(
                &vm_arrays, &tw_arrays,
                "final arrays diverged (full_instrumentation={}) on:\n{}",
                full_instrumentation, src
            );
            prop_assert_eq!(
                vm_shape, tw_shape,
                "run shape diverged (full_instrumentation={}) on:\n{}",
                full_instrumentation, src
            );
            prop_assert_eq!(
                &vm_marks, &tw_marks,
                "shadow mark state diverged (full_instrumentation={}) on:\n{}",
                full_instrumentation, src
            );
        }
    }
}
