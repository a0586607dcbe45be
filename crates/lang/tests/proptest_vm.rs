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

/// Build a random guarded/affine program over A (strided + backward
/// refs), B (disjoint rows — elision candidates), and H (modulo
/// reduction). Subscripts stay in bounds by construction (sizes leave
/// `3n + 40` headroom). Templates deliberately cover every lowering
/// path: arithmetic, intrinsics, `&&`/`||` short-circuits whose rhs
/// has a marking side effect, nested ifs, non-reduction `⊕=`
/// read-modify-writes, and `break if`.
fn program(n: usize, stmts: &[(u8, usize, usize, usize)]) -> String {
    let sz = 3 * n + 40;
    let mut body = String::new();
    for &(kind, a, b, k) in stmts {
        let a = (a % 3) + 1; // stride 1..=3
        let b = b % 8; // offset 0..8
        let k = (k % (n / 4).max(1)) + 1; // backward distance 1..=n/4
        match kind % 10 {
            0 => body.push_str(&format!("  A[{a} * i + {b}] = i * 0.5 + {b};\n")),
            1 => body.push_str(&format!("  if i >= {k} {{ A[i] = A[i - {k}] + 1; }}\n")),
            2 => body.push_str(&format!("  B[i] = A[{a} * i + {b}] * 0.5;\n")),
            3 => body.push_str("  H[i % 8] += sqrt(i + 1);\n"),
            // Short-circuit guards whose rhs reads (marks) an array:
            // evaluation order is observable in the mark state.
            4 => body.push_str(&format!(
                "  if i >= {k} && A[i - {k}] > 0.5 {{ B[i] = max(A[i], {b}); }}\n"
            )),
            5 => body.push_str(&format!(
                "  if i % 5 == 0 || B[i] > 10 {{ A[i] = abs(B[i] - {b}) + floor(i * 0.5); }}\n"
            )),
            6 => body.push_str("  let v = A[i] + 1;\n  A[i] = min(v, 99);\n"),
            // Non-reduction compound update: lowers to the fused
            // load/op/store triple, not a Reduce.
            7 => body.push_str("  A[i] *= 1.0 + 1 / (i + 2);\n"),
            8 => body.push_str(&format!(
                "  if i > {k} {{\n    if B[i - 1] < 2 {{ B[i] = B[i] + {a}; }} \
                 else {{ B[i] = i; }}\n  }}\n"
            )),
            // Rare premature exit, far enough in that work happens.
            _ => body.push_str(&format!("  break if i == {n} - 2 + {b};\n")),
        }
    }
    format!("array A[{sz}] = 1;\narray B[{sz}] = 2;\narray H[8];\nfor i in 0..{n} {{\n{body}}}")
}

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

/// A program whose references collide *inside* a strip of 16: flow,
/// anti and output dependences at distances 1..16 behind guards (so
/// they stay `May` and the loop stays eligible), a lane reading its own
/// store, a declared reduction that is also read, divergent `if/else`
/// and nested guards. `fault` appends a subscript that goes negative
/// part-way through.
fn strip_program(n: usize, stmts: &[(u8, usize, usize)], fault: Option<usize>) -> String {
    let sz = 2 * n + 40;
    let mut body = String::new();
    for &(kind, d, g) in stmts {
        let d = d % 16 + 1; // distance 1..=16
        let g = g % 5 + 2; // guard modulus 2..=6
        match kind % 9 {
            0 => body.push_str(&format!(
                "  if i % {g} != 1 && i >= {d} {{ A[i] = A[i - {d}] * 0.5 + i; }}\n"
            )),
            1 => body.push_str(&format!(
                "  if i % {g} != 1 {{ A[i] = A[i + {d}] + 0.25; }}\n"
            )),
            2 => body.push_str(&format!("  if i % {g} == 0 {{ A[i + {d}] = i; }} else {{ A[i] = 0 - i; }}\n")),
            3 => body.push_str("  B[i] = i * 3;\n  C[i] = B[i] + 1;\n"),
            4 => body.push_str(&format!("  H[i % 8] += i * 0.5;\n  C[i] = H[(i + {d}) % 8];\n")),
            5 => body.push_str(&format!(
                "  if i % {g} == 0 {{\n    if i % 3 == 0 {{ C[i] = A[i] * 2; }} else {{ C[i] = sqrt(i); }}\n  \
                 }} else {{\n    if i % 2 == 0 || A[i] > 1 {{ B[i] = abs(C[i]) + {d}; }}\n  }}\n"
            )),
            6 => body.push_str(&format!("  let s = (i * 7 + {d}) % {n};\n  C[i] = A[s] + s % {g};\n")),
            7 => body.push_str(&format!("  A[(i * {g}) % {n}] *= 1.0 + 1 / (i + {d});\n")),
            _ => body.push_str("  H[i % 8] += 1;\n"),
        }
    }
    if let Some(at) = fault {
        body.push_str(&format!("  B[{at} - i] = 1;\n"));
    }
    format!(
        "array A[{sz}] = 1;\narray B[{sz}] = 2;\narray C[{sz}];\n\
         array H[8] : reduction(+);\nfor i in 0..{n} {{\n{body}}}"
    )
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

/// Per-stage statistics without the two counters that say which way
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
