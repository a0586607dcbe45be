//! The inspector/executor baseline (the paper's prior work, its
//! reference \[13\]).
//!
//! When a *proper inspector* exists — a side-effect-free computation of
//! the loop's memory references — the DDG can be built **without**
//! speculative execution: replay the address traces in iteration order,
//! derive the dependence edges, wavefront-schedule, execute.
//!
//! The paper's central criticism, which this module makes concrete in
//! the type system: loops whose address computation depends on the data
//! the loop itself produces (SPICE-style workspace indirection) simply
//! *cannot implement* [`Inspectable`] honestly — the inspector would be
//! most of the loop. Those loops must use
//! [`crate::ddg::extract_ddg`], which rides on speculative execution
//! instead. A further cost the paper notes: the inspector's trace is
//! proportional to the reference count (large additional data
//! structures), charged here via the cost model.

use crate::array::ArrayId;
use crate::ddg::{DepCollector, DepGraph};
use crate::spec_loop::SpecLoop;
use crate::value::Value;
use crate::wavefront::{execute_wavefronts, WavefrontReport, WavefrontSchedule};
use rlrpd_runtime::{CostModel, ExecMode};

/// One iteration's memory references, as reported by an inspector.
#[derive(Clone, Debug, Default)]
pub struct AccessTrace {
    /// `(array, element)` reads, in program order.
    pub reads: Vec<(ArrayId, usize)>,
    /// `(array, element)` writes, in program order.
    pub writes: Vec<(ArrayId, usize)>,
}

/// A loop from which a proper (side-effect-free) inspector can be
/// extracted.
pub trait Inspectable<T: Value>: SpecLoop<T> {
    /// The references of iteration `iter`, computable without executing
    /// the loop body's side effects.
    fn inspect(&self, iter: usize) -> AccessTrace;
}

/// Result of an inspector/executor run.
pub struct InspectorResult<T: Value> {
    /// The DDG derived from the traces.
    pub graph: DepGraph,
    /// The wavefront schedule used.
    pub schedule: WavefrontSchedule,
    /// Final array contents.
    pub arrays: Vec<(&'static str, Vec<T>)>,
    /// Executor timing.
    pub report: WavefrontReport,
    /// Virtual cost of the inspection phase itself.
    pub inspector_time: f64,
}

/// Build the DDG from the inspector's traces, then execute by
/// wavefronts on `p` processors.
pub fn run_inspector_executor<T: Value>(
    lp: &dyn Inspectable<T>,
    p: usize,
    exec: ExecMode,
    cost: CostModel,
) -> InspectorResult<T> {
    let n = lp.num_iters();
    // Map declaration indices of tested arrays onto collector slots;
    // untested arrays are statically analyzable and carry no dependences
    // by contract.
    let decls = lp.arrays();
    let mut slot_of = vec![None; decls.len()];
    let mut slots = 0u32;
    for (id, d) in decls.iter().enumerate() {
        if d.is_tested() {
            slot_of[id] = Some(slots);
            slots += 1;
        }
    }

    let mut collector = DepCollector::default();
    let mut refs = 0u64;
    for iter in 0..n {
        let trace = lp.inspect(iter);
        refs += (trace.reads.len() + trace.writes.len()) as u64;
        // Program order within the iteration: reads before writes is
        // the conservative order for exposure (a read in the same
        // iteration as a write is treated as exposed unless the
        // inspector orders it after — matching IterMarks' granularity).
        for (a, e) in trace.reads {
            if let Some(slot) = slot_of[a.index()] {
                collector.read(slot, e, iter as u32);
            }
        }
        for (a, e) in trace.writes {
            if let Some(slot) = slot_of[a.index()] {
                collector.write(slot, e, iter as u32);
            }
        }
    }
    let graph = collector.finish(n);
    let schedule = WavefrontSchedule::from_graph(&graph);
    let (arrays, report) = execute_wavefronts(lp, &schedule, p, exec, cost);
    InspectorResult {
        graph,
        schedule,
        arrays,
        report,
        inspector_time: refs as f64 * cost.marking_per_ref,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, ArrayId, ShadowKind};
    use crate::ctx::IterCtx;
    use crate::spec_loop::SpecLoop;

    const A: ArrayId = ArrayId(0);

    /// A loop with a statically known diamond dependence (0 -> {1,2}
    /// -> 3) that honestly implements `Inspectable`.
    struct Diamond;

    impl SpecLoop<f64> for Diamond {
        fn num_iters(&self) -> usize {
            4
        }
        fn arrays(&self) -> Vec<ArrayDecl<f64>> {
            vec![ArrayDecl::tested("A", vec![1.0; 8], ShadowKind::Dense)]
        }
        fn body(&self, i: usize, ctx: &mut IterCtx<'_, f64>) {
            match i {
                0 => ctx.write(A, 0, 10.0),
                1 => {
                    let v = ctx.read(A, 0);
                    ctx.write(A, 1, v + 1.0);
                }
                2 => {
                    let v = ctx.read(A, 0);
                    ctx.write(A, 2, v + 2.0);
                }
                _ => {
                    let v = ctx.read(A, 1) + ctx.read(A, 2);
                    ctx.write(A, 3, v);
                }
            }
        }
    }

    impl Inspectable<f64> for Diamond {
        fn inspect(&self, i: usize) -> AccessTrace {
            match i {
                0 => AccessTrace {
                    reads: vec![],
                    writes: vec![(A, 0)],
                },
                1 => AccessTrace {
                    reads: vec![(A, 0)],
                    writes: vec![(A, 1)],
                },
                2 => AccessTrace {
                    reads: vec![(A, 0)],
                    writes: vec![(A, 2)],
                },
                _ => AccessTrace {
                    reads: vec![(A, 1), (A, 2)],
                    writes: vec![(A, 3)],
                },
            }
        }
    }

    #[test]
    fn inspector_builds_the_exact_graph_and_executes_correctly() {
        let r = run_inspector_executor(&Diamond, 2, ExecMode::Simulated, CostModel::default());
        assert_eq!(r.graph.flow, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(r.schedule.depth(), 3);
        // Final state: A[0]=10, A[1]=11, A[2]=12, A[3]=23.
        assert_eq!(&r.arrays[0].1[..4], &[10.0, 11.0, 12.0, 23.0]);
    }

    #[test]
    fn inspector_time_scales_with_reference_count() {
        let r = run_inspector_executor(&Diamond, 2, ExecMode::Simulated, CostModel::default());
        // 4 reads + 4 writes traced.
        let expect = 8.0 * CostModel::default().marking_per_ref;
        assert!((r.inspector_time - expect).abs() < 1e-12);
    }

    #[test]
    fn inspector_agrees_with_sequential_baseline() {
        let (seq, _) = crate::engine::run_sequential(&Diamond);
        let r = run_inspector_executor(&Diamond, 3, ExecMode::Simulated, CostModel::default());
        assert_eq!(r.arrays, seq);
    }
}
