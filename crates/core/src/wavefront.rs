//! Wavefront execution of an extracted DDG.
//!
//! Once the DDG of a loop is known (via [`crate::ddg::extract_ddg`] or
//! an inspector), its topological levels can be executed as a sequence
//! of small doalls: every iteration of a level is independent of the
//! others, so references go *directly* to shared storage — no
//! privatization, no marking, no test. The schedule is computed once
//! and, as the paper does for SPICE, reused for every subsequent
//! instantiation of the loop.

use crate::buf::SharedBuf;
use crate::ctx::{IterCtx, RoutedArrays};
use crate::ddg::{DepGraph, EdgeKind};
use crate::persist::{PersistError, KIND_SCHEDULE};
use crate::schema::{schema, List};
use crate::spec_loop::SpecLoop;
use crate::value::Value;
use rlrpd_runtime::{Cost, CostModel, ExecMode, Executor};

schema! {
    /// A reusable wavefront schedule.
    #[derive(Clone, Debug)]
    pub struct WavefrontSchedule {
        levels: Vec<Vec<u32>> => List<u64, List<u64, u32>>,
    } check WavefrontSchedule::is_permutation
}

impl WavefrontSchedule {
    /// Build the schedule from a DDG. Uses all edge kinds: the executor
    /// runs iterations in place, so anti and output dependences must be
    /// respected too.
    pub fn from_graph(graph: &DepGraph) -> Self {
        WavefrontSchedule {
            levels: graph.wavefronts(&[EdgeKind::Flow, EdgeKind::Anti, EdgeKind::Output]),
        }
    }

    /// Serialize to the versioned binary format ([`crate::persist`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        crate::schema::encode::<Self>(KIND_SCHEDULE, self)
    }

    /// Deserialize from [`WavefrontSchedule::to_bytes`] output: a
    /// schedule that is not a permutation of `0..num_iters` is
    /// `Corrupt`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        crate::schema::decode::<Self>(KIND_SCHEDULE, bytes)
    }

    /// The check a decoded schedule must pass: every iteration of
    /// `0..num_iters` scheduled, each once. A schedule of the right
    /// count that names an iteration twice, or one past the loop, would
    /// run some iteration twice or index past the arrays.
    fn is_permutation(&self) -> bool {
        let mut seen = vec![false; self.num_iters()];
        self.levels.iter().flatten().all(|&i| {
            seen.get_mut(i as usize)
                .is_some_and(|s| !std::mem::replace(s, true))
        })
    }

    /// The levels, in execution order.
    pub fn levels(&self) -> &[Vec<u32>] {
        &self.levels
    }

    /// Critical path length (number of levels).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Total iterations scheduled.
    pub fn num_iters(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Average width — the available parallelism.
    pub fn avg_width(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        self.num_iters() as f64 / self.depth() as f64
    }
}

/// Outcome of one wavefront execution.
#[derive(Clone, Debug)]
pub struct WavefrontReport {
    /// Number of levels executed (one barrier each).
    pub levels: usize,
    /// Virtual parallel time: Σ over levels of the critical chunk plus
    /// a barrier per level.
    pub virtual_time: f64,
    /// Σ of per-iteration work — sequential time.
    pub sequential_work: f64,
    /// Wall-clock seconds of the parallel sections (threads mode).
    pub wall_seconds: f64,
}

impl WavefrontReport {
    /// Virtual speedup over sequential execution.
    pub fn speedup(&self) -> f64 {
        self.sequential_work / self.virtual_time
    }
}

/// Execute `lp` under `schedule` on `p` processors and return the final
/// arrays plus timing.
pub fn execute_wavefronts<T: Value>(
    lp: &dyn SpecLoop<T>,
    schedule: &WavefrontSchedule,
    p: usize,
    exec: ExecMode,
    cost: CostModel,
) -> (Vec<(&'static str, Vec<T>)>, WavefrontReport) {
    assert!(p > 0);
    assert!(
        lp.initial_counter().is_none(),
        "a counter loop runs under run_induction"
    );
    assert_eq!(
        schedule.num_iters(),
        lp.num_iters(),
        "schedule does not cover the loop"
    );

    // Direct-mode shared state, routed exactly as the engine routes it.
    let RoutedArrays {
        meta, mut shared, ..
    } = RoutedArrays::new(lp.arrays());

    let executor = Executor::with_procs(exec, p);
    let mut virtual_time = 0.0;
    let mut wall = 0.0;
    let mut sequential_work = 0.0;

    for level in schedule.levels() {
        for buf in &mut shared {
            buf.new_epoch();
        }
        // Split the level into p chunks; all its iterations are mutually
        // independent by construction.
        let chunk = level.len().div_ceil(p).max(1);
        let chunks: Vec<&[u32]> = level.chunks(chunk).collect();
        let mut states: Vec<Cost> = vec![0.0; chunks.len()];
        let meta_ref = &meta;
        let shared_ref = &shared;
        let timing = executor.run_blocks(&mut states, |pos, _| {
            let mut total = 0.0;
            for &iter in chunks[pos] {
                let mut ctx = IterCtx::direct(iter as usize, pos as u32, meta_ref, shared_ref);
                lp.body(iter as usize, &mut ctx);
                total += lp.cost(iter as usize) + ctx.extra_cost;
            }
            total
        });
        virtual_time += timing.critical_path() + cost.sync;
        sequential_work += timing.total_work();
        wall += timing.wall_seconds;
    }

    let arrays = meta
        .iter()
        .map(|m| m.name)
        .zip(shared.iter_mut().map(SharedBuf::to_vec))
        .collect();
    (
        arrays,
        WavefrontReport {
            levels: schedule.depth(),
            virtual_time,
            sequential_work,
            wall_seconds: wall,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_valid() {
        let s = WavefrontSchedule { levels: vec![] };
        assert!(s.is_permutation());
        assert_eq!(s.depth(), 0);
        assert_eq!(s.num_iters(), 0);
        assert_eq!(s.avg_width(), 0.0);
    }

    #[test]
    fn schedule_stats() {
        let g = DepGraph {
            n: 4,
            flow: vec![(0, 2), (1, 3)],
            anti: vec![],
            output: vec![],
        };
        let s = WavefrontSchedule::from_graph(&g);
        assert_eq!(s.depth(), 2);
        assert_eq!(s.num_iters(), 4);
        assert!((s.avg_width() - 2.0).abs() < 1e-12);
    }
}
