//! Stage executors: a persistent worker pool, or a deterministic
//! simulated machine.
//!
//! A speculative stage runs one closure per block, each against that
//! block's private per-processor state. Blocks are independent during a
//! stage *by construction* (all writes go to privatized storage, the
//! shared array is read-only), which is exactly what permits the
//! interchangeable execution modes:
//!
//! * [`ExecMode::Pooled`] — blocks run on real threads: a persistent
//!   fork-join [`WorkerPool`] created once and reused by every
//!   stage and restart (see [`crate::pool`]); one thread wide, blocks
//!   inline, on a thread confined to one CPU ([`Executor::with_procs`]). This proves the
//!   engine is genuinely parallel and data-race-free and provides real
//!   wall-clock measurements.
//! * [`ExecMode::Distributed`] — block bodies run in worker processes;
//!   once the fleet is lost the blocks run on the pool.
//! * [`ExecMode::Simulated`] — blocks run sequentially in block order and
//!   report *virtual* cost; stage time is the max over blocks, as on an
//!   idealized `p`-processor machine. This is our deterministic
//!   substitution for the paper's 16-processor HP V2200 (DESIGN.md §2):
//!   stage structure, commit decisions, and the figures' time series are
//!   bit-for-bit reproducible on any host.
//!
//! All modes produce identical speculative outcomes; integration tests
//! assert this. [`Executor::run_blocks`] / [`Executor::try_run_blocks`]
//! are the one entry point: a stage's analysis, commit and shadow clear
//! run on the submitting thread, so a pooled stage is one fork-join.

use crate::cost::Cost;
use crate::pool::{run_inline, JobPanic, SendPtr, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// May the calling thread run on just one CPU? Its affinity mask,
/// one system call: no cgroup files are read, unlike
/// `available_parallelism`. A mask wider than 1 024 CPUs reads as no.
#[cfg(target_os = "linux")]
fn on_one_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    rc == 0 && mask.iter().map(|w| w.count_ones()).sum::<u32>() == 1
}

/// May the calling thread run on just one CPU?
#[cfg(not(target_os = "linux"))]
fn on_one_cpu() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() == 1)
}

/// How to run the blocks of one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// A persistent fork-join worker pool, reused across stages.
    Pooled,
    /// Deterministic sequential emulation with virtual per-block clocks.
    Simulated,
    /// Supervisor of a fleet of worker subprocesses: block bodies are
    /// dispatched over a wire protocol while analysis/commit phases run
    /// in process. When the dispatcher is lost (worker-loss
    /// budget exhausted) the executor itself behaves exactly like
    /// [`ExecMode::Pooled`], which is the first rung of the distributed
    /// degradation ladder.
    Distributed,
}

/// Raw timing of one executed stage, before the driver layers analysis /
/// commit / restore costs on top.
#[derive(Clone, Debug, PartialEq)]
pub struct StageTiming {
    /// Virtual cost accumulated by each block, in block order.
    pub per_block_cost: Vec<Cost>,
    /// Wall-clock seconds of the parallel section (0.0 when simulated).
    pub wall_seconds: f64,
}

impl StageTiming {
    /// Virtual critical path of the doall: the maximum block cost.
    pub fn critical_path(&self) -> Cost {
        self.per_block_cost.iter().copied().fold(0.0, Cost::max)
    }

    /// Total useful virtual work across all blocks.
    pub fn total_work(&self) -> Cost {
        self.per_block_cost.iter().sum()
    }
}

/// Executes the blocks of speculative stages under a chosen [`ExecMode`].
///
/// Cheap to clone: a pooled executor shares its [`WorkerPool`] (the pool
/// itself is process-global per width, see [`WorkerPool::shared`]), so
/// cloning never spawns threads.
#[derive(Clone, Debug)]
pub struct Executor {
    mode: ExecMode,
    pool: Option<Arc<WorkerPool>>,
    /// Parallel sections dispatched so far (clones count together).
    fork_joins: Arc<AtomicUsize>,
}

impl Executor {
    /// Create an executor with the given mode. A pooled executor is
    /// sized to the host's available parallelism; use
    /// [`Executor::with_procs`] to size it to the run's virtual
    /// processor count instead.
    pub fn new(mode: ExecMode) -> Self {
        let procs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::with_procs(mode, procs)
    }

    /// Create an executor for `procs` blocks a stage. Its pool (if
    /// any) is `procs` wide, or 1 wide when the calling thread may run
    /// on just one CPU (read here once): such a thread runs every block
    /// in order on itself — the same blocks, no hand-off to a helper
    /// that could only time-share that CPU. Pools are memoized per
    /// width, so repeated construction — e.g. one engine per restarted
    /// run — reuses the same OS threads.
    pub fn with_procs(mode: ExecMode, procs: usize) -> Self {
        let pool = match mode {
            ExecMode::Pooled | ExecMode::Distributed => {
                Some(WorkerPool::shared(if on_one_cpu() { 1 } else { procs }))
            }
            ExecMode::Simulated => None,
        };
        Executor {
            mode,
            pool,
            fork_joins: Arc::default(),
        }
    }

    /// The executor's mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Threads that run a stage's blocks: the pool's width, 1 when
    /// simulated.
    pub fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, |pool| pool.threads())
    }

    /// Parallel sections (pool jobs) this executor and its clones have
    /// dispatched. Zero forever under
    /// [`ExecMode::Simulated`]. A statistic: the difference across a
    /// stage is the stage's barrier count.
    pub fn fork_joins(&self) -> usize {
        self.fork_joins.load(Ordering::Relaxed)
    }

    /// Run one stage: `work(pos, &mut states[pos])` for every block
    /// position, concurrently under [`ExecMode::Pooled`], sequentially
    /// (but observably identically) under [`ExecMode::Simulated`].
    ///
    /// `work` returns the virtual cost the block accumulated. A block
    /// panic is re-raised here; use [`Executor::try_run_blocks`] for
    /// the containment surface.
    pub fn run_blocks<S, F>(&self, states: &mut [S], work: F) -> StageTiming
    where
        S: Send,
        F: Fn(usize, &mut S) -> Cost + Sync,
    {
        let (timing, panic) = self.try_run_blocks(states, work);
        if let Some(p) = panic {
            std::panic::resume_unwind(p.payload);
        }
        timing
    }

    /// Run one stage with **panic containment**: every block executes
    /// even when another block panics, and the lowest-position panic is
    /// returned alongside the timing instead of unwinding.
    ///
    /// A panicked block contributes `0.0` to `per_block_cost` (the
    /// engine reconstructs its partial cost from the per-block state,
    /// which the closure mutates in place before panicking). This is
    /// the substrate of fault-contained speculation: a panic in block
    /// *b* must not discard the independent, possibly-committable work
    /// of every other block.
    pub fn try_run_blocks<S, F>(&self, states: &mut [S], work: F) -> (StageTiming, Option<JobPanic>)
    where
        S: Send,
        F: Fn(usize, &mut S) -> Cost + Sync,
    {
        let states_ptr = SendPtr::new(states.as_mut_ptr());
        let mut per_block_cost = vec![0.0; states.len()];
        let costs_ptr = SendPtr::new(per_block_cost.as_mut_ptr());
        let task = |pos: usize| {
            // SAFETY: block positions are distinct, so each task derives
            // an exclusive &mut to its own state and cost slot.
            let s = unsafe { &mut *states_ptr.get().add(pos) };
            let c = work(pos, s);
            // SAFETY: same disjointness argument — `pos` is unique per
            // task, so this cost slot is written by exactly one thread.
            // A panicked block never gets here and keeps its `0.0`.
            unsafe { *costs_ptr.get().add(pos) = c };
        };
        let (panic, wall_seconds) = match &self.pool {
            Some(pool) => {
                self.fork_joins.fetch_add(1, Ordering::Relaxed);
                let start = std::time::Instant::now();
                let panic = pool.try_run(states.len(), &task);
                (panic, start.elapsed().as_secs_f64())
            }
            // Simulated: block order on this thread, so the first panic
            // met is the lowest position.
            None => (run_inline(0..states.len(), &task), 0.0),
        };
        (
            StageTiming {
                per_block_cost,
                wall_seconds,
            },
            panic.err(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn modes() -> [Executor; 2] {
        [
            Executor::new(ExecMode::Simulated),
            Executor::with_procs(ExecMode::Pooled, 4),
        ]
    }

    #[test]
    fn every_block_runs_exactly_once_with_its_state() {
        for ex in modes() {
            let mut states: Vec<usize> = vec![0; 6];
            let calls = AtomicUsize::new(0);
            let t = ex.run_blocks(&mut states, |pos, s| {
                calls.fetch_add(1, Ordering::Relaxed);
                *s = pos + 100;
                pos as Cost
            });
            assert_eq!(calls.load(Ordering::Relaxed), 6);
            assert_eq!(states, vec![100, 101, 102, 103, 104, 105]);
            assert_eq!(t.per_block_cost, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        }
    }

    #[test]
    fn critical_path_and_total_work() {
        let t = StageTiming {
            per_block_cost: vec![3.0, 7.0, 5.0],
            wall_seconds: 0.0,
        };
        assert_eq!(t.critical_path(), 7.0);
        assert_eq!(t.total_work(), 15.0);
    }

    #[test]
    fn simulated_reports_zero_wall_time() {
        let ex = Executor::new(ExecMode::Simulated);
        let mut states = vec![(); 3];
        let t = ex.run_blocks(&mut states, |_, _| 1.0);
        assert_eq!(t.wall_seconds, 0.0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "asserts real wall-clock progress")]
    fn pooled_mode_actually_reports_wall_time() {
        let ex = Executor::with_procs(ExecMode::Pooled, 4);
        let mut states = vec![(); 4];
        let t = ex.run_blocks(&mut states, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            1.0
        });
        assert!(t.wall_seconds > 0.0);
    }

    #[test]
    fn pooled_mode_reuses_one_pool_across_stages() {
        let ex = Executor::with_procs(ExecMode::Pooled, 3);
        let pool = Arc::clone(ex.pool.as_ref().expect("pooled executor has a pool"));
        for stage in 0..50 {
            let mut states = vec![0usize; 5];
            let t = ex.run_blocks(&mut states, |pos, s| {
                *s = stage * 10 + pos;
                1.0
            });
            assert_eq!(t.per_block_cost, vec![1.0; 5]);
            assert!(states.iter().enumerate().all(|(p, &s)| s == stage * 10 + p));
        }
        // Same executor, same pool object throughout.
        assert!(Arc::ptr_eq(&pool, ex.pool.as_ref().unwrap()));
    }

    #[test]
    fn try_run_blocks_contains_a_block_panic_in_every_mode() {
        for ex in modes() {
            let mut states: Vec<usize> = vec![0; 5];
            let (t, panic) = ex.try_run_blocks(&mut states, |pos, s| {
                if pos == 2 {
                    std::panic::resume_unwind(Box::new("block 2 down"));
                }
                *s = pos + 1;
                1.0
            });
            let p = panic.unwrap_or_else(|| panic!("mode {:?}: panic reported", ex.mode()));
            assert_eq!(p.index, 2, "mode {:?}", ex.mode());
            assert_eq!(p.message(), "block 2 down");
            // Every other block still ran and reported its cost.
            assert_eq!(states, vec![1, 2, 0, 4, 5], "mode {:?}", ex.mode());
            assert_eq!(
                t.per_block_cost,
                vec![1.0, 1.0, 0.0, 1.0, 1.0],
                "mode {:?}",
                ex.mode()
            );
        }
    }

    #[test]
    fn try_run_blocks_reports_lowest_panicking_position() {
        for ex in modes() {
            let mut states: Vec<usize> = vec![0; 6];
            let (_, panic) = ex.try_run_blocks(&mut states, |pos, _| {
                if pos == 4 || pos == 1 {
                    std::panic::resume_unwind(Box::new(pos));
                }
                1.0
            });
            assert_eq!(panic.unwrap().index, 1, "mode {:?}", ex.mode());
        }
    }

    #[test]
    fn run_blocks_still_reraises_panics() {
        for ex in modes() {
            let mut states: Vec<usize> = vec![0; 3];
            let caught = catch_unwind(AssertUnwindSafe(|| {
                ex.run_blocks(&mut states, |pos, _| {
                    if pos == 1 {
                        std::panic::resume_unwind(Box::new("up"));
                    }
                    1.0
                });
            }));
            assert!(caught.is_err(), "mode {:?}", ex.mode());
        }
    }

    #[test]
    fn fork_joins_count_parallel_sections_only() {
        for ex in modes() {
            let mut states = vec![0usize; 3];
            ex.run_blocks(&mut states, |_, _| 1.0);
            ex.clone().run_blocks(&mut states, |_, _| 1.0);
            let expect = if ex.mode() == ExecMode::Simulated {
                0
            } else {
                2
            };
            assert_eq!(ex.fork_joins(), expect, "mode {:?}", ex.mode());
        }
    }

    #[test]
    fn empty_stage_is_a_noop() {
        for ex in modes() {
            let mut states: Vec<u8> = vec![];
            let t = ex.run_blocks(&mut states, |_, _| 1.0);
            assert!(t.per_block_cost.is_empty());
            assert_eq!(t.critical_path(), 0.0);
        }
    }
}
