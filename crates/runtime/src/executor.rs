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
//!   work-stealing [`WorkerPool`] created once and reused by every
//!   stage, phase, and restart (see [`crate::pool`]). This proves the
//!   engine is genuinely parallel and data-race-free and provides real
//!   wall-clock measurements.
//! * [`ExecMode::Distributed`] — block bodies run in worker processes;
//!   everything else runs on the pool, as does the whole stage once the
//!   fleet is lost.
//! * [`ExecMode::Simulated`] — blocks run sequentially in block order and
//!   report *virtual* cost; stage time is the max over blocks, as on an
//!   idealized `p`-processor machine. This is our deterministic
//!   substitution for the paper's 16-processor HP V2200 (DESIGN.md §2):
//!   stage structure, commit decisions, and the figures' time series are
//!   bit-for-bit reproducible on any host.
//!
//! All modes produce identical speculative outcomes; integration tests
//! assert this.

use crate::cost::Cost;
use crate::pool::{JobPanic, SendPtr, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Touched shadow entries per thread below which a stage's post-execute
/// phases (analysis merge, commit merge, write-back, shadow clear) run
/// on the submitting thread instead of fanning out — see
/// [`Executor::fans_out`].
///
/// Derivation (p = 2, a two-array loop swept over window sizes; the
/// pool figure is the benchmark's `runtime.pool_dispatch_us`):
///
/// * Fanning out costs a fixed `F` per stage: six pool round trips at
///   ≈ 2 µs each on one pinned core, plus the bucket vectors and
///   per-bucket hash maps — 13 µs measured there as the difference in
///   stage time on stages too small for the merges to matter, and
///   ≈ 90 µs once the pool's threads sit on different cores and every
///   round trip is a cross-core wake-up.
/// * The sequential merges cost ≈ 34 ns per touched entry (13 analysis,
///   20 commit with its write-back, under 1 for the clear). The
///   partitioned ones handle every entry twice — extract into buckets,
///   then fold — for ≈ 47 ns of work per entry, spread over `w` threads.
/// * `W` entries are therefore worth fanning out once
///   `W · (34 − 47 / w) ns > F`: at `w = 2`, from 1 200 entries with the
///   pinned `F` and 8 600 with the cross-core one, i.e. 600 to 4 300 per
///   thread. At `w = 1` the left side is negative — one thread never
///   gains — so a width-1 executor never fans out, whatever the count.
///
/// The constant is the power of two nearest the geometric middle of
/// that range. It is deliberately per thread although the break-even in
/// *total* entries barely moves with `w` (`F` grows with the threads to
/// wake about as fast as `34 − 47 / w` does): on a wide pool the rule
/// stays sequential up to ~3× longer than ideal, which forgoes a
/// bounded share of one stage's merge time, whereas fanning out too
/// early pays the whole `F` on every stage — the 36 → 6 µs of
/// `core.stage_fixed_us` this rule exists to remove.
const PHASE_GRAIN: usize = 2048;

/// How to run the blocks of one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// A persistent work-stealing worker pool, reused across stages.
    Pooled,
    /// Deterministic sequential emulation with virtual per-block clocks.
    Simulated,
    /// Supervisor of a fleet of worker subprocesses: block bodies are
    /// dispatched over a wire protocol while analysis/commit phases run
    /// on the in-process pool. When the dispatcher is lost (worker-loss
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
    /// Threads a parallel section spreads over: the pool's width.
    procs: usize,
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

    /// Create an executor whose pool (if any) has `procs` workers.
    /// Pools are memoized per width, so repeated construction — e.g.
    /// one engine per restarted run — reuses the same OS threads.
    pub fn with_procs(mode: ExecMode, procs: usize) -> Self {
        let pool = match mode {
            ExecMode::Pooled | ExecMode::Distributed => Some(WorkerPool::shared(procs)),
            ExecMode::Simulated => None,
        };
        Executor {
            mode,
            pool,
            procs: procs.max(1),
            fork_joins: Arc::default(),
        }
    }

    /// The executor's mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The persistent pool backing this executor, when pooled.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// Whether a phase over `entries` touched shadow entries is worth a
    /// fork-join: at least one [`PHASE_GRAIN`] per thread, and more
    /// than one thread to spread them over. Otherwise the caller runs
    /// the phase's sequential implementation on its own thread. Always
    /// `false` under [`ExecMode::Simulated`], whose results must not
    /// depend on the host.
    pub fn fans_out(&self, entries: usize) -> bool {
        self.mode != ExecMode::Simulated && self.procs > 1 && entries >= PHASE_GRAIN * self.procs
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
        match self.mode {
            ExecMode::Simulated => {
                let mut panic: Option<JobPanic> = None;
                let per_block_cost = states
                    .iter_mut()
                    .enumerate()
                    .map(|(pos, s)| {
                        match catch_unwind(AssertUnwindSafe(|| work(pos, s))) {
                            Ok(c) => c,
                            Err(payload) => {
                                // Sequential block order: the first panic
                                // seen is the lowest position.
                                if panic.is_none() {
                                    panic = Some(JobPanic {
                                        index: pos,
                                        payload,
                                    });
                                }
                                0.0
                            }
                        }
                    })
                    .collect();
                (
                    StageTiming {
                        per_block_cost,
                        wall_seconds: 0.0,
                    },
                    panic,
                )
            }
            ExecMode::Pooled | ExecMode::Distributed => {
                self.fork_joins.fetch_add(1, Ordering::Relaxed);
                let start = std::time::Instant::now();
                let pool = self.pool.as_ref().expect("pooled executor has a pool");
                let states_ptr = SendPtr::new(states.as_mut_ptr());
                let mut per_block_cost = vec![0.0; states.len()];
                let costs_ptr = SendPtr::new(per_block_cost.as_mut_ptr());
                let panic = pool
                    .try_run(states.len(), &|pos| {
                        // SAFETY: block positions are distinct, so each
                        // task derives an exclusive &mut to its own
                        // state and cost slot.
                        let s = unsafe { &mut *states_ptr.get().add(pos) };
                        let c = work(pos, s);
                        // SAFETY: same disjointness argument — `pos` is
                        // unique per task, so this cost slot is written
                        // by exactly one thread.
                        unsafe { *costs_ptr.get().add(pos) = c };
                    })
                    .err();
                (
                    StageTiming {
                        per_block_cost,
                        wall_seconds: start.elapsed().as_secs_f64(),
                    },
                    panic,
                )
            }
        }
    }

    /// Run `f(i)` for `i in 0..n` under this executor's parallelism and
    /// collect the results in index order. This is the substrate for
    /// the parallel analysis / commit-merge phases: sequential under
    /// [`ExecMode::Simulated`] (preserving bit-for-bit determinism),
    /// on the pool's workers under [`ExecMode::Pooled`].
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        match self.mode {
            ExecMode::Simulated => (0..n).map(f).collect(),
            ExecMode::Pooled | ExecMode::Distributed => {
                self.fork_joins.fetch_add(1, Ordering::Relaxed);
                self.pool
                    .as_ref()
                    .expect("pooled executor has a pool")
                    .run_indexed(n, f)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let pool = Arc::clone(ex.pool().expect("pooled executor has a pool"));
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
        assert!(Arc::ptr_eq(&pool, ex.pool().unwrap()));
    }

    #[test]
    fn run_indexed_matches_sequential_in_every_mode() {
        for ex in modes() {
            let out = ex.run_indexed(17, |i| i * 3 + 1);
            let expect: Vec<usize> = (0..17).map(|i| i * 3 + 1).collect();
            assert_eq!(out, expect, "mode {:?}", ex.mode());
        }
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
            ex.clone().run_indexed(3, |i| i);
            let expect = if ex.mode() == ExecMode::Simulated {
                0
            } else {
                2
            };
            assert_eq!(ex.fork_joins(), expect, "mode {:?}", ex.mode());
        }
    }

    #[test]
    fn small_phases_stay_on_the_submitting_thread() {
        let pooled = Executor::with_procs(ExecMode::Pooled, 4);
        assert!(!pooled.fans_out(0));
        assert!(!pooled.fans_out(4 * PHASE_GRAIN - 1));
        assert!(pooled.fans_out(4 * PHASE_GRAIN));
        // One thread has nobody to fan out to; a simulated machine
        // never forks.
        assert!(!Executor::with_procs(ExecMode::Pooled, 1).fans_out(usize::MAX));
        assert!(!Executor::with_procs(ExecMode::Simulated, 4).fans_out(usize::MAX));
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
