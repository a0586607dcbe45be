//! The stage engine: executes one speculative doall under the
//! processor-wise LRPD test and performs analysis, commit, restoration,
//! and shadow re-initialization.
//!
//! The one stage loop ([`crate::stages`]) decides, per strategy, only
//! *which* [`BlockSchedule`] it hands to [`Engine::run_stage`] next;
//! everything inside a stage is identical and lives here.

use crate::analysis::{analyze, AnalysisResult, DepArc, Producers};
use crate::array::{ArrayKind, ShadowKind};
use crate::buf::SharedBuf;
use crate::checkpoint::{CheckpointPolicy, EagerSnapshot, WriteLog};
use crate::commit::{commit_tested, CommitStats, FinalValues, PerBlock};
use crate::ctx::{ArrayMeta, IterCtx, RoutedArrays};
use crate::error::RlrpdError;
use crate::journal::CommitRecord;
use crate::ledger::{CostRuns, LastProc};
use crate::spec_loop::{BatchTally, SpecLoop};
use crate::value::{Reduction, Value};
use crate::view::ProcView;
use rlrpd_runtime::{
    panic_message, BlockSchedule, CostModel, ExecMode, Executor, FaultPlan, InjectedFault,
    OverheadKind, ProcId, StageStats, StageTiming,
};
use rlrpd_shadow::IterMarks;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Engine-level configuration (the driver adds strategy and balancing on
/// top).
#[derive(Clone, Debug)]
pub struct EngineCfg {
    /// Number of virtual processors.
    pub p: usize,
    /// Real threads or deterministic simulation.
    pub exec: ExecMode,
    /// Virtual cost parameters.
    pub cost: CostModel,
    /// Untested-array checkpointing policy.
    pub checkpoint: CheckpointPolicy,
    /// Commit the passing prefix of blocks when a stage fails (the
    /// R-LRPD behaviour). The classic LRPD baseline sets this to
    /// `false`: a failed test discards *everything* and the loop
    /// re-executes sequentially from pristine state.
    pub commit_prefix_on_failure: bool,
    /// Deterministic fault-injection plan, if any. `None` is the
    /// zero-cost fast path: no per-iteration injection checks run.
    pub fault: Option<Arc<FaultPlan>>,
    /// The cap on this engine's shadow footprint (every view's marks,
    /// all processors), in bytes; `None` never reports pressure.
    pub shadow_cap: Option<u64>,
}

/// Per-block (per-processor) speculative state for one stage.
pub(crate) struct BlockState<T: Value> {
    /// Privatized views, one per tested array slot.
    pub views: Vec<ProcView<T>>,
    /// Untested-array write tracking + undo log.
    pub wlog: WriteLog<T>,
    /// Per-iteration mark lists, one per tested slot (DDG mode only).
    pub marks: Vec<IterMarks>,
    /// What each iteration executed this stage cost, in execution
    /// order, as runs: a block runs its range front to back, so these
    /// are the iterations `range.start .. range.start + iter_costs.len()`
    /// — one run when the loop's cost is one number.
    pub iter_costs: CostRuns,
    /// Iteration at which this block's body requested a premature
    /// exit, if any (execution of the block stops there).
    pub exit_iter: Option<u32>,
    /// What the loop's batch entry reported for this stage's block.
    pub tally: BatchTally,
    /// The induction counter the block starts from; once it has run,
    /// where the block left it (a counter loop's, [`crate::induction`]).
    pub counter: usize,
}

/// Per-iteration marks of one committed block (DDG extraction).
pub(crate) struct CommittedBlockMarks {
    /// Iteration range the block committed.
    pub range: Range<usize>,
    /// One [`IterMarks`] per tested slot.
    pub marks: Vec<IterMarks>,
}

/// What one stage's commit changed in shared storage, O(touched):
/// per touched array, the sorted `(element, committed value)` pairs.
///
/// Tested-array entries are the elements the commit phase wrote or
/// reduction-folded; untested-array entries are the elements the
/// *committed* blocks wrote in place (failed blocks' writes were
/// restored and are absent). Replaying every stage's delta over the
/// initial arrays reproduces the shared state at the commit frontier
/// exactly — the invariant the crash journal rests on.
///
/// Values are [`crate::journal::JournalElem::to_bits`] images: the delta
/// is a commit record's payload as it stands, built once per stage and
/// lent to the fleet and the journal alike.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct StageDelta {
    /// `(array declaration id, sorted (element, value bits) pairs)`,
    /// only for arrays with at least one changed element.
    pub arrays: Vec<(u32, Vec<(u32, u64)>)>,
}

/// A panic contained inside one stage's speculative doall.
///
/// The engine records the fault as a speculation failure of its block —
/// exactly like a detected dependence arc whose sink is that block — so
/// the passing prefix still commits and the driver re-executes from the
/// block's first iteration.
#[derive(Clone, Debug)]
pub(crate) struct FaultEvent {
    /// Block position (in the stage schedule) that panicked.
    pub pos: usize,
    /// Iteration that was executing when the panic fired.
    pub iter: usize,
    /// Rendered panic message.
    pub message: String,
}

/// What one stage produced.
pub(crate) struct StageOutcome {
    /// Earliest dependence-sink block position, if the test failed.
    pub violation: Option<usize>,
    /// First iteration that must re-execute.
    pub restart_iter: Option<usize>,
    /// Stage statistics (the driver may add redistribution overhead).
    pub stats: StageStats,
    /// Detected arcs (diagnostics, tests).
    pub arcs: Vec<DepArc>,
    /// Committed blocks' per-iteration marks (DDG mode only).
    pub committed_marks: Vec<CommittedBlockMarks>,
    /// A *trusted* premature exit (its block lies below the earliest
    /// dependence sink): the last executed iteration. The loop is
    /// complete once the prefix commits.
    pub exit: Option<usize>,
    /// A panic contained during this stage (already folded into
    /// `violation`; carried separately for fault accounting and
    /// genuine-fault detection).
    pub fault: Option<FaultEvent>,
    /// Committed-write delta for the crash journal and the fleet
    /// (`Some` iff [`Engine::delta_bits`] is set).
    pub delta: Option<StageDelta>,
    /// The shadow footprint crossed the budget cap during this stage.
    /// The stage committed nothing (contained like a speculation fault:
    /// untested writes restored, views rebuilt) and must re-execute
    /// from `restart_iter` under the new configuration.
    pub shadow_pressure: bool,
    /// Relief made ladder progress (at least one array down-tiered its
    /// representation). `shadow_pressure && !shadow_relieved` means the
    /// per-array ladder is exhausted: the driver's window-shrink or
    /// sequential-fallback rung must take over.
    pub shadow_relieved: bool,
}

/// The speculative execution engine for one loop run.
pub(crate) struct Engine<'l, T: Value> {
    pub lp: &'l dyn SpecLoop<T>,
    pub n: usize,
    pub meta: Vec<ArrayMeta<T>>,
    pub shared: Vec<SharedBuf<T>>,
    /// slot -> array declaration index.
    pub tested_ids: Vec<usize>,
    /// slot -> declared size (the pressure path rebuilds views from
    /// these).
    pub tested_sizes: Vec<usize>,
    /// slot -> *current* shadow representation: the declared (static)
    /// kind, fitted to the cap when the engine is built, and changed
    /// after that only by the pressure ladder or a fleet worker's fit —
    /// always on empty views (`Engine::fit_shadows`).
    pub tested_shadow: Vec<ShadowKind>,
    /// slot -> the densest processor's distinct touches in the last
    /// stage that touched the slot, pressure re-runs aside (0: none
    /// did) — the observed density `rlrpd analyze --audit` holds the
    /// static pick to.
    pub densest_seen: Vec<usize>,
    pub reductions: Vec<Option<Reduction<T>>>,
    /// slot -> array declaration index for untested arrays.
    pub untested_ids: Vec<usize>,
    pub states: Vec<BlockState<T>>,
    pub executor: Executor,
    pub cfg: EngineCfg,
    /// Committed per-iteration costs, one entry per iteration of the
    /// loop — the paper's §5.1 timing record. `Some` only when the
    /// driver runs under a feedback balance policy, the one reader:
    /// every other run neither allocates nor maintains it.
    pub iter_times: Option<Vec<f64>>,
    /// Last processor to execute each iteration, as spans: drives the
    /// remote-miss locality accounting, asked and updated once per
    /// block per stage.
    pub last_proc: LastProc,
    /// Record per-iteration marks for DDG extraction.
    pub record_marks: bool,
    /// Stages run over this engine's lifetime (keys checkpoint-fault
    /// injection sites).
    pub stage_ordinal: usize,
    /// Set by a run with a journal or a fleet attached: capture an
    /// O(touched) [`StageDelta`] of every stage's committed writes,
    /// converting values with this. `None` skips all capture work.
    pub delta_bits: Option<fn(T) -> u64>,
    /// Commit records this run has produced so far, a resumed prefix
    /// included: the `stage` of the next one.
    pub commits: usize,
    /// Live link to a distributed worker fleet; stages execute their
    /// blocks remotely while this is `Some`.
    pub remote: Option<crate::remote::RemoteLink<T>>,
    /// The worker fleet was lost (or never launched) at some point of
    /// this run — reported as [`crate::FallbackReason::WorkerLoss`].
    pub worker_loss: bool,
    /// High-water mark of the views' footprint, injected spikes
    /// included (saturating: a spike of `u64::MAX` reads as that).
    pub shadow_peak: u64,
    /// The induction counter [`Engine::run_direct`] starts from and
    /// leaves behind: a counter loop's initial value until then (0, and
    /// unread, for a loop without one).
    pub counter: usize,
    /// The analysis' and the commit's maps, kept at their capacity
    /// from stage to stage.
    pub producers: Producers,
    pub final_vals: FinalValues<T>,
}

impl<'l, T: Value> Engine<'l, T> {
    /// Build an engine for `lp`, cloning the declared initial data.
    /// A counter loop is refused: its counter moves only under
    /// [`crate::run_induction`], which builds with [`Engine::build`].
    pub fn new(lp: &'l dyn SpecLoop<T>, cfg: EngineCfg, record_marks: bool) -> Self {
        assert!(
            lp.initial_counter().is_none(),
            "a counter loop runs under run_induction"
        );
        Self::build(lp, cfg, record_marks)
    }

    /// [`Engine::new`] for any loop, a counter loop included.
    pub(crate) fn build(lp: &'l dyn SpecLoop<T>, cfg: EngineCfg, record_marks: bool) -> Self {
        assert!(cfg.p > 0, "need at least one processor");
        let n = lp.num_iters();
        let RoutedArrays {
            meta,
            shared,
            tested_ids,
            tested_sizes,
            tested_shadow,
            reductions,
            untested_ids,
            untested_sizes,
            untested_undo,
        } = RoutedArrays::new(lp.arrays());

        let states = ProcId::all(cfg.p)
            .map(|_| BlockState {
                views: fresh_views(&tested_sizes, &tested_shadow, &reductions),
                wlog: WriteLog::new(&untested_sizes, &untested_undo, cfg.checkpoint),
                marks: if record_marks {
                    tested_ids.iter().map(|_| IterMarks::new()).collect()
                } else {
                    Vec::new()
                },
                iter_costs: CostRuns::default(),
                exit_iter: None,
                tally: BatchTally::default(),
                counter: 0,
            })
            .collect();

        let mut eng = Engine {
            lp,
            n,
            meta,
            shared,
            tested_ids,
            densest_seen: vec![0; tested_sizes.len()],
            tested_sizes,
            tested_shadow,
            reductions,
            untested_ids,
            states,
            executor: Executor::with_procs(cfg.exec, cfg.p),
            cfg,
            iter_times: None,
            last_proc: LastProc::default(),
            record_marks,
            stage_ordinal: 0,
            delta_bits: None,
            commits: 0,
            remote: None,
            worker_loss: false,
            shadow_peak: 0,
            counter: lp.initial_counter().unwrap_or(0),
            producers: Producers::default(),
            final_vals: FinalValues::default(),
        };
        // Fit the static picks to the cap before any stage runs: a
        // worker handed a smaller cap than the selection assumed
        // degrades here instead of crashing.
        eng.fit_shadows(&vec![0; eng.tested_ids.len()], 0);
        eng
    }

    /// [`commit_tested`] of blocks `..upto` on the engine's views.
    pub(crate) fn commit(&mut self, upto: usize) -> (CommitStats, PerBlock<T>) {
        let views: Vec<&[ProcView<T>]> = self.states[..upto].iter().map(|s| &s.views[..]).collect();
        let (ids, reductions, shared) = (&self.tested_ids, &self.reductions, &self.shared);
        commit_tested(&views, ids, reductions, shared, &mut self.final_vals)
    }

    /// Current shadow footprint of every view, in bytes.
    fn shadow_bytes_now(&self) -> u64 {
        self.states
            .iter()
            .flat_map(|st| st.views.iter())
            .map(ProcView::shadow_bytes)
            .sum()
    }

    /// Fold the views' footprint plus a `spike` of injected bytes into
    /// the peak, and say whether it is over the cap. Saturating: under
    /// a cap a spike of any size trips it; uncapped nothing does.
    fn over_cap(&mut self, spike: u64) -> bool {
        let now = self.shadow_bytes_now().saturating_add(spike);
        self.shadow_peak = self.shadow_peak.max(now);
        self.cfg.shadow_cap.is_some_and(|cap| now > cap)
    }

    /// Per slot, the densest processor's distinct-touch count in the
    /// live views: what the ladder projects the next stage from.
    pub(crate) fn densest_touches(&self) -> Vec<usize> {
        (0..self.tested_ids.len())
            .map(|slot| {
                self.states
                    .iter()
                    .map(|st| st.views[slot].num_touched())
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Fit the slots' kinds to the cap through the run's one ladder
    /// ([`rlrpd_shadow::fit_budget`]), projecting `touched` per slot
    /// plus `extra` bytes, and rebuild the views if a kind changed —
    /// which discards their marks, so they must be empty or forfeit.
    /// Returns how many slots changed.
    pub(crate) fn fit_shadows(&mut self, touched: &[usize], extra: u64) -> usize {
        let Some(cap) = self.cfg.shadow_cap else {
            return 0;
        };
        let (sizes, p) = (&self.tested_sizes, self.cfg.p as u64);
        let kinds = rlrpd_shadow::fit_budget(&self.tested_shadow, sizes, touched, p, extra, cap);
        let changed = (kinds.iter().zip(&self.tested_shadow))
            .filter(|(a, b)| a != b)
            .count();
        self.tested_shadow = kinds;
        if changed > 0 {
            self.rebuild_views();
        }
        changed
    }

    /// Run one speculative stage over `schedule` (which must carry
    /// exactly `p` blocks).
    ///
    /// A panic inside a speculative block is **contained**: it is folded
    /// into the outcome as a speculation fault of that block (the
    /// passing prefix still commits, the block's untested writes are
    /// restored) and reported via [`StageOutcome::fault`]. An `Err` is
    /// returned only for failures of the stage machinery itself — an
    /// injected checkpoint fault (recoverable by the driver's
    /// sequential fallback, because it fires before any speculative
    /// write) or a violated internal invariant.
    pub fn run_stage(&mut self, schedule: &BlockSchedule) -> Result<StageOutcome, RlrpdError> {
        assert_eq!(schedule.num_blocks(), self.cfg.p, "one block per processor");
        let stage = self.stage_ordinal;
        self.stage_ordinal += 1;
        let fault_plan = self.cfg.fault.clone().filter(|pl| !pl.is_empty());
        if let Some(plan) = &fault_plan {
            // Checkpoint faults fire before the stage touches any
            // state, so the caller can always recover by executing the
            // remainder sequentially from the current commit point.
            if plan.should_fail_checkpoint(stage) {
                return Err(RlrpdError::CheckpointFault {
                    stage,
                    message: "injected checkpoint failure".into(),
                });
            }
        }
        let cost = self.cfg.cost;
        let forks_before = self.executor.fork_joins();
        let mut stats = StageStats {
            iters_attempted: schedule.num_iters(),
            ..Default::default()
        };

        // 1. Eager checkpoint of the untested arrays that need undo.
        let snapshot =
            if self.cfg.checkpoint == CheckpointPolicy::Eager && !self.untested_ids.is_empty() {
                let wlog = &self.states[0].wlog;
                let arrays: Vec<Vec<T>> = self
                    .untested_ids
                    .iter()
                    .enumerate()
                    .map(|(slot, &id)| match wlog.needs_undo(slot) {
                        true => self.shared[id].to_vec(),
                        false => Vec::new(),
                    })
                    .collect();
                let snap = EagerSnapshot::take(arrays);
                stats.overhead.add(
                    OverheadKind::Checkpoint,
                    snap.num_elems() as f64 * cost.checkpoint_per_elem,
                );
                Some(snap)
            } else {
                None
            };

        // 2. New write epoch for the speculative phase.
        for buf in &mut self.shared {
            buf.new_epoch();
        }

        // 3. Execute the blocks — on the worker fleet when a remote
        // link is attached, otherwise in-process (containing any panic:
        // a panic in one block must not discard the independent work of
        // the others). A lost fleet degrades to the in-process path for
        // this same stage: nothing below mutates engine state until the
        // remote dispatch has fully succeeded, so re-execution is safe.
        let remote_result = if self.remote.is_some() {
            match self.execute_remote(schedule, stage, &mut stats) {
                Ok(r) => Some(r),
                Err(_loss) => {
                    self.remote = None;
                    self.worker_loss = true;
                    None
                }
            }
        } else {
            None
        };
        let (timing, fault) = if let Some(r) = remote_result {
            r
        } else {
            stats.threads = self.executor.threads();
            self.run_blocks_local(schedule, fault_plan.as_deref(), false)
        };
        stats.contained_faults = fault.is_some() as usize;
        for st in &self.states {
            stats.batched_iters += st.tally.batched_iters;
            stats.scalar_strips += st.tally.scalar_strips;
            stats.lane_replays += st.tally.lane_replays;
        }
        stats.loop_time = timing.critical_path();
        stats.total_work = timing.total_work();
        stats.wall_seconds = timing.wall_seconds;

        // Locality accounting: an iteration executing on a different
        // processor than its last toucher pays a remote-miss penalty —
        // the ccNUMA effect that motivates the circular sliding window
        // and half the cost of redistribution. Charged as the max over
        // blocks (misses happen inside the parallel section). A block
        // executed the front of its range, so the ledger is asked once
        // per block — every block's misses before any is assigned.
        let executed = |pos: usize| {
            let first = schedule.blocks()[pos].range.start;
            (
                first..first + self.states[pos].iter_costs.len(),
                schedule.blocks()[pos].proc.0,
            )
        };
        if cost.remote_miss > 0.0 {
            let max_misses = (0..self.cfg.p)
                .map(|pos| {
                    let (iters, proc) = executed(pos);
                    self.last_proc.misses(iters, proc)
                })
                .fold(0, usize::max);
            stats.overhead.add(
                OverheadKind::RemoteMiss,
                max_misses as f64 * cost.remote_miss,
            );
        }
        for pos in 0..self.cfg.p {
            let (iters, proc) = executed(pos);
            self.last_proc.assign(iters, proc);
        }

        // On-demand checkpoint entries were saved during the loop; the
        // parallel cost is the max undo-log length over blocks.
        if self.cfg.checkpoint == CheckpointPolicy::OnDemand {
            let max_undo = self
                .states
                .iter()
                .map(|st| st.wlog.num_undo())
                .fold(0, usize::max);
            stats.overhead.add(
                OverheadKind::Checkpoint,
                max_undo as f64 * cost.checkpoint_per_elem,
            );
        }

        // Marking overhead: per-processor, so the parallel cost is the
        // max reference count over blocks.
        let max_refs = self
            .states
            .iter()
            .map(|st| st.views.iter().map(ProcView::refs).sum::<u64>())
            .fold(0, u64::max);
        stats.overhead.add(
            OverheadKind::Marking,
            max_refs as f64 * cost.marking_per_ref,
        );

        // Host phase timing is only meaningful (and only measured) when
        // real threads run the stage; the simulated executor's contract
        // keeps every reported number independent of the host.
        let timed = self.executor.mode() != ExecMode::Simulated;
        stats.phases.execute_seconds = timing.wall_seconds;

        // 3.5 The cap check at the execute→analysis boundary, where the
        // views are at their largest. Injected pressure is a spike on
        // top of the live bytes: it shows in the peak, and the ladder
        // must shed enough to absorb it.
        let spike = fault_plan
            .as_ref()
            .and_then(|plan| plan.shadow_pressure(stage))
            .unwrap_or(0);
        if self.over_cap(spike) {
            // Containment, exactly like a speculation fault whose sink
            // is block 0: nothing commits, every untested write is
            // restored, and the whole stage re-executes — under smaller
            // kinds when the ladder found any, under the driver's
            // window-shrink or sequential-fallback rung when it did
            // not. Never an abort.
            stats.shadow_pressure_events = 1;
            for buf in &mut self.shared {
                buf.new_epoch();
            }
            if !self.untested_ids.is_empty() {
                let max_restored = self.restore_untested_writes(0, snapshot.as_ref(), stage)?;
                stats.overhead.add(
                    OverheadKind::Restore,
                    max_restored as f64 * cost.restore_per_elem,
                );
            }
            let touched = self.densest_touches();
            let changed = self.fit_shadows(&touched, spike);
            stats.shadow_migrations = changed;
            if changed == 0 {
                // A fresh build (unlike `clear`, which keeps
                // allocations) returns memory even below the ladder.
                self.rebuild_views();
            }
            stats.shadow_bytes_peak = stats.shadow_bytes_peak.max(self.shadow_peak);
            stats.fork_joins = self.executor.fork_joins() - forks_before;
            // Nothing committed: re-execution starts where the schedule
            // does — its first non-empty block, since an NRD restart
            // leaves idle blocks parked below the commit point.
            let first = schedule.span().map_or(schedule.block_start(0), |s| s.start);
            return Ok(StageOutcome {
                violation: Some(0),
                restart_iter: Some(first),
                stats,
                arcs: Vec::new(),
                committed_marks: Vec::new(),
                exit: None,
                fault: None,
                delta: self.delta_bits.map(|_| StageDelta::default()),
                shadow_pressure: true,
                shadow_relieved: changed > 0,
            });
        }

        // Every phase below runs on this thread: the doall above is
        // the stage's only fork-join, the one `s` the paper's model
        // charges per stage (DESIGN §4.6).
        // 4. Analysis: merge shadows, locate the earliest sink. The
        // tree merge over p shadows costs O(max_touched · log p).
        let phase_start = std::time::Instant::now();
        let per_pos: Vec<&[ProcView<T>]> = self.states.iter().map(|s| s.views.as_slice()).collect();
        let analysis: AnalysisResult = analyze(&per_pos, &self.tested_ids, &mut self.producers);
        if timed {
            stats.phases.analysis_seconds = phase_start.elapsed().as_secs_f64();
        }
        let merge_depth = (self.cfg.p as f64).log2().ceil().max(1.0);
        stats.overhead.add(
            OverheadKind::Analysis,
            analysis.max_touched as f64 * cost.analysis_per_ref * merge_depth,
        );
        // A contained panic is a speculation fault of its block: fold
        // it into the violation as if a dependence arc sank there. The
        // blocks before it are unaffected (they commit below); the
        // faulted block and everything after it re-execute.
        let violation = match (analysis.first_violation, fault.as_ref().map(|f| f.pos)) {
            (None, None) => None,
            (v, f) => Some(v.unwrap_or(usize::MAX).min(f.unwrap_or(usize::MAX))),
        };
        let mut commit_upto = match violation {
            None => self.cfg.p,
            Some(q) if self.cfg.commit_prefix_on_failure => q,
            Some(_) => 0,
        };
        drop(per_pos);

        // A premature exit is *trusted* only when its block lies below
        // the earliest dependence sink — otherwise the block may have
        // decided to exit on stale data and will re-execute anyway.
        let exit = self.states[..commit_upto]
            .iter()
            .enumerate()
            .find_map(|(pos, st)| st.exit_iter.map(|e| (pos, e as usize)));
        if let Some((pos, _)) = exit {
            // Blocks above the exiting one executed dead iterations:
            // their work is discarded (the exiting block itself stopped
            // at the exit, so everything it holds is valid).
            commit_upto = pos + 1;
        }

        // 5. Commit the passing prefix (new epoch: the commit writers
        // are distinct from the speculative writers).
        let phase_start = std::time::Instant::now();
        for buf in &mut self.shared {
            buf.new_epoch();
        }
        let (cstats, written) = self.commit(commit_upto);
        stats.overhead.add(
            OverheadKind::Commit,
            cstats.max_per_block as f64 * cost.commit_per_elem,
        );
        if timed {
            stats.phases.commit_seconds = phase_start.elapsed().as_secs_f64();
        }

        if let Some(iter_times) = &mut self.iter_times {
            for (iter, c) in self.states[..commit_upto]
                .iter()
                .flat_map(|st| st.iter_costs.iter())
            {
                iter_times[iter as usize] = c;
            }
        }
        stats.iters_committed = schedule.blocks()[..commit_upto]
            .iter()
            .map(|b| b.range.len())
            .sum();
        if let Some((pos, e)) = exit {
            // The exiting block executed (and commits) only up to the
            // exit iteration; the rest of its range was skipped.
            stats.iters_committed -= schedule.blocks()[pos].range.end - (e + 1);
        }

        // 6. Restore untested state written by failed or dead blocks.
        let phase_start = std::time::Instant::now();
        if (violation.is_some() || exit.is_some()) && !self.untested_ids.is_empty() {
            let max_restored =
                self.restore_untested_writes(commit_upto, snapshot.as_ref(), stage)?;
            stats.overhead.add(
                OverheadKind::Restore,
                max_restored as f64 * cost.restore_per_elem,
            );
            if timed {
                stats.phases.restore_seconds = phase_start.elapsed().as_secs_f64();
            }
        }

        // 7. Collect committed blocks' per-iteration marks (DDG mode).
        let committed_marks = if self.record_marks {
            self.states[..commit_upto]
                .iter_mut()
                .zip(schedule.blocks())
                .map(|(st, b)| CommittedBlockMarks {
                    range: b.range.clone(),
                    marks: std::mem::take(&mut st.marks),
                })
                .collect()
        } else {
            Vec::new()
        };

        // 7.5 Journal delta capture — must run after commit/restore
        // (values read from shared are final) and before the shadow
        // clear below wipes the write-logs it walks.
        let delta = self
            .delta_bits
            .map(|to_bits| self.capture_delta(commit_upto, &written, to_bits));
        drop(written);

        // 8. Shadow re-initialization (O(touched) per block).
        let phase_start = std::time::Instant::now();
        // The busiest block's touched count, as the analysis found it
        // (nothing has touched the views since).
        stats.overhead.add(
            OverheadKind::ShadowInit,
            analysis.max_touched as f64 * cost.shadow_init_per_elem,
        );
        let record = self.record_marks;
        let num_slots = self.tested_ids.len();
        let touched = self.densest_touches();
        for (seen, now) in self.densest_seen.iter_mut().zip(touched) {
            if now > 0 {
                *seen = now;
            }
        }
        for st in &mut self.states {
            for v in &mut st.views {
                v.clear();
            }
            st.wlog.clear();
            if record {
                st.marks = (0..num_slots).map(|_| IterMarks::new()).collect();
            }
        }
        if timed {
            stats.phases.shadow_clear_seconds = phase_start.elapsed().as_secs_f64();
        }

        // Max-fold rather than overwrite: on a distributed stage the
        // workers' reported footprints are already folded in.
        stats.shadow_bytes_peak = stats.shadow_bytes_peak.max(self.shadow_peak);

        // 9. Barrier.
        stats.overhead.add(OverheadKind::Sync, cost.sync);
        stats.fork_joins = self.executor.fork_joins() - forks_before;

        Ok(StageOutcome {
            violation,
            restart_iter: violation.map(|q| schedule.block_start(q)),
            stats,
            arcs: analysis.arcs,
            committed_marks,
            exit: exit.map(|(_, e)| e),
            fault,
            delta,
            shadow_pressure: false,
            shadow_relieved: false,
        })
    }

    /// Restore every untested-array element written by the blocks at
    /// positions `commit_upto..` (their work is discarded), returning
    /// the largest per-block restore count for overhead accounting —
    /// the body of phase 6 of [`Engine::run_stage`], shared with the
    /// budget-pressure containment path (which restores *all* blocks)
    /// and a fleet worker's rollback. A restore-free array's writes
    /// stay: re-execution rewrites them (`crate::checkpoint`).
    pub(crate) fn restore_untested_writes(
        &mut self,
        commit_upto: usize,
        snapshot: Option<&EagerSnapshot<T>>,
        stage: usize,
    ) -> Result<usize, RlrpdError> {
        let mut max_restored = 0usize;
        for (off, st) in self.states[commit_upto..].iter().enumerate() {
            let pos = commit_upto + off;
            let mut restored = 0;
            match st.wlog.policy() {
                CheckpointPolicy::OnDemand => {
                    for (slot, elem, old) in st.wlog.undo_rev() {
                        // SAFETY: each failed block restores only the
                        // elements it wrote, disjoint by the untested
                        // contract; commit wrote only tested arrays.
                        unsafe { self.shared[self.untested_ids[slot]].set(elem, old, pos as u32) };
                        restored += 1;
                    }
                }
                CheckpointPolicy::Eager => {
                    // A missing snapshot under the eager policy is
                    // an engine bug; surface it as a structured
                    // error rather than aborting a long run.
                    let snap = snapshot.ok_or_else(|| RlrpdError::StageInvariant {
                        message: format!("eager policy took no snapshot before stage {stage}"),
                    })?;
                    for (slot, &id) in self.untested_ids.iter().enumerate() {
                        if !st.wlog.needs_undo(slot) {
                            continue;
                        }
                        for elem in st.wlog.written(slot) {
                            // SAFETY: as above.
                            unsafe {
                                self.shared[id].set(elem, snap.value(slot, elem), pos as u32)
                            };
                            restored += 1;
                        }
                    }
                }
            }
            max_restored = max_restored.max(restored);
        }
        Ok(max_restored)
    }

    /// Rebuild every view fresh from the current per-slot kinds: how a
    /// kind changes, and the pressure path's replacement for the
    /// O(touched) clear.
    fn rebuild_views(&mut self) {
        let record = self.record_marks;
        let num_slots = self.tested_ids.len();
        for st in &mut self.states {
            st.views = fresh_views(&self.tested_sizes, &self.tested_shadow, &self.reductions);
            st.wlog.clear();
            if record {
                st.marks = (0..num_slots).map(|_| IterMarks::new()).collect();
            }
        }
    }

    /// The one block body. Execute the stage's blocks on the in-process
    /// executor — per block: reset its state, run its iterations
    /// against its private views from the block's counter, record each
    /// iteration's cost and a requested exit, and leave the counter
    /// where the block ended — containing any panic, and return the
    /// timing plus the contained fault (if any). The local half of
    /// phase 3 of [`Engine::run_stage`], the whole of a fleet worker's
    /// block ([`crate::remote`]: a one-block schedule on a
    /// one-processor engine), and each doall of [`crate::run_induction`].
    ///
    /// The loop gets a block's whole range in one
    /// [`SpecLoop::run_iters`] call unless something must act between
    /// iterations: fault injection fires there, DDG extraction logs
    /// every reference under its iteration, and `stepwise` asks for it
    /// outright (the worker's setting until ROADMAP 8(d) measures
    /// strips there).
    pub(crate) fn run_blocks_local(
        &mut self,
        schedule: &BlockSchedule,
        plan: Option<&FaultPlan>,
        stepwise: bool,
    ) -> (StageTiming, Option<FaultEvent>) {
        let lp = self.lp;
        let meta = &self.meta;
        let shared = &self.shared;
        let record = self.record_marks;
        let (mut timing, panic) = self.executor.try_run_blocks(&mut self.states, |pos, st| {
            st.iter_costs.clear();
            st.exit_iter = None;
            st.tally = BatchTally::default();
            let range = schedule.blocks()[pos].range.clone();
            let proc = schedule.blocks()[pos].proc.0;
            let mut total = 0.0;
            let mut ctx = IterCtx::speculative(
                range.start,
                pos as u32,
                meta,
                shared,
                &mut st.views,
                &mut st.wlog,
                record.then_some(&mut st.marks[..]),
            );
            ctx.counter = st.counter;
            let iter_costs = &mut st.iter_costs;
            let exit_iter = &mut st.exit_iter;
            let mut after = |ctx: &mut IterCtx<'_, T>, n: usize| {
                for _ in 0..n {
                    let (iter, extra, exited) = ctx.advance();
                    let mut c = lp.cost(iter) + extra;
                    if let Some(plan) = plan {
                        c += plan.delay_for(proc, iter);
                    }
                    iter_costs.push(iter as u32, c);
                    total += c;
                    if exited {
                        // Within a block execution is sequential: the
                        // rest of the block is known-dead and is skipped.
                        *exit_iter = Some(iter as u32);
                        return false;
                    }
                }
                true
            };
            if plan.is_none() && !record && !stepwise {
                st.tally = lp.run_iters(range, &mut ctx, &mut after);
            } else {
                for iter in range {
                    if let Some(plan) = plan {
                        if plan.should_panic(proc, iter) {
                            // resume_unwind skips the panic hook: injected
                            // faults stay silent on stderr.
                            std::panic::resume_unwind(Box::new(InjectedFault { proc, iter }));
                        }
                    }
                    lp.run_iters(iter..iter + 1, &mut ctx, &mut after);
                    if ctx.exited {
                        break;
                    }
                }
            }
            st.counter = ctx.counter;
            total
        });
        let fault = panic.map(|jp| {
            let pos = jp.index;
            let range = &schedule.blocks()[pos].range;
            // iter_costs counts the iterations completed before the
            // panic, and blocks run their contiguous range in order, so
            // the faulting iteration is the next one.
            let iter = range.start + self.states[pos].iter_costs.len();
            // The executor reports 0.0 for the panicked block; restore
            // the partial work it actually performed.
            timing.per_block_cost[pos] = self.states[pos].iter_costs.total();
            FaultEvent {
                pos,
                iter,
                message: panic_message(jp.payload.as_ref()),
            }
        });
        (timing, fault)
    }

    /// Assemble the committed-write delta of the stage that just ran.
    /// For tested arrays it *is* the commit: `written`, the write-back
    /// lists [`commit_tested`] returned, sorted by element. For
    /// untested arrays it is the elements the committed blocks'
    /// write-logs flagged, with the values shared storage holds now —
    /// identical under the eager and on-demand checkpoint policies.
    /// O(touched) either way.
    fn capture_delta(
        &mut self,
        commit_upto: usize,
        written: &PerBlock<T>,
        to_bits: fn(T) -> u64,
    ) -> StageDelta {
        let mut by_array: Vec<Vec<(u32, u64)>> = vec![Vec::new(); self.shared.len()];
        for &(id, elem, v) in written.iter().flatten() {
            by_array[id as usize].push((elem as u32, to_bits(v)));
        }
        for (slot, &id) in self.untested_ids.iter().enumerate() {
            let buf = self.shared[id].as_slice();
            for st in &self.states[..commit_upto] {
                by_array[id].extend(st.wlog.written(slot).map(|e| (e as u32, to_bits(buf[e]))));
            }
        }
        let arrays = by_array
            .into_iter()
            .enumerate()
            .filter(|(_, elems)| !elems.is_empty())
            .map(|(id, mut elems)| {
                // A record's lists are strictly ascending. The commit
                // writes each tested element back once; an untested
                // element is its block's alone only by the loop's
                // contract, so drop repeats.
                elems.sort_unstable_by_key(|&(elem, _)| elem);
                elems.dedup_by_key(|&mut (elem, _)| elem);
                (id as u32, elems)
            })
            .collect();
        StageDelta { arrays }
    }

    /// A delta holding the complete current contents of every array —
    /// the sequential fallback's journal record (its direct writes are
    /// not tracked by write-logs, so O(array) is the honest capture;
    /// fallback is rare and terminal).
    pub(crate) fn full_state_delta(&mut self) -> Option<StageDelta> {
        let to_bits = self.delta_bits?;
        let arrays = (0..self.shared.len())
            .map(|id| {
                let buf = self.shared[id].as_slice();
                (
                    id as u32,
                    buf.iter()
                        .enumerate()
                        .map(|(e, &v)| (e as u32, to_bits(v)))
                        .collect(),
                )
            })
            .collect();
        Some(StageDelta { arrays })
    }

    /// This run's next commit record: `delta` and where it leaves the
    /// run.
    pub(crate) fn commit_record(
        &mut self,
        frontier: usize,
        exited_at: Option<usize>,
        fallback: bool,
        delta: StageDelta,
    ) -> CommitRecord {
        let stage = self.commits;
        self.commits += 1;
        CommitRecord {
            stage,
            frontier,
            exited_at,
            fallback,
            arrays: delta.arrays,
        }
    }

    /// Per declared array, in declaration order: `(size, is_tested)` —
    /// the journal header's layout fingerprint.
    pub(crate) fn layout(&self) -> Vec<(u64, bool)> {
        let mut tested = vec![false; self.shared.len()];
        for &id in &self.tested_ids {
            tested[id] = true;
        }
        self.shared
            .iter()
            .zip(tested)
            .map(|(buf, t)| (buf.len() as u64, t))
            .collect()
    }

    /// Execute `range` directly (no speculation) against the engine's
    /// current shared state and [`Engine::counter`], returning the
    /// virtual work performed and the exit iteration if the body
    /// requested a premature exit. Used by the classic-LRPD baseline's
    /// sequential re-execution, the driver's sequential fallback and
    /// the induction scheme's.
    ///
    /// A panic here *is* a genuine program fault — the iteration ran on
    /// exactly the state sequential execution would have given it — and
    /// is reported as [`RlrpdError::ProgramFault`] instead of
    /// unwinding. Fault injection does not apply: direct execution is
    /// the trusted baseline the containment layer falls back to.
    pub fn run_direct(&mut self, range: Range<usize>) -> Result<(f64, Option<usize>), RlrpdError> {
        for buf in &mut self.shared {
            buf.new_epoch();
        }
        let start = range.start;
        let mut work = 0.0;
        let mut done = 0usize;
        let mut exited = None;
        let lp = self.lp;
        let meta = &self.meta;
        let shared = &self.shared;
        let counter = &mut self.counter;
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = IterCtx::direct(range.start, 0, meta, shared);
            ctx.counter = *counter;
            lp.run_iters(range, &mut ctx, &mut |ctx, n| {
                for _ in 0..n {
                    let (iter, extra, exit) = ctx.advance();
                    work += lp.cost(iter) + extra;
                    done += 1;
                    if exit {
                        exited = Some(iter);
                        return false;
                    }
                }
                true
            });
            *counter = ctx.counter;
        }));
        match run {
            Ok(()) => Ok((work, exited)),
            Err(payload) => Err(RlrpdError::ProgramFault {
                iter: start + done,
                message: panic_message(payload.as_ref()),
            }),
        }
    }

    /// Final contents of every declared array, in declaration order —
    /// moved out of the engine, which ends here.
    pub fn arrays_out(self) -> Vec<(&'static str, Vec<T>)> {
        self.meta
            .iter()
            .map(|m| m.name)
            .zip(self.shared.into_iter().map(SharedBuf::into_vec))
            .collect()
    }

    /// Total sequential work Σ cost(i) of the whole loop.
    pub fn sequential_work(&self) -> f64 {
        (0..self.n).map(|i| self.lp.cost(i)).sum()
    }
}

/// Fresh views, one per tested slot, each in its slot's kind.
fn fresh_views<T: Value>(
    sizes: &[usize],
    kinds: &[ShadowKind],
    reductions: &[Option<Reduction<T>>],
) -> Vec<ProcView<T>> {
    (0..sizes.len())
        .map(|slot| ProcView::new(sizes[slot], kinds[slot], reductions[slot]))
        .collect()
}

/// Execute `lp` sequentially (direct references, no speculation) and
/// return the final arrays and the total virtual work — the ground
/// truth every speculative strategy is tested against, and the
/// denominator of reported speedups.
pub fn run_sequential<T: Value>(lp: &dyn SpecLoop<T>) -> (Vec<(&'static str, Vec<T>)>, f64) {
    let (arrays, work, _) = run_sequential_counted(lp);
    (arrays, work)
}

/// [`run_sequential`], also returning where a counter loop's counter
/// ends (`None` for a loop without one).
#[allow(clippy::type_complexity)]
pub fn run_sequential_counted<T: Value>(
    lp: &dyn SpecLoop<T>,
) -> (Vec<(&'static str, Vec<T>)>, f64, Option<usize>) {
    let RoutedArrays { meta, shared, .. } = RoutedArrays::new(lp.arrays());
    let mut work = 0.0;
    let mut ctx = IterCtx::direct(0, 0, &meta, &shared);
    ctx.counter = lp.initial_counter().unwrap_or(0);
    lp.run_iters(0..lp.num_iters(), &mut ctx, &mut |ctx, n| {
        for _ in 0..n {
            let (iter, extra, exited) = ctx.advance();
            work += lp.cost(iter) + extra;
            if exited {
                return false;
            }
        }
        true
    });
    let counter = lp.initial_counter().map(|_| ctx.counter);
    drop(ctx);

    let arrays = meta
        .iter()
        .map(|m| m.name)
        .zip(shared.into_iter().map(SharedBuf::into_vec))
        .collect();
    (arrays, work, counter)
}

/// Which of `lp`'s arrays (in declaration order) declare a reduction
/// operator — the arrays [`verify_against_sequential`] compares at a
/// rounding tolerance.
pub fn reduction_mask<T: Value>(lp: &dyn SpecLoop<T>) -> Vec<bool> {
    lp.arrays()
        .iter()
        .map(|d| {
            matches!(
                d.kind,
                ArrayKind::Tested {
                    reduction: Some(_),
                    ..
                }
            )
        })
        .collect()
}

/// Whether `have` may stand for the sequential `want` on a reduction
/// array: the same bits, both NaN, or both finite and within
/// `1e-9 · max(|want|, 1)`. A NaN or an infinity never passes for a
/// number, nor a number for one.
fn reduction_matches(want: f64, have: f64) -> bool {
    want.to_bits() == have.to_bits()
        || (want.is_nan() && have.is_nan())
        || (want.is_finite()
            && have.is_finite()
            && (want - have).abs() <= 1e-9 * want.abs().max(1.0))
}

/// The one acceptance rule for a finished run, shared by `rlrpd run`,
/// the daemon and the benchmark: every array of `got` must equal the
/// sequential `reference` bit for bit (`f64::to_bits`), except arrays
/// flagged in `reductions` ([`reduction_mask`]) — a parallel fold
/// reassociates the sum, so those compare at `1e-9 · max(|x|, 1)`
/// between finite values ([`reduction_matches`]).
pub fn verify_against_sequential(
    reference: &[(&'static str, Vec<f64>)],
    got: &[(&'static str, Vec<f64>)],
    reductions: &[bool],
) -> Result<(), String> {
    if reference.len() != got.len() || reference.len() != reductions.len() {
        return Err(format!(
            "{} arrays returned, {} expected",
            got.len(),
            reference.len()
        ));
    }
    for (((name, want), (_, have)), &reduction) in reference.iter().zip(got).zip(reductions) {
        if want.len() != have.len() {
            return Err(format!(
                "array {name}: length {} != {}",
                have.len(),
                want.len()
            ));
        }
        let mut pairs = want.iter().zip(have);
        let bad = if reduction {
            pairs.position(|(a, b)| !reduction_matches(*a, *b))
        } else {
            pairs.position(|(a, b)| a.to_bits() != b.to_bits())
        };
        if let Some(k) = bad {
            return Err(format!(
                "array {name}[{k}] = {} differs from sequential execution ({})",
                have[k], want[k]
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, ArrayId};
    use crate::spec_loop::ClosureLoop;

    fn engine_cfg(p: usize, fault: Option<FaultPlan>) -> EngineCfg {
        EngineCfg {
            p,
            exec: ExecMode::Simulated,
            cost: CostModel::default(),
            checkpoint: CheckpointPolicy::OnDemand,
            commit_prefix_on_failure: true,
            fault: fault.map(Arc::new),
            shadow_cap: None,
        }
    }

    /// `A[i] = i` (tested), `U[i]` written twice and `V[i]` once
    /// (untested), optionally exiting at one iteration.
    fn doall(n: usize, exit_at: Option<usize>) -> ClosureLoop {
        ClosureLoop::new(
            n,
            move || {
                vec![
                    ArrayDecl::tested("A", vec![0.0; n], ShadowKind::Dense),
                    ArrayDecl::untested("U", vec![0.0; n]),
                    ArrayDecl::untested("V", vec![0.0; n]),
                ]
            },
            move |i, ctx| {
                ctx.write(ArrayId(0), i, i as f64);
                ctx.write(ArrayId(1), i, 1.0);
                ctx.write(ArrayId(2), i, 2.0);
                ctx.write(ArrayId(1), i, 3.0);
                if Some(i) == exit_at {
                    ctx.exit();
                }
            },
        )
    }

    /// Costs whose sum depends on the order of the additions.
    fn mixed(i: usize) -> f64 {
        if i.is_multiple_of(3) {
            0.1
        } else {
            2.5
        }
    }

    fn bits(costs: &[f64]) -> Vec<u64> {
        costs.iter().map(|c| c.to_bits()).collect()
    }

    #[test]
    fn a_doall_stage_leaves_ledgers_the_size_of_its_structure() {
        let (n, p) = (4096, 4);
        let lp = doall(n, None);
        let schedule = BlockSchedule::even(0..n, p);

        // What a block holds when it finishes (the stage's clear wipes
        // the write log): one cost run, and one write-log run for each
        // untested array it swept — with an undo entry per element for
        // `U`, none for the restore-free `W`.
        let sweep = ClosureLoop::new(
            n,
            move || {
                vec![
                    ArrayDecl::tested("A", vec![0.0; n], ShadowKind::Dense),
                    ArrayDecl::untested("U", vec![0.0; n]),
                    ArrayDecl {
                        name: "W",
                        kind: ArrayKind::Untested { restore_free: true },
                        init: vec![0.0; n],
                    },
                ]
            },
            |i, ctx| {
                ctx.write(ArrayId(0), i, 1.0);
                if i % 2 == 0 {
                    ctx.write(ArrayId(1), i, 1.0);
                }
                ctx.write(ArrayId(2), i, 1.0);
            },
        );
        let mut eng = Engine::new(&sweep, engine_cfg(p, None), false);
        eng.run_blocks_local(&schedule, None, false);
        for st in &eng.states {
            assert_eq!(st.iter_costs.runs().len(), 1);
            assert_eq!(st.iter_costs.len(), n / p);
            // `U` every other element, `W` every element, turn about:
            // a `U` run and a two-element `W` run per pair.
            assert_eq!(st.wlog.written(0).count(), n / p / 2);
            assert_eq!(st.wlog.written(1).count(), n / p);
            assert_eq!(st.wlog.num_runs(), n / p);
            assert_eq!(st.wlog.num_undo(), n / p / 2);
            assert!(st
                .wlog
                .undo_rev()
                .all(|(slot, elem, _)| slot == 0 && elem % 2 == 0));
        }
        // A discarded block restores `U` and leaves `W` to re-execution.
        eng.restore_untested_writes(0, None, 0).unwrap();
        let arrays = eng.arrays_out();
        assert_eq!(arrays[1].1, vec![0.0; n]);
        assert_eq!(arrays[2].1, vec![1.0; n]);
        // With one untested sweep alone: one run per block.
        let sweep = ClosureLoop::new(
            n,
            move || {
                vec![
                    ArrayDecl::tested("A", vec![0.0; n], ShadowKind::Dense),
                    ArrayDecl::untested("U", vec![0.0; n]),
                ]
            },
            |i, ctx| {
                ctx.write(ArrayId(0), i, 1.0);
                ctx.write(ArrayId(1), i, 1.0);
            },
        );
        let mut eng = Engine::new(&sweep, engine_cfg(p, None), false);
        eng.run_blocks_local(&schedule, None, false);
        for st in &eng.states {
            assert_eq!((st.wlog.num_runs(), st.wlog.num_written()), (1, n / p));
        }
        // Two untested arrays written turn about never extend each
        // other's run: the log is in write order, so this is its worst
        // case — a run per first write, what the flat log always held.
        let mut eng = Engine::new(&lp, engine_cfg(p, None), false);
        eng.run_blocks_local(&schedule, None, false);
        for st in &eng.states {
            assert_eq!(st.wlog.num_written(), 2 * n / p);
            assert_eq!(st.wlog.num_runs(), 2 * n / p);
        }

        // A whole stage: one span per block, and no per-iteration
        // timing record unless a feedback policy asked for one.
        let mut eng = Engine::new(&lp, engine_cfg(p, None), false);
        let out = eng.run_stage(&schedule).unwrap();
        assert_eq!(out.stats.iters_committed, n);
        assert_eq!(eng.last_proc.spans().len(), p);
        assert!(eng.states.iter().all(|st| st.iter_costs.runs().len() == 1));
        assert!(eng.iter_times.is_none());
        // The same blocks on the same processors again: nothing moves,
        // nothing misses, nothing grows.
        let out = eng.run_stage(&schedule).unwrap();
        assert_eq!(out.stats.overhead.get(OverheadKind::RemoteMiss), 0.0);
        assert_eq!(eng.last_proc.spans().len(), p);
        // Rotated by one processor, every iteration misses.
        let out = eng.run_stage(&BlockSchedule::circular(0..n, p, 1)).unwrap();
        assert_eq!(
            out.stats.overhead.get(OverheadKind::RemoteMiss),
            (n / p) as f64
        );
        assert_eq!(eng.last_proc.spans().len(), p);

        // With the record on, it is the committed iterations' costs.
        let lp = doall(64, None).with_cost(mixed);
        let mut eng = Engine::new(&lp, engine_cfg(p, None), false);
        eng.iter_times = Some(vec![0.0; 64]);
        eng.run_stage(&BlockSchedule::even(0..64, p)).unwrap();
        let want: Vec<f64> = (0..64).map(mixed).collect();
        assert_eq!(eng.iter_times.as_deref(), Some(&want[..]));
    }

    /// A contained panic, then a premature exit, on ledgers kept as
    /// runs: fault iteration, block costs to the bit and remote-miss
    /// charge are the numbers the per-iteration ledgers produced (read
    /// off the parent commit of the change that introduced the runs).
    #[test]
    fn faults_and_exits_report_what_the_flat_ledgers_reported() {
        let lp = doall(64, Some(50)).with_cost(mixed);
        let whole = BlockSchedule::even(0..64, 4);
        let rest = BlockSchedule::even(32..64, 4);

        // Block level: the panicked block's partial cost is rebuilt
        // from its ledger; the block after it still ran (to its exit).
        let plan = FaultPlan::new().panic_at_iter(40);
        let mut eng = Engine::new(&lp, engine_cfg(4, None), false);
        let (timing, fault) = eng.run_blocks_local(&whole, Some(&plan), false);
        let fault = fault.expect("the injected panic is contained");
        assert_eq!((fault.pos, fault.iter), (2, 40));
        assert_eq!(
            bits(&timing.per_block_cost),
            [
                0x403999999999999a,
                0x403c000000000000,
                0x4029999999999999,
                0x4014666666666666
            ]
        );
        let mut eng = Engine::new(&lp, engine_cfg(4, None), false);
        let (timing, fault) = eng.run_blocks_local(&rest, None, false);
        assert!(fault.is_none());
        let exits: Vec<_> = eng.states.iter().map(|st| st.exit_iter).collect();
        assert_eq!(exits, [None, None, Some(50), None]);
        assert_eq!(
            bits(&timing.per_block_cost),
            [
                0x4029999999999999,
                0x402e666666666666,
                0x4014666666666666,
                0x4029999999999999
            ]
        );

        // Stage level: the panic stage commits two blocks and restores
        // the rest; the stage after it redistributes 32..64, so the
        // iterations that ran before the panic (32..40 on processor 2,
        // 48..51 on 3) miss on their new processors — 8 at most in one
        // block — and the exit at 50 ends the loop.
        let plan = FaultPlan::new().panic_at_iter(40);
        let mut eng = Engine::new(&lp, engine_cfg(4, Some(plan)), false);
        let out = eng.run_stage(&whole).unwrap();
        let fault = out.fault.as_ref().expect("contained");
        assert_eq!((fault.pos, fault.iter), (2, 40));
        assert_eq!((out.violation, out.restart_iter), (Some(2), Some(32)));
        assert_eq!(out.stats.iters_committed, 32);
        assert_eq!(out.stats.loop_time.to_bits(), 0x403c000000000000);
        assert_eq!(out.stats.total_work.to_bits(), 0x4051e00000000000);
        let overhead = |out: &StageOutcome, kind| out.stats.overhead.get(kind);
        assert_eq!(overhead(&out, OverheadKind::RemoteMiss), 0.0);
        assert_eq!(overhead(&out, OverheadKind::Restore), 0.8);
        assert_eq!(overhead(&out, OverheadKind::Checkpoint), 1.6);
        assert_eq!(
            eng.last_proc.spans().len(),
            4,
            "0..16, 16..32, 32..40, 48..51"
        );

        let out = eng.run_stage(&rest).unwrap();
        assert_eq!((out.exit, out.violation), (Some(50), None));
        assert_eq!(out.stats.iters_committed, 19);
        assert_eq!(out.stats.loop_time.to_bits(), 0x402e666666666666);
        assert_eq!(out.stats.total_work.to_bits(), 0x4046f33333333333);
        assert_eq!(overhead(&out, OverheadKind::RemoteMiss), 8.0);
        assert_eq!(overhead(&out, OverheadKind::Restore), 0.8);
        assert_eq!(overhead(&out, OverheadKind::Checkpoint), 0.8);
    }

    #[test]
    fn one_ulp_fails_a_plain_array_and_passes_a_reduction() {
        let reference = vec![("A", vec![1.0, 2.0]), ("SUM", vec![1e6])];
        let mask = [false, true];
        assert!(verify_against_sequential(&reference, &reference, &mask).is_ok());

        let mut off = reference.clone();
        off[1].1[0] = f64::from_bits(1e6f64.to_bits() + 1);
        assert!(verify_against_sequential(&reference, &off, &mask).is_ok());
        off[1].1[0] = 1e6 + 1.0;
        assert!(verify_against_sequential(&reference, &off, &mask).is_err());
        // A NaN or an infinity is not a number within tolerance.
        let one = vec![("SUM", vec![1.0])];
        let nan = vec![("SUM", vec![f64::NAN])];
        assert!(verify_against_sequential(&one, &nan, &[true]).is_err());
        assert!(verify_against_sequential(&nan, &one, &[true]).is_err());
        assert!(verify_against_sequential(&nan, &nan, &[true]).is_ok());
        let inf = vec![("SUM", vec![f64::INFINITY])];
        let five = vec![("SUM", vec![5.0])];
        assert!(verify_against_sequential(&inf, &five, &[true]).is_err());
        assert!(verify_against_sequential(&inf, &inf, &[true]).is_ok());
        let neg_inf = vec![("SUM", vec![f64::NEG_INFINITY])];
        assert!(verify_against_sequential(&inf, &neg_inf, &[true]).is_err());

        let mut off = reference.clone();
        off[0].1[1] = f64::from_bits(2.0f64.to_bits() + 1);
        let err = verify_against_sequential(&reference, &off, &mask).unwrap_err();
        assert!(err.contains("A[1]"), "{err}");
        // -0.0 == 0.0 numerically, but it is not what sequential wrote.
        let zero = vec![("Z", vec![0.0])];
        let neg = vec![("Z", vec![-0.0])];
        assert!(verify_against_sequential(&zero, &neg, &[false]).is_err());
        assert!(verify_against_sequential(&zero, &zero[..0], &[false]).is_err());
    }
}
