//! Per-stage execution statistics and overhead accounting.
//!
//! The paper's Fig. 4 decomposes each R-LRPD stage into loop time and
//! overhead (testing, synchronization, redistribution); Fig. 12 compares
//! optimizations by their effect on these components. [`StageStats`]
//! carries exactly that decomposition, in virtual time units, alongside
//! wall-clock measurements when real threads were used.

use crate::cost::Cost;

/// The overhead categories the R-LRPD test adds around the useful loop
/// work, mirroring Section 4's accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OverheadKind {
    /// Shadow-array marking during the speculative loop itself.
    Marking,
    /// The fully parallel analysis (shadow merge + test evaluation).
    Analysis,
    /// Last-value copy-out of correctly computed private data.
    Commit,
    /// Restoring checkpointed state on processors whose work failed.
    Restore,
    /// Saving checkpoints of untested-but-modified arrays.
    Checkpoint,
    /// Re-initializing shadow structures before a restart.
    ShadowInit,
    /// Moving iterations to different processors (RD strategy): remote
    /// misses plus data movement, `ℓ` per moved iteration.
    Redistribution,
    /// Cold/remote-cache penalties for iterations executing on a
    /// different processor than their last toucher (what the circular
    /// sliding window minimizes).
    RemoteMiss,
    /// Barrier synchronizations (`s` each).
    Sync,
}

impl OverheadKind {
    /// All categories, in report order.
    pub const ALL: [OverheadKind; 9] = [
        OverheadKind::Marking,
        OverheadKind::Analysis,
        OverheadKind::Commit,
        OverheadKind::Restore,
        OverheadKind::Checkpoint,
        OverheadKind::ShadowInit,
        OverheadKind::Redistribution,
        OverheadKind::RemoteMiss,
        OverheadKind::Sync,
    ];
}

/// Virtual-time overhead totals per category.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OverheadBreakdown {
    costs: [Cost; 9],
}

impl OverheadBreakdown {
    /// Add `cost` to category `kind`.
    pub fn add(&mut self, kind: OverheadKind, cost: Cost) {
        self.costs[Self::slot(kind)] += cost;
    }

    /// Total of one category.
    pub fn get(&self, kind: OverheadKind) -> Cost {
        self.costs[Self::slot(kind)]
    }

    /// Sum across all categories.
    pub fn total(&self) -> Cost {
        self.costs.iter().sum()
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &OverheadBreakdown) {
        for (a, b) in self.costs.iter_mut().zip(other.costs.iter()) {
            *a += b;
        }
    }

    fn slot(kind: OverheadKind) -> usize {
        OverheadKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind present in ALL")
    }
}

/// Wall-clock seconds spent in each phase of one speculative stage.
///
/// Measured only when real threads execute the stage; all fields are
/// `0.0` under the simulated executor (whose determinism contract
/// forbids host timing from leaking into results). The breakdown is
/// what the pooled analysis/commit pipeline optimizes: `analysis` and
/// `commit` were sequential merges in the seed, `shadow_clear` a
/// sequential loop.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSeconds {
    /// The speculative doall itself (the parallel section).
    pub execute_seconds: f64,
    /// Shadow merge + dependence-test evaluation.
    pub analysis_seconds: f64,
    /// Commit merge and parallel write-back.
    pub commit_seconds: f64,
    /// Restoring untested state written by failed blocks.
    pub restore_seconds: f64,
    /// Shadow/write-log re-initialization between stages.
    pub shadow_clear_seconds: f64,
}

impl PhaseSeconds {
    /// Sum of all phases.
    pub fn total(&self) -> f64 {
        self.execute_seconds
            + self.analysis_seconds
            + self.commit_seconds
            + self.restore_seconds
            + self.shadow_clear_seconds
    }

    /// Accumulate another stage's phases into this one.
    pub fn merge(&mut self, other: &PhaseSeconds) {
        self.execute_seconds += other.execute_seconds;
        self.analysis_seconds += other.analysis_seconds;
        self.commit_seconds += other.commit_seconds;
        self.restore_seconds += other.restore_seconds;
        self.shadow_clear_seconds += other.shadow_clear_seconds;
    }
}

/// Statistics of a single speculative stage (one doall attempt).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageStats {
    /// Virtual loop time: `max` over processors of their accumulated
    /// per-iteration work (the critical path of the doall).
    pub loop_time: Cost,
    /// Useful work summed across all processors this stage (used to
    /// separate "work executed" from "work wasted" after a failure).
    pub total_work: Cost,
    /// Virtual overhead decomposition for the stage.
    pub overhead: OverheadBreakdown,
    /// Number of iterations attempted this stage.
    pub iters_attempted: usize,
    /// Number of iterations committed by this stage's analysis.
    pub iters_committed: usize,
    /// Wall-clock seconds of the parallel section, when real threads ran
    /// it; `0.0` under the simulated executor.
    pub wall_seconds: f64,
    /// Wall-clock per-phase breakdown (all `0.0` under the simulated
    /// executor).
    pub phases: PhaseSeconds,
    /// Number of panics contained by this stage (recorded as
    /// speculation faults of their block, like a dependence arc).
    pub contained_faults: usize,
    /// Wall-clock seconds this stage was blocked on the crash journal
    /// (0.0 when the run is not journaled): waiting for the previous
    /// stage's record to be durable, then handing over its own, whose
    /// append runs beside the next stage (the run's last stage also
    /// carries the final wait). Unlike [`PhaseSeconds`], this is real
    /// I/O and is measured under every executor — it never feeds back
    /// into virtual-time results.
    pub journal_seconds: f64,
    /// Bytes appended to the crash journal for this stage (0 when the
    /// run is not journaled).
    pub journal_bytes: u64,
    /// Wall-clock seconds spent encoding and shipping block requests to
    /// worker subprocesses (0.0 except under distributed execution).
    /// Like the journal fields this is real I/O measured under every
    /// executor and never feeds back into virtual-time results.
    pub dispatch_seconds: f64,
    /// Wall-clock seconds spent waiting on and decoding worker replies
    /// (0.0 except under distributed execution).
    pub collect_seconds: f64,
    /// Bytes moved over worker pipes for this stage, both directions
    /// (0 except under distributed execution).
    pub wire_bytes: u64,
    /// Worker subprocesses respawned while executing this stage (after
    /// a kill, a missed block deadline, or a divergent result).
    pub respawns: usize,
    /// Worker slots quarantined while executing this stage — removed
    /// from the fleet rotation for the rest of the run after exhausting
    /// their own respawn budget or failing a deterministic handshake
    /// check (0 except under distributed execution).
    pub quarantined: usize,
    /// Peak shadow-memory footprint observed during this stage, in
    /// bytes, summed across this engine's processors (the budget
    /// accountant's high-water mark delta). Under distributed execution
    /// the supervisor folds in the workers' own peaks.
    pub shadow_bytes_peak: u64,
    /// Shadow-representation migrations performed at this stage's
    /// commit point (re-selection from observed touch density) or by
    /// the budget-pressure relief ladder.
    pub shadow_migrations: usize,
    /// Budget-pressure events contained during this stage: the shadow
    /// footprint crossed the cap and the stage re-executes under a
    /// degraded configuration.
    pub shadow_pressure_events: usize,
    /// Parallel sections (pool jobs) the stage dispatched — the
    /// barriers it really paid, against the one `s` the paper's model
    /// charges. One (the doall) when the stage's
    /// touched-entry count kept the analysis, commit and clear phases
    /// on the submitting thread, seven when they fanned out; always 0
    /// under the simulated executor, and 0 for the doall of a stage
    /// whose blocks ran on a worker fleet.
    pub fork_joins: usize,
    /// Iterations the loop's body tier executed several-at-a-time
    /// during this stage's doall (the bytecode VM's strips), summed over
    /// blocks; 0 for a loop without such a tier and for blocks that ran
    /// on a worker fleet.
    pub batched_iters: u64,
    /// Strips whose speculation failed or was abandoned and that
    /// re-executed one iteration at a time, summed over blocks.
    pub scalar_strips: u64,
}

impl StageStats {
    /// Virtual stage time: loop critical path plus all overheads.
    pub fn virtual_time(&self) -> Cost {
        self.loop_time + self.overhead.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = OverheadBreakdown::default();
        b.add(OverheadKind::Sync, 2.0);
        b.add(OverheadKind::Sync, 3.0);
        b.add(OverheadKind::Commit, 1.5);
        assert_eq!(b.get(OverheadKind::Sync), 5.0);
        assert_eq!(b.get(OverheadKind::Commit), 1.5);
        assert_eq!(b.get(OverheadKind::Restore), 0.0);
        assert_eq!(b.total(), 6.5);
    }

    #[test]
    fn breakdown_merge_is_elementwise() {
        let mut a = OverheadBreakdown::default();
        a.add(OverheadKind::Marking, 1.0);
        let mut b = OverheadBreakdown::default();
        b.add(OverheadKind::Marking, 2.0);
        b.add(OverheadKind::Analysis, 4.0);
        a.merge(&b);
        assert_eq!(a.get(OverheadKind::Marking), 3.0);
        assert_eq!(a.get(OverheadKind::Analysis), 4.0);
    }

    #[test]
    fn phase_seconds_total_and_merge() {
        let mut a = PhaseSeconds {
            execute_seconds: 1.0,
            analysis_seconds: 0.5,
            ..Default::default()
        };
        let b = PhaseSeconds {
            analysis_seconds: 0.25,
            commit_seconds: 2.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.analysis_seconds, 0.75);
        assert_eq!(a.total(), 1.0 + 0.75 + 2.0);
    }

    #[test]
    fn stage_virtual_time_includes_overheads() {
        let mut s = StageStats {
            loop_time: 10.0,
            ..StageStats::default()
        };
        s.overhead.add(OverheadKind::Sync, 2.0);
        assert_eq!(s.virtual_time(), 12.0);
    }
}
