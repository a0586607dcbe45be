//! Run-level reports: stage series, restarts, parallelism ratio, and
//! speedups.

use crate::driver::FallbackReason;
use rlrpd_runtime::{OverheadKind, PhaseSeconds, StageStats};

/// Report of one speculative run of a loop (one instantiation).
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Per-stage statistics, in execution order.
    pub stages: Vec<StageStats>,
    /// Number of restarts (failed stages); `stages.len() - restarts` of
    /// the stages committed the final pieces.
    pub restarts: usize,
    /// Σ of per-iteration useful work — the virtual time of a sequential
    /// execution and the denominator of [`RunReport::speedup`].
    pub sequential_work: f64,
    /// Wall-clock seconds of the parallel sections (threads mode only).
    pub wall_seconds: f64,
    /// Last executed iteration when the loop exited prematurely.
    pub exited_at: Option<usize>,
    /// Why (and whether) the driver abandoned speculation and finished
    /// the remainder with direct sequential execution.
    pub fallback: Option<FallbackReason>,
    /// Commit frontier this run was resumed from (crash-journal
    /// recovery); `None` for a run started from iteration 0. The
    /// `stages` series covers only the post-resume stages.
    pub resumed_at: Option<usize>,
    /// First dependence sink the static analysis predicted (the
    /// earliest iteration that can consume a cross-iteration value),
    /// copied from the run configuration for predicted-vs-observed
    /// comparison. `None` when no static prediction was supplied.
    pub predicted_first_dependence: Option<usize>,
    /// First dependence sink actually observed: the restart point of
    /// the earliest failed stage — the first iteration of the earliest
    /// dependence-sink block the LRPD test reported, a block-aligned
    /// lower bound on the true sink iteration. `None` for a run that
    /// never failed a stage.
    pub observed_first_dependence: Option<usize>,
    /// The run's shadow-memory cap in bytes, copied from the
    /// configuration (`None` = unlimited).
    pub shadow_budget: Option<u64>,
    /// Per tested array, in declaration order: `(name, final shadow
    /// representation)` at the end of the run — the observable trace of
    /// commit-point re-selection and budget degradation.
    pub shadow_reprs: Vec<(String, String)>,
    /// Commit frontier at which a cooperative stop
    /// ([`crate::Runner::with_stop`]) paused this run; `None` for a run
    /// that completed. A paused journaled run resumes from here.
    pub stopped_at: Option<usize>,
}

impl RunReport {
    /// Total virtual time: Σ over stages of loop critical path plus all
    /// overheads.
    pub fn virtual_time(&self) -> f64 {
        self.stages.iter().map(StageStats::virtual_time).sum()
    }

    /// Virtual speedup over sequential execution of the same loop.
    pub fn speedup(&self) -> f64 {
        self.sequential_work / self.virtual_time()
    }

    /// This run's parallelism ratio contribution:
    /// `PR = #instantiations / (#restarts + #instantiations)` with one
    /// instantiation.
    pub fn pr(&self) -> f64 {
        1.0 / (1.0 + self.restarts as f64)
    }

    /// Total overhead of one kind across stages.
    pub fn overhead(&self, kind: OverheadKind) -> f64 {
        self.stages.iter().map(|s| s.overhead.get(kind)).sum()
    }

    /// Total useful work actually executed (including work discarded by
    /// restarts); `total_work_executed - sequential_work` is the wasted
    /// speculation.
    pub fn total_work_executed(&self) -> f64 {
        self.stages.iter().map(|s| s.total_work).sum()
    }

    /// Set [`RunReport::wall_seconds`] from the stages: every driver's
    /// last step once its stages are in.
    pub fn sum_wall_seconds(&mut self) {
        self.wall_seconds = self.stages.iter().map(|s| s.wall_seconds).sum();
    }

    /// Panics contained across all stages (each was recorded as a
    /// speculation fault of its block and recovered by re-execution).
    pub fn contained_faults(&self) -> usize {
        self.stages.iter().map(|s| s.contained_faults).sum()
    }

    /// Wall-clock seconds the run was blocked on its crash journal,
    /// across all stages (0.0 for an unjournaled run): handing each
    /// record to the journal's writer and waiting for the one before it
    /// — the appends themselves run beside the next stage.
    pub fn journal_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.journal_seconds).sum()
    }

    /// Bytes appended to the crash journal across all stages (0 for an
    /// unjournaled run).
    pub fn journal_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.journal_bytes).sum()
    }

    /// Workers respawned across all stages of a distributed run —
    /// deaths, deadline kills, and divergence rejections combined (0
    /// for in-process runs).
    pub fn respawns(&self) -> usize {
        self.stages.iter().map(|s| s.respawns).sum()
    }

    /// Bytes moved over worker pipes across all stages of a distributed
    /// run (0 for in-process runs).
    pub fn wire_bytes(&self) -> u64 {
        self.stages.iter().map(|s| s.wire_bytes).sum()
    }

    /// Worker slots quarantined across all stages of a distributed run
    /// — removed from rotation after exhausting their own respawn
    /// budget or failing a deterministic handshake check (0 for
    /// in-process runs).
    pub fn quarantined(&self) -> usize {
        self.stages.iter().map(|s| s.quarantined).sum()
    }

    /// Wall-clock seconds spent shipping block requests to workers
    /// across all stages (0.0 for in-process runs).
    pub fn dispatch_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.dispatch_seconds).sum()
    }

    /// Wall-clock seconds spent waiting on and decoding worker replies
    /// across all stages (0.0 for in-process runs).
    pub fn collect_seconds(&self) -> f64 {
        self.stages.iter().map(|s| s.collect_seconds).sum()
    }

    /// Wall-clock per-phase totals across all stages (all zero when the
    /// run used the simulated executor).
    pub fn phase_totals(&self) -> PhaseSeconds {
        let mut total = PhaseSeconds::default();
        for s in &self.stages {
            total.merge(&s.phases);
        }
        total
    }

    /// Peak shadow-memory footprint over the run, in bytes: the max
    /// over stages of the accountant's high-water mark (monotone within
    /// a run, so this is the final stage's reading; distributed runs
    /// fold worker peaks in per stage).
    pub fn shadow_bytes_peak(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.shadow_bytes_peak)
            .max()
            .unwrap_or(0)
    }

    /// Shadow-representation migrations across all stages (commit-point
    /// re-selections plus budget-relief down-tiers).
    pub fn shadow_migrations(&self) -> usize {
        self.stages.iter().map(|s| s.shadow_migrations).sum()
    }

    /// Budget-pressure events contained across all stages.
    pub fn shadow_pressure_events(&self) -> usize {
        self.stages.iter().map(|s| s.shadow_pressure_events).sum()
    }

    /// Parallel sections dispatched across all stages — the barriers
    /// the run really paid (the paper's model charges one `s` per
    /// stage; 0 for simulated runs).
    pub fn fork_joins(&self) -> usize {
        self.stages.iter().map(|s| s.fork_joins).sum()
    }

    /// Iterations the body tier executed several-at-a-time across all
    /// stages (the bytecode VM's strips; 0 for native loops).
    pub fn batched_iters(&self) -> u64 {
        self.stages.iter().map(|s| s.batched_iters).sum()
    }

    /// Strips that re-executed one iteration at a time, across all
    /// stages, after their speculation failed or was abandoned.
    pub fn scalar_strips(&self) -> u64 {
        self.stages.iter().map(|s| s.scalar_strips).sum()
    }

    /// Machine-readable JSON image of the report: the schema behind
    /// `rlrpd run --format json` and the daemon's job-status frames.
    /// Hand-rolled (no JSON dependency); keys are stable.
    pub fn to_json(&self) -> String {
        fn opt_usize(v: Option<usize>) -> String {
            v.map_or("null".into(), |x| x.to_string())
        }
        fn opt_u64(v: Option<u64>) -> String {
            v.map_or("null".into(), |x| x.to_string())
        }
        let fallback = match self.fallback {
            Some(r) => format!("\"{r:?}\""),
            None => "null".into(),
        };
        let reprs: Vec<String> = self
            .shadow_reprs
            .iter()
            .map(|(n, r)| {
                format!(
                    "{{\"array\":{},\"repr\":{}}}",
                    json_string(n),
                    json_string(r)
                )
            })
            .collect();
        format!(
            concat!(
                "{{\"stages\":{},\"restarts\":{},\"pr\":{:.6},",
                "\"sequential_work\":{:.6},\"virtual_time\":{:.6},\"speedup\":{:.6},",
                "\"wall_seconds\":{:.6},\"exited_at\":{},\"fallback\":{},",
                "\"resumed_at\":{},\"stopped_at\":{},",
                "\"predicted_first_dependence\":{},\"observed_first_dependence\":{},",
                "\"contained_faults\":{},\"quarantined\":{},\"respawns\":{},",
                "\"wire_bytes\":{},\"journal_bytes\":{},\"journal_seconds\":{:.6},",
                "\"shadow_budget\":{},\"shadow_bytes_peak\":{},",
                "\"shadow_migrations\":{},\"shadow_pressure_events\":{},",
                "\"shadow_reprs\":[{}],\"fork_joins\":{},",
                "\"batched_iters\":{},\"scalar_strips\":{}}}"
            ),
            self.stages.len(),
            self.restarts,
            self.pr(),
            self.sequential_work,
            self.virtual_time(),
            self.speedup(),
            self.wall_seconds,
            opt_usize(self.exited_at),
            fallback,
            opt_usize(self.resumed_at),
            opt_usize(self.stopped_at),
            opt_usize(self.predicted_first_dependence),
            opt_usize(self.observed_first_dependence),
            self.contained_faults(),
            self.quarantined(),
            self.respawns(),
            self.wire_bytes(),
            self.journal_bytes(),
            self.journal_seconds(),
            opt_u64(self.shadow_budget),
            self.shadow_bytes_peak(),
            self.shadow_migrations(),
            self.shadow_pressure_events(),
            reprs.join(","),
            self.fork_joins(),
            self.batched_iters(),
            self.scalar_strips()
        )
    }
}

/// Escape `s` as a JSON string literal (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl std::fmt::Display for RunReport {
    /// A human-readable summary: headline numbers plus the Fig. 12-style
    /// overhead decomposition.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "stages: {} ({} restarts{}), PR {:.3}",
            self.stages.len(),
            self.restarts,
            match self.exited_at {
                Some(e) => format!(", exited at iteration {e}"),
                None => String::new(),
            },
            self.pr()
        )?;
        if let Some(from) = self.resumed_at {
            writeln!(f, "resumed from journal at iteration {from}")?;
        }
        if let Some(at) = self.stopped_at {
            writeln!(f, "paused by cooperative stop at iteration {at}")?;
        }
        if self.predicted_first_dependence.is_some() || self.observed_first_dependence.is_some() {
            writeln!(
                f,
                "first dependence: predicted {}, observed {}",
                match self.predicted_first_dependence {
                    Some(i) => format!("iteration {i}"),
                    None => "none".into(),
                },
                match self.observed_first_dependence {
                    Some(i) => format!("iteration {i}"),
                    None => "none".into(),
                }
            )?;
        }
        let faults = self.contained_faults();
        if faults > 0 {
            writeln!(f, "contained faults: {faults}")?;
        }
        if let Some(reason) = self.fallback {
            if reason == FallbackReason::WorkerLoss {
                writeln!(f, "worker fleet lost: degraded to in-process execution")?;
            } else {
                writeln!(f, "fell back to sequential execution: {reason:?}")?;
            }
        }
        let wbytes = self.wire_bytes();
        if wbytes > 0 || self.respawns() > 0 {
            write!(
                f,
                "transport: {wbytes} wire bytes, {} respawns, \
                 {:.4}s dispatch, {:.4}s collect",
                self.respawns(),
                self.dispatch_seconds(),
                self.collect_seconds()
            )?;
            if self.quarantined() > 0 {
                write!(f, ", {} quarantined", self.quarantined())?;
            }
            writeln!(f)?;
        }
        let jbytes = self.journal_bytes();
        if jbytes > 0 {
            writeln!(
                f,
                "journal: {jbytes} bytes in {} records, {:.4}s blocked on it",
                self.stages.iter().filter(|s| s.journal_bytes > 0).count(),
                self.journal_seconds()
            )?;
        }
        if self.shadow_budget.is_some()
            || self.shadow_migrations() > 0
            || self.shadow_pressure_events() > 0
        {
            write!(f, "shadow: peak {} bytes", self.shadow_bytes_peak())?;
            match self.shadow_budget {
                Some(cap) => write!(f, " of {cap} budget")?,
                None => write!(f, " (unlimited budget)")?,
            }
            write!(
                f,
                ", {} migrations, {} pressure events",
                self.shadow_migrations(),
                self.shadow_pressure_events()
            )?;
            if !self.shadow_reprs.is_empty() {
                let reprs: Vec<String> = self
                    .shadow_reprs
                    .iter()
                    .map(|(n, r)| format!("{n}={r}"))
                    .collect();
                write!(f, "; final reprs: {}", reprs.join(", "))?;
            }
            writeln!(f)?;
        }
        if self.batched_iters() > 0 || self.scalar_strips() > 0 {
            writeln!(
                f,
                "strips: {} iterations batched, {} strips re-executed scalar",
                self.batched_iters(),
                self.scalar_strips()
            )?;
        }
        writeln!(
            f,
            "virtual time {:.1} vs sequential {:.1} -> speedup {:.2}x",
            self.virtual_time(),
            self.sequential_work,
            self.speedup()
        )?;
        let loop_time: f64 = self.stages.iter().map(|s| s.loop_time).sum();
        writeln!(
            f,
            "loop time {:.1} ({:.1} executed, {:.1} wasted)",
            loop_time,
            self.total_work_executed(),
            self.total_work_executed() - self.sequential_work
        )?;
        writeln!(f, "overheads:")?;
        for kind in OverheadKind::ALL {
            let v = self.overhead(kind);
            if v > 0.0 {
                let name = format!("{kind:?}");
                writeln!(f, "  {name:<16} {v:>12.2}")?;
            }
        }
        let phases = self.phase_totals();
        if phases.total() > 0.0 {
            writeln!(
                f,
                "wall phases (s): execute {:.4}, analysis {:.4}, commit {:.4}, \
                 restore {:.4}, shadow-clear {:.4}",
                phases.execute_seconds,
                phases.analysis_seconds,
                phases.commit_seconds,
                phases.restore_seconds,
                phases.shadow_clear_seconds,
            )?;
        }
        Ok(())
    }
}

/// Parallelism ratio over the life of a program:
/// `PR = #instantiations / (#restarts + #instantiations)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PrAccumulator {
    /// Loop instantiations observed.
    pub instantiations: u64,
    /// Restarts (failed speculative stages) observed.
    pub restarts: u64,
}

impl PrAccumulator {
    /// Fold one run into the accumulator.
    pub fn add(&mut self, report: &RunReport) {
        self.instantiations += 1;
        self.restarts += report.restarts as u64;
    }

    /// The accumulated parallelism ratio (1.0 when nothing recorded).
    pub fn pr(&self) -> f64 {
        if self.instantiations == 0 {
            return 1.0;
        }
        self.instantiations as f64 / (self.restarts + self.instantiations) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(loop_time: f64, sync: f64) -> StageStats {
        let mut s = StageStats {
            loop_time,
            ..Default::default()
        };
        s.overhead.add(OverheadKind::Sync, sync);
        s
    }

    #[test]
    fn virtual_time_sums_stages() {
        let r = RunReport {
            stages: vec![stage(10.0, 1.0), stage(5.0, 1.0)],
            restarts: 1,
            sequential_work: 30.0,
            ..Default::default()
        };
        assert_eq!(r.virtual_time(), 17.0);
        assert!((r.speedup() - 30.0 / 17.0).abs() < 1e-12);
        assert_eq!(r.pr(), 0.5);
    }

    #[test]
    fn fully_parallel_run_has_pr_one() {
        let r = RunReport {
            stages: vec![stage(10.0, 1.0)],
            restarts: 0,
            sequential_work: 40.0,
            ..Default::default()
        };
        assert_eq!(r.pr(), 1.0);
    }

    #[test]
    fn accumulator_matches_paper_definition() {
        let mut acc = PrAccumulator::default();
        let run = |restarts| RunReport {
            restarts,
            ..Default::default()
        };
        acc.add(&run(0));
        acc.add(&run(2));
        acc.add(&run(1));
        // 3 instantiations, 3 restarts: PR = 3/6.
        assert!((acc.pr() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_renders_a_summary() {
        let mut s1 = stage(10.0, 1.0);
        s1.overhead.add(OverheadKind::Commit, 2.0);
        let r = RunReport {
            stages: vec![s1],
            restarts: 0,
            sequential_work: 12.0,
            exited_at: Some(5),
            ..Default::default()
        };
        let text = r.to_string();
        assert!(text.contains("stages: 1"), "{text}");
        assert!(text.contains("exited at iteration 5"), "{text}");
        assert!(text.contains("Commit"), "{text}");
        assert!(text.contains("speedup"), "{text}");
        assert!(!text.contains("Restore"), "zero overheads omitted: {text}");
    }

    #[test]
    fn first_dependence_fields_render_when_set() {
        let r = RunReport {
            predicted_first_dependence: Some(16),
            observed_first_dependence: Some(17),
            ..Default::default()
        };
        let text = r.to_string();
        assert!(text.contains("predicted iteration 16"), "{text}");
        assert!(text.contains("observed iteration 17"), "{text}");
        assert!(
            !RunReport::default()
                .to_string()
                .contains("first dependence"),
            "omitted when absent"
        );
    }

    #[test]
    fn empty_accumulator_reports_full_parallelism() {
        assert_eq!(PrAccumulator::default().pr(), 1.0);
    }

    #[test]
    fn phase_totals_sum_across_stages() {
        let mut s1 = stage(1.0, 0.0);
        s1.phases.analysis_seconds = 0.5;
        s1.phases.execute_seconds = 2.0;
        let mut s2 = stage(1.0, 0.0);
        s2.phases.analysis_seconds = 0.25;
        let r = RunReport {
            stages: vec![s1, s2],
            ..Default::default()
        };
        let t = r.phase_totals();
        assert_eq!(t.analysis_seconds, 0.75);
        assert_eq!(t.execute_seconds, 2.0);
        assert!(r.to_string().contains("wall phases"), "{r}");
    }
}
