//! The one stage loop: speculate on a window → test → commit the
//! passing prefix → decide what runs next.
//!
//! The paper presents the sliding window as the general form of the
//! R-LRPD recursion: the test is strip-mined over `w · p` iterations,
//! the commit point advances past every committed block, failed blocks
//! re-execute. NRD and RD are the case where the window is the whole
//! remainder and, after a failure, the schedule is kept (NRD) or re-cut
//! (RD, adaptive RD). So there is one loop, and the strategies differ
//! only in four answers, given by `Policy` where they are needed:
//!
//! 1. the first schedule;
//! 2. after a clean stage that leaves work, the next window;
//! 3. after a violation at block `q`, the next schedule and what
//!    redistributing to it costs;
//! 4. after budget pressure the representation ladder could not
//!    relieve, a smaller window — or nothing left to shrink.
//!
//! **The commit invariant**, stated here once. When a stage ends,
//! everything below its frontier — the iteration after a trusted exit,
//! the first dependence sink's block, or the window's end — is final:
//! byte-identical to sequential execution. Above it, state is as it
//! was when the stage began, except that a restore-free array
//! (`crate::checkpoint`) may still hold a discarded block's values;
//! each of those elements is rewritten before the run returns — by
//! re-execution, by the sequential fallback, or by a resume, which
//! replays the journal onto fresh arrays (a paused run's arrays are
//! discarded). The loop then builds the
//! stage's commit record once and, in this order, (a) queues it on the
//! worker fleet, which sends it ahead of the next block request, (b)
//! submits it to the journal's writer, behind every record submitted
//! before it, and (c) moves its commit point to the frontier:
//!
//! > prefix final ⇒ broadcast queued ⇒ record submitted; records reach
//! > the file in submission order; a record is counted, observed and
//! > reported only once an `fdatasync` that covers it has returned; the
//! > loop runs at most `IN_FLIGHT` records ahead of the durable
//! > frontier, and every way out of it — done, paused, fallen back,
//! > failed — first waits for all of them.
//!
//! So the writer's `write + fdatasync` overlap the stages that follow,
//! every record that queued behind one sync shares the next
//! (`journal::write_behind`), and the loop waits for the device only
//! when `IN_FLIGHT` (a private constant of `journal.rs`) records are
//! outstanding. Memory runs ahead of disk only while the loop is
//! running: [`run_stages`] settles the journal around it, so the run
//! returns with its commit point at a durable frontier, and a resumed
//! run, a re-dispatched block and a sequential fallback all start from
//! state sequential execution would have produced, but for the
//! restore-free elements above the frontier they rewrite. A crash with `j`
//! records submitted and not durable is a crash `j ≤ IN_FLIGHT` stages
//! earlier: the file ends in a chain-valid prefix of them with at most
//! a torn tail, which resume truncates, and those stages re-execute.
//!
//! Completion is guaranteed: the first non-empty block of every stage
//! always commits, so each stage makes progress; a fully sequential
//! loop degenerates to `p` stages under NRD — the paper's worst case of
//! sequential time plus test overhead.

use crate::analysis::DepArc;
use crate::driver::{AdaptRule, BalancePolicy, FallbackReason, RunConfig, Strategy};
use crate::engine::{CommittedBlockMarks, Engine};
use crate::error::RlrpdError;
use crate::journal::{CommitRecord, JournalError, JournalSink};
use crate::report::RunReport;
use crate::value::Value;
use crate::window::{adapt, WindowConfig};
use rlrpd_runtime::{BlockSchedule, FeedbackPartitioner, OverheadKind, StageStats};
use std::sync::atomic::{AtomicBool, Ordering};

/// What differs between the strategies (see the module docs).
enum Policy {
    /// NRD: the window is the whole remainder; failed blocks re-run in
    /// place and the processors below them idle.
    Keep,
    /// RD and adaptive RD: the whole remainder, re-cut over all
    /// processors after a failure — always, or while the rule says the
    /// redistribution pays.
    Recut(Option<AdaptRule>),
    /// SW: `w` iterations per processor from the commit point, blocks
    /// dealt round-robin from `rotation` so a re-executed block stays
    /// on its processor.
    Window {
        wcfg: WindowConfig,
        w: usize,
        rotation: usize,
    },
}

impl Policy {
    /// The schedule of the window that opens at `from`.
    fn window(
        &self,
        from: usize,
        n: usize,
        cfg: &RunConfig,
        partitioner: &FeedbackPartitioner,
    ) -> BlockSchedule {
        match *self {
            Policy::Window { wcfg, w, rotation } => {
                let iters = from..(from + w * cfg.p).min(n);
                if wcfg.circular {
                    BlockSchedule::circular(iters, cfg.p, rotation % cfg.p)
                } else {
                    BlockSchedule::even(iters, cfg.p)
                }
            }
            Policy::Keep | Policy::Recut(_) => match cfg.balance {
                BalancePolicy::Even => BlockSchedule::even(from..n, cfg.p),
                BalancePolicy::FeedbackGuided | BalancePolicy::FeedbackTrend => {
                    partitioner.schedule(from..n, cfg.p)
                }
            },
        }
    }
}

/// Drive `engine` from iteration `start` (everything below it is
/// already committed — 0 for a fresh run, the recovered frontier for a
/// journal resume) to completion under `cfg.strategy`. `journal` receives
/// every stage's commit record when a sink is attached; `on_commit`
/// receives every stage's committed per-iteration marks (DDG
/// extraction; pass a no-op otherwise).
pub(crate) fn run_stages<T: Value>(
    engine: &mut Engine<'_, T>,
    cfg: &RunConfig,
    partitioner: &FeedbackPartitioner,
    start: usize,
    journal: &mut Option<JournalSink>,
    stop: Option<&AtomicBool>,
    on_commit: impl FnMut(&[CommittedBlockMarks]),
) -> Result<(RunReport, Vec<DepArc>), RlrpdError> {
    let mut report = RunReport {
        sequential_work: engine.sequential_work(),
        ..Default::default()
    };
    let mut arcs = Vec::new();
    let ran = stage_loop(
        engine,
        cfg,
        partitioner,
        start,
        journal,
        stop,
        on_commit,
        &mut report,
        &mut arcs,
    );
    // Whichever way the loop ended, every record submitted is waited
    // for before anything is reported. A failed append is the earlier
    // event (in the file, nothing follows it), so it is the one returned.
    settle_journal(journal, &mut report)?;
    ran?;
    Ok((report, arcs))
}

/// The loop of [`run_stages`], which settles the journal around it.
#[allow(clippy::too_many_arguments)]
fn stage_loop<T: Value>(
    engine: &mut Engine<'_, T>,
    cfg: &RunConfig,
    partitioner: &FeedbackPartitioner,
    start: usize,
    journal: &mut Option<JournalSink>,
    stop: Option<&AtomicBool>,
    mut on_commit: impl FnMut(&[CommittedBlockMarks]),
    report: &mut RunReport,
    arcs: &mut Vec<DepArc>,
) -> Result<(), RlrpdError> {
    let n = engine.n;

    let mut policy = match cfg.strategy {
        Strategy::Nrd => Policy::Keep,
        Strategy::Rd => Policy::Recut(None),
        Strategy::AdaptiveRd(rule) => Policy::Recut(Some(rule)),
        Strategy::SlidingWindow(wcfg) => Policy::Window {
            wcfg,
            w: wcfg.iters_per_proc,
            rotation: 0,
        },
    };
    // First uncommitted iteration (everything below it is final).
    let mut commit_point = start;
    let mut schedule = policy.window(commit_point, n, cfg, partitioner);
    // Iterations the upcoming stage's schedule moved between processors.
    let mut pending_redist: Option<usize> = None;
    // Restart point of the last fault-bound stage: a second fault
    // binding at the same point means the faulting iteration re-ran
    // from sequential-equivalent state — a genuine program fault.
    let mut last_fault_restart: Option<usize> = None;
    // `report.virtual_time()`, added to stage by stage: the watchdog asks
    // after every stage, and summing every stage each time is quadratic.
    let mut virtual_time = 0.0;

    // Stage after stage, until the loop is done or paused (`None`) or
    // speculation is abandoned (`Some(why)`).
    let abandoned = loop {
        if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
            // Cooperative drain: record where the run paused (durable
            // once the journal is settled).
            report.stopped_at = Some(commit_point);
            break None;
        }
        if report.stages.len() >= cfg.max_stages {
            return Err(RlrpdError::StageLimit {
                max_stages: cfg.max_stages,
            });
        }
        let mut outcome = match engine.run_stage(&schedule) {
            Ok(o) => o,
            // Fired before any speculative write, so the remainder can
            // run directly from the commit point.
            Err(RlrpdError::CheckpointFault { .. }) => break Some(FallbackReason::CheckpointFault),
            Err(e) => return Err(e),
        };
        if let Some(moved) = pending_redist.take() {
            outcome.stats.overhead.add(
                OverheadKind::Redistribution,
                moved as f64 * cfg.cost.ell / cfg.p as f64,
            );
        }
        on_commit(&outcome.committed_marks);
        arcs.append(&mut outcome.arcs);

        let exit = outcome.exit;
        let frontier = match (exit, outcome.violation) {
            (Some(e), _) => e + 1,
            (None, Some(_)) => outcome
                .restart_iter
                .ok_or_else(|| RlrpdError::StageInvariant {
                    message: "violation implies a restart point".into(),
                })?,
            (None, None) => schedule.span().map_or(commit_point, |s| s.end),
        };
        // The commit invariant: one record, queued on the fleet, then
        // submitted behind its predecessors, then the commit point
        // (both sinks are no-ops when not attached).
        let rec = outcome
            .delta
            .take()
            .map(|delta| engine.commit_record(frontier, exit, false, delta));
        if let Some(rec) = &rec {
            engine.broadcast_commit(rec);
        }
        journal_stage(journal, &mut outcome.stats, rec)?;
        virtual_time += outcome.stats.virtual_time();
        report.stages.push(outcome.stats);
        commit_point = frontier;

        if let Some(e) = exit {
            // A trusted premature exit completes the loop: the prefix
            // up to it committed, everything later was dead.
            report.exited_at = Some(e);
            break None;
        }
        match outcome.violation {
            None if commit_point >= n => break None,
            None => {
                if let Policy::Window { rotation, .. } = &mut policy {
                    // Continue the round-robin past the blocks just used.
                    *rotation += schedule.num_blocks();
                }
                schedule = policy.window(commit_point, n, cfg, partitioner);
            }
            Some(_) if outcome.shadow_pressure => {
                // Budget exhaustion is contained like a speculation
                // fault, but it is an event of the execution
                // environment, not an observation about the loop: it
                // touches neither the first-dependence record, nor the
                // genuine-fault detector, nor the fallback policy.
                report.restarts += 1;
                if outcome.shadow_relieved {
                    // The same schedule again, over smaller shadows.
                    continue;
                }
                // The per-array ladder is spent. A smaller window
                // touches fewer elements per stage; a strategy with no
                // window to shrink, or a window already down to one
                // iteration per processor, executes directly.
                match &mut policy {
                    Policy::Window { w, .. } if *w > 1 => *w /= 2,
                    _ => break Some(FallbackReason::ShadowBudget),
                }
                schedule = policy.window(commit_point, n, cfg, partitioner);
                continue;
            }
            Some(q) => {
                report.restarts += 1;
                // Stages execute in commit order, so the first failed
                // stage's restart point is the earliest observed
                // dependence sink (block-aligned lower bound).
                report.observed_first_dependence.get_or_insert(commit_point);
                if let Some(f) = outcome.fault.filter(|f| f.pos == q) {
                    // The fault bound the restart (no earlier
                    // dependence sink) at the same point as the
                    // previous fault: the iteration re-executed from a
                    // fully committed prefix — state identical to
                    // sequential execution — and panicked again.
                    if last_fault_restart == Some(commit_point) {
                        return Err(RlrpdError::ProgramFault {
                            iter: f.iter,
                            message: f.message,
                        });
                    }
                    last_fault_restart = Some(commit_point);
                }
                match &mut policy {
                    Policy::Keep => schedule = schedule.nrd_restart(q),
                    Policy::Recut(rule) => {
                        let pays = match rule {
                            None => true,
                            Some(AdaptRule::ModelEq4) => {
                                cfg.cost.redistribution_pays(n - commit_point, cfg.p)
                            }
                            Some(AdaptRule::Measured) => report
                                .stages
                                .last()
                                .is_some_and(|last| last.loop_time > last.overhead.total()),
                        };
                        schedule = if pays {
                            let recut = policy.window(commit_point, n, cfg, partitioner);
                            // Charge ℓ only for iterations that actually
                            // changed processors (remote misses + data
                            // movement).
                            pending_redist = Some(recut.moved_from(&schedule));
                            recut
                        } else {
                            schedule.nrd_restart(q)
                        };
                    }
                    Policy::Window { wcfg, w, rotation } => {
                        // Keep the failed block on its processor.
                        *rotation = schedule.blocks()[q].proc.index();
                        *w = adapt(*w, wcfg.policy);
                        schedule = policy.window(commit_point, n, cfg, partitioner);
                    }
                }
            }
        }
        if let Some(reason) = cfg.fallback.check(report, virtual_time) {
            break Some(reason);
        }
    };

    if let Some(reason) = abandoned {
        sequential_fallback(engine, cfg, report, commit_point, journal)?;
        report.fallback = Some(reason);
    }
    Ok(())
}

/// Submit one stage's commit record when a journal sink is attached.
/// `stats.journal_seconds` is what the loop was blocked here — the
/// hand-off, and at the bound the wait for the oldest outstanding
/// record — not the append, which runs beside the stages that follow.
/// `None` is the zero-cost no-journal path.
pub(crate) fn journal_stage(
    journal: &mut Option<JournalSink>,
    stats: &mut StageStats,
    rec: Option<CommitRecord>,
) -> Result<(), RlrpdError> {
    let Some(sink) = journal else { return Ok(()) };
    let rec = rec.ok_or_else(|| RlrpdError::StageInvariant {
        message: "journaled stage captured no delta".into(),
    })?;
    let start = std::time::Instant::now();
    sink.submit(rec)?;
    stats.journal_seconds = start.elapsed().as_secs_f64();
    Ok(())
}

/// Wait for every record the run submitted, which ends the sink: when
/// this returns `Ok`, all of them are durable and observed, each stage
/// carries the bytes its own record appended (records and journaled
/// stages are one-to-one, in order), and the last stage carries the
/// wait.
pub(crate) fn settle_journal(
    journal: &mut Option<JournalSink>,
    report: &mut RunReport,
) -> Result<(), JournalError> {
    let Some(sink) = journal.take() else {
        return Ok(());
    };
    let start = std::time::Instant::now();
    let appended = sink.settle()?;
    for (stage, bytes) in report.stages.iter_mut().zip(appended) {
        stage.journal_bytes = bytes;
    }
    if let Some(last) = report.stages.last_mut() {
        last.journal_seconds += start.elapsed().as_secs_f64();
    }
    Ok(())
}

/// Execute the remainder `from..n` directly (sequentially) and account
/// for it as one pseudo-stage: pure loop work with one trailing
/// synchronization.
pub(crate) fn sequential_fallback<T: Value>(
    engine: &mut Engine<'_, T>,
    cfg: &RunConfig,
    report: &mut RunReport,
    from: usize,
    journal: &mut Option<JournalSink>,
) -> Result<(), RlrpdError> {
    let n = engine.n;
    let (work, exited) = engine.run_direct(from..n)?;
    let attempted = n - from;
    let committed = exited.map_or(attempted, |e| e + 1 - from);
    let mut seq = StageStats {
        loop_time: work,
        total_work: work,
        iters_attempted: attempted,
        iters_committed: committed,
        threads: 1,
        ..Default::default()
    };
    seq.overhead.add(OverheadKind::Sync, cfg.cost.sync);
    // Direct writes are not delta-tracked: the fallback's record holds
    // the full final state (rare and terminal, so O(array) is
    // acceptable).
    let frontier = exited.map_or(n, |e| e + 1);
    let rec = journal
        .as_ref()
        .and_then(|_| engine.full_state_delta())
        .map(|state| engine.commit_record(frontier, exited, true, state));
    journal_stage(journal, &mut seq, rec)?;
    report.stages.push(seq);
    if exited.is_some() {
        report.exited_at = exited;
    }
    Ok(())
}
