//! The DOACROSS execution tier: pipelined iterations synchronized by a
//! point-to-point post/wait cell at the *statically proven* minimum
//! dependence distance.
//!
//! When the compiler's dependence pass proves every cross-iteration
//! conflict of a loop sits at a uniform distance (a `Must` proof — no
//! guards, no opaque subscripts, no non-uniform strides), speculation
//! is pure waste: the R-LRPD test would pay shadow traffic and a
//! *guaranteed* restart per uncovered dependence. This tier runs the
//! loop the way the synchronized-methods literature does (Salamanca &
//! Baldassin; Baghdadi/Cohen/Rauchwerger's static+speculative synergy):
//!
//! * `L = min(d_min, p)` **lanes** execute iterations cyclically (lane
//!   `w` runs start-relative iterations `w, w+L, w+2L, …` in order) —
//!   iterations closer than `d_min` are proven independent, so up to
//!   `d_min` of them may be in flight at once;
//! * one cache-line-padded [`PostCell`] holds the count of *posted*
//!   (completed, writes published) iterations, always a prefix because
//!   lanes post in iteration order. One cell serves every proven
//!   distance: the counter covering the source at the minimum distance
//!   (`seq ≥ r − d_min + 1`) covers the source at every larger one, so
//!   a wait per distance would only repeat an implied wait;
//! * before executing start-relative iteration `r`, a lane waits until
//!   the counter covers that nearest source; under the cyclic schedule
//!   with `L ≤ d_min` this is already implied by the lane's own
//!   previous post, so the gate is a cheap load — the *post-gate*
//!   carries the real synchronization: after the body, the lane waits
//!   for its turn (`seq == r`) and publishes `r + 1` with `Release`
//!   ordering, which is the entire happens-before contract of the tier.
//!
//! There is no shadow memory (callers pass a plain all-untested loop
//! view), no restart, and exactly one journal record: the commit
//! frontier jumps straight to `n` because the post/wait protocol makes
//! the whole run one committed prefix. Deadlock freedom is by strong
//! induction — every wait targets a strictly smaller iteration.
//!
//! Fault containment has no speculative retry to lean on: a panic in
//! any lane aborts the pipeline (the cell is woken, waiters observe
//! the abort flag and unwind) and surfaces as
//! [`RlrpdError::ProgramFault`] with the smallest faulting iteration —
//! the same contract as direct execution, since the iteration ran on
//! exactly the state sequential execution would have given it.

use crate::analysis::DepArc;
use crate::ctx::IterCtx;
use crate::driver::{DoacrossConfig, RunConfig};
use crate::engine::Engine;
use crate::error::RlrpdError;
use crate::journal::JournalSink;
use crate::report::RunReport;
use crate::stages::{journal_stage, settle_journal};
use crate::value::Value;
use rlrpd_runtime::{panic_message, ExecMode, Executor, OverheadKind, PostCell, StageStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Drive `engine` DOACROSS from iteration `start` (everything below it
/// is already committed — 0 for a fresh run, the recovered frontier for
/// a journal resume). Returns the run report and an empty arc list:
/// nothing is speculated, so there are no detected dependence arcs.
pub(crate) fn run_doacross<T: Value>(
    engine: &mut Engine<'_, T>,
    cfg: &RunConfig,
    dcfg: DoacrossConfig,
    start: usize,
    journal: &mut Option<JournalSink>,
    stop: Option<&AtomicBool>,
) -> Result<(RunReport, Vec<DepArc>), RlrpdError> {
    let n = engine.n;
    let mut report = RunReport {
        sequential_work: engine.sequential_work(),
        ..Default::default()
    };
    if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
        // Cooperative drain before anything ran: the pipeline is one
        // indivisible commit, so a stop request can only pause at its
        // boundary.
        report.stopped_at = Some(start);
        return Ok((report, Vec::new()));
    }
    let total = n.saturating_sub(start);
    let depth = dcfg.pipeline_depth(cfg.p).min(total.max(1));
    let mut stats = StageStats {
        iters_attempted: total,
        threads: 1,
        ..Default::default()
    };

    let (work, loop_time, wall) = if cfg.exec == ExecMode::Simulated || depth == 1 {
        // The simulated executor runs blocks one at a time, so parking
        // lanes on post-gates would deadlock; a depth-1 pipeline is a
        // serial chain either way. Run in order and report the
        // analytical pipeline time: total work spread over the proven
        // depth (the idealized machine of DESIGN.md §2).
        let (work, exited) = engine.run_direct(start..n)?;
        if let Some(e) = exited {
            return Err(premature_exit(e));
        }
        (work, work / dcfg.pipeline_depth(cfg.p) as f64, 0.0)
    } else {
        stats.threads = depth;
        run_lanes(engine, &dcfg, depth, start)?
    };

    stats.iters_committed = total;
    stats.total_work = work;
    stats.loop_time = loop_time;
    stats.wall_seconds = wall;
    // One synchronization for the whole run: the pipeline has no stage
    // barriers, only the point-to-point cell (whose per-iteration cost
    // is cache traffic, not a barrier).
    stats.overhead.add(OverheadKind::Sync, cfg.cost.sync);

    // One journal record: the post/wait protocol commits the whole
    // remainder as a single prefix, so the durable frontier is n. No
    // stage follows for its append to run beside: wait for it here.
    let rec = journal
        .as_ref()
        .and_then(|_| engine.full_state_delta())
        .map(|state| engine.commit_record(n, None, false, state));
    journal_stage(journal, &mut stats, rec)?;
    report.stages.push(stats);
    settle_journal(journal, &mut report)?;
    Ok((report, Vec::new()))
}

/// A premature exit cannot be honored here: lanes past the exiting
/// iteration may already have executed, and only speculation can
/// discard their writes. The eligibility proof rejects loops with
/// `break`, so reaching this is a caller contract violation, reported
/// as a structured error rather than a wrong answer.
fn premature_exit(iter: usize) -> RlrpdError {
    RlrpdError::StageInvariant {
        message: format!(
            "DOACROSS loop requested a premature exit at iteration {iter}: \
             exits require speculation (the eligibility proof must reject such loops)"
        ),
    }
}

/// Execute the pipeline on real threads: `depth` lanes on a pool that
/// wide, one post/wait cell between them.
/// Returns `(total_work, loop_time, wall_seconds)`.
fn run_lanes<T: Value>(
    engine: &mut Engine<'_, T>,
    dcfg: &DoacrossConfig,
    depth: usize,
    start: usize,
) -> Result<(f64, f64, f64), RlrpdError> {
    let total = engine.n - start;
    // Fresh write epoch: all lanes write as identity 0 — the post/wait
    // protocol (not block disjointness) is what serializes conflicting
    // element accesses, and the debug-build owner check accepts one
    // identity from many threads.
    for buf in &mut engine.shared {
        buf.new_epoch();
    }
    let posted = PostCell::new(0);
    let d_min = dcfg.min_distance();
    let abort = AtomicBool::new(false);
    let fault: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let exit: Mutex<Option<(usize, String)>> = Mutex::new(None);
    let lp = engine.lp;
    let meta = &engine.meta;
    let shared = &engine.shared;
    // Lanes wait on each other's posts: all `depth` must run at once,
    // so they take a pool that wide even where the engine's executor
    // runs blocks inline (one CPU).
    let executor = Executor::lanes(engine.executor.mode(), depth);

    let stop_pipeline = |iter: usize, slot: &Mutex<Option<(usize, String)>>, message: String| {
        {
            let mut f = slot.lock().unwrap();
            match &*f {
                Some(prev) if prev.0 <= iter => {}
                _ => *f = Some((iter, message)),
            }
        }
        abort.store(true, Ordering::Relaxed);
        posted.wake_all();
    };

    let mut lanes = vec![(); depth];
    let timing = executor.run_blocks(&mut lanes, |w, ()| {
        let mut lane_work = 0.0;
        let mut r = w;
        'pipeline: while r < total {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            // Execute-gate: the nearest proven source iteration must
            // have posted (and with it every farther one). Under the
            // cyclic schedule with depth ≤ d_min this is implied by
            // this lane's own previous post, so the wait is a single
            // satisfied load.
            if r >= d_min && !posted.wait_for(r - d_min + 1, &abort) {
                break 'pipeline;
            }
            let iter = start + r;
            // Per-iteration containment: there is no speculation to
            // retry under, so a panic is a genuine program fault — but
            // it must not tear down the sibling lanes' threads.
            let run = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = IterCtx::direct(iter, 0, meta, shared);
                lp.body(iter, &mut ctx);
                (lp.cost(iter) + ctx.extra_cost, ctx.exited)
            }));
            match run {
                Ok((c, exited)) => {
                    lane_work += c;
                    if exited {
                        stop_pipeline(iter, &exit, String::new());
                        break 'pipeline;
                    }
                }
                Err(payload) => {
                    stop_pipeline(iter, &fault, panic_message(payload.as_ref()));
                    break 'pipeline;
                }
            }
            // Post-gate: wait for this lane's turn, then publish the
            // new completed prefix (Release + notify).
            if !posted.wait_for(r, &abort) {
                break 'pipeline;
            }
            posted.post(r + 1);
            r += depth;
        }
        lane_work
    });

    if let Some((iter, message)) = fault.into_inner().unwrap() {
        return Err(RlrpdError::ProgramFault { iter, message });
    }
    if let Some((iter, _)) = exit.into_inner().unwrap() {
        return Err(premature_exit(iter));
    }
    Ok((
        timing.total_work(),
        timing.critical_path(),
        timing.wall_seconds,
    ))
}

#[cfg(test)]
mod tests {
    use crate::array::{ArrayDecl, ArrayId};
    use crate::driver::{run_speculative, DoacrossConfig, RunConfig, Runner, Strategy};
    use crate::engine::run_sequential;
    use crate::error::RlrpdError;
    use crate::spec_loop::ClosureLoop;
    use rlrpd_runtime::ExecMode;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// a[i] = a[i-d] * 1.0000001 + sin-ish(i): a genuine flow chain at
    /// uniform distance d whose float rounding would expose any
    /// out-of-order execution bit-for-bit.
    fn chain_loop(n: usize, d: usize) -> ClosureLoop<f64> {
        ClosureLoop::new(
            n,
            move || vec![ArrayDecl::untested("A", (0..n).map(|i| i as f64).collect())],
            move |i, ctx| {
                let a = ArrayId(0);
                let src = if i >= d { ctx.read(a, i - d) } else { 0.5 };
                ctx.write(a, i, src * 1.000_000_1 + (i as f64).recip().min(1.0));
            },
        )
    }

    fn doacross_cfg(p: usize, d: usize, exec: ExecMode) -> RunConfig {
        RunConfig::new(p)
            .with_exec(exec)
            .with_strategy(Strategy::Doacross(DoacrossConfig::at(d)))
    }

    #[test]
    fn byte_identical_to_sequential_across_modes_and_widths() {
        let n = 400;
        for d in [1usize, 2, 3, 7] {
            let lp = chain_loop(n, d);
            let (seq, _) = run_sequential(&lp);
            let want: Vec<u64> = seq[0].1.iter().map(|v| v.to_bits()).collect();
            for exec in [ExecMode::Simulated, ExecMode::Pooled] {
                for p in [1usize, 2, 4, 8] {
                    let res = run_speculative(&lp, doacross_cfg(p, d, exec));
                    let got: Vec<u64> = res.array("A").iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "d={d} exec={exec:?} p={p}");
                    assert_eq!(res.report.restarts, 0);
                    assert_eq!(res.report.shadow_bytes_peak(), 0, "no shadow in DOACROSS");
                    assert_eq!(res.report.stages.len(), 1, "single pipelined stage");
                }
            }
        }
    }

    #[test]
    fn multiple_distances_synchronize_on_the_smallest() {
        let n = 300;
        let lp: ClosureLoop<f64> = ClosureLoop::new(
            n,
            move || {
                vec![
                    ArrayDecl::untested("A", vec![1.0; n]),
                    ArrayDecl::untested("B", vec![2.0; n]),
                ]
            },
            |i, ctx| {
                let (a, b) = (ArrayId(0), ArrayId(1));
                let x = if i >= 3 { ctx.read(a, i - 3) } else { 0.25 };
                let y = if i >= 5 { ctx.read(b, i - 5) } else { 0.75 };
                ctx.write(a, i, x + y * 0.5);
                ctx.write(b, i, y + x * 0.5);
            },
        );
        let (seq, _) = run_sequential(&lp);
        let dcfg = DoacrossConfig::from_distances(&[5, 3]).unwrap();
        assert_eq!(dcfg.min_distance(), 3);
        assert_eq!(dcfg.distances(), &[3, 5]);
        for exec in [ExecMode::Pooled, ExecMode::Simulated] {
            let cfg = RunConfig::new(8)
                .with_exec(exec)
                .with_strategy(Strategy::Doacross(dcfg));
            let res = run_speculative(&lp, cfg);
            for (k, (name, want)) in seq.iter().enumerate() {
                let got: Vec<u64> = res.array(name).iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "array {k} exec={exec:?}");
            }
        }
    }

    #[test]
    fn pipeline_depth_is_reported_as_speedup_in_simulated_mode() {
        let n = 512;
        let d = 4;
        let lp = chain_loop(n, d);
        let res = run_speculative(&lp, doacross_cfg(8, d, ExecMode::Simulated));
        let stage = &res.report.stages[0];
        // Analytical pipeline: total work spread over min(d, p) = 4 lanes.
        assert!((stage.loop_time - stage.total_work / d as f64).abs() < 1e-9);
    }

    #[test]
    fn lane_panic_surfaces_as_program_fault() {
        let n = 200;
        let lp = ClosureLoop::new(
            n,
            move || vec![ArrayDecl::untested("A", vec![0.0; n])],
            |i, ctx| {
                let a = ArrayId(0);
                assert!(i != 117, "iteration 117 exploded");
                let v = if i >= 2 { ctx.read(a, i - 2) } else { 0.0 };
                ctx.write(a, i, v + 1.0);
            },
        );
        for exec in [ExecMode::Pooled, ExecMode::Simulated] {
            match Runner::new(doacross_cfg(4, 2, exec)).try_run(&lp) {
                Err(RlrpdError::ProgramFault { iter, message }) => {
                    assert_eq!(iter, 117, "exec={exec:?}");
                    assert!(message.contains("exploded"), "message: {message}");
                }
                other => panic!("expected ProgramFault under {exec:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn stop_flag_at_entry_reports_boundary_pause() {
        let lp = chain_loop(100, 2);
        let stop = Arc::new(AtomicBool::new(true));
        let mut runner =
            Runner::new(doacross_cfg(4, 2, ExecMode::Pooled)).with_stop(Arc::clone(&stop));
        let res = runner.try_run(&lp).unwrap();
        assert_eq!(res.report.stopped_at, Some(0));
        assert!(res.report.stages.is_empty());
        stop.store(false, Ordering::Relaxed);
        let res = runner.try_run(&lp).unwrap();
        assert_eq!(res.report.stopped_at, None);
        let (seq, _) = run_sequential(&lp);
        assert_eq!(res.array("A"), &seq[0].1[..]);
    }

    #[test]
    fn distance_wider_than_loop_still_correct() {
        // d > n: every iteration is independent; depth clamps to total.
        let lp = chain_loop(6, 64);
        let (seq, _) = run_sequential(&lp);
        let exec = ExecMode::Pooled;
        let res = run_speculative(&lp, doacross_cfg(8, 64, exec));
        assert_eq!(res.array("A"), &seq[0].1[..], "exec={exec:?}");
        // The report says how many lanes ran: six, not the eight `p`
        // and `d` would allow.
        assert_eq!(res.report.threads(), 6);
    }
}
