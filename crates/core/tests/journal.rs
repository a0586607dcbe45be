//! Crash-durability acceptance suite: a journaled run killed at *any*
//! point — every record boundary, every torn-write byte offset, every
//! injected I/O fault — must resume to final arrays byte-identical to
//! an uninterrupted run.
//!
//! The argument the suite pins down: each commit record holds the
//! committed delta of one stage, so replaying the valid journal prefix
//! reconstructs the shared arrays exactly as they stood at the last
//! durable commit point, and the R-LRPD guarantee (the final arrays are
//! a pure function of the loop, not of the stage structure) makes the
//! continuation byte-identical no matter where speculation restarts.

use rlrpd_core::{
    run_sequential, ArrayDecl, ArrayId, BlockDispatcher, ClosureLoop, DistConnector, FaultPlan,
    FrameObserver, Journal, JournalError, PlanError, RlrpdError, RunConfig, RunPlan, Runner,
    Strategy, WindowConfig, WireHello,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const A: ArrayId = ArrayId(0);
const U: ArrayId = ArrayId(1);

/// A partially parallel loop exercising both array classes: `A` is
/// tested (backward flow dependences every 7th iteration force
/// restarts), `U` is untested (checkpointed scatter writes).
fn partially_parallel(n: usize) -> ClosureLoop {
    ClosureLoop::new(
        n,
        move || {
            vec![
                ArrayDecl::tested("A", vec![0.0; 256], rlrpd_core::ShadowKind::Dense),
                ArrayDecl::untested("U", vec![1.0; 64]),
            ]
        },
        move |i, ctx| {
            let v = if i % 7 == 0 && i > 0 {
                ctx.read(A, (i - 1) % 256)
            } else {
                i as f64
            };
            ctx.write(A, i % 256, v + 1.0);
            ctx.write(U, (i * 5 + 1) % 64, v - 0.5);
        },
    )
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rlrpd-jtest-{name}-{}", std::process::id()))
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::SlidingWindow(WindowConfig::fixed(9)),
    ]
}

/// Byte offsets of every record boundary in a journal file (frame
/// layout: `u32 len | record`), boundary 0 excluded.
fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len;
        assert!(pos <= bytes.len(), "frame overruns the file");
        out.push(pos);
    }
    out
}

/// Run `lp` journaled to completion and return (final arrays, journal
/// file bytes).
fn journaled_ground_truth(
    lp: &ClosureLoop,
    cfg: RunConfig,
    name: &str,
) -> (Vec<(&'static str, Vec<f64>)>, Vec<u8>) {
    let path = tmp(name);
    let mut journal = Journal::create(&path).unwrap();
    let res = Runner::new(cfg)
        .try_run_journaled(lp, &mut journal)
        .unwrap();
    assert!(
        res.report.journal_bytes() > 0,
        "journaled stages record bytes"
    );
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (res.arrays, bytes)
}

#[test]
fn resume_from_every_record_prefix_is_byte_identical() {
    // 112, not 96: at p = 4 the 28-iteration blocks start on multiples
    // of 7, so sinks fall on block boundaries and every strategy
    // restarts (at 96 none does, and the assertion below fails).
    let lp = partially_parallel(112);
    for (k, strategy) in strategies().into_iter().enumerate() {
        let cfg = RunConfig::new(4).with_strategy(strategy);
        let (want, bytes) = journaled_ground_truth(&lp, cfg, &format!("prefix-{k}"));
        let boundaries = record_boundaries(&bytes);
        assert!(
            boundaries.len() >= 3,
            "need a multi-stage run: {strategy:?}"
        );

        // Kill exactly at each record boundary (header included): the
        // resumed run must complete and match byte-for-byte.
        for (r, &cut) in boundaries.iter().enumerate() {
            let path = tmp(&format!("prefix-{k}-{r}"));
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut journal = Journal::open(&path).unwrap();
            assert_eq!(journal.truncated_bytes(), 0, "boundary cuts are clean");
            let res = Runner::new(cfg).resume(&lp, &mut journal).unwrap();
            assert_eq!(
                res.arrays, want,
                "{strategy:?}: resume after record {r} diverged"
            );
            assert!(res.report.resumed_at.is_some());
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn resume_from_every_torn_byte_offset_is_byte_identical() {
    let lp = partially_parallel(64);
    let cfg = RunConfig::new(4).with_strategy(Strategy::Nrd);
    let (want, bytes) = journaled_ground_truth(&lp, cfg, "torn");
    let header_end = record_boundaries(&bytes)[0];

    let path = tmp("torn-cut");
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        if cut < header_end {
            // Not even the header survives: resume is impossible and
            // must say so rather than produce wrong data.
            match Journal::open(&path) {
                Err(JournalError::NoHeader) => {}
                other => panic!("cut {cut}: expected NoHeader, got {other:?}"),
            }
            continue;
        }
        let mut journal = Journal::open(&path).unwrap();
        let res = Runner::new(cfg).resume(&lp, &mut journal).unwrap();
        assert_eq!(res.arrays, want, "torn write at byte {cut} diverged");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn injected_short_write_then_resume_is_byte_identical() {
    let lp = partially_parallel(96);
    for (k, strategy) in strategies().into_iter().enumerate() {
        let cfg = RunConfig::new(4).with_strategy(strategy);
        let (want, bytes) = journaled_ground_truth(&lp, cfg, &format!("sw-truth-{k}"));
        let records = record_boundaries(&bytes).len();

        // Crash the run at every commit append (record 1..): the error
        // surfaces as RlrpdError::Journal, the file holds a valid
        // prefix plus a torn tail, and resume completes the run.
        for r in 1..records {
            for keep in [0usize, 9] {
                let path = tmp(&format!("sw-{k}-{r}-{keep}"));
                let mut journal = Journal::create(&path).unwrap();
                let err = Runner::new(cfg)
                    .with_fault(Arc::new(FaultPlan::new().short_write_at(r, keep)))
                    .try_run_journaled(&lp, &mut journal)
                    .unwrap_err();
                assert!(
                    matches!(err, RlrpdError::Journal { .. }),
                    "{strategy:?} r={r}: {err:?}"
                );
                drop(journal);

                let mut journal = Journal::open(&path).unwrap();
                assert_eq!(journal.records(), r, "valid prefix ends before record {r}");
                let res = Runner::new(cfg).resume(&lp, &mut journal).unwrap();
                assert_eq!(
                    res.arrays, want,
                    "{strategy:?}: resume after crash at record {r} diverged"
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

#[test]
fn injected_fsync_failure_then_resume_is_byte_identical() {
    let lp = partially_parallel(96);
    let cfg = RunConfig::new(4).with_strategy(Strategy::Rd);
    let (want, bytes) = journaled_ground_truth(&lp, cfg, "fsync-truth");
    let records = record_boundaries(&bytes).len();

    for r in 1..records {
        let path = tmp(&format!("fsync-{r}"));
        let mut journal = Journal::create(&path).unwrap();
        let err = Runner::new(cfg)
            .with_fault(Arc::new(FaultPlan::new().fsync_fail_at(r)))
            .try_run_journaled(&lp, &mut journal)
            .unwrap_err();
        assert!(matches!(err, RlrpdError::Journal { .. }), "r={r}: {err:?}");
        drop(journal);

        // The unfsynced record's bytes may or may not have survived; in
        // this simulation they landed, which open() accepts (a stricter
        // crash is covered by the short-write case). Either way the
        // resumed run must match.
        let mut journal = Journal::open(&path).unwrap();
        let res = Runner::new(cfg).resume(&lp, &mut journal).unwrap();
        assert_eq!(res.arrays, want, "resume after fsync failure at {r}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn injected_silent_corruption_is_detected_on_resume() {
    let lp = partially_parallel(96);
    let cfg = RunConfig::new(4).with_strategy(Strategy::Nrd);
    let (want, bytes) = journaled_ground_truth(&lp, cfg, "corrupt-truth");
    let records = record_boundaries(&bytes).len();

    for r in 1..records {
        let path = tmp(&format!("corrupt-{r}"));
        let mut journal = Journal::create(&path).unwrap();
        // Silent media corruption: the run itself completes normally…
        let res = Runner::new(cfg)
            .with_fault(Arc::new(FaultPlan::new().corrupt_record_at(r)))
            .try_run_journaled(&lp, &mut journal)
            .unwrap();
        assert_eq!(res.arrays, want, "corruption is silent during the run");
        drop(journal);

        // …but reopening detects it, truncates from the corrupt record
        // on, and resume still completes byte-identically.
        let mut journal = Journal::open(&path).unwrap();
        assert!(journal.truncated_bytes() > 0, "r={r}: corruption detected");
        assert_eq!(journal.records(), r);
        let res = Runner::new(cfg).resume(&lp, &mut journal).unwrap();
        assert_eq!(res.arrays, want, "resume after corruption at {r}");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_rejects_mismatched_configurations() {
    let lp = partially_parallel(96);
    let cfg = RunConfig::new(4).with_strategy(Strategy::Nrd);
    let path = tmp("mismatch");
    let mut journal = Journal::create(&path).unwrap();
    Runner::new(cfg)
        .try_run_journaled(&lp, &mut journal)
        .unwrap();
    drop(journal);

    // Different strategy, processor count, or loop shape: rejected.
    for bad in [
        RunConfig::new(4).with_strategy(Strategy::Rd),
        RunConfig::new(8).with_strategy(Strategy::Nrd),
    ] {
        let mut journal = Journal::open(&path).unwrap();
        let err = Runner::new(bad).resume(&lp, &mut journal).unwrap_err();
        assert!(matches!(err, RlrpdError::Journal { .. }), "{err:?}");
    }
    let other = partially_parallel(128);
    let mut journal = Journal::open(&path).unwrap();
    let err = Runner::new(cfg).resume(&other, &mut journal).unwrap_err();
    assert!(matches!(err, RlrpdError::Journal { .. }), "{err:?}");

    // The rejection names the field that differs — with a fleet
    // attached as without one — and comes before any worker launches.
    struct NoFleet;
    impl DistConnector for NoFleet {
        fn connect(&mut self, _: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
            panic!("a rejected resume must not launch a fleet")
        }
    }
    for fleet in [false, true] {
        let mut journal = Journal::open(&path).unwrap();
        let mut connector = NoFleet;
        let plan = RunPlan {
            journal: Some(&mut journal),
            fleet: fleet.then_some(("unused", &mut connector as &mut dyn DistConnector)),
            resume: true,
        };
        let err = Runner::new(RunConfig::new(8).with_strategy(Strategy::Nrd))
            .execute(&lp, plan)
            .unwrap_err();
        assert!(
            err.to_string().contains("processor count 4 != 8"),
            "fleet={fleet}: {err}"
        );
    }

    // A fresh journaled run over a used journal is rejected too.
    let mut journal = Journal::open(&path).unwrap();
    let err = Runner::new(cfg)
        .try_run_journaled(&lp, &mut journal)
        .unwrap_err();
    assert!(matches!(err, RlrpdError::Journal { .. }), "{err:?}");
    std::fs::remove_file(&path).ok();
}

/// A record can pass `Journal::open` — checksum good, chained onto its
/// predecessor — and still not be a record of this run: it names an
/// array the header's layout does not have, an element past an array's
/// end, or a frontier that runs backwards or off the loop. Resume
/// refuses it as a journal error; it used to index out of bounds.
#[test]
fn resume_refuses_records_that_do_not_fit_the_run() {
    use rlrpd_core::CommitRecord;
    let lp = partially_parallel(112);
    let cfg = RunConfig::new(4).with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(9)));
    let (want, good) = journaled_ground_truth(&lp, cfg, "unfit-truth");
    let path = tmp("unfit");
    std::fs::write(&path, &good).unwrap();
    let stage = Journal::open(&path).unwrap().commits().len();

    let record = |frontier: usize, arrays| CommitRecord {
        stage,
        frontier,
        exited_at: None,
        fallback: false,
        arrays,
    };
    for (bad, names) in [
        (record(112, vec![(9, vec![(0, 0)])]), "array 9"),
        (record(112, vec![(0, vec![(100_000, 0)])]), "element 100000"),
        // The run ended at frontier 112 of 112.
        (record(111, Vec::new()), "frontier"),
        (record(113, Vec::new()), "frontier"),
    ] {
        std::fs::write(&path, &good).unwrap();
        Journal::open(&path).unwrap().append_commit(bad).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        assert_eq!(
            journal.commits().len(),
            stage + 1,
            "the record survives open"
        );
        let plan = RunPlan {
            journal: Some(&mut journal),
            resume: true,
            ..Default::default()
        };
        let err = Runner::new(cfg).execute(&lp, plan).unwrap_err();
        assert!(matches!(err, RlrpdError::Journal { .. }), "{err:?}");
        assert!(err.to_string().contains(names), "{names}: {err}");
    }

    // The journal as the run left it still resumes to the right arrays.
    std::fs::write(&path, &good).unwrap();
    let mut journal = Journal::open(&path).unwrap();
    let res = Runner::new(cfg).resume(&lp, &mut journal).unwrap();
    assert_eq!(res.arrays, want);
    std::fs::remove_file(&path).ok();
}

#[test]
fn journaled_and_plain_runs_agree() {
    // The journal must be observationally invisible to the run itself:
    // same arrays, stages, and restarts as the unjournaled path.
    let lp = partially_parallel(96);
    for strategy in strategies() {
        let cfg = RunConfig::new(4).with_strategy(strategy);
        let plain = Runner::new(cfg).try_run(&lp).unwrap();
        let path = tmp("invisible");
        let mut journal = Journal::create(&path).unwrap();
        let journaled = Runner::new(cfg)
            .try_run_journaled(&lp, &mut journal)
            .unwrap();
        assert_eq!(plain.arrays, journaled.arrays, "{strategy:?}");
        assert_eq!(
            plain.report.stages.len(),
            journaled.report.stages.len(),
            "{strategy:?}"
        );
        assert_eq!(plain.report.restarts, journaled.report.restarts);
        std::fs::remove_file(&path).ok();
    }
}

// ---------------------------------------------------------------------
// What group commit may not change. The stage loop runs up to
// `IN_FLIGHT` records ahead of the journal's writer, which syncs them
// in groups; these pin that nothing a caller can observe — the file,
// the observer stream, the error, the reported frontier — tells the
// difference, and that the bound is the bound.
// ---------------------------------------------------------------------

/// `journal.rs`'s private bound on records submitted and not yet known
/// durable.
const IN_FLIGHT: usize = 8;

/// Every iteration reads 13 behind itself, so every block but a
/// stage's first fails and each strategy takes several stages. `hook`
/// runs at the top of every iteration (raise a flag, panic).
fn chained(n: usize, hook: impl Fn(usize) + Sync + 'static) -> ClosureLoop {
    ClosureLoop::new(
        n,
        move || {
            vec![
                ArrayDecl::tested("A", vec![1.0; n], rlrpd_core::ShadowKind::Dense),
                ArrayDecl::untested("U", vec![0.0; n]),
            ]
        },
        move |i, ctx| {
            hook(i);
            let v = ctx.read(A, i.saturating_sub(13));
            ctx.write(A, i, v + 1.0);
            ctx.write(U, i, v - 0.5);
        },
    )
}

fn in_flight_strategies() -> Vec<Strategy> {
    vec![
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::SlidingWindow(WindowConfig::fixed(16)),
    ]
}

/// A fresh journal at `path` whose observer appends every frame it is
/// shown to the returned buffer — after checking, at that instant, that
/// the file already holds everything it has been shown, this frame
/// included (a group's later frames may follow it there).
fn observed_journal(path: &Path) -> (Journal, Arc<Mutex<Vec<u8>>>) {
    observed_journal_with(path, |_| {})
}

/// [`observed_journal`], whose observer then runs `on_frame` with the
/// count of frames seen so far.
fn observed_journal_with(
    path: &Path,
    on_frame: impl Fn(usize) + Send + 'static,
) -> (Journal, Arc<Mutex<Vec<u8>>>) {
    let mut journal = Journal::create(path).unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (sink, file) = (Arc::clone(&seen), path.to_path_buf());
    let mut frames = 0usize;
    journal.set_observer(Some(FrameObserver::new(move |frame| {
        let mut seen = sink.lock().unwrap();
        seen.extend_from_slice(frame);
        let on_disk = std::fs::read(&file).unwrap();
        assert!(
            on_disk.starts_with(&seen),
            "frame {frames} observed before the file held it"
        );
        drop(seen);
        frames += 1;
        on_frame(frames);
    })));
    (journal, seen)
}

#[test]
fn a_failed_append_is_reported_with_nothing_written_or_observed_after_it() {
    let lp = chained(96, |_| {});
    let (seq, _) = run_sequential(&lp);
    for (s, strategy) in in_flight_strategies().into_iter().enumerate() {
        let cfg = RunConfig::new(4).with_strategy(strategy);
        let (want, truth) = journaled_ground_truth(&lp, cfg, &format!("inflight-truth-{s}"));
        assert_eq!(want, seq, "{strategy:?}");
        let ends = record_boundaries(&truth);
        assert!(ends.len() >= 4, "need a multi-stage run: {strategy:?}");

        // Record k fails while stage k + 1 runs (the last one, while
        // the run winds up). `landed` is how much of the fault-free
        // file the fault leaves behind.
        for k in 1..ends.len() {
            for (plan, op, landed) in [
                (FaultPlan::new().fsync_fail_at(k), "fsync", ends[k]),
                (
                    FaultPlan::new().short_write_at(k, 0),
                    "short write",
                    ends[k - 1],
                ),
                (
                    FaultPlan::new().short_write_at(k, 9),
                    "short write",
                    ends[k - 1] + 9,
                ),
            ] {
                let what = format!("{strategy:?}, {op} at record {k}");
                let path = tmp(&format!("inflight-{s}-{k}-{landed}"));
                let (mut journal, seen) = observed_journal(&path);
                let err = Runner::new(cfg)
                    .with_fault(Arc::new(plan))
                    .try_run_journaled(&lp, &mut journal)
                    .unwrap_err();
                assert_eq!(
                    err.to_string(),
                    RlrpdError::from(JournalError::Injected { record: k, op }).to_string(),
                    "{what}"
                );
                drop(journal);

                // No byte of record k + 1: the file is the fault-free
                // run's, cut where the fault cut it.
                let on_disk = std::fs::read(&path).unwrap();
                assert!(on_disk == truth[..landed], "{what}: file contents");
                // Observers saw every durable record and nothing else.
                assert!(
                    *seen.lock().unwrap() == truth[..ends[k - 1]],
                    "{what}: observed frames"
                );

                // A re-open recovers what the observers saw — and, after
                // a failed fsync, record k too: its bytes landed, only
                // the confirmation was lost (a crash that loses them as
                // well is the short write).
                let mut journal = Journal::open(&path).unwrap();
                let recovered = if op == "fsync" { k + 1 } else { k };
                assert_eq!(journal.records(), recovered, "{what}");
                let res = Runner::new(cfg).resume(&lp, &mut journal).unwrap();
                assert_eq!(res.arrays, seq, "{what}: resume diverged");
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

#[test]
fn a_stop_raised_inside_an_iteration_pauses_at_a_durable_frontier() {
    let (seq, _) = run_sequential(&chained(96, |_| {}));
    for (s, strategy) in in_flight_strategies().into_iter().enumerate() {
        let cfg = RunConfig::new(4).with_strategy(strategy);
        let stop = Arc::new(AtomicBool::new(false));
        let lp = {
            let stop = Arc::clone(&stop);
            let fired = AtomicBool::new(false);
            chained(96, move |i| {
                if i == 40 && !fired.swap(true, Ordering::Relaxed) {
                    stop.store(true, Ordering::Relaxed);
                }
            })
        };
        let path = tmp(&format!("inflight-stop-{s}"));
        let mut journal = Journal::create(&path).unwrap();
        let res = Runner::new(cfg)
            .with_stop(Arc::clone(&stop))
            .try_run_journaled(&lp, &mut journal)
            .unwrap();
        drop(journal);
        let stopped = res.report.stopped_at.expect("the run paused");
        assert!(stopped < 96, "{strategy:?}: paused before the end");

        // The reported frontier is on disk, whole.
        let mut journal = Journal::open(&path).unwrap();
        assert_eq!(journal.truncated_bytes(), 0, "{strategy:?}");
        assert_eq!(
            journal.commits().last().map(|c| c.frontier),
            Some(stopped),
            "{strategy:?}: stopped_at is the last durable frontier"
        );
        assert_eq!(journal.commits().len(), res.report.stages.len());

        stop.store(false, Ordering::Relaxed);
        let res = Runner::new(cfg).resume(&lp, &mut journal).unwrap();
        assert_eq!(res.report.resumed_at, Some(stopped));
        assert_eq!(res.arrays, seq, "{strategy:?}: resume diverged");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_run_that_errors_leaves_the_journal_at_its_last_committed_stage() {
    let lp = chained(96, |_| {});
    for (s, strategy) in in_flight_strategies().into_iter().enumerate() {
        let cfg = RunConfig::new(4).with_strategy(strategy);
        let (_, truth) = journaled_ground_truth(&lp, cfg, &format!("inflight-err-truth-{s}"));
        let ends = record_boundaries(&truth);
        const LIMIT: usize = 2;
        assert!(
            ends.len() > LIMIT + 1,
            "{strategy:?}: more stages than the cap"
        );
        let capped = RunConfig {
            max_stages: LIMIT,
            ..cfg
        };

        // The stage cap: the record in flight when it trips is on disk,
        // whole, and nothing follows it.
        let path = tmp(&format!("inflight-limit-{s}"));
        let mut journal = Journal::create(&path).unwrap();
        let err = Runner::new(capped)
            .try_run_journaled(&lp, &mut journal)
            .unwrap_err();
        assert!(
            matches!(err, RlrpdError::StageLimit { max_stages: LIMIT }),
            "{strategy:?}: {err:?}"
        );
        drop(journal);
        assert!(
            std::fs::read(&path).unwrap() == truth[..ends[LIMIT]],
            "{strategy:?}: journal after the stage cap"
        );

        // When that record's append fails, the failure — the earlier
        // event — is what the run reports, not the cap.
        let mut journal = Journal::create(&path).unwrap();
        let err = Runner::new(capped)
            .with_fault(Arc::new(FaultPlan::new().fsync_fail_at(LIMIT)))
            .try_run_journaled(&lp, &mut journal)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            RlrpdError::from(JournalError::Injected {
                record: LIMIT,
                op: "fsync"
            })
            .to_string(),
            "{strategy:?}"
        );
        drop(journal);

        // A genuine program fault: every record the run believes it
        // wrote is on disk, whole, and the last one stops short of the
        // faulting iteration.
        let faulty = chained(96, |i| assert!(i != 50, "iteration 50 exploded"));
        let mut journal = Journal::create(&path).unwrap();
        let err = Runner::new(cfg)
            .try_run_journaled(&faulty, &mut journal)
            .unwrap_err();
        assert!(
            matches!(err, RlrpdError::ProgramFault { iter: 50, .. }),
            "{strategy:?}: {err:?}"
        );
        let believed = journal.commits().to_vec();
        drop(journal);
        let journal = Journal::open(&path).unwrap();
        assert_eq!(journal.truncated_bytes(), 0, "{strategy:?}: nothing torn");
        assert_eq!(
            journal.commits(),
            &believed[..],
            "{strategy:?}: nothing lost"
        );
        let last = believed.last().expect("stages committed before the fault");
        assert!(last.frontier <= 50, "{strategy:?}: {last:?}");
        std::fs::remove_file(&path).ok();
    }
}

/// An iteration that is not above the last one executed opens a stage:
/// on the simulated executor a stage of [`chained`] runs its iterations
/// in ascending order, and the next one starts below where it stopped
/// (its first block always commits, a later one always fails). The
/// stage before it has submitted its record by then. Returns the hook
/// that calls `opened` with the count of stages opened so far.
fn stage_counter(opened: impl Fn(usize) + Sync + 'static) -> impl Fn(usize) + Sync + 'static {
    let (last, stages) = (AtomicUsize::new(usize::MAX), AtomicUsize::new(0));
    move |i| {
        let prev = last.swap(i, Ordering::Relaxed);
        if prev != usize::MAX && i <= prev {
            opened(stages.fetch_add(1, Ordering::Relaxed) + 1);
        }
    }
}

/// Group commit itself: while one record's confirmation is slow — here
/// the observer holds the writer's thread on the first commit frame
/// until the loop is three stages further on — the records the loop
/// goes on submitting queue up, and share the next sync. Neither the
/// file nor the observer's stream can tell.
#[test]
fn records_that_queue_behind_a_sync_share_the_next_one() {
    for (s, strategy) in in_flight_strategies().into_iter().enumerate() {
        let cfg = RunConfig::new(16).with_strategy(strategy);
        let plain = chained(384, |_| {});
        let (want, truth) = journaled_ground_truth(&plain, cfg, &format!("group-truth-{s}"));
        let (opened, stages) = std::sync::mpsc::channel();
        let lp = chained(
            384,
            stage_counter(move |_| {
                let _ = opened.send(());
            }),
        );
        let path = tmp(&format!("group-{s}"));
        // Frame 1 is the header, written before the loop starts; frame 2
        // is the record of stage 0. Stage 3 open means records 2 and 3
        // are submitted behind it.
        let (mut journal, seen) = observed_journal_with(&path, move |frames| {
            if frames == 2 {
                stages.iter().take(3).for_each(drop);
            }
        });
        let res = Runner::new(cfg)
            .try_run_journaled(&lp, &mut journal)
            .unwrap();
        assert_eq!(res.arrays, want, "{strategy:?}");
        let commits = journal.commits().len();
        assert_eq!(commits, res.report.stages.len(), "{strategy:?}");
        assert!(
            journal.syncs() < commits,
            "{strategy:?}: {} syncs for {commits} records",
            journal.syncs()
        );
        drop(journal);
        // Same bytes, each frame observed once, in order.
        assert!(std::fs::read(&path).unwrap() == truth, "{strategy:?}: file");
        assert!(*seen.lock().unwrap() == truth, "{strategy:?}: observed");
        // Each stage is credited its own record's bytes.
        let ends = record_boundaries(&truth);
        for (k, stage) in res.report.stages.iter().enumerate() {
            let bytes = (ends[k + 1] - ends[k]) as u64;
            assert_eq!(stage.journal_bytes, bytes, "{strategy:?}: stage {k}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The bound, held to its word by a slow device: the writer stalls
/// before the sync of the first commit record, the loop runs on — and
/// an iteration never executes with more than `IN_FLIGHT` records
/// submitted and not yet observed. It does get that far (a loop that
/// waited for each record before the next stage never gets past 1).
#[test]
fn a_slow_sync_lets_the_loop_run_ahead_by_no_more_than_the_bound() {
    for (s, strategy) in in_flight_strategies().into_iter().enumerate() {
        let cfg = RunConfig::new(16).with_strategy(strategy);
        let (want, truth) =
            journaled_ground_truth(&chained(384, |_| {}), cfg, &format!("bound-truth-{s}"));
        let observed = Arc::new(AtomicUsize::new(0));
        let furthest = Arc::new(AtomicUsize::new(0));
        let lp = {
            let (observed, furthest) = (Arc::clone(&observed), Arc::clone(&furthest));
            // Every stage opened has a predecessor that submitted its
            // record; the frames observed, less the header, are durable.
            // (Measured as each stage opens: nothing is submitted inside
            // one, so that is where the loop is furthest ahead.)
            chained(
                384,
                stage_counter(move |submitted| {
                    let durable = observed.load(Ordering::SeqCst).saturating_sub(1);
                    furthest.fetch_max(submitted.saturating_sub(durable), Ordering::Relaxed);
                }),
            )
        };
        let path = tmp(&format!("bound-{s}"));
        let (mut journal, seen) = {
            let observed = Arc::clone(&observed);
            observed_journal_with(&path, move |frames| {
                observed.store(frames, Ordering::SeqCst)
            })
        };
        let res = Runner::new(cfg)
            .with_fault(Arc::new(FaultPlan::new().slow_fsync_at(1, 200)))
            .try_run_journaled(&lp, &mut journal)
            .unwrap();
        assert_eq!(res.arrays, want, "{strategy:?}");
        assert!(res.report.stages.len() > IN_FLIGHT + 1, "{strategy:?}");
        assert_eq!(
            furthest.load(Ordering::Relaxed),
            IN_FLIGHT,
            "{strategy:?}: how far the loop ran ahead of the observer"
        );
        // A plan that arms record sites syncs record by record.
        assert_eq!(journal.syncs(), journal.commits().len(), "{strategy:?}");
        drop(journal);
        assert!(std::fs::read(&path).unwrap() == truth, "{strategy:?}: file");
        assert!(*seen.lock().unwrap() == truth, "{strategy:?}: observed");
        std::fs::remove_file(&path).ok();
    }
}

/// A plan of journal-record sites on a run with no journal arms sites
/// nothing visits: refused, like every fault that could never fire.
#[test]
fn record_faults_without_a_journal_are_refused() {
    let lp = chained(96, |_| {});
    let err = Runner::new(RunConfig::new(4))
        .with_fault(Arc::new(FaultPlan::new().slow_fsync_at(1, 5)))
        .execute(&lp, RunPlan::default())
        .unwrap_err();
    assert_eq!(err, RlrpdError::Plan(PlanError::RecordFaultsWithoutJournal));
    assert!(err.to_string().contains("--journal"), "{err}");
}
