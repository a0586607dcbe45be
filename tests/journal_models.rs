//! Crash durability on the paper's workload models, end to end: a
//! journaled run of TRACK, SPICE, or NLFILT killed at *any* commit
//! record — and additionally hit by seeded I/O faults — must resume to
//! final arrays byte-identical to sequential execution.
//!
//! This is the workload-level counterpart of the synthetic-loop suite
//! in `crates/core/tests/journal.rs`: same crash/resume machinery, but
//! exercised through the real kernels the paper evaluates.

mod common;

use common::seeds;
use rlrpd::loops::*;
use rlrpd::{run_sequential, FaultPlan, Journal, RunConfig, Runner, SpecLoop, Strategy};
use std::path::PathBuf;
use std::sync::Arc;

fn strategies() -> Vec<Strategy> {
    common::strategies(&["nrd", "rd", "sw:7"])
}

fn tmp(name: &str) -> PathBuf {
    let safe = name.replace('/', "-");
    std::env::temp_dir().join(format!("rlrpd-jmodel-{safe}-{}", std::process::id()))
}

/// Number of records in a journal file (frame layout: `u32 len | rec`).
fn count_records(bytes: &[u8]) -> usize {
    let mut pos = 0usize;
    let mut count = 0usize;
    while pos + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len;
        assert!(pos <= bytes.len(), "frame overruns the file");
        count += 1;
    }
    count
}

fn assert_matches_sequential(
    name: &str,
    seq: &[(&'static str, Vec<f64>)],
    got: &[(&'static str, Vec<f64>)],
    what: &str,
) {
    for ((sname, sdata), (rname, rdata)) in seq.iter().zip(got) {
        assert_eq!(sname, rname);
        assert_eq!(sdata, rdata, "{name}: array {sname} differs {what}");
    }
}

/// The acceptance bar: run the loop journaled to completion, then for
/// every commit record crash the run exactly there (a torn append) and
/// resume — the resumed arrays must equal sequential execution
/// byte-for-byte under every strategy.
fn assert_kill_and_resume(name: &str, lp: &dyn SpecLoop) {
    let (seq, _) = run_sequential(lp);
    for strategy in strategies() {
        let cfg = RunConfig::new(4).with_strategy(strategy);

        // Uninterrupted journaled run: ground truth plus record count.
        let path = tmp(&format!("{name}-truth"));
        let mut journal = Journal::create(&path).unwrap();
        let res = Runner::new(cfg)
            .try_run_journaled(lp, &mut journal)
            .unwrap_or_else(|e| panic!("{name}: {strategy:?}: {e}"));
        drop(journal);
        let records = count_records(&std::fs::read(&path).unwrap());
        std::fs::remove_file(&path).ok();
        assert_matches_sequential(name, &seq, &res.arrays, &format!("({strategy:?}, clean)"));
        assert!(records >= 2, "{name}: {strategy:?}: single-record run");

        // Crash at every commit append, reopen, resume.
        for r in 1..records {
            let path = tmp(&format!("{name}-kill-{r}"));
            let mut journal = Journal::create(&path).unwrap();
            Runner::new(cfg)
                .with_fault(Arc::new(FaultPlan::new().short_write_at(r, 3)))
                .try_run_journaled(lp, &mut journal)
                .unwrap_err();
            drop(journal);

            let mut journal = Journal::open(&path).unwrap();
            let res = Runner::new(cfg)
                .resume(lp, &mut journal)
                .unwrap_or_else(|e| panic!("{name}: {strategy:?} r={r}: resume: {e}"));
            assert_matches_sequential(
                name,
                &seq,
                &res.arrays,
                &format!("({strategy:?}, resumed after crash at record {r})"),
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Seeded I/O-fault sweep: derive a fault kind and target record from
/// the seed, inject it, and require the journal to either survive the
/// run (silent corruption) or recover on resume — byte-identical to
/// sequential either way.
fn assert_io_faults_recovered(name: &str, lp: &dyn SpecLoop) {
    let (seq, _) = run_sequential(lp);
    for seed in seeds() {
        for strategy in strategies() {
            let cfg = RunConfig::new(4).with_strategy(strategy);

            let path = tmp(&format!("{name}-io-truth-{seed}"));
            let mut journal = Journal::create(&path).unwrap();
            Runner::new(cfg)
                .try_run_journaled(lp, &mut journal)
                .unwrap();
            drop(journal);
            let records = count_records(&std::fs::read(&path).unwrap());
            std::fs::remove_file(&path).ok();

            let target = 1 + (seed as usize) % (records - 1);
            let plans = [
                FaultPlan::new().short_write_at(target, (seed as usize) % 11),
                FaultPlan::new().fsync_fail_at(target),
                FaultPlan::new().corrupt_record_at(target),
            ];
            for (k, plan) in plans.into_iter().enumerate() {
                let path = tmp(&format!("{name}-io-{seed}-{k}"));
                let mut journal = Journal::create(&path).unwrap();
                let first = Runner::new(cfg)
                    .with_fault(Arc::new(plan))
                    .try_run_journaled(lp, &mut journal);
                drop(journal);

                let arrays = match first {
                    // Silent corruption: the run itself completes.
                    Ok(res) => res.arrays,
                    // Write/fsync failure: crash, reopen, resume.
                    Err(_) => {
                        let mut journal = Journal::open(&path).unwrap();
                        Runner::new(cfg)
                            .resume(lp, &mut journal)
                            .unwrap_or_else(|e| {
                                panic!("{name}: seed={seed} {strategy:?} fault#{k}: {e}")
                            })
                            .arrays
                    }
                };
                assert_matches_sequential(
                    name,
                    &seq,
                    &arrays,
                    &format!("(seed={seed}, {strategy:?}, io fault #{k})"),
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }
}

#[test]
fn track_fptrak_survives_kill_at_every_commit() {
    let input = rlrpd::loops::fptrak::FptrakInput::all()
        .into_iter()
        .next()
        .expect("TRACK ships at least one input deck");
    assert_kill_and_resume("track/fptrak", &FptrakLoop::new(input));
}

#[test]
fn spice_dcdcmp_survives_kill_at_every_commit() {
    assert_kill_and_resume("spice/dcdcmp", &Dcdcmp15Loop::small(17));
}

#[test]
fn nlfilt_survives_kill_at_every_commit() {
    assert_kill_and_resume("nlfilt", &NlfiltLoop::new(NlfiltInput::i4_50()));
}

#[test]
fn track_fptrak_recovers_from_seeded_io_faults() {
    let input = rlrpd::loops::fptrak::FptrakInput::all()
        .into_iter()
        .next()
        .expect("TRACK ships at least one input deck");
    assert_io_faults_recovered("track/fptrak", &FptrakLoop::new(input));
}

#[test]
fn spice_dcdcmp_recovers_from_seeded_io_faults() {
    assert_io_faults_recovered("spice/dcdcmp", &Dcdcmp15Loop::small(17));
}
