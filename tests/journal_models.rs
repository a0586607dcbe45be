//! Crash durability on the paper's workload models, end to end: a
//! journaled run of TRACK, SPICE, or NLFILT killed at *any* commit
//! record — and additionally hit by seeded I/O faults — must resume to
//! final arrays byte-identical to sequential execution.
//!
//! This is the workload-level counterpart of the synthetic-loop suite
//! in `crates/core/tests/journal.rs`: same crash/resume machinery, but
//! exercised through the real kernels the paper evaluates. Each test is
//! its slice of the plan matrix (`tests/common`) at `p = 4`, under
//! `Leg::KillAtEveryCommit` or the seeded `Leg::SeededIo` — but the last,
//! which resumes a journal an older binary wrote (envelope version 1).

mod common;

use common::{journal_as_v1, seeded, slice, Deck, Leg};
use rlrpd::core::remote::frames;
use rlrpd::{Journal, RunConfig, RunPlan, Runner};

const STRATEGIES: [&str; 3] = ["nrd", "rd", "sw:7"];

#[test]
fn track_fptrak_survives_kill_at_every_commit() {
    slice(&["fptrak:0"], &[Leg::KillAtEveryCommit], &STRATEGIES, &[4]);
}

#[test]
fn spice_dcdcmp_survives_kill_at_every_commit() {
    slice(
        &["dcdcmp15:17"],
        &[Leg::KillAtEveryCommit],
        &STRATEGIES,
        &[4],
    );
}

#[test]
fn nlfilt_survives_kill_at_every_commit() {
    slice(
        &["nlfilt:i4_50"],
        &[Leg::KillAtEveryCommit],
        &STRATEGIES,
        &[4],
    );
}

#[test]
fn track_fptrak_recovers_from_seeded_io_faults() {
    slice(&["fptrak:0"], &seeded(Leg::SeededIo), &STRATEGIES, &[4]);
}

#[test]
fn spice_dcdcmp_recovers_from_seeded_io_faults() {
    slice(&["dcdcmp15:17"], &seeded(Leg::SeededIo), &STRATEGIES, &[4]);
}

/// A journal written before envelope version 2 — every record sealed
/// with FNV-1a and chained by it — cut after its third commit: it opens
/// clean, resumes to the sequential result with version-2 records
/// appended behind its version-1 prefix, re-opens clean across that
/// boundary, and a torn version-2 tail truncates back to the prefix.
#[test]
fn a_version_1_journal_resumes_with_version_2_records_appended() {
    let deck = Deck::named("fptrak:0");
    let cfg = RunConfig::new(4).with_strategy("sw:7".parse().unwrap());
    let path = std::env::temp_dir().join(format!("rlrpd-v1-journal-{}", std::process::id()));
    let run = |journal: &mut Journal, resume: bool| {
        let plan = RunPlan {
            journal: Some(journal),
            resume,
            ..Default::default()
        };
        let res = Runner::new(cfg).execute(deck.lp.as_ref(), plan).unwrap();
        deck.verify(&res.arrays, if resume { "resumed" } else { "fresh" });
    };
    run(&mut Journal::create(&path).unwrap(), false);
    let fresh = std::fs::read(&path).unwrap();
    let (_, cut) = frames(&fresh).nth(3).expect("a header and three commits");
    let v1 = journal_as_v1(&fresh[..cut]);
    assert_eq!(v1.len(), cut, "resealing changes no length");
    let version = |record: &[u8]| u32::from_le_bytes(record[4..8].try_into().unwrap());
    assert!(frames(&v1).all(|(record, _)| version(record) == 1));
    std::fs::write(&path, &v1).unwrap();

    let mut journal = Journal::open(&path).unwrap();
    assert_eq!((journal.commits().len(), journal.truncated_bytes()), (3, 0));
    run(&mut journal, true);
    drop(journal);
    let resumed = std::fs::read(&path).unwrap();
    assert!(
        resumed.starts_with(&v1),
        "the version-1 prefix is kept as it was"
    );
    let appended: Vec<u32> = frames(&resumed[v1.len()..])
        .map(|(record, _)| version(record))
        .collect();
    assert!(!appended.is_empty() && appended.iter().all(|&v| v == 2));

    let reopened = Journal::open(&path).unwrap();
    assert_eq!(reopened.truncated_bytes(), 0, "clean across the boundary");
    assert_eq!(reopened.commits().len(), 3 + appended.len());
    let last = reopened.commits().last().unwrap();
    assert!(last.completes(deck.lp.num_iters()));
    drop(reopened);

    let (_, first_v2_end) = frames(&resumed).nth(4).unwrap();
    std::fs::write(&path, &resumed[..first_v2_end - 5]).unwrap();
    let torn = Journal::open(&path).unwrap();
    assert_eq!(torn.commits().len(), 3);
    assert_eq!(
        std::fs::read(&path).unwrap(),
        v1,
        "truncated back to the prefix"
    );
    std::fs::remove_file(&path).ok();
}
