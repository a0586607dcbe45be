//! Crash durability on the paper's workload models, end to end: a
//! journaled run of TRACK, SPICE, or NLFILT killed at *any* commit
//! record — and additionally hit by seeded I/O faults — must resume to
//! final arrays byte-identical to sequential execution.
//!
//! This is the workload-level counterpart of the synthetic-loop suite
//! in `crates/core/tests/journal.rs`: same crash/resume machinery, but
//! exercised through the real kernels the paper evaluates. Each test is
//! its slice of the plan matrix (`tests/common`) at `p = 4`, under
//! `Leg::KillAtEveryCommit` or the seeded `Leg::SeededIo`.

mod common;

use common::{seeded, slice, Leg};

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
