//! Fault containment on the paper's workload models, end to end: a
//! panic injected into *any* chosen iteration of TRACK, SPICE, or
//! NLFILT, under *every* strategy, still yields arrays byte-identical
//! to sequential execution — and the run's report records the contained
//! fault rather than the process aborting.
//!
//! Each model's test is its slice of the plan matrix (`tests/common`):
//! the model under `Leg::SeededPanic`, one seeded one-panic plan a run.

mod common;

use common::{seeded, slice, Deck, Leg, STRATEGIES};
use rlrpd::{FallbackPolicy, RunConfig, Runner};

#[test]
fn track_fptrak_contains_injected_faults() {
    slice(
        &["fptrak:0"],
        &seeded(Leg::SeededPanic),
        &STRATEGIES,
        &[2, 4, 8],
    );
}

#[test]
fn spice_dcdcmp_contains_injected_faults() {
    slice(
        &["dcdcmp15:17"],
        &seeded(Leg::SeededPanic),
        &STRATEGIES,
        &[2, 4, 8],
    );
}

#[test]
fn nlfilt_contains_injected_faults() {
    slice(
        &["nlfilt:i4_50"],
        &seeded(Leg::SeededPanic),
        &STRATEGIES,
        &[2, 4, 8],
    );
}

#[test]
fn restart_budget_on_a_workload_model_stays_correct() {
    // Degrading SPICE to sequential after its first restart must not
    // change the numerics.
    let deck = Deck::named("dcdcmp15:17");
    for strategy in common::strategies(&STRATEGIES) {
        let cfg = RunConfig::new(4)
            .with_strategy(strategy)
            .with_fallback(FallbackPolicy::default().with_max_restarts(1));
        let res = Runner::new(cfg)
            .try_run(deck.lp.as_ref())
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        deck.verify(&res.arrays, &format!("{strategy:?}"));
    }
}
