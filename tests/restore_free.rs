//! Restore-free untested arrays: the analysis marks an array whose
//! discarded writes need no undo — never read, written on every path at
//! a subscript of `i` alone, in a loop without `break` — and the engine
//! keeps no old value for it. Re-execution rewrites whatever a
//! discarded block left there, so final arrays stay bit-identical to
//! sequential execution.
//!
//! Each exclusion has a deck whose array would end wrong without its
//! undo log: a discarded block writes it, and the re-execution does not
//! rewrite the same element with the same value (the guard turns false,
//! the read sees the discarded value, the loop exits first). Those decks
//! and the two paper decks that hold a restore-free array run the same
//! matrix: `sw:2`, seeded panics, forced pressure, the `max_restarts`
//! fallback, a journal torn at every commit and resumed, and a
//! two-worker fleet.

mod common;

use common::{launcher, seeded, slice, Deck, Leg};
use rlrpd::lang::CompiledProgram;
use rlrpd::loops::dsl;
use rlrpd::{FallbackPolicy, RunConfig, Runner};

/// `W[i]` behind a guard on `STATE[i]`, which iteration `i - 3` sets:
/// a speculative block reads the initial `STATE` and writes `W`, the
/// re-execution reads the committed value and skips the store.
const GUARDED: &str = "rlp:array STATE[140] = 1;\narray W[128];\ncost 4;\n\
    for i in 0..128 {\n\
    \x20   if STATE[i] < 1.5 { W[i] = i + 1; }\n\
    \x20   STATE[i + 3] = STATE[i] + 1;\n\
    }\n";

/// `W[i]` read before it is written: a re-execution over a discarded
/// block's value would fold it in twice.
const READ: &str = "rlp:array STATE[140] = 1;\narray W[128] = 1;\ncost 4;\n\
    for i in 0..128 {\n\
    \x20   W[i] = W[i] * 0.5 + STATE[i];\n\
    \x20   STATE[i + 3] = STATE[i] + 1;\n\
    }\n";

/// `W[i]` written unconditionally and never read, in a loop that exits
/// early: iterations past the exit never re-execute, so what a
/// discarded block wrote there would stay.
const BREAK: &str = "rlp:array STATE[140] = 1;\narray W[128];\ncost 4;\n\
    for i in 0..128 {\n\
    \x20   W[i] = i + 1;\n\
    \x20   STATE[i + 3] = STATE[i] + 1;\n\
    \x20   break if STATE[i] > 40;\n\
    }\n";

/// The same loop as [`GUARDED`] without the guard, hinted untested: a
/// hint cannot make an array restore-free.
const HINTED: &str = "rlp:array STATE[140] = 1;\narray W[128] : untested;\ncost 4;\n\
    for i in 0..128 {\n\
    \x20   W[i] = i + 1;\n\
    \x20   STATE[i + 3] = STATE[i] + 1;\n\
    }\n";

/// The restore-free arrays of `spec`'s (one) loop, by name.
fn restore_free(spec: &str) -> Vec<String> {
    let prog = CompiledProgram::compile(spec.strip_prefix("rlp:").unwrap()).unwrap();
    prog.program()
        .arrays
        .iter()
        .zip(prog.classifications(0))
        .filter(|(_, c)| c.restore_free)
        .map(|(decl, _)| decl.name.clone())
        .collect()
}

fn track() -> &'static str {
    Box::leak(format!("rlp:{}", dsl::track_dsl(384)).into_boxed_str())
}

fn nlfilt() -> &'static str {
    Box::leak(format!("rlp:{}", dsl::nlfilt_dsl(256)).into_boxed_str())
}

#[test]
fn only_the_analysis_marks_an_array_restore_free() {
    assert_eq!(restore_free(track()), ["WORK"]);
    assert_eq!(restore_free(nlfilt()), ["OUT"]);
    for spec in [GUARDED, READ, BREAK, HINTED] {
        assert!(restore_free(spec).is_empty(), "{spec}");
    }
}

/// The matrix every deck runs; the fleet legs cost most, so they take
/// two strategies at one `p`.
fn matrix(spec: &'static str) {
    let strategies = ["nrd", "sw:2", "sw:7"];
    let legs = [
        seeded(Leg::SeededPanic),
        vec![Leg::None, Leg::Pressure, Leg::KillAtEveryCommit],
    ]
    .concat();
    let tally = slice(&[spec], &legs, &strategies, &[2, 4]);
    assert!(tally.get("panic") > 0 && tally.get("shadow-pressure") > 0);

    let deck = Deck::named(spec);
    for strategy in common::strategies(&strategies) {
        let cfg = RunConfig::new(4)
            .with_strategy(strategy)
            .with_fallback(FallbackPolicy::default().with_max_restarts(1));
        let res = Runner::new(cfg)
            .try_run(deck.lp.as_ref())
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        deck.verify(&res.arrays, &format!("max_restarts 1 {strategy:?}"));
    }
    let mut fleet = launcher(None);
    for strategy in common::strategies(&["nrd", "sw:2"]) {
        let res = deck.run_over(RunConfig::new(4).with_strategy(strategy), &mut fleet);
        assert_eq!(res.report.fallback, None, "{strategy:?}: the fleet ran it");
        deck.verify(&res.arrays, &format!("two workers {strategy:?}"));
    }
}

#[test]
fn a_guarded_store_keeps_its_undo_log() {
    matrix(GUARDED);
}

#[test]
fn an_array_that_is_also_read_keeps_its_undo_log() {
    matrix(READ);
}

#[test]
fn a_loop_with_break_keeps_its_undo_log() {
    matrix(BREAK);
}

#[test]
fn restore_free_track_and_nlfilt_end_as_sequential_execution() {
    matrix(track());
    matrix(nlfilt());
}
