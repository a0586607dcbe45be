//! The legal set, generated rather than hand-enumerated: every tuple of
//! strategy × executor × journal × fleet × fault leg × `p` over the six
//! decks of `tests/common` is put to `RunPlan::validate` and then to
//! `Runner::execute`, which must agree with it either way (`common`'s
//! module docs say how). The full sweep lives here; the workload-model
//! suites run its slices.

mod common;

use common::{check, seeded, Deck, JournalLeg, Leg, Tally, Tuple, DECKS, STRATEGIES};
use rlrpd::core::driver::MAX_PROCESSORS;
use rlrpd::core::PlanError;
use rlrpd::loops::extend::{ExtendInput, ExtendLoop};
use rlrpd::{ExecMode, RlrpdError, RunConfig, RunPlan, Runner};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Every tuple a deck runs: the strategies on both executors, crossed with
///
/// * the journal legs × `p` ∈ {0, 1, 4} in process and the fleet's
///   width over it × {no fault, injected pressure, a seeded panic};
/// * one processor more than a run may have;
/// * the budget ladder, the kill at every commit record and the seeded
///   journal I/O faults, in process at `p = 4`;
/// * the slow fsync, journaled in process and over the fleet — and with
///   no journal, where it is refused;
/// * the seeded dispatch faults over the fleet.
fn tuples() -> Vec<Tuple> {
    let strategies = common::strategies(&STRATEGIES);
    let mut crossed = vec![Leg::None, Leg::Pressure];
    crossed.extend(seeded(Leg::SeededPanic));
    let mut journaled = vec![Leg::KillAtEveryCommit];
    journaled.extend(seeded(Leg::SeededIo));

    let mut out = Vec::new();
    for &strategy in &strategies {
        for exec in [ExecMode::Simulated, ExecMode::Pooled] {
            let mut push = |journal, fleet, leg, p| {
                out.push(Tuple {
                    strategy,
                    exec,
                    journal,
                    fleet,
                    leg,
                    p,
                })
            };
            for journal in [
                JournalLeg::None,
                JournalLeg::Fresh,
                JournalLeg::CutAndResume,
                JournalLeg::ResumeWithout,
            ] {
                for &leg in &crossed {
                    // The fleet is two subprocess workers, at p = 2 only.
                    for (fleet, p) in [(false, 0), (false, 1), (false, 4), (true, 2)] {
                        push(journal, fleet, leg, p);
                    }
                }
            }
            push(JournalLeg::None, false, Leg::None, MAX_PROCESSORS + 1);
            push(JournalLeg::None, false, Leg::BudgetLadder, 4);
            for &leg in &journaled {
                push(JournalLeg::Fresh, false, leg, 4);
            }
            push(JournalLeg::Fresh, false, Leg::SlowFsync, 4);
            push(JournalLeg::Fresh, true, Leg::SlowFsync, 2);
            push(JournalLeg::None, false, Leg::SlowFsync, 4);
            for leg in seeded(Leg::SeededDispatch) {
                push(JournalLeg::None, true, leg, 2);
            }
        }
    }
    out
}

#[test]
fn validate_and_execute_agree_on_every_tuple() {
    // Two decks at a time: a hung worker is a wait, not work.
    let next = AtomicUsize::new(0);
    let sweep = || {
        let mut tally = Tally::default();
        while let Some(name) = DECKS.get(next.fetch_add(1, Ordering::Relaxed)) {
            let deck = Deck::named(name);
            let before = (tally.get("legal"), tally.get("illegal"));
            for t in tuples() {
                check(&deck, &t, &mut tally);
            }
            let legal = tally.get("legal") - before.0;
            let illegal = tally.get("illegal") - before.1;
            println!("plan matrix: {name}: {legal} legal, {illegal} illegal");
            assert!(legal > 0 && illegal > 0, "{name}");
        }
        tally.counts
    };
    let (mut counts, other) = std::thread::scope(|s| {
        let other = s.spawn(sweep);
        (sweep(), other.join().expect("the other half of the decks"))
    });
    for (what, n) in other {
        *counts.entry(what).or_default() += n;
    }
    // No deck above has a counter: a counter loop is refused whatever
    // the plan, so it takes a row of its own.
    let extend = ExtendLoop::new(ExtendInput::sparse());
    for strategy in common::strategies(&STRATEGIES) {
        let mut runner = Runner::new(RunConfig::new(4).with_strategy(strategy));
        let got = runner.execute(&extend, RunPlan::default()).err();
        assert_eq!(got, Some(RlrpdError::Plan(PlanError::CounterLoop)));
        *counts.entry("CounterLoop".into()).or_default() += 1;
    }
    println!("plan matrix: tuples, refusals, and runs in which a site fired: {counts:?}");
    // A `PlanError` variant no tuple produced, or a leg whose site never
    // fires, tests nothing. (A new variant does not compile until it is
    // listed.)
    use PlanError::*;
    let refusals = match NoProcessors {
        NoProcessors
        | TooManyProcessors
        | ResumeWithoutJournal
        | FleetWithIterationFaults
        | RecordFaultsWithoutJournal
        | CounterLoop => [
            NoProcessors,
            TooManyProcessors,
            ResumeWithoutJournal,
            FleetWithIterationFaults,
            RecordFaultsWithoutJournal,
            CounterLoop,
        ],
    };
    let kinds = "panic shadow-pressure budget short-write fsync-fail corrupt slow-fsync \
                 kill-worker hang-worker corrupt-result";
    let refusals = refusals.map(|e| format!("{e:?}"));
    for what in refusals
        .iter()
        .map(String::as_str)
        .chain(kinds.split_whitespace())
    {
        assert!(counts.contains_key(what), "no {what} in {counts:?}");
    }
}
