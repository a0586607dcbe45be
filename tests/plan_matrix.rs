//! The legal set, generated rather than hand-enumerated: every tuple of
//! strategy × executor × journal × fleet × fault × p over three small
//! decks is put to `RunPlan::validate`, and then to `Runner::execute`,
//! which must agree with it either way —
//!
//! * `Ok` ⇒ the run executes and verifies against sequential execution
//!   (a journal re-opens clean; a run cut after its first commit record
//!   and resumed ends where the uncut run did);
//! * `Err(e)` ⇒ `execute` returns exactly `RlrpdError::Plan(e)` having
//!   asked the connector for nothing and written the journal nothing.
//!
//! The decks are the loop-language counterparts of three of
//! `strategy_matrix`'s pinned nine, written as source so a worker fleet
//! can resolve them: a proven-distance chain (the β deck; the only one
//! with a DOACROSS row), the May-dependence SPICE deck, and the TRACK
//! deck with its energy reduction.

mod common;

use rlrpd::core::remote::{BlockDispatcher, DistConnector, WireHello};
use rlrpd::core::{reduction_mask, verify_against_sequential, DoacrossConfig, PlanError};
use rlrpd::dist::DistLauncher;
use rlrpd::lang::CompiledProgram;
use rlrpd::loops::dsl;
use rlrpd::{
    run_sequential, ExecMode, FaultPlan, Journal, RlrpdError, RunConfig, RunPlan, RunResult,
    Runner, SpecLoop, Strategy,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The launcher, counting what `execute` asks of it.
struct Counted {
    inner: DistLauncher,
    connects: usize,
}

impl DistConnector for Counted {
    fn connect(&mut self, hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
        self.connects += 1;
        self.inner.connect(hello)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum JournalLeg {
    None,
    Fresh,
    /// A fresh journaled run, its file cut after commit record 1, resumed.
    CutAndResume,
    /// `resume` with no journal attached — never legal; here so that the
    /// matrix produces that refusal too.
    ResumeWithout,
}

#[derive(Clone, Copy, Debug)]
enum FaultLeg {
    None,
    SeededPanic(u64),
    /// A phantom gigabyte of shadow growth at stage 0 under a 1 MiB cap.
    Pressure,
}

#[derive(Clone, Copy, Debug)]
struct Tuple {
    strategy: Strategy,
    exec: ExecMode,
    journal: JournalLeg,
    fleet: bool,
    fault: FaultLeg,
    p: usize,
}

impl Tuple {
    fn cfg(&self) -> RunConfig {
        let cap = matches!(self.fault, FaultLeg::Pressure).then_some(1 << 20);
        RunConfig::new(self.p)
            .with_strategy(self.strategy)
            .with_exec(self.exec)
            .with_shadow_budget(cap)
    }

    /// A fresh plan per run: fault sites are one-shot.
    fn fault(&self, n: usize) -> Option<Arc<FaultPlan>> {
        match self.fault {
            FaultLeg::None => None,
            FaultLeg::SeededPanic(seed) => Some(FaultPlan::seeded_panic(seed, n)),
            FaultLeg::Pressure => Some(FaultPlan::new().shadow_pressure_at(0, 1 << 30)),
        }
        .map(Arc::new)
    }
}

fn tuples(proven: Option<DoacrossConfig>) -> Vec<Tuple> {
    let mut strategies = common::strategies(&["nrd", "rd", "adaptive", "sw:7"]);
    strategies.extend(proven.map(Strategy::Doacross));
    let mut faults = vec![FaultLeg::None, FaultLeg::Pressure];
    faults.extend(common::seeds().into_iter().map(FaultLeg::SeededPanic));
    let mut out = Vec::new();
    for &strategy in &strategies {
        for exec in [ExecMode::Simulated, ExecMode::Pooled] {
            for journal in [
                JournalLeg::None,
                JournalLeg::Fresh,
                JournalLeg::CutAndResume,
                JournalLeg::ResumeWithout,
            ] {
                for &fault in &faults {
                    // The fleet is two subprocess workers, at p = 2 only.
                    for (fleet, p) in [(false, 0), (false, 1), (false, 4), (true, 2)] {
                        out.push(Tuple {
                            strategy,
                            exec,
                            journal,
                            fleet,
                            fault,
                            p,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Byte offset just past frame `k` of a journal file (frame layout:
/// `u32 len | record`; frame 0 is the header).
fn end_of_frame(bytes: &[u8], k: usize) -> usize {
    let mut pos = 0usize;
    for _ in 0..=k {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4 + len;
    }
    pos
}

struct Deck {
    name: &'static str,
    /// What a worker resolves to the same loop.
    spec: String,
    prog: CompiledProgram,
    proven: Option<DoacrossConfig>,
}

impl Deck {
    fn new(name: &'static str, src: String) -> Deck {
        let prog = CompiledProgram::compile(&src).expect(name);
        Deck {
            name,
            proven: prog.doacross_config(0),
            spec: format!("rlp:{src}"),
            prog,
        }
    }
}

/// One `execute` of tuple `t` over `lp`, attached as `t` says; returns
/// what `validate` said of the same plan, the outcome, and the connects
/// the launcher saw.
fn execute(
    deck: &Deck,
    lp: &dyn SpecLoop,
    t: &Tuple,
    journal: Option<&mut Journal>,
    resume: bool,
) -> (
    Result<(), PlanError>,
    Result<RunResult<f64>, RlrpdError>,
    usize,
) {
    let mut fleet = Counted {
        inner: common::launcher(None),
        connects: 0,
    };
    let mut runner = Runner::new(t.cfg());
    let fault = t.fault(lp.num_iters());
    if let Some(plan) = &fault {
        runner = runner.with_fault(Arc::clone(plan));
    }
    let plan = RunPlan {
        journal,
        fleet: t
            .fleet
            .then_some((deck.spec.as_str(), &mut fleet as &mut dyn DistConnector)),
        resume,
    };
    let verdict = plan.validate(&t.cfg(), fault.as_deref());
    let outcome = runner.execute(lp, plan);
    (verdict, outcome, fleet.connects)
}

fn journal_path(deck: &Deck, k: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "rlrpd-plan-matrix-{}-{k}-{}",
        deck.name,
        std::process::id()
    ))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Which slot of the "every refusal was produced" tally `e` fills; a
/// new variant does not compile until it is given one.
fn slot(e: PlanError) -> usize {
    match e {
        PlanError::NoProcessors => 0,
        PlanError::ResumeWithoutJournal => 1,
        PlanError::DoacrossOverFleet => 2,
        PlanError::DoacrossWithFaults => 3,
    }
}

/// Put every tuple of `deck` to `validate` and to `execute`; returns
/// `(legal, illegal)` and tallies the refusals into `refused`.
fn sweep(deck: &Deck, refused: &mut [usize; 4]) -> (usize, usize) {
    let (mut legal, mut illegal) = (0, 0);
    for (k, t) in tuples(deck.proven).iter().enumerate() {
        let what = format!("{}: {t:?}", deck.name);
        // The proof licenses the plain zero-shadow view; every other
        // strategy runs the tested one.
        let init = deck.prog.initial_arrays();
        let lp = match t.strategy {
            Strategy::Doacross(_) => deck.prog.loop_view_plain(0, init),
            _ => deck.prog.loop_view(0, init),
        };
        let path = journal_path(deck, k);
        let mut journal = match t.journal {
            JournalLeg::None | JournalLeg::ResumeWithout => None,
            _ => Some(Journal::create(&path).unwrap()),
        };
        let before = file_len(&path);
        // An illegal resume is refused over the journal as it stands;
        // a legal one first needs the run it resumes (below).
        let resume = t.journal == JournalLeg::ResumeWithout;
        let (verdict, outcome, connects) = execute(deck, &lp, t, journal.as_mut(), resume);
        drop(journal);

        if let Err(e) = verdict {
            assert_eq!(outcome.err(), Some(RlrpdError::Plan(e)), "{what}");
            assert_eq!(connects, 0, "{what}: a refused plan asked for a fleet");
            assert_eq!(file_len(&path), before, "{what}: a refused plan wrote");
            refused[slot(e)] += 1;
            illegal += 1;
            std::fs::remove_file(&path).ok();
            continue;
        }
        legal += 1;
        let res = outcome.unwrap_or_else(|e| panic!("{what}: legal, yet: {e}"));
        let (seq, _) = run_sequential(&lp);
        let mask = reduction_mask(&lp);
        verify_against_sequential(&seq, &res.arrays, &mask)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(connects, t.fleet as usize, "{what}");
        if t.journal == JournalLeg::None {
            continue;
        }

        let reopened = Journal::open(&path).unwrap_or_else(|e| panic!("{what}: reopen: {e}"));
        assert_eq!(reopened.truncated_bytes(), 0, "{what}: torn journal");
        assert!(reopened.header().is_some(), "{what}: headerless journal");
        drop(reopened);
        if t.journal == JournalLeg::CutAndResume {
            let file = std::fs::read(&path).unwrap();
            std::fs::write(&path, &file[..end_of_frame(&file, 1)]).unwrap();
            let mut journal = Journal::open(&path).unwrap();
            let (verdict, outcome, _) = execute(deck, &lp, t, Some(&mut journal), true);
            assert_eq!(verdict, Ok(()), "{what}: resume");
            let resumed = outcome.unwrap_or_else(|e| panic!("{what}: resume: {e}"));
            assert!(resumed.report.resumed_at.is_some(), "{what}");
            // Where the uncut run ended — to the bit, but for what a
            // reduction's partial sums reassociate.
            verify_against_sequential(&res.arrays, &resumed.arrays, &mask)
                .unwrap_or_else(|e| panic!("{what}: resumed run differs: {e}"));
            verify_against_sequential(&seq, &resumed.arrays, &mask)
                .unwrap_or_else(|e| panic!("{what}: resumed: {e}"));
        }
        std::fs::remove_file(&path).ok();
    }
    (legal, illegal)
}

#[test]
fn validate_and_execute_agree_on_every_tuple() {
    let decks = [
        Deck::new(
            "chain",
            "array A[260] = 1;\ncost 12;\n\
             for i in 4..260 { A[i] = A[i - 4] * 0.996 + A[i] * 0.125 + i; }\n"
                .into(),
        ),
        Deck::new("spice", dsl::spice_dsl(96)),
        Deck::new("track", dsl::track_dsl(128)),
    ];
    assert!(decks[0].proven.is_some(), "the chain's distance is proven");
    assert!(decks[1].proven.is_none() && decks[2].proven.is_none());

    let mut refused = [0usize; 4];
    for deck in &decks {
        let (legal, illegal) = sweep(deck, &mut refused);
        println!(
            "plan matrix: {}: {legal} legal, {illegal} illegal",
            deck.name
        );
        assert!(legal > 0 && illegal > 0, "{}", deck.name);
    }
    println!(
        "plan matrix: refusals [no processors, resume without journal, \
         DOACROSS over fleet, DOACROSS with faults] = {refused:?}"
    );
    assert!(
        refused.iter().all(|&n| n > 0),
        "a PlanError variant no tuple produced: {refused:?}"
    );
}
