//! What the workload-model suites share: the strategy table, the seeds
//! of the seeded sweeps, the subprocess fleet — and the **plan matrix**,
//! the one loop every suite runs a slice of.
//!
//! A [`Tuple`] is strategy × executor × journal × fleet × fault leg ×
//! `p` over a [`Deck`]; [`check`] puts it to `RunPlan::validate` and to
//! `Runner::execute`, which must agree either way:
//!
//! * `Ok` ⇒ the run executes and verifies against sequential execution,
//!   and the one assertion specific to its [`Leg`] holds;
//! * `Err(e)` ⇒ `execute` returns exactly `RlrpdError::Plan(e)` having
//!   asked the connector for nothing and written the journal nothing.
//!
//! `tests/plan_matrix.rs` sweeps every deck × every leg; each named test
//! of `tests/{fault,journal,dist,budget}_models.rs` is a [`slice`].
//!
//! **Decks** ([`DECKS`]). Three loop-language sources, which a fleet
//! resolves from an `rlp:` spec: `chain` (a proven distance-4 chain),
//! `spice` (the May-dependence SPICE deck) and `track` (TRACK with its
//! energy reduction). Three registry models ([`MODELS`]), which
//! `dist::resolve_spec` names on both sides of a fleet: `fptrak:0`,
//! `dcdcmp15:17`, `nlfilt:i4_50`.
#![allow(dead_code)] // every suite uses a different part

use rlrpd::core::remote::{BlockDispatcher, DistConnector, WireHello};
use rlrpd::core::{reduction_mask, verify_against_sequential, AdaptRule, FaultDomain, PlanError};
use rlrpd::dist::{resolve_spec, DistLauncher, DistPolicy};
use rlrpd::loops::dsl;
use rlrpd::{
    run_sequential, ExecMode, FallbackReason, FaultPlan, Journal, RlrpdError, RunConfig, RunPlan,
    RunResult, Runner, SpecLoop, Strategy, WindowConfig,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every strategy the model suites run, under the name `rlrpd run
/// --strategy` spells it (`adaptive-eq4`, the model rule, has no CLI
/// spelling).
pub const STRATEGIES: [&str; 6] = ["nrd", "rd", "adaptive-eq4", "adaptive", "sw:7", "sw:64"];

/// The named rows of the strategy table, in the order asked for.
pub fn strategies(names: &[&str]) -> Vec<Strategy> {
    let sw = |w| Strategy::SlidingWindow(WindowConfig::fixed(w));
    let named = |name: &&str| match *name {
        "nrd" => Strategy::Nrd,
        "rd" => Strategy::Rd,
        "adaptive-eq4" => Strategy::AdaptiveRd(AdaptRule::ModelEq4),
        "adaptive" => Strategy::AdaptiveRd(AdaptRule::Measured),
        "sw:2" => sw(2),
        "sw:7" => sw(7),
        "sw:64" => sw(64),
        _ => panic!("no strategy named '{name}'"),
    };
    names.iter().map(named).collect()
}

/// Seeds for the seeded sweeps; the CI fault matrix pins one seed per
/// job through `RLRPD_FAULT_SEED`.
pub fn seeds() -> Vec<u64> {
    match std::env::var("RLRPD_FAULT_SEED") {
        Ok(v) => vec![v
            .parse()
            .expect("RLRPD_FAULT_SEED must be an unsigned integer")],
        Err(_) => vec![3, 17, 2002],
    }
}

/// One `leg` per seed.
pub fn seeded(leg: fn(u64) -> Leg) -> Vec<Leg> {
    seeds().into_iter().map(leg).collect()
}

/// A fleet of two real `rlrpd worker` subprocesses, tolerant enough of
/// injected worker faults (`fault`) to recover rather than degrade.
pub fn launcher(fault: Option<FaultPlan>) -> DistLauncher {
    let policy = DistPolicy {
        workers: 2,
        block_deadline: Duration::from_millis(800),
        max_respawns: 8,
        backoff: Duration::from_millis(10),
        ..DistPolicy::default()
    };
    let program = PathBuf::from(env!("CARGO_BIN_EXE_rlrpd"));
    let mut l = DistLauncher::new(program, vec!["worker".into()]).with_policy(policy);
    l.fault = fault.map(Arc::new);
    l
}

/// One worker fault derived from a seed, with its name in [`Tally`]: the kind rotates with `salt`, the dispatch ordinal
/// scatters with the seed over the first two stages of a run on `p`
/// processors.
pub fn dispatch_fault(seed: u64, salt: usize, p: usize) -> (&'static str, FaultPlan) {
    let ordinal = (seed as usize).wrapping_mul(31).wrapping_add(salt) % (2 * p);
    match (seed as usize + salt) % 3 {
        0 => ("kill-worker", FaultPlan::new().kill_worker_at(ordinal)),
        1 => ("hang-worker", FaultPlan::new().hang_worker_at(ordinal)),
        _ => (
            "corrupt-result",
            FaultPlan::new().corrupt_result_at(ordinal),
        ),
    }
}

/// The registry models, and with them every deck the matrix runs.
pub const MODELS: [&str; 3] = ["fptrak:0", "dcdcmp15:17", "nlfilt:i4_50"];
pub const DECKS: [&str; 6] = ["chain", "spice", "track", MODELS[0], MODELS[1], MODELS[2]];

/// A loop — what [`resolve_spec`] makes of `spec` on the supervisor's
/// side of a fleet as on a worker's — and what sequential execution
/// makes of it.
pub struct Deck {
    pub name: &'static str,
    pub spec: String,
    pub lp: Box<dyn SpecLoop<f64>>,
    pub seq: Vec<(&'static str, Vec<f64>)>,
    reductions: Vec<bool>,
}

impl Deck {
    pub fn named(name: &'static str) -> Deck {
        let spec = match name {
            "chain" => "rlp:array A[260] = 1;\ncost 12;\n\
                        for i in 4..260 { A[i] = A[i - 4] * 0.996 + A[i] * 0.125 + i; }\n"
                .to_string(),
            "spice" => format!("rlp:{}", dsl::spice_dsl(96)),
            "track" => format!("rlp:{}", dsl::track_dsl(128)),
            registered => registered.to_string(),
        };
        let lp = resolve_spec(&spec).expect(name);
        let reductions = reduction_mask(lp.as_ref());
        // The registry models are verified to the bit, as they always were.
        assert!(spec.starts_with("rlp:") || !reductions.contains(&true));
        Deck {
            name,
            seq: run_sequential(lp.as_ref()).0,
            reductions,
            spec,
            lp,
        }
    }

    /// One run of the deck under `cfg` over the fleet of `connector`.
    pub fn run_over(&self, cfg: RunConfig, connector: &mut DistLauncher) -> RunResult<f64> {
        let plan = RunPlan {
            fleet: Some((self.spec.as_str(), connector)),
            ..Default::default()
        };
        let ran = Runner::new(cfg).execute(self.lp.as_ref(), plan);
        ran.unwrap_or_else(|e| panic!("{}: {cfg:?}: over the fleet: {e}", self.name))
    }

    /// Final arrays equal sequential execution's — to the bit, but for
    /// what a declared reduction's partial sums reassociate.
    pub fn verify(&self, got: &[(&'static str, Vec<f64>)], what: &str) {
        verify_against_sequential(&self.seq, got, &self.reductions)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JournalLeg {
    None,
    Fresh,
    /// A fresh journaled run, its file cut after commit record 1, resumed.
    CutAndResume,
    /// `resume` with no journal attached — never legal; here so that the
    /// matrix produces that refusal too.
    ResumeWithout,
}

/// The fault axis: how a tuple's run is disturbed, and the one
/// assertion that is specific to the disturbance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Leg {
    None,
    /// One panic at a seeded iteration: `contained_faults == 1`. (A
    /// fleet's workers run no plan, so over a fleet the plan is refused.)
    SeededPanic(u64),
    /// A phantom gigabyte of shadow growth at stage 0 under a 1 MiB cap:
    /// the pressure is recorded.
    Pressure,
    /// Arming an unlimited budget changes nothing observable; then the
    /// peak × 2, ÷ 2, ÷ 8 and 64 B: every rung verifies, and somewhere
    /// on the ladder governance engaged.
    BudgetLadder,
    /// The journaled run is torn at every commit record in turn, and
    /// resumed.
    KillAtEveryCommit,
    /// A short write, an fsync failure and a silent corruption at a
    /// seeded record: the first two abort the run, which resumes; the
    /// third is found and truncated by the next open.
    SeededIo(u64),
    /// The device stalls [`STALL`] before the sync of the first commit
    /// record, so the stage loop runs ahead of the durable frontier: the
    /// run takes at least that long, and ends with the journal file a
    /// fault-free run of the same tuple writes, to the byte. (Without a
    /// journal the plan arms a site no run visits, and is refused.)
    SlowFsync,
    /// [`dispatch_fault`] over the fleet: it recovers, `fallback == None`.
    SeededDispatch(u64),
}

/// How long [`Leg::SlowFsync`] stalls the journal's writer.
pub const STALL: Duration = Duration::from_millis(25);

#[derive(Clone, Copy, Debug)]
pub struct Tuple {
    pub strategy: Strategy,
    pub exec: ExecMode,
    pub journal: JournalLeg,
    pub fleet: bool,
    pub leg: Leg,
    pub p: usize,
}

/// What a sweep saw, counted by name: the `legal` and `illegal` tuples,
/// the refusals each `PlanError` variant gave, and — under the fault
/// kind's name — the runs in which a leg's site actually fired.
#[derive(Debug, Default)]
pub struct Tally {
    pub counts: BTreeMap<String, usize>,
    /// `wire_bytes` of the first fault-free fleet run per deck and
    /// strategy.
    wire: BTreeMap<String, u64>,
}

impl Tally {
    fn count(&mut self, what: &str) {
        *self.counts.entry(what.into()).or_default() += 1;
    }

    pub fn get(&self, what: &str) -> usize {
        self.counts.get(what).copied().unwrap_or(0)
    }
}

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

/// Byte offsets just past each frame of a journal file (frame layout:
/// `u32 len | record`; frame 0 is the header).
fn frame_ends(path: &Path) -> Vec<usize> {
    let bytes = std::fs::read(path).unwrap();
    let (mut pos, mut ends) = (0usize, Vec::new());
    while pos + 4 <= bytes.len() {
        pos += 4 + u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        assert!(pos <= bytes.len(), "frame overruns the file");
        ends.push(pos);
    }
    ends
}

/// One `execute` of tuple `t` under `budget` and `fault` (a fresh plan
/// per run: sites are one-shot; a plan that arms dispatch sites goes to
/// the fleet, any other to the runner), over the journal at `path` —
/// created, or to `resume` re-opened — if `t.journal` asks for one.
/// Holds `execute` to `validate`: `Err` is the refusal both gave, with
/// nothing connected and nothing written; `Ok` is the outcome of a
/// legal plan.
fn run_once(
    deck: &Deck,
    t: &Tuple,
    budget: Option<u64>,
    fault: Option<FaultPlan>,
    path: &Path,
    resume: bool,
) -> Result<Result<RunResult<f64>, RlrpdError>, PlanError> {
    let what = format!("{}: {t:?}", deck.name);
    let cfg = RunConfig::new(t.p)
        .with_strategy(t.strategy)
        .with_exec(t.exec)
        .with_shadow_budget(budget);
    let (to_fleet, to_runner) = match fault {
        Some(f) if f.arms(FaultDomain::Dispatch) => (Some(f), None),
        f => (None, f.map(Arc::new)),
    };
    let mut fleet = Counted {
        inner: launcher(to_fleet),
        connects: 0,
    };
    let mut runner = Runner::new(cfg);
    if let Some(plan) = &to_runner {
        runner = runner.with_fault(Arc::clone(plan));
    }
    let mut journal = match t.journal {
        JournalLeg::None | JournalLeg::ResumeWithout => None,
        _ if resume => Some(Journal::open(path).unwrap()),
        _ => Some(Journal::create(path).unwrap()),
    };
    let file_len = || std::fs::metadata(path).map_or(0, |m| m.len());
    let before = file_len();
    let plan = RunPlan {
        journal: journal.as_mut(),
        fleet: t
            .fleet
            .then_some((deck.spec.as_str(), &mut fleet as &mut dyn DistConnector)),
        resume: resume || t.journal == JournalLeg::ResumeWithout,
    };
    let verdict = plan.validate(&cfg, to_runner.as_deref());
    let outcome = runner.execute(deck.lp.as_ref(), plan);
    drop(journal);
    match verdict {
        Ok(()) => {
            assert!(!matches!(outcome, Err(RlrpdError::Plan(_))), "{what}");
            // (A journal that already holds the whole run resumes
            // without a fleet.)
            assert!(resume || fleet.connects == t.fleet as usize, "{what}");
            Ok(outcome)
        }
        Err(e) => {
            assert_eq!(outcome.err(), Some(RlrpdError::Plan(e)), "{what}");
            assert_eq!(fleet.connects, 0, "{what}: a refused plan connected");
            assert_eq!(file_len(), before, "{what}: a refused plan wrote");
            Err(e)
        }
    }
}

/// Put tuple `t` of `deck` to `validate` and to `execute` (see the
/// module docs) and tally what happened.
pub fn check(deck: &Deck, t: &Tuple, tally: &mut Tally) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let what = format!("{}: {t:?}", deck.name);
    let path = std::env::temp_dir().join(format!(
        "rlrpd-matrix-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let table = strategies(&STRATEGIES);
    let dispatch = |seed| {
        let salt = table.iter().position(|s| *s == t.strategy);
        dispatch_fault(seed, salt.unwrap_or(table.len()), t.p)
    };
    // The tuple's own run: disturbed — or, for the legs that disturb a
    // run again and again, the undisturbed run they are measured by.
    let (budget, fault) = match t.leg {
        Leg::SeededPanic(seed) => {
            let n = deck.lp.num_iters();
            (None, Some(FaultPlan::seeded_panic(seed, n)))
        }
        Leg::Pressure => (
            Some(1 << 20),
            Some(FaultPlan::new().shadow_pressure_at(0, 1 << 30)),
        ),
        Leg::SlowFsync => {
            let stall = FaultPlan::new().slow_fsync_at(1, STALL.as_millis() as u64);
            (None, Some(stall))
        }
        Leg::SeededDispatch(seed) => (None, Some(dispatch(seed).1)),
        _ => (None, None),
    };
    let began = Instant::now();
    let res = match run_once(deck, t, budget, fault, &path, false) {
        Ok(outcome) => outcome.unwrap_or_else(|e| panic!("{what}: legal, yet: {e}")),
        Err(e) => {
            std::fs::remove_file(&path).ok();
            tally.count("illegal");
            return tally.count(&format!("{e:?}"));
        }
    };
    let took = began.elapsed();
    tally.count("legal");
    deck.verify(&res.arrays, &what);
    // The same (legal) tuple again, disturbed otherwise.
    let rerun = |budget, fault, resume| {
        run_once(deck, t, budget, fault, &path, resume).expect("the tuple is legal")
    };
    // Re-open the journal a cut, failed or silently corrupted run left,
    // resume it and verify; also returns the bytes the open discarded.
    let resume = |why: &str| {
        let torn = Journal::open(&path).unwrap().truncated_bytes();
        let resumed =
            rerun(None, None, true).unwrap_or_else(|e| panic!("{what}: {why}: resume: {e}"));
        deck.verify(&resumed.arrays, &format!("{what}: {why}: resumed"));
        (torn, resumed)
    };

    if t.journal == JournalLeg::Fresh || t.journal == JournalLeg::CutAndResume {
        let reopened = Journal::open(&path).unwrap_or_else(|e| panic!("{what}: reopen: {e}"));
        assert_eq!(reopened.truncated_bytes(), 0, "{what}: torn journal");
        assert!(reopened.header().is_some(), "{what}: headerless journal");
    }
    if t.journal == JournalLeg::CutAndResume {
        let file = std::fs::read(&path).unwrap();
        std::fs::write(&path, &file[..frame_ends(&path)[1]]).unwrap();
        let (_, resumed) = resume("cut after record 1");
        assert!(resumed.report.resumed_at.is_some(), "{what}");
        // Where the uncut run ended, too.
        verify_against_sequential(&res.arrays, &resumed.arrays, &deck.reductions)
            .unwrap_or_else(|e| panic!("{what}: resumed run differs: {e}"));
    }

    let report = &res.report;
    match t.leg {
        Leg::None if t.fleet => {
            // A fault-free fleet does not degrade, and its wire traffic
            // is a function of the run: every repeat of it (either
            // executor, journaled or not) moves the same bytes.
            assert_eq!(report.fallback, None, "{what}");
            assert_eq!(report.respawns(), 0, "{what}: nothing was injected");
            let bytes = report.wire_bytes();
            let first = *tally
                .wire
                .entry(format!("{} {:?}", deck.name, t.strategy))
                .or_insert(bytes);
            assert!(first > 0, "{what}: no wire traffic");
            assert_eq!(bytes, first, "{what}: wire bytes vary between repeats");
        }
        Leg::None => {}
        Leg::SeededPanic(_) => {
            assert_eq!(report.contained_faults(), 1, "{what}: fault not recorded");
            tally.count("panic");
        }
        Leg::Pressure => {
            let fell_back = report.fallback == Some(FallbackReason::ShadowBudget);
            let recorded = report.shadow_pressure_events() >= 1 || fell_back;
            assert!(recorded, "{what}: pressure not recorded");
            tally.count("shadow-pressure");
        }
        Leg::SlowFsync => {
            assert!(took >= STALL, "{what}: the stall never happened");
            tally.count("slow-fsync");
            let stalled = std::fs::read(&path).unwrap();
            let free = rerun(None, None, false).unwrap_or_else(|e| panic!("{what}: {e}"));
            deck.verify(&free.arrays, &format!("{what}: fault-free"));
            let same = stalled == std::fs::read(&path).unwrap();
            assert!(same, "{what}: the stalled run's journal differs");
        }
        Leg::SeededDispatch(seed) => {
            assert_eq!(report.fallback, None, "{what}: the fleet must recover");
            if report.respawns() >= 1 {
                tally.count(dispatch(seed).0);
            }
        }
        Leg::BudgetLadder => {
            let run = |budget: u64| {
                let res = rerun(Some(budget), None, false).unwrap_or_else(|e| {
                    panic!("{what}: budget {budget}: must degrade, not fail: {e}")
                });
                deck.verify(&res.arrays, &format!("{what}: budget {budget}"));
                assert_eq!(res.report.shadow_budget, Some(budget), "{what}: stamp");
                res
            };
            // Only pressure changes a kind, so a cap with headroom adds
            // nothing: the migration counts agree too.
            let armed = run(u64::MAX / 2);
            let ran = |r: &RunResult<f64>| (r.report.stages.len(), r.report.restarts);
            assert_eq!(armed.arrays, res.arrays, "{what}: armed");
            assert_eq!(ran(&armed), ran(&res), "{what}: armed");
            let migrations = armed.report.shadow_migrations();
            assert_eq!(migrations, report.shadow_migrations(), "{what}: armed");
            assert_eq!(armed.report.shadow_pressure_events(), 0, "{what}: armed");
            let peak = armed.report.shadow_bytes_peak();
            assert!(peak > 0, "{what}: no shadow footprint seen");
            // Generous (fits outright), tight (the ladder must shed
            // bytes), tighter, starvation (even sparse marks overflow).
            let ladder = [peak.saturating_mul(2), peak / 2, peak / 8, 64];
            let engaged = ladder.map(|b| run(b.max(1)).report).iter().any(|r| {
                r.shadow_pressure_events() > 0
                    || r.fallback == Some(FallbackReason::ShadowBudget)
                    || r.shadow_migrations() > migrations
            });
            assert!(engaged, "{what}: no budget engaged the governance");
            tally.count("budget");
        }
        Leg::KillAtEveryCommit => {
            let records = frame_ends(&path).len();
            assert!(records >= 2, "{what}: single-record run");
            for r in 1..records {
                let torn = FaultPlan::new().short_write_at(r, 3);
                let crashed = rerun(None, Some(torn), false);
                assert!(crashed.is_err(), "{what}: survived tearing record {r}");
                tally.count("short-write");
                resume(&format!("crash at record {r}"));
            }
        }
        Leg::SeededIo(seed) => {
            let target = 1 + (seed as usize) % (frame_ends(&path).len() - 1);
            let keep = (seed as usize) % 11;
            let plans = [
                ("short-write", FaultPlan::new().short_write_at(target, keep)),
                ("fsync-fail", FaultPlan::new().fsync_fail_at(target)),
                ("corrupt", FaultPlan::new().corrupt_record_at(target)),
            ];
            for (kind, plan) in plans {
                let why = format!("{kind} at record {target}");
                // A write or fsync failure is a crash: reopen, resume.
                // A silent corruption lets the run complete; the next
                // open finds the record and truncates it.
                let outcome = rerun(None, Some(plan), false);
                match &outcome {
                    Ok(done) => deck.verify(&done.arrays, &format!("{what}: {why}")),
                    Err(RlrpdError::Journal { .. }) => {}
                    Err(e) => panic!("{what}: {why}: {e}"),
                }
                let (torn, _) = resume(&why);
                assert_eq!(outcome.is_ok(), kind == "corrupt", "{what}: {why}");
                assert!(kind != "corrupt" || torn > 0, "{what}: {why}: not found");
                tally.count(kind);
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// One named test's slice of the matrix: each of `decks` under each of
/// `legs`, over `strategies` × `ps`, in process on the simulated
/// executor — or, for the dispatch legs, over the two-worker fleet. The
/// journal legs run journaled. Every tuple of a slice is legal.
pub fn slice(decks: &[&'static str], legs: &[Leg], strategies: &[&str], ps: &[usize]) -> Tally {
    let mut tally = Tally::default();
    for deck in decks.iter().map(|name| Deck::named(name)) {
        for &leg in legs {
            let fleet = matches!(leg, Leg::SeededDispatch(_));
            let journaled = matches!(
                leg,
                Leg::KillAtEveryCommit | Leg::SeededIo(_) | Leg::SlowFsync
            );
            for strategy in self::strategies(strategies) {
                for &p in ps {
                    let t = Tuple {
                        strategy,
                        exec: [ExecMode::Simulated, ExecMode::Pooled][fleet as usize],
                        journal: [JournalLeg::None, JournalLeg::Fresh][journaled as usize],
                        fleet,
                        leg,
                        p,
                    };
                    check(&deck, &t, &mut tally);
                }
            }
        }
    }
    assert_eq!(tally.get("illegal"), 0, "{decks:?}: a slice is legal");
    tally
}

/// FNV-1a: the checksum a record of envelope version 1 carries.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// `record` as a binary from before envelope version 2 sealed it:
/// version 1, an FNV-1a checksum — and, for a chained record (a journal
/// header or commit), `prev` in its chain field. Returns the record and
/// its version-1 chain value, FNV-1a of all of its bytes.
pub fn as_v1(record: &[u8], prev: Option<u64>) -> (Vec<u8>, u64) {
    let mut old = record.to_vec();
    old[4..8].copy_from_slice(&1u32.to_le_bytes());
    if let Some(prev) = prev {
        old[9..17].copy_from_slice(&prev.to_le_bytes());
    }
    let body = old.len() - 8;
    let sum = fnv1a(&old[..body]);
    old[body..].copy_from_slice(&sum.to_le_bytes());
    let chain = fnv1a(&old);
    (old, chain)
}

/// A journal file resealed record by record as version 1, each record
/// chained onto its predecessor's version-1 chain value (the header onto
/// the seed it already carries).
pub fn journal_as_v1(file: &[u8]) -> Vec<u8> {
    use rlrpd::core::remote::{frames, push_frame};
    let mut out = Vec::new();
    let mut chain = None;
    for (record, _) in frames(file) {
        let prev = chain.unwrap_or_else(|| u64::from_le_bytes(record[9..17].try_into().unwrap()));
        let (old, next) = as_v1(record, Some(prev));
        push_frame(&mut out, &old);
        chain = Some(next);
    }
    out
}
