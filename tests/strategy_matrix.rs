//! The full configuration matrix on one partially parallel loop:
//! every strategy × balance policy × checkpoint policy × shadow kind ×
//! executor must produce the sequential result. This is the "no bad
//! interaction" net over knobs that other tests exercise separately.

use rlrpd::core::AdaptRule;
use rlrpd::{
    run_sequential, run_speculative, ArrayDecl, ArrayId, BalancePolicy, CheckpointPolicy,
    ClosureLoop, ExecMode, RunConfig, ShadowKind, Strategy, WindowConfig,
};

const A: ArrayId = ArrayId(0);
const B: ArrayId = ArrayId(1);

fn workload(kind: ShadowKind) -> ClosureLoop {
    ClosureLoop::new(
        240,
        move || {
            vec![
                ArrayDecl::tested("A", vec![1.0; 240], kind),
                ArrayDecl::untested("B", vec![0.0; 240]),
            ]
        },
        |i, ctx| {
            let v = if i % 29 == 0 && i >= 11 {
                ctx.read(A, i - 11)
            } else {
                i as f64
            };
            ctx.write(A, i, v * 0.5 + 1.0);
            let old = ctx.read(B, i);
            ctx.write(B, i, old + v);
        },
    )
    .with_cost(|i| 1.0 + (i % 5) as f64)
}

#[test]
fn every_configuration_combination_is_correct() {
    let strategies = [
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::AdaptiveRd(AdaptRule::ModelEq4),
        Strategy::AdaptiveRd(AdaptRule::Measured),
        Strategy::SlidingWindow(WindowConfig::fixed(10)),
    ];
    let balances = [
        BalancePolicy::Even,
        BalancePolicy::FeedbackGuided,
        BalancePolicy::FeedbackTrend,
    ];
    let checkpoints = [CheckpointPolicy::Eager, CheckpointPolicy::OnDemand];
    let kinds = [ShadowKind::Dense, ShadowKind::Packed, ShadowKind::Sparse];

    for kind in kinds {
        let lp = workload(kind);
        let (seq, _) = run_sequential(&lp);
        for strategy in strategies {
            for balance in balances {
                for checkpoint in checkpoints {
                    let cfg = RunConfig::new(6)
                        .with_strategy(strategy)
                        .with_balance(balance)
                        .with_checkpoint(checkpoint);
                    let res = run_speculative(&lp, cfg);
                    assert_eq!(
                        res.array("A"),
                        &seq[0].1[..],
                        "A: {kind:?}/{strategy:?}/{balance:?}/{checkpoint:?}"
                    );
                    assert_eq!(
                        res.array("B"),
                        &seq[1].1[..],
                        "B: {kind:?}/{strategy:?}/{balance:?}/{checkpoint:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn both_executors_across_the_strategy_row() {
    let lp = workload(ShadowKind::Dense);
    let (seq, _) = run_sequential(&lp);
    for strategy in [
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::SlidingWindow(WindowConfig::fixed(10)),
    ] {
        for exec in [ExecMode::Simulated, ExecMode::Pooled] {
            let res = run_speculative(
                &lp,
                RunConfig::new(6).with_strategy(strategy).with_exec(exec),
            );
            assert_eq!(res.array("A"), &seq[0].1[..], "{strategy:?}/{exec:?}");
            assert_eq!(res.array("B"), &seq[1].1[..], "{strategy:?}/{exec:?}");
        }
    }
}

#[test]
fn stage_structure_is_identical_across_shadow_kinds_and_checkpoints() {
    // Representation and checkpointing are implementation choices: the
    // speculative decisions (stages, restarts, arcs) must be invariant.
    let baseline = run_speculative(
        &workload(ShadowKind::Dense),
        RunConfig::new(6).with_strategy(Strategy::Nrd),
    );
    for kind in [ShadowKind::Packed, ShadowKind::Sparse] {
        for checkpoint in [CheckpointPolicy::Eager, CheckpointPolicy::OnDemand] {
            let res = run_speculative(
                &workload(kind),
                RunConfig::new(6)
                    .with_strategy(Strategy::Nrd)
                    .with_checkpoint(checkpoint),
            );
            assert_eq!(res.report.restarts, baseline.report.restarts, "{kind:?}");
            assert_eq!(res.arcs, baseline.arcs, "{kind:?}/{checkpoint:?}");
            assert_eq!(
                res.report.stages.len(),
                baseline.report.stages.len(),
                "{kind:?}/{checkpoint:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The pinned table.
//
// Every row below is a fingerprint of what a run *is* — its report, its
// per-stage accounting, its detected arcs and the bits of its final
// arrays — recorded in `tests/data/strategy_fingerprints.txt`. A change
// to the stage loop that is meant to keep behaviour passes this test
// with the table untouched; a change that moves a row has changed what
// some run does, and says which.
// ---------------------------------------------------------------------

mod pinned {
    use super::{workload, A, B};
    use rlrpd::core::{AdaptRule, RunResult, WindowPolicy};
    use rlrpd::loops::fptrak::FptrakInput;
    use rlrpd::loops::*;
    use rlrpd::runtime::OverheadKind;
    use rlrpd::{
        ArrayDecl, BalancePolicy, CheckpointPolicy, ClosureLoop, FallbackPolicy, FaultPlan,
        Journal, RlrpdError, RunConfig, Runner, ShadowKind, SpecLoop, Strategy, WindowConfig,
    };
    use std::fmt::Write as _;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const TABLE: &str = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/strategy_fingerprints.txt"
    );

    /// A row's fingerprint: FNV-1a of its bytes. The table's own, so
    /// that a change to the record checksum moves only the rows whose
    /// bytes hold checksums (the journal files).
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// `json` without `"key":<number>` and its comma — the wall-clock
    /// fields of a report are not behaviour, and neither is which order
    /// a validated strip replayed its references in (`lane_replays`,
    /// the last key; the replay oracle holds both orders to one state).
    fn without_key(json: &str, key: &str) -> String {
        let pat = format!("\"{key}\":");
        let Some(at) = json.find(&pat) else {
            return json.to_string();
        };
        match json[at..].find(',') {
            Some(len) => format!("{}{}", &json[..at], &json[at + len + 1..]),
            None => format!("{}}}", json[..at].trim_end_matches(',')),
        }
    }

    /// Append everything about `res` that must not move.
    fn imprint(out: &mut Vec<u8>, res: &RunResult<f64>) {
        let json = without_key(
            &without_key(&res.report.to_json(), "wall_seconds"),
            "journal_seconds",
        );
        let json = without_key(&json, "lane_replays");
        out.extend_from_slice(json.as_bytes());
        for s in &res.report.stages {
            for v in [
                s.iters_attempted as u64,
                s.iters_committed as u64,
                s.contained_faults as u64,
                s.journal_bytes,
                s.loop_time.to_bits(),
                s.total_work.to_bits(),
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for kind in OverheadKind::ALL {
                out.extend_from_slice(&s.overhead.get(kind).to_bits().to_le_bytes());
            }
        }
        out.extend_from_slice(format!("{:?}", res.arcs).as_bytes());
        for (name, data) in &res.arrays {
            out.extend_from_slice(name.as_bytes());
            for v in data {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }

    fn imprint_outcome(out: &mut Vec<u8>, res: Result<RunResult<f64>, RlrpdError>) {
        match res {
            Ok(res) => imprint(out, &res),
            Err(e) => out.extend_from_slice(format!("error: {e}").as_bytes()),
        }
    }

    fn decks() -> Vec<(&'static str, Box<dyn SpecLoop>)> {
        let fptrak = |chain_rate| {
            FptrakLoop::new(FptrakInput {
                n: 480,
                chain_rate,
                max_chain_distance: 60,
                ..FptrakInput::chained()
            })
        };
        vec![
            (
                "track",
                Box::new(rlrpd::lang::compile(&dsl::track_dsl(384)).expect("TRACK deck")),
            ),
            ("nlfilt", Box::new(NlfiltLoop::new(NlfiltInput::i4_50()))),
            ("spice", Box::new(Dcdcmp15Loop::small(17))),
            ("fma3d", Box::new(QuadLoop::new(200, 80, 3))),
            ("fptrak-clean", Box::new(fptrak(0.0))),
            ("fptrak-chained", Box::new(fptrak(0.05))),
            ("dcdcmp70", Box::new(Dcdcmp70Loop::new(500, 420))),
            ("alpha", Box::new(AlphaLoop::new(512, 0.5, 1.0))),
            ("beta", Box::new(BetaLoop::new(400, 8, 2, 1.0))),
        ]
    }

    fn strategies() -> Vec<(String, Strategy)> {
        let mut out = vec![
            ("nrd".to_string(), Strategy::Nrd),
            ("rd".to_string(), Strategy::Rd),
            (
                "adaptive-eq4".to_string(),
                Strategy::AdaptiveRd(AdaptRule::ModelEq4),
            ),
            (
                "adaptive-measured".to_string(),
                Strategy::AdaptiveRd(AdaptRule::Measured),
            ),
        ];
        let windows = [
            ("sw-fixed", 16, WindowPolicy::Fixed),
            (
                "sw-grow",
                4,
                WindowPolicy::GrowOnFailure {
                    factor: 2.0,
                    max: 64,
                },
            ),
            (
                "sw-shrink",
                48,
                WindowPolicy::ShrinkOnFailure {
                    factor: 2.0,
                    min: 3,
                },
            ),
        ];
        for (name, iters_per_proc, policy) in windows {
            for circular in [true, false] {
                out.push((
                    format!("{name}-{}", if circular { "circular" } else { "linear" }),
                    Strategy::SlidingWindow(WindowConfig {
                        iters_per_proc,
                        policy,
                        circular,
                    }),
                ));
            }
        }
        out
    }

    /// One line per deck × strategy × p; each folds both checkpoint
    /// policies, an even run, and two instantiations of one
    /// feedback-guided runner.
    fn matrix_rows(rows: &mut Vec<(String, u64)>) {
        for (deck, lp) in decks() {
            for (sname, strategy) in strategies() {
                for p in [1usize, 2, 4, 8] {
                    let mut bytes = Vec::new();
                    for checkpoint in [CheckpointPolicy::Eager, CheckpointPolicy::OnDemand] {
                        let cfg = RunConfig::new(p)
                            .with_strategy(strategy)
                            .with_checkpoint(checkpoint);
                        imprint(&mut bytes, &Runner::new(cfg).run(lp.as_ref()));
                        let mut guided =
                            Runner::new(cfg.with_balance(BalancePolicy::FeedbackGuided));
                        imprint(&mut bytes, &guided.run(lp.as_ref()));
                        imprint(&mut bytes, &guided.run(lp.as_ref()));
                    }
                    rows.push((format!("{deck}/{sname}/p{p}"), fnv(&bytes)));
                }
            }
        }
    }

    fn sw(w: usize) -> Strategy {
        Strategy::SlidingWindow(WindowConfig::fixed(w))
    }

    /// One line per branch of the stage loop that the matrix does not
    /// reach: faults, pressure, the fallback policy, the caps, a pause.
    fn branch_rows(rows: &mut Vec<(String, u64)>) {
        let mut row = |name: &str, lp: &dyn SpecLoop, cfg: RunConfig, plan: Option<FaultPlan>| {
            let mut runner = Runner::new(cfg);
            if let Some(plan) = plan {
                runner = runner.with_fault(Arc::new(plan));
            }
            let mut bytes = Vec::new();
            imprint_outcome(&mut bytes, runner.try_run(lp));
            rows.push((name.to_string(), fnv(&bytes)));
        };
        let dense = workload(ShadowKind::Dense);
        let sparse = workload(ShadowKind::Sparse);
        let capped = |strategy| {
            RunConfig::new(6)
                .with_strategy(strategy)
                .with_shadow_budget(Some(1 << 20))
        };
        let pressure = || FaultPlan::new().shadow_pressure_at(0, 1 << 30);

        for (sname, strategy) in [("nrd", Strategy::Nrd), ("rd", Strategy::Rd), ("sw8", sw(8))] {
            let cfg = RunConfig::new(6).with_strategy(strategy);
            row(
                &format!("panic-contained/{sname}"),
                &dense,
                cfg,
                Some(FaultPlan::new().panic_at_iter(131)),
            );
            row(
                &format!("panic-twice-is-a-program-fault/{sname}"),
                &dense,
                cfg,
                Some(FaultPlan::new().panic_at_iter(50).panic_at_iter(50)),
            );
            for stage in [0, 1] {
                row(
                    &format!("checkpoint-fault-at-{stage}/{sname}"),
                    &dense,
                    cfg,
                    Some(FaultPlan::new().checkpoint_fault_at(stage)),
                );
            }
            row(
                &format!("pressure-relieved/{sname}"),
                &dense,
                capped(strategy),
                Some(pressure()),
            );
            row(
                &format!("max-restarts-1/{sname}"),
                &dense,
                cfg.with_fallback(FallbackPolicy::default().with_max_restarts(1)),
                None,
            );
            let mut few = cfg;
            few.max_stages = 2;
            row(&format!("max-stages-2/{sname}"), &dense, few, None);
        }
        row(
            "pressure-unrelieved-falls-back/nrd",
            &sparse,
            capped(Strategy::Nrd),
            Some(pressure()),
        );
        row(
            "pressure-unrelieved-shrinks/sw4",
            &sparse,
            capped(sw(4)),
            Some(pressure()),
        );
        row(
            "pressure-unrelieved-falls-back/sw1",
            &sparse,
            capped(sw(1)),
            Some(pressure()),
        );
        row(
            "watchdog-on-a-clean-window/sw4",
            &FullyParallelLoop::new(256, 1.0),
            RunConfig::new(4)
                .with_strategy(sw(4))
                .with_fallback(FallbackPolicy::default().with_watchdog(0.05)),
            None,
        );

        // A pause requested from inside iteration 100: the stage that
        // ran it finishes and commits, nothing after it starts.
        for (sname, strategy) in [("nrd", Strategy::Nrd), ("sw8", sw(8))] {
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let lp = ClosureLoop::new(
                240,
                || {
                    vec![
                        ArrayDecl::tested("A", vec![1.0; 240], ShadowKind::Dense),
                        ArrayDecl::untested("B", vec![0.0; 240]),
                    ]
                },
                move |i, ctx| {
                    if i == 100 {
                        flag.store(true, Ordering::Relaxed);
                    }
                    let v = if i % 29 == 0 && i >= 11 {
                        ctx.read(A, i - 11)
                    } else {
                        i as f64
                    };
                    ctx.write(A, i, v * 0.5 + 1.0);
                    ctx.write(B, i, v);
                },
            );
            let mut bytes = Vec::new();
            let cfg = RunConfig::new(6).with_strategy(strategy);
            imprint_outcome(&mut bytes, Runner::new(cfg).with_stop(stop).try_run(&lp));
            rows.push((format!("stop-raised-in-iteration-100/{sname}"), fnv(&bytes)));
        }
    }

    /// Byte offsets just past each frame of a journal file (frame
    /// layout: `u32 len | record`).
    fn record_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4 + len;
            ends.push(pos);
        }
        ends
    }

    /// The journal file itself, fresh and resumed from a cut after its
    /// third record (or its last but one, when it has only three), for
    /// one recursive and one window strategy on the two TRACK decks.
    fn journal_rows(rows: &mut Vec<(String, u64)>) {
        let decks = decks();
        for (deck, lp) in decks
            .iter()
            .filter(|(deck, _)| ["track", "fptrak-chained"].contains(deck))
        {
            for (sname, strategy) in [("nrd", Strategy::Nrd), ("sw16", sw(16))] {
                let cfg = RunConfig::new(4).with_strategy(strategy);
                let path = std::env::temp_dir().join(format!(
                    "rlrpd-pinned-journal-{deck}-{sname}-{}",
                    std::process::id()
                ));
                let mut journal = Journal::create(&path).unwrap();
                let mut bytes = Vec::new();
                imprint_outcome(
                    &mut bytes,
                    Runner::new(cfg).try_run_journaled(lp.as_ref(), &mut journal),
                );
                drop(journal);
                let file = std::fs::read(&path).unwrap();
                bytes.extend_from_slice(&file);
                rows.push((format!("journal-fresh/{deck}/{sname}/p4"), fnv(&bytes)));

                let ends = record_ends(&file);
                assert!(ends.len() >= 3, "{deck}/{sname}: a single-commit journal");
                let keep = 3.min(ends.len() - 1);
                std::fs::write(&path, &file[..ends[keep - 1]]).unwrap();
                let mut journal = Journal::open(&path).unwrap();
                let mut bytes = Vec::new();
                imprint_outcome(
                    &mut bytes,
                    Runner::new(cfg).resume(lp.as_ref(), &mut journal),
                );
                drop(journal);
                let resumed = std::fs::read(&path).unwrap();
                bytes.extend_from_slice(&resumed);
                rows.push((
                    format!("journal-cut-after-{keep}-resumed/{deck}/{sname}/p4"),
                    fnv(&bytes),
                ));
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn every_pinned_run_still_does_what_it_did() {
        let mut rows = Vec::new();
        matrix_rows(&mut rows);
        branch_rows(&mut rows);
        journal_rows(&mut rows);

        let mut actual = String::new();
        for (name, fp) in &rows {
            writeln!(actual, "{name} {fp:016x}").unwrap();
        }
        let expected = std::fs::read_to_string(TABLE).unwrap_or_default();
        if actual == expected {
            return;
        }
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join("strategy_fingerprints.actual.txt");
        std::fs::write(&dump, &actual).unwrap();
        let moved: Vec<&str> = actual
            .lines()
            .zip(expected.lines().chain(std::iter::repeat("")))
            .filter(|(a, e)| a != e)
            .map(|(a, _)| a)
            .take(12)
            .collect();
        panic!(
            "{} of {} pinned rows differ from {TABLE} (first: {moved:#?}); \
             this run's table is in {}",
            actual
                .lines()
                .zip(expected.lines().chain(std::iter::repeat("")))
                .filter(|(a, e)| a != e)
                .count(),
            rows.len(),
            dump.display()
        );
    }
}
