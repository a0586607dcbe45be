//! The bytecode VM against the tree-walk oracle on the example
//! programs and the paper-shaped model kernels, across strategies and
//! execution modes.
//!
//! The differential proptest suite (`crates/lang/tests/proptest_vm.rs`)
//! covers random programs on the simulated engine; this suite pins the
//! *real* workloads — every `examples/programs/*.rlp` and the
//! TRACK/SPICE/NLFILT DSL decks — and sweeps NRD/RD/sliding-window ×
//! Simulated/Pooled, asserting byte-identical final arrays
//! (`f64::to_bits`) between the two tiers. Restart machinery, block
//! scheduling, privatization commit order, and thread-pool reuse all
//! sit between the body and the observable state, so agreement here
//! means the VM is interchangeable wherever the engines call a body.
//!
//! The same decks hold the VM's strips (16 iterations per dispatch) to
//! the VM at one iteration per dispatch: final arrays, restarts and
//! every stage's statistics — what was attempted, what committed, every
//! overhead term — must not depend on which of the two ran.

use rlrpd::lang::CompiledProgram;
use rlrpd::loops::dsl::{nlfilt_dsl, spice_dsl, track_dsl};
use rlrpd::{run_induction, CostModel, ExecMode, RunConfig, Strategy, WindowConfig};

fn strategies() -> Vec<(&'static str, Strategy)> {
    vec![
        ("nrd", Strategy::Nrd),
        ("rd", Strategy::Rd),
        ("sw16", Strategy::SlidingWindow(WindowConfig::fixed(16))),
    ]
}

fn exec_modes() -> Vec<(&'static str, ExecMode)> {
    vec![
        ("simulated", ExecMode::Simulated),
        ("pooled", ExecMode::Pooled),
    ]
}

/// Final arrays of a speculative run of `src`, as bit patterns.
fn run_arrays(src: &str, interp: bool, cfg: RunConfig) -> Vec<(&'static str, Vec<u64>)> {
    let mut prog = CompiledProgram::compile(src).expect("compiles");
    if interp {
        prog = prog.with_interpreter();
    }
    prog.run(cfg)
        .arrays
        .iter()
        .map(|(name, data)| (*name, data.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn assert_backends_agree(label: &str, src: &str) {
    for (sname, strategy) in strategies() {
        for (ename, exec) in exec_modes() {
            let cfg = RunConfig::new(4).with_strategy(strategy).with_exec(exec);
            let vm = run_arrays(src, false, cfg);
            let tw = run_arrays(src, true, cfg);
            assert_eq!(
                vm, tw,
                "{label}: VM diverged from tree-walk under {sname}/{ename}"
            );
        }
    }
}

/// Everything a run decided, stage by stage, without the two counters
/// that say how the VM dispatched.
fn decisions(report: &rlrpd::core::RunReport, simulated: bool) -> Vec<rlrpd::runtime::StageStats> {
    report
        .stages
        .iter()
        .map(|s| {
            if simulated {
                let mut s = s.clone();
                s.batched_iters = 0;
                s.scalar_strips = 0;
                s
            } else {
                // Wall-clock fields differ run to run; keep the counts.
                rlrpd::runtime::StageStats {
                    iters_attempted: s.iters_attempted,
                    iters_committed: s.iters_committed,
                    overhead: s.overhead.clone(),
                    contained_faults: s.contained_faults,
                    shadow_migrations: s.shadow_migrations,
                    ..Default::default()
                }
            }
        })
        .collect()
}

/// Strips on against strips forced off (the `with_scalar_vm` seam), on
/// `p` processors under `strategy`: same arrays, same decisions.
/// Returns the iterations the first run executed in strips.
fn assert_strips_invisible_under(
    label: &str,
    src: &str,
    cfg: RunConfig,
    full_instrumentation: bool,
) -> u64 {
    let build = |scalar: bool| {
        let mut prog = CompiledProgram::compile(src).expect("compiles");
        if full_instrumentation {
            prog = prog.with_full_instrumentation();
        }
        if scalar {
            prog = prog.with_scalar_vm();
        }
        prog.run(cfg)
    };
    let (strips, scalar) = (build(false), build(true));
    let bits = |r: &rlrpd::lang::ProgramResult| -> Vec<Vec<u64>> {
        r.arrays
            .iter()
            .map(|(_, d)| d.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    let what = format!("{label} under {cfg:?}, full_instrumentation={full_instrumentation}");
    assert_eq!(bits(&strips), bits(&scalar), "{what}: arrays");
    let mut batched = 0;
    for (a, b) in strips.reports.iter().zip(&scalar.reports) {
        let simulated = cfg.exec == ExecMode::Simulated;
        assert_eq!(a.restarts, b.restarts, "{what}: restarts");
        assert_eq!(a.exited_at, b.exited_at, "{what}: exit");
        assert_eq!(
            decisions(a, simulated),
            decisions(b, simulated),
            "{what}: per-stage decisions"
        );
        assert_eq!(b.batched_iters() + b.scalar_strips(), 0, "{what}: the seam");
        batched += a.batched_iters();
    }
    batched
}

fn assert_strips_invisible(label: &str, src: &str) -> u64 {
    let mut batched = 0;
    for (_, strategy) in strategies() {
        for p in [1, 2, 4] {
            let cfg = RunConfig::new(p).with_strategy(strategy);
            batched += assert_strips_invisible_under(label, src, cfg, false);
            assert_strips_invisible_under(label, src, cfg, true);
        }
        let pooled = RunConfig::new(2)
            .with_strategy(strategy)
            .with_exec(ExecMode::Pooled);
        assert_strips_invisible_under(label, src, pooled, false);
    }
    batched
}

#[test]
fn strips_are_invisible_on_every_example_and_paper_deck() {
    for name in [
        "tracking.rlp",
        "lu_sparse.rlp",
        "premature_exit.rlp",
        "two_phase.rlp",
        "beta_pipeline.rlp",
    ] {
        assert_strips_invisible(name, &example(name));
    }
    // TRACK and NLFILT really run in strips; SPICE's short flow
    // dependences fail nearly every probe and it stays correct anyway.
    assert!(assert_strips_invisible("track_dsl(512)", &track_dsl(512)) > 0);
    assert!(assert_strips_invisible("nlfilt_dsl(512)", &nlfilt_dsl(512)) > 0);
    assert_strips_invisible("spice_dsl(400)", &spice_dsl(400));
}

/// Blocks shorter than, equal to and just longer than a strip, through
/// the engine: windows of 1, 15, 16, 17 and 33 iterations on one and
/// two processors, and loop lengths that leave every tail.
#[test]
fn strips_are_invisible_at_every_block_length() {
    for window in [1, 15, 16, 17, 33] {
        for p in [1, 2] {
            let cfg = RunConfig::new(p)
                .with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(window)));
            let batched =
                assert_strips_invisible_under("track_dsl(512)", &track_dsl(512), cfg, false);
            // The window is per processor: a block is `window` long.
            assert_eq!(batched > 0, window >= 16, "window {window}, p {p}");
            assert_strips_invisible_under("nlfilt_dsl(512)", &nlfilt_dsl(512), cfg, true);
        }
    }
    for n in [0, 1, 15, 16, 17, 31, 32, 33] {
        let src = format!(
            "array A[64] = 1;\narray B[64];\narray S[4];\nfor i in 0..{n} {{\n  \
             B[i] = A[(i * 5) % 64] + i;\n  if i % 4 == 1 {{ A[(i * 5 + 3) % 64] = B[i]; }}\n  \
             S[i % 4] += B[i];\n}}"
        );
        let batched = assert_strips_invisible_under("tails", &src, RunConfig::new(1), false);
        assert!(batched as usize <= n / 16 * 16, "{n}");
    }
}

fn example(name: &str) -> String {
    let path = format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn tracking_example_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("tracking.rlp", &example("tracking.rlp"));
}

#[test]
fn lu_sparse_example_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("lu_sparse.rlp", &example("lu_sparse.rlp"));
}

#[test]
fn premature_exit_example_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("premature_exit.rlp", &example("premature_exit.rlp"));
}

#[test]
fn two_phase_example_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("two_phase.rlp", &example("two_phase.rlp"));
}

#[test]
fn track_model_deck_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("track_dsl(512)", &track_dsl(512));
}

#[test]
fn spice_model_deck_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("spice_dsl(400)", &spice_dsl(400));
}

#[test]
fn nlfilt_model_deck_is_byte_identical_across_strategies_and_modes() {
    assert_backends_agree("nlfilt_dsl(512)", &nlfilt_dsl(512));
}

/// The large journaling deck, once, on the default adaptive strategy:
/// 800k iterations through the VM and the oracle must still agree
/// bit-for-bit.
#[test]
fn tracking_large_is_byte_identical_on_the_simulated_engine() {
    let src = example("tracking_large.rlp");
    let cfg = RunConfig::new(8);
    assert_eq!(
        run_arrays(&src, false, cfg),
        run_arrays(&src, true, cfg),
        "tracking_large.rlp: VM diverged from tree-walk"
    );
}

/// The induction scheme (EXTEND two-pass): counter, range-test verdict,
/// and tracked arrays agree between the tiers in every exec mode.
#[test]
fn extend_induction_program_is_byte_identical_across_modes() {
    use rlrpd::lang::CompiledInduction;
    let src = example("extend.rlp");
    for (ename, exec) in exec_modes() {
        let run = |interp: bool| {
            let mut ind = CompiledInduction::compile(&src).expect("compiles");
            if interp {
                ind = ind.with_interpreter();
            }
            let res = run_induction(&ind, 4, exec, CostModel::default());
            let arrays: Vec<(&'static str, Vec<u64>)> = res
                .arrays
                .iter()
                .map(|(name, data)| (*name, data.iter().map(|v| v.to_bits()).collect()))
                .collect();
            (res.final_counter, res.test_passed, arrays)
        };
        assert_eq!(
            run(false),
            run(true),
            "extend.rlp: VM diverged from tree-walk under {ename}"
        );
    }
}
