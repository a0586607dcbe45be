//! Data-driven check over every shipped `.rlp` demo program: each must
//! compile, classify, and (for the speculative path) produce
//! sequential-equal results under several strategies.

use rlrpd::core::AdaptRule;
use rlrpd::lang::{CompiledInduction, CompiledProgram};
use rlrpd::{CostModel, ExecMode, RunConfig, Strategy, WindowConfig};

fn programs() -> Vec<(String, String)> {
    let dir = format!("{}/examples/programs", env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("programs dir exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) == Some("rlp") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    assert!(
        out.len() >= 4,
        "expected several demo programs, found {}",
        out.len()
    );
    out.sort();
    out
}

#[test]
fn every_demo_program_compiles() {
    for (name, src) in programs() {
        let ok = CompiledProgram::compile(&src).is_ok() || CompiledInduction::compile(&src).is_ok();
        assert!(ok, "{name} does not compile under either scheme");
    }
}

#[test]
fn every_speculative_demo_matches_sequential_under_all_strategies() {
    for (name, src) in programs() {
        let Ok(prog) = CompiledProgram::compile(&src) else {
            continue; // induction programs checked separately
        };
        let seq = prog.run_sequential();
        for strategy in [
            Strategy::Nrd,
            Strategy::Rd,
            Strategy::AdaptiveRd(AdaptRule::Measured),
            Strategy::SlidingWindow(WindowConfig::fixed(16)),
        ] {
            let res = prog.run(RunConfig::new(8).with_strategy(strategy));
            for ((sn, sv), (_, rv)) in seq.iter().zip(&res.arrays) {
                for (k, (a, b)) in sv.iter().zip(rv).enumerate() {
                    let tol = 1e-9 * a.abs().max(1.0);
                    assert!(
                        (a - b).abs() <= tol,
                        "{name}: {sn}[{k}] {a} vs {b} under {strategy:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn induction_demos_pass_their_range_tests() {
    for (name, src) in programs() {
        let Ok(ind) = CompiledInduction::compile(&src) else {
            continue;
        };
        let res = rlrpd::run_induction(&ind, 8, ExecMode::Simulated, CostModel::default()).unwrap();
        assert!(res.test_passed, "{name}: range test should pass");
        assert!(
            res.report.speedup() > 1.0,
            "{name}: two-pass scheme should profit at p=8"
        );
    }
}

#[test]
fn demo_classifications_are_nontrivial() {
    // The shipped demos collectively exercise every classification.
    let mut saw_tested = false;
    let mut saw_untested = false;
    let mut saw_reduction = false;
    for (_, src) in programs() {
        let Ok(prog) = CompiledProgram::compile(&src) else {
            continue;
        };
        for k in 0..prog.num_loops() {
            for c in prog.classifications(k) {
                match c.class {
                    rlrpd::lang::Class::Tested => saw_tested = true,
                    rlrpd::lang::Class::Untested => saw_untested = true,
                    rlrpd::lang::Class::Reduction(_) => saw_reduction = true,
                }
            }
        }
    }
    assert!(saw_tested && saw_untested && saw_reduction);
}
