//! Fault containment on the paper's workload models, end to end: a
//! panic injected into *any* chosen iteration of TRACK, SPICE, or
//! NLFILT, under *every* strategy, still yields arrays byte-identical
//! to sequential execution — and the run's report records the contained
//! fault rather than the process aborting.

mod common;

use common::seeds;
use rlrpd::loops::*;
use rlrpd::{run_sequential, FallbackPolicy, FaultPlan, RunConfig, Runner, SpecLoop, Strategy};
use std::sync::Arc;

fn strategies() -> Vec<Strategy> {
    common::strategies(&["nrd", "rd", "adaptive-eq4", "adaptive", "sw:7", "sw:64"])
}

/// The acceptance bar: for each seed, derive a one-panic plan, run the
/// loop under every strategy with the fault armed, and require (a) the
/// run completes, (b) every array equals the sequential result
/// byte-for-byte, (c) the report records exactly one contained fault.
fn assert_faults_contained(name: &str, lp: &dyn SpecLoop) {
    let (seq, _) = run_sequential(lp);
    let n = lp.num_iters();
    for seed in seeds() {
        for strategy in strategies() {
            for p in [2usize, 4, 8] {
                let cfg = RunConfig::new(p).with_strategy(strategy);
                let plan = FaultPlan::seeded_panic(seed, n);
                let res = Runner::new(cfg)
                    .with_fault(Arc::new(plan))
                    .try_run(lp)
                    .unwrap_or_else(|e| {
                        panic!("{name}: seed={seed} {strategy:?} p={p}: not contained: {e}")
                    });
                for ((sname, sdata), (rname, rdata)) in seq.iter().zip(&res.arrays) {
                    assert_eq!(sname, rname);
                    assert_eq!(
                        sdata, rdata,
                        "{name}: array {sname} differs under seed={seed}/{strategy:?}/p={p}"
                    );
                }
                assert_eq!(
                    res.report.contained_faults(),
                    1,
                    "{name}: seed={seed} {strategy:?} p={p}: fault not recorded"
                );
            }
        }
    }
}

#[test]
fn track_fptrak_contains_injected_faults() {
    let input = rlrpd::loops::fptrak::FptrakInput::all()
        .into_iter()
        .next()
        .expect("TRACK ships at least one input deck");
    assert_faults_contained("track/fptrak", &FptrakLoop::new(input));
}

#[test]
fn spice_dcdcmp_contains_injected_faults() {
    assert_faults_contained("spice/dcdcmp", &Dcdcmp15Loop::small(17));
}

#[test]
fn nlfilt_contains_injected_faults() {
    assert_faults_contained("nlfilt", &NlfiltLoop::new(NlfiltInput::i4_50()));
}

#[test]
fn restart_budget_on_a_workload_model_stays_correct() {
    // Degrading SPICE to sequential after its first restart must not
    // change the numerics.
    let lp = Dcdcmp15Loop::small(17);
    let (seq, _) = run_sequential(&lp);
    for strategy in strategies() {
        let cfg = RunConfig::new(4)
            .with_strategy(strategy)
            .with_fallback(FallbackPolicy::default().with_max_restarts(1));
        let res = Runner::new(cfg)
            .try_run(&lp)
            .unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
        for ((sname, sdata), (rname, rdata)) in seq.iter().zip(&res.arrays) {
            assert_eq!(sname, rname);
            assert_eq!(sdata, rdata, "array {sname} differs under {strategy:?}");
        }
    }
}
