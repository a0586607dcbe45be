//! Generated counter programs under the EXTEND induction scheme
//! ([`run_induction`]) against sequential execution: on the bytecode VM
//! and on the tree-walk interpreter, at p ∈ {1, 2, 3, 8}, on the
//! simulated and the pooled executor, every array must be
//! `f64::to_bits`-identical to the tree-walk interpreter's sequential
//! run, and the final counter must be where that run leaves it. The
//! generated set must hold programs the range test passes and programs
//! it fails, or one of the scheme's two paths goes untested.

use proptest::prelude::*;
use rlrpd_core::{run_induction, run_sequential_counted, CostModel, ExecMode};
use rlrpd_lang::CompiledInduction;
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;
use common::counter_program;

/// Range-test verdicts over every generated run: `[failed, passed]`.
static VERDICTS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

fn bits(arrays: &[(&'static str, Vec<f64>)]) -> Vec<(&'static str, Vec<u64>)> {
    let bits = |data: &Vec<f64>| data.iter().map(|v| v.to_bits()).collect();
    arrays
        .iter()
        .map(|(name, data)| (*name, bits(data)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn counter_programs_match_sequential_execution(
        n in 1usize..48,
        k in 1usize..12,
        stmts in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..6),
    ) {
        let src = counter_program(n, k, &stmts);
        let compile = || CompiledInduction::compile(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let (want, _, counter) = run_sequential_counted(&compile().with_interpreter());
        for lp in [compile(), compile().with_interpreter()] {
            let tier = lp.as_program().backend().describe();
            for exec in [ExecMode::Simulated, ExecMode::Pooled] {
                for p in [1, 2, 3, 8] {
                    let res = run_induction(&lp, p, exec, CostModel::default())
                        .unwrap_or_else(|e| panic!("{src}\n{e}"));
                    let what = format!("{src}\n{tier}, p = {p}, {exec:?}");
                    prop_assert_eq!(bits(&res.arrays), bits(&want), "{}", what);
                    prop_assert_eq!(Some(res.final_counter), counter, "{}", what);
                    VERDICTS[res.test_passed as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[test]
fn generated_counter_programs_match_sequential_under_both_verdicts() {
    counter_programs_match_sequential_execution();
    let [failed, passed] = VERDICTS.each_ref().map(|v| v.load(Ordering::Relaxed));
    println!("range test over the generated runs: {passed} passed, {failed} failed");
    assert!(passed > 0 && failed > 0, "{passed} passed, {failed} failed");
}
