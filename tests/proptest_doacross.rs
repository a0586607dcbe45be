//! Property-based tests of the uniform-distance proof (DESIGN.md §16),
//! fuzzing over randomly generated affine loops with *planted*
//! uniform dependence distances.
//!
//! Three invariants, each cross-checked against an independent
//! witness:
//!
//! 1. The symbolic proof recovers exactly the planted distances, and
//!    its verdict agrees with [`classify_loop_exact`] — the
//!    enumerate-every-subscript ground-truth oracle (loops are kept
//!    small enough to afford it).
//! 2. A proven loop speculates like any other, and the run is
//!    *bit-identical* to sequential execution for every processor
//!    count 1..=8 — not merely within a tolerance: the planted loops
//!    have no reduction, so every element is computed in sequential
//!    order and even float rounding must match.
//! 3. One guard on a conflicting pair blocks the whole proof: the
//!    verdict flips to Blocked, and the speculative run still matches
//!    sequential execution.

use proptest::prelude::*;
use rlrpd::lang::{classify_loop_exact, parse, Class, CompiledProgram, DoacrossVerdict};
use rlrpd::RunConfig;

/// Fixed coefficient menu: exactly representable halves/eighths so a
/// formatting round-trip through the source text is lossless.
const COEFS: [&str; 7] = ["0.125", "0.25", "0.375", "0.5", "0.625", "0.75", "0.875"];

/// An affine two-array loop with planted uniform distances `d` (on A)
/// and `e` (on B). `n >= 17 >= max(d, e) + min(d, e) + 1` guarantees
/// the planted dependences actually fire inside the range, so the
/// exact oracle must see them too. With `guarded`, B's statement goes
/// behind a data-independent guard — the conflict still exists, but
/// the proof must refuse it (the dependence may or may not fire at
/// runtime).
fn planted_source(n: usize, d: usize, e: usize, ca: usize, cb: usize, guarded: bool) -> String {
    let m = d.max(e);
    let (ca, cb) = (COEFS[ca % COEFS.len()], COEFS[cb % COEFS.len()]);
    let b_stmt = format!("B[i] = B[i - {e}] * {cb} + A[i] * 0.0625 + i;");
    let b_stmt = if guarded {
        format!("if i % 2 == 0 {{ {b_stmt} }}")
    } else {
        b_stmt
    };
    format!(
        "array A[64] = 1;\narray B[64] = 2;\ncost 7;\n\
         for i in {m}..{n} {{\n    A[i] = A[i - {d}] * {ca} + A[i] * 0.125 + i;\n    {b_stmt}\n}}\n"
    )
}

/// Planted parameters: distances small enough that `n >= 17` keeps
/// every dependence live in-range (see `planted_source`).
fn planted_params() -> impl Strategy<Value = (usize, usize, usize, usize, usize)> {
    (17usize..64, 1usize..=8, 1usize..=8, 0usize..7, 0usize..7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 1: the proof recovers the planted distance set, and
    /// the exact-enumeration oracle confirms each proven dependence is
    /// a real cross-iteration conflict (`Tested`): the proof never
    /// states a distance for a loop the oracle calls independent.
    #[test]
    fn planted_distances_are_proven_and_confirmed_by_the_oracle(
        (n, d, e, ca, cb) in planted_params(),
    ) {
        let src = planted_source(n, d, e, ca, cb, false);
        let prog = CompiledProgram::compile(&src).unwrap();
        let plan = prog.doacross_plan(0);
        prop_assert!(
            matches!(plan.verdict, DoacrossVerdict::Eligible),
            "planted (d={d}, e={e}) must be provable: {:?}", plan.verdict
        );
        let mut want = vec![d, e];
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(plan.distances(), want, "exactly the planted distances");
        prop_assert_eq!(plan.min_distance(), Some(d.min(e)));

        // Ground truth: every array the proof hangs a dependence on is
        // `Tested` under exhaustive enumeration.
        let ast = parse(&src).unwrap();
        let exact = classify_loop_exact(&ast, 0);
        for dep in &plan.deps {
            prop_assert!(
                matches!(exact[dep.array], Class::Tested),
                "array {} carries a proven distance yet the oracle says {:?}",
                dep.array, exact[dep.array]
            );
        }
    }

    /// Invariant 2: the speculative run of a proven loop is
    /// bit-identical to sequential execution at every width.
    #[test]
    fn a_proven_loop_speculates_bit_identical_to_sequential_for_all_widths(
        (n, d, e, ca, cb) in planted_params(),
        p in 1usize..=8,
    ) {
        let src = planted_source(n, d, e, ca, cb, false);
        let prog = CompiledProgram::compile(&src).unwrap();
        prop_assert!(prog.doacross_plan(0).eligible());
        let seq = prog.run_sequential();
        let res = prog.run(RunConfig::new(p));
        for ((name, want), (rn, got)) in seq.iter().zip(&res.arrays) {
            prop_assert_eq!(name, rn);
            let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(want, got, "array {} at p = {}", name, p);
        }
    }

    /// Invariant 3: one guard on a conflicting pair blocks the proof,
    /// and the speculative run still matches sequential execution.
    #[test]
    fn a_guard_demotes_to_speculation_which_still_verifies(
        (n, d, e, ca, cb) in planted_params(),
        p in 1usize..=8,
    ) {
        let src = planted_source(n, d, e, ca, cb, true);
        let prog = CompiledProgram::compile(&src).unwrap();
        let plan = prog.doacross_plan(0);
        prop_assert!(
            matches!(plan.verdict, DoacrossVerdict::Blocked(_)),
            "a guarded conflict must block: {:?}", plan.verdict
        );

        let seq = prog.run_sequential();
        let res = prog.run(RunConfig::new(p));
        for ((name, want), (rn, got)) in seq.iter().zip(&res.arrays) {
            prop_assert_eq!(name, rn);
            for (k, (w, g)) in want.iter().zip(got).enumerate() {
                prop_assert!(
                    (w - g).abs() <= 1e-9 * w.abs().max(1.0),
                    "array {}[{}]: {} vs {}", name, k, w, g
                );
            }
        }
    }
}
