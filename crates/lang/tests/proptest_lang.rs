//! Property tests for the mini-language pass: generated programs run
//! identically under speculation and sequential execution, and the
//! static classifier is *semantics-preserving* — forcing every array
//! through the LRPD test (maximally conservative) must give the same
//! final state as the classifier's choices.

use proptest::prelude::*;
use rlrpd_core::{run_sequential, run_speculative, RunConfig, Strategy, WindowConfig};
use rlrpd_lang::compile;

/// A random but always-valid program over arrays A (size n), B (size
/// n), and H (size 8): a list of statement templates instantiated with
/// random constants.
fn program(n: usize, stmts: Vec<(u8, usize, usize)>) -> String {
    let mut body = String::new();
    for (kind, x, y) in stmts {
        let x = x % n;
        let y = (y % 20) + 1;
        match kind % 6 {
            // Affine self-update (statically safe).
            0 => body.push_str("  B[i] = B[i] + 1;\n"),
            // Backward read at data-independent but non-affine distance.
            1 => body.push_str(&format!(
                "  if i >= {y} {{ A[i] = A[i - {y}] * 0.5 + 1; }} else {{ A[i] = i; }}\n"
            )),
            // Scattered write under a guard.
            2 => body.push_str(&format!(
                "  if i % {} == 0 {{ A[(i * 7 + {x}) % {n}] = i; }}\n",
                (y % 7) + 2
            )),
            // Histogram reduction.
            3 => body.push_str(&format!("  H[(i + {x}) % 8] += 1;\n")),
            // Local computation feeding a write.
            4 => body.push_str(&format!(
                "  let v = A[(i + {x}) % {n}] + B[i];\n  A[i] = v * 0.25;\n"
            )),
            // Min/max intrinsics.
            _ => body.push_str(&format!("  B[i] = min(B[i], {y}) + max(i, {x});\n")),
        }
    }
    format!("array A[{n}] = 1;\narray B[{n}] = 2;\narray H[8];\nfor i in 0..{n} {{\n{body}}}")
}

fn stmt_vec() -> impl proptest::strategy::Strategy<Value = Vec<(u8, usize, usize)>> {
    prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Speculative execution of any generated program equals sequential
    /// execution, under every strategy.
    #[test]
    fn speculative_equals_sequential(
        n in 16usize..96,
        stmts in stmt_vec(),
        p in 1usize..9,
    ) {
        let src = program(n, stmts);
        let lp = compile(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let (seq, _) = run_sequential(&lp);
        for strategy in [
            Strategy::Nrd,
            Strategy::Rd,
            Strategy::SlidingWindow(WindowConfig::fixed(4)),
        ] {
            let spec = run_speculative(&lp, RunConfig::new(p).with_strategy(strategy));
            for ((sn, sv), (_, rv)) in seq.iter().zip(&spec.arrays) {
                for (a, b) in sv.iter().zip(rv) {
                    prop_assert!(
                        (a - b).abs() < 1e-9,
                        "array {sn} differs under {strategy:?}\n{src}"
                    );
                }
            }
        }
    }

    /// Classifier soundness: forcing EVERY array through the LRPD test
    /// (the maximally conservative classification) produces the same
    /// final state as the classifier's automatic choices — i.e. no
    /// array the classifier marked `untested`/`reduction` ever needed
    /// the test for correctness.
    #[test]
    fn classification_is_semantics_preserving(
        n in 16usize..64,
        stmts in stmt_vec(),
        p in 2usize..9,
    ) {
        let auto_src = program(n, stmts);
        // Force-hint every array as tested.
        let forced_src = auto_src
            .replace(&format!("array A[{n}] = 1;"), &format!("array A[{n}] = 1 : tested;"))
            .replace(&format!("array B[{n}] = 2;"), &format!("array B[{n}] = 2 : tested;"))
            .replace("array H[8];", "array H[8] : tested;");
        let auto_lp = compile(&auto_src).unwrap();
        let forced_lp = compile(&forced_src).unwrap();
        let a = run_speculative(&auto_lp, RunConfig::new(p));
        let f = run_speculative(&forced_lp, RunConfig::new(p));
        for ((an, av), (_, fv)) in a.arrays.iter().zip(&f.arrays) {
            for (x, y) in av.iter().zip(fv) {
                prop_assert!((x - y).abs() < 1e-9, "array {an} differs\n{auto_src}");
            }
        }
    }

    /// Parsing is total on generated sources, and classification is
    /// deterministic.
    #[test]
    fn compilation_is_deterministic(n in 16usize..64, stmts in stmt_vec()) {
        let src = program(n, stmts);
        let a = compile(&src).unwrap();
        let b = compile(&src).unwrap();
        let ca: Vec<_> = a.as_program().classifications(0).iter().map(|c| c.class).collect();
        let cb: Vec<_> = b.as_program().classifications(0).iter().map(|c| c.class).collect();
        prop_assert_eq!(ca, cb);
    }

    /// Pretty-print round trip: printing a parsed program and
    /// re-compiling it yields identical semantics and a printing
    /// fixpoint.
    #[test]
    fn pretty_print_round_trip(n in 16usize..64, stmts in stmt_vec()) {
        use rlrpd_lang::{print_program, CompiledProgram};
        let src = program(n, stmts);
        let p1 = CompiledProgram::compile(&src).unwrap();
        let printed = print_program(p1.program());
        let p2 = CompiledProgram::compile(&printed)
            .unwrap_or_else(|e| panic!("reprint failed: {e}\n{printed}"));
        prop_assert_eq!(
            print_program(p2.program()),
            printed.clone(),
            "printing must be a fixpoint"
        );
        let r1 = p1.run(RunConfig::new(4));
        let r2 = p2.run(RunConfig::new(4));
        for ((name, a), (_, b)) in r1.arrays.iter().zip(&r2.arrays) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!((x - y).abs() < 1e-9, "array {name} differs\n{printed}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The parser never panics: arbitrary input yields Ok or a
    /// positioned error, nothing else.
    #[test]
    fn parser_is_panic_free_on_arbitrary_input(src in "[ -~\\n]{0,200}") {
        let _ = rlrpd_lang::parse(&src);
    }

    /// Ditto for structured-looking garbage assembled from the
    /// language's own token vocabulary.
    #[test]
    fn parser_is_panic_free_on_token_soup(
        words in prop::collection::vec(
            prop_oneof![
                Just("array"), Just("scalar"), Just("counter"), Just("for"),
                Just("in"), Just("if"), Just("else"), Just("let"), Just("break"),
                Just("bump"), Just("cost"), Just("A"), Just("i"), Just("1"),
                Just("0.5"), Just("["), Just("]"), Just("{"), Just("}"),
                Just("("), Just(")"), Just(";"), Just(".."), Just("+"),
                Just("="), Just("+="), Just("&&"), Just("%"), Just("min"),
            ],
            0..40,
        )
    ) {
        let src = words.join(" ");
        let _ = rlrpd_lang::parse(&src);
    }
}
