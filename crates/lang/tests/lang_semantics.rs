//! Systematic semantics tests for the mini language: every operator,
//! precedence and associativity, short-circuit evaluation, scalars in
//! branches, counter arithmetic, and error positions.

use rlrpd_core::{run_sequential, RunConfig};
use rlrpd_lang::{compile, CompiledProgram, LangError};

/// Evaluate a single expression by storing it into A[0] and reading it
/// back from a sequential run.
fn eval(expr: &str) -> f64 {
    let src = format!("array A[1];\nfor i in 3..4 {{ A[0] = {expr}; }}");
    let lp = compile(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
    let (arrays, _) = run_sequential(&lp);
    arrays[0].1[0]
}

#[test]
fn arithmetic_operators() {
    assert_eq!(eval("1 + 2"), 3.0);
    assert_eq!(eval("7 - 10"), -3.0);
    assert_eq!(eval("6 * 7"), 42.0);
    assert_eq!(eval("7 / 2"), 3.5);
    assert_eq!(eval("17 % 5"), 2.0);
    assert_eq!(eval("-i"), -3.0, "the loop variable is 3");
}

#[test]
fn rem_is_euclidean_on_negatives() {
    // The language promises a non-negative result for subscript use.
    assert_eq!(eval("(0 - 7) % 5"), 3.0);
}

#[test]
fn comparisons_yield_zero_or_one() {
    assert_eq!(eval("2 == 2"), 1.0);
    assert_eq!(eval("2 != 2"), 0.0);
    assert_eq!(eval("1 < 2"), 1.0);
    assert_eq!(eval("2 <= 1"), 0.0);
    assert_eq!(eval("3 > 2"), 1.0);
    assert_eq!(eval("3 >= 4"), 0.0);
}

#[test]
fn logic_operators_and_not() {
    assert_eq!(eval("1 && 2"), 1.0);
    assert_eq!(eval("1 && 0"), 0.0);
    assert_eq!(eval("0 || 3"), 1.0);
    assert_eq!(eval("0 || 0"), 0.0);
    assert_eq!(eval("!0"), 1.0);
    assert_eq!(eval("!5"), 0.0);
}

#[test]
fn precedence_and_associativity() {
    assert_eq!(eval("2 + 3 * 4"), 14.0);
    assert_eq!(eval("(2 + 3) * 4"), 20.0);
    assert_eq!(eval("10 - 4 - 3"), 3.0, "left associative");
    assert_eq!(eval("8 / 4 / 2"), 1.0, "left associative");
    assert_eq!(eval("1 + 2 < 4"), 1.0, "comparison binds looser than +");
    assert_eq!(eval("1 < 2 && 3 < 4"), 1.0, "&& binds looser than <");
    assert_eq!(eval("0 && 1 || 1"), 1.0, "|| binds loosest");
}

#[test]
fn intrinsics() {
    assert_eq!(eval("min(3, 7)"), 3.0);
    assert_eq!(eval("max(3, 7)"), 7.0);
    assert_eq!(eval("abs(0 - 9)"), 9.0);
    assert_eq!(eval("sqrt(49)"), 7.0);
    assert_eq!(eval("floor(3.9)"), 3.0);
    assert_eq!(eval("min(max(i, 2), 10)"), 3.0, "nested calls");
}

#[test]
fn short_circuit_evaluation_protects_subscripts() {
    // The RHS of && must not evaluate when the LHS is false —
    // otherwise A[i - 1] would panic at i = 0.
    let src = "array A[8] = 1;\narray B[8];\nfor i in 0..8 {\n  if i > 0 && A[i - 1] > 0 { B[i] = 1; } else { B[i] = 2; }\n}";
    let lp = compile(src).unwrap();
    let (arrays, _) = run_sequential(&lp);
    assert_eq!(arrays[1].1[0], 2.0);
    assert_eq!(arrays[1].1[1], 1.0);
}

#[test]
fn scalars_written_in_branches_behave_sequentially() {
    let src = "scalar s;\narray OUT[6];\nfor i in 0..6 {\n  if i % 2 == 0 { s = i; } else { s = s * 10; }\n  OUT[i] = s;\n}";
    let prog = CompiledProgram::compile(src).unwrap();
    let seq = prog.run_sequential();
    // s: 0, 0, 2, 20, 4, 40.
    assert_eq!(seq[1].1, vec![0.0, 0.0, 2.0, 20.0, 4.0, 40.0]);
    // And the speculative run (which must serialize this recurrence)
    // agrees.
    let spec = prog.run(RunConfig::new(4));
    assert_eq!(spec.arrays, seq);
}

#[test]
fn locals_shadow_outer_locals() {
    let src = "array A[4];\nfor i in 0..4 {\n  let v = 1;\n  if i == 2 { let v = 100; A[i] = v; } else { A[i] = v; }\n}";
    let lp = compile(src).unwrap();
    let (arrays, _) = run_sequential(&lp);
    assert_eq!(arrays[0].1, vec![1.0, 1.0, 100.0, 1.0]);
}

#[test]
fn counter_value_is_readable_in_expressions() {
    use rlrpd_core::{run_induction, CostModel, ExecMode};
    let src = "array A[40];\ncounter c = 5;\nfor i in 0..10 {\n  A[c] = c * 10 + i;\n  bump c;\n}";
    let ind = rlrpd_lang::CompiledInduction::compile(src).unwrap();
    let res = run_induction(&ind, 4, ExecMode::Simulated, CostModel::default()).unwrap();
    assert!(res.test_passed);
    // A[5] = 50, A[6] = 61, …
    assert_eq!(res.arrays[0].1[5], 50.0);
    assert_eq!(res.arrays[0].1[6], 61.0);
    assert_eq!(res.final_counter, 15);
}

#[test]
fn error_positions_point_at_the_problem() {
    let check = |src: &str, line: u32, needle: &str| {
        let err: LangError = compile(src).unwrap_err();
        assert_eq!(err.line, line, "{err}");
        assert!(err.message.contains(needle), "{err}");
    };
    check(
        "array A[4];\nfor i in 0..4 { A[i] = x; }",
        2,
        "unknown name 'x'",
    );
    check(
        "array A[4];\nfor i in 0..4 { B[i] = 1; }",
        2,
        "not a declared array",
    );
    check(
        "array A[4];\nfor i in 0..4 {\n  A[i] = ;\n}",
        3,
        "expected an expression",
    );
    check(
        "array A[4];\nfor i in 4..0 { A[0] = 1; }",
        2,
        "inverted range",
    );
}

#[test]
fn division_produces_fractions_subscripts_reject_them() {
    assert_eq!(eval("1 / 4"), 0.25);
    let src = "array A[8];\nfor i in 1..2 { A[i / 2] = 1; }";
    let lp = compile(src).unwrap();
    let panicked = std::panic::catch_unwind(|| run_sequential(&lp)).is_err();
    assert!(
        panicked,
        "fractional subscript must panic with a clear message"
    );
}

#[test]
fn deeply_nested_expressions_and_blocks() {
    let src = "array A[4];\nfor i in 0..4 {\n  if i > 0 { if i > 1 { if i > 2 { A[i] = ((1 + 2) * (3 + 4)); } } }\n}";
    let lp = compile(src).unwrap();
    let (arrays, _) = run_sequential(&lp);
    assert_eq!(arrays[0].1, vec![0.0, 0.0, 0.0, 21.0]);
}
