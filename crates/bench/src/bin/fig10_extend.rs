//! Fig. 10 — EXTEND_400: (a) parallelism ratio and (b) speedup.
//!
//! The conditional-induction-variable technique: two speculative doalls
//! plus a prefix sum and a range test. Clean decks pass the test at
//! every processor count (PR = 1); the contended deck trips the range
//! test and falls back to sequential execution, pushing PR to 1/2. The
//! paper reports about 60% of the hand-parallelized speedup; our
//! virtual speedups carry both doalls' work plus commit/sync overhead,
//! giving the same sub-ideal shape.

use rlrpd_bench::{fmt, print_table, PROCS};
use rlrpd_core::{run_induction, CostModel, ExecMode};
use rlrpd_loops::extend::{ExtendInput, ExtendLoop};

fn main() {
    println!("Fig. 10: EXTEND 400 — (a) PR and (b) speedup per input deck");
    let cost = CostModel::default();

    let mut pr_rows = Vec::new();
    let mut sp_rows = Vec::new();
    for &p in PROCS {
        let mut pr_row = vec![p.to_string()];
        let mut sp_row = vec![p.to_string()];
        for input in ExtendInput::all() {
            let lp = ExtendLoop::new(input);
            let res = run_induction(&lp, p, ExecMode::Simulated, cost).unwrap();
            pr_row.push(fmt(res.report.pr()));
            sp_row.push(fmt(res.report.speedup()));
        }
        pr_rows.push(pr_row);
        sp_rows.push(sp_row);
    }

    let headers: Vec<String> = std::iter::once("procs".to_string())
        .chain(ExtendInput::all().iter().map(|i| i.name.to_string()))
        .collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table("(a) parallelism ratio", &headers, &pr_rows);
    print_table("(b) speedup (two-pass scheme)", &headers, &sp_rows);
    println!(
        "\nThe two-doall scheme bounds the speedup near p/2 of ideal — the paper's\n\
         \"about 60% of the speedup obtainable through hand-parallelization\"."
    );

    // Cross-validation: the same pattern written in the mini language
    // (counter/bump) compiles to the identical scheme and shape.
    let src = "
        array TRACK[4700];
        counter lsttrk = 600;
        cost 2;
        for i in 0..4000 {
            let a = TRACK[(i * 13) % 600];
            let b = TRACK[(i * 7 + 5) % 600];
            TRACK[lsttrk] = a * 0.5 + b * 0.25 + i;
            if (i * 2654435761) % 100 < 35 { bump lsttrk; }
        }";
    let compiled = rlrpd_lang::CompiledInduction::compile(src).expect("compiles");
    let mut rows = Vec::new();
    for &p in PROCS {
        let res = run_induction(&compiled, p, ExecMode::Simulated, cost).unwrap();
        assert!(
            res.test_passed,
            "source-level EXTEND must pass the range test"
        );
        rows.push(vec![
            p.to_string(),
            fmt(res.report.pr()),
            fmt(res.report.speedup()),
        ]);
    }
    print_table(
        "EXTEND from mini-language source (counter/bump)",
        &["procs", "PR", "speedup"],
        &rows,
    );
}
