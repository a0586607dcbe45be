//! The symbolic dependence classifier (GCD test + Banerjee-style bound
//! intersection + interval analysis, `depend.rs`) against the exact
//! enumeration oracle (`classify_loop_exact`), over randomly generated
//! affine loops.
//!
//! The oracle evaluates every subscript of every iteration concretely —
//! the brute-force ground truth the paper-era compiler would never
//! afford at run time. The symbolic classifier must reach the *same*
//! class for every array without touching the iteration space. On the
//! affine fragment generated here (literal coefficients and offsets,
//! `i >= k` guards, `%`-subscripted reductions) the GCD/Banerjee
//! machinery is exact, so agreement is equality, not one-sided
//! soundness. The same loops hold each row of the pair table
//! (`LoopDeps`) to an enumeration of the iteration pairs that collide.

use proptest::prelude::*;
use rlrpd_lang::ast::{BinOp, Expr, Program, Stmt};
use rlrpd_lang::depend::{Certainty, LoopDeps};
use rlrpd_lang::{classify_loop, classify_loop_exact, parse};

/// Build a random affine loop over A (strided/backward refs), B
/// (disjoint writes and reads of A), and H (modulo reduction).
///
/// Every template keeps its subscripts in bounds by construction:
/// coefficients are at most 3, offsets at most `n + 8`, and the array
/// sizes leave headroom (`4n + 24`).
fn program(n: usize, stmts: &[(u8, usize, usize, usize)]) -> String {
    let sz = 4 * n + 24;
    let mut body = String::new();
    for &(kind, a, b, k) in stmts {
        let a = (a % 3) + 1; // stride 1..=3
        let b = b % 8; // offset 0..8
        let k = (k % (n / 4).max(1)) + 1; // backward distance 1..=n/4
        match kind % 7 {
            // Strided write: conflicts with any read/write that can
            // land on the same residue class.
            0 => body.push_str(&format!("  A[{a} * i + {b}] = i + {b};\n")),
            // Guarded backward read at literal distance k: a Must
            // dependence with distance k (demoted to May by the guard).
            1 => body.push_str(&format!("  if i >= {k} {{ A[i] = A[i - {k}] + 1; }}\n")),
            // Read A through an affine subscript, write B disjointly.
            2 => body.push_str(&format!("  B[i] = A[{a} * i + {b}] * 0.5;\n")),
            // Modulo-subscripted reduction: interval analysis gives the
            // subscript an opaque-but-finite range; the update-only
            // reference pattern classifies it as a reduction.
            3 => body.push_str("  H[i % 8] += 1;\n"),
            // Shifted write to B: write-write dependence at distance b
            // against template 2's B[i] when both are present.
            4 => body.push_str(&format!("  B[i + {b}] = i;\n")),
            // Far read of A: offset n - k + 1 puts the crossing with a
            // stride-1 reference at the far end of the range (distance n
            // never collides, n - 1 once) and with a wider stride on the
            // edge of the solution window.
            5 => body.push_str(&format!("  B[i] = A[{a} * i + {}] * 0.25;\n", n - k + 1)),
            // Same-iteration read-modify-write: no cross-iteration pair.
            _ => body.push_str("  let v = A[i] + 1;\n  A[i] = v;\n"),
        }
    }
    format!("array A[{sz}] = 1;\narray B[{sz}] = 2;\narray H[8];\nfor i in 0..{n} {{\n{body}}}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The symbolic classifier's class equals the oracle's class for
    /// every array of every generated affine loop.
    #[test]
    fn symbolic_classifier_agrees_with_exact_oracle(
        n in 16usize..64,
        stmts in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()),
            1..5,
        ),
    ) {
        let src = program(n, &stmts);
        let prog = parse(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let symbolic = classify_loop(&prog, 0);
        let exact = classify_loop_exact(&prog, 0);
        for (j, (s, e)) in symbolic.iter().zip(&exact).enumerate() {
            prop_assert_eq!(
                &s.class,
                e,
                "array {} of:\n{}\nsymbolic rationale: {}",
                prog.arrays[j].name,
                src,
                s.rationale
            );
        }
    }
}

/// Every reference's subscript value at iteration `i`, per array in the
/// order `collect_refs` lists them (an update is a write then a read of
/// one element), with every guard taken — the premise the table is
/// decided under. `None` where the value depends on array contents.
fn subscripts_at(prog: &Program, i: i64) -> Vec<Vec<Option<i64>>> {
    struct Walk {
        i: i64,
        locals: Vec<Option<i64>>,
        out: Vec<Vec<Option<i64>>>,
    }
    impl Walk {
        fn eval(&self, e: &Expr) -> Option<i64> {
            match e {
                Expr::Num(n) => (n.fract() == 0.0).then_some(*n as i64),
                Expr::LoopVar => Some(self.i),
                Expr::Local(slot) => self.locals[*slot],
                Expr::Neg(x) => Some(-self.eval(x)?),
                Expr::Bin { op, lhs, rhs } => {
                    let (l, r) = (self.eval(lhs)?, self.eval(rhs)?);
                    match op {
                        BinOp::Add => Some(l + r),
                        BinOp::Sub => Some(l - r),
                        BinOp::Mul => Some(l * r),
                        BinOp::Rem if r != 0 => Some(l.rem_euclid(r)),
                        BinOp::Ge => Some(i64::from(l >= r)),
                        _ => None,
                    }
                }
                _ => None,
            }
        }
        fn expr(&mut self, e: &Expr) {
            match e {
                Expr::Read { array, index, .. } => {
                    let v = self.eval(index);
                    self.out[*array].push(v);
                    self.expr(index);
                }
                Expr::Bin { lhs, rhs, .. } => {
                    self.expr(lhs);
                    self.expr(rhs);
                }
                Expr::Neg(x) | Expr::Not(x) => self.expr(x),
                Expr::Call { args, .. } => args.iter().for_each(|a| self.expr(a)),
                _ => {}
            }
        }
        fn stmts(&mut self, body: &[Stmt]) {
            for s in body {
                match s {
                    Stmt::Let { slot, expr } => {
                        self.expr(expr);
                        self.locals[*slot] = self.eval(expr);
                    }
                    Stmt::Assign {
                        array, index, expr, ..
                    }
                    | Stmt::Update {
                        array, index, expr, ..
                    } => {
                        let v = self.eval(index);
                        self.out[*array].push(v);
                        if matches!(s, Stmt::Update { .. }) {
                            self.out[*array].push(v);
                        }
                        self.expr(index);
                        self.expr(expr);
                    }
                    Stmt::If {
                        cond,
                        then_body,
                        else_body,
                        ..
                    } => {
                        self.expr(cond);
                        self.stmts(then_body);
                        self.stmts(else_body);
                    }
                    Stmt::Break { cond } => self.expr(cond),
                    Stmt::Bump => {}
                }
            }
        }
    }
    let nest = &prog.loops[0];
    let mut w = Walk {
        i,
        locals: vec![None; nest.num_locals],
        out: vec![Vec::new(); prog.arrays.len()],
    };
    w.stmts(&nest.body);
    w.out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each row of the pair table against enumeration of the colliding
    /// iteration pairs: an unguarded `Must` row's distance and first
    /// sink are the enumerated minima; a uniform row collides at its
    /// one distance only, source first, and at every iteration that
    /// distance allows; a pair without a row never collides.
    #[test]
    fn every_table_row_matches_enumeration(
        n in 16usize..64,
        stmts in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()),
            1..5,
        ),
    ) {
        let src = program(n, &stmts);
        let prog = parse(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let deps = LoopDeps::build(&prog, 0);
        let (lo, hi) = prog.loops[0].range;
        let at: Vec<_> = (lo..hi).map(|i| subscripts_at(&prog, i as i64)).collect();
        let value = |it: usize, array: usize, r: usize| {
            at[it - lo][array][r].expect("generated subscripts are pure")
        };
        for (array, refs) in deps.refs.iter().enumerate() {
            let acc = &refs.accesses;
            prop_assert_eq!(acc.len(), at[0][array].len(), "walk order of {}", src);
            let pairs = (0..acc.len()).flat_map(|p| (p..acc.len()).map(move |q| (p, q)));
            for (p, q) in pairs.filter(|&(p, q)| acc[p].is_write || acc[q].is_write) {
                // (iteration of p, iteration of q) for every collision.
                let hits: Vec<(usize, usize)> = (lo..hi)
                    .flat_map(|i| (lo..hi).map(move |j| (i, j)))
                    .filter(|&(i, j)| i != j && value(i, array, p) == value(j, array, q))
                    .collect();
                let Some(row) = deps.rows(array).find(|r| (r.p, r.q) == (p, q)) else {
                    prop_assert!(
                        hits.is_empty(),
                        "{}/{} of array {} has no row yet collides at {:?}:\n{}",
                        p, q, array, hits[0], src
                    );
                    continue;
                };
                prop_assert!(!hits.is_empty(), "{:?} never collides:\n{}", row, src);
                if !row.guarded && row.dep.certainty == Certainty::Must {
                    let dist = hits.iter().map(|&(i, j)| i.abs_diff(j)).min();
                    let sink = hits.iter().map(|&(i, j)| i.max(j)).min();
                    if row.dep.distance.is_some() {
                        prop_assert_eq!(row.dep.distance, dist, "{:?}:\n{}", row, src);
                    }
                    if row.dep.first_sink.is_some() {
                        prop_assert_eq!(row.dep.first_sink, sink, "{:?}:\n{}", row, src);
                    }
                }
                if row.uniform {
                    let d = row.dep.distance.expect("a uniform row has a distance");
                    let (source, sink) = if row.reversed { (q, p) } else { (p, q) };
                    for &(i, j) in &hits {
                        let (at_source, at_sink) = if row.reversed { (j, i) } else { (i, j) };
                        prop_assert_eq!(at_sink, at_source + d, "{:?} off distance:\n{}", row, src);
                    }
                    for i in lo + d..hi {
                        prop_assert_eq!(
                            value(i, array, sink),
                            value(i - d, array, source),
                            "{:?} skips iteration {}:\n{}",
                            row, i, src
                        );
                    }
                }
            }
        }
    }
}
