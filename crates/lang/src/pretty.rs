//! Pretty-printer: render a parsed [`Program`] back to source.
//!
//! Used for tooling (dumping what the pass actually understood) and as
//! the round-trip oracle of the parser property tests:
//! `parse(print(p)) == p` for every parseable program.

use crate::ast::*;
use std::fmt::Write;

/// Render `program` as parseable source text.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for d in &program.arrays {
        let _ = write!(out, "array {}[{}]", d.name, d.size);
        if d.init != 0.0 {
            let _ = write!(out, " = {}", num(d.init));
        }
        if let Some(hint) = d.hint {
            let _ = write!(
                out,
                " : {}",
                match hint {
                    KindHint::Tested => "tested".to_string(),
                    KindHint::Untested => "untested".to_string(),
                    KindHint::Reduction(op) => format!("reduction({})", op.symbol()),
                }
            );
        }
        out.push_str(";\n");
    }
    if let Some((name, init)) = &program.counter {
        let _ = writeln!(out, "counter {name} = {init};");
    }
    for nest in &program.loops {
        if nest.cost != 1.0 {
            let _ = writeln!(out, "cost {};", num(nest.cost));
        }
        let _ = writeln!(
            out,
            "for {} in {}..{} {{",
            nest.loop_var, nest.range.0, nest.range.1
        );
        let names = Names {
            program,
            loop_var: &nest.loop_var,
        };
        for s in &nest.body {
            stmt(&mut out, s, &names, 1);
        }
        out.push_str("}\n");
    }
    out
}

struct Names<'a> {
    program: &'a Program,
    loop_var: &'a str,
}

/// Render one array reference as source text (dependence diagnostics):
/// `NAME[(subscript)]`, in the printer's fully parenthesized form.
pub(crate) fn subscript_to_string(
    program: &Program,
    array: usize,
    index: &Expr,
    loop_var: &str,
) -> String {
    let names = Names { program, loop_var };
    let mut out = String::new();
    let _ = write!(out, "{}[", names.array(array));
    expr_str(&mut out, index, &names);
    out.push(']');
    out
}

impl Names<'_> {
    fn array(&self, id: usize) -> &str {
        &self.program.arrays[id].name
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn num(v: f64) -> String {
    // Integral values print without a fraction so they re-parse as the
    // same literal.
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn stmt(out: &mut String, s: &Stmt, names: &Names<'_>, depth: usize) {
    indent(out, depth);
    match s {
        Stmt::Let { slot, expr } => {
            let _ = write!(out, "let __l{slot} = ");
            expr_str(out, expr, names);
            out.push_str(";\n");
        }
        Stmt::Assign {
            array, index, expr, ..
        } => {
            let _ = write!(out, "{}[", names.array(*array));
            expr_str(out, index, names);
            out.push_str("] = ");
            expr_str(out, expr, names);
            out.push_str(";\n");
        }
        Stmt::Update {
            array,
            index,
            op,
            expr,
            ..
        } => {
            let _ = write!(out, "{}[", names.array(*array));
            expr_str(out, index, names);
            let _ = write!(out, "] {}= ", op.symbol());
            expr_str(out, expr, names);
            out.push_str(";\n");
        }
        Stmt::Bump => {
            let (name, _) = names
                .program
                .counter
                .as_ref()
                .expect("bump without counter");
            let _ = writeln!(out, "bump {name};");
        }
        Stmt::Break { cond } => {
            out.push_str("break if ");
            expr_str(out, cond, names);
            out.push_str(";\n");
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            out.push_str("if ");
            expr_str(out, cond, names);
            out.push_str(" {\n");
            for t in then_body {
                stmt(out, t, names, depth + 1);
            }
            indent(out, depth);
            out.push('}');
            if !else_body.is_empty() {
                out.push_str(" else {\n");
                for t in else_body {
                    stmt(out, t, names, depth + 1);
                }
                indent(out, depth);
                out.push('}');
            }
            out.push('\n');
        }
    }
}

fn expr_str(out: &mut String, e: &Expr, names: &Names<'_>) {
    match e {
        Expr::Num(v) => out.push_str(&num(*v)),
        Expr::LoopVar => out.push_str(names.loop_var),
        Expr::Counter => {
            let (name, _) = names.program.counter.as_ref().expect("counter expr");
            out.push_str(name);
        }
        Expr::Local(slot) => {
            let _ = write!(out, "__l{slot}");
        }
        Expr::Read { array, index, .. } => {
            let _ = write!(out, "{}[", names.array(*array));
            expr_str(out, index, names);
            out.push(']');
        }
        Expr::Neg(inner) => {
            out.push_str("(-");
            expr_str(out, inner, names);
            out.push(')');
        }
        Expr::Not(inner) => {
            out.push_str("(!");
            expr_str(out, inner, names);
            out.push(')');
        }
        Expr::Call { func, args } => {
            out.push_str(match func {
                Intrinsic::Min => "min",
                Intrinsic::Max => "max",
                Intrinsic::Abs => "abs",
                Intrinsic::Sqrt => "sqrt",
                Intrinsic::Floor => "floor",
            });
            out.push('(');
            for (k, a) in args.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                expr_str(out, a, names);
            }
            out.push(')');
        }
        Expr::Bin { op, lhs, rhs } => {
            out.push('(');
            expr_str(out, lhs, names);
            out.push_str(match op {
                BinOp::Add => " + ",
                BinOp::Sub => " - ",
                BinOp::Mul => " * ",
                BinOp::Div => " / ",
                BinOp::Rem => " % ",
                BinOp::Eq => " == ",
                BinOp::Ne => " != ",
                BinOp::Lt => " < ",
                BinOp::Le => " <= ",
                BinOp::Gt => " > ",
                BinOp::Ge => " >= ",
                BinOp::And => " && ",
                BinOp::Or => " || ",
            });
            expr_str(out, rhs, names);
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn normalize(p: &Program) -> Program {
        // Loop-var and local names are lost in printing (locals are
        // renamed __lN); re-parse normalizes, so compare the reprint.
        p.clone()
    }

    fn round_trip(src: &str) {
        let p1 = parse(src).unwrap();
        let printed = print_program(&p1);
        let p2 = parse(&printed).unwrap_or_else(|e| panic!("reprint failed: {e}\n{printed}"));
        // Structural equality up to (stable) local slot numbering: the
        // printer names locals by slot, so a second print is a fixpoint.
        assert_eq!(
            print_program(&p2),
            printed,
            "printing is a fixpoint\n{printed}"
        );
        assert_eq!(normalize(&p2).arrays, p1.arrays);
        assert_eq!(p2.counter, p1.counter);
        assert_eq!(p2.loops.len(), p1.loops.len());
        for (a, b) in p1.loops.iter().zip(&p2.loops) {
            assert_eq!(a.range, b.range);
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.body.len(), b.body.len());
        }
    }

    #[test]
    fn round_trips_a_kitchen_sink_program() {
        round_trip(
            "array A[64] = 1 : tested;\n\
             array Y[8] : reduction(+);\n\
             scalar s = -2;\n\
             cost 5;\n\
             for i in 0..64 {\n\
               let v = A[i] + min(i, 3);\n\
               if v > 2 && i != 5 { A[i] = -v; } else { A[i] = i % 7; }\n\
               Y[i % 8] += v * 2;\n\
               s = v;\n\
               break if i == 60;\n\
             }",
        );
    }

    #[test]
    fn round_trips_counter_programs() {
        round_trip("array T[100];\ncounter c = 10;\nfor i in 0..50 { T[c] = i; bump c; }");
    }

    #[test]
    fn round_trips_multi_loop_programs() {
        round_trip(
            "array A[16];\nfor i in 0..16 { A[i] = i; }\ncost 3;\nfor j in 0..16 { A[j] = A[j] * 2; }",
        );
    }

    #[test]
    fn classification_survives_the_round_trip() {
        // The printer may rename locals and normalize expression
        // nesting, but nothing it does is allowed to change what the
        // static analysis can prove: every array of every loop must
        // classify identically before and after a print/reparse cycle,
        // including the dependence evidence behind the class.
        for src in [
            // Affine strides, a guarded backward flow, a reduction.
            "array A[128] = 1;\narray H[8];\nfor i in 0..32 {\n  \
             let v = A[2 * i + 1];\n  \
             if i >= 9 { A[i] = A[i - 9] + v; }\n  \
             H[i % 8] += v;\n}",
            // Data-dependent subscript: must stay Tested.
            "array IDX[16] = 1;\narray A[32];\nfor i in 0..16 { A[IDX[i]] = i; }",
            // Provably disjoint writes: must stay Untested (elided).
            "array B[64];\nfor i in 0..32 { B[i + 4] = i; }",
            // Counter program under the induction scheme.
            "array T[100];\ncounter c = 10;\nfor i in 0..50 { T[c] = i; bump c; }",
        ] {
            let p1 = parse(src).unwrap();
            let printed = print_program(&p1);
            let p2 = parse(&printed).unwrap_or_else(|e| panic!("reprint failed: {e}\n{printed}"));
            let c1 = crate::analyze_program(&p1);
            let c2 = crate::analyze_program(&p2);
            assert_eq!(c1.len(), c2.len());
            for (k, (l1, l2)) in c1.iter().zip(&c2).enumerate() {
                for (j, (a, b)) in l1.classes.iter().zip(&l2.classes).enumerate() {
                    assert_eq!(
                        a.class, b.class,
                        "loop {k}, array {}: class changed across round trip\n{printed}",
                        p1.arrays[j].name
                    );
                    assert_eq!(
                        a.evidence.as_ref().and_then(|e| e.first_sink),
                        b.evidence.as_ref().and_then(|e| e.first_sink),
                        "loop {k}, array {}: first sink changed across round trip",
                        p1.arrays[j].name
                    );
                    assert_eq!(
                        a.evidence.as_ref().and_then(|e| e.distance),
                        b.evidence.as_ref().and_then(|e| e.distance),
                        "loop {k}, array {}: distance changed across round trip",
                        p1.arrays[j].name
                    );
                }
            }
        }
    }

    #[test]
    fn semantics_survive_the_round_trip() {
        use rlrpd_core::RunConfig;
        let src = "array A[32] = 1;\nscalar t;\nfor i in 0..32 {\n  t = i * 2;\n  if i % 5 == 0 && i > 0 { A[i] = A[i - 3] + t; } else { A[i] = t; }\n}";
        let p1 = crate::CompiledProgram::compile(src).unwrap();
        let printed = print_program(p1.program());
        let p2 = crate::CompiledProgram::compile(&printed).unwrap();
        assert_eq!(
            p1.run(RunConfig::new(4)).arrays,
            p2.run(RunConfig::new(4)).arrays
        );
    }
}
