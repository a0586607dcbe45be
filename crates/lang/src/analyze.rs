//! The static classifier — the compile-time half of the paper's
//! Polaris run-time pass.
//!
//! For each declared array the pass must decide how the transformed
//! loop treats it:
//!
//! * **reduction** — every reference has the shape `A[e] ⊕= expr` with
//!   one operator and `expr` free of `A` (the paper's footnote-1
//!   pattern): parallelize speculatively as a reduction;
//! * **untested** — no two *different* iterations can touch the same
//!   element with a write involved: statically safe for any block
//!   schedule, only checkpointing is needed;
//! * **tested** — anything else (indirection, data-dependent
//!   subscripts, guarded cross-iteration writes, or affine subscripts
//!   with provable cross-iteration conflicts): privatize, mark, and run
//!   the LRPD test.
//!
//! The conflict decision is a fold over the loop's one pair table
//! ([`LoopDeps`], the symbolic GCD/Banerjee analysis) — O(refs²) per
//! array, independent of the loop range — as is the DOACROSS proof
//! ([`analyze_loop`]), and every verdict carries structured evidence: the
//! conflicting reference pair with source spans, the minimum dependence
//! distance when one is provable, and a predicted touch-density
//! estimate for shadow selection. The pre-symbolic exact enumerator is
//! retained as [`classify_loop_exact`], the ground-truth oracle the
//! symbolic path is property-tested against.

use crate::ast::*;
use crate::bytecode::fold_expr;
use crate::depend::{
    self, body_has_break, doacross_plan, touch_estimate, Certainty, ConflictEvidence, DoacrossPlan,
    LoopDeps, Subscript, TouchEstimate,
};
use std::collections::HashMap;

/// How the run-time system will treat an array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Privatize + LRPD test.
    Tested,
    /// Direct writes + checkpoint.
    Untested,
    /// Speculative reduction with the given operator.
    Reduction(UpdateOp),
}

/// Classification of one array: the decision plus the structured
/// evidence behind it.
#[derive(Clone, Debug)]
pub struct Classification {
    /// The decision.
    pub class: Class,
    /// Human-readable rationale (for diagnostics / reports).
    pub rationale: String,
    /// The dependence that forced (or could force) the LRPD test:
    /// conflicting reference pair, certainty, distance, first sink.
    pub evidence: Option<ConflictEvidence>,
    /// Predicted number of distinct elements touched / density
    /// (`None` when the loop never references the array).
    pub touch: Option<TouchEstimate>,
    /// When the array is Tested *only* because of conditional
    /// references: the span of the responsible guard.
    pub guard_only: Option<Span>,
    /// Spans of two updates with different `⊕` operators (the broken
    /// reduction pattern), when that is what forced the test.
    pub mixed_ops: Option<(Span, Span)>,
    /// For hinted declarations: what the analysis alone would have
    /// decided (drives the unsound-hint / redundant-hint lints).
    pub unhinted: Option<Box<Classification>>,
    /// An untested array whose discarded writes need no undo: never
    /// read, every store unconditional at a subscript affine in `i`, in
    /// a loop without `break` — re-execution rewrites whatever a
    /// discarded block left. Only the analysis sets it, never a hint.
    pub restore_free: bool,
}

impl Classification {
    fn new(class: Class, rationale: impl Into<String>) -> Self {
        Classification {
            class,
            rationale: rationale.into(),
            evidence: None,
            touch: None,
            guard_only: None,
            mixed_ops: None,
            unhinted: None,
            restore_free: false,
        }
    }
}

/// Everything the pass decides about one loop, each a fold over the
/// loop's one dependence table ([`LoopDeps`]).
#[derive(Debug)]
pub struct LoopAnalysis {
    /// Per-array classifications (declaration order).
    pub classes: Vec<Classification>,
    /// The DOACROSS eligibility proof.
    pub plan: DoacrossPlan,
}

/// Analyze every loop of `program`: `result[loop]`. An array may be
/// tested in one loop and untested in another — each loop instance gets
/// its own run-time treatment, exactly as the pass instruments each loop
/// separately.
pub fn analyze_program(program: &Program) -> Vec<LoopAnalysis> {
    (0..program.loops.len())
        .map(|k| analyze_loop(program, k))
        .collect()
}

/// Build loop `k`'s dependence table once and fold it into the
/// per-array classifications and the DOACROSS proof.
pub fn analyze_loop(program: &Program, k: usize) -> LoopAnalysis {
    let deps = LoopDeps::build(program, k);
    let (lo, hi) = program.loops[k].range;
    let classes: Vec<Classification> = program
        .arrays
        .iter()
        .enumerate()
        .map(|(id, decl)| {
            let mut c = classify_array(decl.hint, &deps, id);
            let accesses = &deps.refs[id].accesses;
            if !accesses.is_empty() {
                c.touch = Some(touch_estimate(accesses, lo, hi, decl.size));
            }
            // (A counter program runs the induction scheme, which
            // keeps its own log.)
            c.restore_free = decl.hint.is_none()
                && program.counter.is_none()
                && c.class == Class::Untested
                && !body_has_break(&program.loops[k].body)
                && accesses.iter().any(|a| a.is_write)
                && accesses.iter().all(|a| {
                    a.is_write
                        && a.guard.is_none()
                        && matches!(a.subscript, Subscript::Affine { .. })
                });
            c
        })
        .collect();
    let plan = doacross_plan(program, k, &deps, &classes);
    LoopAnalysis { classes, plan }
}

/// Classify every array of loop `k` (declaration order).
pub fn classify_loop(program: &Program, k: usize) -> Vec<Classification> {
    analyze_loop(program, k).classes
}

fn classify_array(hint: Option<KindHint>, deps: &LoopDeps, id: usize) -> Classification {
    if let Some(hint) = hint {
        let class = match hint {
            KindHint::Tested => Class::Tested,
            KindHint::Untested => Class::Untested,
            KindHint::Reduction(op) => Class::Reduction(op),
        };
        let mut c = Classification::new(class, "explicit declaration hint");
        // What the analysis alone would say — the hint lints compare.
        c.unhinted = Some(Box::new(classify_array(None, deps, id)));
        return c;
    }

    let refs = &deps.refs[id];
    if !refs.updates.is_empty() && !refs.non_reduction_ref {
        let (op, first_span) = refs.updates[0];
        if refs.updates.iter().all(|&(o, _)| o == op) {
            return Classification::new(
                Class::Reduction(op),
                format!(
                    "referenced only as 'x {}= expr' with x not in expr",
                    op.symbol()
                ),
            );
        }
        let (_, other_span) = *refs.updates.iter().find(|&&(o, _)| o != op).unwrap();
        let mut c = Classification::new(Class::Tested, "mixed reduction operators");
        c.mixed_ops = Some((first_span, other_span));
        return c;
    }

    if refs.accesses.is_empty() {
        return Classification::new(Class::Untested, "never referenced by the loop");
    }
    if !refs.accesses.iter().any(|a| a.is_write) {
        return Classification::new(Class::Untested, "read-only");
    }

    // The strongest row of the loop's table (GCD + Banerjee + interval
    // disjointness) — never enumerates the loop range.
    match deps.evidence(id) {
        Some(ev) => {
            let mut c = Classification::new(Class::Tested, describe(&ev));
            // Every conflicting pair involves a conditional reference:
            // a guard alone forces the test — worth a diagnostic.
            if deps.rows(id).all(|r| r.guarded) {
                c.guard_only = ev.src.guard.or(ev.sink.guard);
            }
            c.evidence = Some(ev);
            c
        }
        None => Classification::new(
            Class::Untested,
            "provably iteration-disjoint (GCD/Banerjee)",
        ),
    }
}

fn describe(ev: &ConflictEvidence) -> String {
    match (ev.certainty, ev.distance) {
        (Certainty::Must, Some(d)) => format!(
            "cross-iteration dependence between {} and {} (min distance {d})",
            ev.src.text, ev.sink.text
        ),
        (Certainty::Must, None) => format!(
            "cross-iteration dependence forced by {} (pigeonhole: more iterations than reachable elements)",
            ev.src.text
        ),
        (Certainty::May, _) if ev.guarded => format!(
            "possible cross-iteration conflict between {} and {} behind a guard",
            ev.src.text, ev.sink.text
        ),
        (Certainty::May, _) => format!(
            "data-dependent subscript: {} may conflict with {} across iterations",
            ev.src.text, ev.sink.text
        ),
    }
}

/// The exact-enumeration oracle: classify every array of loop `k` by
/// concretely evaluating every subscript at every iteration — the
/// pre-symbolic classifier, kept as the ground truth that
/// [`classify_loop`] is tested against. Subscripts that are not pure
/// functions of the iteration (array reads, the induction counter)
/// conservatively count as conflicting. O(iterations × body) — use
/// only on small ranges.
pub fn classify_loop_exact(program: &Program, k: usize) -> Vec<Class> {
    let refs = depend::collect_refs(program, k);
    let nest = &program.loops[k];
    let (lo, hi) = nest.range;

    let mut tables: Vec<HashMap<i64, Group>> =
        (0..program.arrays.len()).map(|_| HashMap::new()).collect();
    let mut impure = vec![false; program.arrays.len()];

    for i in lo..hi {
        let mut w = ExactWalk {
            i: i as f64,
            iter: i,
            locals: vec![None; nest.num_locals],
            tables: &mut tables,
            impure: &mut impure,
        };
        w.stmts(&nest.body);
    }

    program
        .arrays
        .iter()
        .enumerate()
        .map(|(id, decl)| {
            if let Some(hint) = decl.hint {
                return match hint {
                    KindHint::Tested => Class::Tested,
                    KindHint::Untested => Class::Untested,
                    KindHint::Reduction(op) => Class::Reduction(op),
                };
            }
            let r = &refs[id];
            if !r.updates.is_empty() && !r.non_reduction_ref {
                let op = r.updates[0].0;
                return if r.updates.iter().all(|&(o, _)| o == op) {
                    Class::Reduction(op)
                } else {
                    Class::Tested
                };
            }
            if r.accesses.is_empty() {
                return Class::Untested;
            }
            if !r.accesses.iter().any(|a| a.is_write) {
                return Class::Untested;
            }
            if impure[id] {
                return Class::Tested;
            }
            if tables[id].values().any(|g| g.has_write && g.multi) {
                Class::Tested
            } else {
                Class::Untested
            }
        })
        .collect()
}

/// One iteration of the oracle's walk: evaluates pure subscripts with
/// the language's arithmetic ([`fold_expr`]), assumes every guard
/// taken.
struct ExactWalk<'t> {
    i: f64,
    iter: usize,
    locals: Vec<Option<f64>>,
    tables: &'t mut Vec<HashMap<i64, Group>>,
    impure: &'t mut Vec<bool>,
}

/// Per-element record of the oracle's enumeration: first touching
/// iteration, whether any write touched it, whether two distinct
/// iterations touched it.
struct Group {
    has_write: bool,
    iter: usize,
    multi: bool,
}

impl ExactWalk<'_> {
    /// Pure evaluation with the language's arithmetic
    /// ([`fold_expr`]); `None` when the value depends on array contents
    /// or the induction counter.
    fn eval(&self, e: &Expr) -> Option<f64> {
        fold_expr(e, &|leaf| match leaf {
            Expr::LoopVar => Some(self.i),
            Expr::Local(slot) => self.locals.get(*slot).copied().flatten(),
            _ => None,
        })
    }

    fn record(&mut self, array: usize, index: &Expr, is_write: bool) {
        let idx = match self.eval(index) {
            Some(v) if (v - v.round()).abs() < 1e-9 => v.round() as i64,
            _ => {
                self.impure[array] = true;
                return;
            }
        };
        let iter = self.iter;
        self.tables[array]
            .entry(idx)
            .and_modify(|g| {
                g.has_write |= is_write;
                if g.iter != iter {
                    g.multi = true;
                }
            })
            .or_insert(Group {
                has_write: is_write,
                iter,
                multi: false,
            });
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Read { array, index, .. } => {
                self.record(*array, index, false);
                self.expr(index);
            }
            Expr::Bin { lhs, rhs, .. } => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Neg(e) | Expr::Not(e) => self.expr(e),
            Expr::Call { args, .. } => {
                for a in args {
                    self.expr(a);
                }
            }
            Expr::Num(_) | Expr::LoopVar | Expr::Counter | Expr::Local(_) => {}
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
                } => {
                    self.record(*array, index, true);
                    self.expr(index);
                    self.expr(expr);
                }
                Stmt::Update {
                    array, index, expr, ..
                } => {
                    // Read-modify-write of one element.
                    self.record(*array, index, true);
                    self.record(*array, index, false);
                    self.expr(index);
                    self.expr(expr);
                }
                Stmt::Bump => {}
                Stmt::Break { cond } => self.expr(cond),
                Stmt::If {
                    then_body,
                    else_body,
                    cond,
                    ..
                } => {
                    self.expr(cond);
                    // Guards are conservatively assumed taken.
                    self.stmts(then_body);
                    self.stmts(else_body);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn classes(src: &str) -> Vec<Class> {
        let p = parse(src).unwrap();
        classify_loop(&p, 0).into_iter().map(|c| c.class).collect()
    }

    fn full(src: &str) -> Vec<Classification> {
        classify_loop(&parse(src).unwrap(), 0)
    }

    #[test]
    fn disjoint_affine_writes_are_untested() {
        let c = classes("array A[100];\nfor i in 0..100 { A[i] = i; }");
        assert_eq!(c, vec![Class::Untested]);
    }

    #[test]
    fn shifted_affine_read_conflicts() {
        // A[i] written, A[i-1] read: cross-iteration flow dependence.
        let c = classes("array A[101];\nfor i in 1..100 { A[i] = A[i - 1] + 1; }");
        assert_eq!(c, vec![Class::Tested]);
    }

    #[test]
    fn same_iteration_rmw_is_untested() {
        let c = classes("array A[100];\nfor i in 0..100 { A[i] = A[i] * 2; }");
        assert_eq!(c, vec![Class::Untested]);
    }

    #[test]
    fn strided_writes_that_collide_are_tested() {
        // i % 10 wraps: 100 iterations into 10 slots.
        let c = classes("array A[10];\nfor i in 0..100 { A[i % 10] = i; }");
        assert_eq!(c, vec![Class::Tested]);
    }

    #[test]
    fn constant_subscript_write_is_tested() {
        // Every iteration writes A[0]: output dependence.
        let c = classes("array A[4];\nfor i in 0..10 { A[0] = i; }");
        assert_eq!(c, vec![Class::Tested]);
    }

    #[test]
    fn read_only_arrays_are_untested() {
        let c = classes("array A[10];\narray B[10];\nfor i in 0..10 { A[i] = B[3] + B[i]; }");
        assert_eq!(c, vec![Class::Untested, Class::Untested]);
    }

    #[test]
    fn indirection_is_tested() {
        let c = classes("array A[10];\narray IDX[10];\nfor i in 0..10 { A[IDX[i]] = i; }");
        assert_eq!(c[0], Class::Tested, "A is indexed through IDX");
        assert_eq!(c[1], Class::Untested, "IDX itself is read-only");
    }

    #[test]
    fn pure_update_pattern_is_a_reduction() {
        let c = classes("array Y[10];\narray W[100];\nfor i in 0..100 { W[i] = i; Y[W[i]] += 1; }");
        assert_eq!(c[0], Class::Reduction(UpdateOp::Add));
    }

    #[test]
    fn update_reading_itself_is_not_a_reduction() {
        let c = classes("array Y[10];\nfor i in 0..10 { Y[i] += Y[0]; }");
        assert_eq!(c[0], Class::Tested);
    }

    #[test]
    fn update_mixed_with_assign_is_not_a_reduction() {
        let c = classes("array Y[10];\nfor i in 0..10 { Y[i] += 1; Y[0] = 5; }");
        assert_ne!(c[0], Class::Reduction(UpdateOp::Add));
    }

    #[test]
    fn mixed_update_operators_fall_back_to_tested() {
        let c = full("array Y[10];\nfor i in 0..10 { Y[0] += 1; Y[1] *= 2; }");
        assert_eq!(c[0].class, Class::Tested);
        let (a, b) = c[0].mixed_ops.expect("mixed-op spans recorded");
        assert_eq!((a.line, b.line), (2, 2));
    }

    #[test]
    fn affine_locals_propagate() {
        // let j = i + 1 keeps the subscript affine and disjoint.
        let c = classes("array A[101];\nfor i in 0..100 { let j = i + 1; A[j] = i; }");
        assert_eq!(c, vec![Class::Untested]);
    }

    #[test]
    fn data_dependent_locals_taint_subscripts() {
        let c =
            classes("array A[100];\narray B[100];\nfor i in 0..100 { let j = B[i]; A[j] = i; }");
        assert_eq!(c[0], Class::Tested);
    }

    #[test]
    fn guarded_conflicting_write_is_tested() {
        // The guard might not fire, but the pass must assume it can.
        let c = full(
            "array A[110];\nfor i in 0..100 { if i % 7 == 0 { A[i + 5] = 1; } A[i] = A[i] + 1; }",
        );
        assert_eq!(c[0].class, Class::Tested);
        let g = c[0].guard_only.expect("only the guard forces the test");
        assert_eq!(g.line, 2);
    }

    #[test]
    fn hints_override_analysis() {
        let c = full("array A[100] : tested;\nfor i in 0..100 { A[i] = i; }");
        assert_eq!(c[0].class, Class::Tested);
        let unhinted = c[0].unhinted.as_ref().expect("unhinted verdict recorded");
        assert_eq!(unhinted.class, Class::Untested, "the hint was redundant");
    }

    #[test]
    fn scaled_affine_subscripts_are_analyzed() {
        // 2*i and 2*i+1 never collide across iterations.
        let c = classes("array A[200];\nfor i in 0..100 { A[2 * i] = i; A[2 * i + 1] = i; }");
        assert_eq!(c, vec![Class::Untested]);
    }

    #[test]
    fn wrapped_modulo_stays_affine_when_in_range() {
        // i % 512 over 0..512 is the identity: still affine, disjoint.
        let c = classes("array A[512];\nfor i in 0..512 { A[i % 512] = i; }");
        assert_eq!(c, vec![Class::Untested]);
    }

    #[test]
    fn evidence_carries_distance_and_spans() {
        let c = full("array A[200];\nfor i in 8..100 { A[i] = A[i - 8] + 1; }");
        assert_eq!(c[0].class, Class::Tested);
        let ev = c[0].evidence.as_ref().expect("dependence evidence");
        assert_eq!(ev.distance, Some(8));
        assert_eq!(ev.first_sink, Some(16));
        assert_eq!(ev.certainty, Certainty::Must);
        assert!(ev.src.span.line > 0);
        assert!(c[0].rationale.contains("distance 8"), "{}", c[0].rationale);
    }

    #[test]
    fn touch_density_is_predicted() {
        let c = full("array A[1000];\nfor i in 0..100 { A[i % 16] += i; }");
        let t = c[0].touch.expect("touch estimate");
        assert_eq!(t.touched, 16);
        assert!(t.density < 0.02);
    }

    #[test]
    fn symbolic_classifier_matches_exact_oracle_on_fixed_cases() {
        for src in [
            "array A[100];\nfor i in 0..100 { A[i] = i; }",
            "array A[101];\nfor i in 1..100 { A[i] = A[i - 1] + 1; }",
            "array A[100];\nfor i in 0..100 { A[i] = A[i] * 2; }",
            "array A[10];\nfor i in 0..100 { A[i % 10] = i; }",
            "array A[4];\nfor i in 0..10 { A[0] = i; }",
            "array A[200];\nfor i in 0..100 { A[2 * i] = i; A[2 * i + 1] = i; }",
            "array A[300];\nfor i in 0..100 { let j = 2 * i + 5; A[j] = A[3 * j - 1]; }",
            "array Y[10];\nfor i in 0..10 { Y[i] += 1; }",
            "array A[512];\nfor i in 0..512 { A[i % 512] = i; }",
            "array A[110];\nfor i in 0..100 { if i % 7 == 0 { A[i + 5] = 1; } A[i] = A[i] + 1; }",
        ] {
            let p = parse(src).unwrap();
            let sym: Vec<Class> = classify_loop(&p, 0).into_iter().map(|c| c.class).collect();
            let exact = classify_loop_exact(&p, 0);
            assert_eq!(sym, exact, "disagreement on:\n{src}");
        }
    }

    #[test]
    fn oracle_is_sound_on_the_example_programs() {
        // Wherever the symbolic classifier says Untested, the exact
        // enumeration must find no conflict either (and vice versa the
        // oracle finding a conflict must mean we tested it).
        for src in [
            include_str!("../../../examples/programs/tracking.rlp"),
            include_str!("../../../examples/programs/lu_sparse.rlp"),
            include_str!("../../../examples/programs/premature_exit.rlp"),
            include_str!("../../../examples/programs/two_phase.rlp"),
            include_str!("../../../examples/programs/extend.rlp"),
        ] {
            let p = parse(src).unwrap();
            for k in 0..p.loops.len() {
                let sym = classify_loop(&p, k);
                let exact = classify_loop_exact(&p, k);
                for (id, (s, e)) in sym.iter().zip(&exact).enumerate() {
                    if s.class == Class::Untested {
                        assert_eq!(
                            *e,
                            Class::Untested,
                            "loop {k} array {id}: symbolic Untested but oracle disagrees"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn symbolic_classification_is_range_independent_fast() {
        // A petaiteration loop classifies instantly — the point of the
        // GCD/Banerjee path. (The oracle would never finish this.)
        let c =
            classes("array A[100];\nfor i in 0..1000000000000 { A[i % 100] = A[i % 100] + 1; }");
        assert_eq!(c, vec![Class::Tested]);
    }
}
