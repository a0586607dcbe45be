//! The `.rlp` lint pass — "clippy for speculative loops".
//!
//! Consumes the structured verdicts of [`crate::analyze`] and turns
//! them into leveled, span-carrying diagnostics:
//!
//! * **errors** — the program asserts something the analysis refutes
//!   (an `untested` hint on an array with a proven cross-iteration
//!   dependence would make speculative runs silently wrong);
//! * **warnings** — the loop is speculation-hostile in a way the
//!   programmer could fix (a guard alone forcing the LRPD test, mixed
//!   reduction operators, data-dependent subscripts);
//! * **notes** — what the pass decided and what to expect at run time
//!   (detected reductions, predicted shadow structure, the
//!   `⌈n/(p·d)⌉`-stage schedule implied by a dependence distance).
//!
//! Driven by the `rlrpd analyze` CLI subcommand.

use crate::analyze::{analyze_program, Class, Classification, LoopAnalysis};
use crate::ast::{Program, Span};
use crate::depend::{Certainty, DoacrossVerdict};

/// Severity of a [`Diagnostic`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Informational: what the pass decided.
    Note,
    /// The loop is speculation-hostile but correct.
    Warning,
    /// The program asserts something the analysis refutes.
    Error,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Level::Error => "error",
            Level::Warning => "warning",
            Level::Note => "note",
        })
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Severity.
    pub level: Level,
    /// Stable kebab-case lint name (e.g. `guard-forced-test`).
    pub code: &'static str,
    /// Source position the finding points at (line 0 = whole program).
    pub span: Span,
    /// Which loop the finding concerns.
    pub loop_index: usize,
    /// Which array the finding concerns, when one.
    pub array: Option<String>,
    /// Statically computed dependence distance backing the finding,
    /// when the geometry is known — carried even for `May` evidence
    /// (a guarded conflict has an exact distance *if* it fires).
    pub distance: Option<usize>,
    /// The finding involves a guarded (conditional) reference, so any
    /// reported distance is contingent on the guard firing.
    pub guarded: bool,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]: {}", self.level, self.code, self.message)?;
        if self.span.line > 0 {
            write!(f, "\n  --> {}", self.span)?;
        }
        Ok(())
    }
}

/// Lint every loop of `program` assuming `p` processors (the schedule
/// estimates need `p`).
pub fn lint(program: &Program, p: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (k, LoopAnalysis { classes, plan }) in analyze_program(program).iter().enumerate() {
        let (lo, hi) = program.loops[k].range;
        let n = hi.saturating_sub(lo);

        // Fully elided loops deserve saying so: no array needs the
        // LRPD test, so the loop runs as a single parallel doall.
        if classes.iter().all(|c| matches!(c.class, Class::Untested)) {
            out.push(Diagnostic {
                level: Level::Note,
                code: "loop-parallel",
                span: program.loops[k].span,
                loop_index: k,
                array: None,
                distance: None,
                guarded: false,
                message: format!(
                    "loop {k} needs no LRPD instrumentation: every array is statically \
                     safe, so all shadows are elided and the loop runs as one parallel \
                     stage"
                ),
            });
        }

        // The distance proof: every cross-iteration dependence at a
        // proven uniform distance, or the reference that blocks it.
        match &plan.verdict {
            DoacrossVerdict::Eligible => {
                let dmin = plan.min_distance().unwrap_or(1);
                let distances = plan.distances();
                out.push(Diagnostic {
                    level: Level::Note,
                    code: "doacross-eligible",
                    span: program.loops[k].span,
                    loop_index: k,
                    array: None,
                    distance: Some(dmin),
                    guarded: false,
                    message: format!(
                        "loop {k}: every cross-iteration dependence is proven at uniform \
                         distance{} {distances:?}",
                        if distances.len() == 1 { "" } else { "s" },
                    ),
                });
            }
            DoacrossVerdict::Blocked(b) => {
                let span = b
                    .reference
                    .as_ref()
                    .map(|r| r.span)
                    .unwrap_or(program.loops[k].span);
                out.push(Diagnostic {
                    level: Level::Note,
                    code: "doacross-blocked",
                    span,
                    loop_index: k,
                    array: b.array.map(|id| program.arrays[id].name.clone()),
                    distance: None,
                    guarded: b.reference.as_ref().is_some_and(|r| r.guard.is_some()),
                    message: format!("loop {k} has no uniform-distance proof: {}", b.reason),
                });
            }
            // A doall: no dependence to prove a distance for; the
            // loop-parallel / per-array notes say so.
            DoacrossVerdict::Independent => {}
        }
        for (id, c) in classes.iter().enumerate() {
            let decl = &program.arrays[id];
            let mut d = |level, code, span, message, distance: Option<usize>, guarded: bool| {
                out.push(Diagnostic {
                    level,
                    code,
                    span,
                    loop_index: k,
                    array: Some(decl.name.clone()),
                    distance,
                    guarded,
                    message,
                });
            };
            let decl_span = Span::at(decl.line, 1);
            let name = &decl.name;

            if let Some(u) = &c.unhinted {
                lint_hint(c, u, name, decl_span, &mut d);
            } else {
                match c.class {
                    Class::Tested => {
                        if let Some((a, b)) = c.mixed_ops {
                            d(
                                Level::Warning,
                                "mixed-reduction-ops",
                                b,
                                format!(
                                    "array '{name}' mixes reduction operators at {a} and {b}; \
                                     a single operator throughout would make it a parallel \
                                     reduction"
                                ),
                                None,
                                false,
                            );
                        } else if let Some(g) = c.guard_only {
                            d(
                                Level::Warning,
                                "guard-forced-test",
                                g,
                                format!(
                                    "array '{name}' is Tested only because of the guard at \
                                     {g}; without the conditional references it is provably \
                                     iteration-disjoint"
                                ),
                                None,
                                true,
                            );
                        } else if let Some(ev) = &c.evidence {
                            match ev.certainty {
                                Certainty::Must => d(
                                    Level::Warning,
                                    "cross-iteration-dependence",
                                    ev.sink.span,
                                    format!(
                                        "array '{name}' has a proven cross-iteration \
                                         dependence between {} ({}) and {} ({}){}",
                                        ev.src.text,
                                        ev.src.span,
                                        ev.sink.text,
                                        ev.sink.span,
                                        match ev.distance {
                                            Some(dist) => format!(", minimum distance {dist}"),
                                            None => String::new(),
                                        }
                                    ),
                                    ev.distance,
                                    ev.guarded,
                                ),
                                Certainty::May => d(
                                    Level::Warning,
                                    "data-dependent-subscript",
                                    ev.src.span,
                                    match ev.distance {
                                        // A guarded conflict with known
                                        // geometry: the distance holds
                                        // *if* the guard fires.
                                        Some(dist) => format!(
                                            "array '{name}' may conflict across iterations: \
                                             {} vs {} sits at distance {dist} but only under \
                                             a guard, so the LRPD test must instrument every \
                                             reference",
                                            ev.src.text, ev.sink.text
                                        ),
                                        None => format!(
                                            "array '{name}' may conflict across iterations: \
                                             {} vs {} cannot be analyzed statically, so the LRPD \
                                             test must instrument every reference",
                                            ev.src.text, ev.sink.text
                                        ),
                                    },
                                    ev.distance,
                                    ev.guarded,
                                ),
                            }
                        }
                    }
                    Class::Reduction(op) => d(
                        Level::Note,
                        "reduction-detected",
                        decl_span,
                        format!(
                            "array '{name}' is a speculative '{}' reduction (validated at \
                             run time, folded in parallel)",
                            op.symbol()
                        ),
                        None,
                        false,
                    ),
                    Class::Untested if c.touch.is_none() => d(
                        Level::Note,
                        "unused-array",
                        decl_span,
                        format!("array '{name}' is never referenced by loop {k}"),
                        None,
                        false,
                    ),
                    Class::Untested if c.restore_free => d(
                        Level::Note,
                        "no-undo",
                        decl_span,
                        format!(
                            "array '{name}' keeps no undo log: written unconditionally at \
                             its own element and never read, so re-executing a discarded \
                             block rewrites everything it wrote"
                        ),
                        None,
                        false,
                    ),
                    Class::Untested => {}
                }
            }

            // Schedule prediction: a proven minimum distance bounds how
            // fast the recursive R-LRPD run can converge.
            if let Some(ev) = &c.evidence {
                if let (Certainty::Must, Some(dist)) = (ev.certainty, ev.distance) {
                    if dist > 0 && p > 0 && n > 0 {
                        let stages = n.div_ceil(p * dist).max(1);
                        d(
                            Level::Note,
                            "schedule-estimate",
                            ev.sink.span,
                            format!(
                                "minimum dependence distance {dist} on '{name}' ⇒ expect \
                                 ≈⌈n/(p·d)⌉ = ⌈{n}/({p}·{dist})⌉ = {stages}-stage R-LRPD \
                                 schedule at p = {p}"
                            ),
                            Some(dist),
                            ev.guarded,
                        );
                    }
                }
            }

            // Shadow prediction for instrumented arrays.
            if !matches!(c.class, Class::Untested) {
                if let Some(t) = c.touch {
                    d(
                        Level::Note,
                        "shadow-selection",
                        decl_span,
                        format!(
                            "array '{name}': predicted touch density {:.1}% ({} of {} \
                             elements) selects a {} shadow",
                            t.density * 100.0,
                            t.touched,
                            decl.size,
                            rlrpd_shadow::select::choose(decl.size, t.touched).describe(),
                        ),
                        None,
                        false,
                    );
                }
            }
        }
    }
    out.sort_by_key(|d| (d.loop_index, std::cmp::Reverse(d.level), d.span.line));
    out
}

/// Lints for hinted declarations: compare the hint against what the
/// analysis alone concludes.
fn lint_hint(
    c: &Classification,
    u: &Classification,
    name: &str,
    decl_span: Span,
    d: &mut impl FnMut(Level, &'static str, Span, String, Option<usize>, bool),
) {
    match (c.class, u.class) {
        (Class::Untested, Class::Tested) => {
            if let Some(ev) = u
                .evidence
                .as_ref()
                .filter(|e| e.certainty == Certainty::Must)
            {
                d(
                    Level::Error,
                    "unsound-hint",
                    ev.sink.span,
                    format!(
                        "array '{name}' is declared 'untested' but two iterations provably \
                         touch the same element: {} ({}) vs {} ({}){}; speculative runs \
                         would commit wrong values without the LRPD test",
                        ev.src.text,
                        ev.src.span,
                        ev.sink.text,
                        ev.sink.span,
                        match ev.distance {
                            Some(dist) => format!(", distance {dist}"),
                            None => String::new(),
                        }
                    ),
                    ev.distance,
                    ev.guarded,
                );
            } else {
                d(
                    Level::Warning,
                    "unverifiable-hint",
                    decl_span,
                    format!(
                        "array '{name}' is declared 'untested' but the analysis cannot \
                         prove it iteration-disjoint ({})",
                        u.rationale
                    ),
                    None,
                    false,
                );
            }
        }
        (Class::Tested, Class::Untested) => d(
            Level::Warning,
            "redundant-test-hint",
            decl_span,
            format!(
                "array '{name}' is declared 'tested' but provably iteration-disjoint; \
                 dropping the hint elides its shadow and marking entirely"
            ),
            None,
            false,
        ),
        (Class::Reduction(op), other) if !matches!(other, Class::Reduction(_)) => d(
            Level::Warning,
            "unverifiable-hint",
            decl_span,
            format!(
                "array '{name}' is declared 'reduction({})' but its references do not \
                 all match the 'x {}= expr' pattern ({})",
                op.symbol(),
                op.symbol(),
                u.rationale
            ),
            None,
            false,
        ),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    fn lints(src: &str) -> Vec<Diagnostic> {
        lint(&parse(src).unwrap(), 4)
    }

    fn find<'d>(ds: &'d [Diagnostic], code: &str) -> &'d Diagnostic {
        ds.iter()
            .find(|d| d.code == code)
            .unwrap_or_else(|| panic!("no '{code}' in {ds:#?}"))
    }

    #[test]
    fn unsound_untested_hint_is_an_error() {
        let ds = lints("array A[101] : untested;\nfor i in 1..100 { A[i] = A[i - 1] + 1; }");
        let d = find(&ds, "unsound-hint");
        assert_eq!(d.level, Level::Error);
        assert_eq!(d.span.line, 2, "points at the conflicting reference");
        assert!(d.message.contains("distance 1"), "{}", d.message);
    }

    #[test]
    fn redundant_tested_hint_warns() {
        let ds = lints("array A[100] : tested;\nfor i in 0..100 { A[i] = i; }");
        let d = find(&ds, "redundant-test-hint");
        assert_eq!(d.level, Level::Warning);
        assert_eq!(d.span.line, 1, "points at the declaration");
    }

    #[test]
    fn guard_forced_test_points_at_the_guard() {
        let ds = lints(
            "array A[110];\nfor i in 0..100 { if i % 7 == 0 { A[i + 5] = 1; } A[i] = A[i] + 1; }",
        );
        let d = find(&ds, "guard-forced-test");
        assert_eq!(d.level, Level::Warning);
        assert_eq!(d.span.line, 2);
    }

    #[test]
    fn mixed_reduction_ops_warns_with_both_spans() {
        let ds = lints("array Y[10];\nfor i in 0..10 {\n  Y[0] += 1;\n  Y[1] *= 2;\n}");
        let d = find(&ds, "mixed-reduction-ops");
        assert!(
            d.message.contains("3:") && d.message.contains("4:"),
            "{}",
            d.message
        );
    }

    #[test]
    fn schedule_estimate_uses_distance_and_p() {
        // n = 92, d = 8, p = 4 -> ceil(92 / 32) = 3 stages.
        let ds = lints("array A[200];\nfor i in 8..100 { A[i] = A[i - 8] + 1; }");
        let d = find(&ds, "schedule-estimate");
        assert_eq!(d.level, Level::Note);
        assert!(d.message.contains("3-stage"), "{}", d.message);
    }

    #[test]
    fn clean_programs_lint_clean_modulo_notes() {
        let ds = lints("array A[100];\nfor i in 0..100 { A[i] = i; }");
        assert!(
            ds.iter().all(|d| d.level == Level::Note),
            "only notes: {ds:#?}"
        );
    }

    #[test]
    fn reduction_and_shadow_notes_fire() {
        let ds = lints("array Y[1000];\nfor i in 0..100 { Y[i % 16] += 1; }");
        assert_eq!(find(&ds, "reduction-detected").level, Level::Note);
        let s = find(&ds, "shadow-selection");
        assert!(s.message.contains("16 of 1000"), "{}", s.message);
    }

    #[test]
    fn unused_arrays_get_a_note() {
        let ds = lints("array A[8];\narray B[8];\nfor i in 0..8 { A[i] = i; }");
        let d = find(&ds, "unused-array");
        assert_eq!(d.array.as_deref(), Some("B"));
    }

    #[test]
    fn only_a_restore_free_array_gets_the_no_undo_note() {
        // `A` written at its own element and never read; `B` behind a
        // guard; `C` also read.
        let ds = lints(
            "array A[8];\narray B[8];\narray C[8];\n\
             for i in 0..8 { A[i] = i; if i > 3 { B[i] = 1; } C[i] = C[i] + 1; }",
        );
        let notes: Vec<_> = ds.iter().filter(|d| d.code == "no-undo").collect();
        assert_eq!(notes.len(), 1, "{ds:#?}");
        assert_eq!(notes[0].array.as_deref(), Some("A"));
        assert_eq!(notes[0].level, Level::Note);
    }

    #[test]
    fn doacross_eligible_carries_the_proven_distances() {
        let ds = lints("array A[200];\nfor i in 8..100 { A[i] = A[i - 8] + 1; }");
        let d = find(&ds, "doacross-eligible");
        assert_eq!(d.level, Level::Note);
        assert_eq!(d.distance, Some(8));
        assert!(!d.guarded);
        assert!(d.message.ends_with("uniform distance [8]"), "{}", d.message);
    }

    #[test]
    fn doacross_blocked_names_the_blocking_reference() {
        // The guarded write defeats the proof even though its geometry
        // is a clean distance-5 conflict.
        let ds = lints(
            "array A[110];\nfor i in 0..100 { if i % 2 == 0 { A[i + 5] = 1; } A[i] = A[i] + 2; }",
        );
        let d = find(&ds, "doacross-blocked");
        assert_eq!(d.level, Level::Note);
        assert_eq!(d.array.as_deref(), Some("A"));
        assert!(d.guarded, "the blocking reference sits under a guard");
        assert!(
            d.message.contains("A[(i + 5)]") && d.message.contains("guard"),
            "{}",
            d.message
        );
    }

    #[test]
    fn doacross_blocked_on_opaque_subscripts() {
        let ds = lints("array A[600];\nfor i in 0..512 { A[(i * 11) % 512] = A[i] + 1; }");
        let d = find(&ds, "doacross-blocked");
        assert!(d.message.contains("opaque"), "{}", d.message);
    }

    #[test]
    fn independent_loops_get_neither_doacross_code() {
        let ds = lints("array A[100];\nfor i in 0..100 { A[i] = i; }");
        assert!(
            !ds.iter().any(|d| d.code.starts_with("doacross-")),
            "doalls say loop-parallel, not doacross-*: {ds:#?}"
        );
        find(&ds, "loop-parallel");
    }

    #[test]
    fn guarded_may_evidence_carries_distance() {
        // Satellite fix: a guarded conflict with known geometry must
        // surface the distance (with guarded = true), not drop it. The
        // unguarded opaque write keeps the array Tested even without
        // the guard (so no guard-forced-test), and among the May
        // candidates the guarded distance-5 pair ranks first because
        // its geometry is known.
        let ds = lints(
            "array A[200];\nfor i in 0..100 { if i % 2 == 0 { A[i + 5] = 1; } A[(i * 3) % 150] = A[i] + 1; }",
        );
        let d = find(&ds, "data-dependent-subscript");
        assert_eq!(d.distance, Some(5), "geometry known despite May: {d:#?}");
        assert!(d.guarded);
        assert!(d.message.contains("distance 5"), "{}", d.message);
    }

    #[test]
    fn every_example_program_gets_a_doacross_verdict() {
        // Every shipped .rlp must produce, per loop, exactly one of:
        // doacross-eligible, doacross-blocked, or (for doalls) neither
        // plus a loop-parallel-compatible analysis — and the β deck
        // must be the one that is eligible.
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs");
        let mut saw_eligible = false;
        let mut saw_blocked = false;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("rlp") {
                continue;
            }
            let src = std::fs::read_to_string(&path).unwrap();
            let program = parse(&src).unwrap();
            let ds = lint(&program, 4);
            for k in 0..program.loops.len() {
                let eligible = ds
                    .iter()
                    .filter(|d| d.loop_index == k && d.code == "doacross-eligible")
                    .count();
                let blocked = ds
                    .iter()
                    .filter(|d| d.loop_index == k && d.code == "doacross-blocked")
                    .count();
                assert!(
                    eligible + blocked <= 1,
                    "{}: loop {k} got contradictory doacross verdicts",
                    path.display()
                );
                saw_eligible |= eligible == 1;
                saw_blocked |= blocked == 1;
                if eligible == 1 {
                    let d = ds
                        .iter()
                        .find(|d| d.loop_index == k && d.code == "doacross-eligible")
                        .unwrap();
                    assert!(
                        d.distance.is_some(),
                        "{}: eligible without distance",
                        path.display()
                    );
                }
            }
        }
        assert!(
            saw_eligible,
            "the β deck (beta_pipeline.rlp) must be eligible"
        );
        assert!(saw_blocked, "TRACK/NLFILT-style examples must be blocked");
    }

    #[test]
    fn diagnostics_render_with_spans() {
        let ds = lints("array A[101] : untested;\nfor i in 1..100 { A[i] = A[i - 1] + 1; }");
        let text = format!("{}", find(&ds, "unsound-hint"));
        assert!(text.starts_with("error[unsound-hint]:"), "{text}");
        assert!(text.contains("--> 2:"), "{text}");
    }
}
