//! # rlrpd-lang — the run-time pass as a library
//!
//! The paper's implementation is "mostly done by our run-time pass in
//! Polaris": a compiler pass that looks at a Fortran loop, decides
//! which arrays need the LRPD test, and emits the transformed loop with
//! marking code. This crate is that pass for a mini loop language:
//! write the loop as text, and [`compile`] parses it, **statically
//! classifies every array** (tested / untested / reduction — see
//! [`analyze`]) and produces a [`CompiledLoop`] that plugs into every
//! driver in `rlrpd-core` ([`rlrpd_core::SpecLoop`]).
//!
//! ```
//! use rlrpd_lang::compile;
//! use rlrpd_core::{run_sequential, run_speculative, RunConfig};
//!
//! let lp = compile(
//!     "array A[64];
//!      array B[64] = 1;
//!      for i in 0..64 {
//!          let src = (i * 7 + 3) % 64;   # input-dependent in spirit
//!          A[i] = A[src] + B[i];         # -> A is TESTED (non-affine read)
//!          B[i] = B[i] * 2;              # -> B is UNTESTED (disjoint affine)
//!      }",
//! )
//! .unwrap();
//!
//! let spec = run_speculative(&lp, RunConfig::new(4));
//! let (seq, _) = run_sequential(&lp);
//! assert_eq!(spec.array("A"), &seq[0].1[..]);
//! assert_eq!(spec.array("B"), &seq[1].1[..]);
//! ```
//!
//! The language: `array NAME[SIZE] (= INIT)? (: tested|untested|
//! reduction(+|*))?;` and `scalar NAME (= INIT)?;` declarations, then
//! one or more loops (each optionally preceded by a `cost N;`
//! directive): `for VAR in LO..HI { … }` with `let` bindings,
//! `A[e] = e;` assignments, `A[e] += e;` / `A[e] *= e;` updates,
//! scalar assignments, `if/else` blocks, `break if c;` premature
//! exits, and the `min/max/abs/sqrt/floor` intrinsics. Values are
//! `f64`; `#` starts a line comment. Scalars desugar to one-element
//! arrays, so write-first scalars privatize speculatively, `s += e`
//! scalars become parallel reductions, and loop-carried scalars
//! serialize correctly under the test.
//!
//! There is one compile path: parse, analyse every loop, lower. Its
//! output is a [`CompiledProgram`], which [`CompiledLoop`] (one loop)
//! and [`CompiledInduction`] (one loop and a `counter`) wrap as
//! [`SpecLoop`]s — for the speculative drivers, and for the EXTEND
//! induction scheme ([`rlrpd_core::run_induction`]), which runs on the
//! same engine. One tier dispatch (bytecode VM or tree-walk) runs the
//! bodies of both, on the one iteration context.

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod bytecode;
pub mod depend;
pub mod error;
mod interp;
pub mod lint;
pub mod parse;
pub mod pretty;
pub mod token;
mod vm;

pub use analyze::{
    analyze_loop, analyze_program, classify_loop, classify_loop_exact, Class, Classification,
    LoopAnalysis,
};
pub use depend::{DoacrossBlock, DoacrossDep, DoacrossPlan, DoacrossVerdict};
pub use error::LangError;
pub use lint::{lint, Diagnostic, Level};
pub use parse::parse;
pub use pretty::print_program;

use ast::Program;
use bytecode::{lower_loop, LoopCode};
use interp::Eval;
use rlrpd_core::{
    ArrayDecl, ArrayKind, BatchTally, IterCtx, Reduction, RunConfig, RunReport, RunResult,
    ShadowKind, SpecLoop,
};
use std::ops::Range;

/// Which execution tier runs the loop bodies.
///
/// Compilation always lowers to bytecode; the backend selects what the
/// engines actually execute per iteration. The tree-walk interpreter is
/// kept as the differential oracle (and `--no-compile` escape hatch) —
/// the two tiers are byte-identical by construction and by test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The register bytecode VM (default).
    Bytecode,
    /// The tree-walk AST interpreter (oracle / escape hatch).
    TreeWalk,
}

impl Backend {
    /// Human-readable backend name, as printed by the CLI.
    pub fn describe(self) -> &'static str {
        match self {
            Backend::Bytecode => "bytecode VM",
            Backend::TreeWalk => "tree-walk interpreter",
        }
    }
}

/// A compiled mini-language program: one or more loops, executed in
/// sequence over shared arrays, each with its own classification.
#[derive(Debug)]
pub struct CompiledProgram {
    program: Program,
    /// `analyses[loop]`: the classifications and the DOACROSS plan,
    /// decided once per loop.
    analyses: Vec<LoopAnalysis>,
    /// Plain per-loop class tables (`class_tables[loop][array]`),
    /// precomputed so the per-iteration body never rebuilds them.
    class_tables: Vec<Vec<Class>>,
    /// Leaked array names, declaration order.
    names: Vec<&'static str>,
    /// When set, `Untested` verdicts are ignored at declaration time
    /// and every non-reduction array is fully instrumented — the
    /// baseline the shadow-elision tests compare against.
    ///
    /// The *bytecode* is unchanged by this flag: elided `Load`/`Store`
    /// ops still route through the context, which re-arms marking when
    /// the declaration is flipped back to `Tested`.
    full_instrumentation: bool,
    /// Per-loop lowered bytecode (`bytecode[loop]`), produced
    /// unconditionally at compile time.
    bytecode: Vec<LoopCode>,
    /// Which tier executes the loop bodies.
    backend: Backend,
    /// Test seam: keep the VM at one iteration per dispatch even where
    /// the loop is eligible for strips.
    scalar_vm: bool,
}

/// One row of the observed-vs-predicted shadow audit
/// (`rlrpd analyze --audit`): what the static touch-density model
/// predicted for an array against the representation its observed
/// touch density calls for.
#[derive(Clone, Debug)]
pub struct DensityAuditRow {
    /// Which loop the row concerns.
    pub loop_index: usize,
    /// Array name.
    pub array: String,
    /// Declared array size.
    pub size: usize,
    /// Statically predicted distinct elements touched.
    pub predicted_touched: usize,
    /// Representation the static selector chose from the prediction.
    pub predicted_repr: &'static str,
    /// Representation the observed touch density calls for (the run's
    /// own kind for an array no stage touched).
    pub observed_repr: String,
}

impl DensityAuditRow {
    /// True when the prediction matched run-time behavior.
    pub fn agrees(&self) -> bool {
        self.predicted_repr == self.observed_repr
    }
}

/// Results of running a whole program speculatively.
#[derive(Clone, Debug)]
pub struct ProgramResult {
    /// Final contents of every declared array.
    pub arrays: Vec<(&'static str, Vec<f64>)>,
    /// One run report per loop, in program order.
    pub reports: Vec<RunReport>,
}

impl ProgramResult {
    /// The final contents of the array named `name`.
    pub fn array(&self, name: &str) -> &[f64] {
        &self
            .arrays
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no array named '{name}'"))
            .1
    }

    /// Aggregate virtual speedup over sequential execution of the whole
    /// program.
    pub fn speedup(&self) -> f64 {
        let work: f64 = self.reports.iter().map(|r| r.sequential_work).sum();
        let time: f64 = self.reports.iter().map(|r| r.virtual_time()).sum();
        work / time
    }
}

impl CompiledProgram {
    /// Parse and classify `src` (any number of loops).
    pub fn compile(src: &str) -> Result<Self, LangError> {
        let program = parse(src)?;
        if program.counter.is_some() {
            return Err(LangError::general(
                "programs with a counter use the induction scheme: CompiledInduction::compile",
            ));
        }
        Ok(Self::build(program))
    }

    /// The one compile path of both schemes: analyse every loop, leak
    /// the array names (`ArrayDecl` requires `&'static str`; one small
    /// leak per compilation), build the class tables and lower.
    ///
    /// A counter program's `Reduction` verdicts are demoted to `Tested`
    /// first: the induction scheme is held to bit identity with
    /// sequential execution, which a reassociated fold would break, so
    /// `⊕=` routes as plain read-modify-write and no `Reduce`
    /// instruction is emitted. Every other verdict is the speculative
    /// scheme's.
    fn build(program: Program) -> Self {
        let mut analyses = analyze_program(&program);
        if program.counter.is_some() {
            for c in analyses.iter_mut().flat_map(|a| &mut a.classes) {
                if matches!(c.class, Class::Reduction(_)) {
                    c.class = Class::Tested;
                }
            }
        }
        let class_tables = analyses
            .iter()
            .map(|a| a.classes.iter().map(|c| c.class).collect())
            .collect();
        let names = program
            .arrays
            .iter()
            .map(|d| &*Box::leak(d.name.clone().into_boxed_str()))
            .collect();
        let bytecode = program
            .loops
            .iter()
            .zip(&analyses)
            .map(|(nest, a)| lower_loop(nest, &a.classes))
            .collect();
        CompiledProgram {
            program,
            analyses,
            class_tables,
            names,
            full_instrumentation: false,
            bytecode,
            backend: Backend::Bytecode,
            scalar_vm: false,
        }
    }

    /// Disable shadow elision: every non-reduction array is declared
    /// `Tested`, with the shadow its predicted touch density selects,
    /// regardless of the static verdict.
    /// Reductions keep their classification (their parallel fold is a
    /// different commit path, not an instrumentation level). This is
    /// the always-instrumented baseline the elision tests compare
    /// against — results must be byte-identical.
    pub fn with_full_instrumentation(mut self) -> Self {
        self.full_instrumentation = true;
        self
    }

    /// Execute loop bodies on the tree-walk interpreter instead of the
    /// bytecode VM — the differential oracle, exposed on the CLI as
    /// `--no-compile`.
    pub fn with_interpreter(mut self) -> Self {
        self.backend = Backend::TreeWalk;
        self
    }

    /// Keep the bytecode VM at one iteration per dispatch on every
    /// loop. Not a user knob (nothing outside the tests selects it):
    /// the differential suites hold the strip executor to this path,
    /// reference for reference.
    #[doc(hidden)]
    pub fn with_scalar_vm(mut self) -> Self {
        self.scalar_vm = true;
        self
    }

    /// Which execution tier runs the loop bodies.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The lowered bytecode of loop `k`.
    pub fn loop_code(&self, k: usize) -> &LoopCode {
        &self.bytecode[k]
    }

    /// Human-readable disassembly of every loop's bytecode.
    pub fn disassembly(&self) -> String {
        let mut out = String::new();
        for (k, code) in self.bytecode.iter().enumerate() {
            out.push_str(&self.loop_header(k));
            out.push_str(&code.disassemble(&self.names, &self.program.loops[k].loop_var));
        }
        out
    }

    /// `loop K (for VAR in LO..HI):`, the line that heads loop `k` in
    /// the disassembly and in a multi-loop report.
    fn loop_header(&self, k: usize) -> String {
        let nest = &self.program.loops[k];
        let (lo, hi) = nest.range;
        format!("loop {k} (for {} in {lo}..{hi}):\n", nest.loop_var)
    }

    /// Number of loops in the program.
    pub fn num_loops(&self) -> usize {
        self.program.loops.len()
    }

    /// Number of iterations of loop `k`.
    fn iters_of(&self, k: usize) -> usize {
        let (lo, hi) = self.program.loops[k].range;
        hi - lo
    }

    /// The classifications of loop `k` (declaration order).
    pub fn classifications(&self, k: usize) -> &[Classification] {
        &self.analyses[k].classes
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// A [`SpecLoop`] view of loop `k`, starting from the given array
    /// contents (declaration order).
    pub fn loop_view(&self, k: usize, init: Vec<Vec<f64>>) -> ProgramLoop<'_> {
        assert_eq!(init.len(), self.program.arrays.len());
        ProgramLoop {
            prog: self,
            k,
            init,
        }
    }

    /// The DOACROSS eligibility proof for loop `k`, built at compile
    /// time: the uniform distance set, source/sink roles, and (when
    /// blocked) the reference that forced speculation. See
    /// [`depend::doacross_plan`].
    pub fn doacross_plan(&self, k: usize) -> &DoacrossPlan {
        &self.analyses[k].plan
    }

    /// Initial array contents from the declarations (declaration
    /// order): the state the first loop starts from.
    pub fn initial_arrays(&self) -> Vec<Vec<f64>> {
        self.program
            .arrays
            .iter()
            .map(|d| vec![d.init; d.size])
            .collect()
    }

    /// The statically-predicted first dependence sink of loop `k`: the
    /// earliest iteration any Tested array's dependence evidence says
    /// can consume a cross-iteration value (`None` when the analysis
    /// found no dependence or could not bound the sink). An iteration
    /// index in `0..n`, as the run reports the observed one — the
    /// evidence holds a loop-variable value.
    pub fn predicted_first_dependence(&self, k: usize) -> Option<usize> {
        let lo = self.program.loops[k].range.0;
        self.analyses[k]
            .classes
            .iter()
            .filter_map(|c| c.evidence.as_ref().and_then(|ev| ev.first_sink))
            .min()
            .map(|sink| sink - lo)
    }

    /// A program is a sequence of loops through one path: `run_loop(k,
    /// state)` executes loop `k` from the array contents `state`
    /// (declaration order) however the caller sees fit — which view,
    /// which tier, journaled, fault-injected, verified — and its final
    /// arrays are the state the next loop starts from. The one place
    /// state is threaded through a program's speculative runs.
    pub fn run_loops<E>(
        &self,
        mut run_loop: impl FnMut(usize, Vec<Vec<f64>>) -> Result<RunResult<f64>, E>,
    ) -> Result<ProgramResult, E> {
        let mut state = self.initial_arrays();
        let mut reports = Vec::new();
        for k in 0..self.num_loops() {
            let res = run_loop(k, state)?;
            state = res.arrays.into_iter().map(|(_, data)| data).collect();
            reports.push(res.report);
        }
        Ok(ProgramResult {
            arrays: self.names.iter().copied().zip(state).collect(),
            reports,
        })
    }

    /// Execute the whole program speculatively: each loop runs under
    /// its own speculative run, state flowing from one to the next.
    /// Each loop's config carries that loop's statically-predicted
    /// first dependence sink so the report can compare it with the
    /// observed one.
    pub fn run(&self, cfg: RunConfig) -> ProgramResult {
        let Ok(res) = self.run_loops(|k, state| {
            let cfg = cfg.with_dependence_prediction(self.predicted_first_dependence(k));
            let view = self.loop_view(k, state);
            Ok::<_, std::convert::Infallible>(rlrpd_core::run_speculative(&view, cfg))
        });
        res
    }

    /// Run the program speculatively and compare every instrumented
    /// array's statically predicted shadow representation against
    /// [`rlrpd_shadow::select::choose`] over the run's observed touches
    /// (the densest processor of the last stage touching it)
    /// — the static touch-density model audited against marking.
    pub fn density_audit(&self, cfg: RunConfig) -> Vec<DensityAuditRow> {
        let res = self.run(cfg);
        let mut rows = Vec::new();
        for (k, report) in res.reports.iter().enumerate() {
            for (decl, class) in self.program.arrays.iter().zip(&self.analyses[k].classes) {
                let touched = class.touch.map_or(0, |t| t.touched);
                let predicted = rlrpd_shadow::select::choose(decl.size, touched).describe();
                // Only arrays the run actually instrumented appear on
                // the report (elided arrays have no shadow to audit).
                let reprs = &report.shadow_reprs;
                let Some(at) = reprs.iter().position(|(name, _)| name == &decl.name) else {
                    continue;
                };
                let observed_repr = match report.shadow_touches[at] {
                    0 => reprs[at].1.clone(),
                    seen => rlrpd_shadow::select::choose(decl.size, seen)
                        .describe()
                        .into(),
                };
                rows.push(DensityAuditRow {
                    loop_index: k,
                    array: decl.name.clone(),
                    size: decl.size,
                    predicted_touched: touched,
                    predicted_repr: predicted,
                    observed_repr,
                });
            }
        }
        rows
    }

    /// Execute the whole program sequentially (ground truth).
    pub fn run_sequential(&self) -> Vec<(&'static str, Vec<f64>)> {
        let mut state = self.initial_arrays();
        for k in 0..self.num_loops() {
            let view = self.loop_view(k, state);
            let (arrays, _) = rlrpd_core::run_sequential(&view);
            state = arrays.into_iter().map(|(_, data)| data).collect();
        }
        self.names.iter().copied().zip(state).collect()
    }

    /// Pretty per-loop, per-array report of the pass's decisions.
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (k, analysis) in self.analyses.iter().enumerate() {
            if self.num_loops() > 1 {
                out.push_str(&self.loop_header(k));
            }
            for (decl, c) in self.program.arrays.iter().zip(&analysis.classes) {
                let kind = match c.class {
                    Class::Tested => "TESTED   ".to_string(),
                    Class::Untested => "UNTESTED ".to_string(),
                    Class::Reduction(op) => format!("REDUCTION({})", op.symbol()),
                };
                let undo = match c.restore_free {
                    true => "; no undo: written unconditionally at its own element, never read",
                    false => "",
                };
                let _ = writeln!(out, "{:<10} {} — {}{undo}", decl.name, kind, c.rationale);
            }
            let _ = writeln!(out, "{}", self.describe_strips(k));
        }
        out
    }

    /// One line saying whether the bytecode VM runs loop `k` in strips
    /// of [`bytecode::STRIP`] iterations, and the static reason when
    /// not.
    fn describe_strips(&self, k: usize) -> String {
        use bytecode::{StripRefusal, STRIP};
        match self.bytecode[k].strip_refusal() {
            None => format!(
                "strips: {STRIP} iterations per dispatch, tested per strip, replayed in order"
            ),
            Some(StripRefusal::Exit) => {
                "strips: off — 'break if' ends the loop at one iteration".into()
            }
            Some(StripRefusal::Counter) => {
                "strips: off — the induction counter threads through the iterations".into()
            }
            Some(StripRefusal::MustDistance { array, distance }) => format!(
                "strips: off — '{}' carries a Must dependence at distance {distance} < {STRIP}",
                self.program.arrays[array].name
            ),
        }
    }

    /// The body of iteration `iter` of loop `k`: the one tier dispatch
    /// of both schemes.
    fn body_of(&self, k: usize, iter: usize, ctx: &mut IterCtx<'_, f64>) {
        let nest = &self.program.loops[k];
        let i = (nest.range.0 + iter) as f64;
        match self.backend {
            Backend::Bytecode => vm::iterate(&self.bytecode[k], i, ctx),
            Backend::TreeWalk => interp::with_locals(nest.num_locals, |locals| {
                let mut eval = Eval {
                    i,
                    locals,
                    classes: &self.class_tables[k],
                    ctx,
                };
                let _ = eval.stmts(&nest.body);
            }),
        }
    }

    /// [`SpecLoop::run_iters`] of loop `k`: the VM's strips where the
    /// loop is eligible, the per-iteration loop otherwise.
    fn run_iters_of(
        &self,
        k: usize,
        iters: Range<usize>,
        ctx: &mut IterCtx<'_, f64>,
        after: &mut dyn FnMut(&mut IterCtx<'_, f64>, usize) -> bool,
    ) -> BatchTally {
        match self.backend {
            Backend::Bytecode => {
                let first = self.program.loops[k].range.0;
                vm::run_range(&self.bytecode[k], first, iters, !self.scalar_vm, ctx, after)
            }
            Backend::TreeWalk => {
                for iter in iters {
                    self.body_of(k, iter, ctx);
                    if !after(ctx, 1) {
                        break;
                    }
                }
                BatchTally::default()
            }
        }
    }

    fn decls_for(&self, k: usize, init: Vec<Vec<f64>>) -> Vec<ArrayDecl<f64>> {
        self.program
            .arrays
            .iter()
            .zip(&self.analyses[k].classes)
            .zip(&self.names)
            .zip(init)
            .map(|(((decl, class), &name), data)| {
                // Shadow selection from the predicted touch density
                // (arrays the loop never references predict 0 touches).
                let touched = class.touch.map_or(0, |t| t.touched);
                let shadow = rlrpd_shadow::select::choose(decl.size, touched);
                match class.class {
                    Class::Tested => ArrayDecl::tested(name, data, shadow),
                    // Shadow elision: a statically safe array gets no
                    // shadow and no marking (unless the elision-check
                    // baseline asked for full instrumentation).
                    Class::Untested if !self.full_instrumentation => ArrayDecl {
                        name,
                        kind: ArrayKind::Untested {
                            restore_free: class.restore_free,
                        },
                        init: data,
                    },
                    Class::Untested => ArrayDecl::tested(name, data, shadow),
                    Class::Reduction(op) => ArrayDecl::reduction(
                        name,
                        data,
                        shadow,
                        match op {
                            ast::UpdateOp::Add => Reduction::sum(),
                            ast::UpdateOp::Mul => Reduction::product(),
                        },
                    ),
                }
            })
            .collect()
    }
}

/// One loop of a [`CompiledProgram`], viewed as a [`SpecLoop`] starting
/// from explicit array contents.
pub struct ProgramLoop<'a> {
    prog: &'a CompiledProgram,
    k: usize,
    init: Vec<Vec<f64>>,
}

impl SpecLoop<f64> for ProgramLoop<'_> {
    fn num_iters(&self) -> usize {
        self.prog.iters_of(self.k)
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        self.prog.decls_for(self.k, self.init.clone())
    }

    fn body(&self, iter: usize, ctx: &mut IterCtx<'_, f64>) {
        self.prog.body_of(self.k, iter, ctx)
    }

    fn run_iters(
        &self,
        iters: Range<usize>,
        ctx: &mut IterCtx<'_, f64>,
        after: &mut dyn FnMut(&mut IterCtx<'_, f64>, usize) -> bool,
    ) -> BatchTally {
        self.prog.run_iters_of(self.k, iters, ctx, after)
    }

    fn cost(&self, _iter: usize) -> f64 {
        self.prog.program.loops[self.k].cost
    }

    fn initial_counter(&self) -> Option<usize> {
        self.prog.program.counter.as_ref().map(|&(_, init)| init)
    }

    fn backend(&self) -> &'static str {
        self.prog.backend.describe()
    }
}

/// A compiled single-loop program — the common case, implementing
/// [`SpecLoop`] directly so it plugs into every driver.
#[derive(Debug)]
pub struct CompiledLoop(CompiledProgram);

impl CompiledLoop {
    /// Parse and classify `src`, which must contain exactly one loop
    /// (use [`CompiledProgram`] for multi-loop sources).
    pub fn compile(src: &str) -> Result<Self, LangError> {
        let inner = CompiledProgram::compile(src)?;
        if inner.num_loops() != 1 {
            return Err(LangError::general(format!(
                "expected exactly one loop, found {} (use CompiledProgram)",
                inner.num_loops()
            )));
        }
        Ok(CompiledLoop(inner))
    }

    /// The underlying single-loop program.
    pub fn as_program(&self) -> &CompiledProgram {
        &self.0
    }

    /// Execute the body on the tree-walk interpreter instead of the
    /// bytecode VM (the `--no-compile` escape hatch).
    pub fn with_interpreter(self) -> Self {
        CompiledLoop(self.0.with_interpreter())
    }

    /// See [`CompiledProgram::with_scalar_vm`].
    #[doc(hidden)]
    pub fn with_scalar_vm(self) -> Self {
        CompiledLoop(self.0.with_scalar_vm())
    }
}

impl SpecLoop<f64> for CompiledLoop {
    fn num_iters(&self) -> usize {
        self.0.iters_of(0)
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        self.0.decls_for(0, self.0.initial_arrays())
    }

    fn body(&self, iter: usize, ctx: &mut IterCtx<'_, f64>) {
        self.0.body_of(0, iter, ctx)
    }

    fn run_iters(
        &self,
        iters: Range<usize>,
        ctx: &mut IterCtx<'_, f64>,
        after: &mut dyn FnMut(&mut IterCtx<'_, f64>, usize) -> bool,
    ) -> BatchTally {
        self.0.run_iters_of(0, iters, ctx, after)
    }

    fn cost(&self, _iter: usize) -> f64 {
        self.0.program.loops[0].cost
    }

    fn backend(&self) -> &'static str {
        self.0.backend.describe()
    }
}

/// Compile `src` into a speculative loop (see the crate docs for the
/// grammar).
pub fn compile(src: &str) -> Result<CompiledLoop, LangError> {
    CompiledLoop::compile(src)
}

/// A compiled induction-pattern loop (a `counter` declaration): a
/// counter [`SpecLoop`] for the EXTEND two-pass scheme
/// ([`rlrpd_core::run_induction`]) — first doall from zero offsets
/// for the bump totals, running sum, second doall from exact starts,
/// range test. The type guarantees a counter and exactly one loop; the
/// compiled program is the speculative scheme's, built by the same
/// path.
#[derive(Debug)]
pub struct CompiledInduction(CompiledProgram);

impl CompiledInduction {
    /// Parse `src`, which must declare a `counter` and contain exactly
    /// one loop.
    pub fn compile(src: &str) -> Result<Self, LangError> {
        let program = parse(src)?;
        if program.counter.is_none() {
            return Err(LangError::general(
                "induction compilation requires a counter",
            ));
        }
        if program.loops.len() != 1 {
            return Err(LangError::general(
                "induction programs have exactly one loop",
            ));
        }
        Ok(CompiledInduction(CompiledProgram::build(program)))
    }

    /// The counter's name and initial value.
    pub fn counter(&self) -> (&str, usize) {
        let (name, init) = self.0.program.counter.as_ref().expect("checked at compile");
        (name, *init)
    }

    /// The underlying single-loop program.
    pub fn as_program(&self) -> &CompiledProgram {
        &self.0
    }

    /// Execute the body on the tree-walk interpreter instead of the
    /// bytecode VM (the `--no-compile` escape hatch).
    pub fn with_interpreter(self) -> Self {
        CompiledInduction(self.0.with_interpreter())
    }
}

impl SpecLoop<f64> for CompiledInduction {
    fn num_iters(&self) -> usize {
        self.0.iters_of(0)
    }

    fn initial_counter(&self) -> Option<usize> {
        Some(self.counter().1)
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        // The induction scheme range-tests every array, whatever its
        // static verdict: all are tested.
        self.0
            .names
            .iter()
            .zip(self.0.initial_arrays())
            .map(|(&name, data)| ArrayDecl::tested(name, data, ShadowKind::Sparse))
            .collect()
    }

    fn body(&self, iter: usize, ctx: &mut IterCtx<'_, f64>) {
        self.0.body_of(0, iter, ctx)
    }

    fn cost(&self, _iter: usize) -> f64 {
        self.0.program.loops[0].cost
    }

    fn backend(&self) -> &'static str {
        self.0.backend.describe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlrpd_core::{run_sequential, run_speculative, RunConfig, Strategy, WindowConfig};

    fn check(src: &str, p: usize) -> rlrpd_core::RunResult<f64> {
        let lp = compile(src).unwrap();
        let (seq, _) = run_sequential(&lp);
        for strategy in [
            Strategy::Nrd,
            Strategy::Rd,
            Strategy::SlidingWindow(WindowConfig::fixed(4)),
        ] {
            let spec = run_speculative(&lp, RunConfig::new(p).with_strategy(strategy));
            for ((sn, sv), (rn, rv)) in seq.iter().zip(&spec.arrays) {
                assert_eq!(sn, rn);
                assert_eq!(sv, rv, "array {sn} under {strategy:?}");
            }
        }
        run_speculative(&lp, RunConfig::new(p))
    }

    #[test]
    fn doacross_plan_is_eligible_exactly_for_proven_loops() {
        let prog = CompiledProgram::compile(
            "array A[256] = 1;\nfor i in 4..256 { A[i] = A[i - 4] * 0.5 + 1; }",
        )
        .unwrap();
        let plan = prog.doacross_plan(0);
        assert!(plan.eligible(), "uniform distance 4 proven");
        assert_eq!(plan.min_distance(), Some(4));

        // Guarded conflict: the proof must refuse.
        let prog = CompiledProgram::compile(
            "array A[300];\nfor i in 0..256 { if i % 3 == 0 { A[i + 7] = 1; } A[i] = i; }",
        )
        .unwrap();
        assert!(!prog.doacross_plan(0).eligible());

        // Opaque subscript: refuse.
        let prog = CompiledProgram::compile(
            "array A[300];\nfor i in 0..256 { A[(i * 7) % 200] = A[i] + 1; }",
        )
        .unwrap();
        assert!(!prog.doacross_plan(0).eligible());

        // Doall: Independent, not Eligible — no distance to prove.
        let prog = CompiledProgram::compile("array A[64];\nfor i in 0..64 { A[i] = i; }").unwrap();
        assert!(!prog.doacross_plan(0).eligible());
    }

    #[test]
    fn run_is_bit_identical_to_sequential_on_the_beta_deck() {
        let src = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/programs/beta_pipeline.rlp"
        ))
        .unwrap();
        let prog = CompiledProgram::compile(&src).unwrap();
        assert!((0..2).all(|k| prog.doacross_plan(k).eligible()));
        // Ground truth: sequential execution, state flowing loop to loop.
        let seq = prog.run_sequential();

        for p in [1usize, 2, 4, 8] {
            // Proven loops speculate like any other: the R-LRPD test
            // finds the dependences the proof states and restarts.
            let res = prog.run(RunConfig::new(p));
            for ((name, want), (rn, got)) in seq.iter().zip(&res.arrays) {
                assert_eq!(name, rn);
                let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(want, got, "array {name} at p = {p}");
            }
            for (k, report) in res.reports.iter().enumerate() {
                assert!(
                    report.shadow_bytes_peak() > 0,
                    "loop {k}: tested at p = {p}"
                );
            }
        }
    }

    #[test]
    fn fully_parallel_program_runs_in_one_stage() {
        let res = check(
            "array A[64];\narray B[64] = 2;\nfor i in 0..64 { A[i] = B[i] * i; }",
            4,
        );
        assert_eq!(res.report.stages.len(), 1);
    }

    #[test]
    fn backward_dependence_program_is_partially_parallel_but_correct() {
        let res = check(
            "array A[64] = 1;\nfor i in 0..64 {\n  if i % 17 == 0 && i > 0 { A[i] = A[i - 9] + 1; } else { A[i] = i; }\n}",
            4,
        );
        assert!(res.report.restarts > 0);
    }

    #[test]
    fn reduction_program_validates_in_one_stage() {
        let lp = compile(
            "array HIST[8];\narray V[256];\nfor i in 0..256 { V[i] = i; HIST[V[i] % 8] += 1; }",
        )
        .unwrap();
        assert!(matches!(
            lp.as_program().classifications(0)[0].class,
            Class::Reduction(_)
        ));
        let spec = run_speculative(&lp, RunConfig::new(8));
        assert_eq!(spec.report.stages.len(), 1, "reductions never conflict");
        // Each of 8 buckets gets 256/8 = 32 hits.
        assert!(spec.array("HIST").iter().all(|&v| v == 32.0));
    }

    #[test]
    fn update_on_tested_array_desugars_correctly() {
        // Y is also plainly assigned, so it is NOT a reduction; `+=`
        // must behave as read-modify-write.
        let res = check(
            "array Y[16] = 1;\nfor i in 0..16 { Y[i] += 2; if i == 7 { Y[0] = 100; } }",
            4,
        );
        assert_eq!(res.array("Y")[1], 3.0);
        assert_eq!(res.array("Y")[0], 100.0);
    }

    #[test]
    fn locals_and_control_flow_evaluate() {
        let res = check(
            "array A[32];\nfor i in 0..32 {\n  let x = i * 2;\n  let y = x + 1;\n  if y % 3 == 0 { A[i] = y; } else { A[i] = -y; }\n}",
            4,
        );
        // i = 1: y = 3 -> A[1] = 3; i = 2: y = 5 -> A[2] = -5.
        assert_eq!(res.array("A")[1], 3.0);
        assert_eq!(res.array("A")[2], -5.0);
    }

    #[test]
    fn cost_directive_feeds_the_simulator() {
        let lp = compile("array A[8];\ncost 40;\nfor i in 0..8 { A[i] = i; }").unwrap();
        assert_eq!(lp.cost(3), 40.0);
        let spec = run_speculative(&lp, RunConfig::new(4));
        assert_eq!(spec.report.sequential_work, 8.0 * 40.0);
    }

    #[test]
    fn report_names_every_array() {
        let lp =
            compile("array A[8];\narray Y[4];\nfor i in 0..8 { A[i] = i; Y[0] += i; }").unwrap();
        let report = lp.as_program().report();
        assert!(report.contains("A"), "{report}");
        assert!(report.contains("UNTESTED"), "{report}");
        assert!(report.contains("REDUCTION(+)"), "{report}");
    }

    #[test]
    #[should_panic(expected = "subscript")]
    fn negative_subscript_panics_at_runtime() {
        let lp = compile("array A[8];\nfor i in 0..8 { A[i - 5] = 1.0; }").unwrap();
        let _ = run_sequential(&lp);
    }

    #[test]
    fn break_if_exits_prematurely_and_matches_sequential() {
        // The DCDCMP-70 pattern: fully parallel work with a premature
        // exit at iteration 40.
        let src = "array A[100];\nfor i in 0..100 {\n  A[i] = i + 1;\n  break if i == 40;\n}";
        let res = check(src, 8);
        assert_eq!(res.report.exited_at, Some(40));
        assert_eq!(res.array("A")[40], 41.0, "the exiting iteration completes");
        assert_eq!(res.array("A")[41], 0.0, "iterations past the exit are dead");
        // One speculative stage suffices: the exit block commits and
        // everything later is discarded.
        assert_eq!(res.report.stages.len(), 1);
    }

    #[test]
    fn break_condition_reading_stale_data_is_retested() {
        // The exit condition depends on values produced by earlier
        // iterations: a block deciding to exit on stale data must not
        // be trusted. Correctness = same result as sequential.
        let src = "array A[64] = 1;\nfor i in 0..64 {\n  A[i] = A[max(i - 9, 0)] + 1;\n  break if A[i] > 5;\n}";
        let res = check(src, 8);
        let (seq, _) = run_sequential(&compile(src).unwrap());
        // `check` already asserted array equality; additionally the exit
        // point must match sequential semantics.
        let lp = compile(src).unwrap();
        let seq_exit = {
            // Recompute the sequential exit point by scanning the array:
            // iterations past it are untouched (still the declared 0.0
            // ... but A was initialized to 1.0 and only written up to
            // the exit).
            seq[0].1.iter().rposition(|&v| v != 1.0).unwrap()
        };
        assert_eq!(res.report.exited_at, Some(seq_exit));
        let _ = lp;
    }

    #[test]
    fn intrinsics_evaluate() {
        let res = check(
            "array A[6];\nfor i in 0..6 {\n  A[i] = min(i, 3) + max(i, 3) * 10 + abs(0 - i) * 100 + floor(sqrt(i * i)) * 1000;\n}",
            2,
        );
        // i = 2: min=2, max=3, abs=2, floor(sqrt(4))=2 -> 2 + 30 + 200 + 2000.
        assert_eq!(res.array("A")[2], 2232.0);
    }

    #[test]
    fn unknown_function_is_a_parse_error() {
        let err = compile("array A[4];\nfor i in 0..4 { A[i] = sin(i); }").unwrap_err();
        assert!(err.message.contains("unknown function"), "{err}");
    }

    #[test]
    fn wrong_arity_is_a_parse_error() {
        let err = compile("array A[4];\nfor i in 0..4 { A[i] = min(i); }").unwrap_err();
        assert!(err.message.contains("argument"), "{err}");
    }

    #[test]
    fn privatizable_scalar_runs_in_one_stage() {
        // `t` is written before read in every iteration: the
        // speculative privatization validates it with zero restarts,
        // and last-value commit leaves the final iteration's value.
        let src = "array A[64];\nscalar t;\nfor i in 0..64 {\n  t = i * 2;\n  A[i] = t + 1;\n}";
        let res = check(src, 8);
        assert_eq!(res.report.stages.len(), 1, "write-first scalar privatizes");
        assert_eq!(res.array("t"), &[126.0], "last value committed");
    }

    #[test]
    fn reduction_scalar_parallelizes() {
        let src = "array A[64];\nscalar total;\nfor i in 0..64 {\n  A[i] = i;\n  total += i;\n}";
        let lp = compile(src).unwrap();
        assert!(
            matches!(
                lp.as_program().classifications(0)[1].class,
                Class::Reduction(_)
            ),
            "{}",
            lp.as_program().report()
        );
        let res = check(src, 8);
        assert_eq!(res.report.stages.len(), 1);
        assert_eq!(res.array("total"), &[2016.0]); // 63*64/2
    }

    #[test]
    fn loop_carried_scalar_serializes_but_stays_correct() {
        // s = s * 0.9 + i: read-before-write every iteration — a true
        // recurrence. The R-LRPD test degenerates to p stages (NRD) but
        // the result is exact.
        let src =
            "scalar s = 1;\narray OUT[32];\nfor i in 0..32 {\n  s = s * 0.5 + i;\n  OUT[i] = s;\n}";
        let res = check(src, 4);
        assert!(res.report.restarts > 0, "a recurrence must serialize");
        // Spot value: s after 2 iterations = (1*0.5 + 0)*0.5 + 1 = 1.25.
        assert_eq!(res.array("OUT")[1], 1.25);
    }

    #[test]
    fn shadow_elision_is_byte_identical_on_the_examples() {
        use rlrpd_core::{Strategy, WindowConfig};
        // Skipping shadow allocation for statically-safe arrays must
        // never change results: the fully-instrumented baseline (every
        // untested array promoted to tested) and the elided compile
        // must agree to the bit, under every strategy.
        let sources = [
            include_str!("../../../examples/programs/tracking.rlp"),
            include_str!("../../../examples/programs/lu_sparse.rlp"),
            include_str!("../../../examples/programs/premature_exit.rlp"),
            include_str!("../../../examples/programs/two_phase.rlp"),
        ];
        let strategies = [
            Strategy::Nrd,
            Strategy::Rd,
            Strategy::SlidingWindow(WindowConfig::fixed(16)),
        ];
        for src in sources {
            let elided = CompiledProgram::compile(src).unwrap();
            let full = CompiledProgram::compile(src)
                .unwrap()
                .with_full_instrumentation();
            for strategy in strategies {
                let cfg = RunConfig::new(4).with_strategy(strategy);
                let a = elided.run(cfg);
                let b = full.run(cfg);
                for ((name, x), (name2, y)) in a.arrays.iter().zip(&b.arrays) {
                    assert_eq!(name, name2);
                    let xb: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                    let yb: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(xb, yb, "{name} diverged under {strategy:?}");
                }
            }
        }
    }

    #[test]
    fn run_reports_predicted_and_observed_first_dependence() {
        // A[i] = A[i-8]: Must-dependence with distance 8, first sink 8.
        let src = "array A[64] = 1;\nfor i in 0..64 { if i >= 8 { A[i] = A[i - 8] + 1; } }";
        let prog = CompiledProgram::compile(src).unwrap();
        assert_eq!(prog.predicted_first_dependence(0), Some(8));
        let spec = prog.run(RunConfig::new(8));
        let report = &spec.reports[0];
        assert_eq!(report.predicted_first_dependence, Some(8));
        if report.restarts > 0 {
            let observed = report
                .observed_first_dependence
                .expect("a restarted run records its first observed violation");
            assert!(observed >= 8, "no sink can precede the static minimum");
        }
        // An independent loop predicts (and observes) no dependence.
        let free = CompiledProgram::compile("array B[32];\nfor i in 0..32 { B[i] = i; }").unwrap();
        assert_eq!(free.predicted_first_dependence(0), None);
        let run = free.run(RunConfig::new(4));
        assert_eq!(run.reports[0].predicted_first_dependence, None);
        assert_eq!(run.reports[0].observed_first_dependence, None);
    }

    #[test]
    fn predicted_first_dependence_is_an_iteration_index() {
        // The same loop written over 40..200 and over 0..160 with the
        // offset moved into the subscripts: both first collide at their
        // ninth iteration, index 8.
        let offset =
            CompiledProgram::compile("array A[200];\nfor i in 40..200 { A[i] = A[i - 8] + 1; }")
                .unwrap();
        let shifted = CompiledProgram::compile(
            "array A[200];\nfor i in 0..160 { A[i + 40] = A[i + 32] + 1; }",
        )
        .unwrap();
        assert_eq!(offset.predicted_first_dependence(0), Some(8));
        assert_eq!(shifted.predicted_first_dependence(0), Some(8));
        let cfg = RunConfig::new(4).with_strategy(Strategy::Nrd);
        let report = &offset.run(cfg).reports[0];
        let observed = report
            .observed_first_dependence
            .expect("a distance-8 chain restarts at p = 4");
        assert!(observed >= 8, "observed {observed} precedes the prediction");
    }

    #[test]
    fn multi_loop_programs_flow_state_between_loops() {
        // Loop 1 builds a table (fully parallel); loop 2 consumes it
        // through indirection (tested); loop 3 reduces it.
        let src = "
            array T[64];
            array OUT[64];
            scalar sum;
            for i in 0..64 { T[i] = (i * 29 + 7) % 64; }
            for j in 0..64 { OUT[j] = T[(j * 3) % 64] + 1; }
            for k in 0..64 { sum += OUT[k]; }
        ";
        let prog = CompiledProgram::compile(src).unwrap();
        assert_eq!(prog.num_loops(), 3);
        let spec = prog.run(RunConfig::new(4));
        let seq = prog.run_sequential();
        assert_eq!(spec.arrays, seq);
        assert_eq!(spec.reports.len(), 3);
        // The reduction loop runs in one stage.
        assert_eq!(spec.reports[2].stages.len(), 1);
        // sum = Σ (T[...] + 1): check against a direct recomputation.
        let t: Vec<f64> = (0..64).map(|i| ((i * 29 + 7) % 64) as f64).collect();
        let expect: f64 = (0..64).map(|j| t[(j * 3) % 64] + 1.0).sum();
        assert_eq!(spec.array("sum"), &[expect]);
    }

    #[test]
    fn per_loop_classification_differs() {
        // A is written disjointly in loop 0 (untested) but through
        // data-dependent subscripts in loop 1 (tested).
        let src = "
            array A[32];
            array IDX[32];
            for i in 0..32 { A[i] = i; IDX[i] = (i * 5) % 32; }
            for j in 0..32 { A[IDX[j]] = A[IDX[j]] * 2; }
        ";
        let prog = CompiledProgram::compile(src).unwrap();
        assert_eq!(prog.classifications(0)[0].class, Class::Untested);
        assert_eq!(prog.classifications(1)[0].class, Class::Tested);
        let spec = prog.run(RunConfig::new(4));
        let seq = prog.run_sequential();
        assert_eq!(spec.arrays, seq);
    }

    #[test]
    fn compiled_loop_rejects_multi_loop_sources() {
        let err = CompiledLoop::compile(
            "array A[4];\nfor i in 0..4 { A[i] = 1; }\nfor j in 0..4 { A[j] = 2; }",
        )
        .unwrap_err();
        assert!(err.message.contains("exactly one loop"), "{err}");
    }

    #[test]
    fn per_loop_cost_directives_apply() {
        let src = "array A[8];\ncost 10;\nfor i in 0..8 { A[i] = i; }\ncost 30;\nfor j in 0..8 { A[j] = j; }";
        let prog = CompiledProgram::compile(src).unwrap();
        let spec = prog.run(RunConfig::new(2));
        assert_eq!(spec.reports[0].sequential_work, 80.0);
        assert_eq!(spec.reports[1].sequential_work, 240.0);
    }

    #[test]
    fn counter_programs_run_under_the_extend_scheme() {
        use rlrpd_core::{run_induction, CostModel, ExecMode};
        // The EXTEND pattern written in source: reads from the
        // read-only prefix, a temporary extension at the counter, a
        // conditional bump.
        let src = "
            array TRACK[700];
            counter lsttrk = 100;
            for i in 0..500 {
                let a = TRACK[i % 100];
                TRACK[lsttrk] = a * 0.5 + i;
                if i % 3 == 0 { bump lsttrk; }
            }
        ";
        let lp = CompiledInduction::compile(src).unwrap();
        assert_eq!(lp.counter(), ("lsttrk", 100));
        // The program's own loop view states the counter too: no entry
        // point starts it at 0.
        let view = lp
            .as_program()
            .loop_view(0, lp.as_program().initial_arrays());
        assert_eq!(view.initial_counter(), Some(100));
        let res = run_induction(&lp, 8, ExecMode::Simulated, CostModel::default()).unwrap();
        assert!(
            res.test_passed,
            "range test passes: reads stay in the prefix"
        );
        assert_eq!(
            res.final_counter,
            100 + 167,
            "167 bumps (i % 3 == 0, i < 500)"
        );
        assert_eq!(res.report.stages.len(), 2, "two doalls");

        // Ground truth by hand.
        let mut track = vec![0.0f64; 700];
        let mut c = 100usize;
        for i in 0..500usize {
            let a = track[i % 100];
            track[c] = a * 0.5 + i as f64;
            if i % 3 == 0 {
                c += 1;
            }
        }
        assert_eq!(res.arrays[0].1, track);
    }

    #[test]
    fn counter_program_with_wild_reads_falls_back() {
        use rlrpd_core::{run_induction, CostModel, ExecMode};
        // Reading at the counter's current position-1 (the written
        // region) trips the range test; the fallback is sequential and
        // exact.
        let src = "
            array T[600];
            counter c = 50;
            for i in 0..200 {
                let prev = T[c - 1];
                T[c] = prev + i;
                bump c;
            }
        ";
        let lp = CompiledInduction::compile(src).unwrap();
        let res = run_induction(&lp, 4, ExecMode::Simulated, CostModel::default()).unwrap();
        assert!(!res.test_passed, "reads intersect writes");
        assert_eq!(res.final_counter, 250);
        // Ground truth: a running chain starting from T[49] = 0.
        let mut t = vec![0.0f64; 600];
        for (c, i) in (50usize..).zip(0..200usize) {
            t[c] = t[c - 1] + i as f64;
        }
        assert_eq!(res.arrays[0].1, t);
    }

    #[test]
    fn counter_misuse_is_rejected() {
        // Counter in a SpecLoop program.
        let err = CompiledProgram::compile("array A[4];\ncounter c;\nfor i in 0..4 { A[i] = c; }")
            .unwrap_err();
        assert!(err.message.contains("induction"), "{err}");
        // Induction compile without a counter.
        let err =
            CompiledInduction::compile("array A[4];\nfor i in 0..4 { A[i] = 1; }").unwrap_err();
        assert!(err.message.contains("requires a counter"), "{err}");
        // Bumping a non-counter name.
        let err = CompiledInduction::compile("array A[4];\ncounter c;\nfor i in 0..4 { bump A; }")
            .unwrap_err();
        assert!(err.message.contains("not the declared counter"), "{err}");
    }

    #[test]
    fn scalar_and_array_namespaces_are_shared() {
        let err = compile("array X[4];\nscalar X;\nfor i in 0..4 { X[i] = 1; }").unwrap_err();
        assert!(err.message.contains("declared twice"), "{err}");
    }

    #[test]
    fn nonzero_range_start_maps_iterations() {
        let res = check("array A[20];\nfor i in 10..20 { A[i] = i; }", 4);
        assert_eq!(res.array("A")[10], 10.0);
        assert_eq!(res.array("A")[0], 0.0);
    }
}
