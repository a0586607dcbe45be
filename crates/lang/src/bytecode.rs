//! Register bytecode for the loop DSL — the compiled tier of the
//! run-time pass.
//!
//! The tree-walk interpreter ([`crate::interp`]) re-walks the AST for
//! every speculative iteration: every node is a match, a `Box` deref,
//! and a recursive call, and every restart of a speculative stage
//! re-pays that tax on top of the instrumentation overhead. This module
//! lowers each [`LoopNest`] once, at compile time, into fixed-width
//! instructions over a small register file; the VM ([`crate::vm`])
//! then executes one flat dispatch loop per iteration.
//!
//! Design points:
//!
//! * **Register file** `[i | locals | consts | temps]`: register 0
//!   always holds the loop variable (written once per iteration by the
//!   VM, never by an instruction), `let` slots are pinned to registers
//!   so reads are direct, the constant pool is materialized into
//!   registers once per `(thread, loop)` binding — not per iteration —
//!   and expression temporaries are stack-allocated with statement
//!   lifetime.
//! * **Fused shadow-marking ops**: instrumented array access is an
//!   *addressing mode*, not an interpreter call chain. [`Insn::LoadMarked`]
//!   / [`Insn::StoreMarked`] / [`Insn::Reduce`] carry the array id and
//!   the mark kind (read / write / reduction) in the opcode itself, so
//!   one dispatch reaches the engine's marking context directly.
//! * **Elision as codegen**: when the static dependence analysis
//!   (`depend.rs`, DESIGN.md §11) proves an array's references disjoint,
//!   the lowering emits plain [`Insn::Load`] / [`Insn::Store`] — the
//!   unmarked addressing mode. The run-time route in
//!   `rlrpd_core::IterCtx` remains the safety net: under
//!   `with_full_instrumentation` the same bytecode runs with marking
//!   forced back on, byte-identically.
//! * **Superinstructions**: the lowering fuses the statement shapes
//!   that dominate the paper's kernels — multiply-accumulate
//!   ([`Insn::MulAdd`] and friends, two IEEE roundings exactly as the
//!   unfused pair), compare-and-branch ([`Insn::JumpUnless`]), and
//!   power-of-two `%` strength-reduced to a mask ([`Insn::RemPow2`]) —
//!   so a typical filter statement costs one dispatch instead of three.
//! * **Trusted subscripts**: a conservative lowering-time proof
//!   (`is_nni`) marks subscript expressions that always evaluate to a
//!   non-negative integer; the VM then skips per-access validation and
//!   casts directly (array bounds are still enforced by the access).
//!   Unprovable subscripts keep the checked path and its diagnostics.
//! * **Spans in a side table**: every instruction carries the source
//!   position of the reference it implements (parallel `spans` vector,
//!   not widening the fixed 12-byte instruction), so subscript faults
//!   inside the VM are reported with the offending source location and
//!   the disassembler can annotate each op.
//!
//! A lowering-time verifier bounds every register operand and jump
//! target, which is what licenses the VM's unchecked register and
//! instruction fetches.

use crate::analyze::{Class, Classification};
use crate::ast::{BinOp, Expr, Intrinsic, LoopNest, Span, Stmt, UpdateOp};
use crate::depend::Certainty;
use std::sync::atomic::{AtomicU64, Ordering};

/// A register index into the VM's register file.
pub type Reg = u16;

/// Register 0 always holds the loop variable.
pub const REG_I: Reg = 0;

/// `2^53`: every non-negative integer below it is an exact `f64` and an
/// exact `u64`, which is what lets an integer-proven `%` skip its
/// roundings ([`Insn::Rem`]'s `int` bit).
pub(crate) const EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Provisional temp-register tag used during lowering: temps are
/// numbered from `TEMP_TAG` until the constant pool is complete, then
/// remapped to their final position above the constants.
const TEMP_TAG: u16 = 0x8000;

/// A comparison predicate carried by the fused compare-and-branch
/// instruction ([`Insn::JumpUnless`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // the six relational operators of the language
pub enum Pred {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Pred {
    /// The predicate implementing `op`, when `op` is relational.
    fn of(op: BinOp) -> Option<Pred> {
        Some(match op {
            BinOp::Eq => Pred::Eq,
            BinOp::Ne => Pred::Ne,
            BinOp::Lt => Pred::Lt,
            BinOp::Le => Pred::Le,
            BinOp::Gt => Pred::Gt,
            BinOp::Ge => Pred::Ge,
            _ => return None,
        })
    }

    fn symbol(self) -> &'static str {
        match self {
            Pred::Eq => "==",
            Pred::Ne => "!=",
            Pred::Lt => "<",
            Pred::Le => "<=",
            Pred::Gt => ">",
            Pred::Ge => ">=",
        }
    }
}

/// One fixed-width (12-byte) VM instruction.
///
/// Arithmetic is three-address: `dst <- a op b`. Comparisons produce
/// the language's booleans (`1.0` / `0.0`). Array ops come in two
/// addressing modes: *marked* (fused shadow-marking dispatch for
/// arrays under the LRPD test) and plain (statically-proven-disjoint
/// arrays whose shadow was elided); each carries a `trusted` bit for
/// subscripts proven non-negative-integral at lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // operand fields: dst/a/b registers, arr ids, jump targets
pub enum Insn {
    /// `dst <- src`.
    Move { dst: Reg, src: Reg },
    /// `dst <- counter` (induction programs only).
    Counter { dst: Reg },
    /// `dst <- a + b`.
    Add { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a - b`.
    Sub { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a * b`.
    Mul { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a / b`.
    Div { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a % b` on rounded integers (euclidean remainder).
    /// `int`: lowering proved `a` a non-negative integer and `b` a
    /// constant integer in `1..2^53`, so below `2^53` the remainder is
    /// the unsigned one and both roundings are skipped.
    Rem { dst: Reg, a: Reg, b: Reg, int: bool },
    /// `dst <- a % (mask + 1)` — strength-reduced remainder by a
    /// power-of-two constant: `round(a) & mask`, exactly the Euclidean
    /// remainder [`Insn::Rem`] computes for these divisors (two's
    /// complement). `int`: `a` is a proven non-negative integer (no
    /// rounding needed below `2^53`).
    RemPow2 {
        dst: Reg,
        a: Reg,
        mask: u16,
        int: bool,
    },
    /// `dst <- a * b + c`. Two IEEE roundings, exactly the mul-then-add
    /// pair it fuses (not an FMA).
    MulAdd { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- a * b + c * d` — the filter-kernel workhorse (blend /
    /// weighted pair). Three IEEE roundings, exactly the
    /// mul-mul-add triple it fuses; five registers, the widest
    /// instruction in the ISA.
    DualMulAdd {
        dst: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
        d: Reg,
    },
    /// `dst <- a * b - c` (two roundings, as the unfused pair).
    MulSub { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- c - a * b` (two roundings, as the unfused pair).
    MulRSub { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- a == b`.
    CmpEq { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a != b`.
    CmpNe { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a < b`.
    CmpLt { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a <= b`.
    CmpLe { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a > b`.
    CmpGt { dst: Reg, a: Reg, b: Reg },
    /// `dst <- a >= b`.
    CmpGe { dst: Reg, a: Reg, b: Reg },
    /// `dst <- -a`.
    Neg { dst: Reg, a: Reg },
    /// `dst <- !a` (0.0 ↦ 1.0, non-zero ↦ 0.0).
    Not { dst: Reg, a: Reg },
    /// `dst <- min(a, b)`.
    Min { dst: Reg, a: Reg, b: Reg },
    /// `dst <- max(a, b)`.
    Max { dst: Reg, a: Reg, b: Reg },
    /// `dst <- abs(a)`.
    Abs { dst: Reg, a: Reg },
    /// `dst <- sqrt(a)`.
    Sqrt { dst: Reg, a: Reg },
    /// `dst <- floor(a)`.
    Floor { dst: Reg, a: Reg },
    /// Unmarked load `dst <- arr[idx]` — the elided addressing mode for
    /// statically-proven-disjoint arrays.
    Load {
        dst: Reg,
        arr: u16,
        idx: Reg,
        trusted: bool,
    },
    /// Unmarked store `arr[idx] <- src` (elided addressing mode).
    Store {
        arr: u16,
        idx: Reg,
        src: Reg,
        trusted: bool,
    },
    /// Fused read-mark load `dst <- arr[idx]`: one dispatch marks the
    /// shadow and reads through the speculative view.
    LoadMarked {
        dst: Reg,
        arr: u16,
        idx: Reg,
        trusted: bool,
    },
    /// Fused write-mark store `arr[idx] <- src` into the privatized
    /// view.
    StoreMarked {
        arr: u16,
        idx: Reg,
        src: Reg,
        trusted: bool,
    },
    /// Fused reduction-mark update `arr[idx] <- arr[idx] ⊕ src` (the
    /// operator is the array's declared reduction).
    Reduce {
        arr: u16,
        idx: Reg,
        src: Reg,
        trusted: bool,
    },
    /// Unconditional branch.
    Jump { target: u32 },
    /// Branch when `cond` is `0.0`.
    JumpIfZero { cond: Reg, target: u32 },
    /// Fused compare-and-branch: jump when `a pred b` is *false*
    /// (replaces a `Cmp*` + [`Insn::JumpIfZero`] pair at every `if`,
    /// `break if`, and short-circuit test whose condition is a bare
    /// comparison).
    JumpUnless {
        pred: Pred,
        a: Reg,
        b: Reg,
        target: u32,
    },
    /// Bump the induction counter (induction programs only).
    Bump,
    /// Premature loop exit (`break if` taken): tell the context and
    /// stop this iteration.
    Exit,
    /// End of the iteration body.
    Halt,
}

/// Iterations per strip: how many consecutive iterations the VM
/// executes per instruction dispatch when a loop is eligible
/// ([`StripPlan`]).
pub const STRIP: usize = 16;

/// What a memory instruction does to its element.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MemKind {
    Load,
    Store,
    Reduce,
}

/// One memory instruction of the body, in pc order.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemOp {
    pub kind: MemKind,
    pub arr: u16,
}

/// A (store or reduce, load) pair on one array: the only shape that
/// can make a strip's side-effect-free execution observe the wrong
/// value, because loads are the only references that observe anything
/// before replay.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hazard {
    /// Slot of the store / reduce.
    pub store: u16,
    /// Slot of the load. When it follows the store in program order the
    /// pair is also checked within one lane.
    pub load: u16,
    /// Check the pair across lanes (store in an earlier lane than the
    /// load). Off for arrays the classifier itself proved
    /// iteration-disjoint — never on the word of a declaration hint,
    /// so `run_sequential` stays exact under an unsound one.
    pub cross: bool,
}

/// Why a loop's strips were refused at lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StripRefusal {
    /// `break if`: a premature exit ends the loop at one iteration.
    Exit,
    /// An induction counter threads a value through the iterations.
    Counter,
    /// Array `array` has a proven dependence `distance < STRIP`
    /// iterations apart: every strip would fail its test.
    MustDistance {
        /// Declaration index of the array.
        array: usize,
        /// The proven minimum distance.
        distance: usize,
    },
}

/// What the strip executor needs beyond the instructions, decided once
/// at lowering: which instructions reference memory (a strip logs each
/// one's subscripts and values per lane) and which pairs of them the
/// strip's validity test must compare.
#[derive(Clone, Debug)]
pub(crate) struct StripPlan {
    /// Memory-op slot per instruction (meaningful only at memory
    /// instructions). Branches are forward-only, so slot order is each
    /// lane's execution order and an instruction runs at most once per
    /// strip.
    pub slot_of: Vec<u16>,
    /// The memory instructions, by slot.
    pub ops: Vec<MemOp>,
    pub hazards: Vec<Hazard>,
}

impl StripPlan {
    fn build(code: &[Insn], arrays: &[Classification]) -> Result<StripPlan, StripRefusal> {
        // What the analysis itself concluded (a hint keeps it aside).
        let own = |a: usize| arrays[a].unhinted.as_deref().unwrap_or(&arrays[a]);
        for a in 0..arrays.len() {
            if let Some(ev) = &own(a).evidence {
                if let (Certainty::Must, Some(distance)) = (ev.certainty, ev.distance) {
                    if distance < STRIP {
                        return Err(StripRefusal::MustDistance { array: a, distance });
                    }
                }
            }
        }
        let mut slot_of = vec![0u16; code.len()];
        let mut ops = Vec::new();
        for (pc, insn) in code.iter().enumerate() {
            let op = match *insn {
                Insn::Exit => return Err(StripRefusal::Exit),
                Insn::Counter { .. } | Insn::Bump => return Err(StripRefusal::Counter),
                Insn::Jump { target }
                | Insn::JumpIfZero { target, .. }
                | Insn::JumpUnless { target, .. } => {
                    // The per-lane resume-pc mask relies on it.
                    assert!(target as usize > pc, "lowering emitted a backward branch");
                    continue;
                }
                Insn::Load { arr, .. } | Insn::LoadMarked { arr, .. } => MemOp {
                    kind: MemKind::Load,
                    arr,
                },
                Insn::Store { arr, .. } | Insn::StoreMarked { arr, .. } => MemOp {
                    kind: MemKind::Store,
                    arr,
                },
                Insn::Reduce { arr, .. } => MemOp {
                    kind: MemKind::Reduce,
                    arr,
                },
                _ => continue,
            };
            slot_of[pc] = ops.len() as u16;
            ops.push(op);
        }
        let mut hazards = Vec::new();
        for (s, st) in ops.iter().enumerate() {
            for (l, ld) in ops.iter().enumerate() {
                if st.kind == MemKind::Load || ld.kind != MemKind::Load || st.arr != ld.arr {
                    continue;
                }
                let cross = own(st.arr as usize).class != Class::Untested;
                if cross || l > s {
                    hazards.push(Hazard {
                        store: s as u16,
                        load: l as u16,
                        cross,
                    });
                }
            }
        }
        Ok(StripPlan {
            slot_of,
            ops,
            hazards,
        })
    }
}

/// The bytecode of one lowered loop body.
#[derive(Clone, Debug)]
pub struct LoopCode {
    pub(crate) code: Vec<Insn>,
    /// Source position per instruction (side table — see module docs).
    pub(crate) spans: Vec<Span>,
    /// Deduplicated constant pool, materialized into registers
    /// `[const_base, const_base + consts.len())` at scratch-bind time.
    pub(crate) consts: Vec<f64>,
    /// Number of `let` slots (registers `1..=num_locals`).
    pub(crate) num_locals: u16,
    /// Total register-file size: `1 + locals + consts + temps`.
    pub(crate) num_regs: u16,
    /// Process-unique id, used by the VM scratch to detect when its
    /// constant registers belong to a different loop.
    pub(crate) uid: u64,
    /// The strip executor's plan, or why this loop runs one iteration
    /// per dispatch only.
    pub(crate) strips: Result<StripPlan, StripRefusal>,
}

impl LoopCode {
    /// Why the VM executes this loop one iteration per dispatch, when
    /// it does (`None`: it runs [`STRIP`] iterations per dispatch).
    pub fn strip_refusal(&self) -> Option<StripRefusal> {
        self.strips.as_ref().err().copied()
    }

    /// First constant register.
    #[inline]
    pub(crate) fn const_base(&self) -> usize {
        1 + self.num_locals as usize
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// True for an empty body (never produced — every body ends in
    /// [`Insn::Halt`]).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The source span of instruction `pc` (fault diagnostics).
    pub fn span_of(&self, pc: usize) -> Span {
        self.spans.get(pc).copied().unwrap_or_default()
    }

    /// Render one register operand for the disassembly.
    fn reg_name(&self, r: Reg, loop_var: &str) -> String {
        let r = r as usize;
        let cb = self.const_base();
        if r == REG_I as usize {
            loop_var.to_string()
        } else if r < cb {
            format!("l{}", r - 1)
        } else if r < cb + self.consts.len() {
            format!("c{}={}", r - cb, self.consts[r - cb])
        } else {
            format!("t{}", r - cb - self.consts.len())
        }
    }

    /// Human-readable disassembly: one line per instruction with
    /// opcode, operands, fused-mark annotation, and source span.
    /// `names` are the program's array names (declaration order);
    /// `loop_var` is the loop variable's source name.
    pub fn disassemble(&self, names: &[&str], loop_var: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let temps = self.num_regs as usize - self.const_base() - self.consts.len();
        let _ = writeln!(
            out,
            "  {} insns, regs: [{} | {} locals | {} consts | {} temps]",
            self.code.len(),
            loop_var,
            self.num_locals,
            self.consts.len(),
            temps,
        );
        let r = |reg: Reg| self.reg_name(reg, loop_var);
        let arr = |a: u16| names.get(a as usize).copied().unwrap_or("?");
        // Trusted-subscript suffix on a memory op's note.
        let tr = |trusted: bool| if trusted { ", trusted subscript" } else { "" };
        for (pc, insn) in self.code.iter().enumerate() {
            let (op, operands, note) = match *insn {
                Insn::Move { dst, src } => ("mov", format!("{} <- {}", r(dst), r(src)), None),
                Insn::Counter { dst } => ("cnt", format!("{} <- counter", r(dst)), None),
                Insn::Add { dst, a, b } => {
                    ("add", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::Sub { dst, a, b } => {
                    ("sub", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::Mul { dst, a, b } => {
                    ("mul", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::Div { dst, a, b } => {
                    ("div", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::Rem { dst, a, b, int } => (
                    "rem",
                    format!("{} <- {}, {}", r(dst), r(a), r(b)),
                    int.then(|| "integer operands".to_string()),
                ),
                Insn::RemPow2 { dst, a, mask, int } => (
                    "rem.p2",
                    format!("{} <- {} % {}", r(dst), r(a), mask as u32 + 1),
                    Some(format!(
                        "strength-reduced power-of-two modulus{}",
                        if int { ", integer operand" } else { "" }
                    )),
                ),
                Insn::MulAdd { dst, a, b, c } => (
                    "mul.add",
                    format!("{} <- {} * {} + {}", r(dst), r(a), r(b), r(c)),
                    None,
                ),
                Insn::DualMulAdd { dst, a, b, c, d } => (
                    "mul.add2",
                    format!("{} <- {} * {} + {} * {}", r(dst), r(a), r(b), r(c), r(d)),
                    None,
                ),
                Insn::MulSub { dst, a, b, c } => (
                    "mul.sub",
                    format!("{} <- {} * {} - {}", r(dst), r(a), r(b), r(c)),
                    None,
                ),
                Insn::MulRSub { dst, a, b, c } => (
                    "mul.rsub",
                    format!("{} <- {} - {} * {}", r(dst), r(c), r(a), r(b)),
                    None,
                ),
                Insn::CmpEq { dst, a, b } => {
                    ("ceq", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::CmpNe { dst, a, b } => {
                    ("cne", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::CmpLt { dst, a, b } => {
                    ("clt", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::CmpLe { dst, a, b } => {
                    ("cle", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::CmpGt { dst, a, b } => {
                    ("cgt", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::CmpGe { dst, a, b } => {
                    ("cge", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::Neg { dst, a } => ("neg", format!("{} <- {}", r(dst), r(a)), None),
                Insn::Not { dst, a } => ("not", format!("{} <- {}", r(dst), r(a)), None),
                Insn::Min { dst, a, b } => {
                    ("min", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::Max { dst, a, b } => {
                    ("max", format!("{} <- {}, {}", r(dst), r(a), r(b)), None)
                }
                Insn::Abs { dst, a } => ("abs", format!("{} <- {}", r(dst), r(a)), None),
                Insn::Sqrt { dst, a } => ("sqrt", format!("{} <- {}", r(dst), r(a)), None),
                Insn::Floor { dst, a } => ("floor", format!("{} <- {}", r(dst), r(a)), None),
                Insn::Load {
                    dst,
                    arr: a,
                    idx,
                    trusted,
                } => (
                    "ld",
                    format!("{} <- {}[{}]", r(dst), arr(a), r(idx)),
                    Some(format!(
                        "unmarked (shadow elided: statically disjoint){}",
                        tr(trusted)
                    )),
                ),
                Insn::Store {
                    arr: a,
                    idx,
                    src,
                    trusted,
                } => (
                    "st",
                    format!("{}[{}] <- {}", arr(a), r(idx), r(src)),
                    Some(format!(
                        "unmarked (shadow elided: statically disjoint){}",
                        tr(trusted)
                    )),
                ),
                Insn::LoadMarked {
                    dst,
                    arr: a,
                    idx,
                    trusted,
                } => (
                    "ld.mark",
                    format!("{} <- {}[{}]", r(dst), arr(a), r(idx)),
                    Some(format!("fused read-mark of {}{}", arr(a), tr(trusted))),
                ),
                Insn::StoreMarked {
                    arr: a,
                    idx,
                    src,
                    trusted,
                } => (
                    "st.mark",
                    format!("{}[{}] <- {}", arr(a), r(idx), r(src)),
                    Some(format!("fused write-mark of {}{}", arr(a), tr(trusted))),
                ),
                Insn::Reduce {
                    arr: a,
                    idx,
                    src,
                    trusted,
                } => (
                    "red.mark",
                    format!("{}[{}] ⊕= {}", arr(a), r(idx), r(src)),
                    Some(format!("fused reduction-mark of {}{}", arr(a), tr(trusted))),
                ),
                Insn::Jump { target } => ("jmp", format!("-> {target:03}"), None),
                Insn::JumpIfZero { cond, target } => {
                    ("jz", format!("{} -> {target:03}", r(cond)), None)
                }
                Insn::JumpUnless { pred, a, b, target } => (
                    "jf",
                    format!("{} {} {} -> {target:03}", r(a), pred.symbol(), r(b)),
                    Some("fused compare-and-branch".to_string()),
                ),
                Insn::Bump => ("bump", "counter".to_string(), None),
                Insn::Exit => ("exit", String::new(), None),
                Insn::Halt => ("halt", String::new(), None),
            };
            let span = self.spans[pc];
            let mut line = format!("  {pc:03}  {op:<8} {operands}");
            if note.is_some() || span.line != 0 {
                // Pad by character count, not bytes (⊕ is multibyte).
                while line.chars().count() < 44 {
                    line.push(' ');
                }
                line.push_str("  ;");
                if let Some(n) = &note {
                    line.push(' ');
                    line.push_str(n);
                }
                if span.line != 0 {
                    line.push_str(&format!(" @ {span}"));
                }
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }
}

/// Fold a binary operator over two constants, mirroring the VM's (and
/// the tree-walk interpreter's) runtime semantics exactly. Returns
/// `None` when the operation must be left to fault at run time
/// (`% 0`), so injected program faults fire identically under both
/// backends.
fn fold_bin(op: BinOp, l: f64, r: f64) -> Option<f64> {
    let b = |v: bool| if v { 1.0 } else { 0.0 };
    Some(match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => l / r,
        BinOp::Rem => {
            let (li, ri) = (crate::interp::round_i64(l), crate::interp::round_i64(r));
            if ri == 0 {
                return None;
            }
            li.rem_euclid(ri) as f64
        }
        BinOp::Eq => b(l == r),
        BinOp::Ne => b(l != r),
        BinOp::Lt => b(l < r),
        BinOp::Le => b(l <= r),
        BinOp::Gt => b(l > r),
        BinOp::Ge => b(l >= r),
        BinOp::And => b(l != 0.0 && r != 0.0),
        BinOp::Or => b(l != 0.0 || r != 0.0),
    })
}

/// Evaluate a constant subexpression at lowering time, or `None` when
/// any leaf depends on the iteration. Folding uses the same IEEE ops
/// the VM would execute, so folded results are bit-identical.
fn try_const(e: &Expr) -> Option<f64> {
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Neg(x) => try_const(x).map(|v| -v),
        Expr::Not(x) => try_const(x).map(|v| if v != 0.0 { 0.0 } else { 1.0 }),
        Expr::Bin { op, lhs, rhs } => fold_bin(*op, try_const(lhs)?, try_const(rhs)?),
        Expr::Call { func, args } => {
            let a = try_const(&args[0])?;
            Some(match func {
                Intrinsic::Min => a.min(try_const(&args[1])?),
                Intrinsic::Max => a.max(try_const(&args[1])?),
                Intrinsic::Abs => a.abs(),
                Intrinsic::Sqrt => a.sqrt(),
                Intrinsic::Floor => a.floor(),
            })
        }
        _ => None,
    }
}

/// The `mask` licensing [`Insn::RemPow2`]: `e` is a constant whose
/// rounded value (the divisor `%` actually uses) is a power of two in
/// `1..=65536`.
fn pow2_mask(e: &Expr) -> Option<u16> {
    let d = crate::interp::round_i64(try_const(e)?);
    if d > 0 && d <= 65536 && (d & (d - 1)) == 0 {
        Some((d - 1) as u16)
    } else {
        None
    }
}

/// Lowering state for one loop body.
struct Lower<'a> {
    classes: &'a [Class],
    arrays: &'a [Classification],
    num_locals: u16,
    code: Vec<Insn>,
    spans: Vec<Span>,
    consts: Vec<f64>,
    /// Provisional temp allocator (tagged; remapped after lowering).
    next_temp: u16,
    max_temp: u16,
    /// Span of the statement currently being lowered (instructions
    /// without a reference of their own inherit it).
    stmt_span: Span,
    /// Per-slot "provably a non-negative integer" flags backing the
    /// trusted-subscript proof. Sound as simple in-order updates
    /// because the parser allocates a fresh slot per `let` and scopes
    /// it lexically, so each slot has exactly one definition and it
    /// dominates every use.
    nni_slots: Vec<bool>,
}

static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// Lower one loop body to bytecode. `arrays` is the per-array verdict
/// table of this loop; its classes (the same the tree-walk interpreter
/// uses to route `⊕=`) additionally select the addressing mode —
/// `Untested` arrays get the unmarked ops, everything else the fused
/// marking ops — and its dependence evidence decides whether the loop
/// may run in strips ([`StripPlan`]).
pub fn lower_loop(nest: &LoopNest, arrays: &[Classification]) -> LoopCode {
    assert!(nest.num_locals < TEMP_TAG as usize, "too many locals");
    let classes: Vec<Class> = arrays.iter().map(|c| c.class).collect();
    let mut lw = Lower {
        classes: &classes,
        arrays,
        num_locals: nest.num_locals as u16,
        code: Vec::new(),
        spans: Vec::new(),
        consts: Vec::new(),
        next_temp: 0,
        max_temp: 0,
        stmt_span: Span::none(),
        nni_slots: vec![false; nest.num_locals],
    };
    lw.stmts(&nest.body);
    lw.stmt_span = Span::none();
    lw.emit(Insn::Halt, Span::none());
    lw.finish()
}

impl Lower<'_> {
    fn emit(&mut self, insn: Insn, span: Span) -> usize {
        let pc = self.code.len();
        self.code.push(insn);
        self.spans
            .push(if span.line != 0 { span } else { self.stmt_span });
        pc
    }

    /// The constant register holding `v` (pooled, deduplicated by bit
    /// pattern so `-0.0` and `0.0` stay distinct).
    fn const_reg(&mut self, v: f64) -> Reg {
        let k = self
            .consts
            .iter()
            .position(|c| c.to_bits() == v.to_bits())
            .unwrap_or_else(|| {
                self.consts.push(v);
                self.consts.len() - 1
            });
        assert!(k < TEMP_TAG as usize / 2, "constant pool overflow");
        1 + self.num_locals + k as u16
    }

    fn local_reg(&self, slot: usize) -> Reg {
        1 + slot as u16
    }

    /// Conservative proof that `e` always evaluates to a non-negative
    /// integer, licensing the VM's trusted (unvalidated) subscript
    /// cast. On the proven domain `v as usize` is exact, so trusted
    /// and checked resolution agree; past the end of any real array
    /// both modes still fault (trusted via the array's own bounds
    /// check rather than the subscript diagnostic).
    fn is_nni(&self, e: &Expr) -> bool {
        if let Some(v) = try_const(e) {
            return v >= 0.0 && v.fract() == 0.0;
        }
        match e {
            // The loop variable and the induction counter come from
            // `usize` ranges.
            Expr::LoopVar | Expr::Counter => true,
            Expr::Local(slot) => self.nni_slots[*slot],
            Expr::Bin { op, lhs, rhs } => match op {
                // f64 `+` / `*` of non-negative integers stays a
                // non-negative integer: every representable f64 at or
                // above 2^53 is itself an integer, so rounding never
                // introduces a fraction.
                BinOp::Add | BinOp::Mul => self.is_nni(lhs) && self.is_nni(rhs),
                // `%` rounds both operands and takes a Euclidean
                // remainder — a non-negative integer whenever it
                // returns at all (a zero divisor faults first, under
                // either subscript mode).
                BinOp::Rem => true,
                _ => false,
            },
            Expr::Call {
                func: Intrinsic::Min | Intrinsic::Max,
                args,
            } => args.iter().all(|a| self.is_nni(a)),
            _ => false,
        }
    }

    /// Fuse `x*y + z`, `z + x*y`, `x*y - z`, `z - x*y` into one
    /// multiply-accumulate dispatch when the multiply side is not a
    /// foldable constant. Operand lowering order matches the unfused
    /// form (so marking side effects are identical), and the fused op
    /// performs the same two IEEE roundings, so results are
    /// bit-identical.
    fn try_fuse_muladd(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, dst: Reg) -> bool {
        fn as_mul(e: &Expr) -> Option<(&Expr, &Expr)> {
            match e {
                Expr::Bin {
                    op: BinOp::Mul,
                    lhs,
                    rhs,
                } if try_const(e).is_none() => Some((lhs, rhs)),
                _ => None,
            }
        }
        if op == BinOp::Add {
            if let (Some((x, y)), Some((u, v))) = (as_mul(lhs), as_mul(rhs)) {
                let a = self.expr(x);
                let b = self.expr(y);
                let c = self.expr(u);
                let d = self.expr(v);
                self.emit(Insn::DualMulAdd { dst, a, b, c, d }, Span::none());
                return true;
            }
        }
        type MacCtor = fn(Reg, Reg, Reg, Reg) -> Insn;
        let (a, b, c, insn): (Reg, Reg, Reg, MacCtor) = if let Some((x, y)) = as_mul(lhs) {
            let a = self.expr(x);
            let b = self.expr(y);
            let c = self.expr(rhs);
            match op {
                BinOp::Add => (a, b, c, |dst, a, b, c| Insn::MulAdd { dst, a, b, c }),
                BinOp::Sub => (a, b, c, |dst, a, b, c| Insn::MulSub { dst, a, b, c }),
                _ => unreachable!("fusion is only attempted for + and -"),
            }
        } else if let Some((x, y)) = as_mul(rhs) {
            let c = self.expr(lhs);
            let a = self.expr(x);
            let b = self.expr(y);
            match op {
                BinOp::Add => (a, b, c, |dst, a, b, c| Insn::MulAdd { dst, a, b, c }),
                BinOp::Sub => (a, b, c, |dst, a, b, c| Insn::MulRSub { dst, a, b, c }),
                _ => unreachable!("fusion is only attempted for + and -"),
            }
        } else {
            return false;
        };
        self.emit(insn(dst, a, b, c), Span::none());
        true
    }

    /// Emit "branch ahead when `cond` is false" (target patched by the
    /// caller), fusing a bare comparison into one compare-and-branch
    /// instruction; any other condition materializes a boolean and
    /// branches on zero. Returns the pc to patch.
    fn jump_if_false(&mut self, cond: &Expr) -> usize {
        if try_const(cond).is_none() {
            if let Expr::Bin { op, lhs, rhs } = cond {
                if let Some(pred) = Pred::of(*op) {
                    let a = self.expr(lhs);
                    let b = self.expr(rhs);
                    return self.emit(
                        Insn::JumpUnless {
                            pred,
                            a,
                            b,
                            target: 0,
                        },
                        Span::none(),
                    );
                }
            }
        }
        let c = self.expr(cond);
        self.emit(Insn::JumpIfZero { cond: c, target: 0 }, Span::none())
    }

    fn alloc_temp(&mut self) -> Reg {
        let t = self.next_temp;
        self.next_temp += 1;
        self.max_temp = self.max_temp.max(self.next_temp);
        assert!(t < TEMP_TAG / 2, "temporary register overflow");
        TEMP_TAG + t
    }

    /// Evaluate `e` into some register and return it. Leaves (the loop
    /// variable, locals, constants) evaluate to their pinned register
    /// with no instruction; everything else lands in a fresh temp whose
    /// children are released on return (temps live in stack discipline,
    /// bounded by expression depth).
    fn expr(&mut self, e: &Expr) -> Reg {
        if let Some(v) = try_const(e) {
            return self.const_reg(v);
        }
        match e {
            Expr::LoopVar => REG_I,
            Expr::Local(slot) => self.local_reg(*slot),
            _ => {
                let d = self.alloc_temp();
                self.expr_into_op(e, d);
                // Release the children's temps; `d` stays live.
                self.next_temp = (d - TEMP_TAG) + 1;
                d
            }
        }
    }

    /// Evaluate `e` directly into `dst` (a local or a caller-owned
    /// temp).
    fn expr_into(&mut self, e: &Expr, dst: Reg) {
        if let Some(v) = try_const(e) {
            let src = self.const_reg(v);
            self.emit(Insn::Move { dst, src }, Span::none());
            return;
        }
        match e {
            Expr::LoopVar => {
                self.emit(Insn::Move { dst, src: REG_I }, Span::none());
            }
            Expr::Local(slot) => {
                let src = self.local_reg(*slot);
                self.emit(Insn::Move { dst, src }, Span::none());
            }
            _ => self.expr_into_op(e, dst),
        }
    }

    /// Lower a non-leaf expression so its final instruction writes
    /// `dst`.
    fn expr_into_op(&mut self, e: &Expr, dst: Reg) {
        match e {
            Expr::Num(_) | Expr::LoopVar | Expr::Local(_) => {
                unreachable!("leaves are handled by expr/expr_into")
            }
            Expr::Counter => {
                self.emit(Insn::Counter { dst }, Span::none());
            }
            Expr::Read { array, index, span } => {
                let trusted = self.is_nni(index);
                let idx = self.expr(index);
                let arr = *array as u16;
                let insn = match self.classes[*array] {
                    Class::Untested => Insn::Load {
                        dst,
                        arr,
                        idx,
                        trusted,
                    },
                    _ => Insn::LoadMarked {
                        dst,
                        arr,
                        idx,
                        trusted,
                    },
                };
                self.emit(insn, *span);
            }
            Expr::Neg(x) => {
                let a = self.expr(x);
                self.emit(Insn::Neg { dst, a }, Span::none());
            }
            Expr::Not(x) => {
                let a = self.expr(x);
                self.emit(Insn::Not { dst, a }, Span::none());
            }
            Expr::Call { func, args } => {
                let a = self.expr(&args[0]);
                let insn = match func {
                    Intrinsic::Min => {
                        let b = self.expr(&args[1]);
                        Insn::Min { dst, a, b }
                    }
                    Intrinsic::Max => {
                        let b = self.expr(&args[1]);
                        Insn::Max { dst, a, b }
                    }
                    Intrinsic::Abs => Insn::Abs { dst, a },
                    Intrinsic::Sqrt => Insn::Sqrt { dst, a },
                    Intrinsic::Floor => Insn::Floor { dst, a },
                };
                self.emit(insn, Span::none());
            }
            Expr::Bin { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => self.logical_into(*op, lhs, rhs, dst),
                BinOp::Add | BinOp::Sub if self.try_fuse_muladd(*op, lhs, rhs, dst) => {}
                BinOp::Rem if pow2_mask(rhs).is_some() => {
                    let mask = pow2_mask(rhs).unwrap();
                    let int = self.is_nni(lhs);
                    let a = self.expr(lhs);
                    self.emit(Insn::RemPow2 { dst, a, mask, int }, Span::none());
                }
                BinOp::Rem => {
                    let int = self.is_nni(lhs)
                        && try_const(rhs)
                            .is_some_and(|d| (1.0..EXACT_INT).contains(&d) && d.fract() == 0.0);
                    let a = self.expr(lhs);
                    let b = self.expr(rhs);
                    self.emit(Insn::Rem { dst, a, b, int }, Span::none());
                }
                _ => {
                    let a = self.expr(lhs);
                    let b = self.expr(rhs);
                    let insn = match op {
                        BinOp::Add => Insn::Add { dst, a, b },
                        BinOp::Sub => Insn::Sub { dst, a, b },
                        BinOp::Mul => Insn::Mul { dst, a, b },
                        BinOp::Div => Insn::Div { dst, a, b },
                        BinOp::Eq => Insn::CmpEq { dst, a, b },
                        BinOp::Ne => Insn::CmpNe { dst, a, b },
                        BinOp::Lt => Insn::CmpLt { dst, a, b },
                        BinOp::Le => Insn::CmpLe { dst, a, b },
                        BinOp::Gt => Insn::CmpGt { dst, a, b },
                        BinOp::Ge => Insn::CmpGe { dst, a, b },
                        BinOp::Rem | BinOp::And | BinOp::Or => unreachable!("handled above"),
                    };
                    self.emit(insn, Span::none());
                }
            },
        }
    }

    /// Patch a placeholder jump's target to the current position.
    fn patch(&mut self, at: usize) {
        let here = self.code.len() as u32;
        match &mut self.code[at] {
            Insn::Jump { target }
            | Insn::JumpIfZero { target, .. }
            | Insn::JumpUnless { target, .. } => *target = here,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Short-circuit `&&` / `||` producing `1.0` / `0.0` in `dst`,
    /// with the same evaluation order (and therefore the same marking
    /// side effects) as the tree-walk interpreter.
    fn logical_into(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, dst: Reg) {
        let c_true = self.const_reg(1.0);
        let c_false = self.const_reg(0.0);
        match op {
            BinOp::And => {
                let j_false_1 = self.jump_if_false(lhs);
                let j_false_2 = self.jump_if_false(rhs);
                self.emit(Insn::Move { dst, src: c_true }, Span::none());
                let j_end = self.emit(Insn::Jump { target: 0 }, Span::none());
                self.patch(j_false_1);
                self.patch(j_false_2);
                self.emit(Insn::Move { dst, src: c_false }, Span::none());
                self.patch(j_end);
            }
            BinOp::Or => {
                let j_rhs = self.jump_if_false(lhs);
                self.emit(Insn::Move { dst, src: c_true }, Span::none());
                let j_end_1 = self.emit(Insn::Jump { target: 0 }, Span::none());
                self.patch(j_rhs);
                let j_false = self.jump_if_false(rhs);
                self.emit(Insn::Move { dst, src: c_true }, Span::none());
                let j_end_2 = self.emit(Insn::Jump { target: 0 }, Span::none());
                self.patch(j_false);
                self.emit(Insn::Move { dst, src: c_false }, Span::none());
                self.patch(j_end_1);
                self.patch(j_end_2);
            }
            _ => unreachable!("not a logical operator"),
        }
    }

    fn stmts(&mut self, body: &[Stmt]) {
        for s in body {
            // Temporaries die at statement boundaries.
            let mark = self.next_temp;
            self.stmt(s);
            self.next_temp = mark;
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { slot, expr } => {
                self.stmt_span = Span::none();
                self.nni_slots[*slot] = self.is_nni(expr);
                let dst = self.local_reg(*slot);
                self.expr_into(expr, dst);
            }
            Stmt::Assign {
                array,
                index,
                expr,
                span,
            } => {
                self.stmt_span = *span;
                let trusted = self.is_nni(index);
                let idx = self.expr(index);
                let src = self.expr(expr);
                let arr = *array as u16;
                let insn = match self.classes[*array] {
                    Class::Untested => Insn::Store {
                        arr,
                        idx,
                        src,
                        trusted,
                    },
                    _ => Insn::StoreMarked {
                        arr,
                        idx,
                        src,
                        trusted,
                    },
                };
                self.emit(insn, *span);
            }
            Stmt::Update {
                array,
                index,
                op,
                expr,
                span,
            } => {
                self.stmt_span = *span;
                let trusted = self.is_nni(index);
                let idx = self.expr(index);
                let delta = self.expr(expr);
                let arr = *array as u16;
                if matches!(self.classes[*array], Class::Reduction(_)) {
                    self.emit(
                        Insn::Reduce {
                            arr,
                            idx,
                            src: delta,
                            trusted,
                        },
                        *span,
                    );
                } else {
                    // Desugared read-modify-write, exactly as the
                    // tree-walk interpreter routes it.
                    let cur = self.alloc_temp();
                    let (load, store) = match self.classes[*array] {
                        Class::Untested => (
                            Insn::Load {
                                dst: cur,
                                arr,
                                idx,
                                trusted,
                            },
                            Insn::Store {
                                arr,
                                idx,
                                src: cur,
                                trusted,
                            },
                        ),
                        _ => (
                            Insn::LoadMarked {
                                dst: cur,
                                arr,
                                idx,
                                trusted,
                            },
                            Insn::StoreMarked {
                                arr,
                                idx,
                                src: cur,
                                trusted,
                            },
                        ),
                    };
                    self.emit(load, *span);
                    let insn = match op {
                        UpdateOp::Add => Insn::Add {
                            dst: cur,
                            a: cur,
                            b: delta,
                        },
                        UpdateOp::Mul => Insn::Mul {
                            dst: cur,
                            a: cur,
                            b: delta,
                        },
                    };
                    self.emit(insn, *span);
                    self.emit(store, *span);
                }
            }
            Stmt::Bump => {
                self.stmt_span = Span::none();
                self.emit(Insn::Bump, Span::none());
            }
            Stmt::Break { cond } => {
                self.stmt_span = Span::none();
                let skip = self.jump_if_false(cond);
                self.emit(Insn::Exit, Span::none());
                self.patch(skip);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                self.stmt_span = *span;
                let j_else = self.jump_if_false(cond);
                self.stmts(then_body);
                if else_body.is_empty() {
                    self.patch(j_else);
                } else {
                    let j_end = self.emit(Insn::Jump { target: 0 }, Span::none());
                    self.patch(j_else);
                    self.stmts(else_body);
                    self.patch(j_end);
                }
            }
        }
    }

    /// Remap provisional temp registers above the (now complete)
    /// constant pool, verify every operand and target, and assemble the
    /// final [`LoopCode`].
    fn finish(mut self) -> LoopCode {
        let temp_base = 1 + self.num_locals + self.consts.len() as u16;
        let num_regs = temp_base + self.max_temp;
        let fix = |r: &mut Reg| {
            if *r >= TEMP_TAG {
                *r = temp_base + (*r - TEMP_TAG);
            }
        };
        for insn in &mut self.code {
            match insn {
                Insn::Move { dst, src } => {
                    fix(dst);
                    fix(src);
                }
                Insn::Counter { dst } => fix(dst),
                Insn::Add { dst, a, b }
                | Insn::Sub { dst, a, b }
                | Insn::Mul { dst, a, b }
                | Insn::Div { dst, a, b }
                | Insn::Rem { dst, a, b, .. }
                | Insn::CmpEq { dst, a, b }
                | Insn::CmpNe { dst, a, b }
                | Insn::CmpLt { dst, a, b }
                | Insn::CmpLe { dst, a, b }
                | Insn::CmpGt { dst, a, b }
                | Insn::CmpGe { dst, a, b }
                | Insn::Min { dst, a, b }
                | Insn::Max { dst, a, b } => {
                    fix(dst);
                    fix(a);
                    fix(b);
                }
                Insn::MulAdd { dst, a, b, c }
                | Insn::MulSub { dst, a, b, c }
                | Insn::MulRSub { dst, a, b, c } => {
                    fix(dst);
                    fix(a);
                    fix(b);
                    fix(c);
                }
                Insn::DualMulAdd { dst, a, b, c, d } => {
                    fix(dst);
                    fix(a);
                    fix(b);
                    fix(c);
                    fix(d);
                }
                Insn::Neg { dst, a }
                | Insn::Not { dst, a }
                | Insn::Abs { dst, a }
                | Insn::Sqrt { dst, a }
                | Insn::Floor { dst, a }
                | Insn::RemPow2 { dst, a, .. } => {
                    fix(dst);
                    fix(a);
                }
                Insn::Load { dst, idx, .. } | Insn::LoadMarked { dst, idx, .. } => {
                    fix(dst);
                    fix(idx);
                }
                Insn::Store { idx, src, .. }
                | Insn::StoreMarked { idx, src, .. }
                | Insn::Reduce { idx, src, .. } => {
                    fix(idx);
                    fix(src);
                }
                Insn::JumpIfZero { cond, .. } => fix(cond),
                Insn::JumpUnless { a, b, .. } => {
                    fix(a);
                    fix(b);
                }
                Insn::Jump { .. } | Insn::Bump | Insn::Exit | Insn::Halt => {}
            }
        }
        let code = LoopCode {
            strips: StripPlan::build(&self.code, self.arrays),
            code: self.code,
            spans: self.spans,
            consts: self.consts,
            num_locals: self.num_locals,
            num_regs,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
        };
        verify(&code);
        code
    }
}

/// Verify the invariants the VM's unchecked fetches rely on: every
/// register operand is below `num_regs`, every jump target is inside
/// the code, and the final instruction is a terminator (so `pc` can
/// never run off the end).
///
/// # Panics
/// Panics on any violation — a lowering bug, never a program error.
fn verify(code: &LoopCode) {
    assert_eq!(code.code.len(), code.spans.len(), "span table out of sync");
    let n = code.code.len() as u32;
    let nr = code.num_regs;
    let reg = |r: Reg| assert!(r < nr, "register {r} out of range (have {nr})");
    let tgt = |t: u32| assert!(t < n, "jump target {t} out of range (have {n})");
    assert!(
        matches!(code.code.last(), Some(Insn::Halt)),
        "body must end in halt"
    );
    for insn in &code.code {
        match *insn {
            Insn::Move { dst, src } => {
                reg(dst);
                reg(src);
            }
            Insn::Counter { dst } => reg(dst),
            Insn::Add { dst, a, b }
            | Insn::Sub { dst, a, b }
            | Insn::Mul { dst, a, b }
            | Insn::Div { dst, a, b }
            | Insn::Rem { dst, a, b, .. }
            | Insn::CmpEq { dst, a, b }
            | Insn::CmpNe { dst, a, b }
            | Insn::CmpLt { dst, a, b }
            | Insn::CmpLe { dst, a, b }
            | Insn::CmpGt { dst, a, b }
            | Insn::CmpGe { dst, a, b }
            | Insn::Min { dst, a, b }
            | Insn::Max { dst, a, b } => {
                reg(dst);
                reg(a);
                reg(b);
            }
            Insn::MulAdd { dst, a, b, c }
            | Insn::MulSub { dst, a, b, c }
            | Insn::MulRSub { dst, a, b, c } => {
                reg(dst);
                reg(a);
                reg(b);
                reg(c);
            }
            Insn::DualMulAdd { dst, a, b, c, d } => {
                reg(dst);
                reg(a);
                reg(b);
                reg(c);
                reg(d);
            }
            Insn::Neg { dst, a }
            | Insn::Not { dst, a }
            | Insn::Abs { dst, a }
            | Insn::Sqrt { dst, a }
            | Insn::Floor { dst, a }
            | Insn::RemPow2 { dst, a, .. } => {
                reg(dst);
                reg(a);
            }
            Insn::Load { dst, idx, .. } | Insn::LoadMarked { dst, idx, .. } => {
                reg(dst);
                reg(idx);
            }
            Insn::Store { idx, src, .. }
            | Insn::StoreMarked { idx, src, .. }
            | Insn::Reduce { idx, src, .. } => {
                reg(idx);
                reg(src);
            }
            Insn::Jump { target } => tgt(target),
            Insn::JumpIfZero { cond, target } => {
                reg(cond);
                tgt(target);
            }
            Insn::JumpUnless { a, b, target, .. } => {
                reg(a);
                reg(b);
                tgt(target);
            }
            Insn::Bump | Insn::Exit | Insn::Halt => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn lower_src(src: &str) -> LoopCode {
        let prog = parse(src).unwrap();
        lower_loop(&prog.loops[0], &crate::analyze::classify_loop(&prog, 0))
    }

    #[test]
    fn instructions_are_twelve_bytes() {
        // Fixed width: the four-register multiply-accumulate forms and
        // the fused compare-and-branch set the size.
        assert_eq!(std::mem::size_of::<Insn>(), 12);
    }

    #[test]
    fn muladd_shapes_fuse_into_one_dispatch() {
        let code = lower_src(
            "array A[64] = 1;\narray B[64];\nfor i in 0..64 {\n  let x = A[i];\n  B[i] = x * 3 + i;\n  B[i] = i + x * 3;\n  B[i] = x * 3 - i;\n  B[i] = i - x * 3;\n  B[i] = x * 2 + i * 5;\n}",
        );
        let count = |f: &dyn Fn(&Insn) -> bool| code.code.iter().filter(|i| f(i)).count();
        assert_eq!(
            count(&|i| matches!(i, Insn::MulAdd { .. })),
            2,
            "{:?}",
            code.code
        );
        assert_eq!(count(&|i| matches!(i, Insn::MulSub { .. })), 1);
        assert_eq!(count(&|i| matches!(i, Insn::MulRSub { .. })), 1);
        assert_eq!(count(&|i| matches!(i, Insn::DualMulAdd { .. })), 1);
        assert_eq!(
            count(&|i| matches!(i, Insn::Mul { .. })),
            0,
            "all multiplies fused"
        );
    }

    #[test]
    fn constant_multiplies_stay_folded_not_fused() {
        // `2 * 3 + i` folds to `6 + i`; fusing it into a runtime
        // multiply-accumulate would defeat the constant folder.
        let code = lower_src("array A[64];\nfor i in 0..64 { A[i] = 2 * 3 + i; }");
        assert!(!code.code.iter().any(|i| matches!(i, Insn::MulAdd { .. })));
        assert!(code.consts.contains(&6.0), "{:?}", code.consts);
    }

    #[test]
    fn power_of_two_modulus_is_strength_reduced() {
        let code = lower_src("array A[64];\nfor i in 0..128 { A[i % 64] = i % 3; }");
        // `% 64` becomes a mask; `% 3` stays a real remainder.
        assert!(
            code.code
                .iter()
                .any(|i| matches!(i, Insn::RemPow2 { mask: 63, .. })),
            "{:?}",
            code.code
        );
        assert!(code.code.iter().any(|i| matches!(i, Insn::Rem { .. })));
    }

    #[test]
    fn bare_comparison_conditions_fuse_into_branch() {
        let code = lower_src(
            "array A[64];\nfor i in 0..64 {\n  if i % 8 == 0 { A[i] = 1; }\n  break if i >= 60;\n}",
        );
        let unless = code
            .code
            .iter()
            .filter(|i| matches!(i, Insn::JumpUnless { .. }))
            .count();
        assert_eq!(unless, 2, "{:?}", code.code);
        assert!(
            !code
                .code
                .iter()
                .any(|i| matches!(i, Insn::JumpIfZero { .. })),
            "no materialized booleans remain: {:?}",
            code.code
        );
    }

    #[test]
    fn provably_integral_subscripts_are_trusted() {
        let code = lower_src(
            "array A[256] = 1;\narray B[64];\nfor i in 0..64 {\n  let s = (i * 3 + 1) % 64;\n  B[i] = A[s + 2];\n  A[i - 1] = 0;\n}",
        );
        // `s + 2` chains loop-var arithmetic through a let slot:
        // trusted. `i - 1` can be negative at i = 0: checked.
        assert!(
            code.code
                .iter()
                .any(|i| matches!(i, Insn::LoadMarked { trusted: true, .. })),
            "{:?}",
            code.code
        );
        assert!(
            code.code
                .iter()
                .any(|i| matches!(i, Insn::StoreMarked { trusted: false, .. })),
            "{:?}",
            code.code
        );
    }

    #[test]
    fn straight_line_body_lowers_compactly() {
        let code = lower_src("array A[64];\narray B[64] = 1;\nfor i in 0..64 { A[i] = B[i] * 2; }");
        // idx is the loop register, 2 and the mul land in one temp
        // each: mul + store + halt.
        assert!(code.len() <= 4, "{:?}", code.code);
        assert!(matches!(code.code.last(), Some(Insn::Halt)));
    }

    #[test]
    fn elision_selects_the_unmarked_addressing_mode() {
        // B is provably disjoint (untested) -> plain store; A is tested
        // (data-dependent subscript) -> fused marked ops.
        let code = lower_src(
            "array A[128] = 1;\narray B[64];\nfor i in 0..64 {\n  let s = (i * 7) % 64;\n  B[i] = A[s];\n  A[s + 1] = i;\n}",
        );
        let has = |f: &dyn Fn(&Insn) -> bool| code.code.iter().any(f);
        assert!(has(&|i| matches!(i, Insn::LoadMarked { .. })));
        assert!(has(&|i| matches!(i, Insn::StoreMarked { .. })));
        assert!(has(&|i| matches!(i, Insn::Store { .. })));
        assert!(
            !has(&|i| matches!(i, Insn::Load { .. })),
            "no unmarked loads of A"
        );
    }

    #[test]
    fn constants_are_pooled_and_deduplicated() {
        let code = lower_src("array A[64];\nfor i in 0..64 { A[i] = i * 0.5 + 0.5 * 3; }");
        // 0.5 appears once in the pool; 0.5 * 3 folds to 1.5.
        let halves = code.consts.iter().filter(|c| **c == 0.5).count();
        assert_eq!(halves, 1);
        assert!(code.consts.contains(&1.5), "{:?}", code.consts);
    }

    #[test]
    fn modulo_by_literal_zero_is_not_folded() {
        // The fault must fire at run time, identically to the
        // interpreter — never at compile time.
        let code = lower_src("array A[8];\nfor i in 0..8 { A[i] = 4 % 0; }");
        assert!(code.code.iter().any(|i| matches!(i, Insn::Rem { .. })));
    }

    #[test]
    fn spans_follow_array_references() {
        let code = lower_src("array A[8];\nfor i in 0..8 {\n  A[i] = 1;\n}");
        let store_pc = code
            .code
            .iter()
            .position(|i| matches!(i, Insn::Store { .. } | Insn::StoreMarked { .. }))
            .unwrap();
        assert_eq!(code.span_of(store_pc).line, 3);
    }

    #[test]
    fn disassembly_names_arrays_and_marks() {
        let code = lower_src("array A[128] = 1;\nfor i in 0..64 { A[(i * 3) % 64] = A[i] + 1; }");
        let text = code.disassemble(&["A"], "i");
        assert!(text.contains("ld.mark"), "{text}");
        assert!(text.contains("st.mark"), "{text}");
        assert!(text.contains("fused write-mark of A"), "{text}");
        assert!(text.contains("@ 2:"), "{text}");
    }
}
