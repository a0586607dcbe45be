//! The register VM: executes lowered [`LoopCode`] against the engine's
//! instrumented context, one iteration per dispatch or — for loops the
//! lowering found eligible — [`STRIP`] iterations per dispatch.
//!
//! This is the hot path of the compiled tier — one flat dispatch loop,
//! no AST walks, no per-iteration allocation. It is written once, over
//! a register file of width `W` (every register is `[f64; W]`, one lane
//! per iteration), and instantiated twice:
//!
//! * **width 1** is the scalar VM: branches jump, memory instructions
//!   go straight to `ctx.read / write / reduce`, program faults panic.
//!   It runs every ineligible loop, every block tail shorter than a
//!   strip, and every strip whose speculation failed.
//! * **width [`STRIP`]** runs a *strip* of consecutive iterations in
//!   three phases. (1) *Execute*, side-effect free: an instruction is
//!   dispatched once and applied across the lanes (plain loops the
//!   compiler vectorises), forward branches park lanes under a
//!   resume-pc mask, loads *peek* ([`PeekCtx`]), stores and reduces
//!   are only logged, and a would-be program fault abandons the strip.
//!   (2) *Validate*: no load may have observed an element that an
//!   earlier iteration of the strip — or its own iteration, earlier in
//!   program order — stores or reduces. (3) *Replay* the log lane by
//!   lane, in program order, through the ordinary context calls, so
//!   marks, private values, reference counts and reduction association
//!   are exactly the scalar VM's. A failed or abandoned strip re-runs
//!   on width 1, which is where a real fault then fires, at its
//!   iteration, with its message. This is the paper's test one level
//!   down: speculate that `STRIP` iterations are independent, test the
//!   logged references, re-execute sequentially on failure.
//!
//! The register files live in a per-thread scratch that is *bound* to
//! a loop: binding (sizing the file and materializing the constant
//! pool into the constant registers) happens only when the thread
//! switches loops.
//!
//! Register and instruction fetches are unchecked; the lowering
//! verifier (`bytecode::verify`) established the bounds at compile
//! time. Panics out of the VM are *program* faults (bad subscript,
//! modulo by zero) and carry the same messages as the tree-walk
//! interpreter — plus the source span the bytecode's side table
//! preserved — so fault-containment tests observe identical behavior
//! on either backend.

use crate::bytecode::{Insn, LoopCode, MemKind, Pred, StripPlan, EXACT_INT, REG_I, STRIP};
use crate::interp::{rem_value, round_i64, DataCtx, PeekCtx};
use rlrpd_core::BatchTally;
use std::cell::RefCell;
use std::ops::Range;

/// A register file of width `W`, bound to the loop whose constants it
/// currently holds.
struct File<const W: usize> {
    regs: Vec<[f64; W]>,
    /// [`LoopCode::uid`] of the bound loop (0 = unbound; uids start
    /// at 1).
    bound: u64,
}

impl<const W: usize> File<W> {
    const fn new() -> Self {
        File {
            regs: Vec::new(),
            bound: 0,
        }
    }

    #[inline]
    fn bind(&mut self, code: &LoopCode) {
        if self.bound != code.uid {
            self.rebind(code);
        }
    }

    /// Size the file and broadcast the constant pool. Paid once per
    /// `(thread, loop)`, not per iteration — cold so the binding code
    /// stays off the hot path.
    #[cold]
    fn rebind(&mut self, code: &LoopCode) {
        self.regs.clear();
        self.regs.resize(code.num_regs as usize, [0.0; W]);
        let cb = code.const_base();
        for (reg, &c) in self.regs[cb..].iter_mut().zip(&code.consts) {
            *reg = [c; W];
        }
        self.bound = code.uid;
    }
}

/// What one memory instruction did in the current strip: which lanes
/// executed it, each lane's element and (store / reduce) value.
#[derive(Clone, Copy)]
struct Access {
    lanes: u32,
    idx: [usize; STRIP],
    val: [f64; STRIP],
}

struct Scratch {
    one: File<1>,
    strip: File<STRIP>,
    /// The strip's access log, one entry per memory instruction
    /// ([`StripPlan::ops`]).
    log: Vec<Access>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            one: File::new(),
            strip: File::new(),
            log: Vec::new(),
        })
    };
}

/// Execute one iteration of `code` with the loop variable at `i`.
#[inline]
pub(crate) fn iterate<C: DataCtx>(code: &LoopCode, i: f64, ctx: &mut C) {
    SCRATCH.with(|cell| step(code, &mut cell.borrow_mut().one, i, ctx));
}

fn step<C: DataCtx>(code: &LoopCode, one: &mut File<1>, i: f64, ctx: &mut C) {
    one.bind(code);
    one.regs[REG_I as usize] = [i];
    run(code, &mut one.regs, &mut Direct(ctx));
}

/// Execute iterations `iters` of `code` in order (iteration `k` runs
/// with the loop variable at `first + k`), calling `after` between
/// them and stopping when it returns `false` — in strips where the
/// loop is eligible, `strips` allows it and a whole strip remains,
/// otherwise one iteration at a time. A failed strip backs off: the
/// next 1, 2, 4 … strips of this call run scalar without probing (reset
/// by the next success), so a loop whose dependences are short pays a
/// bounded probe cost.
pub(crate) fn run_range<C: PeekCtx>(
    code: &LoopCode,
    first: usize,
    iters: Range<usize>,
    strips: bool,
    ctx: &mut C,
    after: &mut dyn FnMut(&mut C) -> bool,
) -> BatchTally {
    let mut tally = BatchTally::default();
    SCRATCH.with(|cell| {
        let Scratch { one, strip, log } = &mut *cell.borrow_mut();
        let mut it = iters.start;
        if let (true, Ok(plan)) = (strips && iters.len() >= STRIP, &code.strips) {
            strip.bind(code);
            log.resize(
                plan.ops.len(),
                Access {
                    lanes: 0,
                    idx: [0; STRIP],
                    val: [0.0; STRIP],
                },
            );
            let (mut skip, mut penalty) = (0usize, 0usize);
            while iters.end - it >= STRIP {
                let batched = skip == 0 && {
                    for acc in log.iter_mut() {
                        acc.lanes = 0;
                    }
                    strip.regs[REG_I as usize] = std::array::from_fn(|l| (first + it + l) as f64);
                    let mut ahead = Ahead {
                        ctx: &*ctx,
                        plan,
                        log,
                    };
                    run(code, &mut strip.regs, &mut ahead) && independent(plan, log)
                };
                if batched {
                    for l in 0..STRIP {
                        replay(plan, log, l, ctx);
                        if !after(ctx) {
                            return;
                        }
                    }
                    tally.batched_iters += STRIP as u64;
                    penalty = 0;
                } else {
                    if skip == 0 {
                        tally.scalar_strips += 1;
                        penalty = (2 * penalty).max(1);
                        skip = penalty;
                    } else {
                        skip -= 1;
                    }
                    if !steps(code, one, first, it..it + STRIP, ctx, after) {
                        return;
                    }
                }
                it += STRIP;
            }
        }
        steps(code, one, first, it..iters.end, ctx, after);
    });
    tally
}

/// Iterations `iters` one per dispatch; `false` once `after` said stop.
fn steps<C: DataCtx>(
    code: &LoopCode,
    one: &mut File<1>,
    first: usize,
    iters: Range<usize>,
    ctx: &mut C,
    after: &mut dyn FnMut(&mut C) -> bool,
) -> bool {
    for iter in iters {
        step(code, one, (first + iter) as f64, ctx);
        if !after(ctx) {
            return false;
        }
    }
    true
}

/// The strip's validity test: the side-effect-free execution peeked
/// every load against the state *before* the strip, which is what the
/// iteration would have seen unless an earlier iteration of the strip
/// (or the same one, earlier in program order) stores or reduces that
/// element. Loads are the only references that observe anything before
/// replay — stores and reduces are deferred and replayed in order — so
/// anti and output dependences inside a strip are legal.
fn independent(plan: &StripPlan, log: &[Access]) -> bool {
    for h in &plan.hazards {
        let (st, ld) = (&log[h.store as usize], &log[h.load as usize]);
        let mut stores = st.lanes;
        while stores != 0 && ld.lanes != 0 {
            let l = stores.trailing_zeros();
            stores &= stores - 1;
            let mut after = 0;
            if h.cross {
                after |= ld.lanes & !((2u32 << l) - 1);
            }
            if h.load > h.store {
                after |= ld.lanes & (1 << l);
            }
            while after != 0 {
                let k = after.trailing_zeros() as usize;
                after &= after - 1;
                if ld.idx[k] == st.idx[l as usize] {
                    return false;
                }
            }
        }
    }
    true
}

/// Make lane `l`'s logged references happen, in program order.
fn replay<C: DataCtx>(plan: &StripPlan, log: &[Access], l: usize, ctx: &mut C) {
    for (op, acc) in plan.ops.iter().zip(log) {
        if acc.lanes >> l & 1 == 0 {
            continue;
        }
        let (a, j) = (op.arr as usize, acc.idx[l]);
        match op.kind {
            MemKind::Load => {
                ctx.read(a, j);
            }
            MemKind::Store => ctx.write(a, j, acc.val[l]),
            MemKind::Reduce => ctx.reduce(a, j, acc.val[l]),
        }
    }
}

/// The memory instruction being executed.
#[derive(Clone, Copy)]
struct At<'a> {
    code: &'a LoopCode,
    pc: usize,
    arr: u16,
    /// The subscript was proven non-negative-integral at lowering
    /// (`bytecode`'s `is_nni`), so the cast is exact on the proven
    /// domain and validation is skipped; array bounds are still
    /// enforced by the access itself.
    trusted: bool,
}

impl At<'_> {
    /// Resolve a subscript value to an element index, `None` when it is
    /// not a non-negative integer — same test as the interpreter's.
    #[inline(always)]
    fn try_index(&self, v: f64) -> Option<usize> {
        if self.trusted {
            return Some(v as usize);
        }
        let r = round_i64(v);
        ((v - r as f64).abs() < 1e-9 && r >= 0).then_some(r as usize)
    }

    /// Resolve a subscript value to an element index.
    ///
    /// # Panics
    /// Panics on negative or non-integral subscripts (a bug in the
    /// source program), with the interpreter's message extended by the
    /// source span the instruction carries.
    #[inline(always)]
    fn index(&self, v: f64) -> usize {
        self.try_index(v).unwrap_or_else(|| {
            panic!(
                "subscript {v} is not a non-negative integer (at {})",
                self.code.span_of(self.pc)
            )
        })
    }
}

/// How a width talks to memory. Every method returns `false` / `None`
/// to abandon the strip; the scalar port never does (it panics on a
/// program fault instead).
trait Port<const W: usize> {
    /// Load `arr[idx[l]]` into `out[l]` for every lane `l` of `live`.
    fn load(&mut self, at: At<'_>, live: u32, idx: &[f64; W], out: &mut [f64; W]) -> bool;
    fn store(&mut self, at: At<'_>, live: u32, idx: &[f64; W], src: &[f64; W]) -> bool;
    fn reduce(&mut self, at: At<'_>, live: u32, idx: &[f64; W], src: &[f64; W]) -> bool;
    fn counter(&mut self) -> Option<f64>;
    fn bump(&mut self) -> bool;
    /// Premature exit; returns what `run` returns.
    fn exit(&mut self) -> bool;
}

/// Width 1: references happen as they execute.
struct Direct<'a, C>(&'a mut C);

impl<C: DataCtx> Port<1> for Direct<'_, C> {
    // Marked and unmarked addressing modes both go through the
    // context: routing there decides whether the access is direct or
    // marks the shadow, so the same bytecode runs correctly when
    // `with_full_instrumentation` re-arms an elided array's shadow at
    // declaration time.
    #[inline(always)]
    fn load(&mut self, at: At<'_>, _: u32, idx: &[f64; 1], out: &mut [f64; 1]) -> bool {
        out[0] = self.0.read(at.arr as usize, at.index(idx[0]));
        true
    }
    #[inline(always)]
    fn store(&mut self, at: At<'_>, _: u32, idx: &[f64; 1], src: &[f64; 1]) -> bool {
        self.0.write(at.arr as usize, at.index(idx[0]), src[0]);
        true
    }
    #[inline(always)]
    fn reduce(&mut self, at: At<'_>, _: u32, idx: &[f64; 1], src: &[f64; 1]) -> bool {
        self.0.reduce(at.arr as usize, at.index(idx[0]), src[0]);
        true
    }
    fn counter(&mut self) -> Option<f64> {
        Some(self.0.counter() as f64)
    }
    fn bump(&mut self) -> bool {
        self.0.bump();
        true
    }
    fn exit(&mut self) -> bool {
        self.0.exit();
        true
    }
}

/// Width [`STRIP`], phase 1: loads peek, stores and reduces are logged,
/// nothing happens yet.
struct Ahead<'a, C> {
    ctx: &'a C,
    plan: &'a StripPlan,
    log: &'a mut [Access],
}

impl<C: PeekCtx> Ahead<'_, C> {
    /// Log `live`'s subscripts (and `src` values) under the
    /// instruction's slot; `false` on a subscript that would fault.
    #[inline(always)]
    fn note(
        &mut self,
        at: At<'_>,
        live: u32,
        idx: &[f64; STRIP],
        src: Option<&[f64; STRIP]>,
    ) -> bool {
        let len = self.ctx.len(at.arr as usize);
        let acc = &mut self.log[self.plan.slot_of[at.pc] as usize];
        acc.lanes = live;
        let mut m = live;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            match at.try_index(idx[l]) {
                Some(j) if j < len => acc.idx[l] = j,
                _ => return false,
            }
        }
        if let Some(src) = src {
            acc.val = *src;
        }
        true
    }
}

impl<C: PeekCtx> Port<STRIP> for Ahead<'_, C> {
    #[inline(always)]
    fn load(&mut self, at: At<'_>, live: u32, idx: &[f64; STRIP], out: &mut [f64; STRIP]) -> bool {
        if !self.note(at, live, idx, None) {
            return false;
        }
        let acc = &self.log[self.plan.slot_of[at.pc] as usize];
        let mut m = live;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            match self.ctx.peek(at.arr as usize, acc.idx[l]) {
                Some(v) => out[l] = v,
                None => return false,
            }
        }
        true
    }
    #[inline(always)]
    fn store(&mut self, at: At<'_>, live: u32, idx: &[f64; STRIP], src: &[f64; STRIP]) -> bool {
        self.note(at, live, idx, Some(src))
    }
    #[inline(always)]
    fn reduce(&mut self, at: At<'_>, live: u32, idx: &[f64; STRIP], src: &[f64; STRIP]) -> bool {
        self.note(at, live, idx, Some(src))
    }
    // Lowering refuses strips for loops with these instructions
    // (`StripRefusal`); abandoning keeps that a performance decision,
    // not a correctness one.
    fn counter(&mut self) -> Option<f64> {
        None
    }
    fn bump(&mut self) -> bool {
        false
    }
    fn exit(&mut self) -> bool {
        false
    }
}

#[inline]
fn bool_val(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// The lanes where `a pred b` holds, as a bit mask.
#[inline(always)]
fn lanes_where<const W: usize>(pred: Pred, a: &[f64; W], b: &[f64; W]) -> u32 {
    #[inline(always)]
    fn mask<const W: usize>(a: &[f64; W], b: &[f64; W], f: impl Fn(f64, f64) -> bool) -> u32 {
        let mut m = 0;
        for l in 0..W {
            m |= (f(a[l], b[l]) as u32) << l;
        }
        m
    }
    match pred {
        Pred::Eq => mask(a, b, |x, y| x == y),
        Pred::Ne => mask(a, b, |x, y| x != y),
        Pred::Lt => mask(a, b, |x, y| x < y),
        Pred::Le => mask(a, b, |x, y| x <= y),
        Pred::Gt => mask(a, b, |x, y| x > y),
        Pred::Ge => mask(a, b, |x, y| x >= y),
    }
}

/// `%` with the rounding skipped where lowering proved both operands
/// integers ([`Insn::Rem`]'s `int` bit): below `2^53` the `f64` and
/// `u64` values coincide and the Euclidean remainder is the unsigned
/// one.
#[inline(always)]
fn rem(x: f64, y: f64, int: bool) -> f64 {
    if int && x < EXACT_INT {
        (x as u64 % y as u64) as f64
    } else {
        rem_value(x, y)
    }
}

/// Exactly `rem(x, mask + 1)`: Euclidean remainder by a power of two
/// is a mask in two's complement.
#[inline(always)]
fn rem_pow2(x: f64, mask: u16, int: bool) -> f64 {
    if int && x < EXACT_INT {
        (x as u64 & mask as u64) as f64
    } else {
        (round_i64(x) & mask as i64) as f64
    }
}

/// A parked lane's resume pc when it has none.
const NEVER: u32 = u32::MAX;

/// The dispatch loop: run the body once over a width-`W` register file
/// whose loop-variable register the caller has set per lane. Returns
/// `false` when the port abandoned the strip (never at width 1).
///
/// Local slots are *not* re-zeroed between runs: the parser allocates a
/// fresh, lexically scoped slot per `let`, so every local is written
/// before it can be read and a previous iteration's values are
/// unreachable. (`rebind` zeroes the file once; the differential
/// proptest guards the claim.)
///
/// Branches are forward-only (`StripPlan::build` asserts it). At width
/// 1 a taken branch is a jump. At width `W` the lanes that take it are
/// *parked* with the target as their resume pc and the rest go on; a
/// parked lane wakes when the pc reaches its target, and when no lane
/// is live the pc skips to the nearest one. Each lane therefore
/// executes exactly its own path, in program order.
fn run<const W: usize, P: Port<W>>(code: &LoopCode, regs: &mut [[f64; W]], port: &mut P) -> bool {
    debug_assert_eq!(regs.len(), code.num_regs as usize);
    let insns = code.code.as_slice();
    let full = u32::MAX >> (32 - W);
    let mut live = full;
    let mut resume = [NEVER; W];
    let mut wake = NEVER;
    let mut pc = 0usize;
    // SAFETY (all unchecked accesses below): `bytecode::verify` proved
    // at lowering time that every register operand is < num_regs ==
    // regs.len(), every jump target is < insns.len(), and the body ends
    // in a terminator, so `pc` — which only ever advances by one or to
    // a jump target — never runs past the end.
    macro_rules! r {
        ($r:expr) => {
            unsafe { regs.get_unchecked($r as usize) }
        };
    }
    macro_rules! rm {
        ($r:expr) => {
            unsafe { regs.get_unchecked_mut($r as usize) }
        };
    }
    // `body` for each live lane.
    macro_rules! lanes {
        (|$l:ident| $body:expr) => {{
            let mut m = live;
            while m != 0 {
                let $l = m.trailing_zeros() as usize;
                m &= m - 1;
                $body
            }
        }};
    }
    // `dst[l] <- e` for each live lane; with every lane live, a plain
    // loop into a local the compiler vectorises.
    macro_rules! set {
        ($dst:expr, |$l:ident| $e:expr) => {{
            if W == 1 || live == full {
                let mut out = [0.0; W];
                for $l in 0..W {
                    out[$l] = $e;
                }
                *rm!($dst) = out;
            } else {
                lanes!(|$l| {
                    let v = $e;
                    rm!($dst)[$l] = v;
                })
            }
        }};
    }
    // The lanes of `go` branch to `target`.
    macro_rules! branch {
        ($go:expr, $target:expr) => {{
            let go: u32 = $go & live;
            if W == 1 {
                if go != 0 {
                    pc = $target as usize;
                }
            } else if go != 0 {
                let mut m = go;
                while m != 0 {
                    resume[m.trailing_zeros() as usize] = $target;
                    m &= m - 1;
                }
                live &= !go;
                wake = wake.min($target);
                if live == 0 {
                    pc = wake as usize;
                }
            }
        }};
    }
    loop {
        if W > 1 && pc == wake as usize {
            wake = NEVER;
            for (l, at) in resume.iter_mut().enumerate() {
                if *at as usize == pc {
                    *at = NEVER;
                    live |= 1 << l;
                } else {
                    wake = wake.min(*at);
                }
            }
        }
        let at = pc;
        let insn = unsafe { *insns.get_unchecked(at) };
        pc += 1;
        match insn {
            Insn::Move { dst, src } => set!(dst, |l| r!(src)[l]),
            Insn::Counter { dst } => {
                let Some(c) = port.counter() else {
                    return false;
                };
                set!(dst, |_l| c);
            }
            Insn::Add { dst, a, b } => set!(dst, |l| r!(a)[l] + r!(b)[l]),
            Insn::Sub { dst, a, b } => set!(dst, |l| r!(a)[l] - r!(b)[l]),
            Insn::Mul { dst, a, b } => set!(dst, |l| r!(a)[l] * r!(b)[l]),
            Insn::Div { dst, a, b } => set!(dst, |l| r!(a)[l] / r!(b)[l]),
            Insn::Rem { dst, a, b, int } => {
                if W > 1 && !int {
                    // A zero divisor is a fault in waiting.
                    lanes!(|l| if round_i64(r!(b)[l]) == 0 {
                        return false;
                    });
                }
                set!(dst, |l| rem(r!(a)[l], r!(b)[l], int));
            }
            Insn::RemPow2 { dst, a, mask, int } => set!(dst, |l| rem_pow2(r!(a)[l], mask, int)),
            Insn::MulAdd { dst, a, b, c } => set!(dst, |l| r!(a)[l] * r!(b)[l] + r!(c)[l]),
            Insn::DualMulAdd { dst, a, b, c, d } => {
                set!(dst, |l| r!(a)[l] * r!(b)[l] + r!(c)[l] * r!(d)[l]);
            }
            Insn::MulSub { dst, a, b, c } => set!(dst, |l| r!(a)[l] * r!(b)[l] - r!(c)[l]),
            Insn::MulRSub { dst, a, b, c } => set!(dst, |l| r!(c)[l] - r!(a)[l] * r!(b)[l]),
            Insn::CmpEq { dst, a, b } => set!(dst, |l| bool_val(r!(a)[l] == r!(b)[l])),
            Insn::CmpNe { dst, a, b } => set!(dst, |l| bool_val(r!(a)[l] != r!(b)[l])),
            Insn::CmpLt { dst, a, b } => set!(dst, |l| bool_val(r!(a)[l] < r!(b)[l])),
            Insn::CmpLe { dst, a, b } => set!(dst, |l| bool_val(r!(a)[l] <= r!(b)[l])),
            Insn::CmpGt { dst, a, b } => set!(dst, |l| bool_val(r!(a)[l] > r!(b)[l])),
            Insn::CmpGe { dst, a, b } => set!(dst, |l| bool_val(r!(a)[l] >= r!(b)[l])),
            Insn::Neg { dst, a } => set!(dst, |l| -r!(a)[l]),
            Insn::Not { dst, a } => set!(dst, |l| bool_val(r!(a)[l] == 0.0)),
            Insn::Min { dst, a, b } => set!(dst, |l| r!(a)[l].min(r!(b)[l])),
            Insn::Max { dst, a, b } => set!(dst, |l| r!(a)[l].max(r!(b)[l])),
            Insn::Abs { dst, a } => set!(dst, |l| r!(a)[l].abs()),
            Insn::Sqrt { dst, a } => set!(dst, |l| r!(a)[l].sqrt()),
            Insn::Floor { dst, a } => set!(dst, |l| r!(a)[l].floor()),
            Insn::Load {
                dst,
                arr,
                idx,
                trusted,
            }
            | Insn::LoadMarked {
                dst,
                arr,
                idx,
                trusted,
            } => {
                let at = At {
                    code,
                    pc: at,
                    arr,
                    trusted,
                };
                let mut out = [0.0; W];
                if !port.load(at, live, r!(idx), &mut out) {
                    return false;
                }
                set!(dst, |l| out[l]);
            }
            Insn::Store {
                arr,
                idx,
                src,
                trusted,
            }
            | Insn::StoreMarked {
                arr,
                idx,
                src,
                trusted,
            } => {
                let at = At {
                    code,
                    pc: at,
                    arr,
                    trusted,
                };
                if !port.store(at, live, r!(idx), r!(src)) {
                    return false;
                }
            }
            Insn::Reduce {
                arr,
                idx,
                src,
                trusted,
            } => {
                let at = At {
                    code,
                    pc: at,
                    arr,
                    trusted,
                };
                if !port.reduce(at, live, r!(idx), r!(src)) {
                    return false;
                }
            }
            Insn::Jump { target } => branch!(full, target),
            Insn::JumpIfZero { cond, target } => {
                branch!(lanes_where(Pred::Eq, r!(cond), &[0.0; W]), target);
            }
            Insn::JumpUnless { pred, a, b, target } => {
                branch!(!lanes_where(pred, r!(a), r!(b)), target);
            }
            Insn::Bump => {
                if !port.bump() {
                    return false;
                }
            }
            Insn::Exit => return port.exit(),
            Insn::Halt => return true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::classify_loop;
    use crate::bytecode::{lower_loop, StripRefusal};
    use crate::parse;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// One call the body made on its context, in order. The engine's
    /// marks, private values and reference counts are functions of this
    /// sequence, so two tiers with equal traces are indistinguishable
    /// to it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Ref {
        Read(usize, usize),
        Write(usize, usize, u64),
        Reduce(usize, usize, u64),
        /// The iteration ended (`after` ran).
        Done,
    }

    /// A direct-memory context recording every reference — enough to
    /// test VM semantics without an engine.
    struct MemCtx {
        arrays: Vec<Vec<f64>>,
        trace: Vec<Ref>,
        exited: bool,
    }

    impl DataCtx for MemCtx {
        fn read(&mut self, a: usize, i: usize) -> f64 {
            self.trace.push(Ref::Read(a, i));
            self.arrays[a][i]
        }
        fn write(&mut self, a: usize, i: usize, v: f64) {
            self.trace.push(Ref::Write(a, i, v.to_bits()));
            self.arrays[a][i] = v;
        }
        fn reduce(&mut self, a: usize, i: usize, v: f64) {
            self.trace.push(Ref::Reduce(a, i, v.to_bits()));
            self.arrays[a][i] += v;
        }
        fn exit(&mut self) {
            self.exited = true;
        }
    }

    impl PeekCtx for MemCtx {
        fn peek(&self, a: usize, i: usize) -> Option<f64> {
            self.arrays[a].get(i).copied()
        }
        fn len(&self, a: usize) -> usize {
            self.arrays[a].len()
        }
    }

    fn after(ctx: &mut MemCtx) -> bool {
        ctx.trace.push(Ref::Done);
        !ctx.exited
    }

    struct Tiers {
        tree_walk: MemCtx,
        scalar: MemCtx,
        strips: MemCtx,
        tally: BatchTally,
    }

    /// Run iterations `iters` of `src` on the tree-walk oracle, on the
    /// VM at one iteration per dispatch, and on the VM in strips.
    fn run_tiers(src: &str, iters: Range<usize>) -> Tiers {
        let prog = parse(src).unwrap();
        let nest = &prog.loops[0];
        let arrays = classify_loop(&prog, 0);
        let classes: Vec<_> = arrays.iter().map(|c| c.class).collect();
        let code = lower_loop(nest, &arrays);
        let mk = || MemCtx {
            arrays: prog.arrays.iter().map(|d| vec![d.init; d.size]).collect(),
            trace: Vec::new(),
            exited: false,
        };
        let mut tree_walk = mk();
        for it in iters.clone() {
            let mut locals = vec![0.0; nest.num_locals];
            let mut eval = crate::interp::Eval {
                i: (nest.range.0 + it) as f64,
                locals: &mut locals,
                classes: &classes,
                ctx: &mut tree_walk,
            };
            let _ = eval.stmts(&nest.body);
            if !after(&mut tree_walk) {
                break;
            }
        }
        let mut scalar = mk();
        let none = run_range(
            &code,
            nest.range.0,
            iters.clone(),
            false,
            &mut scalar,
            &mut after,
        );
        assert_eq!(none, BatchTally::default());
        let mut strips = mk();
        let tally = run_range(&code, nest.range.0, iters, true, &mut strips, &mut after);
        Tiers {
            tree_walk,
            scalar,
            strips,
            tally,
        }
    }

    /// All three tiers made the same references in the same order and
    /// left the same bits behind.
    fn assert_identical(src: &str, iters: Range<usize>) -> BatchTally {
        let t = run_tiers(src, iters);
        for (name, got) in [("scalar VM", &t.scalar), ("strips", &t.strips)] {
            assert_eq!(got.trace, t.tree_walk.trace, "{name}: references diverged");
            for (a, (ga, wa)) in got.arrays.iter().zip(&t.tree_walk.arrays).enumerate() {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(ga), bits(wa), "{name}: array {a} diverged");
            }
            assert_eq!(got.exited, t.tree_walk.exited, "{name}");
        }
        t.tally
    }

    #[test]
    fn arithmetic_and_intrinsics_match_the_interpreter() {
        let tally = assert_identical(
            "array A[64] = 2;\narray B[64];\nfor i in 0..64 {\n  let v = sqrt(A[i]) + abs(0 - i) * 0.25;\n  B[i] = max(v, floor(v)) + min(i, 3) / 7;\n}",
            0..64,
        );
        assert_eq!((tally.batched_iters, tally.scalar_strips), (64, 0));
    }

    #[test]
    fn guards_and_short_circuit_match_the_interpreter() {
        // The rhs of && / || has a marking side effect (an array read),
        // so evaluation order is observable in the reference trace —
        // and in a strip the lanes diverge at both guards.
        let tally = assert_identical(
            "array A[64] = 1;\narray B[64];\nfor i in 0..64 {\n  if i > 2 && A[i - 3] > 0 { B[i] = 1; } else { B[i] = 2; }\n  if i == 0 || A[i - 1] > 0 { B[i] = B[i] + 10; }\n}",
            0..64,
        );
        // `B[i] = …; … B[i] + 10` loads what the same lane just stored:
        // strips 0 and 2 are probed and fail, 1 and 3 are skipped.
        assert_eq!((tally.batched_iters, tally.scalar_strips), (0, 2));
    }

    #[test]
    fn nested_divergent_guards_park_and_wake_each_lane_on_its_own_path() {
        let tally = assert_identical(
            "array A[256] = 1;\narray B[256];\narray C[256];\nfor i in 0..256 {\n  if i % 3 == 0 {\n    if i % 2 == 0 { B[i] = A[i] * 2; } else { C[i] = A[i] + i; }\n  } else {\n    if i % 5 == 0 || i % 7 == 0 { B[i] = 0 - i; }\n    C[i] = i * 0.5;\n  }\n  B[i] = B[i] + 1;\n}",
            0..256,
        );
        // The last statement reads what an arm of the same lane stored.
        assert_eq!(tally.batched_iters, 0);
        let tally = assert_identical(
            "array A[256] = 1;\narray B[256];\narray C[256];\nfor i in 0..256 {\n  if i % 3 == 0 {\n    if i % 2 == 0 { B[i] = A[i] * 2; } else { C[i] = A[i] + i; }\n  } else {\n    if i % 5 == 0 || i % 7 == 0 { B[i] = 0 - i; }\n    C[i] = i * 0.5;\n  }\n}",
            0..256,
        );
        assert_eq!((tally.batched_iters, tally.scalar_strips), (256, 0));
    }

    #[test]
    fn update_and_reduction_routing_match_the_interpreter() {
        assert_identical(
            "array A[16] = 1;\narray Y[4] : reduction(+);\nfor i in 0..32 {\n  A[i % 16] *= 1.5;\n  Y[i % 4] += i * 0.5;\n}",
            0..32,
        );
    }

    #[test]
    fn flow_dependences_inside_a_strip_fail_it_at_every_distance() {
        for d in 1..STRIP {
            let src = format!(
                "array A[200] = 1;\nfor i in {d}..{} {{ if i % 2 == 0 || i > 0 {{ A[i] = A[i - {d}] * 0.5 + i; }} }}",
                d + 64
            );
            let tally = assert_identical(&src, 0..64);
            assert_eq!(tally.batched_iters, 0, "distance {d}");
            // Probes at strips 0 and 2: one skipped after the first
            // failure, two after the second.
            assert_eq!(tally.scalar_strips, 2, "distance {d}");
        }
        // At distance STRIP the dependence spans strips: each is legal.
        let src = format!(
            "array A[200] = 1;\nfor i in {STRIP}..{} {{ if i > 0 {{ A[i] = A[i - {STRIP}] * 0.5 + i; }} }}",
            STRIP + 64
        );
        let tally = assert_identical(&src, 0..64);
        assert_eq!((tally.batched_iters, tally.scalar_strips), (64, 0));
    }

    #[test]
    fn anti_and_output_dependences_inside_a_strip_are_legal() {
        // Loads see the state before the strip, which is what an
        // iteration ahead of the store sees anyway; stores replay in
        // iteration order, so the last one wins as it must.
        for d in 1..STRIP {
            let src = format!(
                "array A[200] = 1;\narray B[8];\nfor i in 0..64 {{ if i >= 0 {{ A[i] = A[i + {d}] * 0.5 + i; }} B[i % 3] = i; }}"
            );
            let tally = assert_identical(&src, 0..64);
            assert_eq!(
                (tally.batched_iters, tally.scalar_strips),
                (64, 0),
                "distance {d}"
            );
        }
    }

    #[test]
    fn a_lane_reading_its_own_deferred_store_fails_the_strip() {
        // A is provably iteration-disjoint (exempt across lanes), yet
        // within one iteration the load follows the store.
        let tally = assert_identical(
            "array A[64];\narray B[64];\nfor i in 0..64 {\n  A[i] = i * 2;\n  B[i] = A[i] + 1;\n}",
            0..64,
        );
        assert_eq!((tally.batched_iters, tally.scalar_strips), (0, 2));
        // The other order is an ordinary read-modify-write.
        let tally = assert_identical(
            "array A[64] = 3;\narray B[64];\nfor i in 0..64 {\n  B[i] = A[i] + 1;\n  A[i] = i * 2;\n}",
            0..64,
        );
        assert_eq!((tally.batched_iters, tally.scalar_strips), (64, 0));
    }

    #[test]
    fn mixed_reduce_and_ordinary_references_are_ordered() {
        // Y is a reduction by declaration but is also read: a lane must
        // not peek past an earlier lane's (or its own) reduce.
        let tally = assert_identical(
            "array Y[8] : reduction(+);\narray B[64];\nfor i in 0..64 {\n  Y[i % 8] += i;\n  B[i] = Y[(i + 4) % 8];\n}",
            0..64,
        );
        assert_eq!(tally.batched_iters, 0);
        // Reduce against reduce never conflicts: replay keeps the order
        // and with it the association.
        let tally = assert_identical(
            "array Y[4] : reduction(+);\nfor i in 0..64 { Y[i % 4] += i * 0.1; Y[0] += 1; }",
            0..64,
        );
        assert_eq!((tally.batched_iters, tally.scalar_strips), (64, 0));
    }

    #[test]
    fn an_unsound_untested_hint_cannot_bend_sequential_execution() {
        // The hint routes A around the LRPD test, but the strip test
        // takes the classifier's word, not the declaration's.
        let tally = assert_identical(
            "array A[80] = 1 : untested;\nfor i in 1..65 { if i > 0 { A[i] = A[i - 1] + 1; } }",
            0..64,
        );
        assert_eq!(tally.batched_iters, 0);
    }

    #[test]
    fn every_block_length_around_a_strip_runs_every_iteration_once() {
        let src = "array A[100] = 1;\narray B[100];\nfor i in 3..100 { B[i] = A[i] * i; }";
        for len in [0, 1, STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 5] {
            for start in [0, 7] {
                let tally = assert_identical(src, start..start + len);
                assert_eq!(tally.batched_iters as usize, len / STRIP * STRIP, "{len}");
            }
        }
    }

    #[test]
    fn failing_strips_back_off_exponentially_and_a_success_resets_it() {
        // Every strip fails: probes at strips 0, 2, 5, 10, 19.
        let src = "array A[600] = 1;\nfor i in 1..600 { if i > 0 { A[i] = A[i - 1] + 1; } }";
        let tally = assert_identical(src, 0..20 * STRIP);
        assert_eq!((tally.batched_iters, tally.scalar_strips), (0, 5));
        // One conflicting strip (iterations 32..48) among clean ones:
        // it costs itself and the one skipped after it.
        let src = "array A[600] = 1;\nfor i in 0..320 {\n  if i >= 32 && i < 48 { A[i] = A[i - 1] + 1; } else { A[i] = i; }\n}";
        let tally = assert_identical(src, 0..320);
        assert_eq!(tally.scalar_strips, 1);
        assert_eq!(tally.batched_iters as usize, 320 - 2 * STRIP);
    }

    #[test]
    fn premature_exit_stops_the_iteration_body() {
        let src = "array A[32];\nfor i in 0..32 {\n  break if i == 5;\n  A[i] = i;\n}";
        let t = run_tiers(src, 0..32);
        assert!(t.scalar.exited && t.tree_walk.exited);
        assert_eq!(assert_identical(src, 0..32), BatchTally::default());
        // Iterations 0..5 wrote; 5 broke before its store.
        assert_eq!(t.scalar.arrays[0][4], 4.0);
        assert_eq!(t.scalar.arrays[0][5], 0.0);
    }

    fn refusal(src: &str) -> Option<StripRefusal> {
        let prog = parse(src).unwrap();
        lower_loop(&prog.loops[0], &classify_loop(&prog, 0)).strip_refusal()
    }

    #[test]
    fn eligibility_is_decided_at_lowering() {
        assert_eq!(
            refusal("array A[32];\nfor i in 0..32 { break if i == 5; A[i] = i; }"),
            Some(StripRefusal::Exit)
        );
        assert_eq!(
            refusal("array T[64];\ncounter c = 8;\nfor i in 0..8 { T[c] = i; bump c; }"),
            Some(StripRefusal::Counter)
        );
        // A proven dependence closer than a strip: never probed.
        assert_eq!(
            refusal("array A[64] = 1;\nfor i in 4..64 { A[i] = A[i - 4] + 1; }"),
            Some(StripRefusal::MustDistance {
                array: 0,
                distance: 4
            })
        );
        // At a strip's length or beyond, or merely possible: probed.
        assert_eq!(
            refusal("array A[64] = 1;\nfor i in 16..64 { A[i] = A[i - 16] + 1; }"),
            None
        );
        assert_eq!(
            refusal("array A[64] = 1;\nfor i in 4..64 { if i % 3 == 0 { A[i] = A[i - 4] + 1; } }"),
            None
        );
    }

    /// Run `src` until it panics; the panic message, and the context as
    /// the panic left it.
    fn run_to_fault(src: &str, n: usize, strips: bool) -> (String, MemCtx) {
        let prog = parse(src).unwrap();
        let nest = &prog.loops[0];
        let code = lower_loop(nest, &classify_loop(&prog, 0));
        let mut ctx = MemCtx {
            arrays: prog.arrays.iter().map(|d| vec![d.init; d.size]).collect(),
            trace: Vec::new(),
            exited: false,
        };
        let err = catch_unwind(AssertUnwindSafe(|| {
            run_range(&code, nest.range.0, 0..n, strips, &mut ctx, &mut after);
        }))
        .expect_err("the program must fault");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic message");
        (msg, ctx)
    }

    #[test]
    fn vm_subscript_fault_carries_the_source_span() {
        let (msg, _) = run_to_fault("array A[8];\nfor i in 0..8 {\n  A[i - 4] = 1;\n}", 8, false);
        assert!(msg.contains("subscript"), "{msg}");
        assert!(msg.contains("3:3"), "span missing: {msg}");
    }

    #[test]
    fn a_fault_mid_strip_fires_where_and_as_the_scalar_vm_fires_it() {
        let programs = [
            // Negative subscript at i = 41, lane 9 of the third strip.
            "array A[64];\narray B[64];\nfor i in 0..64 {\n  B[i] = i;\n  A[40 - i] = 1;\n}",
            // Out of bounds through a trusted subscript at i = 50.
            "array A[50];\nfor i in 0..64 {\n  A[i] = i;\n}",
            // Out-of-bounds load behind a guard only some lanes take.
            "array A[40] = 1;\narray B[64];\nfor i in 0..64 {\n  if i % 3 == 0 { B[i] = A[i]; }\n}",
            // Modulo by zero at i = 37.
            "array A[64];\nfor i in 0..64 {\n  A[i] = i % (37 - i);\n}",
        ];
        for src in programs {
            let (scalar_msg, scalar) = run_to_fault(src, 64, false);
            let (strip_msg, strips) = run_to_fault(src, 64, true);
            assert_eq!(strip_msg, scalar_msg, "{src}");
            assert_eq!(strips.trace, scalar.trace, "{src}");
            assert_eq!(strips.arrays, scalar.arrays, "{src}");
            // The strips before the faulting one really ran batched.
            assert!(scalar.trace.iter().filter(|r| **r == Ref::Done).count() >= 2 * STRIP);
        }
    }

    #[test]
    fn integer_proven_remainders_agree_with_the_rounding_ones() {
        // `int` operands at and beyond 2^53, where the shortcut must
        // step aside, and ordinary ones.
        let src = "array A[64];\narray B[64];\nfor i in 0..64 {\n  A[i] = (i * 1125899906842624 + 5) % 1000003;\n  B[i] = (i * 1125899906842624 + 5) % 64 + (i * 7 + 3) % 11;\n}";
        let tally = assert_identical(src, 0..64);
        assert_eq!(tally.batched_iters, 64);
        let prog = parse(src).unwrap();
        let code = lower_loop(&prog.loops[0], &classify_loop(&prog, 0));
        assert!(code
            .code
            .iter()
            .any(|i| matches!(i, Insn::Rem { int: true, .. })));
        assert!(code
            .code
            .iter()
            .any(|i| matches!(i, Insn::RemPow2 { int: true, .. })));
        // A divisor that is not a positive integer constant, or a
        // dividend that may be negative, keeps the rounding path.
        let code = {
            let prog =
                parse("array A[64];\nfor i in 0..64 { A[i] = (i - 70) % 7 + i % 2.5; }").unwrap();
            lower_loop(&prog.loops[0], &classify_loop(&prog, 0))
        };
        assert!(!code
            .code
            .iter()
            .any(|i| matches!(i, Insn::Rem { int: true, .. })));
        assert_identical(
            "array A[64];\nfor i in 0..64 { A[i] = (i - 70) % 7 + i % 2.5; }",
            0..64,
        );
    }

    #[test]
    fn scratch_rebinds_when_the_thread_switches_loops() {
        // Two different loops executed interleaved on one thread: the
        // constant registers must rebind each switch.
        let mk = |src: &str| {
            let prog = parse(src).unwrap();
            (lower_loop(&prog.loops[0], &classify_loop(&prog, 0)), prog)
        };
        let (code_a, _) = mk("array A[4];\nfor i in 0..4 { A[i] = 111; }");
        let (code_b, _) = mk("array B[4];\nfor i in 0..4 { B[i] = 222; }");
        let mut ctx = MemCtx {
            arrays: vec![vec![0.0; 4]],
            trace: Vec::new(),
            exited: false,
        };
        for i in 0..4 {
            iterate(&code_a, i as f64, &mut ctx);
            iterate(&code_b, i as f64, &mut ctx);
        }
        assert_eq!(ctx.arrays[0], vec![222.0; 4]);
        // The strip file and its log rebind the same way.
        let (wide_a, _) = mk("array A[64];\nfor i in 0..64 { A[i] = 111; }");
        let (wide_b, _) =
            mk("array B[64];\narray C[64];\nfor i in 0..64 { B[i] = 222; C[i] = B[i] + i; }");
        let mut ctx = MemCtx {
            arrays: vec![vec![0.0; 64], vec![0.0; 64]],
            trace: Vec::new(),
            exited: false,
        };
        for lo in [0, 16, 32, 48] {
            run_range(&wide_b, 0, lo..lo + 16, true, &mut ctx, &mut after);
            run_range(&wide_a, 0, lo..lo + 16, true, &mut ctx, &mut after);
        }
        assert_eq!(ctx.arrays[0], vec![111.0; 64]);
        assert_eq!(ctx.arrays[1][63], 222.0 + 63.0);
    }
}
