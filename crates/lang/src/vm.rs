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
//!   program order — stores or reduces. (3) *Replay* the log, one
//!   context call per memory instruction for all its lanes
//!   ([`DataCtx::replay_lanes`]), or lane by lane where that would
//!   reorder an element's references, so marks, private values,
//!   reference counts and reduction association are exactly the scalar
//!   VM's. A failed or abandoned strip re-runs
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

use crate::bytecode::{Insn, LoopCode, Pred, StripPlan, EXACT_INT, REG_I, STRIP};
use crate::interp::{rem_value, round_i64, DataCtx, PeekCtx};
use rlrpd_core::view::lanes;
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
/// with the loop variable at `first + k`), calling `after(ctx, n)` once
/// the `n` iterations since the last call have made their references
/// and stopping when it returns `false` — in strips where the loop is
/// eligible, `strips` allows it and a whole strip remains (`n =`
/// [`STRIP`], once after the strip's replay), otherwise one iteration
/// at a time (`n = 1`). A failed strip backs off: the next 1, 2, 4 …
/// strips of this call run scalar without probing (reset by the next
/// success), so a loop whose dependences are short pays a bounded
/// probe cost.
///
/// A validated strip's replay cannot fault, so closing its iterations
/// only at its end leaves a caller that counts what `after` closed —
/// the engine's fault iteration, `run_direct`'s `done` — exact: every
/// subscript was checked against its array's length during execution,
/// every load's value was peeked, and an eligible loop holds no
/// counter, bump or exit. The references it replays are in-bounds
/// `replay_lanes` calls; whatever can fault (a bad
/// subscript, `%` by zero) abandons the strip instead, and its
/// iterations then run and fault one at a time.
pub(crate) fn run_range<C: PeekCtx>(
    code: &LoopCode,
    first: usize,
    iters: Range<usize>,
    strips: bool,
    ctx: &mut C,
    after: &mut dyn FnMut(&mut C, usize) -> bool,
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
                    if out_of_order(plan, log) {
                        tally.lane_replays += 1;
                        for l in 0..STRIP {
                            replay(plan, log, 1 << l, ctx);
                        }
                    } else {
                        replay(plan, log, u32::MAX, ctx);
                    }
                    if !after(ctx, STRIP) {
                        return;
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
    after: &mut dyn FnMut(&mut C, usize) -> bool,
) -> bool {
    for iter in iters {
        step(code, one, (first + iter) as f64, ctx);
        if !after(ctx, 1) {
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
/// replay — stores and reduces are deferred, and replay keeps each
/// element's references in order — so
/// anti and output dependences inside a strip are legal.
fn independent(plan: &StripPlan, log: &[Access]) -> bool {
    for h in &plan.hazards {
        let (st, ld) = (&log[h.store as usize], &log[h.load as usize]);
        for l in lanes(st.lanes) {
            let mut after = 0;
            if h.cross {
                after |= ld.lanes & !((2u32 << l) - 1);
            }
            if h.load > h.store {
                after |= ld.lanes & (1 << l);
            }
            if lanes(after).any(|k| ld.idx[k] == st.idx[l]) {
                return false;
            }
        }
    }
    true
}

/// Whether replaying the strip instruction by instruction would
/// reorder an element's references: a pair `s < t` of
/// [`StripPlan::pairs`] where `t` touches, in an earlier lane, an
/// element `s` touches in a later one. No other reordering exists.
fn out_of_order(plan: &StripPlan, log: &[Access]) -> bool {
    plan.pairs.iter().any(|&(s, t)| {
        let (a, b) = (&log[s as usize], &log[t as usize]);
        lanes(a.lanes).any(|k| lanes(b.lanes & ((1 << k) - 1)).any(|l| a.idx[k] == b.idx[l]))
    })
}

/// Make the logged references of the lanes in `mask` happen: one
/// context call per memory instruction, in program order, each for its
/// lanes in lane order.
fn replay<C: DataCtx>(plan: &StripPlan, log: &[Access], mask: u32, ctx: &mut C) {
    for (op, acc) in plan.ops.iter().zip(log) {
        let live = acc.lanes & mask;
        if live != 0 {
            ctx.replay_lanes(op.arr as usize, op.kind, live, &acc.idx, &acc.val);
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
    ///
    /// A trusted subscript takes one range check and one packed cast
    /// over every lane: a lane inside `[0, len − 1]` (the proof makes it
    /// an integer, and no array comes near `2^51` elements) is the
    /// element [`At::try_index`] names, read off the low mantissa bits
    /// of `v + 2^52`, and a lane that is not live may hold anything —
    /// its index is never read.
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
        if at.trusted {
            if !within(idx, len as f64 - 1.0) & live != 0 {
                return false;
            }
            acc.idx = idx.map(|v| ((v + ROUND).to_bits() & MANTISSA) as usize);
        } else {
            for l in lanes(live) {
                match at.try_index(idx[l]) {
                    Some(j) if j < len => acc.idx[l] = j,
                    _ => return false,
                }
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
        self.note(at, live, idx, None) && {
            let acc = &self.log[self.plan.slot_of[at.pc] as usize];
            self.ctx.peek_lanes(at.arr as usize, live, &acc.idx, out)
        }
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

/// `2^52`: adding it to a `f64` in `[0, 2^51)` rounds the sum to an
/// integer, whose value is then the sum's low 52 mantissa bits —
/// rounding and conversion in packed arithmetic, which baseline x86-64
/// lacks for `as` casts (each lane's `as u64` / `as i32` is a scalar
/// conversion with its saturation fix-ups).
const ROUND: f64 = 4_503_599_627_370_496.0;
const MANTISSA: u64 = (1 << 52) - 1;

/// The largest operand the packed remainders take: below `2^31` the
/// error analysis of [`rem_of`] has room to spare.
const PACKED_MAX: f64 = 2_147_483_647.0;

/// The lanes of `x` inside `[0, hi]`, as a bit mask (`-0.0` is inside,
/// `NaN` is not).
#[inline(always)]
fn within<const W: usize>(x: &[f64; W], hi: f64) -> u32 {
    let mut m = 0;
    for (l, &v) in x.iter().enumerate() {
        m |= ((v >= 0.0) as u32 & (v <= hi) as u32) << l;
    }
    m
}

/// `x mod y` for integers `0 <= x <= 2^31 − 1`, `1 <= y <= 2^31 − 1`,
/// given `t`, the quotient `x / y` correctly rounded. `t` is within
/// `2^-22` of the true quotient, whose floor is `k`, so the integer
/// nearest it is `k` or `k + 1`; `x − q·y` is exact (every term is an
/// integer below `2^53`) and lands in `[−y, y)`, and one correction
/// step makes it the remainder. `+ 0.0` turns the `-0.0` a `-0.0`
/// dividend leaves into the `+0.0` that `as u64` gives.
#[inline(always)]
fn rem_of(x: f64, y: f64, t: f64) -> f64 {
    let q = (t + ROUND) - ROUND;
    let r = x - q * y;
    (if r < 0.0 { r + y } else { r }) + 0.0
}

/// [`rem`] with the `int` bit on every lane at once, in packed `f64`
/// arithmetic; `None` (take the per-lane path) unless every lane of
/// both operands is at most `2^31 − 1`.
#[inline(always)]
fn rem_lanes<const W: usize>(x: &[f64; W], y: &[f64; W]) -> Option<[f64; W]> {
    let full = u32::MAX >> (32 - W);
    (within(x, PACKED_MAX) & within(y, PACKED_MAX) == full)
        .then(|| std::array::from_fn(|l| rem_of(x[l], y[l], x[l] / y[l])))
}

/// [`rem_pow2`] with the `int` bit on every lane at once: [`rem_of`]
/// with the exact quotient `x · 2^-k`; `None` unless every lane is at
/// most `2^31 − 1`.
#[inline(always)]
fn rem_pow2_lanes<const W: usize>(x: &[f64; W], mask: u16) -> Option<[f64; W]> {
    let full = u32::MAX >> (32 - W);
    let y = mask as f64 + 1.0;
    let inv = 1.0 / y;
    (within(x, PACKED_MAX) == full).then(|| x.map(|v| rem_of(v, y, v * inv)))
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
                for $l in lanes(live) {
                    let v = $e;
                    rm!($dst)[$l] = v;
                }
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
                for l in lanes(go) {
                    resume[l] = $target;
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
                let packed = if W > 1 && int {
                    rem_lanes(r!(a), r!(b))
                } else {
                    None
                };
                if let Some(out) = packed {
                    set!(dst, |l| out[l]);
                } else {
                    if W > 1 && !int {
                        // A zero divisor is a fault in waiting.
                        if lanes(live).any(|l| round_i64(r!(b)[l]) == 0) {
                            return false;
                        }
                    }
                    set!(dst, |l| rem(r!(a)[l], r!(b)[l], int));
                }
            }
            Insn::RemPow2 { dst, a, mask, int } => {
                let packed = if W > 1 && int {
                    rem_pow2_lanes(r!(a), mask)
                } else {
                    None
                };
                if let Some(out) = packed {
                    set!(dst, |l| out[l]);
                } else {
                    set!(dst, |l| rem_pow2(r!(a)[l], mask, int));
                }
            }
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
    use crate::bytecode::{lower_loop, MemKind, StripRefusal};
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
        /// `after` closed this many iterations.
        Done(usize),
    }

    /// A direct-memory context recording every reference — enough to
    /// test VM semantics without an engine.
    struct MemCtx {
        arrays: Vec<Vec<f64>>,
        trace: Vec<Ref>,
        exited: bool,
        /// The lanes of each replay call since the last `after`.
        calls: Vec<u32>,
        /// Per `Done` of the trace: whether the references it closes
        /// were replayed out of lane-by-lane order — some call carried
        /// two lanes, or a lane below the one before it.
        reordered: Vec<bool>,
    }

    impl MemCtx {
        fn new(arrays: Vec<Vec<f64>>) -> Self {
            MemCtx {
                arrays,
                trace: Vec::new(),
                exited: false,
                calls: Vec::new(),
                reordered: Vec::new(),
            }
        }
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
        fn replay_lanes(&mut self, a: usize, kind: MemKind, live: u32, idx: &[usize], val: &[f64]) {
            self.calls.push(live);
            for l in lanes(live) {
                match kind {
                    MemKind::Load => {
                        self.read(a, idx[l]);
                    }
                    MemKind::Store => self.write(a, idx[l], val[l]),
                    MemKind::Reduce => self.reduce(a, idx[l], val[l]),
                }
            }
        }
        fn exit(&mut self) {
            self.exited = true;
        }
    }

    impl PeekCtx for MemCtx {
        fn peek_lanes(&self, a: usize, live: u32, idx: &[usize], out: &mut [f64]) -> bool {
            for l in (0..STRIP).filter(|l| live >> l & 1 != 0) {
                match self.arrays[a].get(idx[l]) {
                    Some(&v) => out[l] = v,
                    None => return false,
                }
            }
            true
        }
        fn len(&self, a: usize) -> usize {
            self.arrays[a].len()
        }
    }

    fn after(ctx: &mut MemCtx, n: usize) -> bool {
        ctx.trace.push(Ref::Done(n));
        let calls = std::mem::take(&mut ctx.calls);
        let in_lane_order =
            calls.iter().all(|m| m.count_ones() == 1) && calls.windows(2).all(|w| w[0] <= w[1]);
        ctx.reordered.push(!in_lane_order);
        !ctx.exited
    }

    /// `got`'s trace against `want` (which closes iterations where
    /// `got` does), strip by strip. A strip replayed lane by lane makes
    /// `want`'s references in `want`'s order; one replayed instruction
    /// by instruction makes the same references, each `(array,
    /// element)` seeing its own in `want`'s order.
    fn assert_same_references(what: &str, got: &MemCtx, want: &[Ref]) {
        let strips = |t: &[Ref]| -> Vec<Vec<Ref>> {
            t.split_inclusive(|r| matches!(r, Ref::Done(_)))
                .map(<[Ref]>::to_vec)
                .collect()
        };
        // A stable sort keeps each element's references in order.
        let by_element = |mut refs: Vec<Ref>| {
            refs.sort_by_key(|r| match *r {
                Ref::Read(a, i) | Ref::Write(a, i, _) | Ref::Reduce(a, i, _) => (a, i),
                Ref::Done(_) => (usize::MAX, 0),
            });
            refs
        };
        let (got_strips, want_strips) = (strips(&got.trace), strips(want));
        assert_eq!(got_strips.len(), want_strips.len(), "{what}: strips");
        for (k, (g, w)) in got_strips.into_iter().zip(want_strips).enumerate() {
            if got.reordered.get(k) == Some(&true) {
                assert_eq!(by_element(g), by_element(w), "{what}: strip {k}");
            } else {
                assert_eq!(g, w, "{what}: strip {k}, replayed lane by lane");
            }
        }
    }

    /// `per_iter` (a trace closing one iteration per `after`) with the
    /// boundaries merged as `merged` closes them: every `Done(n)` of
    /// `merged` stands for the next `n` boundaries of `per_iter`, so a
    /// strip's trace must equal the result exactly — its references in
    /// the same order, its iteration boundaries merged into one at its
    /// end, nothing else moved.
    fn merge_boundaries(per_iter: &[Ref], merged: &[Ref]) -> Vec<Ref> {
        let mut counts = merged.iter().filter_map(|r| match r {
            Ref::Done(n) => Some(*n),
            _ => None,
        });
        let (mut open, mut n) = (0, 0);
        let mut out = Vec::new();
        for r in per_iter {
            if *r != Ref::Done(1) {
                out.push(*r);
                continue;
            }
            if open == 0 {
                n = counts.next().unwrap_or(1);
                open = n;
            }
            open -= 1;
            if open == 0 {
                out.push(Ref::Done(n));
            }
        }
        out
    }

    struct Tiers {
        tree_walk: MemCtx,
        scalar: MemCtx,
        strips: MemCtx,
        tally: BatchTally,
    }

    /// Run iterations `iters` of `src` on the tree-walk oracle, on the
    /// VM at one iteration per dispatch, and on the VM in strips.
    fn run_each_tier(src: &str, iters: Range<usize>) -> Tiers {
        let prog = parse(src).unwrap();
        let nest = &prog.loops[0];
        let arrays = classify_loop(&prog, 0);
        let classes: Vec<_> = arrays.iter().map(|c| c.class).collect();
        let code = lower_loop(nest, &arrays);
        let mk = || MemCtx::new(prog.arrays.iter().map(|d| vec![d.init; d.size]).collect());
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
            if !after(&mut tree_walk, 1) {
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

    /// All three tiers made the same references and left the same bits
    /// behind: the scalar VM in the tree walk's order, closing every
    /// iteration on its own; strips closing each batched strip's
    /// [`STRIP`] at once, in the tree walk's order per element
    /// ([`assert_same_references`]).
    fn assert_identical(src: &str, iters: Range<usize>) -> BatchTally {
        let t = run_each_tier(src, iters);
        let closed = |ctx: &MemCtx, n| ctx.trace.iter().filter(|r| **r == Ref::Done(n)).count();
        assert_eq!(
            closed(&t.strips, STRIP) * STRIP,
            t.tally.batched_iters as usize
        );
        assert!(t.strips.trace.iter().all(|r| match r {
            Ref::Done(n) => *n == 1 || *n == STRIP,
            _ => true,
        }));
        for (name, got) in [("scalar VM", &t.scalar), ("strips", &t.strips)] {
            assert_same_references(name, got, &merge_boundaries(&t.tree_walk.trace, &got.trace));
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
    fn a_strip_whose_instructions_share_an_element_replays_lane_by_lane() {
        // An anti dependence with the store first in program order
        // passes the strip test: lane k loads A[k + 1] before lane
        // k + 1 stores it. Replayed store-first, that load would be a
        // covered read instead of an exposed one.
        let src = "array A[80] = 1;\narray B[80];\nfor i in 0..64 {\n  if i % 2 == 0 || i % 2 == 1 { A[i] = i * 0.5; }\n  B[i] = A[i + 1];\n}";
        assert_eq!(refusal(src), None);
        let tally = assert_identical(src, 0..64);
        assert_eq!(
            (tally.batched_iters, tally.scalar_strips, tally.lane_replays),
            (64, 0, 4)
        );
        // Two reduces of one element in one strip keep their association.
        let tally = assert_identical(
            "array Y[4] : reduction(+);\nfor i in 0..64 { Y[i % 4] += i * 0.1; Y[0] += 1; }",
            0..64,
        );
        assert_eq!(tally.lane_replays, 4);
        // The same shapes a strip apart share nothing inside one.
        let src = "array A[80] = 1;\narray B[80];\nfor i in 0..64 {\n  if i % 2 == 0 || i % 2 == 1 { A[i] = i * 0.5; }\n  B[i] = A[i + 16];\n}";
        let tally = assert_identical(src, 0..64);
        assert_eq!((tally.batched_iters, tally.lane_replays), (64, 0));
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
        let t = run_each_tier(src, 0..32);
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
        let mut ctx = MemCtx::new(prog.arrays.iter().map(|d| vec![d.init; d.size]).collect());
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
            let want = merge_boundaries(&scalar.trace, &strips.trace);
            assert_same_references(src, &strips, &want);
            assert_eq!(strips.arrays, scalar.arrays, "{src}");
            // The strips before the faulting one really ran batched.
            assert!(
                strips
                    .trace
                    .iter()
                    .filter(|r| **r == Ref::Done(STRIP))
                    .count()
                    >= 2
            );
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

    /// Non-negative integers at `k·y − 1`, `k·y` and `k·y + 1` for each
    /// divisor `y`, up to `2^31 − 1`, and `-0.0`, in strips of lanes.
    fn packed_cases(ys: &[f64]) -> Vec<[f64; STRIP]> {
        let top = PACKED_MAX;
        let mut xs = vec![-0.0, 0.0, 1.0, top];
        for &y in ys {
            let most = (top / y).floor();
            for k in [1.0, 2.0, 3.0, 7.0, 1000.0, most - 1.0, most] {
                for x in [k * y - 1.0, k * y, k * y + 1.0] {
                    if (0.0..=top).contains(&x) {
                        xs.push(x);
                    }
                }
            }
        }
        xs.chunks(STRIP)
            .map(|c| std::array::from_fn(|l| c[l % c.len()]))
            .collect()
    }

    #[test]
    fn packed_integer_paths_are_bit_equal_to_the_lane_ones() {
        let ys = [1.0, 3.0, 16.0, (11 << 17) as f64, PACKED_MAX];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for x in packed_cases(&ys) {
            for y in ys {
                let got = rem_lanes(&x, &[y; STRIP]).expect("every lane below 2^31");
                assert_eq!(bits(&got), bits(&x.map(|v| rem(v, y, true))), "{x:?} % {y}");
            }
            for mask in [0, 15, u16::MAX] {
                let got = rem_pow2_lanes(&x, mask).expect("every lane below 2^31");
                assert_eq!(
                    bits(&got),
                    bits(&x.map(|v| rem_pow2(v, mask, true))),
                    "{x:?}"
                );
            }
        }
        assert_eq!(
            rem_lanes(&[-0.0; STRIP], &[3.0; STRIP]).unwrap()[0].to_bits(),
            0
        );
        // One lane at 2^31 sends the whole strip down the lane path.
        let mut x = [5.0; STRIP];
        x[9] = PACKED_MAX + 1.0;
        assert!(rem_lanes(&x, &[3.0; STRIP]).is_none());
        assert!(rem_pow2_lanes(&x, 15).is_none());
        assert!(rem_lanes(&[5.0; STRIP], &[PACKED_MAX + 1.0; STRIP]).is_none());

        // The trusted subscript's packed cast logs what `try_index`
        // resolves, and refuses exactly the lanes past the array.
        struct Sized(usize);
        impl DataCtx for Sized {
            fn read(&mut self, _: usize, _: usize) -> f64 {
                unreachable!()
            }
            fn write(&mut self, _: usize, _: usize, _: f64) {}
            fn reduce(&mut self, _: usize, _: usize, _: f64) {}
            fn replay_lanes(&mut self, _: usize, _: MemKind, _: u32, _: &[usize], _: &[f64]) {}
            fn exit(&mut self) {}
        }
        impl PeekCtx for Sized {
            fn peek_lanes(&self, _: usize, _: u32, _: &[usize], _: &mut [f64]) -> bool {
                unreachable!()
            }
            fn len(&self, _: usize) -> usize {
                self.0
            }
        }
        let prog = parse("array A[64];\nfor i in 0..64 { A[i] = 1; }").unwrap();
        let code = lower_loop(&prog.loops[0], &classify_loop(&prog, 0));
        let plan = code.strips.as_ref().expect("eligible");
        let pc = code
            .code
            .iter()
            .position(|i| matches!(i, Insn::Store { .. } | Insn::StoreMarked { .. }))
            .unwrap();
        let at = At {
            code: &code,
            pc,
            arr: 0,
            trusted: true,
        };
        let mut log = vec![
            Access {
                lanes: 0,
                idx: [0; STRIP],
                val: [0.0; STRIP],
            };
            plan.ops.len()
        ];
        for len in [PACKED_MAX as usize, 1 << 20, 0] {
            let ctx = Sized(len);
            for x in packed_cases(&ys) {
                let want: Option<Vec<usize>> = x
                    .iter()
                    .map(|&v| at.try_index(v).filter(|&j| j < len))
                    .collect();
                let mut ahead = Ahead {
                    ctx: &ctx,
                    plan,
                    log: &mut log,
                };
                let full = u32::MAX >> (32 - STRIP);
                let ok = ahead.note(at, full, &x, None);
                assert_eq!(ok, want.is_some(), "{x:?} into {len}");
                if let Some(want) = want {
                    assert_eq!(log[plan.slot_of[pc] as usize].idx.to_vec(), want);
                }
            }
        }
    }

    #[test]
    fn a_dividend_crossing_2_pow_31_inside_a_strip_takes_the_lane_path() {
        // i = 128 sits at lane 8 of the strip starting at 120.
        let src = "array A[256];\narray B[256];\nfor i in 120..376 {\n  A[i - 120] = (i * 16777216 + 3) % 1000;\n  B[i - 120] = (i * 16777216 + 3) % 64;\n}";
        let tally = assert_identical(src, 0..256);
        assert_eq!((tally.batched_iters, tally.scalar_strips), (256, 0));
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
        let mut ctx = MemCtx::new(vec![vec![0.0; 4]]);
        for i in 0..4 {
            iterate(&code_a, i as f64, &mut ctx);
            iterate(&code_b, i as f64, &mut ctx);
        }
        assert_eq!(ctx.arrays[0], vec![222.0; 4]);
        // The strip file and its log rebind the same way.
        let (wide_a, _) = mk("array A[64];\nfor i in 0..64 { A[i] = 111; }");
        let (wide_b, _) =
            mk("array B[64];\narray C[64];\nfor i in 0..64 { B[i] = 222; C[i] = B[i] + i; }");
        let mut ctx = MemCtx::new(vec![vec![0.0; 64], vec![0.0; 64]]);
        for lo in [0, 16, 32, 48] {
            run_range(&wide_b, 0, lo..lo + 16, true, &mut ctx, &mut after);
            run_range(&wide_a, 0, lo..lo + 16, true, &mut ctx, &mut after);
        }
        assert_eq!(ctx.arrays[0], vec![111.0; 64]);
        assert_eq!(ctx.arrays[1][63], 222.0 + 63.0);
    }
}
