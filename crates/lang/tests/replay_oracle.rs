//! The strip executor's replay, held to lane-by-lane replay after every
//! strip.
//!
//! A validated strip replays its log one memory instruction at a time,
//! each for all its lanes, unless that would reorder some element's
//! references. That order differs from the scalar VM's — lane by lane,
//! in program order within a lane — so this suite looks into the engine
//! at every point where the VM closes iterations (after every strip,
//! and after every iteration it ran one at a time) and compares what
//! one processor holds with what the scalar VM left at the same
//! iteration: every touched element's mark and private value or
//! reduction delta, the touched count, the reference count, and per
//! untested array the elements written and their undo entries. The
//! touched list and the write log are compared as sets: their order
//! may change, and nothing downstream reads it.
//!
//! It runs over the generated programs of `proptest_vm.rs`, the TRACK,
//! NLFILT and SPICE decks, and a program whose strips pass their test
//! although two instructions share an element.

use proptest::prelude::*;
use rlrpd_core::{
    ArrayDecl, ArrayId, ArrayKind, BatchTally, IterCtx, RunConfig, Runner, SpecLoop, Strategy,
    WindowConfig,
};
use rlrpd_lang::CompiledProgram;
use rlrpd_loops::dsl::{nlfilt_dsl, spice_dsl, track_dsl};
use std::ops::Range;
use std::sync::Mutex;

mod common;
use common::{program, strip_program};

/// A tested array's view: array, `refs`, `num_touched`, and every
/// touched `(element, mark, private value or delta as bits)`.
type ViewState = (usize, u64, usize, Vec<(usize, u8, u64)>);

/// What one processor's context holds once `after` has closed some
/// iterations (see the module docs).
#[derive(Debug, PartialEq)]
struct State {
    views: Vec<ViewState>,
    /// Per untested array, the elements written.
    written: Vec<Vec<usize>>,
    /// Every undo entry `(untested slot, element, old value as bits)`.
    undo: Vec<(usize, usize, u64)>,
}

/// The block's first iteration, the iterations closed so far, and the
/// state they left.
type Seen = (usize, usize, State);

/// A loop that records [`State`] every time its inner loop closes
/// iterations.
struct Watch<'a> {
    inner: &'a dyn SpecLoop<f64>,
    num_arrays: usize,
    num_untested: usize,
    seen: Mutex<Vec<Seen>>,
    tally: Mutex<BatchTally>,
}

impl Watch<'_> {
    fn state(&self, ctx: &IterCtx<'_, f64>) -> State {
        let mut views = Vec::new();
        for a in 0..self.num_arrays {
            let Some(view) = ctx.view(ArrayId(a as u32)) else {
                continue;
            };
            let mut touched: Vec<_> = view
                .touched()
                .map(|(e, m)| {
                    let private = if m.is_written() {
                        view.written_value(e).to_bits()
                    } else if m.is_reduction_only() {
                        view.reduction_delta(e).to_bits()
                    } else {
                        0
                    };
                    (e, m.0, private)
                })
                .collect();
            touched.sort_unstable();
            views.push((a, view.refs(), view.num_touched(), touched));
        }
        let (mut written, mut undo) = (Vec::new(), Vec::new());
        if let Some(wlog) = ctx.write_log() {
            for slot in 0..self.num_untested {
                let mut elems: Vec<_> = wlog.written(slot).collect();
                elems.sort_unstable();
                written.push(elems);
            }
            undo = wlog
                .undo_rev()
                .map(|(slot, e, old)| (slot, e, old.to_bits()))
                .collect();
            undo.sort_unstable();
        }
        State {
            views,
            written,
            undo,
        }
    }
}

impl SpecLoop<f64> for Watch<'_> {
    fn num_iters(&self) -> usize {
        self.inner.num_iters()
    }
    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        self.inner.arrays()
    }
    fn body(&self, iter: usize, ctx: &mut IterCtx<'_, f64>) {
        self.inner.body(iter, ctx)
    }
    fn run_iters(
        &self,
        iters: Range<usize>,
        ctx: &mut IterCtx<'_, f64>,
        after: &mut dyn FnMut(&mut IterCtx<'_, f64>, usize) -> bool,
    ) -> BatchTally {
        let first = iters.start;
        let (mut closed, mut seen) = (0, Vec::new());
        let tally = self.inner.run_iters(iters, ctx, &mut |ctx, n| {
            let go = after(ctx, n);
            closed += n;
            seen.push((first, closed, self.state(ctx)));
            go
        });
        self.seen.lock().unwrap().extend(seen);
        let mut sum = self.tally.lock().unwrap();
        sum.batched_iters += tally.batched_iters;
        sum.scalar_strips += tally.scalar_strips;
        sum.lane_replays += tally.lane_replays;
        tally
    }
    fn cost(&self, iter: usize) -> f64 {
        self.inner.cost(iter)
    }
}

/// Run loop 0 of `prog` under `cfg` and return every recorded state
/// and the strips' tally.
fn watch(prog: &CompiledProgram, cfg: RunConfig) -> (Vec<Seen>, BatchTally) {
    let arrays = &prog.program().arrays;
    let lp = prog.loop_view(0, arrays.iter().map(|d| vec![d.init; d.size]).collect());
    let decls = lp.arrays();
    let watch = Watch {
        inner: &lp,
        num_arrays: decls.len(),
        num_untested: decls
            .iter()
            .filter(|d| matches!(d.kind, ArrayKind::Untested { .. }))
            .count(),
        seen: Mutex::new(Vec::new()),
        tally: Mutex::new(BatchTally::default()),
    };
    Runner::new(cfg).try_run(&watch).expect("the program runs");
    (
        watch.seen.into_inner().unwrap(),
        watch.tally.into_inner().unwrap(),
    )
}

/// Every state the strips left equals the one the scalar VM left when
/// it had closed the same iterations of the same block execution (the
/// scalar VM closes every iteration, so its states are a superset, in
/// the same order). Returns the strips' tally.
fn assert_replay_is_lane_by_lane(src: &str, cfg: RunConfig) -> BatchTally {
    let compile = || CompiledProgram::compile(src).unwrap_or_else(|e| panic!("{src}\n{e}"));
    let (strips, tally) = watch(&compile(), cfg);
    let (scalar, none) = watch(&compile().with_scalar_vm(), cfg);
    assert_eq!(none, BatchTally::default());
    let mut rest = scalar.iter();
    for (first, closed, state) in &strips {
        let twin = rest
            .find(|(f, c, _)| (f, c) == (first, closed))
            .unwrap_or_else(|| panic!("no scalar state at {first} + {closed} on:\n{src}"));
        assert_eq!(
            state, &twin.2,
            "block at {first}, {closed} iterations closed, on:\n{src}"
        );
    }
    tally
}

#[test]
fn the_decks_replay_as_lane_by_lane() {
    for p in [1, 2, 3] {
        let cfg = RunConfig::new(p);
        let track = assert_replay_is_lane_by_lane(&track_dsl(512), cfg);
        assert!(track.batched_iters >= 384, "p = {p}: {track:?}");
        assert_eq!(track.lane_replays, 0, "p = {p}: a TRACK strip fell back");
        let nlfilt = assert_replay_is_lane_by_lane(&nlfilt_dsl(512), cfg);
        assert!(nlfilt.batched_iters > 0, "p = {p}: {nlfilt:?}");
        // SPICE's read-modify-writes share elements within a lane only.
        let spice = assert_replay_is_lane_by_lane(&spice_dsl(400), cfg);
        assert_eq!(spice.lane_replays, 0, "p = {p}: {spice:?}");
    }
}

#[test]
fn an_element_two_instructions_share_is_replayed_lane_by_lane() {
    // An anti dependence with the store first in program order passes
    // the strip test; replayed store-first, lane k's load of A[k + 1]
    // would be covered by lane k + 1's store instead of exposed.
    let src = "array A[600] = 1;\narray B[600];\nfor i in 0..512 {\n  \
               if i % 2 == 0 || i % 2 == 1 { A[i] = i * 0.5; }\n  B[i] = A[i + 1];\n}";
    for p in [1, 2] {
        let tally = assert_replay_is_lane_by_lane(src, RunConfig::new(p));
        assert!(tally.batched_iters > 0, "{tally:?}");
        assert_eq!(tally.lane_replays * 16, tally.batched_iters);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_strip_programs_replay_as_lane_by_lane(
        n in 40usize..200,
        stmts in prop::collection::vec((any::<u8>(), any::<usize>(), any::<usize>()), 1..5),
        p in 1usize..4,
        window in any::<bool>(),
    ) {
        let src = strip_program(n, &stmts, None);
        let mut cfg = RunConfig::new(p);
        if window {
            cfg = cfg.with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(5)));
        }
        assert_replay_is_lane_by_lane(&src, cfg);
    }

    #[test]
    fn generated_programs_replay_as_lane_by_lane(
        n in 16usize..48,
        stmts in prop::collection::vec(
            (any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()),
            1..5,
        ),
        p in 1usize..3,
    ) {
        assert_replay_is_lane_by_lane(&program(n, &stmts), RunConfig::new(p));
    }
}
