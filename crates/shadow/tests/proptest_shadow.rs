//! Property tests: the three shadow representations are observationally
//! identical, and per-iteration mark lists obey the exposure rule.

use proptest::prelude::*;
use rlrpd_shadow::{
    DenseShadow, IterMarks, Marking, PackedShadow, Shadow, ShadowKind, SparseShadow,
};

/// An operation against an element, mirroring the view layer's legal
/// routing (ordinary ops materialize reduction-marked elements first).
#[derive(Clone, Debug)]
enum Op {
    Read(usize),
    Write(usize),
    Reduce(usize),
}

fn ops(size: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0usize..size, 0u8..3).prop_map(|(e, k)| match k {
            0 => Op::Read(e),
            1 => Op::Write(e),
            _ => Op::Reduce(e),
        }),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dense, packed and sparse shadows agree on every mark after any
    /// legal operation sequence.
    #[test]
    fn representations_agree(ops in ops(64)) {
        let size = 64;
        let mut dense = DenseShadow::new(size);
        let mut packed = PackedShadow::new(size);
        let mut sparse = SparseShadow::new();
        for op in &ops {
            match *op {
                Op::Read(e) => {
                    if dense.mark(e).is_reduction_only() {
                        dense.materialize(e);
                        packed.materialize(e);
                        sparse.materialize(e);
                    }
                    dense.on_read(e);
                    packed.on_read(e);
                    sparse.on_read(e);
                }
                Op::Write(e) => {
                    if dense.mark(e).is_reduction_only() {
                        dense.materialize(e);
                        packed.materialize(e);
                        sparse.materialize(e);
                    }
                    dense.on_write(e);
                    packed.on_write(e);
                    sparse.on_write(e);
                }
                Op::Reduce(e) => {
                    // Reduce is only legal on untouched/reduction marks.
                    if !dense.mark(e).is_touched() || dense.mark(e).is_reduction_only() {
                        dense.on_reduce(e);
                        packed.on_reduce(e);
                        sparse.on_reduce(e);
                    }
                }
            }
        }
        for e in 0..size {
            prop_assert_eq!(dense.mark(e), packed.mark(e));
            prop_assert_eq!(dense.mark(e), sparse.mark(e));
        }
        prop_assert_eq!(dense.num_touched(), packed.num_touched());
        prop_assert_eq!(dense.num_touched(), sparse.num_touched());
    }

    /// Clearing restores pristine semantics for every representation.
    #[test]
    fn clear_is_complete(elems in prop::collection::vec(0usize..32, 1..50)) {
        let mut dense = DenseShadow::new(32);
        let mut packed = PackedShadow::new(32);
        let mut sparse = SparseShadow::new();
        for &e in &elems {
            dense.on_write(e);
            packed.on_write(e);
            sparse.on_write(e);
        }
        dense.clear();
        packed.clear();
        sparse.clear();
        for e in 0..32 {
            prop_assert!(!dense.mark(e).is_touched());
            prop_assert!(!packed.mark(e).is_touched());
            prop_assert!(!sparse.mark(e).is_touched());
        }
        // A fresh read after clear is exposed again.
        let probe = elems[0];
        dense.on_read(probe);
        prop_assert!(dense.mark(probe).is_exposed_read());
    }

    /// IterMarks: a read is logged as exposed iff its own iteration has
    /// not written the element earlier.
    #[test]
    fn iter_marks_exposure_rule(
        events in prop::collection::vec((0usize..16, 0u32..8, any::<bool>()), 0..100)
    ) {
        use rlrpd_shadow::EventKind;
        use std::collections::HashSet;
        let mut marks = IterMarks::new();
        // Model: (elem, iter) pairs that have written.
        let mut wrote: HashSet<(usize, u32)> = HashSet::new();
        let mut expect_exposed: HashSet<(usize, u32)> = HashSet::new();
        // Events must arrive in nondecreasing iteration order per the
        // block contract; sort to enforce it.
        let mut events = events;
        events.sort_by_key(|&(_, it, _)| it);
        for &(e, it, is_write) in &events {
            if is_write {
                marks.on_write(e, it);
                wrote.insert((e, it));
            } else {
                marks.on_read(e, it);
                if !wrote.contains(&(e, it)) {
                    expect_exposed.insert((e, it));
                }
            }
        }
        for (e, ev) in marks.elems() {
            for &(it, kind) in ev.events() {
                if kind == EventKind::ExposedRead {
                    prop_assert!(
                        expect_exposed.contains(&(e, it)),
                        "spurious exposed read ({e}, {it})"
                    );
                }
            }
        }
        // Every expected exposure is present.
        for &(e, it) in &expect_exposed {
            let found = marks
                .get(e)
                .map(|ev| ev.events().contains(&(it, EventKind::ExposedRead)))
                .unwrap_or(false);
            prop_assert!(found, "missing exposed read ({e}, {it})");
        }
    }
}

/// A fresh shadow of `kind` holding every touched mark of `shadow`,
/// rebuilt through the public transitions. A legal mark is `R`, `W`,
/// `R|W` or `RED`: an exposed read is recorded before the write that
/// cannot cover it, and a reduction-only mark is one reduce.
fn copy_as(shadow: &Shadow, kind: ShadowKind, size: usize) -> Shadow {
    let mut out = Shadow::for_kind(kind, size);
    for (e, m) in shadow.touched() {
        if m.is_reduction_only() {
            out.on_reduce(e);
            continue;
        }
        if m.is_exposed_read() {
            out.on_read(e);
        }
        if m.is_written() {
            out.on_write(e);
        }
    }
    out
}

/// Apply one legal op to a [`Shadow`] (the runtime-selected wrapper),
/// mirroring the view layer's materialize-before-ordinary routing.
fn apply(shadow: &mut Shadow, op: &Op) {
    match *op {
        Op::Read(e) => {
            if shadow.mark(e).is_reduction_only() {
                shadow.materialize(e);
            }
            shadow.on_read(e);
        }
        Op::Write(e) => {
            if shadow.mark(e).is_reduction_only() {
                shadow.materialize(e);
            }
            shadow.on_write(e);
        }
        Op::Reduce(e) => {
            if !shadow.mark(e).is_touched() || shadow.mark(e).is_reduction_only() {
                shadow.on_reduce(e);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Copying every touched mark into a fresh shadow of another kind
    /// (`for_kind` + the transitions) is a byte-identity on mark state: after
    /// any legal op sequence, every kind to every kind — and back —
    /// preserves every element's mark exactly.
    #[test]
    fn copying_marks_across_kinds_preserves_them(ops in ops(64)) {
        let size = 64;
        for start in [ShadowKind::Dense, ShadowKind::Packed, ShadowKind::Sparse] {
            let mut shadow = Shadow::for_kind(start, size);
            for op in &ops {
                apply(&mut shadow, op);
            }
            for dest in [ShadowKind::Dense, ShadowKind::Packed, ShadowKind::Sparse] {
                let copied = copy_as(&shadow, dest, size);
                prop_assert_eq!(copied.kind(), dest);
                for e in 0..size {
                    prop_assert_eq!(
                        shadow.mark(e), copied.mark(e),
                        "mark of {} diverged across {:?} -> {:?}", e, start, dest
                    );
                }
                prop_assert_eq!(shadow.num_touched(), copied.num_touched());
                // And back: the round trip is also an identity.
                let back = copy_as(&copied, start, size);
                for e in 0..size {
                    prop_assert_eq!(shadow.mark(e), back.mark(e));
                }
            }
        }
    }

    /// A copy keeps operating correctly: ops applied after a
    /// mid-sequence copy behave as if no copy happened.
    #[test]
    fn marking_continues_on_a_copy(
        ops_a in ops(48), ops_b in ops(48),
        route in 0usize..3,
    ) {
        let size = 48;
        let dest = [ShadowKind::Dense, ShadowKind::Packed, ShadowKind::Sparse][route];
        // Reference: one dense shadow, never copied.
        let mut reference = Shadow::dense(size);
        for op in ops_a.iter().chain(&ops_b) {
            apply(&mut reference, op);
        }
        // Subject: copied between the two halves of the sequence.
        let mut subject = Shadow::dense(size);
        for op in &ops_a {
            apply(&mut subject, op);
        }
        subject = copy_as(&subject, dest, size);
        for op in &ops_b {
            apply(&mut subject, op);
        }
        for e in 0..size {
            prop_assert_eq!(reference.mark(e), subject.mark(e));
        }
        prop_assert_eq!(reference.num_touched(), subject.num_touched());
    }
}
