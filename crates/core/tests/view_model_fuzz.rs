//! Reference-model fuzz of the privatized view's state machine.
//!
//! A [`rlrpd_core::view`]-backed processor must behave exactly like a
//! trivial sequential model of "one processor working on a private
//! copy-in snapshot": reads return what a sequential execution of the
//! same operation sequence would return, and the final committed values
//! match the model's final state. This pins down the trickiest corner
//! of the engine — the mixed reduction/ordinary materialization rules —
//! against an implementation-free oracle.

use proptest::prelude::*;
use rlrpd_core::{
    run_sequential, run_speculative, ArrayDecl, ArrayId, ClosureLoop, Reduction, RunConfig,
    ShadowKind,
};
use std::sync::{Arc, Mutex};

/// Four private-store pages of 32 elements and a partial fifth, so
/// references cross page boundaries and land on a short last page.
const SIZE: usize = 133;
/// Page edges (for page sizes 32, 64 and 128) and the array's ends:
/// half of all element draws land on one of these, so the same few
/// elements are read, written and reduced across iterations.
const EDGES: [usize; 8] = [0, 31, 32, 63, 64, 127, 128, SIZE - 1];
const A: ArrayId = ArrayId(0);

/// One primitive operation against the array under test.
#[derive(Clone, Copy, Debug)]
enum Op {
    Read(usize),
    Write(usize, i64),
    Reduce(usize, i64),
}

fn ops() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Op>>> {
    // A loop of up to 12 iterations, each with up to 6 operations.
    prop::collection::vec(
        prop::collection::vec(
            (0usize..SIZE, 0usize..2 * EDGES.len(), -20i64..20, 0u8..3).prop_map(
                |(e, edge, v, k)| {
                    let e = EDGES.get(edge).copied().unwrap_or(e);
                    match k {
                        0 => Op::Read(e),
                        1 => Op::Write(e, v),
                        _ => Op::Reduce(e, v),
                    }
                },
            ),
            0..6,
        ),
        1..12,
    )
}

/// The oracle: execute the whole loop sequentially in plain Rust
/// (integers, so equality is exact even through reductions).
fn oracle(per_iter: &[Vec<Op>]) -> (Vec<i64>, Vec<i64>) {
    let mut a = vec![100i64; SIZE];
    let mut reads = Vec::new();
    for iter_ops in per_iter {
        for op in iter_ops {
            match *op {
                Op::Read(e) => reads.push(a[e]),
                Op::Write(e, v) => a[e] = v,
                Op::Reduce(e, v) => a[e] += v,
            }
        }
    }
    (a, reads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary interleavings of read/write/reduce across iterations:
    /// the speculative engine's final state and *observed read values*
    /// equal the sequential oracle under every processor count and
    /// shadow representation.
    #[test]
    fn view_state_machine_matches_the_oracle(
        per_iter in ops(),
        p in 1usize..6,
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => ShadowKind::Dense,
            1 => ShadowKind::Packed,
            _ => ShadowKind::Sparse,
        };
        let (expect_final, _) = oracle(&per_iter);
        let n = per_iter.len();

        let observed = Arc::new(Mutex::new(Vec::<(usize, i64)>::new()));
        let observed_body = Arc::clone(&observed);
        let per_iter2 = per_iter.clone();
        let lp = ClosureLoop::<i64>::new(
            n,
            move || {
                vec![ArrayDecl::reduction(
                    "A",
                    vec![100i64; SIZE],
                    kind,
                    Reduction { identity: 0, combine: |a, b| a + b },
                )]
            },
            move |i, ctx| {
                for op in &per_iter2[i] {
                    match *op {
                        Op::Read(e) => {
                            let v = ctx.read(A, e);
                            observed_body.lock().unwrap().push((i, v));
                        }
                        Op::Write(e, v) => ctx.write(A, e, v),
                        Op::Reduce(e, v) => ctx.reduce(A, e, v),
                    }
                }
            },
        );

        // Final state must equal the oracle under speculation…
        let res = run_speculative(&lp, RunConfig::new(p));
        prop_assert_eq!(res.array("A"), &expect_final[..], "kind={:?} p={}", kind, p);

        // …and equal the engine's own sequential baseline (which also
        // cross-checks the baseline itself against the plain oracle).
        observed.lock().unwrap().clear();
        let (seq, _) = run_sequential(&lp);
        prop_assert_eq!(&seq[0].1[..], &expect_final[..]);

        // The sequential baseline's observed reads are exactly the
        // oracle's read sequence.
        let (_, oracle_reads) = oracle(&per_iter);
        let got: Vec<i64> = observed.lock().unwrap().iter().map(|&(_, v)| v).collect();
        prop_assert_eq!(got, oracle_reads);
    }
}
