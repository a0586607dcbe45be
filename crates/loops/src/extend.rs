//! TRACK, loop EXTEND_400.
//!
//! The paper: *"This loop reads data from a read-only part of an array
//! and always writes at the end of the same arrays that are being
//! extended at every iteration. It first extends them in a temporary
//! manner by one slot. If some loop variant condition does not
//! materialize then the newly created slot (track) is re-used
//! (overwritten) in the next iteration. … These arrays are indexed by a
//! counter (LSTTRK) that is incremented conditionally and whose values
//! cannot be precomputed."*
//!
//! The kernel implements exactly that pattern as a counter
//! [`rlrpd_core::SpecLoop`] for [`rlrpd_core::run_induction`]:
//! iteration `i` reads a few slots of the read-only prefix (the
//! existing tracks), writes a candidate track into the slot at the
//! current counter (the temporary extension), and — when the
//! input-dependent gate fires — bumps LSTTRK to make the extension
//! permanent. Unbumped slots are overwritten by the next
//! iteration; the one-slot overlap between consecutive processors is
//! resolved by the last-value commit of the two-pass scheme.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlrpd_core::{ArrayDecl, ArrayId, IterCtx, ShadowKind, SpecLoop};

/// The TRACK array.
const TRACK: ArrayId = ArrayId(0);

/// An input deck for EXTEND_400.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExtendInput {
    /// Label used in reports.
    pub name: &'static str,
    /// Iterations (candidate observations).
    pub n: usize,
    /// Existing tracks at loop entry (the read-only prefix, and the
    /// initial LSTTRK).
    pub initial_tracks: usize,
    /// Probability an iteration's extension becomes permanent.
    pub accept_rate: f64,
    /// Probability a probe wildly targets the *extension* region
    /// (indices at/above the initial counter). Any such probe makes the
    /// range test fail and forces the sequential fallback — the restart
    /// that pushes PR below 1 on contended decks.
    pub wild_probe_rate: f64,
    /// RNG seed standing in for the deck.
    pub seed: u64,
}

impl ExtendInput {
    /// Dense acceptance (many new tracks).
    pub fn dense() -> Self {
        ExtendInput {
            name: "dense",
            n: 4000,
            initial_tracks: 600,
            accept_rate: 0.35,
            wild_probe_rate: 0.0,
            seed: 0xE1,
        }
    }

    /// Sparse acceptance (few new tracks).
    pub fn sparse() -> Self {
        ExtendInput {
            name: "sparse",
            n: 4000,
            initial_tracks: 600,
            accept_rate: 0.05,
            wild_probe_rate: 0.0,
            seed: 0xE2,
        }
    }

    /// A deck whose observations occasionally correlate against the
    /// extension region itself: the range test fails and the loop falls
    /// back to sequential execution.
    pub fn contended() -> Self {
        ExtendInput {
            name: "contended",
            n: 4000,
            initial_tracks: 600,
            accept_rate: 0.2,
            wild_probe_rate: 0.001,
            seed: 0xE3,
        }
    }

    /// All decks used by the figure benches.
    pub fn all() -> Vec<ExtendInput> {
        vec![Self::dense(), Self::sparse(), Self::contended()]
    }
}

/// The EXTEND_400 kernel.
#[derive(Clone, Debug)]
pub struct ExtendLoop {
    input: ExtendInput,
    /// Per-iteration accept decision (input-dependent gate).
    accept: Vec<bool>,
    /// Per-iteration read targets in the read-only prefix.
    probes: Vec<[usize; 2]>,
    capacity: usize,
}

impl ExtendLoop {
    /// Instantiate the kernel for one input deck.
    pub fn new(input: ExtendInput) -> Self {
        let mut rng = StdRng::seed_from_u64(input.seed);
        let accept = (0..input.n)
            .map(|_| rng.random_bool(input.accept_rate))
            .collect();
        let probes = (0..input.n)
            .map(|i| {
                let wild = input.wild_probe_rate > 0.0 && rng.random_bool(input.wild_probe_rate);
                let a = if wild {
                    // Correlate against a recently extended track: lands
                    // in the written region, tripping the range test.
                    input.initial_tracks + i / 2
                } else {
                    rng.random_range(0..input.initial_tracks)
                };
                [a, rng.random_range(0..input.initial_tracks)]
            })
            .collect();
        ExtendLoop {
            input,
            accept,
            probes,
            // Room for every extension plus the final temporary slot.
            capacity: input.initial_tracks + input.n + 1,
        }
    }

    /// The input deck.
    pub fn input(&self) -> &ExtendInput {
        &self.input
    }

    /// How many extensions the deck accepts (== final LSTTRK − initial).
    pub fn expected_accepts(&self) -> usize {
        self.accept.iter().filter(|&&a| a).count()
    }
}

impl SpecLoop for ExtendLoop {
    fn num_iters(&self) -> usize {
        self.input.n
    }

    fn initial_counter(&self) -> Option<usize> {
        Some(self.input.initial_tracks)
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        let mut init = vec![0.0; self.capacity];
        for (k, v) in init.iter_mut().enumerate().take(self.input.initial_tracks) {
            *v = 1.0 + k as f64; // the existing tracks
        }
        vec![ArrayDecl::tested("TRACK", init, ShadowKind::Sparse)]
    }

    fn body(&self, i: usize, ctx: &mut IterCtx<'_, f64>) {
        // Correlate the observation against existing tracks (read-only
        // prefix: indices < initial LSTTRK, offset-independent).
        let a = ctx.read(TRACK, self.probes[i][0]);
        let b = ctx.read(TRACK, self.probes[i][1]);
        // Temporarily extend by one slot at the current counter.
        let slot = ctx.counter();
        ctx.write(TRACK, slot, a * 0.5 + b * 0.25 + i as f64);
        if self.accept[i] {
            // The loop-variant condition materialized: keep the slot.
            ctx.bump();
        }
        // Otherwise the slot is re-used (overwritten) by the next
        // iteration.
    }

    fn cost(&self, _i: usize) -> f64 {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlrpd_core::{run_induction, CostModel, ExecMode};

    /// Ground truth: run the extend pattern sequentially by hand.
    fn sequential_extend(lp: &ExtendLoop) -> (Vec<f64>, usize) {
        let mut track = match lp.arrays().pop() {
            Some(d) => d.init,
            None => unreachable!(),
        };
        let mut counter = lp.input.initial_tracks;
        for i in 0..lp.input.n {
            let a = track[lp.probes[i][0]];
            let b = track[lp.probes[i][1]];
            track[counter] = a * 0.5 + b * 0.25 + i as f64;
            if lp.accept[i] {
                counter += 1;
            }
        }
        (track, counter)
    }

    #[test]
    fn two_pass_scheme_matches_sequential() {
        for input in ExtendInput::all() {
            let lp = ExtendLoop::new(input);
            let (expect, final_counter) = sequential_extend(&lp);
            let res = run_induction(&lp, 8, ExecMode::Simulated, CostModel::default()).unwrap();
            let should_pass = input.wild_probe_rate == 0.0;
            assert_eq!(
                res.test_passed, should_pass,
                "{}: range test outcome",
                input.name
            );
            // Pass or fall back — the result is always correct.
            assert_eq!(res.final_counter, final_counter, "{}", input.name);
            assert_eq!(res.arrays[0].1, expect, "{}", input.name);
            if should_pass {
                assert_eq!(res.report.stages.len(), 2, "two doalls");
                assert_eq!(res.report.restarts, 0);
            } else {
                assert_eq!(res.report.restarts, 1, "sequential fallback");
            }
        }
    }

    #[test]
    fn contended_deck_fails_range_test_but_stays_correct() {
        let lp = ExtendLoop::new(ExtendInput::contended());
        let (expect, _) = sequential_extend(&lp);
        let res = run_induction(&lp, 8, ExecMode::Simulated, CostModel::default()).unwrap();
        assert!(!res.test_passed);
        assert_eq!(res.arrays[0].1, expect);
        assert!(res.report.pr() < 1.0);
    }

    #[test]
    fn final_counter_counts_accepts() {
        let lp = ExtendLoop::new(ExtendInput::sparse());
        let res = run_induction(&lp, 4, ExecMode::Simulated, CostModel::default()).unwrap();
        assert_eq!(
            res.final_counter,
            lp.input.initial_tracks + lp.expected_accepts()
        );
    }

    #[test]
    fn works_on_one_processor() {
        let lp = ExtendLoop::new(ExtendInput::dense());
        let (expect, _) = sequential_extend(&lp);
        let res = run_induction(&lp, 1, ExecMode::Simulated, CostModel::default()).unwrap();
        assert!(res.test_passed);
        assert_eq!(res.arrays[0].1, expect);
    }
}
