//! A CHARMM-style non-bonded force kernel.
//!
//! The paper's introduction names CHARMM among the "complex
//! simulations" whose loops resist static analysis. The classic
//! offender is the non-bonded force loop: it walks a *neighbor list*
//! (pairs of atoms within a cutoff, recomputed every few timesteps) and
//! scatters force contributions to both atoms of each pair — an
//! irregular reduction through double indirection that no compiler can
//! prove independent, yet is dynamically a pure sum reduction. The
//! companion *integration* loop is per-atom disjoint (untested), and an
//! optional *bond-constraint sweep* introduces genuine short-distance
//! dependences for partially-parallel experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlrpd_core::{ArrayDecl, ArrayId, IterCtx, Reduction, ShadowKind, SpecLoop};

const FORCE: ArrayId = ArrayId(0);
const POS: ArrayId = ArrayId(1);

/// A synthetic molecular system.
#[derive(Clone, Debug)]
pub struct MoldynSystem {
    /// Atom count.
    pub atoms: usize,
    /// Neighbor pairs `(a, b)`, `a < b`.
    pub pairs: Vec<(u32, u32)>,
}

impl MoldynSystem {
    /// Generate `atoms` atoms with an average of `avg_neighbors`
    /// neighbors each, deterministically from `seed`.
    pub fn new(atoms: usize, avg_neighbors: usize, seed: u64) -> Self {
        assert!(atoms >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let num_pairs = atoms * avg_neighbors / 2;
        let pairs = (0..num_pairs)
            .map(|_| {
                let a = rng.random_range(0..atoms as u32 - 1);
                // Neighbor lists are spatially local: partner nearby.
                let span = (atoms as u32 - a - 1).min(32);
                let b = a + 1 + rng.random_range(0..span);
                (a, b)
            })
            .collect();
        MoldynSystem { atoms, pairs }
    }
}

/// The non-bonded force loop: one iteration per neighbor pair, force
/// contributions *reduced* into both endpoints.
///
/// `FORCE[a] += f; FORCE[b] -= f` through the pair list is the paper's
/// reduction pattern with indirection: the sparse LRPD reduction test
/// validates it in one stage regardless of how pairs collide.
#[derive(Clone, Debug)]
pub struct NonbondedLoop {
    system: MoldynSystem,
}

impl NonbondedLoop {
    /// Force loop over `system`'s pair list.
    pub fn new(system: MoldynSystem) -> Self {
        NonbondedLoop { system }
    }
}

impl SpecLoop for NonbondedLoop {
    fn num_iters(&self) -> usize {
        self.system.pairs.len()
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        vec![
            ArrayDecl::reduction(
                "FORCE",
                vec![0.0; self.system.atoms],
                ShadowKind::Sparse,
                Reduction::sum(),
            ),
            // Positions are read-only during the force sweep.
            ArrayDecl::untested(
                "POS",
                (0..self.system.atoms)
                    .map(|k| (k % 17) as f64 * 0.3)
                    .collect(),
            ),
        ]
    }

    fn body(&self, i: usize, ctx: &mut IterCtx<'_, f64>) {
        let (a, b) = self.system.pairs[i];
        let (a, b) = (a as usize, b as usize);
        let dx = ctx.read(POS, b) - ctx.read(POS, a);
        // A soft Lennard-Jones-ish magnitude, cheap but nonlinear.
        let r2 = dx * dx + 0.25;
        let f = dx * (1.0 / (r2 * r2) - 0.5 / r2);
        ctx.reduce(FORCE, a, f);
        ctx.reduce(FORCE, b, -f);
    }

    fn cost(&self, _i: usize) -> f64 {
        4.0
    }
}

/// The bond-constraint sweep: each constraint adjusts the positions of
/// a bonded atom pair; chains of bonds (`k` bonded to `k+1`) create the
/// genuine short-distance dependences the R-LRPD test must arbitrate.
#[derive(Clone, Debug)]
pub struct ConstraintLoop {
    atoms: usize,
    /// Bonds `(a, b)`; chained bonds share atoms.
    bonds: Vec<(u32, u32)>,
}

impl ConstraintLoop {
    /// A constraint sweep over `chains` chains of `chain_len` bonded
    /// atoms (e.g. polymer backbones), placed consecutively.
    pub fn new(chains: usize, chain_len: usize) -> Self {
        assert!(chain_len >= 2);
        let mut bonds = Vec::new();
        for c in 0..chains {
            let base = (c * chain_len) as u32;
            for k in 0..(chain_len - 1) as u32 {
                bonds.push((base + k, base + k + 1));
            }
        }
        ConstraintLoop {
            atoms: chains * chain_len,
            bonds,
        }
    }
}

impl SpecLoop for ConstraintLoop {
    fn num_iters(&self) -> usize {
        self.bonds.len()
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        vec![ArrayDecl::tested(
            "X",
            (0..self.atoms).map(|k| k as f64).collect(),
            ShadowKind::Dense,
        )]
    }

    fn body(&self, i: usize, ctx: &mut IterCtx<'_, f64>) {
        let (a, b) = self.bonds[i];
        let (a, b) = (a as usize, b as usize);
        // SHAKE-like projection: move both atoms toward unit distance.
        let xa = ctx.read(ArrayId(0), a);
        let xb = ctx.read(ArrayId(0), b);
        let err = (xb - xa) - 1.0;
        ctx.write(ArrayId(0), a, xa + 0.5 * err);
        ctx.write(ArrayId(0), b, xb - 0.5 * err);
    }

    fn cost(&self, _i: usize) -> f64 {
        2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlrpd_core::{run_sequential, run_speculative, RunConfig, Strategy, WindowConfig};

    #[test]
    fn nonbonded_forces_validate_as_reductions_in_one_stage() {
        let lp = NonbondedLoop::new(MoldynSystem::new(200, 8, 3));
        let spec = run_speculative(&lp, RunConfig::new(8).with_strategy(Strategy::Rd));
        assert_eq!(
            spec.report.stages.len(),
            1,
            "irregular reductions never conflict"
        );
        let (seq, _) = run_sequential(&lp);
        for (a, b) in spec.array("FORCE").iter().zip(&seq[0].1) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn momentum_is_conserved() {
        // Newton's third law in the kernel: the force reductions cancel
        // pairwise, so the total must be (numerically) zero.
        let lp = NonbondedLoop::new(MoldynSystem::new(300, 10, 7));
        let spec = run_speculative(&lp, RunConfig::new(4));
        let total: f64 = spec.array("FORCE").iter().sum();
        assert!(total.abs() < 1e-9, "net force {total}");
    }

    #[test]
    fn constraint_chains_are_heavily_dependent() {
        let lp = ConstraintLoop::new(4, 16);
        let spec = run_speculative(&lp, RunConfig::new(8).with_strategy(Strategy::Nrd));
        let (seq, _) = run_sequential(&lp);
        assert_eq!(spec.array("X"), seq[0].1.as_slice());
        assert!(spec.report.restarts > 0, "chained bonds must conflict");
    }

    #[test]
    fn independent_chains_parallelize_when_blocks_align() {
        // One chain per block: all dependences stay intra-processor.
        let chains = 8;
        let lp = ConstraintLoop::new(chains, 9); // 8 bonds per chain
        let spec = run_speculative(&lp, RunConfig::new(chains).with_strategy(Strategy::Nrd));
        assert_eq!(
            spec.report.stages.len(),
            1,
            "chain-aligned blocks never conflict"
        );
        let (seq, _) = run_sequential(&lp);
        assert_eq!(spec.array("X"), seq[0].1.as_slice());
    }

    #[test]
    fn constraint_loop_correct_under_window_strategy() {
        let lp = ConstraintLoop::new(3, 20);
        let spec = run_speculative(
            &lp,
            RunConfig::new(4).with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(6))),
        );
        let (seq, _) = run_sequential(&lp);
        assert_eq!(spec.array("X"), seq[0].1.as_slice());
    }

    #[test]
    fn system_generation_is_deterministic() {
        let a = MoldynSystem::new(100, 6, 11);
        let b = MoldynSystem::new(100, 6, 11);
        assert_eq!(a.pairs, b.pairs);
    }
}
