//! The cost model of the paper's Section 4.
//!
//! The analytical model (and our simulated machine) is parameterized by
//! three quantities the paper assumes known *a priori* — estimable by
//! static analysis plus measurement:
//!
//! * `ω` (omega) — useful computation per iteration,
//! * `ℓ` (ell)   — cost of redistributing one iteration's data to a
//!   different processor (dominated by remote cache misses on the
//!   original ccNUMA testbed),
//! * `s`         — cost of one barrier synchronization.
//!
//! Costs are dimensionless virtual time units; the simulated executor and
//! the model both consume them, so model-vs-simulation comparisons (the
//! paper's Fig. 4) are apples-to-apples.

/// Virtual time, in abstract work units.
pub type Cost = f64;

/// Machine/loop cost parameters `(ω, ℓ, s)` plus the per-element costs of
/// the R-LRPD bookkeeping phases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// `ω`: useful work per iteration (default unit of the model).
    pub omega: Cost,
    /// `ℓ`: per-iteration cost of redistributing work to another
    /// processor (remote misses + data movement).
    pub ell: Cost,
    /// `s`: one barrier synchronization.
    pub sync: Cost,
    /// Cold/remote-cache penalty charged when an iteration executes on
    /// a different processor than the one that last touched it (the
    /// ccNUMA effect motivating the circular sliding window).
    pub remote_miss: Cost,
    /// Per-reference cost of the marking code added to the speculative
    /// loop body (the LRPD instrumentation overhead).
    pub marking_per_ref: Cost,
    /// Per-element cost of the fully parallel analysis (shadow merge);
    /// the paper bounds analysis by `O(refs · log p)`.
    pub analysis_per_ref: Cost,
    /// Per-element cost of committing a privately computed value to
    /// shared storage (last-value copy-out).
    pub commit_per_elem: Cost,
    /// Per-element cost of restoring a checkpointed value after a failed
    /// speculation.
    pub restore_per_elem: Cost,
    /// Per-element cost of (re-)initializing shadow state.
    pub shadow_init_per_elem: Cost,
    /// Per-element cost of saving a checkpoint entry.
    pub checkpoint_per_elem: Cost,
}

impl Default for CostModel {
    /// Defaults roughly in line with the paper's regime where
    /// redistribution is worth considering (`ω > ℓ + s` for the loops it
    /// studies): heavy iterations, cheap per-element bookkeeping.
    fn default() -> Self {
        CostModel {
            omega: 100.0,
            ell: 5.0,
            sync: 20.0,
            remote_miss: 1.0,
            marking_per_ref: 0.02,
            analysis_per_ref: 0.05,
            commit_per_elem: 0.05,
            restore_per_elem: 0.05,
            shadow_init_per_elem: 0.01,
            checkpoint_per_elem: 0.05,
        }
    }
}

impl CostModel {
    /// A model where every non-loop overhead is zero: useful in tests
    /// that check pure stage structure.
    pub fn work_only(omega: Cost) -> Self {
        CostModel {
            omega,
            ell: 0.0,
            sync: 0.0,
            remote_miss: 0.0,
            marking_per_ref: 0.0,
            analysis_per_ref: 0.0,
            commit_per_elem: 0.0,
            restore_per_elem: 0.0,
            shadow_init_per_elem: 0.0,
            checkpoint_per_elem: 0.0,
        }
    }

    /// The paper's Eq. 4 run-time redistribution condition: keep
    /// redistributing while the remaining iteration count `n_k` satisfies
    /// `n_k ≥ p·s / (ω − ℓ)`. When `ω ≤ ℓ` redistribution never pays and
    /// this returns `false`.
    pub fn redistribution_pays(&self, remaining_iters: usize, p: usize) -> bool {
        if self.omega <= self.ell {
            return false;
        }
        remaining_iters as f64 >= (p as f64 * self.sync) / (self.omega - self.ell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redistribution_condition_matches_eq4() {
        let m = CostModel {
            omega: 10.0,
            ell: 2.0,
            sync: 16.0,
            ..CostModel::work_only(10.0)
        };
        // threshold = p*s/(omega-ell) = 8*16/8 = 16
        assert!(m.redistribution_pays(16, 8));
        assert!(m.redistribution_pays(17, 8));
        assert!(!m.redistribution_pays(15, 8));
    }

    #[test]
    fn redistribution_never_pays_when_work_below_move_cost() {
        let m = CostModel {
            omega: 1.0,
            ell: 2.0,
            ..CostModel::default()
        };
        assert!(!m.redistribution_pays(usize::MAX, 4));
    }

    #[test]
    fn work_only_zeroes_overheads() {
        let m = CostModel::work_only(7.0);
        assert_eq!(m.omega, 7.0);
        assert_eq!(m.sync, 0.0);
        assert_eq!(m.ell, 0.0);
    }
}
