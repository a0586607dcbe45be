//! Analytical performance model of recursive speculative parallelization
//! — Section 4 of the R-LRPD paper.
//!
//! The model classifies partially parallel loops by their dependence
//! distribution:
//!
//! * **geometric (α) loops** — a constant fraction `1 − α` of the
//!   *currently remaining* iterations completes per speculative stage;
//! * **linear (β) loops** — a constant fraction `1 − β` of the
//!   *original* iterations completes per stage (a constant number of
//!   processors succeeds each time).
//!
//! Given `(n, p, ω, ℓ, s)` — iterations, processors, work per iteration,
//! redistribution cost per iteration, and barrier cost — the model
//! predicts:
//!
//! * the stage count without redistribution, `k_s` ([`k_s_geometric`],
//!   [`k_s_linear`]),
//! * the NRD execution time `T_static` (Eq. 1),
//! * the RD execution time `T_dyn` (Eq. 2–3),
//! * the run-time redistribution cutoff `n_kd ≥ p·s/(ω−ℓ)` (Eq. 4),
//! * the optimal redistribution stage count `k_d` (Eq. 7),
//! * the combined total `T(n) = T_dyn + T_static(n_kd)` (Eq. 5–6).
//!
//! [`stage_sim`] runs the model as a discrete per-stage simulation under
//! the paper's three policies (*never*, *adaptive*, *always*
//! redistribute) and produces the per-stage/cumulative series of Fig. 4.
//!
//! ```
//! use rlrpd_model::{k_s_geometric, simulate_stages, ModelParams, RedistPolicy};
//!
//! let m = ModelParams { n: 4096, p: 8, omega: 100.0, ell: 10.0, sync: 50.0 };
//! // α = 1/2 on 8 processors: k_s = log₂ 8 = 3 NRD restarts bound.
//! assert_eq!(k_s_geometric(0.5, 8), 3.0);
//! let stages = simulate_stages(&m, 0.5, RedistPolicy::Adaptive);
//! assert!(!stages[0].redistributed, "the initial run never redistributes");
//! ```

#![warn(missing_docs)]

pub mod formulas;
pub mod params;
pub mod stage_sim;

pub use formulas::{
    k_d_geometric, k_s, k_s_geometric, k_s_linear, redistribution_pays, t_dyn_geometric, t_static,
    t_total_geometric,
};
pub use params::{LoopClass, ModelParams};
pub use stage_sim::{
    simulate_stages, simulate_stages_linear, RedistPolicy, StageRecord, MAX_SIM_STAGES,
};
