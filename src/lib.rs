//! # rlrpd — speculative parallelization of partially parallel loops
//!
//! A Rust reproduction of *"The R-LRPD Test: Speculative
//! Parallelization of Partially Parallel Loops"* (Francis Dang, Hao Yu,
//! Lawrence Rauchwerger; IPDPS 2002).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] ([`rlrpd_core`]) — the LRPD/R-LRPD engine: speculative
//!   doalls, shadow analysis, privatization with copy-in, reductions,
//!   NRD/RD/adaptive/sliding-window strategies, DDG extraction,
//!   wavefront scheduling, induction-variable speculation, and the
//!   sequential / classic-LRPD / inspector-executor baselines.
//! * [`runtime`] ([`rlrpd_runtime`]) — block schedules, thread &
//!   simulated executors, cost model, feedback-guided load balancing.
//! * [`shadow`] ([`rlrpd_shadow`]) — dense/sparse shadow structures,
//!   N-level mark lists, last-reference tables.
//! * [`model`] ([`rlrpd_model`]) — the Section-4 analytical model.
//! * [`loops`] ([`rlrpd_loops`]) — workload kernels recreating the
//!   paper's evaluation codes (TRACK, SPICE2G6, FMA3D) plus synthetic
//!   generators.
//! * [`lang`] ([`rlrpd_lang`]) — the run-time pass as a library: a mini
//!   loop language whose compiler statically classifies each array
//!   (tested / untested / reduction) and executes the loop under the
//!   speculative engine.
//! * [`dist`] ([`rlrpd_dist`]) — fault-tolerant multi-process stage
//!   sharding: supervisor/worker subprocess fleets with heartbeats,
//!   per-block deadlines, retry-with-backoff, and divergence
//!   detection.
//! * [`serve`] ([`rlrpd_serve`]) — the crash-tolerant multi-tenant
//!   job daemon behind `rlrpd serve`/`submit`/`status`: admission
//!   control over a process-wide budget pool, fair round-robin
//!   dispatch, bounded journal streaming with backpressure, graceful
//!   drain, and restart recovery.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system
//! inventory and substitutions, and `EXPERIMENTS.md` for the
//! figure-by-figure reproduction record. Runnable entry points live in
//! `examples/` and the per-figure binaries in `crates/bench`.

pub use rlrpd_core as core;
pub use rlrpd_dist as dist;
pub use rlrpd_lang as lang;
pub use rlrpd_loops as loops;
pub use rlrpd_model as model;
pub use rlrpd_runtime as runtime;
pub use rlrpd_serve as serve;
pub use rlrpd_shadow as shadow;

// The most-used types, flattened for convenience.
pub use rlrpd_core::{
    extract_ddg, run_classic_lrpd, run_induction, run_inspector_executor, run_sequential,
    run_speculative, ArrayDecl, ArrayId, BalancePolicy, CheckpointPolicy, ClosureLoop, CostModel,
    ExecMode, FallbackPolicy, FallbackReason, FaultDomain, FaultPlan, IterCtx, Journal,
    JournalElem, JournalError, Reduction, RlrpdError, RunConfig, RunPlan, RunResult, Runner,
    ShadowKind, SpecLoop, Strategy, Timeline, WavefrontSchedule, WindowConfig, WindowPolicy,
};
