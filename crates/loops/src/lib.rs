//! Workload kernels reproducing the dependence structure of the R-LRPD
//! paper's evaluation codes, plus parameterized synthetic generators.
//!
//! The paper measures Fortran77 loops from TRACK (NLFILT_300,
//! EXTEND_400, FPTRAK_300), SPICE2G6 (DCDCMP loops 70 and 15, the BJT
//! model-evaluation loop) and FMA3D (the `Quad` loop) on a 16-processor
//! HP V2200, using modified PERFECT/SPEC input decks. We cannot run the
//! original Fortran under the original instrumentation, so each kernel
//! here recreates the loop's *memory-reference structure* — the guarded
//! writes, indirections, induction counters, sparsity patterns and
//! dependence distances the paper describes — as a Rust
//! [`rlrpd_core::SpecLoop`] (EXTEND's with an induction counter) with
//! seeded, deterministic generators standing in for the input decks.
//! The LRPD machinery observes only address streams, so faithful
//! address streams reproduce the algorithmic behaviour (stage counts,
//! PR, speedup shapes) that the paper's figures report. See DESIGN.md
//! §2 for the substitution argument.
//!
//! * [`synthetic`] — α-geometric / β-linear / fully parallel /
//!   sequential / random-dependence loops (the model-validation loop of
//!   Fig. 4 and the property-test fodder);
//! * [`nlfilt`] — TRACK NLFILT_300: guarded short-distance writes to
//!   NUSED over a large checkpointed state (Figs. 7–9, 12a);
//! * [`extend`] — TRACK EXTEND_400: conditionally incremented induction
//!   counter LSTTRK (Fig. 10);
//! * [`fptrak`] — TRACK FPTRAK_300: privatizable work array (Fig. 11);
//! * [`spice`] — SPICE2G6: DCDCMP_15 sparse LU (DDG + wavefront),
//!   DCDCMP_70 (parallel with premature exit), BJT model evaluation
//!   (sparse reductions) (Fig. 6);
//! * [`fma3d`] — FMA3D `Quad`: indirection-based, fully parallel
//!   (Fig. 5);
//! * [`dsl`] — TRACK/SPICE/NLFILT reference shapes as mini-language
//!   *source*, for measuring and differentially testing the compiled
//!   tiers (tree-walk interpreter vs. register-bytecode VM).

#![warn(missing_docs)]

pub mod dsl;
pub mod extend;
pub mod fma3d;
pub mod fptrak;
pub mod nlfilt;
pub mod spice;
pub mod spice_program;
pub mod synthetic;

pub use extend::ExtendLoop;
pub use fma3d::QuadLoop;
pub use fptrak::FptrakLoop;
pub use nlfilt::{NlfiltInput, NlfiltLoop};
pub use spice::{BjtLoop, Dcdcmp15Loop, Dcdcmp70Loop};
pub use spice_program::{NewtonReport, SpiceProgram};
pub use synthetic::{AlphaLoop, BetaLoop, FullyParallelLoop, RandomDepLoop, SequentialChainLoop};
