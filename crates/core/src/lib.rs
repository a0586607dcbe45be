//! # rlrpd-core — the R-LRPD test
//!
//! A from-scratch implementation of *"The R-LRPD Test: Speculative
//! Parallelization of Partially Parallel Loops"* (Dang, Yu, Rauchwerger,
//! IPDPS 2002): speculative run-time parallelization that transforms a
//! partially parallel loop into a sequence of fully parallel stages,
//! committing all correctly executed work after every stage and
//! re-executing only the remainder.
//!
//! ## Quick tour
//!
//! * Describe your loop with [`SpecLoop`] (or [`ClosureLoop`]):
//!   declare every shared array ([`ArrayDecl`]) and route the body's
//!   references through [`IterCtx`].
//! * Run it with a [`Runner`] under a [`RunConfig`]: choose the
//!   [`Strategy`] (NRD / RD / adaptive / sliding window), the
//!   checkpoint policy, and feedback-guided load balancing.
//! * The result carries the final arrays (always identical to
//!   sequential execution — the guarantee the test provides) plus a
//!   [`RunReport`] with stage series, restarts, parallelism ratio, and
//!   speedups.
//!
//! ```
//! use rlrpd_core::*;
//!
//! // for i in 0..n { a[i] = a[i.saturating_sub(3)] + 1.0 } — short
//! // backward flow dependences an LRPD doall would trip over.
//! let lp = ClosureLoop::new(
//!     64,
//!     || vec![ArrayDecl::tested("A", vec![0.0; 64], ShadowKind::Dense)],
//!     |i, ctx| {
//!         let a = ArrayId(0);
//!         let v = ctx.read(a, i.saturating_sub(3));
//!         ctx.write(a, i, v + 1.0);
//!     },
//! );
//! let result = run_speculative(&lp, RunConfig::new(4));
//! let (seq, _) = run_sequential(&lp);
//! assert_eq!(result.array("A"), &seq[0].1[..]); // always correct
//! assert!(result.report.restarts > 0);          // but partially parallel
//! ```
//!
//! ## Beyond the basic test
//!
//! * [`extract_ddg`] — sliding-window DDG extraction for loops with no
//!   proper inspector; [`WavefrontSchedule`] + [`execute_wavefronts`]
//!   run the resulting topological schedule (SPICE's DCDCMP technique).
//! * [`run_induction`] — the EXTEND_400 conditional-induction-variable
//!   scheme (two doalls + prefix sum + range test).
//! * Baselines: [`run_sequential`], [`run_classic_lrpd`] (speculate
//!   once, serial on failure), [`run_inspector_executor`] (for loops
//!   that *do* admit an inspector).

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod array;
pub mod buf;
pub mod checkpoint;
pub mod commit;
pub mod ctx;
pub mod ddg;
mod doacross;
pub mod driver;
mod engine;
pub mod error;
pub mod induction;
pub mod inspector;
pub mod journal;
pub mod ledger;
pub mod lrpd;
pub mod persist;
pub mod predictor;
pub mod remote;
pub mod report;
pub mod spec_loop;
mod stages;
pub mod timeline;
pub mod value;
pub mod view;
pub mod wavefront;
pub mod window;

pub use analysis::{analyze_parallel, analyze_seq, AnalysisResult, DepArc};
pub use array::{ArrayDecl, ArrayId, ArrayKind, ShadowKind};
pub use checkpoint::CheckpointPolicy;
pub use ctx::IterCtx;
pub use ddg::{extract_ddg, DdgResult, DepCollector, DepGraph, EdgeKind};
pub use driver::{
    run_speculative, AdaptRule, BalancePolicy, DoacrossConfig, FallbackPolicy, FallbackReason,
    RunConfig, RunPlan, RunResult, Runner, Strategy,
};
pub use engine::{reduction_mask, run_sequential, verify_against_sequential};
pub use error::{PlanError, RlrpdError};
pub use induction::{
    run_induction, run_induction_sequential, IndCtx, InductionLoop, InductionResult,
};
pub use inspector::{run_inspector_executor, AccessTrace, Inspectable, InspectorResult};
pub use journal::{CommitRecord, FrameObserver, Journal, JournalElem, JournalError, JournalHeader};
pub use ledger::{CostRun, CostRuns};
pub use lrpd::{run_classic_lrpd, try_run_classic_lrpd};
pub use persist::PersistError;
pub use predictor::{PredictiveRunner, StrategyPredictor};
pub use remote::{
    serve_worker, BlockDispatcher, BlockReply, BlockRequest, DistConnector, FrontierSummary,
    HelloAck, JobDecision, JobSpec, JobState, JobStatusFrame, RejectReason, SlotReply,
    StatusRequest, TransportStats, WireError, WireHello, WorkerLoss, PROTOCOL_VERSION,
    SERVE_PROTOCOL_VERSION,
};
pub use report::{PrAccumulator, RunReport};
pub use spec_loop::{BatchTally, ClosureLoop, FullyInstrumented, SpecLoop};
pub use timeline::Timeline;
pub use value::{Reduction, Value};
pub use wavefront::{execute_wavefronts, WavefrontReport, WavefrontSchedule};
pub use window::{WindowConfig, WindowPolicy};

// Re-export the runtime types users need to configure runs.
pub use rlrpd_runtime::{CostModel, ExecMode, FaultDomain, FaultPlan, InjectedFault, WorkerFault};
