//! Parallel execution substrate for the R-LRPD speculative runtime.
//!
//! The R-LRPD test (Dang, Yu, Rauchwerger, IPDPS 2002) transforms a
//! partially parallel loop into a sequence of block-scheduled `doall`
//! stages. This crate provides everything *below* the dependence test
//! itself:
//!
//! * [`ProcId`] — virtual processor identifiers,
//! * [`BlockSchedule`] — contiguous, increasing-order iteration blocks
//!   (the paper requires static block scheduling so that partial work can
//!   be committed in iteration order),
//! * [`Executor`] — runs one speculative stage on a persistent
//!   work-stealing [`WorkerPool`] reused across stages and restarts, or
//!   on a deterministic *simulated machine* with per-processor virtual
//!   clocks (our substitution for the paper's 16-processor HP V2200;
//!   see DESIGN.md §2),
//! * [`CostModel`] — the (ω, ℓ, s) parameters of the paper's Section 4
//!   analytical model plus a remote-miss penalty for redistribution,
//! * [`prefix`] — sequential and parallel prefix sums (used by the
//!   feedback-guided load balancer and the EXTEND induction-variable
//!   technique),
//! * [`FaultPlan`] — deterministic, seedable fault injection (panics,
//!   delays, checkpoint failures) used to exercise the engine's
//!   containment and sequential-fallback paths,
//! * [`FeedbackPartitioner`] — the Section 5.1 feedback-guided load
//!   balancing: per-iteration timings from the previous instantiation are
//!   prefix-summed into the block boundaries that would have achieved
//!   perfect balance, and reused (rescaled) as a first-order predictor.
//!
//! Everything here is deterministic when the simulated executor is used,
//! which is what makes the paper's figures reproducible bit-for-bit.
//!
//! ```
//! use rlrpd_runtime::{BlockSchedule, ExecMode, Executor};
//!
//! // Four blocks over 0..100, run concurrently; each reports its
//! // virtual work.
//! let schedule = BlockSchedule::even(0..100, 4);
//! let executor = Executor::new(ExecMode::Simulated);
//! let mut sums = vec![0u64; 4];
//! let timing = executor.run_blocks(&mut sums, |pos, out| {
//!     let range = schedule.blocks()[pos].range.clone();
//!     *out = range.clone().map(|i| i as u64).sum();
//!     range.len() as f64
//! });
//! assert_eq!(timing.total_work(), 100.0);
//! assert_eq!(sums.iter().sum::<u64>(), (0..100u64).sum());
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod balance;
pub mod cost;
pub mod executor;
pub mod fault;
pub mod pool;
pub mod prefix;
pub mod proc;
pub mod schedule;
pub mod stats;
pub mod sync;

pub use balance::{FeedbackPartitioner, TrendMode};
pub use cost::{Cost, CostModel};
pub use executor::{ExecMode, Executor, StageTiming};
pub use fault::{panic_message, parse_bytes, FaultDomain, FaultPlan, InjectedFault, WorkerFault};
pub use pool::{JobPanic, WorkerPool};
pub use proc::ProcId;
pub use schedule::{Block, BlockSchedule};
pub use stats::{OverheadBreakdown, OverheadKind, PhaseSeconds, StageStats};
pub use sync::PostCell;
