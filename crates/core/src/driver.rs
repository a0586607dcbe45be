//! Configuring and launching a speculative run: [`RunConfig`],
//! [`Strategy`], and the [`Runner`] whose one run body attaches journal
//! and fleet ([`RunPlan`]) and hands the engine to the stage loop.
//!
//! A partially parallel loop becomes a sequence of fully parallel
//! stages. The strategy chooses, after each failed stage, how the
//! remaining iterations are scheduled:
//!
//! * [`Strategy::Nrd`] — failed processors re-run their own blocks;
//!   successful processors idle (no redistribution, no remote misses);
//! * [`Strategy::Rd`] — the remainder is re-blocked over all
//!   processors (shorter stages, but new cross-processor dependences
//!   may be uncovered and redistribution costs `ℓ` per moved
//!   iteration);
//! * [`Strategy::AdaptiveRd`] — redistribute only while it pays, by the
//!   model condition of Eq. 4 or by the measured heuristic the paper's
//!   Fig. 4 calls "adaptive";
//! * [`Strategy::SlidingWindow`] — strip-mine the iteration space and
//!   run the test window by window (see [`crate::window`]).

use crate::analysis::DepArc;
use crate::checkpoint::CheckpointPolicy;
use crate::engine::{Engine, EngineCfg};
use crate::error::{PlanError, RlrpdError};
use crate::journal::{
    self, CommitRecord, ElemBits, Journal, JournalElem, JournalError, JournalHeader, JournalSink,
};
use crate::remote::{self, DistConnector};
use crate::report::{PrAccumulator, RunReport};
use crate::spec_loop::SpecLoop;
use crate::stages::run_stages;
use crate::value::Value;
use crate::window::WindowConfig;
use rlrpd_runtime::{CostModel, ExecMode, FaultDomain, FaultPlan, FeedbackPartitioner, TrendMode};
use std::num::NonZeroUsize;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// How a failed stage's remainder is rescheduled.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Never redistribute: failed blocks re-run in place.
    Nrd,
    /// Always redistribute the remainder over all processors.
    Rd,
    /// Redistribute while it pays, per the chosen rule.
    AdaptiveRd(AdaptRule),
    /// Strip-mine with the sliding-window R-LRPD test.
    SlidingWindow(WindowConfig),
    /// Don't speculate at all: the static analyzer *proved* every
    /// cross-iteration dependence sits at a uniform distance, so
    /// iterations pipeline across the worker pool with point-to-point
    /// post/wait cells at the proven distances — no shadow memory, no
    /// restarts, byte-identical to sequential execution by
    /// construction (DESIGN.md §16). Select it through
    /// [`RunConfig::auto_strategy`] with the classifier's verdict.
    Doacross(DoacrossConfig),
}

/// The CLI's and the daemon's strategy syntax: `nrd`, `rd`, `adaptive`
/// (the measured rule) or `sw:W` (a fixed circular window of `W ≥ 1`
/// iterations per processor).
impl std::str::FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "nrd" => Ok(Strategy::Nrd),
            "rd" => Ok(Strategy::Rd),
            "adaptive" => Ok(Strategy::AdaptiveRd(AdaptRule::Measured)),
            _ => match s.strip_prefix("sw:") {
                Some(w) => w
                    .parse::<NonZeroUsize>()
                    .map(|w| Strategy::SlidingWindow(WindowConfig::fixed(w.get())))
                    .map_err(|_| format!("bad window size in '{s}': expected an integer ≥ 1")),
                None => Err(format!("unknown strategy '{s}'")),
            },
        }
    }
}

/// The statically proven uniform dependence distances that schedule a
/// [`Strategy::Doacross`] run.
///
/// `Copy` (so [`Strategy`] stays `Copy`) by bounding the stored vector:
/// the eight *smallest* distinct distances are kept — the minimum is
/// what bounds the pipeline depth, and waiting at a distance smaller
/// than the true one is always sound (it only over-synchronizes), so
/// dropping the largest entries never breaks the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DoacrossConfig {
    len: u8,
    distances: [u32; Self::MAX_DEPS],
}

impl DoacrossConfig {
    /// Distinct distances retained (ascending; smallest kept on
    /// overflow).
    pub const MAX_DEPS: usize = 8;

    /// A single proven distance `d ≥ 1`.
    ///
    /// # Panics
    /// Panics when `d == 0` (distance zero is an intra-iteration
    /// reference, not a cross-iteration dependence).
    pub fn at(d: usize) -> Self {
        Self::from_distances(&[d]).expect("DOACROSS distance must be >= 1")
    }

    /// Package a proven distance set. Returns `None` when `ds` is empty
    /// or contains 0; keeps the [`Self::MAX_DEPS`] smallest distinct
    /// distances (clamped into `u32`, which is correctness-safe: any
    /// stored value ≤ the true distance keeps the protocol sound).
    pub fn from_distances(ds: &[usize]) -> Option<Self> {
        if ds.is_empty() || ds.contains(&0) {
            return None;
        }
        let mut sorted: Vec<u32> = ds
            .iter()
            .map(|&d| d.min(u32::MAX as usize) as u32)
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        sorted.truncate(Self::MAX_DEPS);
        let mut distances = [0u32; Self::MAX_DEPS];
        for (slot, &d) in distances.iter_mut().zip(&sorted) {
            *slot = d;
        }
        Some(DoacrossConfig {
            len: sorted.len() as u8,
            distances,
        })
    }

    /// The proven distances, ascending.
    pub fn distances(&self) -> &[u32] {
        &self.distances[..self.len as usize]
    }

    /// The minimum proven distance — the dependence that bounds the
    /// pipeline's parallelism.
    pub fn min_distance(&self) -> usize {
        self.distances[0] as usize
    }

    /// Concurrent lanes a `p`-processor run can sustain:
    /// `min(d_min, p)` — iterations closer than `d_min` are proven
    /// independent, so up to `d_min` of them may be in flight at once.
    pub fn pipeline_depth(&self, p: usize) -> usize {
        self.min_distance().min(p).max(1)
    }
}

/// Decision rule for [`Strategy::AdaptiveRd`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptRule {
    /// The paper's Eq. 4: redistribute while
    /// `remaining ≥ p·s/(ω − ℓ)`.
    ModelEq4,
    /// The paper's measured heuristic: redistribute while the previous
    /// stage's loop time exceeded its total overhead.
    Measured,
}

/// How iteration blocks are cut.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalancePolicy {
    /// Equal-count blocks.
    Even,
    /// Feedback-guided: balance by the previous instantiation's
    /// per-iteration times (paper Section 5.1).
    FeedbackGuided,
    /// Feedback-guided with linear trend extrapolation across
    /// instantiations — the paper's announced "higher order
    /// derivatives" improvement.
    FeedbackTrend,
}

/// Why the driver degraded a run: for the first three reasons it
/// abandoned speculation and executed the remainder directly
/// (sequentially); [`FallbackReason::WorkerLoss`] records a milder
/// degradation, from distributed workers to in-process speculation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FallbackReason {
    /// The restart budget ([`FallbackPolicy::max_restarts`]) was
    /// exhausted.
    MaxRestarts,
    /// Accumulated virtual time exceeded the watchdog budget
    /// ([`FallbackPolicy::watchdog_factor`] × sequential work).
    Watchdog,
    /// The checkpoint machinery failed at a stage boundary (before any
    /// speculative write, so direct execution from the commit point is
    /// safe).
    CheckpointFault,
    /// The distributed worker fleet was lost beyond recovery (respawn
    /// budget exhausted, or it never launched). Unlike the other
    /// reasons this does **not** mean sequential execution: the run
    /// degraded to the in-process pooled path and kept speculating —
    /// blocks are idempotent over the committed prefix, so no work was
    /// lost.
    WorkerLoss,
    /// The shadow-memory budget ([`RunConfig::shadow_budget`]) was
    /// exhausted after every degradation rung — per-array
    /// representation down-tiering and (under the sliding window)
    /// window shrinking — had been spent. The remainder executed
    /// directly; the result is still exact. Never an abort.
    ShadowBudget,
}

/// Bounded-retry and sequential-fallback policy.
///
/// Speculation is an optimization, never a correctness requirement:
/// when a run keeps restarting (a fault-heavy environment, a badly
/// mispredicted loop) or overruns its time budget, the driver degrades
/// to plain sequential execution of the uncommitted remainder — the
/// result is still exact, only the speedup is lost. The default policy
/// never falls back (both bounds are infinite).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FallbackPolicy {
    /// Restarts (failed stages — dependence violations and contained
    /// faults alike) tolerated before falling back. `usize::MAX`
    /// disables the bound.
    pub max_restarts: usize,
    /// Virtual-time watchdog budget as a multiple of the loop's
    /// sequential work: when the accumulated virtual time of all stages
    /// exceeds `watchdog_factor × sequential_work`, the run falls back.
    /// `f64::INFINITY` disables the watchdog.
    pub watchdog_factor: f64,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        FallbackPolicy {
            max_restarts: usize::MAX,
            watchdog_factor: f64::INFINITY,
        }
    }
}

impl FallbackPolicy {
    /// Replace the restart budget.
    pub fn with_max_restarts(mut self, n: usize) -> Self {
        self.max_restarts = n;
        self
    }

    /// Replace the watchdog factor.
    pub fn with_watchdog(mut self, factor: f64) -> Self {
        self.watchdog_factor = factor;
        self
    }

    /// Should the run fall back, given its report so far and the
    /// `virtual_time` of its stages — [`RunReport::virtual_time`], which
    /// the stage loop keeps as a running total instead of summing every
    /// stage again after each one? Checked at stage boundaries (virtual
    /// time is only meaningful there).
    pub(crate) fn check(&self, report: &RunReport, virtual_time: f64) -> Option<FallbackReason> {
        if report.restarts > self.max_restarts {
            return Some(FallbackReason::MaxRestarts);
        }
        if self.watchdog_factor.is_finite()
            && virtual_time > self.watchdog_factor * report.sequential_work
        {
            return Some(FallbackReason::Watchdog);
        }
        None
    }
}

/// Full configuration of a speculative run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Number of virtual processors.
    pub p: usize,
    /// Real threads or deterministic simulation.
    pub exec: ExecMode,
    /// Virtual cost parameters.
    pub cost: CostModel,
    /// Untested-array checkpoint policy.
    pub checkpoint: CheckpointPolicy,
    /// Rescheduling strategy.
    pub strategy: Strategy,
    /// Block-cutting policy.
    pub balance: BalancePolicy,
    /// Hard stage cap; a run past it reports
    /// [`RlrpdError::StageLimit`].
    pub max_stages: usize,
    /// Bounded-retry / sequential-fallback policy.
    pub fallback: FallbackPolicy,
    /// Statically-predicted first dependence sink (earliest iteration
    /// that can consume a cross-iteration value), supplied by the
    /// compiler's dependence analysis; recorded in the report for
    /// predicted-vs-observed comparison.
    pub predicted_first_dependence: Option<usize>,
    /// Per-run shadow-memory cap in bytes; `None` is unlimited. Every
    /// shadow allocation of the run (all processors, and every worker
    /// of a distributed fleet) is charged against this cap; crossing it
    /// triggers the degradation ladder, never an abort.
    pub shadow_budget: Option<u64>,
}

impl RunConfig {
    /// A sensible default configuration on `p` processors: simulated
    /// execution, adaptive redistribution by Eq. 4, on-demand
    /// checkpointing, even blocks.
    pub fn new(p: usize) -> Self {
        RunConfig {
            p,
            exec: ExecMode::Simulated,
            cost: CostModel::default(),
            checkpoint: CheckpointPolicy::OnDemand,
            strategy: Strategy::AdaptiveRd(AdaptRule::ModelEq4),
            balance: BalancePolicy::Even,
            max_stages: 100_000,
            fallback: FallbackPolicy::default(),
            predicted_first_dependence: None,
            shadow_budget: None,
        }
    }

    /// Replace the strategy.
    pub fn with_strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Replace the execution mode.
    pub fn with_exec(mut self, e: ExecMode) -> Self {
        self.exec = e;
        self
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Replace the checkpoint policy.
    pub fn with_checkpoint(mut self, c: CheckpointPolicy) -> Self {
        self.checkpoint = c;
        self
    }

    /// Replace the balance policy.
    pub fn with_balance(mut self, b: BalancePolicy) -> Self {
        self.balance = b;
        self
    }

    /// Replace the fallback policy.
    pub fn with_fallback(mut self, f: FallbackPolicy) -> Self {
        self.fallback = f;
        self
    }

    /// Record a statically-predicted first dependence sink (e.g. the
    /// minimum-distance sink from the compiler's GCD/Banerjee pass) for
    /// predicted-vs-observed comparison in the run report.
    pub fn with_dependence_prediction(mut self, first_sink: Option<usize>) -> Self {
        self.predicted_first_dependence = first_sink;
        self
    }

    /// Cap the run's total shadow-memory footprint at `bytes` (`None`
    /// is unlimited). Exhaustion degrades gracefully — representation
    /// down-tiering, window shrinking, sequential fallback — and never
    /// aborts.
    pub fn with_shadow_budget(mut self, bytes: Option<u64>) -> Self {
        self.shadow_budget = bytes;
        self
    }

    /// Consult the static classifier's verdict: with a *proven*
    /// distance vector the run is scheduled [`Strategy::Doacross`] (the
    /// analyzer acting as a scheduler, not a linter); with `None` —
    /// a `May` dependence, an opaque subscript, a guard, a non-uniform
    /// distance — the configured speculative strategy is kept. This is
    /// the top rung of the Doacross → R-LRPD → sequential degradation
    /// ladder (DESIGN.md §16).
    pub fn auto_strategy(mut self, proven: Option<DoacrossConfig>) -> Self {
        if let Some(d) = proven {
            self.strategy = Strategy::Doacross(d);
        }
        self
    }

    pub(crate) fn engine_cfg(&self) -> EngineCfg {
        EngineCfg {
            p: self.p,
            exec: self.exec,
            cost: self.cost,
            checkpoint: self.checkpoint,
            commit_prefix_on_failure: true,
            fault: None,
            budget: Arc::new(rlrpd_shadow::ShadowBudget::new(self.shadow_budget)),
        }
    }
}

/// Output of one speculative run.
#[derive(Clone, Debug)]
pub struct RunResult<T: Value> {
    /// Final contents of every declared array, in declaration order.
    pub arrays: Vec<(&'static str, Vec<T>)>,
    /// Stage series, restarts, overheads, speedup.
    pub report: RunReport,
    /// Every cross-processor arc detected over the run.
    pub arcs: Vec<DepArc>,
}

impl<T: Value> RunResult<T> {
    /// The final contents of the array named `name`.
    pub fn array(&self, name: &str) -> &[T] {
        &self
            .arrays
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no array named '{name}'"))
            .1
    }
}

/// What a run is attached to, beyond its loop and [`RunConfig`]: three
/// attachments, every combination of which [`Runner::execute`] accepts
/// except those [`RunPlan::validate`] names. The default plan is a
/// plain in-process run.
#[derive(Default)]
pub struct RunPlan<'a> {
    /// Record every stage commit in this journal, write-ahead: records
    /// reach the file in commit order, each is counted and observed only
    /// once an `fdatasync` covers it, and the run returns only when all
    /// are durable — so after a crash at any moment the journal holds a
    /// consistent run prefix, at most a few stages short of where the
    /// run had got to ([`crate::journal`]). Must be freshly created
    /// unless `resume` is set.
    pub journal: Option<&'a mut Journal>,
    /// Dispatch every stage's blocks to the worker fleet this connector
    /// launches; the `&str` is a loop spec the workers can resolve to
    /// the *same* loop. A lost fleet — workers dead, hung or divergent
    /// beyond the connector's respawn budget, or a fleet that never
    /// launched — is **never** an error: the run degrades to the
    /// in-process pooled path mid-stage without losing committed work
    /// (blocks are idempotent over the committed prefix) and records
    /// [`FallbackReason::WorkerLoss`]. With a journal as well, wire and
    /// disk carry byte-identical commit records.
    pub fleet: Option<(&'a str, &'a mut dyn DistConnector)>,
    /// Continue the interrupted run `journal` holds instead of starting
    /// one: validate its header against this configuration, replay the
    /// committed deltas to rebuild the shared arrays exactly as they
    /// stood at the last durable commit point, and speculate on from
    /// that frontier (appending to the same journal; a fleet is first
    /// brought up to the frontier with one full-state broadcast). A
    /// journal whose last record already completes the run returns the
    /// final arrays without executing anything.
    ///
    /// The checkpoint policy is *not* part of the journal's identity: a
    /// run recorded under [`CheckpointPolicy::Eager`] resumes under
    /// [`CheckpointPolicy::OnDemand`] and vice versa (commit deltas are
    /// policy-independent). Everything else — loop shape, array layout,
    /// element type, strategy, processor count — must match, or the
    /// resume is rejected with [`JournalError::Mismatch`] naming the
    /// field.
    pub resume: bool,
}

impl RunPlan<'_> {
    /// The one definition of a legal run: may this plan run under `cfg`
    /// with the runner's fault plan `fault`? [`Runner::execute`] asks
    /// before it builds an engine, asks a connector to connect or writes
    /// a journal byte, so no caller can skip the question; the CLI and
    /// the daemon's admission ask it earlier only to refuse sooner.
    ///
    /// A journal never makes a plan illegal; its absence refuses a
    /// resume and a fault plan that arms journal-record sites. So a
    /// caller whose plan is neither may validate it before it has opened
    /// its journal (`rlrpd run` and the daemon's admission do: nothing
    /// they accept arms a record site).
    ///
    /// A fault site the run would never visit is refused, not left to
    /// silently never fire: [`FaultPlan::arms`] against what this plan
    /// attaches.
    pub fn validate(&self, cfg: &RunConfig, fault: Option<&FaultPlan>) -> Result<(), PlanError> {
        if cfg.p == 0 {
            return Err(PlanError::NoProcessors);
        }
        if self.resume && self.journal.is_none() {
            return Err(PlanError::ResumeWithoutJournal);
        }
        let arms = |domain| fault.is_some_and(|f| f.arms(domain));
        if matches!(cfg.strategy, Strategy::Doacross(_)) {
            if self.fleet.is_some() {
                return Err(PlanError::DoacrossOverFleet);
            }
            // The pipeline runs every iteration once, directly: it has
            // no stage for a shadow-pressure site and no rollback for a
            // panic site, so either would silently never fire. Its
            // journal does visit every record site.
            if arms(FaultDomain::Iteration) || arms(FaultDomain::Stage) {
                return Err(PlanError::DoacrossWithFaults);
            }
        }
        // A fleet's workers run their blocks with no plan
        // (`remote::run_blocks_local(…, None, …)`): an iteration site
        // would be announced and never fire.
        if self.fleet.is_some() && arms(FaultDomain::Iteration) {
            return Err(PlanError::FleetWithIterationFaults);
        }
        if self.journal.is_none() && arms(FaultDomain::Record) {
            return Err(PlanError::RecordFaultsWithoutJournal);
        }
        Ok(())
    }
}

/// A stateful runner: carries feedback-guided balancing history and the
/// program-lifetime PR accumulator across loop instantiations.
#[derive(Debug)]
pub struct Runner {
    cfg: RunConfig,
    partitioner: FeedbackPartitioner,
    fault: Option<Arc<FaultPlan>>,
    stop: Option<Arc<AtomicBool>>,
    /// Parallelism-ratio accumulator over all runs of this runner.
    pub pr: PrAccumulator,
}

impl Runner {
    /// A runner with the given configuration.
    pub fn new(cfg: RunConfig) -> Self {
        let partitioner = match cfg.balance {
            BalancePolicy::FeedbackTrend => FeedbackPartitioner::with_trend(TrendMode::Linear),
            _ => FeedbackPartitioner::new(),
        };
        Runner {
            cfg,
            partitioner,
            fault: None,
            stop: None,
            pr: PrAccumulator::default(),
        }
    }

    /// Inject a deterministic fault plan into every run of this runner
    /// (testing and resilience benchmarks).
    pub fn with_fault(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Wire a cooperative stop flag into every run of this runner: when
    /// the flag becomes true the stage loop finishes the in-flight
    /// stage, makes its commit durable, and returns with
    /// [`RunReport::stopped_at`] holding the commit frontier instead of
    /// executing further stages. The run is *paused*, not failed — a
    /// journaled run resumes from the frontier ([`RunPlan::resume`]).
    /// The daemon's graceful drain (SIGTERM) is built on this.
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Execute one instantiation of `lp` speculatively, attached to
    /// whatever `plan` names.
    ///
    /// Contained faults, watchdog trips, exhausted restart budgets,
    /// checkpoint faults and a lost fleet are all recovered internally
    /// (by rollback and, if the [`FallbackPolicy`] demands it,
    /// sequential execution of the remainder) and reported on the
    /// [`RunReport`]. An `Err` means the plan was refused before anything
    /// ran ([`RlrpdError::Plan`], see [`RunPlan::validate`]), the loop
    /// itself is faulty ([`RlrpdError::ProgramFault`]), the run hit its
    /// hard stage cap, or the journal failed: [`JournalError::NotEmpty`]
    /// for a fresh run over a used journal, [`JournalError::NoHeader`]
    /// for a resume with nothing to resume, [`JournalError::Mismatch`]
    /// for a journal of some other run, or the I/O error of an append.
    pub fn execute<T: Value + JournalElem>(
        &mut self,
        lp: &dyn SpecLoop<T>,
        plan: RunPlan<'_>,
    ) -> Result<RunResult<T>, RlrpdError> {
        self.run_plan(lp, plan, Some(ElemBits::of()))
    }

    /// [`Runner::execute`] with nothing attached — for element types
    /// that have no journal image.
    pub fn try_run<T: Value>(&mut self, lp: &dyn SpecLoop<T>) -> Result<RunResult<T>, RlrpdError> {
        self.run_plan(lp, RunPlan::default(), None)
    }

    /// [`Runner::try_run`], panicking on an unrecoverable fault.
    pub fn run<T: Value>(&mut self, lp: &dyn SpecLoop<T>) -> RunResult<T> {
        self.try_run(lp)
            .unwrap_or_else(|e| panic!("speculative run failed: {e}"))
    }

    /// [`Runner::execute`] with a fresh `journal`.
    pub fn try_run_journaled<T: Value + JournalElem>(
        &mut self,
        lp: &dyn SpecLoop<T>,
        journal: &mut Journal,
    ) -> Result<RunResult<T>, RlrpdError> {
        self.execute(
            lp,
            RunPlan {
                journal: Some(journal),
                ..Default::default()
            },
        )
    }

    /// [`Runner::execute`] resuming the run `journal` holds.
    pub fn resume<T: Value + JournalElem>(
        &mut self,
        lp: &dyn SpecLoop<T>,
        journal: &mut Journal,
    ) -> Result<RunResult<T>, RlrpdError> {
        self.execute(
            lp,
            RunPlan {
                journal: Some(journal),
                resume: true,
                ..Default::default()
            },
        )
    }

    /// [`Runner::execute`] over a fleet with a fresh `journal`.
    pub fn try_run_distributed_journaled<T: Value + JournalElem>(
        &mut self,
        lp: &dyn SpecLoop<T>,
        spec: &str,
        connector: &mut dyn DistConnector,
        journal: &mut Journal,
    ) -> Result<RunResult<T>, RlrpdError> {
        self.execute(
            lp,
            RunPlan {
                journal: Some(journal),
                fleet: Some((spec, connector)),
                resume: false,
            },
        )
    }

    /// The one run body: validate the plan, build the engine, bring
    /// journal and fleet to the run's starting point, run the stages (or
    /// the DOACROSS pipeline), fold the outcome into a [`RunResult`].
    ///
    /// `elem` is `None` only from [`Runner::try_run`], whose `T` has no
    /// journal image and whose plan is therefore empty.
    fn run_plan<T: Value>(
        &mut self,
        lp: &dyn SpecLoop<T>,
        plan: RunPlan<'_>,
        elem: Option<ElemBits<T>>,
    ) -> Result<RunResult<T>, RlrpdError> {
        plan.validate(&self.cfg, self.fault.as_deref())?;
        let RunPlan {
            mut journal,
            fleet,
            resume,
        } = plan;
        let mut ecfg = self.cfg.engine_cfg();
        ecfg.fault = self.fault.clone();
        let mut engine = Engine::new(lp, ecfg, false);
        // The per-iteration timing record (paper §5.1) is kept for the
        // policies that cut the next run's blocks from it, and for no
        // other run.
        if matches!(
            self.cfg.balance,
            BalancePolicy::FeedbackGuided | BalancePolicy::FeedbackTrend
        ) {
            engine.iter_times = Some(vec![0.0; engine.n]);
        }

        // First uncommitted iteration, and — when the journal being
        // resumed already holds the whole run — that run's report.
        let mut start = 0usize;
        let mut complete: Option<RunReport> = None;
        // The journal this run appends to, header written.
        let mut attached = None;
        if let Some(elem) = elem {
            // The journal's records and the fleet's mirror are both
            // built from the stages' commit deltas.
            if journal.is_some() || fleet.is_some() {
                engine.delta_bits = Some(elem.to_bits);
            }
            let header = JournalHeader {
                n: engine.n,
                p: self.cfg.p,
                strategy_hash: journal::strategy_fingerprint(&self.cfg.strategy, self.cfg.p),
                elem_hash: elem.hash,
                arrays: engine.layout(),
            };
            if resume {
                let journal = journal
                    .as_deref()
                    .expect("validated: a resume has a journal");
                let recorded = journal.header().ok_or(JournalError::NoHeader)?;
                if *recorded != header {
                    let message = header.mismatch(recorded);
                    return Err(JournalError::Mismatch { message }.into());
                }
                // Replay every committed delta over the initial arrays:
                // shared state becomes exactly the state at the
                // recovered frontier (post-stage state = pre-stage
                // state + delta, inductively). `Journal::open` vouched
                // for each record's bytes and place in the chain, not
                // for what it says: a record that moves the frontier
                // backwards or past the loop, or names storage the
                // header's layout does not have, is not this run's.
                let mut exited = None;
                let mut fell_back = false;
                for (k, rec) in journal.commits().iter().enumerate() {
                    let bad = |why: String| JournalError::Mismatch {
                        message: format!("commit record {k} {why}"),
                    };
                    if !(start..=engine.n).contains(&rec.frontier) {
                        return Err(bad(format!(
                            "moves the frontier from {start} to {} of {} iterations",
                            rec.frontier, engine.n
                        ))
                        .into());
                    }
                    rec.apply(&mut engine.shared, elem.from_bits).map_err(bad)?;
                    start = rec.frontier;
                    exited = rec.exited_at;
                    fell_back = fell_back || rec.fallback;
                }
                engine.stage_ordinal = journal.commits().len();
                engine.commits = journal.commits().len();
                if fell_back || exited.is_some() || start >= engine.n {
                    complete = Some(RunReport {
                        sequential_work: engine.sequential_work(),
                        exited_at: exited,
                        ..Default::default()
                    });
                }
            } else if journal.as_deref().is_some_and(|j| !j.is_empty()) {
                return Err(JournalError::NotEmpty.into());
            }
            if complete.is_none() {
                if let Some((spec, connector)) = fleet {
                    remote::attach_remote(&mut engine, &header, spec, connector, elem);
                    if resume {
                        // One synthetic record carries the replayed
                        // state to the fleet (the wire chain restarts
                        // at the hello; it need not match the on-disk
                        // chain of the pre-crash records).
                        // Not one of the journal's records: the
                        // record count does not move.
                        if let Some(state) = engine.full_state_delta() {
                            engine.broadcast_commit(&CommitRecord {
                                stage: engine.commits,
                                frontier: start,
                                exited_at: None,
                                fallback: false,
                                arrays: state.arrays,
                            });
                        }
                    }
                }
                if let Some(journal) = journal.take() {
                    journal.set_fault(self.fault.clone());
                    if !resume {
                        journal.append_header(&header).map_err(RlrpdError::from)?;
                    }
                    attached = Some(journal);
                }
            }
        }

        let (cfg, partitioner, stop) = (&self.cfg, &self.partitioner, self.stop.as_deref());
        let mut drive = |sink: &mut Option<JournalSink>| match cfg.strategy {
            Strategy::Doacross(dcfg) => {
                crate::doacross::run_doacross(&mut engine, cfg, dcfg, start, sink, stop)
            }
            _ => run_stages(&mut engine, cfg, partitioner, start, sink, stop, |_| {}),
        };
        let (mut report, arcs) = match (complete, attached) {
            (Some(report), _) => (report, Vec::new()),
            (None, None) => drive(&mut None)?,
            // A journaled run has one more thread: the journal's
            // writer, committing in groups behind the stage loop.
            (None, Some(journal)) => {
                journal::write_behind(journal, |sink| drive(&mut Some(sink)))??
            }
        };
        if resume {
            report.resumed_at = Some(start);
        }
        remote::release_remote(&mut engine, &mut report);
        let result = self.finish(engine, report, arcs);
        self.pr.add(&result.report);
        Ok(result)
    }

    fn finish<T: Value>(
        &mut self,
        mut engine: Engine<'_, T>,
        mut report: RunReport,
        arcs: Vec<DepArc>,
    ) -> RunResult<T> {
        report.sum_wall_seconds();
        report.predicted_first_dependence = self.cfg.predicted_first_dependence;
        report.shadow_budget = self.cfg.shadow_budget;
        report.shadow_reprs = engine
            .tested_ids
            .iter()
            .zip(&engine.tested_shadow)
            .map(|(&id, kind)| {
                (
                    engine.meta[id].name.to_string(),
                    kind.to_choice().describe().to_string(),
                )
            })
            .collect();
        if let Some(iter_times) = engine.iter_times.take() {
            self.partitioner.record(iter_times);
        }
        RunResult {
            arrays: engine.arrays_out(),
            report,
            arcs,
        }
    }
}

/// One-shot convenience: run `lp` once under `cfg`.
pub fn run_speculative<T: Value>(lp: &dyn SpecLoop<T>, cfg: RunConfig) -> RunResult<T> {
    Runner::new(cfg).run(lp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, ArrayId, ShadowKind};
    use crate::spec_loop::ClosureLoop;
    use rlrpd_runtime::{OverheadKind, StageStats};

    const A: ArrayId = ArrayId(0);

    /// A geometric chain: sinks at n(1 - 2^-j), each reading its
    /// predecessor.
    fn alpha_half(n: usize) -> ClosureLoop {
        ClosureLoop::new(
            n,
            move || vec![ArrayDecl::tested("A", vec![0.0; 4096], ShadowKind::Dense)],
            move |i, ctx| {
                let mut frac = 1.0f64;
                let mut is_sink = false;
                loop {
                    frac *= 0.5;
                    let s = ((n as f64) * (1.0 - frac)).ceil() as usize;
                    if s == 0 || s >= n {
                        break;
                    }
                    if s == i {
                        is_sink = true;
                        break;
                    }
                }
                let v = if is_sink && i > 0 {
                    ctx.read(A, i - 1)
                } else {
                    0.0
                };
                ctx.write(A, i, v + i as f64);
            },
        )
    }

    #[test]
    fn config_builders_compose() {
        let cfg = RunConfig::new(4)
            .with_strategy(Strategy::Rd)
            .with_exec(ExecMode::Pooled)
            .with_checkpoint(CheckpointPolicy::Eager)
            .with_balance(BalancePolicy::FeedbackTrend)
            .with_cost(CostModel::work_only(3.0));
        assert_eq!(cfg.p, 4);
        assert_eq!(cfg.strategy, Strategy::Rd);
        assert_eq!(cfg.exec, ExecMode::Pooled);
        assert_eq!(cfg.checkpoint, CheckpointPolicy::Eager);
        assert_eq!(cfg.balance, BalancePolicy::FeedbackTrend);
        assert_eq!(cfg.cost.omega, 3.0);
    }

    #[test]
    fn strategies_parse_from_the_cli_syntax() {
        assert_eq!("nrd".parse(), Ok(Strategy::Nrd));
        assert_eq!("rd".parse(), Ok(Strategy::Rd));
        assert_eq!(
            "adaptive".parse(),
            Ok(Strategy::AdaptiveRd(AdaptRule::Measured))
        );
        assert_eq!(
            "sw:17".parse(),
            Ok(Strategy::SlidingWindow(WindowConfig::fixed(17)))
        );
        assert_eq!(
            "magic".parse::<Strategy>(),
            Err("unknown strategy 'magic'".to_string())
        );
        // `sw:0` is refused like any other non-window, not coerced to
        // `sw:1` (the same schedule under another journal fingerprint).
        for bad in ["sw:none", "sw:0", "sw:-1"] {
            assert_eq!(
                bad.parse::<Strategy>(),
                Err(format!(
                    "bad window size in '{bad}': expected an integer ≥ 1"
                ))
            );
        }
    }

    #[test]
    fn eq4_adaptive_redistributes_then_stops() {
        // ω ≫ s: redistribution pays until the remainder shrinks below
        // p·s/(ω − ℓ); witness the switch through the per-stage
        // Redistribution overhead.
        let lp = alpha_half(1024);
        let cost = CostModel {
            omega: 10.0,
            ell: 1.0,
            sync: 200.0, // cutoff = 8·200/9 ≈ 178 iterations
            ..CostModel::work_only(10.0)
        };
        let res = run_speculative(
            &lp,
            RunConfig::new(8)
                .with_strategy(Strategy::AdaptiveRd(AdaptRule::ModelEq4))
                .with_cost(cost),
        );
        let redist: Vec<bool> = res
            .report
            .stages
            .iter()
            .map(|s| s.overhead.get(OverheadKind::Redistribution) > 0.0)
            .collect();
        assert!(!redist[0], "initial stage never redistributes");
        assert!(redist.iter().any(|&r| r), "early restarts redistribute");
        assert!(!redist.last().unwrap(), "late restarts stop redistributing");
        // Once it stops, it never resumes (remaining only shrinks).
        let first_off = redist.iter().skip(1).position(|&r| !r).unwrap() + 1;
        assert!(redist[first_off..].iter().all(|&r| !r));
    }

    #[test]
    fn measured_adaptive_reacts_to_overhead_dominance() {
        // With enormous per-stage sync relative to work, the measured
        // rule (loop time > overhead) must refuse to redistribute after
        // the first failure.
        let lp = alpha_half(256);
        let cost = CostModel {
            omega: 1.0,
            ell: 0.5,
            sync: 1e6,
            ..CostModel::work_only(1.0)
        };
        let res = run_speculative(
            &lp,
            RunConfig::new(8)
                .with_strategy(Strategy::AdaptiveRd(AdaptRule::Measured))
                .with_cost(cost),
        );
        for (k, s) in res.report.stages.iter().enumerate() {
            assert_eq!(
                s.overhead.get(OverheadKind::Redistribution),
                0.0,
                "stage {k} must not redistribute when overhead dominates"
            );
        }
    }

    #[test]
    fn one_shot_helper_equals_fresh_runner() {
        let lp = alpha_half(128);
        let a = run_speculative(&lp, RunConfig::new(4));
        let b = Runner::new(RunConfig::new(4)).run(&lp);
        assert_eq!(a.arrays, b.arrays);
        assert_eq!(a.report.stages.len(), b.report.stages.len());
    }

    #[test]
    fn run_result_array_lookup_panics_on_unknown_name() {
        let lp = alpha_half(16);
        let res = run_speculative(&lp, RunConfig::new(2));
        assert!(std::panic::catch_unwind(|| res.array("NOPE")).is_err());
    }

    /// The stage loop's running total decides as the sum over the
    /// report's stages did, stage after stage — including a bound that
    /// one prefix of the series meets exactly (not over it: no fallback
    /// yet) and the next exceeds.
    #[test]
    fn the_watchdog_decides_on_the_running_total_as_on_the_report() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x5741_5443);
        for _ in 0..300 {
            let stages: Vec<StageStats> = (0..rng.random_range(1..80))
                .map(|_| {
                    let mut s = StageStats {
                        loop_time: rng.random_range(0.0..500.0),
                        ..Default::default()
                    };
                    s.overhead
                        .add(OverheadKind::Sync, rng.random_range(0.0..40.0));
                    s
                })
                .collect();
            let at = rng.random_range(0..stages.len());
            let exact: f64 = stages[..=at].iter().map(StageStats::virtual_time).sum();
            let work = rng.random_range(1.0..5000.0);
            for (factor, work) in [(exact, 1.0), (rng.random_range(0.0..3.0), work)] {
                let policy = FallbackPolicy::default().with_watchdog(factor);
                let mut report = RunReport {
                    sequential_work: work,
                    ..Default::default()
                };
                let mut virtual_time = 0.0;
                for (k, stage) in stages.iter().enumerate() {
                    virtual_time += stage.virtual_time();
                    report.stages.push(stage.clone());
                    assert_eq!(virtual_time, report.virtual_time());
                    let tripped = report.virtual_time() > factor * report.sequential_work;
                    let decided = policy.check(&report, virtual_time);
                    assert_eq!(decided, tripped.then_some(FallbackReason::Watchdog));
                    if factor == exact && work == 1.0 && k == at {
                        assert_eq!(decided, None, "at the bound is not over it");
                    }
                }
            }
        }
    }
}
