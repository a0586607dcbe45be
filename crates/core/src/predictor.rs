//! History-based strategy prediction.
//!
//! The paper leaves strategy selection open: *"So far we have not
//! devised a strategy to choose between the two techniques except
//! through the use of history based predictions"*, and likewise for the
//! window size: *"this size can be adapted based on previous loop
//! instantiations."* This module implements exactly that mechanism for
//! loops that are instantiated many times (the normal case for the
//! paper's codes — TRACK and SPICE call their hot loops once per time
//! step / Newton iteration):
//!
//! * an **exploration phase** cycles through a candidate set
//!   (NRD, adaptive RD, and a few sliding-window sizes), measuring each
//!   candidate's *normalized time* (virtual time / useful work — i.e.
//!   the inverse speedup, which is comparable across instantiations of
//!   different sizes);
//! * an **exploitation phase** replays the best candidate, with
//!   periodic re-exploration so drifting dependence structure (input
//!   changes between instantiations) is eventually noticed.

use crate::driver::{AdaptRule, RunConfig, RunResult, Runner, Strategy};
use crate::report::RunReport;
use crate::spec_loop::SpecLoop;
use crate::value::Value;
use crate::window::WindowConfig;

/// Exponentially smoothed per-candidate quality record.
#[derive(Clone, Debug)]
struct Score {
    strategy: Strategy,
    /// Smoothed normalized time (lower is better); `None` until tried.
    norm_time: Option<f64>,
    trials: u32,
}

/// Chooses the strategy for each instantiation of a loop from the
/// measured history of previous instantiations.
#[derive(Debug)]
pub struct StrategyPredictor {
    scores: Vec<Score>,
    /// Instantiations seen so far.
    round: u64,
    /// Re-explore one candidate every this many exploitation rounds.
    reexplore_every: u64,
    /// Smoothing factor for the normalized-time average.
    smoothing: f64,
}

impl StrategyPredictor {
    /// A predictor over the default candidate set: NRD, measured
    /// adaptive redistribution, and sliding windows of 16/64/256
    /// iterations per processor.
    pub fn new() -> Self {
        Self::with_candidates(vec![
            Strategy::Nrd,
            Strategy::AdaptiveRd(AdaptRule::Measured),
            Strategy::SlidingWindow(WindowConfig::fixed(16)),
            Strategy::SlidingWindow(WindowConfig::fixed(64)),
            Strategy::SlidingWindow(WindowConfig::fixed(256)),
        ])
    }

    /// A predictor over an explicit candidate set.
    ///
    /// # Panics
    /// Panics on an empty candidate set.
    pub fn with_candidates(candidates: Vec<Strategy>) -> Self {
        assert!(
            !candidates.is_empty(),
            "need at least one candidate strategy"
        );
        StrategyPredictor {
            scores: candidates
                .into_iter()
                .map(|strategy| Score {
                    strategy,
                    norm_time: None,
                    trials: 0,
                })
                .collect(),
            round: 0,
            reexplore_every: 16,
            smoothing: 0.5,
        }
    }

    /// The strategy to use for the next instantiation.
    pub fn next_strategy(&self) -> Strategy {
        // Exploration: any untried candidate goes first.
        if let Some(s) = self.scores.iter().find(|s| s.norm_time.is_none()) {
            return s.strategy;
        }
        // Periodic re-exploration of the stalest candidate.
        if self.round % self.reexplore_every == self.reexplore_every - 1 {
            if let Some(s) = self.scores.iter().min_by_key(|s| s.trials) {
                return s.strategy;
            }
        }
        self.best()
    }

    /// The best candidate seen so far (ties break toward earlier
    /// candidates; untried candidates are never "best").
    pub fn best(&self) -> Strategy {
        self.scores
            .iter()
            .filter_map(|s| s.norm_time.map(|t| (t, s.strategy)))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, s)| s)
            .unwrap_or(self.scores[0].strategy)
    }

    /// Record the outcome of an instantiation run under `strategy`.
    pub fn observe(&mut self, strategy: Strategy, report: &RunReport) {
        self.round += 1;
        let norm = if report.sequential_work > 0.0 {
            report.virtual_time() / report.sequential_work
        } else {
            1.0
        };
        if let Some(s) = self.scores.iter_mut().find(|s| s.strategy == strategy) {
            s.trials += 1;
            s.norm_time = Some(match s.norm_time {
                None => norm,
                Some(old) => old * (1.0 - self.smoothing) + norm * self.smoothing,
            });
        }
    }

    /// `(strategy, smoothed normalized time, trials)` per candidate.
    pub fn scores(&self) -> Vec<(Strategy, Option<f64>, u32)> {
        self.scores
            .iter()
            .map(|s| (s.strategy, s.norm_time, s.trials))
            .collect()
    }
}

impl Default for StrategyPredictor {
    fn default() -> Self {
        Self::new()
    }
}

/// A [`Runner`] that picks its strategy per instantiation from measured
/// history.
#[derive(Debug)]
pub struct PredictiveRunner {
    base_cfg: RunConfig,
    predictor: StrategyPredictor,
    runner: Runner,
}

impl PredictiveRunner {
    /// Wrap `cfg` (whose `strategy` field becomes the fallback/first
    /// candidate context) with the default predictor.
    pub fn new(cfg: RunConfig) -> Self {
        PredictiveRunner {
            base_cfg: cfg,
            predictor: StrategyPredictor::new(),
            runner: Runner::new(cfg),
        }
    }

    /// Replace the candidate set.
    pub fn with_candidates(mut self, candidates: Vec<Strategy>) -> Self {
        self.predictor = StrategyPredictor::with_candidates(candidates);
        self
    }

    /// Run one instantiation under the predicted strategy.
    pub fn run<T: Value>(&mut self, lp: &dyn SpecLoop<T>) -> RunResult<T> {
        let strategy = self.predictor.next_strategy();
        // Rebuild the runner when the strategy changes, preserving the
        // PR accumulator (feedback-balancing history is schedule-shape
        // specific and resets with the strategy).
        if self.runner.config().strategy != strategy {
            let pr = self.runner.pr;
            self.runner = Runner::new(self.base_cfg.with_strategy(strategy));
            self.runner.pr = pr;
        }
        let result = self.runner.run(lp);
        self.predictor.observe(strategy, &result.report);
        result
    }

    /// The underlying predictor (scores, best strategy).
    pub fn predictor(&self) -> &StrategyPredictor {
        &self.predictor
    }

    /// Program-lifetime parallelism ratio across all instantiations.
    pub fn pr(&self) -> f64 {
        self.runner.pr.pr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlrpd_runtime::StageStats;

    fn report(virtual_time: f64, work: f64) -> RunReport {
        RunReport {
            stages: vec![StageStats {
                loop_time: virtual_time,
                ..Default::default()
            }],
            restarts: 0,
            sequential_work: work,
            ..Default::default()
        }
    }

    #[test]
    fn explores_every_candidate_before_exploiting() {
        let candidates = vec![Strategy::Nrd, Strategy::Rd];
        let mut p = StrategyPredictor::with_candidates(candidates.clone());
        let first = p.next_strategy();
        assert_eq!(first, Strategy::Nrd);
        p.observe(first, &report(10.0, 10.0));
        let second = p.next_strategy();
        assert_eq!(second, Strategy::Rd);
    }

    #[test]
    fn exploits_the_fastest_candidate() {
        let mut p = StrategyPredictor::with_candidates(vec![Strategy::Nrd, Strategy::Rd]);
        p.observe(Strategy::Nrd, &report(20.0, 10.0)); // 2.0 normalized
        p.observe(Strategy::Rd, &report(5.0, 10.0)); // 0.5 normalized
        assert_eq!(p.best(), Strategy::Rd);
        assert_eq!(p.next_strategy(), Strategy::Rd);
    }

    #[test]
    fn smoothing_adapts_to_drift() {
        let mut p = StrategyPredictor::with_candidates(vec![Strategy::Nrd, Strategy::Rd]);
        p.observe(Strategy::Nrd, &report(5.0, 10.0));
        p.observe(Strategy::Rd, &report(8.0, 10.0));
        assert_eq!(p.best(), Strategy::Nrd);
        // The loop's structure drifts: NRD becomes terrible.
        for _ in 0..5 {
            p.observe(Strategy::Nrd, &report(40.0, 10.0));
        }
        assert_eq!(p.best(), Strategy::Rd);
    }

    #[test]
    fn periodically_reexplores() {
        let mut p = StrategyPredictor::with_candidates(vec![Strategy::Nrd, Strategy::Rd]);
        p.observe(Strategy::Nrd, &report(5.0, 10.0));
        p.observe(Strategy::Rd, &report(50.0, 10.0));
        // Drive rounds forward by observing the exploited strategy.
        let mut explored_loser = false;
        for _ in 0..40 {
            let s = p.next_strategy();
            if s == Strategy::Rd {
                explored_loser = true;
            }
            p.observe(
                s,
                &report(if s == Strategy::Nrd { 5.0 } else { 50.0 }, 10.0),
            );
        }
        assert!(
            explored_loser,
            "the losing candidate must be retried eventually"
        );
    }

    #[test]
    fn predictive_runner_converges_on_a_partially_parallel_loop() {
        use crate::driver::RunConfig;
        // A loop whose best candidate is clearly NRD-or-window — just
        // assert the predictor settles and results stay correct.
        let lp = crate::spec_loop::ClosureLoop::new(
            256,
            || {
                vec![crate::array::ArrayDecl::tested(
                    "A",
                    vec![0.0; 256],
                    crate::array::ShadowKind::Dense,
                )]
            },
            |i, ctx| {
                let a = crate::array::ArrayId(0);
                let v = if i % 37 == 0 && i > 0 {
                    ctx.read(a, i - 5)
                } else {
                    0.0
                };
                ctx.write(a, i, v + i as f64);
            },
        );
        let (seq, _) = crate::engine::run_sequential(&lp);
        let mut runner = PredictiveRunner::new(RunConfig::new(4));
        for _ in 0..12 {
            let res = runner.run(&lp);
            assert_eq!(res.array("A"), &seq[0].1[..]);
        }
        let scores = runner.predictor().scores();
        assert!(
            scores.iter().all(|(_, t, _)| t.is_some()),
            "all candidates tried"
        );
    }
}
