//! Discrete per-stage simulation of the R-LRPD test under the three
//! redistribution policies of the paper's Fig. 4 experiment.
//!
//! The paper validates the Section-4 model with a synthetic geometric
//! loop (`α = 1/2`) on 8 processors, comparing *never* (NRD), *adaptive*
//! and *always* redistribution, and reporting (a) a per-stage breakdown
//! of loop time vs. overhead and (b) cumulative times per stage. This
//! module reproduces that series from the model alone; the `fig04`
//! bench runs the same configuration through the real engine and checks
//! the shapes agree.

use crate::formulas::redistribution_pays;
use crate::params::ModelParams;

/// When to redistribute remaining iterations over all processors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RedistPolicy {
    /// NRD: failed processors re-run their own blocks, others idle.
    Never,
    /// Redistribute while Eq. 4 predicts a win, then stop.
    Adaptive,
    /// Redistribute before every restart.
    Always,
}

/// One simulated stage of the speculative execution.
#[derive(Clone, Debug, PartialEq)]
pub struct StageRecord {
    /// Stage index (0 = initial speculative run).
    pub stage: usize,
    /// Iterations remaining at stage start.
    pub remaining: usize,
    /// Whether this stage redistributed the remaining work.
    pub redistributed: bool,
    /// Parallel loop time of the stage (critical path).
    pub loop_time: f64,
    /// Redistribution overhead (remote misses + data movement).
    pub redist_overhead: f64,
    /// Synchronization overhead (barrier).
    pub sync_overhead: f64,
}

impl StageRecord {
    /// Total virtual time of the stage.
    pub fn total(&self) -> f64 {
        self.loop_time + self.redist_overhead + self.sync_overhead
    }
}

/// Simulate a geometric (α) loop stage by stage under `policy`.
///
/// Semantics, mirroring the paper's synthetic experiment:
///
/// * the initial stage executes all `n` iterations in blocks of `n/p`
///   and pays no redistribution;
/// * after each failed stage a fraction `α` of the remaining iterations
///   must re-execute;
/// * a redistributing restart re-blocks the `n_i` survivors over all
///   `p` processors (loop time `n_i·ω/p`, redistribution `n_i·ℓ/p`);
/// * a non-redistributing restart keeps the original block size, so its
///   loop time stays `n/p·ω` — constant per stage, the paper's stated
///   NRD disadvantage — until the remainder fits a single block;
/// * once the remaining work sits on one processor it completes (the
///   first processor always executes correctly).
pub fn simulate_stages(m: &ModelParams, alpha: f64, policy: RedistPolicy) -> Vec<StageRecord> {
    assert!((0.0..1.0).contains(&alpha));
    let p = m.p as f64;
    let original_block = (m.n as f64 / p).ceil();
    let mut records = Vec::new();
    let mut remaining = m.n;
    let mut stage = 0usize;

    while remaining > 0 {
        let redistributed = stage > 0
            && match policy {
                RedistPolicy::Never => false,
                RedistPolicy::Always => true,
                RedistPolicy::Adaptive => redistribution_pays(m, remaining),
            };
        // Block size this stage: redistribution re-blocks evenly; NRD
        // keeps the original block size.
        let block = if redistributed || stage == 0 {
            (remaining as f64 / p).ceil()
        } else {
            original_block.min(remaining as f64)
        };
        let loop_time = block * m.omega;
        let redist_overhead = if redistributed {
            remaining as f64 * m.ell / p
        } else {
            0.0
        };
        records.push(StageRecord {
            stage,
            remaining,
            redistributed,
            loop_time,
            redist_overhead,
            sync_overhead: m.sync,
        });

        // The work that survives to the next stage.
        let spans_one_block = remaining as f64 <= block + 0.5;
        remaining = if spans_one_block {
            0 // a single block always completes correctly
        } else {
            (remaining as f64 * alpha).floor() as usize
        };
        stage += 1;
        assert!(stage < 10_000, "stage simulation diverged");
    }
    records
}

/// Simulate a linear (β) loop stage by stage under `policy`: a
/// constant fraction `1 − β` of the *original* iterations completes
/// per stage — i.e. a constant number of processors succeeds each
/// time. The paper notes the redistribution analysis of this class is
/// less interesting ("the number of iterations each processor is
/// assigned varies"), but the NRD behaviour — `k_s = 1/(1 − β)` equal
/// stages — is exactly checkable.
pub fn simulate_stages_linear(
    m: &ModelParams,
    beta: f64,
    policy: RedistPolicy,
) -> Vec<StageRecord> {
    assert!((0.0..1.0).contains(&beta));
    let p = m.p as f64;
    let original_block = (m.n as f64 / p).ceil();
    let step = (((1.0 - beta) * m.n as f64).ceil() as usize).max(1);
    let mut records = Vec::new();
    let mut remaining = m.n;
    let mut stage = 0usize;

    while remaining > 0 {
        let redistributed = stage > 0
            && match policy {
                RedistPolicy::Never => false,
                RedistPolicy::Always => true,
                RedistPolicy::Adaptive => redistribution_pays(m, remaining),
            };
        let block = if redistributed || stage == 0 {
            (remaining as f64 / p).ceil()
        } else {
            original_block.min(remaining as f64)
        };
        records.push(StageRecord {
            stage,
            remaining,
            redistributed,
            loop_time: block * m.omega,
            redist_overhead: if redistributed {
                remaining as f64 * m.ell / p
            } else {
                0.0
            },
            sync_overhead: m.sync,
        });
        remaining = remaining.saturating_sub(step);
        stage += 1;
        assert!(stage < 1_000_000, "linear stage simulation diverged");
    }
    records
}

/// Cumulative totals after each stage (the paper's Fig. 4(b) series).
pub fn cumulative(records: &[StageRecord]) -> Vec<f64> {
    let mut acc = 0.0;
    records
        .iter()
        .map(|r| {
            acc += r.total();
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig4_params() -> ModelParams {
        // ω ≫ ℓ + s so redistribution initially pays, as in the paper.
        ModelParams {
            n: 4096,
            p: 8,
            omega: 100.0,
            ell: 10.0,
            sync: 50.0,
        }
    }

    #[test]
    fn never_policy_has_constant_stage_loop_time() {
        let recs = simulate_stages(&fig4_params(), 0.5, RedistPolicy::Never);
        assert!(recs.len() >= 3);
        let first = recs[0].loop_time;
        for r in &recs[..recs.len() - 1] {
            assert_eq!(r.loop_time, first, "NRD loop time must stay constant");
            assert_eq!(r.redist_overhead, 0.0);
        }
    }

    #[test]
    fn always_policy_shrinks_stage_time_geometrically() {
        let recs = simulate_stages(&fig4_params(), 0.5, RedistPolicy::Always);
        for w in recs.windows(2) {
            assert!(
                w[1].loop_time <= w[0].loop_time,
                "RD stage loop time must not grow"
            );
            if w[0].remaining >= fig4_params().p && w[1].remaining >= fig4_params().p {
                assert!(
                    w[1].loop_time < w[0].loop_time,
                    "RD stage loop time must shrink while blocks hold >1 iteration"
                );
            }
        }
        assert!(recs[1].redist_overhead > 0.0);
    }

    #[test]
    fn initial_stage_never_pays_redistribution() {
        for policy in [
            RedistPolicy::Never,
            RedistPolicy::Adaptive,
            RedistPolicy::Always,
        ] {
            let recs = simulate_stages(&fig4_params(), 0.5, policy);
            assert!(!recs[0].redistributed);
            assert_eq!(recs[0].redist_overhead, 0.0);
        }
    }

    #[test]
    fn adaptive_stops_redistributing_below_cutoff() {
        // Make the cutoff bite early: huge sync cost.
        let m = ModelParams {
            n: 1024,
            p: 8,
            omega: 10.0,
            ell: 2.0,
            sync: 200.0,
        };
        // cutoff = p·s/(ω−ℓ) = 8·200/8 = 200 iterations.
        let recs = simulate_stages(&m, 0.5, RedistPolicy::Adaptive);
        let mut seen_non_redist_after_redist = false;
        let mut last_redist = true;
        for r in &recs[1..] {
            if r.remaining >= 200 {
                assert!(r.redistributed, "above cutoff must redistribute");
            } else {
                assert!(!r.redistributed, "below cutoff must not redistribute");
                if last_redist {
                    seen_non_redist_after_redist = true;
                }
            }
            last_redist = r.redistributed;
        }
        assert!(seen_non_redist_after_redist, "adaptive should switch modes");
    }

    #[test]
    fn totals_rank_as_in_fig4() {
        // In the paper's regime the NRD strategy performs worst "by a
        // wide margin", and adaptive ends at or below always.
        let m = fig4_params();
        let total = |p| {
            cumulative(&simulate_stages(&m, 0.5, p))
                .last()
                .copied()
                .unwrap()
        };
        let never = total(RedistPolicy::Never);
        let adaptive = total(RedistPolicy::Adaptive);
        let always = total(RedistPolicy::Always);
        assert!(adaptive < never, "adaptive {adaptive} < never {never}");
        assert!(always < never, "always {always} < never {never}");
        assert!(
            adaptive <= always + 1e-9,
            "adaptive {adaptive} <= always {always}"
        );
    }

    #[test]
    fn cumulative_is_monotone_prefix_sum() {
        let recs = simulate_stages(&fig4_params(), 0.5, RedistPolicy::Always);
        let cum = cumulative(&recs);
        assert_eq!(cum.len(), recs.len());
        let mut acc = 0.0;
        for (c, r) in cum.iter().zip(&recs) {
            acc += r.total();
            assert!((c - acc).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_loop_takes_reciprocal_stages_under_nrd() {
        let m = fig4_params(); // n = 4096, p = 8
                               // β = 3/4: a quarter of the original iterations per stage -> 4
                               // stages, each re-running a full original block under NRD.
        let recs = simulate_stages_linear(&m, 0.75, RedistPolicy::Never);
        assert_eq!(recs.len(), 4);
        let first = recs[0].loop_time;
        for r in &recs {
            assert_eq!(r.loop_time, first, "NRD block size stays constant");
        }
    }

    #[test]
    fn sequential_linear_loop_is_p_stages() {
        let m = fig4_params();
        let beta = (m.p as f64 - 1.0) / m.p as f64;
        let recs = simulate_stages_linear(&m, beta, RedistPolicy::Never);
        assert_eq!(recs.len(), m.p, "one block completes per stage");
        // Total loop time = n·ω, the paper's T = nω + p·s.
        let total: f64 = recs.iter().map(|r| r.total()).sum();
        let expect = m.n as f64 * m.omega + m.p as f64 * m.sync;
        assert!(
            (total - expect).abs() / expect < 0.01,
            "{total} vs {expect}"
        );
    }

    #[test]
    fn fully_parallel_linear_loop_is_one_stage() {
        let recs = simulate_stages_linear(&fig4_params(), 0.0, RedistPolicy::Never);
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn fully_parallel_loop_is_one_stage() {
        let recs = simulate_stages(&fig4_params(), 0.0, RedistPolicy::Adaptive);
        assert_eq!(recs.len(), 1);
    }
}
