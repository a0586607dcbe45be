//! Engine-level benchmarks: real execution cost of the full R-LRPD
//! machinery (marking, analysis, commit, restore) per strategy on a
//! partially parallel loop, plus the fully-parallel best case.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlrpd_core::{run_speculative, AdaptRule, RunConfig, Strategy, WindowConfig};
use rlrpd_loops::{AlphaLoop, FullyParallelLoop};
use std::hint::black_box;

fn strategies_alpha(c: &mut Criterion) {
    let lp = AlphaLoop::new(2048, 0.5, 1.0);
    let mut g = c.benchmark_group("alpha_loop_p8");
    for (label, strategy) in [
        ("nrd", Strategy::Nrd),
        ("rd", Strategy::Rd),
        ("adaptive", Strategy::AdaptiveRd(AdaptRule::ModelEq4)),
        ("sw64", Strategy::SlidingWindow(WindowConfig::fixed(64))),
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &strategy, |b, &s| {
            let cfg = RunConfig::new(8).with_strategy(s);
            b.iter(|| black_box(run_speculative(&lp, cfg).report.restarts));
        });
    }
    g.finish();
}

fn fully_parallel_overhead(c: &mut Criterion) {
    // The pure cost of speculation on a loop that never fails.
    let lp = FullyParallelLoop::new(4096, 1.0);
    let mut g = c.benchmark_group("fully_parallel_p8");
    g.bench_function("speculative", |b| {
        let cfg = RunConfig::new(8);
        b.iter(|| black_box(run_speculative(&lp, cfg).report.stages.len()));
    });
    g.bench_function("sequential_baseline", |b| {
        b.iter(|| black_box(rlrpd_core::run_sequential(&lp).1));
    });
    g.finish();
}

fn simulated_exec_mode(c: &mut Criterion) {
    let lp = FullyParallelLoop::new(4096, 1.0);
    let mut g = c.benchmark_group("exec_mode_p4");
    g.bench_function("simulated", |b| {
        let cfg = RunConfig::new(4);
        b.iter(|| black_box(run_speculative(&lp, cfg).report.stages.len()));
    });
    g.finish();
}

fn irregular_reduction_throughput(c: &mut Criterion) {
    use rlrpd_loops::{MoldynSystem, NonbondedLoop};
    // The CHARMM-style force kernel: how fast the whole speculative
    // reduction pipeline (marking, delta accumulation, commit fold)
    // processes pair updates.
    let lp = NonbondedLoop::new(MoldynSystem::new(1000, 10, 1));
    let mut g = c.benchmark_group("irregular_reduction");
    g.throughput(criterion::Throughput::Elements(5000));
    g.bench_function("nonbonded_5000_pairs_p4", |b| {
        let cfg = RunConfig::new(4);
        b.iter(|| black_box(run_speculative(&lp, cfg).report.stages.len()));
    });
    g.finish();
}

criterion_group!(
    benches,
    strategies_alpha,
    fully_parallel_overhead,
    simulated_exec_mode,
    irregular_reduction_throughput
);
criterion_main!(benches);
