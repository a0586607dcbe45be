//! Benchmark of the persistent pool's stage dispatch: pooled
//! `run_blocks` over a 100-stage run, i.e. what the pool charges a
//! stage for its one fork-join.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rlrpd_core::ExecMode;
use rlrpd_runtime::Executor;

/// One stage of block work: enough arithmetic per block that the stage
/// body dominates thread-administration cost only when threads are
/// reused, not when they are spawned per stage.
fn stage_work(states: &mut [u64], ex: &Executor) {
    ex.run_blocks(states, |pos, s| {
        let mut acc = *s ^ pos as u64;
        for i in 0..2_000u64 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        }
        *s = acc;
        0.0
    });
}

fn pooled_run_blocks(c: &mut Criterion) {
    let mut g = c.benchmark_group("run_blocks_100_stages");
    for &procs in &[2usize, 4] {
        let pooled = Executor::with_procs(ExecMode::Pooled, procs);
        g.bench_with_input(BenchmarkId::new("pooled", procs), &(), |b, _| {
            let mut states = vec![0u64; procs];
            b.iter(|| {
                for _ in 0..100 {
                    stage_work(&mut states, &pooled);
                }
                states[0]
            });
        });
    }
    g.finish();
}

criterion_group!(benches, pooled_run_blocks);

fn main() {
    benches();
}
