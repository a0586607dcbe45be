//! Benchmarks of the parallel analysis/commit pipeline.
//!
//! 1. **Sequential vs partitioned-parallel shadow merge** across
//!    processor count × array size × touched density. On multicore
//!    hosts the partitioned merge wins once the touched sets are large;
//!    at one worker its overhead over the sequential scan is the price
//!    of the partition pass.
//! 2. **Pooled `run_blocks`** over a 100-stage run: what the persistent
//!    pool charges a stage for its fork-join.
//!
//! Besides the criterion output, the harness re-times the headline
//! configurations directly and records them to `BENCH_analysis.json`
//! at the repository root (set `RLRPD_BENCH_NO_JSON=1` to skip).

use criterion::{criterion_group, BenchmarkId, Criterion};
use rlrpd_core::view::ProcView;
use rlrpd_core::{analyze_parallel, analyze_seq, ExecMode, ShadowKind};
use rlrpd_runtime::Executor;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic SplitMix64 so every bench run sees the same workload.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Populate `blocks` per-position views over a `size`-element array in
/// which each block touches `density * size` elements — half writes
/// (dependence sources), half exposed reads (sink candidates), so the
/// merge does real producer-tracking work.
fn build_blocks(blocks: usize, size: usize, density: f64) -> Vec<Vec<ProcView<i64>>> {
    let per_block = ((size as f64 * density) as usize).max(1);
    let mut rng = Rng(0x5eed);
    (0..blocks)
        .map(|_| {
            let mut v = ProcView::<i64>::new(size, ShadowKind::Dense, None);
            for _ in 0..per_block {
                let e = rng.below(size);
                if rng.next().is_multiple_of(2) {
                    v.write(e, 1);
                } else {
                    v.read(e, |_| 0);
                }
            }
            vec![v]
        })
        .collect()
}

fn analyze_seq_vs_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyze");
    for &procs in &[2usize, 4, 8] {
        for &size in &[4_096usize, 65_536] {
            for &density in &[0.05f64, 0.5] {
                let views = build_blocks(procs, size, density);
                let refs: Vec<&[ProcView<i64>]> = views.iter().map(|v| v.as_slice()).collect();
                let ids = [0usize];
                let tag = format!("p{procs}_n{size}_d{density}");
                g.bench_with_input(BenchmarkId::new("seq", &tag), &(), |b, _| {
                    b.iter(|| analyze_seq(black_box(&refs), &ids));
                });
                let ex = Executor::with_procs(ExecMode::Pooled, procs);
                g.bench_with_input(BenchmarkId::new("parallel", &tag), &(), |b, _| {
                    b.iter(|| analyze_parallel(black_box(&refs), &ids, &ex));
                });
            }
        }
    }
    g.finish();
}

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

/// Median-of-`runs` wall time of `f`, in nanoseconds.
fn time_ns(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Re-time the headline configurations and write `BENCH_analysis.json`
/// at the repository root (plain JSON, hand-rolled — no serializer
/// needed for a flat record).
fn record_baseline() {
    if std::env::var_os("RLRPD_BENCH_NO_JSON").is_some() {
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut entries = Vec::new();

    for &procs in &[1usize, 2, 4, 8] {
        let size = 65_536;
        let density = 0.5;
        let views = build_blocks(procs, size, density);
        let refs: Vec<&[ProcView<i64>]> = views.iter().map(|v| v.as_slice()).collect();
        let ids = [0usize];
        let ex = Executor::with_procs(ExecMode::Pooled, procs);
        let seq = time_ns(9, || {
            black_box(analyze_seq(black_box(&refs), &ids));
        });
        let par = time_ns(9, || {
            black_box(analyze_parallel(black_box(&refs), &ids, &ex));
        });
        entries.push(format!(
            "    {{\"bench\": \"analyze\", \"procs\": {procs}, \"size\": {size}, \
             \"density\": {density}, \"seq_ns\": {seq:.0}, \"parallel_ns\": {par:.0}, \
             \"speedup\": {:.3}}}",
            seq / par
        ));
    }

    let json = format!(
        "{{\n  \"host_cores\": {cores},\n  \"results\": [\n{}\n  ]\n}}\n",
        entries.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("baseline recorded to {path}");
    }
}

criterion_group!(benches, analyze_seq_vs_parallel, pooled_run_blocks);

fn main() {
    benches();
    record_baseline();
}
