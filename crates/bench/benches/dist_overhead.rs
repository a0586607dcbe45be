//! Cost of multi-process stage sharding.
//!
//! The same ~100-stage partially parallel workload (backward flow
//! dependence of distance 163 over 16 384 iterations) is driven twice:
//! once on the in-process pooled path and once distributed over worker
//! subprocesses — fleet launch, per-stage block dispatch, commit
//! broadcasts, and reply collection included. The gap is the whole
//! price of process isolation; the commit-frontier series of the two
//! runs is identical by construction (asserted in `tests/dist_models.rs`).
//!
//! Besides the criterion output, the harness re-times the headline
//! configurations and records them to `BENCH_dist.json` at the
//! repository root (set `RLRPD_BENCH_NO_JSON=1` to skip).
//!
//! The bench binary doubles as its own worker: when invoked with
//! `--rlrpd-worker` it speaks the fleet protocol on stdin/stdout
//! instead of running benchmarks.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rlrpd_core::{ExecMode, RunConfig, RunPlan, Runner, SpecLoop, Strategy, WindowConfig};
use rlrpd_dist::{DistLauncher, DistPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Backward flow dependence of distance 163 over 16 384 iterations.
const SPEC: &str = "rlp:array A[16384] = 1;\nfor i in 0..16384 { A[i] = A[max(0, i - 163)] + 1; }";

fn workload() -> Box<dyn SpecLoop<f64>> {
    rlrpd_dist::resolve_spec(SPEC).expect("bench spec resolves")
}

/// A sliding window of one dependence distance commits ~163 iterations
/// per stage — about 100 commit stages end to end, each a full
/// dispatch/collect/broadcast round trip on the distributed path.
fn config() -> RunConfig {
    RunConfig::new(4).with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(163)))
}

fn launcher() -> DistLauncher {
    DistLauncher::new(
        std::env::current_exe().expect("own path"),
        vec!["--rlrpd-worker".into()],
    )
    .with_policy(DistPolicy {
        workers: 2,
        ..DistPolicy::default()
    })
}

/// One in-process pooled run.
fn run_pooled(lp: &dyn SpecLoop<f64>) -> usize {
    let res = Runner::new(config().with_exec(ExecMode::Pooled))
        .try_run(lp)
        .expect("bench loop has no genuine bug");
    assert!(res.report.fallback.is_none());
    res.report.stages.len()
}

/// One distributed run, fleet launch included.
fn run_distributed(lp: &dyn SpecLoop<f64>) -> usize {
    let mut connector = launcher();
    let res = Runner::new(config().with_exec(ExecMode::Distributed))
        .execute(
            lp,
            RunPlan {
                fleet: Some((SPEC, &mut connector)),
                ..Default::default()
            },
        )
        .expect("bench loop has no genuine bug");
    assert!(
        res.report.fallback.is_none(),
        "bench must not silently degrade in-process"
    );
    res.report.stages.len()
}

fn dist_overhead(c: &mut Criterion) {
    let lp = workload();
    let mut g = c.benchmark_group("dist_overhead");
    g.bench_with_input(BenchmarkId::new("stages100", "pooled"), &(), |b, _| {
        b.iter(|| black_box(run_pooled(lp.as_ref())));
    });
    g.bench_with_input(BenchmarkId::new("stages100", "distributed"), &(), |b, _| {
        b.iter(|| black_box(run_distributed(lp.as_ref())));
    });
    g.finish();
}

/// Median wall time per configuration, in nanoseconds, sampled
/// round-robin so host drift hits both configurations equally.
fn time_interleaved_ns(runs: usize, configs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for f in configs.iter_mut() {
        f(); // warm-up
    }
    let mut samples = vec![Vec::with_capacity(runs); configs.len()];
    for round in 0..runs {
        let order: Vec<usize> = if round % 2 == 0 {
            (0..configs.len()).collect()
        } else {
            (0..configs.len()).rev().collect()
        };
        for i in order {
            let start = Instant::now();
            configs[i]();
            samples[i].push(start.elapsed().as_secs_f64() * 1e9);
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_by(f64::total_cmp);
            s[s.len() / 2]
        })
        .collect()
}

/// Re-time the headline configurations and write `BENCH_dist.json` at
/// the repository root.
fn record_baseline() {
    if std::env::var_os("RLRPD_BENCH_NO_JSON").is_some() {
        return;
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let lp = workload();
    let stages = run_pooled(lp.as_ref());

    // Transport volume of one distributed run, for the record.
    let mut connector = launcher();
    let dist_run = Runner::new(config().with_exec(ExecMode::Distributed))
        .execute(
            lp.as_ref(),
            RunPlan {
                fleet: Some((SPEC, &mut connector)),
                ..Default::default()
            },
        )
        .expect("bench loop has no genuine bug");
    let wire_bytes = dist_run.report.wire_bytes();

    let runs = 15;
    let timed = time_interleaved_ns(
        runs,
        &mut [
            &mut || {
                black_box(run_pooled(lp.as_ref()));
            },
            &mut || {
                black_box(run_distributed(lp.as_ref()));
            },
        ],
    );
    let (pooled, distributed) = (timed[0], timed[1]);
    let json = format!(
        "{{\n  \"host_cores\": {cores},\n  \"results\": [\n    \
         {{\"bench\": \"dist_overhead\", \"loop\": \"dep163\", \"n\": 16384, \
         \"procs\": 4, \"workers\": 2, \"stages\": {stages}, \
         \"pooled_ns\": {pooled:.0}, \"distributed_ns\": {distributed:.0}, \
         \"dist_overhead_pct\": {:.2}, \"wire_bytes\": {wire_bytes}}}\n  ]\n}}\n",
        (distributed / pooled - 1.0) * 100.0
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dist.json");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("baseline recorded to {path}");
    }
}

criterion_group!(benches, dist_overhead);

fn main() {
    // The bench binary is its own worker fleet executable.
    if std::env::args().any(|a| a == "--rlrpd-worker") {
        std::process::exit(rlrpd_dist::worker_entry());
    }
    benches();
    record_baseline();
}
