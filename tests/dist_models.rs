//! Distributed execution on the paper's workload models, end to end:
//! supervisor + real `rlrpd worker` subprocesses running TRACK
//! (FPTRAK), SPICE (DCDCMP), and NLFILT kernels while workers are
//! killed, hung, and corrupted at seeded dispatch points — the final
//! arrays must stay byte-identical to sequential execution, and a
//! fault-free distributed run must report the same commit-frontier
//! series as the in-process pooled path.
//!
//! This is the workload-level counterpart of the synthetic-loop chaos
//! suite in `crates/dist/tests/worker_chaos.rs`.

mod common;

use std::io::BufRead;
use std::process::{Child, Command, Stdio};

use common::{launcher, seeds};
use rlrpd::dist::Endpoint;
use rlrpd::{run_sequential, ExecMode, FaultPlan, RunConfig, RunPlan, Runner, SpecLoop, Strategy};

/// `(spec string, loop)` pairs: the supervisor resolves the very same
/// registry entry the worker subprocess will.
fn models() -> Vec<(&'static str, Box<dyn SpecLoop<f64>>)> {
    ["fptrak:0", "dcdcmp15:17", "nlfilt:i4_50"]
        .into_iter()
        .map(|spec| {
            (
                spec,
                rlrpd::dist::resolve_spec(spec).expect("registry spec"),
            )
        })
        .collect()
}

fn strategies() -> Vec<Strategy> {
    common::strategies(&["nrd", "rd", "sw:7"])
}

/// A standalone `rlrpd worker --listen` host on a loopback port,
/// reaped on drop.
struct TcpWorkerHost {
    child: Child,
    addr: String,
}

impl TcpWorkerHost {
    fn spawn() -> TcpWorkerHost {
        let mut child = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
            .args(["worker", "--listen", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn listener");
        let stdout = child.stdout.take().expect("listener stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let banner = lines
            .next()
            .expect("listener banner")
            .expect("read listener banner");
        let addr = banner
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected listener banner: {banner}"))
            .to_string();
        TcpWorkerHost { child, addr }
    }
}

impl Drop for TcpWorkerHost {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One worker fault derived from a seed: the kind rotates with `salt`,
/// the dispatch ordinal scatters with the seed.
fn seeded_fault(seed: u64, salt: usize) -> FaultPlan {
    let ordinal = (seed as usize).wrapping_mul(31).wrapping_add(salt) % 8;
    match (seed as usize + salt) % 3 {
        0 => FaultPlan::new().kill_worker_at(ordinal),
        1 => FaultPlan::new().hang_worker_at(ordinal),
        _ => FaultPlan::new().corrupt_result_at(ordinal),
    }
}

#[test]
fn chaotic_distributed_model_runs_match_sequential() {
    for seed in seeds() {
        for (k, (spec, lp)) in models().iter().enumerate() {
            let strategy = strategies()[(seed as usize + k) % 3];
            let cfg = RunConfig::new(4)
                .with_strategy(strategy)
                .with_exec(ExecMode::Distributed);
            let mut connector = launcher(Some(seeded_fault(seed, k)));
            let got = Runner::new(cfg)
                .execute(
                    lp.as_ref(),
                    RunPlan {
                        fleet: Some((spec, &mut connector)),
                        ..Default::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{spec}: seed {seed}: {e}"));
            let (seq, _) = run_sequential(lp.as_ref());
            assert_eq!(
                got.arrays, seq,
                "{spec}: seed {seed}: {strategy:?}: final state differs from sequential"
            );
            assert_eq!(
                got.report.fallback, None,
                "{spec}: seed {seed}: the fleet must recover, not degrade"
            );
        }
    }
}

#[test]
fn distributed_and_pooled_reports_share_the_commit_frontier_series() {
    for (spec, lp) in models() {
        for strategy in strategies() {
            let base = RunConfig::new(4).with_strategy(strategy);
            let local = Runner::new(base.with_exec(ExecMode::Pooled))
                .try_run(lp.as_ref())
                .unwrap_or_else(|e| panic!("{spec}: pooled: {e}"));
            let mut connector = launcher(None);
            let dist = Runner::new(base.with_exec(ExecMode::Distributed))
                .execute(
                    lp.as_ref(),
                    RunPlan {
                        fleet: Some((spec, &mut connector)),
                        ..Default::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{spec}: distributed: {e}"));
            assert_eq!(dist.arrays, local.arrays, "{spec}: {strategy:?}");
            assert_eq!(dist.report.fallback, None, "{spec}: {strategy:?}");
            assert_eq!(
                dist.report.restarts, local.report.restarts,
                "{spec}: {strategy:?}"
            );
            assert_eq!(
                dist.report.stages.len(),
                local.report.stages.len(),
                "{spec}: {strategy:?}"
            );
            for (d, l) in dist.report.stages.iter().zip(&local.report.stages) {
                assert_eq!(d.iters_committed, l.iters_committed, "{spec}: {strategy:?}");
                assert_eq!(d.iters_attempted, l.iters_attempted, "{spec}: {strategy:?}");
                assert_eq!(d.loop_time, l.loop_time, "{spec}: {strategy:?}");
            }
            assert!(dist.report.wire_bytes() > 0, "{spec}: {strategy:?}");
        }
    }
}

/// The TCP leg: the same workload kernels served by a standalone
/// `rlrpd worker --listen` host over loopback, mixed with one local
/// subprocess slot — final arrays byte-identical to sequential, with
/// seeded worker faults landing on whichever transport drew the
/// faulted dispatch.
#[test]
fn tcp_fleets_run_the_models_identically_to_sequential() {
    let host = TcpWorkerHost::spawn();
    for seed in seeds() {
        for (k, (spec, lp)) in models().iter().enumerate() {
            let strategy = strategies()[(seed as usize + k) % 3];
            let cfg = RunConfig::new(4)
                .with_strategy(strategy)
                .with_exec(ExecMode::Distributed);
            let mut connector = launcher(Some(seeded_fault(seed, k))).with_endpoints(vec![
                Endpoint::Tcp(host.addr.clone()),
                Endpoint::Tcp(host.addr.clone()),
                Endpoint::Local,
            ]);
            let got = Runner::new(cfg)
                .execute(
                    lp.as_ref(),
                    RunPlan {
                        fleet: Some((spec, &mut connector)),
                        ..Default::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{spec}: tcp seed {seed}: {e}"));
            let (seq, _) = run_sequential(lp.as_ref());
            assert_eq!(
                got.arrays, seq,
                "{spec}: tcp seed {seed}: {strategy:?}: final state differs from sequential"
            );
            assert_eq!(
                got.report.fallback, None,
                "{spec}: tcp seed {seed}: the fleet must recover, not degrade"
            );
        }
    }
}
