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

use common::{dispatch_fault, launcher, seeded, seeds, slice, strategies, Deck, Leg, MODELS};
use rlrpd::dist::Endpoint;
use rlrpd::{ExecMode, RunConfig, Runner};

/// The strategies the fleet tests run over [`MODELS`] (the supervisor
/// resolves the very same registry entry the worker subprocess will).
const STRATEGIES: [&str; 3] = ["nrd", "rd", "sw:7"];

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

/// The slice of the plan matrix (`tests/common`) under the seeded
/// dispatch leg: a worker killed, hung or made to lie at a seeded
/// dispatch ordinal; the final arrays match sequential execution and
/// the fleet recovers (`fallback == None`) rather than degrades.
#[test]
fn chaotic_distributed_model_runs_match_sequential() {
    slice(&MODELS, &seeded(Leg::SeededDispatch), &STRATEGIES, &[4]);
}

/// `wire_bytes` counts the frames the protocol exchanges for the run —
/// hello and replay, ack, commits, requests, replies — and not the
/// heartbeats, which are a function of the clock: two runs of one plan
/// report the same bytes, here at a heartbeat per millisecond. (The
/// parent counted every frame it received, so repeats disagreed.)
#[test]
fn wire_bytes_are_a_function_of_the_run_not_of_the_clock() {
    let deck = Deck::named("dcdcmp15:17");
    let run = || {
        let mut connector = launcher(None);
        connector.policy.heartbeat = std::time::Duration::from_millis(1);
        let cfg = RunConfig::new(4)
            .with_strategy(strategies(&["sw:7"])[0])
            .with_exec(ExecMode::Distributed);
        let report = deck.run_over(cfg, &mut connector).report;
        assert_eq!((report.fallback, report.respawns()), (None, 0));
        report.wire_bytes()
    };
    let first = run();
    assert!(first > 0);
    assert_eq!(run(), first);
}

#[test]
fn distributed_and_pooled_reports_share_the_commit_frontier_series() {
    for spec in MODELS {
        let deck = Deck::named(spec);
        for strategy in strategies(&STRATEGIES) {
            let base = RunConfig::new(4).with_strategy(strategy);
            let local = Runner::new(base.with_exec(ExecMode::Pooled))
                .try_run(deck.lp.as_ref())
                .unwrap_or_else(|e| panic!("{spec}: pooled: {e}"));
            let dist = deck.run_over(base.with_exec(ExecMode::Distributed), &mut launcher(None));
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
        for (k, spec) in MODELS.into_iter().enumerate() {
            let deck = Deck::named(spec);
            let strategy = strategies(&STRATEGIES)[(seed as usize + k) % 3];
            let cfg = RunConfig::new(4)
                .with_strategy(strategy)
                .with_exec(ExecMode::Distributed);
            let fault = dispatch_fault(seed, k, 4).1;
            let mut connector = launcher(Some(fault)).with_endpoints(vec![
                Endpoint::Tcp(host.addr.clone()),
                Endpoint::Tcp(host.addr.clone()),
                Endpoint::Local,
            ]);
            let got = deck.run_over(cfg, &mut connector);
            assert_eq!(
                got.arrays, deck.seq,
                "{spec}: tcp seed {seed}: {strategy:?}: final state differs from sequential"
            );
            assert_eq!(
                got.report.fallback, None,
                "{spec}: tcp seed {seed}: the fleet must recover, not degrade"
            );
        }
    }
}
