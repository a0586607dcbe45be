//! Network-chaos suite for the TCP transport: a real fleet run over
//! loopback with the deterministic chaos proxy between supervisor and
//! worker, injecting every fault mode real networks produce — refusal,
//! mid-frame disconnects, half-open partitions, bytewise corruption,
//! latency, slow-loris trickle. Under every mode the run must end
//! byte-identical to a sequential execution, recovering through
//! reconnect (a respawn of a TCP slot is a fresh connection replaying
//! hello + commit history) or quarantine — never a wrong answer, never
//! an error exit.
//!
//! `RLRPD_FAULT_SEED` pins the seeded leg to one seed, mirroring the
//! worker-fault chaos suites.

use std::net::TcpListener;
use std::time::Duration;

use rlrpd_core::driver::{RunConfig, RunPlan, Runner, Strategy};
use rlrpd_core::{run_sequential, WindowConfig};
use rlrpd_dist::{
    net, resolve_spec, ChaosFault, ChaosPlan, ChaosProxy, DistLauncher, DistPolicy, Endpoint,
};

/// A partially parallel loop small enough that even a trickled link
/// converges quickly, with enough stages that every fault lands inside
/// live protocol traffic.
const SPEC: &str = "rlp:array A[96] = 1;\nfor i in 0..96 { A[i] = A[max(0, i - 13)] + 1; }";

fn seeds() -> Vec<u64> {
    match std::env::var("RLRPD_FAULT_SEED") {
        Ok(v) => vec![v
            .parse()
            .expect("RLRPD_FAULT_SEED must be an unsigned integer")],
        Err(_) => vec![3, 17, 2002],
    }
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy::Nrd,
        Strategy::Rd,
        Strategy::SlidingWindow(WindowConfig::fixed(17)),
    ]
}

/// Start an in-process `rlrpd worker --listen`-equivalent host on a
/// loopback port; the accept loop runs on a leaked daemon thread (it
/// serves until the test process exits).
fn spawn_listener() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || net::run_listener(listener, Some(net::DEFAULT_IDLE_TIMEOUT)));
    addr
}

/// A fleet of two TCP slots routed through a chaos proxy in front of
/// `worker_addr`, with a fast-recovery policy.
fn launcher_through(plan: ChaosPlan, worker_addr: &str) -> DistLauncher {
    let proxy = ChaosProxy::bind("127.0.0.1:0", worker_addr, plan).expect("bind proxy");
    let proxy_addr = proxy.local_addr().expect("proxy addr").to_string();
    proxy.spawn();
    let policy = DistPolicy {
        workers: 2,
        block_deadline: Duration::from_millis(800),
        max_respawns: 8,
        backoff: Duration::from_millis(10),
        ..DistPolicy::default()
    };
    // The worker program is never spawned for TCP slots; any path works.
    DistLauncher::new("unused".into(), Vec::new())
        .with_policy(policy)
        .with_endpoints(vec![
            Endpoint::Tcp(proxy_addr.clone()),
            Endpoint::Tcp(proxy_addr),
        ])
}

/// Run `SPEC` through a chaos proxy applying `plan`; assert the final
/// state is byte-identical to sequential and the fleet recovered
/// distributed (no fallback). Returns `(respawns, quarantined)`.
fn assert_chaos_run_recovers(strategy: Strategy, plan: ChaosPlan, label: &str) -> (usize, usize) {
    let worker_addr = spawn_listener();
    let lp = resolve_spec(SPEC).expect("registry spec");
    let mut cfg = RunConfig::new(4);
    cfg.strategy = strategy;
    let mut connector = launcher_through(plan, &worker_addr);
    let got = Runner::new(cfg)
        .execute(
            lp.as_ref(),
            RunPlan {
                fleet: Some((SPEC, &mut connector)),
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{label}: {strategy:?}: {e}"));
    let (seq, _) = run_sequential(lp.as_ref());
    assert_eq!(
        got.arrays, seq,
        "{label}: {strategy:?}: state differs from sequential"
    );
    assert_eq!(
        got.report.fallback, None,
        "{label}: {strategy:?}: the fleet must recover over TCP, not degrade"
    );
    (got.report.respawns(), got.report.quarantined())
}

#[test]
fn refused_connections_recover_or_quarantine() {
    for (k, seed) in seeds().into_iter().enumerate() {
        let strategy = strategies()[(seed as usize + k) % 3];
        let plan = ChaosPlan::new().fault_at(0, ChaosFault::Refuse);
        let (respawns, quarantined) = assert_chaos_run_recovers(strategy, plan, "refuse");
        assert!(
            respawns + quarantined >= 1,
            "a refused slot must show up as a respawn or a quarantine"
        );
    }
}

#[test]
fn midframe_disconnects_reconnect_and_rejoin() {
    for (k, seed) in seeds().into_iter().enumerate() {
        let strategy = strategies()[(seed as usize + k) % 3];
        // Cut inside the hello/history replay of the first connection.
        let plan = ChaosPlan::new().fault_at(0, ChaosFault::Disconnect { after: 120 });
        let (respawns, quarantined) = assert_chaos_run_recovers(strategy, plan, "disconnect");
        assert!(
            respawns + quarantined >= 1,
            "a cut link must be respawned (reconnected) or quarantined"
        );
    }
}

#[test]
fn half_open_partitions_are_detected_and_rejoined() {
    for (k, seed) in seeds().into_iter().enumerate() {
        let strategy = strategies()[(seed as usize + k) % 3];
        // Blackhole both directions after the handshake: writes keep
        // succeeding, heartbeats stop arriving — only the staleness
        // sweep can see it. The respawn is a fresh connection that
        // replays hello + history: reconnect-and-rejoin.
        let plan = ChaosPlan::new().fault_at(0, ChaosFault::Partition { after: 600 });
        let (respawns, quarantined) = assert_chaos_run_recovers(strategy, plan, "partition");
        assert!(
            respawns + quarantined >= 1,
            "a partitioned slot must be detected and replaced"
        );
    }
}

#[test]
fn corrupted_bytes_are_caught_by_checksums_and_retried() {
    for (k, seed) in seeds().into_iter().enumerate() {
        let strategy = strategies()[(seed as usize + k) % 3];
        // Flip a bit inside the hello replay: the record checksum fails
        // on the worker, the session dies with a protocol error, and
        // the supervisor reconnects on a clean ordinal.
        let plan = ChaosPlan::new().fault_at(0, ChaosFault::Corrupt { at: 100 });
        let (respawns, quarantined) = assert_chaos_run_recovers(strategy, plan, "corrupt");
        assert!(
            respawns + quarantined >= 1,
            "a corrupted stream must be torn down and replaced"
        );
    }
}

#[test]
fn added_latency_completes_correct_without_failures() {
    // Latency is not a fault: the run completes byte-identical, just
    // slower; no respawn is required (though a deadline may fire).
    let plan = ChaosPlan::new()
        .fault_at(0, ChaosFault::Delay { millis: 2 })
        .fault_at(1, ChaosFault::Delay { millis: 2 });
    assert_chaos_run_recovers(Strategy::Rd, plan, "delay");
}

#[test]
fn slow_loris_links_converge_in_bounded_time() {
    // One slot trickles at ~640 B/s; either it limps through correctly
    // or block deadlines route its work to the healthy slot.
    let plan = ChaosPlan::new().fault_at(1, ChaosFault::Trickle);
    assert_chaos_run_recovers(Strategy::Nrd, plan, "trickle");
}

#[test]
fn seeded_chaos_plans_recover_like_seeded_worker_faults() {
    for seed in seeds() {
        let strategy = strategies()[seed as usize % 3];
        let plan = ChaosPlan::seeded(seed);
        assert_chaos_run_recovers(strategy, plan, &format!("seeded({seed})"));
    }
}
