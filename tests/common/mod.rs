//! What the workload-model suites share: the one strategy table each
//! suite takes its subset of by name, the seeds of the seeded sweeps,
//! and the subprocess fleet the distributed legs launch.
#![allow(dead_code)] // every suite uses a different part

use rlrpd::core::AdaptRule;
use rlrpd::dist::{DistLauncher, DistPolicy};
use rlrpd::{FaultPlan, Strategy, WindowConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Every strategy the model suites run, under the name `rlrpd run
/// --strategy` spells it (`adaptive-eq4`, the model rule, has no CLI
/// spelling).
pub fn strategy_table() -> Vec<(&'static str, Strategy)> {
    let sw = |w| Strategy::SlidingWindow(WindowConfig::fixed(w));
    vec![
        ("nrd", Strategy::Nrd),
        ("rd", Strategy::Rd),
        ("adaptive-eq4", Strategy::AdaptiveRd(AdaptRule::ModelEq4)),
        ("adaptive", Strategy::AdaptiveRd(AdaptRule::Measured)),
        ("sw:7", sw(7)),
        ("sw:64", sw(64)),
    ]
}

/// The named rows of [`strategy_table`], in the order asked for.
pub fn strategies(names: &[&str]) -> Vec<Strategy> {
    let table = strategy_table();
    names
        .iter()
        .map(|name| {
            let row = table.iter().find(|(n, _)| n == name);
            row.unwrap_or_else(|| panic!("no strategy named '{name}'"))
                .1
        })
        .collect()
}

/// Seeds for the seeded sweeps; the CI fault matrix pins one seed per
/// job through `RLRPD_FAULT_SEED`.
pub fn seeds() -> Vec<u64> {
    match std::env::var("RLRPD_FAULT_SEED") {
        Ok(v) => vec![v
            .parse()
            .expect("RLRPD_FAULT_SEED must be an unsigned integer")],
        Err(_) => vec![3, 17, 2002],
    }
}

/// A fleet of two real `rlrpd worker` subprocesses, tolerant enough of
/// injected worker faults (`fault`) to recover rather than degrade.
pub fn launcher(fault: Option<FaultPlan>) -> DistLauncher {
    let policy = DistPolicy {
        workers: 2,
        block_deadline: Duration::from_millis(800),
        max_respawns: 8,
        backoff: Duration::from_millis(10),
        ..DistPolicy::default()
    };
    let mut l = DistLauncher::new(
        PathBuf::from(env!("CARGO_BIN_EXE_rlrpd")),
        vec!["worker".into()],
    )
    .with_policy(policy);
    if let Some(f) = fault {
        l = l.with_fault(Arc::new(f));
    }
    l
}
