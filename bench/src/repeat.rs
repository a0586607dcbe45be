//! `--repeat-check`: the benchmark's self-test. Runs the workload twice
//! in fresh processes and fails if an end-to-end metric differs by
//! more than its bound or a count differs at all; a third, traced run
//! gives the tracing overhead.

use crate::{Args, END_TO_END};
use std::collections::BTreeMap;

/// `name -> (value, unit)` of every `name = value unit` line.
type Reading = BTreeMap<String, (f64, String)>;

fn run_once(args: &Args, trace: bool) -> Result<Reading, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        &args.workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &args.seed.to_string()])
    .args(["--seconds", &args.seconds.to_string()]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("child run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "child run failed ({}):\n{text}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(text
        .lines()
        .filter_map(|l| {
            let (name, rest) = l.split_once(" = ")?;
            let mut it = rest.split_whitespace();
            let value = it.next()?.parse().ok()?;
            Some((
                name.to_string(),
                (value, it.next().unwrap_or("").to_string()),
            ))
        })
        .collect())
}

pub fn check(args: &Args) -> Result<bool, String> {
    let a = run_once(args, false)?;
    let b = run_once(args, false)?;
    let mut ok = true;
    println!("repeat-check {} seed {}", args.workload, args.seed);
    for (name, _, bound) in END_TO_END {
        let (x, y) = (a[name].0, b[name].0);
        let diff = (x - y).abs() / x.min(y).max(f64::MIN_POSITIVE);
        let pass = diff <= bound;
        ok &= pass;
        println!(
            "{name}: {x:.6} vs {y:.6}  diff {:.2} %  bound {:.0} %  {}",
            100.0 * diff,
            100.0 * bound,
            if pass { "ok" } else { "FAIL" }
        );
    }
    for (name, (x, unit)) in &a {
        if unit != "count" {
            continue;
        }
        let y = b.get(name).map_or(f64::NAN, |v| v.0);
        let pass = y == *x;
        ok &= pass;
        println!(
            "{name}: {x} vs {y}  {}",
            if pass {
                "ok"
            } else {
                "FAIL (counts must repeat exactly)"
            }
        );
    }
    let t = run_once(args, true)?;
    let base = (a["op_p50_s"].0 + b["op_p50_s"].0) / 2.0;
    println!(
        "trace.overhead_share = {:.2} %  (traced op_p50_s {:.6} vs untraced {base:.6})",
        100.0 * (t["trace.op_p50_s"].0 - base) / base,
        t["trace.op_p50_s"].0
    );
    println!("repeat_check = {}", if ok { "pass" } else { "FAIL" });
    Ok(ok)
}
