//! `rlrpd-benchmark`: one named workload per invocation, every op
//! checked against sequential execution, every metric printed by name
//! with its unit. See `README.md` for the protocol and the metric
//! definitions; `BENCHMARK.json` at the repository root lists the same
//! names.

mod host;
mod layers;
mod repeat;
mod stats;
mod trace;
mod workloads;

use stats::{iqr_share, median, tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{metric, Acc, Env, Metric, Workload};

/// End-to-end metrics: `(name, unit, regression bound)`. Mirrored in
/// `BENCHMARK.json`; `--repeat-check` holds two runs to these bounds.
///
/// `op_p50_s`, the op's median wall in seconds, is printed by every run
/// but is not in this list: seconds follow the host (the same code read
/// 25–42 % apart between runs on a slow stretch), `op_cal_ratio` is the
/// same reading with the host divided out.
pub const END_TO_END: [(&str, &str, f64); 3] = [
    ("setup_s", "s", 0.25),
    ("op_cal_ratio", "x", 0.25),
    ("peak_rss_mb", "MiB", 0.05),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports every one;
/// a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("lang.compile_s", "s"),
    ("lang.bytecode_instrs", "count"),
    ("lang.vm_ns_per_iter", "ns"),
    ("lang.interp_ns_per_iter", "ns"),
    ("lang.native_ns_per_iter", "ns"),
    ("shadow.mark_ns_dense", "ns"),
    ("shadow.mark_ns_packed", "ns"),
    ("shadow.mark_ns_sparse", "ns"),
    ("shadow.clear_ns_per_elem", "ns"),
    ("shadow.bytes_peak", "count"),
    ("shadow.migrations", "count"),
    ("runtime.pool_dispatch_us", "us"),
    ("runtime.par_speedup", "x"),
    ("runtime.par_speedup_iqr", "x"),
    ("core.execute_s", "s"),
    ("core.analysis_s", "s"),
    ("core.commit_s", "s"),
    ("core.restore_s", "s"),
    ("core.shadow_clear_s", "s"),
    ("core.stage_fixed_us", "us"),
    ("core.unattributed_share", "%"),
    ("core.overhead_x", "x"),
    ("core.seq_p50_s", "s"),
    ("core.stages", "count"),
    ("core.restarts", "count"),
    ("core.pr", "x"),
    ("core.reexec_share", "%"),
    ("core.virtual_speedup_p8", "x"),
    ("core.journal.append_fsync_us", "us"),
    ("core.journal.bytes_per_commit", "count"),
    ("core.journal_s", "s"),
    ("core.journal_x", "x"),
    ("core.journal.resume_s", "s"),
    ("core.wire.codec_ns_per_block", "ns"),
    ("dist.fleet_launch_s", "s"),
    ("dist.dispatch_s", "s"),
    ("dist.collect_s", "s"),
    ("dist.wire_bytes_per_stage", "B"),
    ("dist.fleet_x", "x"),
    ("dist.worker_rss_mb", "MiB"),
    ("serve.status_rtt_ms", "ms"),
    ("serve.admission_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.job_tail_s", "s"),
    ("serve.verify_share", "%"),
    ("serve.frames_dropped", "count"),
    ("serve.rejected", "count"),
    ("trace.op_p50_s", "s"),
    ("trace.op_cal_ratio", "x"),
    ("trace.spans", "count"),
    ("host.cal_p50_s", "s"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Timed rounds a window holds at least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 5;
/// Rounds of a `--quick` smoke.
const QUICK_ROUNDS: usize = 3;
/// Rounds of the unpinned `runtime.par_speedup` probe.
const PAR_ROUNDS: usize = 5;
/// Original CPU set, handed to the unpinned probe child.
const CPUS_ENV: &str = "RLRPD_BENCH_CPUS";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeat_check: bool,
    par_probe: bool,
}

fn usage() -> String {
    format!(
        "usage: rlrpd-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--repeat-check]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        repeat_check: false,
        par_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} expects {what}"));
        match flag.as_str() {
            "--workload" => a.workload = value("a workload name")?,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative whole number".to_string())?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds expects a positive number")?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                }
            }
            "--quick" => a.quick = true,
            "--repeat-check" => a.repeat_check = true,
            "--par-probe" => a.par_probe = true,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(usage());
    }
    Ok(a)
}

fn main() -> ExitCode {
    // A fleet worker is this very binary (children inherit the pin and
    // the allocator environment).
    if std::env::args().nth(1).as_deref() == Some("--dist-worker") {
        std::process::exit(rlrpd_dist::worker_entry());
    }
    host::reexec_with_allocator_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(64);
        }
    };
    let outcome = if args.repeat_check {
        repeat::check(&args)
    } else if args.par_probe {
        par_probe(&args)
    } else {
        run(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Scratch directory of one invocation, removed when the run ends —
/// normally or by panic.
struct Scratch(PathBuf);

impl Scratch {
    fn new(args: &Args) -> Result<Self, String> {
        let dir = out_root().join(format!(
            "run-{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

/// The scratch directory of this invocation and the environment every
/// workload of it is built from.
fn scratch_env(args: &Args, p: usize) -> Result<(Scratch, Env), String> {
    let scratch = Scratch::new(args)?;
    let env = Env {
        seed: args.seed,
        p,
        out_dir: scratch.0.clone(),
    };
    Ok((scratch, env))
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `bench/out/`: everything the harness writes lives below it.
fn out_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One timed round: sequential pass, calibration kernel, ops — back to
/// back, so all three see the same host, the calibration right before
/// the ops it is the denominator of.
struct Round {
    cal: f64,
    seq: f64,
    /// The round's op sample (see [`Workload::round`]).
    op: f64,
    /// Wall of every single op of the round.
    jobs: Vec<f64>,
}

/// One set-up: its wall, and the mean of the two calibration passes
/// taken right before and right after it.
struct Setup {
    wall: f64,
    cal: f64,
}

/// Everything one invocation measured.
struct Measured {
    setups: Vec<Setup>,
    rounds: Vec<Round>,
    acc: Acc,
    failure: Option<String>,
    /// Hypervisor steal on the pinned CPU over the window, share of wall.
    steal_share: f64,
}

impl Measured {
    fn jobs(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| r.jobs.iter().copied())
            .collect()
    }

    fn ops(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.op).collect()
    }

    fn cals(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.cal).collect()
    }

    /// Per round: op sample ÷ `denominator(round)`.
    fn ratios(&self, denominator: impl Fn(&Round) -> f64) -> Vec<f64> {
        self.rounds.iter().map(|r| r.op / denominator(r)).collect()
    }
}

/// Set up, then run timed rounds for `--seconds` of round time. The
/// remaining set-ups of the run are spread through the window — the
/// workload is torn down and built again when the window crosses each
/// `1/setups` of its length — and each is bracketed by two calibration
/// passes, so that `setup_s` hangs neither on the host's speed during
/// one particular second nor on its speed during this run.
fn measure(
    args: &Args,
    env: &Env,
    cpu: usize,
    tr: &mut Tracer,
) -> Result<(Measured, Box<dyn Workload>), String> {
    let (setups_wanted, rounds_wanted) = match (args.quick, args.par_probe) {
        (true, _) => (1, Some(QUICK_ROUNDS)),
        (_, true) => (1, Some(PAR_ROUNDS)),
        _ => (SETUPS, None),
    };
    let mut m = Measured {
        setups: Vec::new(),
        rounds: Vec::new(),
        acc: Acc::default(),
        failure: None,
        steal_share: 0.0,
    };
    let build = |tr: &mut Tracer, cal: &mut host::Cal, setups: &mut Vec<Setup>| {
        let before = cal.run();
        let s = tr.begin("setup");
        let t = Instant::now();
        let built = workloads::setup(&args.workload, env, tr);
        let wall = t.elapsed().as_secs_f64();
        tr.end(s);
        setups.push(Setup {
            wall,
            cal: (before + cal.run()) / 2.0,
        });
        built
    };
    let mut cal = host::Cal::new();
    cal.run();
    let mut w = build(tr, &mut cal, &mut m.setups)?;
    let mut window_s = 0.0;
    let mut steal = 0;
    loop {
        let done = m.rounds.len();
        let enough = match rounds_wanted {
            Some(n) => done >= n,
            None => done >= MIN_ROUNDS && window_s >= args.seconds,
        };
        if enough {
            break;
        }
        if m.setups.len() < setups_wanted
            && window_s >= args.seconds * m.setups.len() as f64 / setups_wanted as f64
        {
            m.acc.absorb(w.acc())?;
            drop(w);
            w = build(tr, &mut cal, &mut m.setups)?;
        }
        tr.set_op(done as u64);
        let (t_round, steal0) = (Instant::now(), host::steal_ticks(cpu));
        let s = tr.begin("seq");
        let t = Instant::now();
        w.seq();
        let seq_s = t.elapsed().as_secs_f64();
        tr.end(s);
        let cal_s = cal.run();
        let mut jobs = Vec::new();
        let outcome = w.round(tr, &mut jobs);
        window_s += t_round.elapsed().as_secs_f64();
        steal += host::steal_ticks(cpu).saturating_sub(steal0);
        match outcome {
            Ok(op) => m.rounds.push(Round {
                cal: cal_s,
                seq: seq_s,
                op,
                jobs,
            }),
            Err(e) => {
                m.failure = Some(e);
                break;
            }
        }
    }
    m.acc.absorb(w.acc())?;
    // USER_HZ is 100 on every Linux this builds for.
    m.steal_share = steal as f64 / 100.0 / window_s.max(f64::MIN_POSITIVE);
    Ok((m, w))
}

fn print_metric(m: &Metric) {
    println!("{} = {:.6} {}", m.name, m.value, m.unit);
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Pin, measure, report.
fn run(args: &Args) -> Result<bool, String> {
    let cpus = host::allowed_cpus();
    let p = cpus.len().max(1);
    // The last allowed CPU: CPU 0 takes most of a guest's interrupts.
    let cpu = cpus.last().copied().unwrap_or(0);
    let pinned = host::set_cpus(&[cpu]);
    let (scratch, env) = scratch_env(args, p)?;
    let mut tr = Tracer::new(args.trace);
    let capacity_before = host::two_thread_capacity(&cpus);
    let (m, mut w) = measure(args, &env, cpu, &mut tr)?;
    let capacity_after = host::two_thread_capacity(&cpus);

    let jobs = m.jobs();
    let cals = m.cals();
    let failed = usize::from(m.failure.is_some());
    let attempted = jobs.len() + failed;
    let op_p50 = median(&m.ops());
    let op_cal = median(&m.ratios(|r| r.cal));
    let setup_walls: Vec<f64> = m.setups.iter().map(|s| s.wall).collect();
    let setup_cal: Vec<f64> = m.setups.iter().map(|s| s.wall / s.cal).collect();
    let end_to_end = [
        metric("setup_s", median(&setup_cal) * host::CAL_NOMINAL_S, "s"),
        metric("op_cal_ratio", op_cal, "x"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MiB"),
    ];

    println!("workload = {}", args.workload);
    println!("seed = {}", args.seed);
    if args.quick {
        println!("quick = true  (smoke run: {QUICK_ROUNDS} rounds — numbers unusable for claims)");
    }
    // Host block.
    let cal_p50 = median(&cals);
    let half = cals.len() / 2;
    let cal_drift = if half > 0 {
        (median(&cals[half..]) / median(&cals[..half]) - 1.0).abs()
    } else {
        0.0
    };
    let cal_iqr = iqr_share(&cals);
    let unstable = cal_iqr > 0.15 || cal_drift > 0.15;
    println!("host.nproc = {p}");
    println!("host.pinned = {pinned}");
    println!(
        "host.allocator_env = {}  ({})",
        host::allocator_env_in_effect(),
        host::ALLOC_ENV.map(|(k, v)| format!("{k}={v}")).join(" ")
    );
    println!("host.cal_p50_s = {cal_p50:.6} s");
    println!("host.cal_iqr_share = {cal_iqr:.4}");
    println!("host.cal_drift_share = {cal_drift:.4}");
    println!("host.steal_share = {:.4}", m.steal_share);
    println!("host.capacity2_before = {capacity_before:.3} x");
    println!("host.capacity2_after = {capacity_after:.3} x");
    println!("host_unstable = {unstable}");

    for e in &end_to_end {
        print_metric(e);
    }
    println!(
        "setup_wall_s = {:.6} s  (ungated: seconds follow the host)",
        median(&setup_walls)
    );
    println!("op_p50_s = {op_p50:.6} s  (ungated: seconds follow the host)");
    println!("ops_attempted = {attempted} ops");
    println!("ops_failed = {failed} ops");
    println!("rounds = {} rounds", m.rounds.len());
    println!("setups = {} setups", m.setups.len());
    match tail(&jobs) {
        Some((label, v)) => println!("op_tail_s = {v:.6} s  ({label} of {} ops)", jobs.len()),
        None => println!("op_tail_s = n/a  ({} ops, fewer than 20)", jobs.len()),
    }
    println!("op_iqr_share = {:.4}", iqr_share(&m.ops()));

    // Counts and self-reported seconds of one op: reported in every
    // mode; `--repeat-check` holds the counts to exact equality.
    let acc = &m.acc;
    let c = &acc.counts;
    let per_op = |total: f64| total / acc.ops.max(1) as f64;
    let seqs: Vec<f64> = m.rounds.iter().map(|r| r.seq).collect();
    let seq_per_op = w.seq_per_op();
    let mut layer = vec![
        metric("core.stages", c.stages as f64, "count"),
        metric("core.restarts", c.restarts as f64, "count"),
        metric("core.pr", c.pr(), "x"),
        metric("core.reexec_share", 100.0 * c.reexec_share(), "%"),
        metric("shadow.bytes_peak", c.shadow_bytes_peak as f64, "count"),
        metric("shadow.migrations", c.shadow_migrations as f64, "count"),
        metric(
            "core.journal.bytes_per_commit",
            c.journal_bytes as f64 / c.journal_commits.max(1) as f64,
            "count",
        ),
        metric(
            "dist.wire_bytes_per_stage",
            acc.wire_bytes as f64 / acc.stages.max(1) as f64,
            "B",
        ),
        metric(
            "core.overhead_x",
            median(&m.ratios(|r| r.seq * seq_per_op)),
            "x",
        ),
        metric("core.seq_p50_s", median(&seqs), "s"),
        metric("core.execute_s", per_op(acc.execute_s), "s"),
        metric("core.analysis_s", per_op(acc.analysis_s), "s"),
        metric("core.commit_s", per_op(acc.commit_s), "s"),
        metric("core.restore_s", per_op(acc.restore_s), "s"),
        metric("core.shadow_clear_s", per_op(acc.shadow_clear_s), "s"),
        metric("core.journal_s", per_op(acc.journal_s), "s"),
        metric("dist.dispatch_s", per_op(acc.dispatch_s), "s"),
        metric("dist.collect_s", per_op(acc.collect_s), "s"),
    ];
    if m.failure.is_some() || !args.trace {
        for l in &layer {
            print_metric(l);
        }
        if let Some(e) = &m.failure {
            println!("op_failure = {e}");
        }
        drop(w);
        drop(scratch);
        let correct = m.failure.is_none();
        println!("{}", json_line(correct, attempted, failed, &end_to_end));
        return Ok(correct);
    }

    layer.extend([
        metric("trace.op_p50_s", op_p50, "s"),
        metric("trace.op_cal_ratio", op_cal, "x"),
        metric("host.cal_p50_s", cal_p50, "s"),
    ]);
    // What no span accounts for: the self time of the op and of the
    // calls into the engine, as a share of all op time.
    let own = tr.self_times_under("op");
    let op_total = tr.total("op").max(f64::MIN_POSITIVE);
    let unattributed = ["op", "core.run"]
        .iter()
        .filter_map(|n| own.get(n))
        .sum::<f64>();
    layer.push(metric(
        "core.unattributed_share",
        100.0 * unattributed / op_total,
        "%",
    ));
    println!("-- self time per span, share of op time");
    for (name, secs) in &own {
        println!("share.{name} = {:.2} %", 100.0 * secs / op_total);
    }

    // Probes of the layers, after the window.
    layer.push(layers::pool_dispatch_us(p));
    layer.push(layers::stage_fixed_us(p)?);
    layer.push(layers::journal_append_fsync_us(&env.out_dir)?);
    layer.push(layers::wire_codec_ns_per_block()?);
    layer.extend(w.layers()?);
    drop(w);
    layer.extend(par_speedup(args, &cpus)?);
    layer.push(metric("trace.spans", tr.len() as f64, "count"));

    let path = out_root().join(format!("trace-{}.json", args.workload));
    tr.write_json(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace_file = {}", path.display());

    let full: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = layer
                .iter()
                .find(|l| l.name == name)
                .map_or(0.0, |l| l.value);
            metric(name, value, unit)
        })
        .collect();
    println!("-- per-layer metrics (0 = layer bypassed by this workload)");
    for l in &full {
        print_metric(l);
    }
    drop(scratch);
    println!("{}", json_line(true, attempted, 0, &full));
    Ok(true)
}

/// `runtime.par_speedup`: a fresh process with the pin lifted runs a
/// few `seq, op` rounds of the same workload and reports `seq ÷ op` —
/// the real-cores number. It does not repeat on a shared two-vCPU
/// host, so it is reported and never gated.
fn par_speedup(args: &Args, cpus: &[usize]) -> Result<Vec<Metric>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let list: Vec<String> = cpus.iter().map(|c| c.to_string()).collect();
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--par-probe", "--seed"])
        .arg(args.seed.to_string())
        .env(CPUS_ENV, list.join(","))
        .output()
        .map_err(|e| format!("par-probe child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let nums: Vec<f64> = text
        .lines()
        .last()
        .unwrap_or("")
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    if !out.status.success() || nums.len() != 2 {
        return Err(format!(
            "par-probe child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(vec![
        metric("runtime.par_speedup", nums[0], "x"),
        metric("runtime.par_speedup_iqr", nums[1], "x"),
    ])
}

/// The child side of [`par_speedup`]: prints `median iqr`.
fn par_probe(args: &Args) -> Result<bool, String> {
    let cpus: Vec<usize> = std::env::var(CPUS_ENV)
        .unwrap_or_default()
        .split(',')
        .filter_map(|c| c.parse().ok())
        .collect();
    host::set_cpus(&cpus);
    let (_scratch, env) = scratch_env(args, cpus.len().max(1))?;
    let (m, w) = measure(args, &env, 0, &mut Tracer::new(false))?;
    if let Some(e) = m.failure {
        return Err(e);
    }
    let k = w.seq_per_op();
    let speedups: Vec<f64> = m.ratios(|r| r.seq * k).iter().map(|x| 1.0 / x).collect();
    let (q1, q3) = stats::quartiles(&speedups);
    println!("{} {}", median(&speedups), q3 - q1);
    Ok(true)
}
