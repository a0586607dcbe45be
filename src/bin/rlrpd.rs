//! The `rlrpd` command-line tool: compile and speculatively execute
//! mini-language loop programs.
//!
//! ```text
//! rlrpd run <file.rlp> [--procs N] [--strategy nrd|rd|adaptive|sw:W]
//!                      [--checkpoint eager|ondemand]
//!                      [--balance even|feedback|trend]
//!                      [--pooled] [--timeline] [--report] [--runs K]
//!                      [--fault-seed S] [--watchdog F] [--max-restarts R]
//!                      [--max-stages M] [--journal <path>] [--resume]
//!                      [--dist-workers N|auto|SPEC] [--block-deadline SECS]
//!                      [--max-respawns R] [--fleet-max-respawns R]
//!                      [--heartbeat-interval SECS]
//!                      [--dist-fault k:O[,k:O...]] [--no-compile]
//!                      [--shadow-budget BYTES|auto]
//!                      [--shadow-fault STAGE:BYTES[,...]]
//!                      [--doacross auto|on|off] [--format text|json]
//! rlrpd worker [--listen ADDR [--idle-timeout SECS]]
//! rlrpd serve --state-dir DIR [--listen ADDR] [--pool-budget BYTES|auto]
//!             [--max-jobs N] [--stream-buffer FRAMES] [--resume]
//!             [--job-ttl SECS]
//! rlrpd submit --connect ADDR --key K <file.rlp | --spec SPEC> [--procs N]
//!              [--strategy S] [--shadow-budget BYTES|auto] [--fault-seed S]
//!              [--shadow-fault STAGE:BYTES[,...]] [--max-stages M]
//!              [--retry SECS] [--format text|json]
//! rlrpd status --connect ADDR --key K [--retry SECS] [--format text|json]
//! rlrpd chaos-proxy --listen ADDR --connect ADDR [--fault SPEC | --seed N]
//! rlrpd classify <file.rlp>
//! rlrpd analyze <file.rlp> [--procs N] [--format text|json] [--deny-warnings]
//!                          [--emit bytecode] [--audit]
//! rlrpd fmt <file.rlp>
//! rlrpd ddg <file.rlp> [--procs N] [--window W] [--save <out.bin>] [--pooled]
//! rlrpd model [n] [p] [omega] [ell] [sync] [alpha]
//! ```
//!
//! Exit codes:
//!
//! | code | meaning                                              |
//! |------|------------------------------------------------------|
//! |  0   | success                                              |
//! |  1   | other failure (I/O, compile error, internal); also   |
//! |      | `analyze` findings at error level, or warnings under |
//! |      | `--deny-warnings`                                    |
//! |  2   | genuine program fault (the loop itself is faulty)    |
//! |  3   | run exceeded its `--max-stages` cap                  |
//! |  4   | crash-journal failure (corrupt, mismatched, or I/O)  |
//! |  64  | usage error (unknown command, flag, or flag value;   |
//! |      | a combination of flags, or of a flag and a kind of   |
//! |      | program, that cannot run — refused before the first  |
//! |      | line of output, see README "What can be combined";   |
//! |      | `rlrpd worker` protocol errors, including a          |
//! |      | protocol-version mismatch between supervisor and     |
//! |      | worker binaries)                                     |
//!
//! Worker-fleet loss (`--dist-workers` with all respawn budget spent)
//! is **not** an exit code: the run degrades to in-process execution
//! and exits 0, reporting the degradation on stdout.

use rlrpd::core::report::json_string;
use rlrpd::core::{
    reduction_mask, verify_against_sequential, DistConnector, DoacrossConfig, FallbackPolicy,
    FaultPlan, PlanError, RunReport, Timeline,
};
use rlrpd::dist::{ChaosPlan, ChaosProxy, DistLauncher, DistPolicy, Endpoint};
use rlrpd::lang::{CompiledInduction, CompiledProgram, DoacrossVerdict};
use rlrpd::runtime::parse_bytes;
use rlrpd::{
    extract_ddg, run_sequential, BalancePolicy, CheckpointPolicy, ExecMode, FallbackReason,
    Journal, RlrpdError, RunConfig, RunPlan, Runner, Strategy, WindowConfig,
};
use std::num::NonZeroUsize;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// A CLI failure, classified for the process exit code.
enum CliError {
    /// Bad invocation: unknown command, flag, or flag value (exit 64,
    /// the BSD `EX_USAGE` convention).
    Usage(String),
    /// The run itself failed — a genuine program fault, the stage cap,
    /// the crash journal (exit [`RlrpdError::exit_code`]: 2 / 3 / 4).
    Run(RlrpdError),
    /// Everything else: I/O, compile errors (exit 1).
    Other(String),
}

impl CliError {
    fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 64,
            CliError::Run(e) => e.exit_code(),
            CliError::Other(_) => 1,
        }
    }

    fn message(&self) -> String {
        match self {
            CliError::Usage(m) | CliError::Other(m) => m.clone(),
            CliError::Run(e) => e.to_string(),
        }
    }

    /// A journal that could not be created or opened at `path`.
    fn journal(path: &str, e: rlrpd::JournalError) -> Self {
        CliError::Run(RlrpdError::Journal {
            message: format!("{path}: {e}"),
        })
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Other(m)
    }
}

impl From<RlrpdError> for CliError {
    fn from(e: RlrpdError) -> Self {
        CliError::Run(e)
    }
}

impl From<PlanError> for CliError {
    fn from(e: PlanError) -> Self {
        CliError::Run(e.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rlrpd: {}", e.message());
            ExitCode::from(e.code())
        }
    }
}

fn usage() -> String {
    "usage:\n  rlrpd run <file.rlp> [--procs N] [--strategy nrd|rd|adaptive|sw:W] \
     [--checkpoint eager|ondemand] [--balance even|feedback|trend] [--pooled] \
     [--timeline] [--report] [--runs K] [--fault-seed S] [--watchdog F] \
     [--max-restarts R] [--max-stages M] [--journal <path>] [--resume] \
     [--dist-workers N|auto|host:port[:N],local[:N],...] [--block-deadline SECS] \
     [--max-respawns R] [--fleet-max-respawns R] [--heartbeat-interval SECS] \
     [--dist-fault kill|hang|corrupt:ORDINAL[,...]] [--no-compile] \
     [--shadow-budget BYTES|auto] [--shadow-fault STAGE:BYTES[,...]] \
     [--doacross auto|on|off] [--format text|json]\n  rlrpd worker \
     [--listen ADDR [--idle-timeout SECS]]\n  rlrpd serve --state-dir DIR [--listen ADDR] \
     [--pool-budget BYTES|auto] [--max-jobs N] [--stream-buffer FRAMES] [--resume] \
     [--job-ttl SECS]\n  \
     rlrpd submit --connect ADDR --key K <file.rlp | --spec SPEC> [--procs N] \
     [--strategy S] [--shadow-budget BYTES|auto] [--fault-seed S] \
     [--shadow-fault STAGE:BYTES[,...]] [--max-stages M] [--retry SECS] \
     [--format text|json]\n  rlrpd status --connect ADDR --key K [--retry SECS] \
     [--format text|json]\n  rlrpd chaos-proxy --listen ADDR --connect ADDR \
     [--fault kind:conn[:arg][,...] | --seed N]\n  rlrpd classify \
     <file.rlp>\n  rlrpd analyze <file.rlp> [--procs N] [--format text|json] \
     [--deny-warnings] [--emit bytecode] [--audit]\n  rlrpd fmt <file.rlp>\n  rlrpd ddg <file.rlp> \
     [--procs N] [--window W] [--save <out.bin>] [--pooled]\n  rlrpd model [n p omega ell sync alpha]"
        .into()
}

fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut it = args.into_iter();
    let cmd = it.next().ok_or_else(|| CliError::Usage(usage()))?;
    let rest: Vec<String> = it.collect();
    match cmd.as_str() {
        "run" => cmd_run(rest),
        "worker" => cmd_worker(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "chaos-proxy" => cmd_chaos_proxy(rest),
        "classify" => cmd_classify(parse_flags(rest, &[], &[])?).map_err(CliError::from),
        "analyze" => cmd_analyze(rest),
        "fmt" => cmd_fmt(parse_flags(rest, &[], &[])?).map_err(CliError::from),
        "ddg" => cmd_ddg(parse_flags(
            rest,
            &["--procs", "--window", "--save"],
            &["--pooled"],
        )?),
        "model" => cmd_model(rest),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n{}",
            usage()
        ))),
    }
}

/// Pull `--flag value` pairs and lone `--flag`s out of `args`; the
/// remaining positional arguments are returned in order.
struct Flags {
    pairs: Vec<(String, String)>,
    lone: Vec<String>,
    positional: Vec<String>,
}

/// Split `args` into flags and positionals. `valued` names the
/// `--flag VALUE` pairs and `lone` the valueless flags *this
/// subcommand* understands; any other `--word` is a usage error naming
/// it, not a silently ignored word.
fn parse_flags(args: Vec<String>, valued: &[&str], lone: &[&str]) -> Result<Flags, CliError> {
    let mut flags = Flags {
        pairs: Vec::new(),
        lone: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            let v = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("{a} needs a value")))?;
            flags.pairs.push((a, v));
        } else if lone.contains(&a.as_str()) {
            flags.lone.push(a);
        } else if a.starts_with("--") {
            return Err(CliError::Usage(format!("unknown flag '{a}'\n{}", usage())));
        } else {
            flags.positional.push(a);
        }
    }
    Ok(flags)
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.lone.iter().any(|f| f == name)
    }

    /// Is `flag` on the command line? `--name` asks for the flag with
    /// any value (or the lone flag); `--name value` for that value.
    fn given(&self, flag: &str) -> bool {
        match flag.split_once(' ') {
            Some((name, value)) => self.get(name) == Some(value),
            None => self.get(flag).is_some() || self.has(flag),
        }
    }

    /// `--format text|json` (text when absent): is it JSON?
    fn json(&self) -> Result<bool, CliError> {
        match self.get("--format").unwrap_or("text") {
            "text" => Ok(false),
            "json" => Ok(true),
            other => Err(CliError::Usage(format!(
                "--format expects 'text' or 'json', got '{other}'"
            ))),
        }
    }

    /// `name`'s value as a `T` (`None` when absent); `what` says what
    /// a `T` is when the value is not one.
    fn parsed<T: std::str::FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("{name} expects {what}, got '{v}'"))
        };
        self.get(name).map(parse).transpose()
    }

    fn usize_of(&self, name: &str, default: usize) -> Result<usize, String> {
        Ok(self.parsed(name, "an integer")?.unwrap_or(default))
    }

    /// [`Flags::usize_of`] for a count that cannot be 0.
    fn count_of(&self, name: &str, default: usize) -> Result<usize, String> {
        let count = self.parsed::<NonZeroUsize>(name, "an integer of at least 1")?;
        Ok(count.map_or(default, NonZeroUsize::get))
    }

    /// `name SECS` as a duration (`None` when absent).
    fn seconds_of(&self, name: &str) -> Result<Option<Duration>, String> {
        let secs = self.parsed::<f64>(name, "seconds")?;
        let span = secs.map(Duration::try_from_secs_f64).transpose();
        span.map_err(|e| format!("{name} expects seconds: {e}"))
    }
}

/// `MemAvailable` from `/proc/meminfo`, in bytes.
fn mem_available() -> Result<u64, String> {
    let info = std::fs::read_to_string("/proc/meminfo")
        .map_err(|e| format!("cannot read /proc/meminfo: {e}"))?;
    info.lines()
        .find_map(|l| l.strip_prefix("MemAvailable:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no MemAvailable in /proc/meminfo".into())
}

/// The machine-derived budget `auto` resolves to for a *standalone*
/// process: a quarter of `MemAvailable`. (Under `rlrpd serve`, `auto`
/// means something else entirely — "carve my share from the daemon's
/// pool" — and never consults the machine; the daemon's admission
/// control is the authority there.)
fn auto_budget(flag: &str) -> Result<u64, String> {
    let avail = mem_available().map_err(|e| format!("{flag} auto: {e}"))?;
    Ok((avail / 4).max(1))
}

/// Resolve `--shadow-budget` (`None` when the flag is absent: shadow
/// memory stays ungoverned). `auto` derives a cap from the machine's
/// available memory (a quarter of `MemAvailable`); an unreadable
/// `/proc/meminfo` is a usage error rather than a silent unlimited run.
/// A budget that cannot actually be satisfied warns up front instead
/// of thrashing silently mid-run.
fn shadow_budget(flags: &Flags) -> Result<Option<u64>, String> {
    let Some(v) = flags.get("--shadow-budget") else {
        return Ok(None);
    };
    if v == "auto" {
        let cap = auto_budget("--shadow-budget")?;
        if cap < (1 << 20) {
            eprintln!(
                "rlrpd: warning: --shadow-budget auto resolved to only {cap} bytes \
                 (the machine is memory-starved); expect down-tiering or sequential fallback"
            );
        }
        return Ok(Some(cap));
    }
    let bytes = parse_bytes(v).map_err(|e| format!("--shadow-budget {e}"))?;
    if let Ok(avail) = mem_available() {
        if bytes > avail {
            eprintln!(
                "rlrpd: warning: --shadow-budget {bytes} exceeds available memory \
                 ({avail} bytes); the budget cannot be honored if the shadows actually \
                 grow that large"
            );
        }
    }
    Ok(Some(bytes))
}

/// The fault plan `--fault-seed` / `--shadow-fault` arm on a loop of `n`
/// iterations, with the lines that announce it (`None` when neither
/// flag is given).
fn fault_plan(flags: &Flags, n: usize) -> Result<Option<(Arc<FaultPlan>, String)>, String> {
    let seed = flags.parsed("--fault-seed", "an integer")?;
    let spec = flags.get("--shadow-fault");
    let Some(plan) =
        FaultPlan::from_options(seed, spec, n).map_err(|e| format!("--shadow-fault {e}"))?
    else {
        return Ok(None);
    };
    let mut said = String::new();
    if let Some(seed) = seed {
        // Transient (one-shot) injected fault: the containment layer
        // recovers and the run must still verify.
        let panic = FaultPlan::seeded_panic(seed, n);
        said = format!("fault injection: seed {seed} -> {panic}\n");
    }
    if spec.is_some() {
        said += &format!("fault injection: {plan}\n");
    }
    Ok(Some((Arc::new(plan), said)))
}

fn source(flags: &Flags) -> Result<String, String> {
    let path = flags
        .positional
        .first()
        .ok_or("expected a program file (.rlp)".to_string())?;
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn load(flags: &Flags) -> Result<CompiledProgram, String> {
    CompiledProgram::compile(&source(flags)?).map_err(|e| e.to_string())
}

/// `--procs` and `--strategy` when absent, for every subcommand that
/// takes them.
const DEFAULT_PROCS: usize = 8;
const DEFAULT_STRATEGY: &str = "adaptive";

fn config(flags: &Flags) -> Result<RunConfig, String> {
    let p = flags.usize_of("--procs", DEFAULT_PROCS)?;
    let strategy: Strategy = flags
        .get("--strategy")
        .unwrap_or(DEFAULT_STRATEGY)
        .parse()
        .map_err(|e| format!("--strategy: {e}"))?;
    let checkpoint = match flags.get("--checkpoint").unwrap_or("ondemand") {
        "eager" => CheckpointPolicy::Eager,
        "ondemand" => CheckpointPolicy::OnDemand,
        other => return Err(format!("unknown checkpoint policy '{other}'")),
    };
    let balance = match flags.get("--balance").unwrap_or("even") {
        "even" => BalancePolicy::Even,
        "feedback" => BalancePolicy::FeedbackGuided,
        "trend" => BalancePolicy::FeedbackTrend,
        other => return Err(format!("unknown balance policy '{other}'")),
    };
    let exec = if flags.has("--pooled") {
        ExecMode::Pooled
    } else {
        ExecMode::Simulated
    };
    let watchdog = flags.parsed::<f64>("--watchdog", "a number")?;
    if watchdog.is_some_and(|factor| !(factor.is_finite() && factor > 0.0)) {
        let bad = flags.get("--watchdog").unwrap_or_default();
        return Err(format!(
            "--watchdog expects a finite number > 0, got '{bad}'"
        ));
    }
    let fallback = FallbackPolicy::default()
        .with_max_restarts(flags.usize_of("--max-restarts", usize::MAX)?)
        .with_watchdog(watchdog.unwrap_or(f64::INFINITY));
    let mut cfg = RunConfig::new(p)
        .with_strategy(strategy)
        .with_checkpoint(checkpoint)
        .with_balance(balance)
        .with_exec(exec)
        .with_fallback(fallback);
    cfg.max_stages = flags.usize_of("--max-stages", cfg.max_stages)?;
    cfg = cfg.with_shadow_budget(shadow_budget(flags)?);
    Ok(cfg)
}

/// `--doacross` selection: whether proven dependence distances may (or
/// must) replace speculation with post/wait pipelining.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DoacrossMode {
    /// Pipeline loops the classifier proves eligible; speculate on the
    /// rest (the default).
    Auto,
    /// Require the proof: exit 64 if any loop is not eligible.
    On,
    /// Never pipeline; always speculate.
    Off,
}

fn doacross_mode(flags: &Flags) -> Result<DoacrossMode, String> {
    match flags.get("--doacross").unwrap_or("auto") {
        "auto" => Ok(DoacrossMode::Auto),
        "on" => Ok(DoacrossMode::On),
        "off" => Ok(DoacrossMode::Off),
        other => Err(format!("--doacross expects auto|on|off, got '{other}'")),
    }
}

/// `rlrpd worker`: speak the distributed worker protocol — on
/// stdin/stdout until the supervisor hangs up, or as a standalone TCP
/// listener under `--listen ADDR` (serving any number of supervisors
/// until killed). Exits 64 on protocol or usage errors, matching the
/// CLI's usage-error convention.
fn cmd_worker(args: Vec<String>) -> Result<(), CliError> {
    let flags = parse_flags(args, &["--listen", "--idle-timeout"], &[])?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(
            "worker takes only --listen ADDR [--idle-timeout SECS]; without --listen, \
             it speaks the fleet protocol on stdin/stdout"
                .into(),
        ));
    }
    // Idle reaper for listener sessions: a connection that never sends
    // its hello within this window is reclaimed. 0 disables.
    let idle = match flags
        .seconds_of("--idle-timeout")
        .map_err(CliError::Usage)?
    {
        None => Some(rlrpd::dist::DEFAULT_IDLE_TIMEOUT),
        Some(d) => (!d.is_zero()).then_some(d),
    };
    match flags.get("--listen") {
        Some(addr) => std::process::exit(rlrpd::dist::listen_entry(addr, idle)),
        None => {
            if flags.get("--idle-timeout").is_some() {
                return Err(CliError::Usage(
                    "--idle-timeout requires --listen (stdio sessions have no accept loop)".into(),
                ));
            }
            std::process::exit(rlrpd::dist::worker_entry())
        }
    }
}

/// `rlrpd serve`: the long-lived multi-tenant job daemon. Accepts
/// submissions over the length-framed protocol, multiplexes runs over
/// one process-wide budget pool, journals every job under
/// `--state-dir`, drains gracefully on SIGTERM, and resumes
/// incomplete jobs on restart under `--resume`. Runs until signalled.
fn cmd_serve(args: Vec<String>) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "--state-dir",
            "--listen",
            "--pool-budget",
            "--max-jobs",
            "--stream-buffer",
            "--job-ttl",
        ],
        &["--resume"],
    )?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(
            "serve takes no positional arguments (jobs arrive over the wire)".into(),
        ));
    }
    let state_dir = flags
        .get("--state-dir")
        .ok_or_else(|| CliError::Usage("serve needs --state-dir DIR".into()))?;
    let pool_budget = match flags.get("--pool-budget") {
        None => 64 << 20,
        Some("auto") => auto_budget("--pool-budget").map_err(CliError::Usage)?,
        Some(v) => parse_bytes(v).map_err(|e| CliError::Usage(format!("--pool-budget {e}")))?,
    };
    let cfg = rlrpd::serve::ServeConfig {
        listen: flags.get("--listen").unwrap_or("127.0.0.1:0").to_string(),
        state_dir: state_dir.into(),
        pool_budget,
        max_jobs: flags.count_of("--max-jobs", 4).map_err(CliError::Usage)?,
        stream_buffer: flags
            .count_of("--stream-buffer", 256)
            .map_err(CliError::Usage)?,
        resume: flags.has("--resume"),
        job_ttl: flags.seconds_of("--job-ttl").map_err(CliError::Usage)?,
        ..rlrpd::serve::ServeConfig::default()
    };
    std::process::exit(rlrpd::serve::serve_entry(cfg))
}

/// Parse `--key K` (decimal or 0x-prefixed hex).
fn job_key(flags: &Flags) -> Result<u64, CliError> {
    let v = flags
        .get("--key")
        .ok_or_else(|| CliError::Usage("--key K is required (the job's idempotency key)".into()))?;
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| CliError::Usage(format!("--key expects an integer, got '{v}'")))
}

/// Shared client retry options from `--retry SECS`.
fn client_options(flags: &Flags, progress: bool) -> Result<rlrpd::serve::ClientOptions, CliError> {
    let deadline = flags.seconds_of("--retry").map_err(CliError::Usage)?;
    if deadline.is_some_and(|d| d.is_zero()) {
        return Err(CliError::Usage("--retry must be positive seconds".into()));
    }
    Ok(rlrpd::serve::ClientOptions {
        deadline: deadline.unwrap_or(Duration::from_secs(60)),
        progress,
        ..rlrpd::serve::ClientOptions::default()
    })
}

/// A job-status frame as one JSON object (the embedded report uses
/// the same schema as `rlrpd run --format json`).
fn status_json(st: &rlrpd::core::remote::JobStatusFrame) -> String {
    format!(
        "{{\"key\":\"{:016x}\",\"state\":\"{:?}\",\"exit_code\":{},\"verified\":{},\
         \"frontier\":{},\"report\":{},\"message\":{}}}",
        st.key,
        st.state,
        st.exit_code,
        st.verified,
        st.frontier,
        if st.report_json.is_empty() {
            "null"
        } else {
            &st.report_json
        },
        json_string(&st.message)
    )
}

/// `rlrpd submit`: send one job to a daemon and follow it to its
/// terminal status, reconnecting (idempotently, keyed by `--key`)
/// through daemon restarts. The process exits with the *job's* exit
/// code under the CLI contract (0 success / 2 program fault / 3 stage
/// limit / 4 journal / 1 other), so shell pipelines treat a remote
/// run exactly like a local one.
fn cmd_submit(args: Vec<String>) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "--connect",
            "--key",
            "--spec",
            "--procs",
            "--strategy",
            "--shadow-budget",
            "--fault-seed",
            "--shadow-fault",
            "--max-stages",
            "--retry",
            "--format",
        ],
        &[],
    )?;
    let addr = flags
        .get("--connect")
        .ok_or_else(|| CliError::Usage("submit needs --connect ADDR".into()))?;
    let key = job_key(&flags)?;
    let spec_str = match (flags.get("--spec"), flags.positional.first()) {
        (Some(s), None) => s.to_string(),
        (None, Some(path)) => {
            let src = std::fs::read_to_string(path)
                .map_err(|e| CliError::Usage(format!("{path}: {e}")))?;
            format!("rlp:{src}")
        }
        _ => {
            return Err(CliError::Usage(
                "submit takes a program file or --spec SPEC (exactly one)".into(),
            ))
        }
    };
    // `auto` (or omitting the flag) asks the daemon to carve a fair
    // share of its pool; an explicit byte count is a hard request the
    // daemon may queue behind, or reject if it exceeds the whole pool.
    let budget_bytes = match flags.get("--shadow-budget") {
        None | Some("auto") => 0,
        Some(v) => parse_bytes(v).map_err(|e| CliError::Usage(format!("--shadow-budget {e}")))?,
    };
    let json = flags.json()?;
    let spec = rlrpd::core::remote::JobSpec {
        protocol: rlrpd::core::remote::SERVE_PROTOCOL_VERSION,
        key,
        spec: spec_str,
        p: flags
            .usize_of("--procs", DEFAULT_PROCS)
            .map_err(CliError::Usage)? as u32,
        strategy: flags
            .get("--strategy")
            .unwrap_or(DEFAULT_STRATEGY)
            .to_string(),
        budget_bytes,
        // A job spec reads 0 as unset, so the 0 that `run` would act
        // on is refused here rather than dropped.
        fault_seed: flags.count_of("--fault-seed", 0).map_err(CliError::Usage)? as u64,
        shadow_fault: flags.get("--shadow-fault").unwrap_or("").to_string(),
        max_stages: flags.count_of("--max-stages", 0).map_err(CliError::Usage)? as u64,
    };
    let opts = client_options(&flags, !json)?;
    match rlrpd::serve::submit(addr, &spec, &opts) {
        Ok(out) => {
            if json {
                println!("{}", status_json(&out.status));
            } else {
                println!(
                    "job {key:016x}: {:?}, exit {}, verified {}, frontier {}, \
                     {} frames ({} dropped, {} reconnects)",
                    out.status.state,
                    out.status.exit_code,
                    out.status.verified,
                    out.status.frontier,
                    out.frames,
                    out.dropped,
                    out.reconnects
                );
                if !out.status.message.is_empty() {
                    println!("job {key:016x}: {}", out.status.message);
                }
            }
            std::process::exit(out.status.exit_code as i32)
        }
        Err(rlrpd::serve::ClientError::Rejected(r)) => {
            Err(CliError::Usage(format!("submission rejected: {r}")))
        }
        Err(e) => Err(CliError::Other(e.to_string())),
    }
}

/// `rlrpd status`: one status query by key. Exits with the job's exit
/// code when it is terminal, 0 while it is queued/running/paused, and
/// 1 when the daemon has no job under the key.
fn cmd_status(args: Vec<String>) -> Result<(), CliError> {
    use rlrpd::core::remote::JobState;
    let flags = parse_flags(args, &["--connect", "--key", "--retry", "--format"], &[])?;
    let addr = flags
        .get("--connect")
        .ok_or_else(|| CliError::Usage("status needs --connect ADDR".into()))?;
    let key = job_key(&flags)?;
    let json = flags.json()?;
    let opts = client_options(&flags, false)?;
    let st =
        rlrpd::serve::query_status(addr, key, &opts).map_err(|e| CliError::Other(e.to_string()))?;
    if json {
        println!("{}", status_json(&st));
    } else {
        println!(
            "job {key:016x}: {:?}, exit {}, verified {}, frontier {}{}",
            st.state,
            st.exit_code,
            st.verified,
            st.frontier,
            if st.message.is_empty() {
                String::new()
            } else {
                format!(" ({})", st.message)
            }
        );
    }
    match st.state {
        JobState::Done | JobState::Failed => std::process::exit(st.exit_code as i32),
        JobState::Unknown => Err(CliError::Other(format!("no job under key {key:016x}"))),
        _ => Ok(()),
    }
}

/// `rlrpd chaos-proxy`: the deterministic network-fault injector, as a
/// standalone process for CI and manual chaos runs. Forwards `--listen`
/// to `--connect`, injecting the faults of `--fault SPEC` (or a
/// seed-derived plan under `--seed N`) keyed by connection ordinal.
/// Runs until killed.
fn cmd_chaos_proxy(args: Vec<String>) -> Result<(), CliError> {
    let flags = parse_flags(args, &["--listen", "--connect", "--fault", "--seed"], &[])?;
    if !flags.positional.is_empty() {
        return Err(CliError::Usage(
            "chaos-proxy takes only --listen, --connect, and --fault/--seed".into(),
        ));
    }
    let listen = flags
        .get("--listen")
        .ok_or_else(|| CliError::Usage("chaos-proxy needs --listen ADDR".into()))?;
    let target = flags
        .get("--connect")
        .ok_or_else(|| CliError::Usage("chaos-proxy needs --connect ADDR".into()))?;
    let plan = match (
        flags.get("--fault"),
        flags
            .parsed("--seed", "an integer")
            .map_err(CliError::Usage)?,
    ) {
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--fault and --seed are mutually exclusive".into(),
            ))
        }
        (Some(spec), None) => ChaosPlan::parse(spec).map_err(CliError::Usage)?,
        (None, Some(seed)) => ChaosPlan::seeded(seed),
        (None, None) => ChaosPlan::new(),
    };
    let summary = plan.to_string();
    let proxy = ChaosProxy::bind(listen, target, plan)
        .map_err(|e| CliError::Other(format!("cannot listen on {listen}: {e}")))?;
    let local = proxy
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| listen.to_string());
    println!("chaos proxy listening on {local} -> {target} ({summary})");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    proxy.run(); // forever
    Ok(())
}

/// Parse a `--dist-workers` spec into worker endpoints.
///
/// Grammar: `auto` | `N` (local subprocess workers, clamped to the
/// machine's parallelism) | a comma list of `local`, `local:N`,
/// `host:port`, and `host:port:N` entries composing subprocess and
/// remote TCP workers in one fleet.
fn parse_dist_workers(spec: &str) -> Result<Vec<Endpoint>, String> {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if spec == "auto" {
        return Ok(vec![Endpoint::Local; available]);
    }
    if let Ok(n) = spec.parse::<usize>() {
        if n == 0 {
            return Err("--dist-workers expects at least 1 worker".into());
        }
        let n = if n > available {
            eprintln!(
                "rlrpd: warning: --dist-workers {n} exceeds available parallelism \
                 ({available}); clamping to {available}"
            );
            available
        } else {
            n
        };
        return Ok(vec![Endpoint::Local; n]);
    }
    let mut endpoints = Vec::new();
    for entry in spec.split(',') {
        let usage = || {
            format!(
                "bad --dist-workers entry '{entry}' (expected local, local:N, \
                 host:port, or host:port:N)"
            )
        };
        if entry == "local" {
            endpoints.push(Endpoint::Local);
        } else if let Some(count) = entry.strip_prefix("local:") {
            let n: usize = count.parse().map_err(|_| usage())?;
            if n == 0 {
                return Err(usage());
            }
            endpoints.extend(std::iter::repeat_n(Endpoint::Local, n));
        } else {
            // host:port, or host:port:N — split the trailing count off
            // only when what remains still holds a host:port pair.
            let (addr, n) = match entry.rsplit_once(':') {
                Some((head, tail)) if head.contains(':') => {
                    let n: usize = tail.parse().map_err(|_| usage())?;
                    (head, n)
                }
                Some(_) => (entry, 1),
                None => return Err(usage()),
            };
            if n == 0 || addr.is_empty() {
                return Err(usage());
            }
            endpoints.extend(std::iter::repeat_n(Endpoint::Tcp(addr.to_string()), n));
        }
    }
    if endpoints.is_empty() {
        return Err("--dist-workers expects at least 1 worker".into());
    }
    Ok(endpoints)
}

/// The fleet `--dist-workers` asks for (`None` without it): a launcher
/// whose `local` slots run `rlrpd worker` on this very binary and whose
/// `host:port` slots dial standalone listeners, under the policy and
/// worker-fault plan of the fleet's other flags. Nothing is launched
/// until a run connects.
fn dist_launcher(flags: &Flags) -> Result<Option<DistLauncher>, String> {
    let Some(workers) = flags.get("--dist-workers") else {
        for f in [
            "--block-deadline",
            "--max-respawns",
            "--fleet-max-respawns",
            "--heartbeat-interval",
            "--dist-fault",
        ] {
            if flags.get(f).is_some() {
                return Err(format!("{f} requires --dist-workers"));
            }
        }
        return Ok(None);
    };
    let endpoints = parse_dist_workers(workers)?;
    let mut policy = DistPolicy {
        workers: endpoints.len(),
        ..DistPolicy::default()
    };
    if let Some(d) = flags.seconds_of("--block-deadline")? {
        policy.block_deadline = d;
    }
    policy.max_respawns = flags.usize_of("--max-respawns", policy.max_respawns)?;
    policy.fleet_max_respawns =
        flags.usize_of("--fleet-max-respawns", policy.fleet_max_respawns)?;
    if let Some(d) = flags.seconds_of("--heartbeat-interval")? {
        policy.heartbeat = d;
    }
    policy.validate()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut launcher = DistLauncher::new(exe, vec!["worker".into()])
        .with_policy(policy)
        .with_endpoints(endpoints);
    if let Some(spec) = flags.get("--dist-fault") {
        let mut plan = FaultPlan::new();
        for part in spec.split(',') {
            let (kind, ordinal) = part.split_once(':').ok_or(format!(
                "--dist-fault expects kind:ordinal entries, got '{part}'"
            ))?;
            let ordinal: usize = ordinal
                .parse()
                .map_err(|_| format!("bad dispatch ordinal '{ordinal}' in --dist-fault"))?;
            plan = match kind {
                "kill" => plan.kill_worker_at(ordinal),
                "hang" => plan.hang_worker_at(ordinal),
                "corrupt" => plan.corrupt_result_at(ordinal),
                other => {
                    return Err(format!(
                        "unknown worker fault '{other}' (expected kill, hang, or corrupt)"
                    ))
                }
            };
        }
        launcher = launcher.with_fault(Arc::new(plan));
    }
    Ok(Some(launcher))
}

/// The program kinds whose run scheme cannot honour every flag.
const MULTI: &str = "a multi-loop program";
const COUNTER: &str = "a counter program";

/// What a program kind cannot honour — `(kind, flags, reason)`, a flag
/// spelt `--name value` meaning that one value of it. Every flag `run`
/// accepts is honoured by every program kind (a single loop honours
/// them all) or is a row here; with [`RunPlan::validate`] this is
/// checked before the first line of output, the first file created and
/// the first worker launched.
const KIND_RULES: [(&str, &[&str], &str); 8] = [
    (
        MULTI,
        &["--journal"],
        "one journal file records the run of one loop",
    ),
    (MULTI, &["--dist-workers"], "one worker spec names one loop"),
    (
        COUNTER,
        &[
            "--strategy",
            "--checkpoint",
            "--balance",
            "--max-restarts",
            "--watchdog",
            "--max-stages",
        ],
        "the induction scheme is two doalls and a range test: it has no stage to \
         reschedule, checkpoint, balance, restart or cap",
    ),
    (
        COUNTER,
        &["--runs", "--report", "--timeline", "--format json"],
        "the induction scheme runs once and reports on its one summary line",
    ),
    (
        COUNTER,
        &["--fault-seed", "--shadow-fault", "--shadow-budget"],
        "the induction scheme keeps no shadow memory and has no rollback for an \
         injected fault to exercise",
    ),
    (
        COUNTER,
        &["--journal"],
        "the induction scheme has no commit point to journal",
    ),
    (
        COUNTER,
        &["--dist-workers"],
        "the induction scheme has no block to dispatch",
    ),
    (
        COUNTER,
        &["--doacross on"],
        "the induction scheme has no loop body to pipeline",
    ),
];

/// Refuse the first flag on the command line that `kind` cannot honour.
fn check_kind(kind: &str, flags: &Flags) -> Result<(), CliError> {
    for (_, refused, reason) in KIND_RULES.iter().filter(|(k, ..)| *k == kind) {
        if let Some(flag) = refused.iter().find(|f| flags.given(f)) {
            return Err(CliError::Usage(format!("{flag} on {kind}: {reason}")));
        }
    }
    Ok(())
}

/// A run's attachments: its journal, and the fleet `connector` launches
/// for the loop `spec` names.
fn attach<'a>(
    journal: Option<&'a mut Journal>,
    spec: &'a str,
    connector: &'a mut Option<DistLauncher>,
    resume: bool,
) -> RunPlan<'a> {
    RunPlan {
        journal,
        fleet: connector
            .as_mut()
            .map(|c| (spec, c as &mut dyn DistConnector)),
        resume,
    }
}

/// One loop's run, decided before anything is printed.
struct Leg {
    cfg: RunConfig,
    /// The proven distances, when the loop pipelines.
    proven: Option<DoacrossConfig>,
    /// Why `--doacross auto` stepped a provable loop down to speculation.
    skipped: Option<PlanError>,
    fault: Option<(Arc<FaultPlan>, String)>,
}

/// Decide every loop's leg, top rung of the ladder first: `--doacross
/// on` demands the proof and the pipeline; `auto` pipelines the loops
/// that have the proof where the plan allows it and speculates on the
/// rest. `probe` is the run's plan as far as it is known before the
/// journal is opened; nothing is printed and nothing started.
fn plan_legs(
    prog: &CompiledProgram,
    cfg: RunConfig,
    flags: &Flags,
    doacross: DoacrossMode,
    probe: &RunPlan<'_>,
) -> Result<Vec<Leg>, CliError> {
    let mut legs = Vec::new();
    for k in 0..prog.num_loops() {
        let (lo, hi) = prog.program().loops[k].range;
        let fault = fault_plan(flags, hi - lo).map_err(CliError::Usage)?;
        let armed = fault.as_ref().map(|(plan, _)| &**plan);
        let cfg = cfg.with_dependence_prediction(prog.predicted_first_dependence(k));
        let mut proven = match doacross {
            DoacrossMode::Off => None,
            _ => prog.doacross_config(k),
        };
        if doacross == DoacrossMode::On && proven.is_none() {
            let reason = match &prog.doacross_plan(k).verdict {
                DoacrossVerdict::Blocked(b) => b.reason.clone(),
                DoacrossVerdict::Independent => "no cross-iteration dependence exists (a doall: \
                                                 synchronization would be pure overhead)"
                    .into(),
                DoacrossVerdict::Eligible => unreachable!("eligible proves Some"),
            };
            return Err(CliError::Usage(format!(
                "--doacross on: loop {k} is not provably DOACROSS-eligible: {reason}"
            )));
        }
        let mut skipped = None;
        if doacross == DoacrossMode::Auto && proven.is_some() {
            if let Err(e) = probe.validate(&cfg.auto_strategy(proven), armed) {
                (skipped, proven) = (Some(e), None);
            }
        }
        let cfg = cfg.auto_strategy(proven);
        probe.validate(&cfg, armed)?;
        legs.push(Leg {
            cfg,
            proven,
            skipped,
            fault,
        });
    }
    Ok(legs)
}

/// The tail every `run k:` line shares.
fn run_line(report: &RunReport) -> String {
    let faults = report.contained_faults();
    format!(
        "stages = {}, restarts = {}, PR = {:.3}, speedup = {}{}{}{}{}",
        report.stages.len(),
        report.restarts,
        report.pr(),
        report.speedup_text(),
        match report.exited_at {
            Some(e) => format!(", exited at iteration {e}"),
            None => String::new(),
        },
        match report.resumed_at {
            Some(f) => format!(", resumed from iteration {f}"),
            None => String::new(),
        },
        if faults > 0 {
            format!(", contained faults = {faults}")
        } else {
            String::new()
        },
        match report.fallback {
            Some(FallbackReason::WorkerLoss) =>
                ", degraded to in-process (worker loss)".to_string(),
            Some(r) => format!(", fell back to sequential ({r:?})"),
            None => String::new(),
        }
    )
}

fn cmd_run(args: Vec<String>) -> Result<(), CliError> {
    let flags = parse_flags(
        args,
        &[
            "--procs",
            "--strategy",
            "--checkpoint",
            "--balance",
            "--runs",
            "--fault-seed",
            "--watchdog",
            "--max-restarts",
            "--max-stages",
            "--journal",
            "--dist-workers",
            "--block-deadline",
            "--max-respawns",
            "--fleet-max-respawns",
            "--heartbeat-interval",
            "--dist-fault",
            "--shadow-budget",
            "--shadow-fault",
            "--doacross",
            "--format",
        ],
        &[
            "--pooled",
            "--resume",
            "--no-compile",
            "--report",
            "--timeline",
        ],
    )?;
    let src = source(&flags)?;
    let journal_path = flags.get("--journal");
    let resume = flags.has("--resume");
    let mut connector = dist_launcher(&flags).map_err(CliError::Usage)?;
    let workers = connector.as_ref().map(|fleet| fleet.policy.workers);
    let json = flags.json()?;
    let no_compile = flags.has("--no-compile");
    let doacross = doacross_mode(&flags).map_err(CliError::Usage)?;
    let runs = flags.count_of("--runs", 1).map_err(CliError::Usage)?;
    if journal_path.is_some() && runs > 1 {
        return Err(CliError::Usage(
            "--journal records exactly one run; drop --runs".into(),
        ));
    }
    let mut cfg = config(&flags).map_err(CliError::Usage)?;
    if connector.is_some() {
        cfg.exec = ExecMode::Distributed;
    }
    // The worker fleet resolves the same source through the spec
    // registry, rebuilding an identical loop on its side of the pipe —
    // on the same backend, so --no-compile reaches the workers too.
    let spec = if no_compile {
        format!("rlp-interp:{src}")
    } else {
        format!("rlp:{src}")
    };
    // Plans are validated before the journal is opened: a journal never
    // makes a plan illegal, and its absence refuses only a resume (and a
    // fault plan of journal-record sites, which no flag here arms).
    let probe = attach(
        None,
        &spec,
        &mut connector,
        resume && journal_path.is_none(),
    );

    // Counter programs run under the EXTEND two-pass induction scheme.
    if let Ok(ind) = CompiledInduction::compile(&src) {
        check_kind(COUNTER, &flags)?;
        probe.validate(&cfg, None)?;
        let ind = if no_compile {
            ind.with_interpreter()
        } else {
            ind
        };
        return run_induction_program(ind, &cfg);
    }
    let mut prog = CompiledProgram::compile(&src).map_err(|e| e.to_string())?;
    if no_compile {
        prog = prog.with_interpreter();
    }
    let multi = prog.num_loops() > 1;
    if multi {
        check_kind(MULTI, &flags)?;
    }

    let legs = plan_legs(&prog, cfg, &flags, doacross, &probe)?;

    if let Some(cap) = cfg.shadow_budget {
        println!("shadow budget: {cap} bytes");
    }
    println!("classification:\n{}", prog.report());
    println!("backend: {}", prog.backend().describe());

    // The one per-loop body; a program is its loops through it in turn.
    let res = prog.run_loops(|k, state| -> Result<_, CliError> {
        let Leg {
            cfg,
            proven,
            skipped,
            fault,
        } = &legs[k];
        let at = if multi {
            format!("loop {k}: ")
        } else {
            String::new()
        };
        let lp = match proven {
            // The proof licenses a plain zero-shadow view: post/wait
            // cells, not the LRPD test, order conflicting accesses.
            Some(_) => prog.loop_view_plain(k, state),
            None => prog.loop_view(k, state),
        };
        if let Some(why) = skipped {
            println!("{at}doacross: skipped ({why})");
        }
        if let Some(d) = proven {
            println!(
                "{at}doacross: proven distances {:?}, pipeline depth min({}, {}) = {}",
                d.distances(),
                d.min_distance(),
                cfg.p,
                d.pipeline_depth(cfg.p)
            );
        }
        // A stateful runner accumulates PR and balancing history across
        // --runs instantiations.
        let mut runner = Runner::new(*cfg);
        if let Some((plan, said)) = fault {
            said.lines().for_each(|line| println!("{at}{line}"));
            runner = runner.with_fault(Arc::clone(plan));
        }
        let mut last = None;
        for r in 0..runs {
            let mut journal = match journal_path {
                Some(path) if resume => {
                    let j = Journal::open(path).map_err(|e| CliError::journal(path, e))?;
                    if j.truncated_bytes() > 0 {
                        println!(
                            "journal: discarded {} torn/corrupt trailing bytes",
                            j.truncated_bytes()
                        );
                    }
                    Some(j)
                }
                Some(path) => Some(Journal::create(path).map_err(|e| CliError::journal(path, e))?),
                None => None,
            };
            let plan = attach(journal.as_mut(), &spec, &mut connector, resume);
            let res = runner.execute(&lp, plan)?;
            if let (Some(path), Some(journal)) = (journal_path, &journal) {
                println!(
                    "journal: {path} holds {} records ({} commits)",
                    journal.records(),
                    journal.commits().len()
                );
            }
            println!("{at}run {r}: {}", run_line(&res.report));
            last = Some(res);
        }
        let res = last.expect("at least one run");
        if let Some(workers) = workers {
            println!(
                "distributed: {workers} workers, {} respawns, {} quarantined, {} wire bytes, \
                 {:.4}s dispatch, {:.4}s collect",
                res.report.respawns(),
                res.report.quarantined(),
                res.report.wire_bytes(),
                res.report.dispatch_seconds(),
                res.report.collect_seconds()
            );
        }
        let (migrations, pressure) = (
            res.report.shadow_migrations(),
            res.report.shadow_pressure_events(),
        );
        if cfg.shadow_budget.is_some() || migrations > 0 || pressure > 0 {
            println!(
                "{at}shadow: peak {} bytes{}, {migrations} migrations, {pressure} pressure events",
                res.report.shadow_bytes_peak(),
                match cfg.shadow_budget {
                    Some(cap) => format!(" of {cap} budget"),
                    None => " (unlimited budget)".into(),
                }
            );
        }
        println!("{at}program-lifetime PR = {:.3}", runner.pr.pr());
        if flags.has("--report") {
            println!("\n{}", res.report);
        }
        if flags.has("--timeline") {
            println!("\n{}", Timeline::from_result(&res, cfg.p).render());
        }

        // Always verify against sequential execution of this loop from
        // the state it started from: bit identity, except that a
        // reduction reassociates floating-point sums across blocks, so
        // arrays declaring one compare at a rounding-level tolerance.
        // The plain view of a DOACROSS run declares none: it runs in
        // sequential-equivalent order and must be byte-identical
        // throughout.
        let (seq, _) = run_sequential(&lp);
        verify(&seq, &res.arrays, &reduction_mask(&lp))?;
        println!(
            "{at}verified {} sequential execution ✓",
            match proven {
                Some(_) => "byte-identical to",
                None => "against",
            }
        );
        Ok(res)
    })?;
    if multi {
        println!("whole-program speedup = {:.2}x", res.speedup());
    }
    if json {
        // Machine-readable report(s), last on stdout so pipelines can
        // `tail -1 | jq`: one object for a single loop (the schema that
        // rides inside the daemon's job-status frames), an array of
        // them for a multi-loop program.
        let reports: Vec<String> = res.reports.iter().map(|r| r.to_json()).collect();
        match multi {
            true => println!("[{}]", reports.join(",")),
            false => println!("{}", reports[0]),
        }
    }
    Ok(())
}

fn run_induction_program(ind: CompiledInduction, cfg: &RunConfig) -> Result<(), CliError> {
    let (name, init) = ind.counter();
    println!("induction program: counter '{name}' starting at {init}");
    println!("backend: {}", ind.as_program().backend().describe());
    let res = rlrpd::run_induction(&ind, cfg.p, cfg.exec, cfg.cost);
    println!(
        "range test {}; stages = {}, PR = {:.3}, speedup = {:.2}x, final {name} = {}",
        if res.test_passed {
            "PASSED (two doalls)"
        } else {
            "FAILED (sequential fallback)"
        },
        res.report.stages.len(),
        res.report.pr(),
        res.report.speedup(),
        res.final_counter
    );
    // The scheme declares no reductions: bit identity, and the counter
    // must end where sequential execution leaves it.
    let (seq, counter) = rlrpd::core::run_induction_sequential(&ind);
    verify(&seq, &res.arrays, &vec![false; seq.len()])?;
    if res.final_counter != counter {
        return Err(CliError::Other(format!(
            "INTERNAL: final {name} = {}, sequential execution ends at {counter}",
            res.final_counter
        )));
    }
    println!("verified against sequential execution ✓");
    Ok(())
}

/// The shared acceptance rule ([`verify_against_sequential`]), with the
/// CLI's marker for "this is our bug, not yours".
fn verify(
    seq: &[(&'static str, Vec<f64>)],
    spec: &[(&'static str, Vec<f64>)],
    reductions: &[bool],
) -> Result<(), String> {
    verify_against_sequential(seq, spec, reductions).map_err(|e| format!("INTERNAL: {e}"))
}

fn cmd_fmt(flags: Flags) -> Result<(), String> {
    let src = source(&flags)?;
    // Both compilation schemes share the parser; format whatever parses.
    let program = rlrpd::lang::parse(&src).map_err(|e| e.to_string())?;
    print!("{}", rlrpd::lang::print_program(&program));
    Ok(())
}

fn cmd_classify(flags: Flags) -> Result<(), String> {
    let report = with_program(&source(&flags)?, CompiledProgram::report);
    print!("{}", report.map_err(|e| e.to_string())?);
    Ok(())
}

/// `f` of `src` compiled under the scheme its declarations select: the
/// induction scheme for a counter program, the speculative one
/// otherwise.
fn with_program<R>(
    src: &str,
    f: impl FnOnce(&CompiledProgram) -> R,
) -> Result<R, rlrpd::lang::LangError> {
    match CompiledInduction::compile(src) {
        Ok(ind) => Ok(f(ind.as_program())),
        Err(_) => CompiledProgram::compile(src).map(|prog| f(&prog)),
    }
}

/// `rlrpd analyze`: the static lint pass. Exit 0 when clean (notes are
/// fine), 1 on error-level findings or on warnings under
/// `--deny-warnings`, 64 on usage or parse errors.
fn cmd_analyze(args: Vec<String>) -> Result<(), CliError> {
    use rlrpd::lang::Level;
    let flags = parse_flags(
        args,
        &["--procs", "--format", "--emit"],
        &["--audit", "--deny-warnings"],
    )?;
    // A missing or unreadable input is an invocation problem for a
    // static analysis (nothing ran), same bucket as a parse error.
    let p = flags
        .usize_of("--procs", DEFAULT_PROCS)
        .map_err(CliError::Usage)?;
    RunPlan::default().validate(&RunConfig::new(p), None)?;
    let src = source(&flags).map_err(CliError::Usage)?;
    match flags.get("--emit") {
        None => {}
        Some("bytecode") => return emit_bytecode(&src),
        Some(other) => {
            return Err(CliError::Usage(format!(
                "--emit expects 'bytecode', got '{other}'"
            )))
        }
    }
    let program = rlrpd::lang::parse(&src).map_err(|e| CliError::Usage(e.to_string()))?;
    if flags.has("--audit") {
        return audit_densities(&src, p);
    }
    let diags = rlrpd::lang::lint(&program, p);
    let count = |lv| diags.iter().filter(|d| d.level == lv).count();
    let (errors, warnings, notes) = (
        count(Level::Error),
        count(Level::Warning),
        count(Level::Note),
    );
    if flags.json()? {
        let mut out = String::from("{\"diagnostics\":[");
        for (k, d) in diags.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"level\":\"{}\",\"code\":\"{}\",\"line\":{},\"col\":{},\
                 \"loop\":{},\"array\":{},\"distance\":{},\"guarded\":{},\
                 \"message\":{}}}",
                d.level,
                d.code,
                d.span.line,
                d.span.col,
                d.loop_index,
                match &d.array {
                    Some(a) => json_string(a),
                    None => "null".into(),
                },
                // The satellite fix: a guarded (May) conflict with
                // known geometry keeps its distance — `guarded`
                // tells the consumer it is contingent.
                match d.distance {
                    Some(dist) => dist.to_string(),
                    None => "null".into(),
                },
                d.guarded,
                json_string(&d.message)
            ));
        }
        out.push_str(&format!(
            "],\"errors\":{errors},\"warnings\":{warnings},\"notes\":{notes}}}"
        ));
        println!("{out}");
    } else {
        for d in &diags {
            println!("{d}");
        }
        println!("analyze: {errors} error(s), {warnings} warning(s), {notes} note(s)");
    }
    if errors > 0 {
        return Err(CliError::Other(format!("analysis found {errors} error(s)")));
    }
    if flags.has("--deny-warnings") && warnings > 0 {
        return Err(CliError::Other(format!(
            "analysis found {warnings} warning(s) (--deny-warnings)"
        )));
    }
    Ok(())
}

/// `rlrpd analyze --audit`: execute the program speculatively and
/// compare the static touch-density predictions (which pick each
/// array's shadow representation) against the representations the
/// run's observed touches call for. Disagreement is reported, not
/// fatal — it costs speed, never correctness; the audit shows where
/// the static model was wrong.
fn audit_densities(src: &str, p: usize) -> Result<(), CliError> {
    let prog = rlrpd::lang::CompiledProgram::compile(src).map_err(|e| {
        CliError::Usage(format!(
            "--audit runs the program speculatively, which failed to compile: {e}"
        ))
    })?;
    let rows = prog.density_audit(RunConfig::new(p));
    if rows.is_empty() {
        println!("audit: no instrumented arrays (all shadows elided)");
        return Ok(());
    }
    let mut disagreements = 0usize;
    for r in &rows {
        let verdict = if r.agrees() {
            "agrees".to_string()
        } else {
            disagreements += 1;
            format!(
                "observed touches call for {} — static density model missed",
                r.observed_repr
            )
        };
        println!(
            "audit: loop {} array '{}': predicted {} of {} elements touched -> {} shadow; {}",
            r.loop_index, r.array, r.predicted_touched, r.size, r.predicted_repr, verdict
        );
    }
    println!(
        "audit: {} array(s) checked, {} disagreement(s)",
        rows.len(),
        disagreements
    );
    Ok(())
}

/// `rlrpd analyze --emit bytecode`: print the lowered bytecode of every
/// loop — opcode, registers, source span, and fused-mark annotations —
/// exactly what the engines will execute. Counter programs disassemble
/// through the induction scheme (whose demoted class table changes the
/// lowering of `⊕=`).
fn emit_bytecode(src: &str) -> Result<(), CliError> {
    let text = with_program(src, CompiledProgram::disassembly)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    print!("{text}");
    Ok(())
}

fn cmd_ddg(flags: Flags) -> Result<(), CliError> {
    let cfg = config(&flags).map_err(CliError::Usage)?;
    RunPlan::default().validate(&cfg, None)?;
    let w = flags.count_of("--window", 32).map_err(CliError::Usage)?;
    let prog = load(&flags)?;
    if prog.num_loops() != 1 {
        return Err(CliError::Other(
            "ddg extraction needs a single-loop program".into(),
        ));
    }
    let lp = prog.loop_view(0, prog.initial_arrays());
    let ddg = extract_ddg(&lp, &cfg, WindowConfig::fixed(w));
    println!(
        "iterations = {}, flow edges = {}, anti = {}, output = {}",
        ddg.graph.n,
        ddg.graph.flow.len(),
        ddg.graph.anti.len(),
        ddg.graph.output.len()
    );
    let schedule = rlrpd::WavefrontSchedule::from_graph(&ddg.graph);
    println!(
        "wavefronts = {} (flow-only critical path = {}), average width = {:.1}",
        schedule.depth(),
        ddg.graph.flow_critical_path(),
        schedule.avg_width()
    );
    if let Some(path) = flags.get("--save") {
        std::fs::write(path, schedule.to_bytes()).map_err(|e| format!("{path}: {e}"))?;
        println!("schedule saved to {path}");
    }
    Ok(())
}

/// The §4 model for a geometric loop: the parameters, the closed forms
/// (k_s, k_d, the Eq. 4 cutoff, T_static, T(n)) and the per-stage
/// simulation under each redistribution policy.
fn cmd_model(args: Vec<String>) -> Result<(), CliError> {
    use rlrpd::model::{
        k_d_geometric, k_s_geometric, simulate_stages, t_static, t_total_geometric, ModelParams,
        RedistPolicy, MAX_SIM_STAGES,
    };
    const ARGS: [(&str, f64, &str); 6] = [
        ("n", 4096.0, "an integer >= 1"),
        ("p", 8.0, "an integer >= 1"),
        ("omega", 100.0, "a finite number >= 0"),
        ("ell", 10.0, "a finite number >= 0"),
        ("sync", 50.0, "a finite number >= 0"),
        ("alpha", 0.5, "in [0, 1)"),
    ];
    if args.len() > ARGS.len() {
        let msg = format!("model takes at most 6 numbers (n p omega ell sync alpha), got {args:?}");
        return Err(CliError::Usage(msg));
    }
    let mut nums = ARGS.map(|(_, default, _)| default);
    for (k, a) in args.iter().enumerate() {
        let ok = |x: f64| match k {
            0 | 1 => x >= 1.0 && x as usize as f64 == x,
            5 => (0.0..1.0).contains(&x),
            _ => x.is_finite() && x >= 0.0,
        };
        let (name, _, want) = ARGS[k];
        let bad = || CliError::Usage(format!("model: {name} must be {want}, got '{a}'"));
        nums[k] = a.parse().ok().filter(|&x| ok(x)).ok_or_else(bad)?;
    }
    let [n, p, omega, ell, sync, alpha] = nums;
    // After k stages at most n·α^k iterations remain, so the simulation
    // ends within ln n / ln(1/α) + 1 stages.
    if n.ln() / -alpha.ln() + 1.0 >= MAX_SIM_STAGES as f64 {
        return Err(CliError::Usage(format!(
            "model: alpha {alpha} keeps n = {n} iterations failing past {MAX_SIM_STAGES} stages"
        )));
    }
    let params = ModelParams {
        n: n as usize,
        p: p as usize,
        omega,
        ell,
        sync,
    };

    println!("model parameters: {params:?}, alpha = {alpha}");
    println!("  total work n·ω            = {}", params.total_work());
    println!(
        "  ideal parallel time       = {}",
        params.ideal_parallel_time()
    );
    let k_s = k_s_geometric(alpha, params.p);
    let k_d = k_d_geometric(&params, alpha);
    let cutoff = params.p as f64 * params.sync / (params.omega - params.ell).max(1e-12);
    println!("  k_s (NRD stages)          = {k_s:.2}");
    println!("  k_d (redistributing)      = {k_d:.2}");
    println!("  Eq. 4 cutoff (iterations) = {cutoff:.1}");
    println!(
        "  T_static (pure NRD)       = {:.1}",
        t_static(&params, k_s.ceil())
    );
    println!(
        "  T(n) (adaptive, Eq. 6)    = {:.1}",
        t_total_geometric(&params, alpha)
    );
    for policy in [
        RedistPolicy::Never,
        RedistPolicy::Adaptive,
        RedistPolicy::Always,
    ] {
        let stages = simulate_stages(&params, alpha, policy);
        let total: f64 = stages.iter().map(|s| s.total()).sum();
        println!("\n  {policy:?}: {} stages, total {total:.1}", stages.len());
        for s in &stages {
            println!(
                "    stage {:>2}: remaining {:>6}  loop {:>9.1}  redist {:>7.1}  sync {:>6.1}{}",
                s.stage,
                s.remaining,
                s.loop_time,
                s.redist_overhead,
                s.sync_overhead,
                if s.redistributed { "  [RD]" } else { "" }
            );
        }
    }
    Ok(())
}
