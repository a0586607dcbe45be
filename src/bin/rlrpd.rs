//! The `rlrpd` command-line tool: compile and speculatively execute
//! mini-language loop programs. `rlrpd help [COMMAND]` prints every
//! subcommand's arguments and flags, generated from [`OPTIONS`]: the one
//! table that also parses and checks them.
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
    reduction_mask, verify_against_sequential, DistConnector, FallbackPolicy, FaultPlan, PlanError,
    RunReport, Timeline,
};
use rlrpd::dist::{ChaosPlan, ChaosProxy, DistLauncher, DistPolicy, Endpoint};
use rlrpd::lang::{CompiledInduction, CompiledProgram};
use rlrpd::runtime::parse_bytes;
use rlrpd::{
    extract_ddg, run_sequential, BalancePolicy, CheckpointPolicy, ExecMode, FallbackReason,
    Journal, RlrpdError, RunConfig, RunPlan, Runner, Strategy, WindowConfig,
};
use std::fmt;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// What a subcommand does with the command line [`parse`] accepted.
type Command = fn(Opts) -> Result<(), CliError>;

/// Every subcommand: its positional arguments as help shows them, how
/// many it takes at most, and what runs it.
const COMMANDS: [(&str, &str, usize, Command); 11] = [
    ("run", "<file.rlp>", 1, cmd_run),
    ("worker", "", 0, cmd_worker),
    ("serve", "", 0, cmd_serve),
    ("submit", "<file.rlp> | --spec SPEC", 1, cmd_submit),
    ("status", "", 0, cmd_status),
    ("chaos-proxy", "", 0, cmd_chaos_proxy),
    ("classify", "<file.rlp>", 1, cmd_classify),
    ("analyze", "<file.rlp>", 1, cmd_analyze),
    ("fmt", "<file.rlp>", 1, cmd_fmt),
    ("ddg", "<file.rlp>", 1, cmd_ddg),
    ("model", "[n p omega ell sync alpha]", 6, cmd_model),
];

/// What a flag's value must be; `parse` refuses any other.
#[derive(Clone, Copy)]
enum Domain {
    /// No value: the flag alone.
    Lone,
    /// An integer of at least this much.
    Count(usize),
    /// Any `u64`; `true` takes `0x` hex too.
    Seed(bool),
    /// A byte count (K/M/G suffix) or `auto`.
    Bytes,
    /// Seconds, above 0 when `true`.
    Seconds(bool),
    /// A finite factor above 0.
    Factor,
    /// One of these `|`-separated words.
    Choice(&'static str),
    /// What the parser accepts, shown as the metavariable.
    Spec(&'static str, fn(&str) -> Result<(), String>),
    /// A non-empty address or path, shown as the metavariable.
    Text(&'static str),
}
use Domain::*;

impl Domain {
    /// `Ok` for a value of the domain, else what the value should be.
    fn check(self, v: &str) -> Result<(), String> {
        let ok = match self {
            Lone => true,
            Count(min) => v.parse::<usize>().is_ok_and(|n| n >= min),
            Seed(hex) => int(v, hex).is_some(),
            Bytes => v == "auto" || parse_bytes(v).is_ok(),
            Seconds(above) => secs(v).is_some_and(|d| !(above && d.is_zero())),
            Factor => v.parse::<f64>().is_ok_and(|x| x.is_finite() && x > 0.0),
            Choice(words) => words.split('|').any(|w| w == v),
            Spec(meta, parse) => return parse(v).map_err(|e| format!("{meta} ({e})")),
            Text(_) => !v.is_empty(),
        };
        let want = match self {
            Count(min) if min > 0 => format!("an integer of at least {min}"),
            Count(_) | Seed(false) => "an integer".into(),
            Seed(true) => "an integer (decimal or 0x hex)".into(),
            Bytes => "a byte count (K/M/G suffix) or auto".into(),
            Seconds(false) => "seconds".into(),
            Seconds(true) => "seconds above 0".into(),
            Factor => "a finite number > 0".into(),
            Text(what) => format!("a non-empty {what}"),
            Lone | Choice(_) | Spec(..) => self.metavar().into(),
        };
        ok.then_some(()).ok_or(want)
    }

    fn metavar(self) -> &'static str {
        match self {
            Lone => "",
            Count(_) | Seed(_) => "N",
            Bytes => "BYTES|auto",
            Seconds(_) => "SECS",
            Factor => "F",
            Choice(words) | Spec(words, _) | Text(words) => words,
        }
    }
}

/// An integer in decimal, or in `0x` hex when `hex`.
fn int(v: &str, hex: bool) -> Option<u64> {
    match v.strip_prefix("0x") {
        Some(digits) if hex => u64::from_str_radix(digits, 16).ok(),
        _ => v.parse().ok(),
    }
}

fn secs(v: &str) -> Option<Duration> {
    Duration::try_from_secs_f64(v.parse().ok()?).ok()
}

/// One row of [`OPTIONS`].
struct Opt {
    flag: &'static str,
    domain: Domain,
    /// The value taken when the flag is absent: "" for none,
    /// [`REQUIRED`] when it must be given.
    default: &'static str,
    /// The subcommands that take the flag, space-separated.
    subs: &'static str,
    /// The flag it needs ("" for none).
    needs: &'static str,
    /// The flags it cannot be given with.
    excludes: &'static [&'static str],
    doc: &'static str,
}

const REQUIRED: &str = "required";

/// Why a required flag, or one with a default, has a value after
/// [`parse`].
const SET: &str = "parse gives a required or defaulted flag its value";

impl Opt {
    fn takes(&self, sub: &str) -> bool {
        self.subs.split(' ').any(|s| s == sub)
    }
}

/// A table of `(flag, domain, default, subcommands, needs, excludes,
/// doc)` rows. rustfmt leaves a brace-delimited macro call as written,
/// so each row stays one line.
macro_rules! options {
    ($(($flag:expr, $dom:expr, $def:expr, $subs:expr, $needs:expr, $excl:expr, $doc:expr),)*) => {
        [$(Opt { flag: $flag, domain: $dom, default: $def, subs: $subs, needs: $needs, excludes: &$excl, doc: $doc },)*]
    };
}

/// Every flag of every subcommand. A flag some subcommands read
/// differently has a row for each reading. `parse` holds a command line
/// to it before any subcommand body runs, and `rlrpd help` prints it.
/// The rules that depend on the program or on the whole plan — the
/// `--procs` range among them — are [`KIND_RULES`] and
/// [`RunPlan::validate`].
const OPTIONS: [Opt; 48] = options! {
    ("--procs", Count(0), "8", "run submit analyze ddg", "", [], "processors (at most 1 024)"),
    ("--strategy", Spec("nrd|rd|adaptive|sw:W", |v| v.parse::<Strategy>().map(drop)), "adaptive", "run submit", "", [], "stage schedule"),
    ("--checkpoint", Choice("eager|ondemand"), "ondemand", "run", "", [], "when a stage saves what it may roll back"),
    ("--balance", Choice("even|feedback|trend"), "even", "run", "", [], "how iterations are dealt to processors"),
    ("--pooled", Lone, "", "run ddg", "", [], "run on the worker pool's threads, not the simulated machine"),
    ("--timeline", Lone, "", "run", "", [], "print the stage timeline"),
    ("--report", Lone, "", "run", "", [], "print the full run report"),
    ("--runs", Count(1), "1", "run", "", [], "instantiations of each loop on one runner"),
    ("--fault-seed", Seed(false), "", "run", "", [], "inject one seeded panic into an iteration"),
    ("--fault-seed", Count(1), "", "submit", "", [], "as run's; not 0, which a job spec reads as unset"),
    ("--watchdog", Factor, "", "run", "", [], "fall back to sequential when a stage takes F times its estimate"),
    ("--max-restarts", Count(0), "", "run", "", [], "fall back to sequential after N restarts"),
    ("--max-stages", Count(0), "", "run", "", [], "stop after N stages (exit 3)"),
    ("--max-stages", Count(1), "", "submit", "", [], "as run's; not 0, which a job spec reads as unset"),
    ("--journal", Text("PATH"), "", "run", "", [], "crash journal: one record per commit"),
    ("--resume", Lone, "", "run", "", [], "continue the run the journal holds"),
    ("--dist-workers", Spec("N|auto|SPEC", |v| parse_dist_workers(v).map(drop)), "", "run", "", [], "worker fleet: N local, or local[:N] and host:port[:N] entries"),
    ("--block-deadline", Seconds(false), "", "run", "--dist-workers", [], "re-dispatch a block not back by then"),
    ("--max-respawns", Count(0), "", "run", "--dist-workers", [], "respawns per worker slot"),
    ("--fleet-max-respawns", Count(0), "", "run", "--dist-workers", [], "respawns across the fleet"),
    ("--heartbeat-interval", Seconds(false), "", "run", "--dist-workers", [], "worker heartbeat period"),
    ("--dist-fault", Spec("kill|hang|corrupt:ORDINAL[,...]", |v| dist_faults(v).map(drop)), "", "run", "--dist-workers", [], "inject worker faults by dispatch ordinal"),
    ("--no-compile", Lone, "", "run", "", [], "run on the tree-walking interpreter"),
    ("--shadow-budget", Bytes, "", "run", "", [], "shadow memory cap; auto is a quarter of MemAvailable"),
    ("--shadow-budget", Bytes, "auto", "submit", "", [], "the job's shadow memory; auto asks the daemon for a share"),
    ("--shadow-fault", Spec("STAGE:BYTES[,...]", |v| FaultPlan::new().shadow_pressure_spec(v).map(drop)), "", "run submit", "", [], "inject shadow-memory pressure at a stage"),
    ("--format", Choice("text|json"), "text", "run submit status analyze", "", [], "output format"),
    ("--listen", Text("ADDR"), "", "worker", "", [], "serve TCP sessions, not stdin/stdout"),
    ("--idle-timeout", Seconds(false), "", "worker", "--listen", [], "reclaim a session that sends no hello by then (0: never)"),
    ("--state-dir", Text("DIR"), REQUIRED, "serve", "", [], "every job's durable state"),
    ("--listen", Text("ADDR"), "127.0.0.1:0", "serve", "", [], "where submissions arrive"),
    ("--pool-budget", Bytes, "64M", "serve", "", [], "shadow memory shared by every job"),
    ("--max-jobs", Count(1), "4", "serve", "", [], "concurrent runs"),
    ("--stream-buffer", Count(1), "256", "serve", "", [], "progress frames buffered per client"),
    ("--resume", Lone, "", "serve", "", [], "resume the incomplete jobs of the state directory"),
    ("--job-ttl", Seconds(false), "", "serve", "", [], "forget a finished job after SECS"),
    ("--connect", Text("ADDR"), REQUIRED, "submit status chaos-proxy", "", [], "the daemon (chaos-proxy: where to forward)"),
    ("--key", Seed(true), REQUIRED, "submit status", "", [], "the job's idempotency key"),
    ("--spec", Text("SPEC"), "", "submit", "", [], "a registry spec in place of a program file"),
    ("--retry", Seconds(true), "60", "submit status", "", [], "keep reconnecting for SECS"),
    ("--listen", Text("ADDR"), REQUIRED, "chaos-proxy", "", [], "where connections arrive"),
    ("--fault", Spec("kind:conn[:arg][,...]", |v| ChaosPlan::parse(v).map(drop)), "", "chaos-proxy", "", ["--seed"], "network faults by connection ordinal"),
    ("--seed", Seed(false), "", "chaos-proxy", "", [], "a seed-derived fault plan"),
    ("--emit", Choice("bytecode"), "", "analyze", "", ["--audit", "--format", "--deny-warnings"], "print the lowered bytecode only"),
    ("--audit", Lone, "", "analyze", "", ["--format", "--deny-warnings"], "run the program; check the shadow density predictions (text)"),
    ("--deny-warnings", Lone, "", "analyze", "", [], "exit 1 on warnings"),
    ("--window", Count(1), "32", "ddg", "", [], "iterations per extraction window"),
    ("--save", Text("PATH"), "", "ddg", "", [], "write the wavefront schedule"),
};

/// A command line `parse` refuses (exit 64): the flag at fault (or the
/// subcommand, for a positional argument), the value given and what was
/// wanted — the whole sentence when the fault is not a value.
#[derive(Debug)]
struct OptError {
    flag: String,
    value: Option<String>,
    want: String,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.value {
            Some(v) => write!(f, "{} expects {}, got '{v}'", self.flag, self.want),
            None => f.write_str(&self.want),
        }
    }
}

impl From<OptError> for CliError {
    fn from(e: OptError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// A command line [`parse`] accepted.
struct Opts {
    sub: &'static str,
    /// Every flag given with its value ("" for a lone flag), in order.
    given: Vec<(&'static str, String)>,
    positional: Vec<String>,
}

impl Opts {
    /// `flag`'s value: the last one given, else its default.
    fn get(&self, flag: &str) -> Option<&str> {
        match self.given.iter().rev().find(|(f, _)| *f == flag) {
            Some((_, v)) => Some(v),
            None => OPTIONS
                .iter()
                .find(|o| o.flag == flag && o.takes(self.sub))
                .map(|o| o.default)
                .filter(|d| !d.is_empty()),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// Is `flag` on the command line? `--name` asks for the flag with
    /// any value (or the lone flag); `--name value` for that value.
    fn given(&self, flag: &str) -> bool {
        match flag.split_once(' ') {
            Some((name, value)) => self.has(name) && self.get(name) == Some(value),
            None => self.has(flag),
        }
    }

    /// An integer flag's value, which `parse` has checked.
    fn num<T: TryFrom<u64>>(&self, flag: &str) -> Option<T> {
        let n = |v| int(v, true).and_then(|n| T::try_from(n).ok());
        self.get(flag)
            .map(|v| n(v).expect("parse checked the value"))
    }

    fn secs(&self, flag: &str) -> Option<Duration> {
        self.get(flag)
            .map(|v| secs(v).expect("parse checked the value"))
    }

    fn json(&self) -> bool {
        self.get("--format") == Some("json")
    }
}

/// Hold the arguments of subcommand `sub` to [`OPTIONS`]: every flag
/// one `sub` takes, every value in its domain, no more positional
/// arguments than `sub` takes, every required flag given, every flag's
/// need met and none of its exclusions given.
fn parse(sub: &'static str, args: Vec<String>) -> Result<Opts, OptError> {
    let refuse = |flag: &str, value: Option<&str>, want: String| OptError {
        flag: flag.into(),
        value: value.map(Into::into),
        want,
    };
    let mut opts = Opts {
        sub,
        given: Vec::new(),
        positional: Vec::new(),
    };
    let mut it = args.into_iter();
    while let Some(word) = it.next() {
        if !word.starts_with("--") {
            opts.positional.push(word);
            continue;
        }
        let Some(opt) = OPTIONS.iter().find(|o| o.flag == word && o.takes(sub)) else {
            let want = format!("unknown flag '{word}'\n{}", help(Some(sub)));
            return Err(refuse(&word, None, want));
        };
        let value = match opt.domain {
            Lone => String::new(),
            domain => {
                let lack = || refuse(&word, None, format!("{word} needs a value"));
                let v = it.next().ok_or_else(lack)?;
                domain
                    .check(&v)
                    .map_err(|want| refuse(&word, Some(&v), want))?;
                v
            }
        };
        opts.given.push((opt.flag, value));
    }
    let (_, args, most, _) = COMMANDS.iter().find(|c| c.0 == sub).expect("a subcommand");
    if let Some(extra) = opts.positional.get(*most) {
        let want = match most {
            0 => "no arguments".into(),
            _ => format!("at most {most} arguments ({args})"),
        };
        return Err(refuse(sub, Some(extra), want));
    }
    for o in OPTIONS.iter().filter(|o| o.takes(sub)) {
        let (flag, given) = (o.flag, opts.has(o.flag));
        let want = if !given && o.default == REQUIRED {
            format!("{sub} needs {flag} {}", o.domain.metavar())
        } else if given && !o.needs.is_empty() && !opts.has(o.needs) {
            format!("{flag} requires {}", o.needs)
        } else if let Some(x) = o.excludes.iter().find(|x| given && opts.has(x)) {
            format!("{flag} cannot be combined with {x}")
        } else {
            continue;
        };
        return Err(refuse(flag, None, want));
    }
    Ok(opts)
}

/// The synopsis and flags of subcommand `only` (of every subcommand
/// when `None`), from [`COMMANDS`] and [`OPTIONS`].
fn help(only: Option<&str>) -> String {
    let mut out = String::new();
    for (sub, args, ..) in COMMANDS.iter().filter(|c| only.is_none_or(|s| s == c.0)) {
        out += format!("usage: rlrpd {sub} {args}").trim_end();
        out.push('\n');
        for o in OPTIONS.iter().filter(|o| o.takes(sub)) {
            let head = format!("{} {}", o.flag, o.domain.metavar());
            let mut doc = o.doc.to_string();
            match o.default {
                "" => {}
                REQUIRED => doc += " [required]",
                value => doc += &format!(" [default {value}]"),
            }
            if !o.needs.is_empty() {
                doc += &format!(" [needs {}]", o.needs);
            }
            if !o.excludes.is_empty() {
                doc += &format!(" [not with {}]", o.excludes.join(" "));
            }
            out += &format!("  {head:<40} {doc}\n");
        }
    }
    out
}

fn run(args: Vec<String>) -> Result<(), CliError> {
    let mut it = args.into_iter();
    let Some(cmd) = it.next() else {
        return Err(CliError::Usage(help(None)));
    };
    let rest: Vec<String> = it.collect();
    let command = |name: &str| {
        let unknown = || CliError::Usage(format!("unknown command '{name}'; see rlrpd help"));
        COMMANDS.iter().find(|c| c.0 == name).ok_or_else(unknown)
    };
    if let "help" | "--help" | "-h" = cmd.as_str() {
        let only = rest.first().map(|name| command(name)).transpose()?;
        print!("{}", help(only.map(|c| c.0)));
        return Ok(());
    }
    let (sub, .., body) = command(&cmd)?;
    body(parse(sub, rest)?)
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

/// Resolve a `BYTES|auto` flag of this process (`None` when it is
/// absent: shadow memory stays ungoverned). `auto` is a quarter of the
/// machine's `MemAvailable`; an unreadable `/proc/meminfo` is a usage
/// error rather than a silent unlimited run. A budget that cannot
/// actually be satisfied warns up front instead of thrashing silently
/// mid-run. (`submit --shadow-budget auto` asks the daemon for a share
/// of its pool instead.)
fn budget(opts: &Opts, flag: &str) -> Result<Option<u64>, String> {
    let Some(v) = opts.get(flag) else {
        return Ok(None);
    };
    if v == "auto" {
        let cap = (mem_available().map_err(|e| format!("{flag} auto: {e}"))? / 4).max(1);
        if cap < (1 << 20) {
            eprintln!(
                "rlrpd: warning: {flag} auto resolved to only {cap} bytes \
                 (the machine is memory-starved); expect down-tiering or sequential fallback"
            );
        }
        return Ok(Some(cap));
    }
    let bytes = parse_bytes(v)?;
    if let Ok(avail) = mem_available() {
        if bytes > avail {
            eprintln!(
                "rlrpd: warning: {flag} {bytes} exceeds available memory \
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
fn fault_plan(opts: &Opts, n: usize) -> Result<Option<(Arc<FaultPlan>, String)>, String> {
    let seed = opts.num("--fault-seed");
    let spec = opts.get("--shadow-fault");
    let Some(plan) = FaultPlan::from_options(seed, spec, n)? else {
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

fn source(opts: &Opts) -> Result<String, String> {
    let path = opts
        .positional
        .first()
        .ok_or("expected a program file (.rlp)".to_string())?;
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// The run `opts` configure; every subcommand that builds one takes
/// `--procs` (`ddg` takes no `--strategy`: it extracts under its own).
fn config(opts: &Opts) -> Result<RunConfig, String> {
    let p = opts.num("--procs").expect(SET);
    let checkpoint = match opts.get("--checkpoint") {
        Some("eager") => CheckpointPolicy::Eager,
        _ => CheckpointPolicy::OnDemand,
    };
    let balance = match opts.get("--balance") {
        Some("feedback") => BalancePolicy::FeedbackGuided,
        Some("trend") => BalancePolicy::FeedbackTrend,
        _ => BalancePolicy::Even,
    };
    let exec = if opts.has("--pooled") {
        ExecMode::Pooled
    } else {
        ExecMode::Simulated
    };
    let watchdog = opts.get("--watchdog").map(|f| f.parse().expect("a factor"));
    let fallback = FallbackPolicy::default()
        .with_max_restarts(opts.num("--max-restarts").unwrap_or(usize::MAX))
        .with_watchdog(watchdog.unwrap_or(f64::INFINITY));
    let mut cfg = RunConfig::new(p)
        .with_checkpoint(checkpoint)
        .with_balance(balance)
        .with_exec(exec)
        .with_fallback(fallback);
    if let Some(strategy) = opts.get("--strategy") {
        cfg = cfg.with_strategy(strategy.parse()?);
    }
    cfg.max_stages = opts.num("--max-stages").unwrap_or(cfg.max_stages);
    cfg = cfg.with_shadow_budget(budget(opts, "--shadow-budget")?);
    Ok(cfg)
}

/// `rlrpd worker`: speak the distributed worker protocol — on
/// stdin/stdout until the supervisor hangs up, or as a standalone TCP
/// listener under `--listen ADDR` (serving any number of supervisors
/// until killed). Exits 64 on protocol or usage errors, matching the
/// CLI's usage-error convention.
fn cmd_worker(opts: Opts) -> Result<(), CliError> {
    // Idle reaper for listener sessions: a connection that never sends
    // its hello within this window is reclaimed. 0 disables.
    let idle = match opts.secs("--idle-timeout") {
        None => Some(rlrpd::dist::DEFAULT_IDLE_TIMEOUT),
        Some(d) => (!d.is_zero()).then_some(d),
    };
    std::process::exit(match opts.get("--listen") {
        Some(addr) => rlrpd::dist::listen_entry(addr, idle),
        None => rlrpd::dist::worker_entry(),
    })
}

/// `rlrpd serve`: the long-lived multi-tenant job daemon. Accepts
/// submissions over the length-framed protocol, multiplexes runs over
/// one process-wide budget pool, journals every job under
/// `--state-dir`, drains gracefully on SIGTERM, and resumes
/// incomplete jobs on restart under `--resume`. Runs until signalled.
fn cmd_serve(opts: Opts) -> Result<(), CliError> {
    let value = |flag| opts.get(flag).expect(SET);
    let pool_budget = budget(&opts, "--pool-budget").map_err(CliError::Usage)?;
    let cfg = rlrpd::serve::ServeConfig {
        listen: value("--listen").into(),
        state_dir: value("--state-dir").into(),
        pool_budget: pool_budget.expect(SET),
        max_jobs: opts.num("--max-jobs").expect(SET),
        stream_buffer: opts.num("--stream-buffer").expect(SET),
        resume: opts.has("--resume"),
        job_ttl: opts.secs("--job-ttl"),
        ..rlrpd::serve::ServeConfig::default()
    };
    std::process::exit(rlrpd::serve::serve_entry(cfg))
}

/// Shared client options: `--retry SECS`, and whether to print progress.
fn client_options(opts: &Opts, progress: bool) -> rlrpd::serve::ClientOptions {
    rlrpd::serve::ClientOptions {
        deadline: opts.secs("--retry").expect(SET),
        progress,
        ..rlrpd::serve::ClientOptions::default()
    }
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
fn cmd_submit(opts: Opts) -> Result<(), CliError> {
    let key = opts.num("--key").expect(SET);
    // The daemon admits `p` as a `u32`: refuse what no run can take
    // before connecting, rather than sending it truncated.
    let p = opts.num("--procs").expect(SET);
    RunPlan::default().validate(&RunConfig::new(p), None)?;
    let spec_str = match (opts.get("--spec"), opts.positional.first()) {
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
    // `auto` (the default) asks the daemon to carve a fair share of its
    // pool; an explicit byte count is a hard request the daemon may
    // queue behind, or reject if it exceeds the whole pool.
    let budget_bytes = match opts.get("--shadow-budget") {
        Some("auto") | None => 0,
        Some(v) => parse_bytes(v).map_err(CliError::Usage)?,
    };
    let spec = rlrpd::core::remote::JobSpec {
        protocol: rlrpd::core::remote::SERVE_PROTOCOL_VERSION,
        key,
        spec: spec_str,
        p: u32::try_from(p).expect("validate holds --procs to 1 024"),
        strategy: opts.get("--strategy").expect(SET).into(),
        budget_bytes,
        // A job spec reads 0 as unset; the table refuses the 0 that
        // `run` would act on.
        fault_seed: opts.num("--fault-seed").unwrap_or(0),
        shadow_fault: opts.get("--shadow-fault").unwrap_or("").to_string(),
        max_stages: opts.num("--max-stages").unwrap_or(0),
    };
    let json = opts.json();
    match rlrpd::serve::submit(
        opts.get("--connect").expect(SET),
        &spec,
        &client_options(&opts, !json),
    ) {
        Ok(out) => {
            if json {
                println!("{}", status_json(&out.status));
            } else {
                println!(
                    "{}, {} frames ({} dropped, {} reconnects)",
                    status_line(key, &out.status),
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

/// The head of every status line `submit` and `status` print.
fn status_line(key: u64, st: &rlrpd::core::remote::JobStatusFrame) -> String {
    format!(
        "job {key:016x}: {:?}, exit {}, verified {}, frontier {}",
        st.state, st.exit_code, st.verified, st.frontier
    )
}

/// `rlrpd status`: one status query by key. Exits with the job's exit
/// code when it is terminal, 0 while it is queued/running/paused, and
/// 1 when the daemon has no job under the key.
fn cmd_status(opts: Opts) -> Result<(), CliError> {
    use rlrpd::core::remote::JobState;
    let addr = opts.get("--connect").expect(SET);
    let key = opts.num("--key").expect(SET);
    let st = rlrpd::serve::query_status(addr, key, &client_options(&opts, false))
        .map_err(|e| CliError::Other(e.to_string()))?;
    if opts.json() {
        println!("{}", status_json(&st));
    } else if st.message.is_empty() {
        println!("{}", status_line(key, &st));
    } else {
        println!("{} ({})", status_line(key, &st), st.message);
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
fn cmd_chaos_proxy(opts: Opts) -> Result<(), CliError> {
    let listen = opts.get("--listen").expect(SET);
    let target = opts.get("--connect").expect(SET);
    let plan = match (opts.get("--fault"), opts.num("--seed")) {
        (Some(spec), _) => ChaosPlan::parse(spec).map_err(CliError::Usage)?,
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
    let spec = match spec {
        "auto" => format!("local:{}", available_parallelism()),
        n if n.parse::<usize>().is_ok() => format!("local:{n}"),
        entries => entries.to_string(),
    };
    let mut endpoints = Vec::new();
    for entry in spec.split(',') {
        let bad =
            || format!("bad entry '{entry}' (expected local, local:N, host:port, or host:port:N)");
        // A trailing `:N` counts the slots of `local` or of a host:port
        // pair.
        let (head, n) = match entry.rsplit_once(':') {
            Some((head, n)) if head == "local" || head.contains(':') => (head, n),
            _ => (entry, "1"),
        };
        let endpoint = match head {
            "local" => Endpoint::Local,
            addr if addr.contains(':') => Endpoint::Tcp(addr.into()),
            _ => return Err(bad()),
        };
        match n.parse() {
            Ok(n @ 1..) => endpoints.extend(std::iter::repeat_n(endpoint, n)),
            _ => return Err(bad()),
        }
    }
    Ok(endpoints)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The worker faults of a `--dist-fault` spec, `kind:ORDINAL[,...]`.
fn dist_faults(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new();
    for part in spec.split(',') {
        let (kind, ordinal) = part
            .split_once(':')
            .ok_or(format!("expected kind:ordinal entries, got '{part}'"))?;
        let ordinal: usize = ordinal
            .parse()
            .map_err(|_| format!("bad dispatch ordinal '{ordinal}'"))?;
        plan = match kind {
            "kill" => plan.kill_worker_at(ordinal),
            "hang" => plan.hang_worker_at(ordinal),
            "corrupt" => plan.corrupt_result_at(ordinal),
            other => return Err(format!("unknown worker fault '{other}'")),
        };
    }
    Ok(plan)
}

/// The fleet `--dist-workers` asks for (`None` without it): a launcher
/// whose `local` slots run `rlrpd worker` on this very binary and whose
/// `host:port` slots dial standalone listeners, under the policy and
/// worker-fault plan of the fleet's other flags. Nothing is launched
/// until a run connects.
fn dist_launcher(opts: &Opts) -> Result<Option<DistLauncher>, String> {
    let Some(workers) = opts.get("--dist-workers") else {
        return Ok(None);
    };
    let mut endpoints = parse_dist_workers(workers)?;
    let available = available_parallelism();
    if workers.parse::<usize>().is_ok_and(|n| n > available) {
        eprintln!(
            "rlrpd: warning: --dist-workers {workers} exceeds available parallelism \
             ({available}); clamping to {available}"
        );
        endpoints.truncate(available);
    }
    let mut policy = DistPolicy {
        workers: endpoints.len(),
        ..DistPolicy::default()
    };
    if let Some(d) = opts.secs("--block-deadline") {
        policy.block_deadline = d;
    }
    policy.max_respawns = opts.num("--max-respawns").unwrap_or(policy.max_respawns);
    policy.fleet_max_respawns = opts
        .num("--fleet-max-respawns")
        .unwrap_or(policy.fleet_max_respawns);
    if let Some(d) = opts.secs("--heartbeat-interval") {
        policy.heartbeat = d;
    }
    policy.validate()?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let mut launcher = DistLauncher::new(exe, vec!["worker".into()])
        .with_policy(policy)
        .with_endpoints(endpoints);
    if let Some(spec) = opts.get("--dist-fault") {
        launcher = launcher.with_fault(Arc::new(dist_faults(spec)?));
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
const KIND_RULES: [(&str, &[&str], &str); 7] = [
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
        "the induction scheme's views answer to no shadow cap, and it has no \
         rollback for an injected fault to exercise",
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
];

/// Refuse the first flag on the command line that `kind` cannot honour.
fn check_kind(kind: &str, opts: &Opts) -> Result<(), CliError> {
    for (_, refused, reason) in KIND_RULES.iter().filter(|(k, ..)| *k == kind) {
        if let Some(flag) = refused.iter().find(|f| opts.given(f)) {
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
    fault: Option<(Arc<FaultPlan>, String)>,
}

/// Decide and validate every loop's leg. `probe` is the run's plan as
/// far as it is known before the journal is opened; nothing is printed
/// and nothing started.
fn plan_legs(
    prog: &CompiledProgram,
    cfg: RunConfig,
    opts: &Opts,
    probe: &RunPlan<'_>,
) -> Result<Vec<Leg>, CliError> {
    let mut legs = Vec::new();
    for k in 0..prog.num_loops() {
        let (lo, hi) = prog.program().loops[k].range;
        let fault = fault_plan(opts, hi - lo).map_err(CliError::Usage)?;
        let cfg = cfg.with_dependence_prediction(prog.predicted_first_dependence(k));
        probe.validate(&cfg, fault.as_ref().map(|(plan, _)| &**plan))?;
        legs.push(Leg { cfg, fault });
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

fn cmd_run(opts: Opts) -> Result<(), CliError> {
    let src = source(&opts)?;
    let journal_path = opts.get("--journal");
    let resume = opts.has("--resume");
    let mut connector = dist_launcher(&opts).map_err(CliError::Usage)?;
    let workers = connector.as_ref().map(|fleet| fleet.policy.workers);
    let no_compile = opts.has("--no-compile");
    let runs = opts.num("--runs").expect(SET);
    if journal_path.is_some() && runs > 1 {
        return Err(CliError::Usage(
            "--journal records exactly one run; drop --runs".into(),
        ));
    }
    let mut cfg = config(&opts).map_err(CliError::Usage)?;
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
        check_kind(COUNTER, &opts)?;
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
        check_kind(MULTI, &opts)?;
    }

    let legs = plan_legs(&prog, cfg, &opts, &probe)?;

    if let Some(cap) = cfg.shadow_budget {
        println!("shadow budget: {cap} bytes");
    }
    println!("classification:\n{}", prog.report());
    println!("backend: {}", prog.backend().describe());

    // The one per-loop body; a program is its loops through it in turn.
    let res = prog.run_loops(|k, state| -> Result<_, CliError> {
        let Leg { cfg, fault } = &legs[k];
        let at = if multi {
            format!("loop {k}: ")
        } else {
            String::new()
        };
        let lp = prog.loop_view(k, state);
        // A stateful runner accumulates PR and balancing history across
        // --runs instantiations.
        let mut runner = Runner::new(*cfg);
        if let Some((plan, said)) = fault {
            said.lines().for_each(|line| println!("{at}{line}"));
            runner = runner.with_fault(Arc::clone(plan));
        }
        let (mut last, mut spec_s) = (None, 0.0);
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
            let started = Instant::now();
            let res = runner.execute(&lp, plan)?;
            spec_s = started.elapsed().as_secs_f64();
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
        if opts.has("--report") {
            println!("\n{}", res.report);
        }
        if opts.has("--timeline") {
            println!("\n{}", Timeline::from_result(&res, cfg.p).render());
        }

        // Always verify against sequential execution of this loop from
        // the state it started from: bit identity, except that a
        // reduction reassociates floating-point sums across blocks, so
        // arrays declaring one compare at a rounding-level tolerance.
        let started = Instant::now();
        let (seq, _) = run_sequential(&lp);
        let seq_s = started.elapsed().as_secs_f64();
        verify(&seq, &res.arrays, &reduction_mask(&lp))?;
        println!("{at}verified against sequential execution ✓");
        // The paper's promise on the clock, on real threads only, and
        // how many threads the run put on its blocks.
        if cfg.exec == ExecMode::Pooled {
            let ratio = spec_s / seq_s;
            let threads = res.report.threads();
            let s = if threads == 1 { "" } else { "s" };
            println!(
                "{at}wall: spec {spec_s:.6} s, seq {seq_s:.6} s \
                 (spec/seq {ratio:.2}; p = {} on {threads} thread{s})",
                cfg.p
            );
        }
        Ok(res)
    })?;
    if multi {
        println!("whole-program speedup = {:.2}x", res.speedup());
    }
    if opts.json() {
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
    let res = rlrpd::run_induction(&ind, cfg.p, cfg.exec, cfg.cost)?;
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
    let (seq, _, counter) = rlrpd::core::run_sequential_counted(&ind);
    verify(&seq, &res.arrays, &vec![false; seq.len()])?;
    if Some(res.final_counter) != counter {
        return Err(CliError::Other(format!(
            "INTERNAL: final {name} = {}, sequential execution ends at {counter:?}",
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

fn cmd_fmt(opts: Opts) -> Result<(), CliError> {
    let src = source(&opts)?;
    // Both compilation schemes share the parser; format whatever parses.
    let program = rlrpd::lang::parse(&src).map_err(|e| e.to_string())?;
    print!("{}", rlrpd::lang::print_program(&program));
    Ok(())
}

fn cmd_classify(opts: Opts) -> Result<(), CliError> {
    let report = with_program(&source(&opts)?, CompiledProgram::report);
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
fn cmd_analyze(opts: Opts) -> Result<(), CliError> {
    use rlrpd::lang::Level;
    let p = opts.num("--procs").expect(SET);
    RunPlan::default().validate(&RunConfig::new(p), None)?;
    // A missing or unreadable input is an invocation problem for a
    // static analysis (nothing ran), same bucket as a parse error.
    let src = source(&opts).map_err(CliError::Usage)?;
    if opts.has("--emit") {
        return emit_bytecode(&src);
    }
    let program = rlrpd::lang::parse(&src).map_err(|e| CliError::Usage(e.to_string()))?;
    if opts.has("--audit") {
        return audit_densities(&src, p);
    }
    let diags = rlrpd::lang::lint(&program, p);
    let count = |lv| diags.iter().filter(|d| d.level == lv).count();
    let (errors, warnings, notes) = (
        count(Level::Error),
        count(Level::Warning),
        count(Level::Note),
    );
    if opts.json() {
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
                // A guarded (May) conflict with known geometry keeps its
                // distance; `guarded` says it is contingent.
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
    if opts.has("--deny-warnings") && warnings > 0 {
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

fn cmd_ddg(opts: Opts) -> Result<(), CliError> {
    let cfg = config(&opts).map_err(CliError::Usage)?;
    RunPlan::default().validate(&cfg, None)?;
    let w = opts.num("--window").expect(SET);
    let prog = CompiledProgram::compile(&source(&opts)?).map_err(|e| e.to_string())?;
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
    if let Some(path) = opts.get("--save") {
        std::fs::write(path, schedule.to_bytes()).map_err(|e| format!("{path}: {e}"))?;
        println!("schedule saved to {path}");
    }
    Ok(())
}

/// The §4 model for a geometric loop: the parameters, the closed forms
/// (k_s, k_d, the Eq. 4 cutoff, T_static, T(n)) and the per-stage
/// simulation under each redistribution policy.
fn cmd_model(opts: Opts) -> Result<(), CliError> {
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
    let mut nums = ARGS.map(|(_, default, _)| default);
    for (k, a) in opts.positional.iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn words(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The row of `flag` that `sub` reads.
    fn row(sub: &str, flag: &str) -> &'static Opt {
        let found = OPTIONS.iter().find(|o| o.flag == flag && o.takes(sub));
        found.unwrap_or_else(|| panic!("{sub} takes no {flag}"))
    }

    /// A value `o` takes.
    fn valid(o: &Opt) -> &'static str {
        match (o.domain, o.default) {
            (_, "" | REQUIRED) => {}
            (_, default) => return default,
        }
        match o.domain {
            Lone => "",
            Count(0) => "0",
            Count(_) | Seed(_) | Seconds(_) | Factor => "2",
            Bytes => "1M",
            Choice(words) => words.split('|').next().unwrap(),
            Text(_) => "127.0.0.1:0",
            Spec(..) => match o.flag {
                "--dist-workers" => "local:2",
                "--dist-fault" => "kill:0,hang:3",
                "--shadow-fault" => "0:64K",
                "--fault" => "refuse:0,delay:1:5",
                other => panic!("no sample for {other}"),
            },
        }
    }

    /// Each value at the edge of `o`'s domain — below its minimum, the
    /// minimum, the maximum, above the maximum, not a number, empty —
    /// and whether it is in the domain.
    fn edges(o: &Opt) -> Vec<(String, bool)> {
        let over = "18446744073709551616";
        let rows: Vec<(&str, bool)> = match o.domain {
            Lone => vec![],
            Count(min) => {
                let below = (min as i128 - 1).to_string();
                let (min, max) = (min.to_string(), usize::MAX.to_string());
                let owned = [(below, false), (min, true), (max, true)];
                return owned
                    .into_iter()
                    .chain([
                        (over.into(), false),
                        ("x".into(), false),
                        ("".into(), false),
                    ])
                    .collect();
            }
            Seed(hex) => vec![
                ("-1", false),
                ("0", true),
                ("18446744073709551615", true),
                (over, false),
                ("0xff", hex),
                ("x", false),
                ("", false),
            ],
            Bytes => vec![
                ("0", false),
                ("1", true),
                ("17179869183G", true),
                ("17179869184G", false),
                ("auto", true),
                ("x", false),
                ("", false),
            ],
            Seconds(above) => vec![
                ("-1", false),
                ("0", !above),
                ("1e-9", true),
                ("1.8e19", true),
                ("1e20", false),
                ("inf", false),
                ("nan", false),
                ("", false),
            ],
            Factor => vec![
                ("0", false),
                ("1e-300", true),
                ("1e308", true),
                ("inf", false),
                ("nan", false),
                ("", false),
            ],
            Choice(words) => {
                let mut rows: Vec<(&str, bool)> = words.split('|').map(|w| (w, true)).collect();
                rows.extend([("x", false), ("", false)]);
                rows
            }
            Spec(..) => vec![(valid(o), true), ("0", false), ("x", false), ("", false)],
            Text(_) => vec![("x", true), ("", false)],
        };
        rows.into_iter()
            .map(|(v, ok)| (v.to_string(), ok))
            .collect()
    }

    /// What `sub` needs for `flag` to parse: its required flags and the
    /// flag `flag` needs, with values they take.
    fn context(sub: &str, flag: &str) -> Vec<String> {
        let read = OPTIONS.iter().find(|o| o.flag == flag && o.takes(sub));
        let needed = read.map_or("", |o| o.needs);
        let rows = OPTIONS.iter().filter(|o| o.takes(sub) && o.flag != flag);
        let rows = rows.filter(|o| o.default == REQUIRED || o.flag == needed);
        rows.flat_map(|o| [o.flag, valid(o)])
            .filter(|w| !w.is_empty())
            .map(String::from)
            .collect()
    }

    /// Refused with `flag` named, and `value` when it is the fault.
    fn assert_names(res: Result<Opts, OptError>, flag: &str, value: Option<&str>, case: &str) {
        let e = res.err().unwrap_or_else(|| panic!("{case}: accepted"));
        assert_eq!(
            (e.flag.as_str(), e.value.as_deref()),
            (flag, value),
            "{case}"
        );
        let said = e.to_string();
        assert!(said.contains(flag), "{case}: {said}");
        if let Some(v) = value {
            assert!(said.contains(&format!("'{v}'")), "{case}: {said}");
        }
    }

    /// Every (subcommand, flag) pair at every edge of the flag's domain,
    /// through `parse` alone: nothing runs, so no extreme value starts a
    /// thread, a worker or a daemon.
    #[test]
    fn every_flag_of_every_subcommand_parses_or_names_flag_and_value() {
        for (sub, ..) in COMMANDS {
            assert!(parse(sub, context(sub, "")).is_ok(), "{sub}");
            for o in OPTIONS.iter().filter(|o| o.takes(sub)) {
                let default = [o.default]
                    .into_iter()
                    .filter(|d| !["", REQUIRED].contains(d));
                for d in default {
                    assert!(o.domain.check(d).is_ok(), "{sub} {}: default {d}", o.flag);
                }
                for (value, ok) in edges(o) {
                    let mut args = context(sub, o.flag);
                    args.extend(words(&[o.flag, &value]));
                    let case = format!("{sub} {} '{value}'", o.flag);
                    match ok {
                        true => assert!(parse(sub, args).is_ok(), "{case}: refused"),
                        false => assert_names(parse(sub, args), o.flag, Some(&value), &case),
                    }
                }
                let mut args = context(sub, o.flag);
                args.extend(
                    words(&[o.flag, valid(o)])
                        .into_iter()
                        .filter(|w| !w.is_empty()),
                );
                assert!(parse(sub, args.clone()).is_ok(), "{sub} {}", o.flag);
                if o.domain.metavar().is_empty() {
                    continue;
                }
                // The value missing, at the end of the line.
                args.pop();
                assert_names(parse(sub, args), o.flag, None, &format!("{sub} {}", o.flag));
            }
        }
    }

    #[test]
    fn a_flag_a_subcommand_does_not_take_is_named_unknown() {
        for (sub, ..) in COMMANDS {
            for o in OPTIONS
                .iter()
                .filter(|o| !OPTIONS.iter().any(|r| r.flag == o.flag && r.takes(sub)))
            {
                let mut args = context(sub, "");
                args.extend(words(&[o.flag, valid(o)]));
                let e = parse(sub, args).err().expect("refused");
                assert_eq!(e.flag, o.flag, "{sub}");
                assert!(e
                    .to_string()
                    .starts_with(&format!("unknown flag '{}'", o.flag)));
                assert!(e.to_string().contains(&help(Some(sub))), "{sub}: the usage");
            }
        }
        assert_names(parse("run", words(&["--"])), "--", None, "a bare --");
    }

    #[test]
    fn required_needed_and_excluded_flags_are_named() {
        for (sub, ..) in COMMANDS {
            for o in OPTIONS.iter().filter(|o| o.takes(sub)) {
                let case = format!("{sub} {}", o.flag);
                if o.default == REQUIRED {
                    let args = context(sub, o.flag);
                    assert_names(parse(sub, args), o.flag, None, &case);
                }
                if !o.needs.is_empty() {
                    let mut args = context(sub, o.needs);
                    args.extend(words(&[o.flag, valid(o)]));
                    assert_names(parse(sub, args), o.flag, None, &case);
                }
                for x in o.excludes {
                    let mut args = context(sub, o.flag);
                    args.extend(words(&[o.flag, valid(o), x, valid(row(sub, x))]));
                    let args = args.into_iter().filter(|w| !w.is_empty()).collect();
                    let res = parse(sub, args);
                    assert!(
                        res.as_ref().is_err_and(|e| e.to_string().contains(x)),
                        "{case} {x}"
                    );
                    assert_names(res, o.flag, None, &case);
                }
            }
        }
    }

    #[test]
    fn positional_arguments_past_the_last_are_named() {
        for (sub, _, most, _) in COMMANDS {
            let mut args = context(sub, "");
            args.extend((0..=most).map(|k| format!("arg{k}")));
            let extra = format!("arg{most}");
            assert_names(parse(sub, args), sub, Some(&extra), sub);
        }
    }

    #[test]
    fn help_lists_every_row_under_its_subcommands() {
        for (sub, ..) in COMMANDS {
            let text = help(Some(sub));
            assert!(text.starts_with(&format!("usage: rlrpd {sub}")), "{text}");
            let listed: Vec<&str> = text
                .lines()
                .filter_map(|l| l.strip_prefix("  --"))
                .map(|l| l.split(' ').next().unwrap())
                .collect();
            let rows: Vec<&str> = OPTIONS
                .iter()
                .filter(|o| o.takes(sub))
                .map(|o| &o.flag[2..])
                .collect();
            assert_eq!(listed, rows, "{sub}");
        }
    }
}
