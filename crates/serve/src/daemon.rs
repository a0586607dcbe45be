//! The `rlrpd serve` daemon: a long-lived, crash-tolerant job server
//! multiplexing many tenants' speculative runs over one process.
//!
//! ## Lifecycle of a job
//!
//! 1. **Admission** (session thread): the submission is validated
//!    (protocol version, spec compiles, strategy parses) and checked
//!    against the process-wide [`BudgetPool`] — a request larger than
//!    the *entire* pool can never run and is rejected with a typed
//!    [`RejectReason::OverPool`]; anything else is durably recorded
//!    (the meta image is the exact submission record) and queued under
//!    its tenant. Resubmitting a key with identical bytes *attaches*
//!    to the existing job; different bytes are a [`RejectReason::KeyConflict`].
//! 2. **Dispatch** (scheduler thread): tenants are served round-robin;
//!    a job runs only once its budget (explicit, or a fair share of
//!    the pool for `budget_bytes == 0`) is carved from the pool, so
//!    concurrently granted budgets can never sum above the pool.
//! 3. **Execution** (job thread): the run is journaled under the job's
//!    directory with fsync-before-advance; every durable record is
//!    fanned out live to subscribed clients through bounded queues.
//! 4. **Drain** (SIGTERM / [`DaemonHandle::drain`]): admission stops
//!    (typed [`RejectReason::Draining`]), every running job's
//!    cooperative stop flag is set, runs pause at their next commit
//!    point (journals already durable), subscribers receive a
//!    `Paused` status frame, and the daemon exits 0.
//! 5. **Recovery** (`--resume`): the state directory is scanned; jobs
//!    with a status sidecar are terminal, everything else is
//!    re-queued and resumed from its journal — a job SIGKILLed
//!    mid-run finishes byte-identical to an uninterrupted execution.

use std::collections::{HashMap, VecDeque};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rlrpd_core::remote::{
    frame_kind, read_frame, write_frame, JobDecision, JobSpec, JobState, JobStatusFrame,
    RejectReason, StatusRequest, FRAME_STATUS_REQ, FRAME_SUBMIT, SERVE_PROTOCOL_VERSION,
};
use rlrpd_core::{
    reduction_mask, run_sequential, verify_against_sequential, ExecMode, FaultPlan, FrameObserver,
    Journal, JournalError, RunConfig, RunPlan, Runner, Strategy,
};
use rlrpd_dist::resolve_spec;
use rlrpd_shadow::{BudgetLease, BudgetPool};

use crate::jobs::{
    count_frames, job_dir, journal_prefix, key_of_dir, tenant_of, write_atomic, Job, StreamItem,
    META_FILE, STATUS_FILE,
};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Address to listen on (`"127.0.0.1:0"` for an ephemeral port).
    pub listen: String,
    /// Directory holding every job's durable state.
    pub state_dir: PathBuf,
    /// The process-wide shadow-budget pool, in bytes: the sum of all
    /// concurrently granted job budgets never exceeds this.
    pub pool_budget: u64,
    /// Maximum concurrently *running* jobs; also the fair-share
    /// divisor for submissions that ask the daemon to pick a budget.
    /// At least 1: [`Daemon::start`] refuses 0.
    pub max_jobs: usize,
    /// Per-subscriber stream buffer, in frames — the daemon's entire
    /// memory commitment to one slow client. At least 1, like
    /// `max_jobs`.
    pub stream_buffer: usize,
    /// How long a single blocked write to a client may stall before
    /// the client is declared dead and disconnected.
    pub stall_timeout: Duration,
    /// Scan the state directory on startup and resume incomplete jobs.
    pub resume: bool,
    /// Evict *terminal* job state (status sidecar present) once the
    /// sidecar is older than this TTL. `None` keeps everything
    /// forever. Non-terminal directories — a queued, running, or
    /// paused job's live journal — are never touched, whatever their
    /// age.
    pub job_ttl: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".into(),
            state_dir: PathBuf::from("rlrpd-serve-state"),
            pool_budget: 64 << 20,
            max_jobs: 4,
            stream_buffer: 256,
            stall_timeout: Duration::from_secs(5),
            resume: false,
            job_ttl: None,
        }
    }
}

/// Round-robin tenant queues: one FIFO per tenant, a cursor walking
/// the tenant list so no tenant's backlog can starve another's.
struct Sched {
    tenants: Vec<(u32, VecDeque<u64>)>,
    cursor: usize,
}

impl Sched {
    fn enqueue(&mut self, tenant: u32, key: u64) {
        match self.tenants.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, q)) => q.push_back(key),
            None => self.tenants.push((tenant, VecDeque::from([key]))),
        }
    }

    /// Pop the next key round-robin, starting at the cursor.
    fn pop_next(&mut self) -> Option<u64> {
        if self.tenants.is_empty() {
            return None;
        }
        let n = self.tenants.len();
        for off in 0..n {
            let at = (self.cursor + off) % n;
            if let Some(key) = self.tenants[at].1.pop_front() {
                self.cursor = (at + 1) % n;
                return Some(key);
            }
        }
        None
    }

    /// Put a key back at the *front* of its tenant's queue (a carve
    /// that did not fit yet; it keeps its place).
    fn push_front(&mut self, tenant: u32, key: u64) {
        match self.tenants.iter_mut().find(|(t, _)| *t == tenant) {
            Some((_, q)) => q.push_front(key),
            None => self.tenants.push((tenant, VecDeque::from([key]))),
        }
    }
}

struct Shared {
    cfg: ServeConfig,
    pool: Arc<BudgetPool>,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    sched: Mutex<Sched>,
    sched_cond: Condvar,
    draining: AtomicBool,
    running: AtomicUsize,
    sessions: AtomicUsize,
}

/// The daemon. [`Daemon::start`] binds the listener and spawns the
/// accept and scheduler threads; the returned [`DaemonHandle`] drains
/// and joins it.
pub struct Daemon;

/// A running daemon: its bound address, drain switch, and join handle.
pub struct DaemonHandle {
    addr: String,
    /// Where [`DaemonHandle::drain`] connects to wake the accept loop:
    /// the bound address, on loopback when the bind was a wildcard.
    wake: SocketAddr,
    shared: Arc<Shared>,
    accept: std::thread::JoinHandle<()>,
    sched: std::thread::JoinHandle<()>,
}

impl DaemonHandle {
    /// The bound listen address (concrete port even when the config
    /// asked for an ephemeral one).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Begin a graceful drain, exactly as SIGTERM does: admission
    /// stops, running jobs pause at their next commit point, queued
    /// jobs stay durable for a later `--resume`.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.sched_cond.notify_all();
        // The accept loop blocks in `accept`; one connection — made
        // after the flag is set, so the loop sees it — wakes it.
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }

    /// Wait for the daemon to finish draining; returns the process
    /// exit code (0 on a clean drain).
    pub fn join(self) -> i32 {
        let a = self.accept.join();
        let s = self.sched.join();
        if a.is_err() || s.is_err() {
            return 1;
        }
        0
    }

    /// High-water mark of concurrently granted budget bytes — the
    /// soak tests' witness that grants never summed above the pool.
    pub fn pool_granted_peak(&self) -> u64 {
        self.shared.pool.granted_peak()
    }

    /// The pool's total capacity.
    pub fn pool_total(&self) -> u64 {
        self.shared.pool.total()
    }

    /// Currently running job count (tests poll this to time a drain
    /// mid-flight).
    pub fn running_jobs(&self) -> usize {
        self.shared.running.load(Ordering::SeqCst)
    }
}

impl Daemon {
    /// Bind the listener, recover durable state, and start serving.
    ///
    /// With `resume` unset, a state directory holding *incomplete*
    /// jobs is refused (start with `resume` to pick them up) — a
    /// silent fresh start over live journals would strand them.
    pub fn start(cfg: ServeConfig) -> std::io::Result<DaemonHandle> {
        if cfg.max_jobs == 0 || cfg.stream_buffer == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "max_jobs and stream_buffer must be at least 1",
            ));
        }
        std::fs::create_dir_all(&cfg.state_dir)?;
        let listener = TcpListener::bind(&cfg.listen)?;
        let mut wake = listener.local_addr()?;
        let addr = wake.to_string();
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            pool: Arc::new(BudgetPool::new(cfg.pool_budget)),
            cfg,
            jobs: Mutex::new(HashMap::new()),
            sched: Mutex::new(Sched {
                tenants: Vec::new(),
                cursor: 0,
            }),
            sched_cond: Condvar::new(),
            draining: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            sessions: AtomicUsize::new(0),
        });
        recover(&shared)?;
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(shared, listener))
        };
        let sched = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler(shared))
        };
        Ok(DaemonHandle {
            addr,
            wake,
            shared,
            accept,
            sched,
        })
    }
}

/// One TTL sweep over the state directory: remove every job
/// directory whose status sidecar exists *and* is older than the
/// TTL. The sidecar is the terminal witness — it is written (tmp +
/// rename + fsync) only once a job reaches `Done` or `Failed` — so a
/// directory without one belongs to a queued, running, or paused job
/// and is never touched, whatever its age. Returns the evicted keys.
pub(crate) fn evict_expired_dirs(state_dir: &std::path::Path, ttl: Duration) -> Vec<u64> {
    let mut evicted = Vec::new();
    let Ok(entries) = std::fs::read_dir(state_dir) else {
        return evicted;
    };
    let now = std::time::SystemTime::now();
    for entry in entries.flatten() {
        let Some(key) = entry.file_name().to_str().and_then(key_of_dir) else {
            continue;
        };
        let dir = entry.path();
        // Age is measured on the sidecar, not the directory: journal
        // appends and late meta rewrites must not refresh the clock.
        let Ok(meta) = std::fs::metadata(dir.join(STATUS_FILE)) else {
            continue; // no sidecar: the job is not terminal
        };
        let expired = meta
            .modified()
            .ok()
            .and_then(|m| now.duration_since(m).ok())
            .is_some_and(|age| age >= ttl);
        if !expired {
            continue;
        }
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => evicted.push(key),
            Err(e) => eprintln!("serve: job {key:016x}: ttl eviction failed: {e}"),
        }
    }
    evicted
}

/// The scheduler-thread face of the sweep: rate-limited by the TTL
/// itself (capped at one pass per second), and after the filesystem
/// pass it drops the evicted keys' in-memory records — but only ones
/// still in a terminal state, so a key resubmitted in the window
/// between the scan and the lock is left alone.
fn evict_expired(shared: &Arc<Shared>, last_sweep: &mut std::time::Instant) {
    let Some(ttl) = shared.cfg.job_ttl else {
        return;
    };
    if last_sweep.elapsed() < ttl.min(Duration::from_secs(1)) {
        return;
    }
    *last_sweep = std::time::Instant::now();
    let evicted = evict_expired_dirs(&shared.cfg.state_dir, ttl);
    if evicted.is_empty() {
        return;
    }
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    for key in &evicted {
        if let Some(job) = jobs.get(key) {
            if matches!(job.current_state(), JobState::Done | JobState::Failed) {
                jobs.remove(key);
            }
        }
    }
}

/// Scan the state directory: terminal jobs (status sidecar present)
/// are loaded for status queries and late attaches; incomplete jobs
/// are re-queued when resuming, refused otherwise.
fn recover(shared: &Arc<Shared>) -> std::io::Result<()> {
    if let Some(ttl) = shared.cfg.job_ttl {
        let evicted = evict_expired_dirs(&shared.cfg.state_dir, ttl);
        if !evicted.is_empty() {
            eprintln!(
                "serve: evicted {} terminal job(s) past the {:.0?} TTL",
                evicted.len(),
                ttl
            );
        }
    }
    let mut incomplete = Vec::new();
    for entry in std::fs::read_dir(&shared.cfg.state_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(key) = name.to_str().and_then(key_of_dir) else {
            continue;
        };
        let dir = entry.path();
        let spec = match std::fs::read(dir.join(META_FILE))
            .ok()
            .and_then(|b| JobSpec::decode(&b).ok())
        {
            Some(s) if s.key == key => s,
            _ => {
                eprintln!("serve: {}: unreadable meta image; skipped", dir.display());
                continue;
            }
        };
        let base = count_frames(&dir.join(crate::jobs::JOURNAL_FILE)) as u64;
        let job = Arc::new(Job::new(spec, dir.clone(), base));
        let status = std::fs::read(job.status_path())
            .ok()
            .and_then(|b| JobStatusFrame::decode(&b).ok());
        match status {
            Some(st) => {
                job.set_state(st.state);
                job.publisher.finish(&st.encode());
                *job.status.lock().expect("job status lock") = Some(st);
            }
            None => incomplete.push(key),
        }
        shared.jobs.lock().expect("jobs lock").insert(key, job);
    }
    if !incomplete.is_empty() && !shared.cfg.resume {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!(
                "state dir holds {} incomplete job(s); start with --resume to pick them up",
                incomplete.len()
            ),
        ));
    }
    incomplete.sort_unstable();
    let mut sched = shared.sched.lock().expect("sched lock");
    for key in incomplete {
        sched.enqueue(tenant_of(key), key);
    }
    Ok(())
}

/// The accept loop. It blocks in `accept` — a client is served the
/// moment it connects — and [`DaemonHandle::drain`] wakes it with a
/// connection of its own after setting the flag. On drain it stops
/// accepting, pauses every job, and waits for the running set (then
/// the session threads) to wind down.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            // The drain's own wake-up (or a client that lost the race
            // with it: admission has stopped either way).
            Ok(_) if shared.draining.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => {
                shared.sessions.fetch_add(1, Ordering::SeqCst);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    session(&shared, stream);
                    shared.sessions.fetch_sub(1, Ordering::SeqCst);
                });
            }
            // A failing accept (fd exhaustion, an aborted handshake)
            // must not spin.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    drain_jobs(&shared);
    while shared.running.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Give session threads a bounded grace period to flush their
    // final (Paused / terminal) status frames.
    for _ in 0..200 {
        if shared.sessions.load(Ordering::SeqCst) == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Pause the world: queued jobs flip to `Paused` (their meta images
/// keep them durable), running jobs get their cooperative stop flag
/// set and pause themselves at the next commit point.
fn drain_jobs(shared: &Arc<Shared>) {
    let jobs = shared.jobs.lock().expect("jobs lock");
    for job in jobs.values() {
        match job.current_state() {
            JobState::Queued => {
                job.set_state(JobState::Paused);
                let status = paused_status(job, 0);
                job.publisher.finish(&status.encode());
            }
            JobState::Running => job.stop.store(true, Ordering::SeqCst),
            _ => {}
        }
    }
}

fn paused_status(job: &Job, frontier: u64) -> JobStatusFrame {
    let frontier = frontier.max(job.publisher.summary(0).frontier);
    JobStatusFrame {
        key: job.spec.key,
        state: JobState::Paused,
        exit_code: 0,
        verified: false,
        frontier,
        report_json: String::new(),
        message: "paused by drain; restart the daemon with --resume".into(),
    }
}

/// The dispatcher: round-robin across tenants, gated on the budget
/// pool and the running-job cap. A job whose budget does not fit yet
/// keeps its place at the front of its tenant's queue.
fn scheduler(shared: Arc<Shared>) {
    let mut last_sweep = std::time::Instant::now();
    loop {
        let dispatch = {
            let mut sched = shared.sched.lock().expect("sched lock");
            if shared.draining.load(Ordering::SeqCst) {
                return;
            }
            match try_dispatch(&shared, &mut sched) {
                Some(d) => Some(d),
                None => {
                    let _ = shared
                        .sched_cond
                        .wait_timeout(sched, Duration::from_millis(50))
                        .expect("sched lock");
                    None
                }
            }
        };
        // Outside the scheduler lock: the TTL sweep touches the
        // filesystem and must not stall dispatch or admission.
        evict_expired(&shared, &mut last_sweep);
        let Some((job, lease)) = dispatch else {
            continue;
        };
        shared.running.fetch_add(1, Ordering::SeqCst);
        job.set_state(JobState::Running);
        let shared2 = Arc::clone(&shared);
        std::thread::spawn(move || {
            run_job(&job, &lease);
            shared2.running.fetch_sub(1, Ordering::SeqCst);
            drop(lease);
            shared2.sched_cond.notify_all();
        });
    }
}

/// One dispatch attempt under the scheduler lock: find the next
/// queued job (round-robin) whose budget carves from the pool.
fn try_dispatch(shared: &Arc<Shared>, sched: &mut Sched) -> Option<(Arc<Job>, BudgetLease)> {
    if shared.running.load(Ordering::SeqCst) >= shared.cfg.max_jobs {
        return None;
    }
    let key = sched.pop_next()?;
    let job = match shared.jobs.lock().expect("jobs lock").get(&key) {
        Some(j) => Arc::clone(j),
        None => return None, // deleted under us; drop the queue entry
    };
    let want = grant_bytes(&shared.cfg, &job.spec);
    match shared.pool.try_carve(want) {
        Some(lease) => Some((job, lease)),
        None => {
            // Not yet: the pool is committed elsewhere. The job keeps
            // its place; a finishing job's lease release re-wakes us.
            sched.push_front(tenant_of(key), key);
            None
        }
    }
}

/// The budget a job runs under: its explicit request, or a fair share
/// of the pool (`pool / max_jobs`) when it asked the daemon to pick.
fn grant_bytes(cfg: &ServeConfig, spec: &JobSpec) -> u64 {
    if spec.budget_bytes > 0 {
        spec.budget_bytes
    } else {
        (cfg.pool_budget / cfg.max_jobs as u64).max(1)
    }
}

/// Execute one job to a terminal state (or a drain pause), publishing
/// its journal stream and recording the outcome.
fn run_job(job: &Arc<Job>, lease: &BudgetLease) {
    match execute_job(job, lease) {
        Ok(Outcome::Paused { frontier }) => {
            job.set_state(JobState::Paused);
            let status = paused_status(job, frontier);
            job.publisher.finish(&status.encode());
        }
        Ok(Outcome::Finished(status)) | Err(status) => settle(job, status),
    }
}

/// Persist and publish a terminal status: sidecar first (tmp +
/// rename + fsync — after this the restart scan knows the job is
/// over), then the in-memory record, then the subscribers.
fn settle(job: &Arc<Job>, status: JobStatusFrame) {
    let bytes = status.encode();
    if let Err(e) = write_atomic(&job.status_path(), &bytes) {
        eprintln!(
            "serve: job {:016x}: status sidecar write failed: {e}",
            job.spec.key
        );
    }
    job.set_state(status.state);
    *job.status.lock().expect("job status lock") = Some(status);
    job.publisher.finish(&bytes);
}

enum Outcome {
    Finished(JobStatusFrame),
    Paused { frontier: u64 },
}

fn execute_job(job: &Arc<Job>, lease: &BudgetLease) -> Result<Outcome, JobStatusFrame> {
    let key = job.spec.key;
    let fail = |exit_code: u32, message: String| JobStatusFrame {
        key,
        state: JobState::Failed,
        exit_code,
        verified: false,
        frontier: job.publisher.summary(0).frontier,
        report_json: String::new(),
        message,
    };
    let lp = resolve_spec(&job.spec.spec).map_err(|e| fail(64, e))?;
    let cfg = job_config(&job.spec, lease.bytes()).map_err(|e| fail(64, e))?;
    let mut runner = Runner::new(cfg).with_stop(Arc::clone(&job.stop));
    if let Some(plan) = job_faults(&job.spec, lp.num_iters()).map_err(|e| fail(64, e))? {
        runner = runner.with_fault(Arc::new(plan));
    }

    let (mut journal, resuming) =
        open_journal(job).map_err(|e| fail(4, format!("journal create: {e}")))?;
    let observer = {
        let job = Arc::clone(job);
        FrameObserver::new(move |frame: &[u8]| job.publisher.publish(frame))
    };
    journal.set_observer(Some(observer));

    let plan = RunPlan {
        journal: Some(&mut journal),
        resume: resuming,
        ..Default::default()
    };
    match runner.execute(lp.as_ref(), plan) {
        Ok(res) => {
            if let Some(at) = res.report.stopped_at {
                if job.stop.load(Ordering::SeqCst) {
                    return Ok(Outcome::Paused {
                        frontier: at as u64,
                    });
                }
            }
            // Checked against a sequential execution of the same loop
            // (bit identity; declared reductions at the CLI's rounding
            // tolerance): the daemon's contract, not the client's trust.
            let (seq, _) = run_sequential(lp.as_ref());
            let mask = reduction_mask(lp.as_ref());
            let verified = verify_against_sequential(&seq, &res.arrays, &mask).is_ok();
            Ok(Outcome::Finished(JobStatusFrame {
                key,
                state: JobState::Done,
                exit_code: 0,
                verified,
                frontier: lp.num_iters() as u64,
                report_json: res.report.to_json(),
                message: String::new(),
            }))
        }
        Err(e) => Err(fail(e.exit_code() as u32, e.to_string())),
    }
}

/// The job's journal, and whether the run resumes it: the file's valid
/// prefix when it holds a header, else a fresh file (a crash before the
/// first durable record left nothing to resume). The publisher is
/// reconciled with what the file durably holds — its record count, and
/// the frontier of its last commit, which a recovered job's summaries
/// and statuses carry until its first new commit.
fn open_journal(job: &Job) -> Result<(Journal, bool), JournalError> {
    let path = job.journal_path();
    let (journal, resuming) = match Journal::open(&path) {
        Ok(j) => (j, true),
        Err(_) => {
            let _ = std::fs::remove_file(&path);
            (Journal::create(&path)?, false)
        }
    };
    let frontier = journal.commits().last().map_or(0, |c| c.frontier as u64);
    job.publisher.reconcile(journal.records() as u64, frontier);
    Ok((journal, resuming))
}

/// Build the run configuration a submission asks for.
fn job_config(spec: &JobSpec, budget: u64) -> Result<RunConfig, String> {
    let strategy: Strategy = spec.strategy.parse()?;
    let mut cfg = RunConfig::new(spec.p as usize)
        .with_strategy(strategy)
        .with_exec(ExecMode::Pooled)
        .with_shadow_budget(Some(budget));
    if spec.max_stages > 0 {
        cfg.max_stages = spec.max_stages as usize;
    }
    Ok(cfg)
}

/// Each job's faults are its own: a plan derived from *its*
/// submission, never shared across tenants.
fn job_faults(spec: &JobSpec, n: usize) -> Result<Option<FaultPlan>, String> {
    let seed = (spec.fault_seed != 0).then_some(spec.fault_seed);
    let shadow = (!spec.shadow_fault.is_empty()).then_some(spec.shadow_fault.as_str());
    FaultPlan::from_options(seed, shadow, n).map_err(|e| format!("shadow fault {e}"))
}

/// Validate a submission without creating any state: build what
/// dispatch will build and ask the run's own question
/// ([`RunPlan::validate`]), so a plan the core would refuse is a typed
/// rejection at admission, never a failed job. (The budget is granted
/// at dispatch and legal at any size; the journal the job will run
/// under never makes a plan illegal, and nothing a submission can arm
/// needs one to be legal.)
fn validate(spec: &JobSpec) -> Result<(), String> {
    let lp = resolve_spec(&spec.spec)?;
    let cfg = job_config(spec, spec.budget_bytes)?;
    let fault = job_faults(spec, lp.num_iters())?;
    RunPlan::default()
        .validate(&cfg, fault.as_ref())
        .map_err(|e| e.to_string())
}

/// Admit a submission: decide, and durably record accepted jobs.
fn admit(shared: &Arc<Shared>, spec: JobSpec) -> (JobDecision, Option<Arc<Job>>) {
    if spec.protocol != SERVE_PROTOCOL_VERSION {
        return (
            JobDecision::Rejected(RejectReason::ProtocolMismatch {
                server: SERVE_PROTOCOL_VERSION,
            }),
            None,
        );
    }
    if shared.draining.load(Ordering::SeqCst) {
        return (JobDecision::Rejected(RejectReason::Draining), None);
    }
    if spec.budget_bytes > 0 && !shared.pool.can_ever_fit(spec.budget_bytes) {
        return (
            JobDecision::Rejected(RejectReason::OverPool {
                requested: spec.budget_bytes,
                pool: shared.pool.total(),
            }),
            None,
        );
    }
    if let Err(m) = validate(&spec) {
        return (JobDecision::Rejected(RejectReason::BadSpec(m)), None);
    }
    let mut jobs = shared.jobs.lock().expect("jobs lock");
    if let Some(existing) = jobs.get(&spec.key) {
        return if existing.spec == spec {
            (JobDecision::Attached, Some(Arc::clone(existing)))
        } else {
            (JobDecision::Rejected(RejectReason::KeyConflict), None)
        };
    }
    let dir = job_dir(&shared.cfg.state_dir, spec.key);
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| write_atomic(&dir.join(META_FILE), &spec.encode()))
    {
        return (
            JobDecision::Rejected(RejectReason::BadSpec(format!(
                "cannot persist job state: {e}"
            ))),
            None,
        );
    }
    let job = Arc::new(Job::new(spec, dir, 0));
    let key = job.spec.key;
    jobs.insert(key, Arc::clone(&job));
    drop(jobs);
    let immediate = shared.running.load(Ordering::SeqCst) < shared.cfg.max_jobs
        && shared.pool.available() >= grant_bytes(&shared.cfg, &job.spec);
    shared
        .sched
        .lock()
        .expect("sched lock")
        .enqueue(tenant_of(key), key);
    shared.sched_cond.notify_all();
    let decision = if immediate {
        JobDecision::Accepted
    } else {
        JobDecision::Queued
    };
    (decision, Some(job))
}

/// Answer a status query from live state (running and terminal jobs
/// both live in the map; recovery loads terminal jobs from disk).
fn status_of(shared: &Arc<Shared>, key: u64) -> JobStatusFrame {
    let jobs = shared.jobs.lock().expect("jobs lock");
    match jobs.get(&key) {
        Some(job) => {
            if let Some(st) = job.status.lock().expect("job status lock").clone() {
                return st;
            }
            JobStatusFrame {
                key,
                state: job.current_state(),
                exit_code: 0,
                verified: false,
                frontier: job.publisher.summary(0).frontier,
                report_json: String::new(),
                message: String::new(),
            }
        }
        None => JobStatusFrame {
            key,
            state: JobState::Unknown,
            exit_code: 0,
            verified: false,
            frontier: 0,
            report_json: String::new(),
            message: "no job under this key".into(),
        },
    }
}

/// One client connection: a submission (answered with a decision,
/// then the job's journal stream, then its status frame) or a status
/// query (answered with one status frame).
fn session(shared: &Arc<Shared>, mut stream: TcpStream) {
    // A connected-but-silent client is reclaimed, mirroring the
    // worker listener's idle reaper.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let first = match read_frame(&mut stream) {
        Ok(Some(f)) => f,
        _ => return,
    };
    match frame_kind(&first) {
        Some(FRAME_SUBMIT) => {
            let Ok(spec) = JobSpec::decode(&first) else {
                return;
            };
            let (decision, job) = admit(shared, spec);
            if write_frame(&mut stream, &decision.encode()).is_err() {
                return;
            }
            // Rejections carry no job; everything else streams.
            let Some(job) = job else { return };
            stream_job(shared, &job, stream);
        }
        Some(FRAME_STATUS_REQ) => {
            let Ok(req) = StatusRequest::decode(&first) else {
                return;
            };
            let status = status_of(shared, req.key);
            let _ = write_frame(&mut stream, &status.encode());
        }
        _ => {}
    }
}

/// Stream a job's journal to one client: catch up with the file's own
/// bytes, then follow the live queue — journal frames go out as they
/// lie in the file, and only the daemon's own records (a frontier
/// summary where frames were dropped, the terminal status) are framed
/// here. A write that stalls past the configured timeout disconnects
/// the client; the job itself never notices.
fn stream_job(shared: &Arc<Shared>, job: &Arc<Job>, mut stream: TcpStream) {
    use std::io::Write as _;
    let _ = stream.set_write_timeout(Some(shared.cfg.stall_timeout));
    let (sub, snapshot, finished) = job.publisher.subscribe(shared.cfg.stream_buffer);
    let catch_up = journal_prefix(&job.journal_path(), snapshot as usize).unwrap_or_default();
    if stream.write_all(&catch_up).is_err() {
        sub.mark_gone();
        return;
    }
    if let Some(status) = finished {
        let _ = write_frame(&mut stream, &status);
        return;
    }
    loop {
        match sub.next() {
            StreamItem::Frame { record, dropped } => {
                if dropped > 0 {
                    let summary = job.publisher.summary(dropped);
                    if write_frame(&mut stream, &summary.encode()).is_err() {
                        sub.mark_gone();
                        return;
                    }
                }
                let sent = if sub.finished() {
                    write_frame(&mut stream, &record)
                } else {
                    stream.write_all(&record)
                };
                if sent.is_err() {
                    sub.mark_gone();
                    return;
                }
            }
            StreamItem::Closed => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Process entry: signals and the CLI wrapper
// ---------------------------------------------------------------------------

/// Set by SIGTERM/SIGINT; polled by [`serve_entry`].
static SIGNAL_DRAIN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term_signal(_sig: i32) {
    SIGNAL_DRAIN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }
    // SIGTERM = 15, SIGINT = 2 on every Unix this builds for. The
    // handler only stores to an atomic (async-signal-safe); the drain
    // itself runs on the entry thread's poll loop.
    // SAFETY: installing an async-signal-safe handler (a single
    // atomic store) via the C `signal` entry point.
    unsafe {
        signal(15, on_term_signal);
        signal(2, on_term_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// Run the daemon as a process: install signal handlers, print the
/// listen banner, serve until SIGTERM/SIGINT, drain, exit. Returns
/// the process exit code.
pub fn serve_entry(cfg: ServeConfig) -> i32 {
    install_signal_handlers();
    let handle = match Daemon::start(cfg.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("rlrpd serve: {e}");
            return 1;
        }
    };
    println!(
        "serve listening on {} (pool {} bytes, {} concurrent jobs, state {})",
        handle.addr(),
        handle.pool_total(),
        cfg.max_jobs,
        cfg.state_dir.display()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    while !SIGNAL_DRAIN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("serve: drain requested; pausing jobs at their commit points");
    handle.drain();
    handle.join()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_interleaves_tenants() {
        let mut s = Sched {
            tenants: Vec::new(),
            cursor: 0,
        };
        // Tenant 1 floods first; tenant 2 arrives later with one job.
        s.enqueue(1, 0x1_0000_0001);
        s.enqueue(1, 0x1_0000_0002);
        s.enqueue(1, 0x1_0000_0003);
        s.enqueue(2, 0x2_0000_0001);
        assert_eq!(s.pop_next(), Some(0x1_0000_0001));
        assert_eq!(
            s.pop_next(),
            Some(0x2_0000_0001),
            "the later tenant is served before the flood continues"
        );
        assert_eq!(s.pop_next(), Some(0x1_0000_0002));
        assert_eq!(s.pop_next(), Some(0x1_0000_0003));
        assert_eq!(s.pop_next(), None);
    }

    #[test]
    fn push_front_preserves_place() {
        let mut s = Sched {
            tenants: Vec::new(),
            cursor: 0,
        };
        s.enqueue(1, 10);
        s.enqueue(1, 11);
        let k = s.pop_next().unwrap();
        s.push_front(1, k);
        assert_eq!(s.pop_next(), Some(10), "a deferred carve keeps its turn");
    }

    /// A job recovered from a journal cut after its third commit says,
    /// before it commits anything new — in a summary, and so in a paused
    /// or failed status — the frontier that commit reached, not 0.
    #[test]
    fn a_recovered_job_starts_at_the_frontier_of_its_last_durable_commit() {
        use rlrpd_core::remote::frames;
        let dir =
            std::env::temp_dir().join(format!("rlrpd-recovered-frontier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = JobSpec {
            protocol: SERVE_PROTOCOL_VERSION,
            key: 1,
            spec: "dcdcmp15:17".into(),
            p: 4,
            strategy: "sw:7".into(),
            budget_bytes: 0,
            fault_seed: 0,
            shadow_fault: String::new(),
            max_stages: 0,
        };
        let path = Job::new(spec.clone(), dir.clone(), 0).journal_path();
        let lp = resolve_spec(&spec.spec).unwrap();
        let cfg = RunConfig::new(4).with_strategy(spec.strategy.parse().unwrap());
        let mut journal = Journal::create(&path).unwrap();
        let plan = RunPlan {
            journal: Some(&mut journal),
            ..Default::default()
        };
        Runner::new(cfg).execute(lp.as_ref(), plan).unwrap();
        let third = journal.commits()[2].frontier as u64;
        assert!(0 < third && third < lp.num_iters() as u64);
        drop(journal);
        let file = std::fs::read(&path).unwrap();
        let (_, end) = frames(&file).nth(3).unwrap();
        std::fs::write(&path, &file[..end]).unwrap();

        let recovered = Job::new(spec, dir.clone(), count_frames(&path) as u64);
        let (journal, resuming) = open_journal(&recovered).unwrap();
        assert!(resuming);
        assert_eq!(journal.commits().len(), 3);
        let summary = recovered.publisher.summary(0);
        assert_eq!((summary.frontier, summary.records), (third, 4));
        assert_eq!(paused_status(&recovered, 0).frontier, third);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fair_share_is_pool_over_max_jobs() {
        let cfg = ServeConfig {
            pool_budget: 1000,
            max_jobs: 4,
            ..ServeConfig::default()
        };
        let mut spec = JobSpec {
            protocol: SERVE_PROTOCOL_VERSION,
            key: 1,
            spec: "unused".into(),
            p: 4,
            strategy: "rd".into(),
            budget_bytes: 0,
            fault_seed: 0,
            shadow_fault: String::new(),
            max_stages: 0,
        };
        assert_eq!(grant_bytes(&cfg, &spec), 250);
        spec.budget_bytes = 777;
        assert_eq!(grant_bytes(&cfg, &spec), 777);
    }

    #[test]
    fn zero_job_slots_or_stream_buffer_are_refused_before_anything_starts() {
        let dir = std::env::temp_dir().join(format!("rlrpd-zero-cfg-{}", std::process::id()));
        for (max_jobs, stream_buffer) in [(0, 256), (4, 0)] {
            let cfg = ServeConfig {
                state_dir: dir.clone(),
                max_jobs,
                stream_buffer,
                ..ServeConfig::default()
            };
            let err = Daemon::start(cfg).err().expect("a zero must be refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(!dir.exists(), "no state directory for a refused config");
        }
    }
}
