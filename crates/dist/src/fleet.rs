//! The supervisor side: a fleet of workers — subprocesses over pipes,
//! remote hosts over TCP, or a mix — with heartbeats, per-block
//! deadlines, retry-with-backoff, per-worker quarantine, and divergence
//! detection.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rlrpd_core::remote::{
    encode_shutdown, frame_kind, push_frame, read_frame, BlockDispatcher, BlockReply, BlockRequest,
    DistConnector, HelloAck, TransportStats, WireHello, WorkerLoss, FAULT_CORRUPT, FAULT_HANG,
    FAULT_KILL, FAULT_NONE, FRAME_HEARTBEAT, FRAME_HELLO, FRAME_REPLY, PROTOCOL_VERSION,
};
use rlrpd_runtime::{FaultPlan, WorkerFault};

use crate::net;

/// How often the supervisor's collect loop wakes to check deadlines and
/// heartbeat staleness when no frame has arrived.
const TICK: Duration = Duration::from_millis(50);

/// Floor on the heartbeat-staleness timeout, so that short block
/// deadlines (as used by the chaos tests) do not make ordinary
/// scheduling jitter look like a dead worker.
const MIN_HEARTBEAT_TIMEOUT: Duration = Duration::from_millis(500);

/// Buffer of every reader of wire frames, sized to hold a whole frame:
/// `BufReader`'s default 8 KiB takes two `read`s for an 8.1 KB block
/// reply, on every block of every stage.
pub(crate) const FRAME_READER_BYTES: usize = 64 << 10;

/// Fault-tolerance policy of a worker fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DistPolicy {
    /// Worker count when the launcher has no explicit endpoint list
    /// (all subprocess workers). With endpoints, their count wins.
    pub workers: usize,
    /// A block outstanding longer than this marks its worker hung; the
    /// worker is killed, respawned, and the block re-dispatched.
    pub block_deadline: Duration,
    /// Respawns (deaths, deadline kills, and divergence rejections
    /// combined) tolerated **per worker slot** before that slot is
    /// quarantined — removed from the rotation for the rest of the run
    /// while the remaining workers carry on.
    pub max_respawns: usize,
    /// Fleet-wide respawn cap across all slots; exhausting it reports
    /// [`WorkerLoss`] and the run degrades to the in-process pooled
    /// path. `0` means auto: `(workers × max_respawns).max(4)`.
    pub fleet_max_respawns: usize,
    /// Base delay before the first respawn of a slot; doubles per
    /// respawn of that slot, plus deterministic jitter.
    pub backoff: Duration,
    /// Interval between worker heartbeat frames; travels to the worker
    /// in the hello. Must be comfortably below `block_deadline` or the
    /// staleness sweep cannot tell busy from dead
    /// ([`DistPolicy::validate`]; the fleet also floors the staleness
    /// timeout at 4 heartbeats).
    pub heartbeat: Duration,
}

impl Default for DistPolicy {
    fn default() -> Self {
        DistPolicy {
            workers: 2,
            block_deadline: Duration::from_secs(5),
            max_respawns: 3,
            fleet_max_respawns: 0,
            backoff: Duration::from_millis(50),
            heartbeat: Duration::from_millis(25),
        }
    }
}

impl DistPolicy {
    /// Is the policy coherent? Both intervals must be positive, and at
    /// least two heartbeats must fit in the failure-detection window —
    /// the block deadline, floored at the fleet's minimum staleness
    /// timeout — or every busy worker looks dead. Asked where a policy
    /// is made from outside input, and again by [`Fleet::launch`]
    /// before it starts a worker.
    pub fn validate(&self) -> Result<(), String> {
        if self.block_deadline.is_zero() {
            return Err("--block-deadline must be positive".into());
        }
        if self.heartbeat.is_zero() {
            return Err("--heartbeat-interval must be positive".into());
        }
        let window = self.block_deadline.max(MIN_HEARTBEAT_TIMEOUT);
        if self.heartbeat.saturating_mul(2) > window {
            return Err(format!(
                "--heartbeat-interval {}s is incoherent with --block-deadline: at least \
                 two heartbeats must fit in the failure-detection window ({}s); lower the \
                 interval or raise the deadline",
                self.heartbeat.as_secs_f64(),
                window.as_secs_f64()
            ));
        }
        Ok(())
    }

    /// The effective fleet-wide respawn cap for a fleet of `workers`
    /// slots (resolves the `0` = auto default).
    pub fn fleet_cap(&self, workers: usize) -> usize {
        if self.fleet_max_respawns == 0 {
            (workers * self.max_respawns).max(4)
        } else {
            self.fleet_max_respawns
        }
    }
}

/// Where one worker slot lives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A subprocess spawned by the supervisor (the launcher's `program`
    /// + `args`), framed over stdin/stdout pipes.
    Local,
    /// A remote `rlrpd worker --listen` host (`host:port`), dialed over
    /// TCP ([`net::connect`]). A "respawn" of a TCP slot
    /// is a fresh connection that replays hello + commit history —
    /// which is also how a partitioned slot rejoins.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Local => write!(f, "local"),
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
        }
    }
}

/// Launches worker fleets for distributed runs: the [`DistConnector`]
/// a run's `RunPlan::fleet` names.
///
/// `program` + `args` must start a process that speaks the worker
/// protocol on stdin/stdout — `rlrpd worker`, or any binary calling
/// [`crate::worker_entry`]. With an endpoint list, `Endpoint::Local`
/// slots use that subprocess and `Endpoint::Tcp` slots dial a listener
/// instead.
#[derive(Clone, Debug)]
pub struct DistLauncher {
    /// Worker executable for [`Endpoint::Local`] slots.
    pub program: PathBuf,
    /// Arguments handed to every subprocess worker (e.g. the `worker`
    /// subcommand).
    pub args: Vec<String>,
    /// Fault-tolerance policy for the fleet.
    pub policy: DistPolicy,
    /// Worker-fault injection plan; directives ride the block request
    /// frames keyed by dispatch ordinal, so a re-dispatched block never
    /// re-fires a one-shot fault.
    pub fault: Option<Arc<FaultPlan>>,
    /// Explicit worker slots; `None` means `policy.workers` subprocess
    /// slots.
    pub endpoints: Option<Vec<Endpoint>>,
}

impl DistLauncher {
    /// A launcher with the default policy and no fault injection.
    pub fn new(program: PathBuf, args: Vec<String>) -> Self {
        DistLauncher {
            program,
            args,
            policy: DistPolicy::default(),
            fault: None,
            endpoints: None,
        }
    }

    /// Replace the fault-tolerance policy.
    pub fn with_policy(mut self, policy: DistPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a worker-fault injection plan.
    pub fn with_fault(mut self, fault: Arc<FaultPlan>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Use an explicit endpoint list instead of `policy.workers`
    /// subprocess slots.
    pub fn with_endpoints(mut self, endpoints: Vec<Endpoint>) -> Self {
        self.endpoints = Some(endpoints);
        self
    }
}

impl DistConnector for DistLauncher {
    fn connect(&mut self, hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
        Fleet::launch(self, hello).map(|f| Box::new(f) as Box<dyn BlockDispatcher>)
    }
}

/// An event forwarded by a worker's reader thread.
enum Event {
    /// A complete frame arrived from the worker.
    Frame(Vec<u8>),
    /// The worker's stream closed (process death, socket shutdown) or
    /// framed garbage arrived.
    Eof,
}

/// What a worker's event — or its silence — calls for.
enum Verdict {
    /// Nothing: a heartbeat, a valid ack, an accepted reply.
    Fine,
    /// The worker is dead, hung or wrong: kill it, start a replacement.
    Replace(String),
    /// It is wrong in a way a restart would repeat: out of the rotation.
    Quarantine(String),
}

/// The writable half of one worker slot.
enum Link {
    /// Subprocess worker: pipe pair.
    Child { child: Child, stdin: ChildStdin },
    /// TCP worker: the connected socket (reads happen on a clone owned
    /// by the reader thread).
    Tcp(TcpStream),
    /// Killed or quarantined; writes fail immediately.
    Closed,
}

impl Link {
    /// Send `frames` — one or more whole frames, already
    /// length-prefixed ([`push_frame`]) — to the worker in one write.
    fn send(&mut self, frames: &[u8]) -> std::io::Result<()> {
        let w: &mut dyn Write = match self {
            Link::Child { stdin, .. } => stdin,
            Link::Tcp(stream) => stream,
            Link::Closed => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "worker link closed",
                ))
            }
        };
        w.write_all(frames)?;
        w.flush()
    }

    /// Tear the worker down: kill + reap a subprocess, shut down a
    /// socket (which also unblocks the reader thread's pending read).
    fn kill(&mut self) {
        match self {
            Link::Child { child, .. } => {
                let _ = child.kill();
                let _ = child.wait();
            }
            Link::Tcp(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
            Link::Closed => {}
        }
        *self = Link::Closed;
    }
}

/// One worker slot plus its supervisor-side bookkeeping.
struct Worker {
    link: Link,
    /// Spawn generation; events tagged with an older generation belong
    /// to a killed predecessor and are discarded.
    generation: u64,
    last_heartbeat: Instant,
    /// `(request index, dispatch time)` of blocks sent and not yet
    /// answered.
    outstanding: Vec<(usize, Instant)>,
    /// Commit frames broadcast since this worker was last written to:
    /// they leave in the same write as its next block request. A
    /// replacement starts with none — the history it is replayed
    /// already holds them.
    queued: Vec<u8>,
    reader: Option<JoinHandle<()>>,
    /// Respawns charged to this slot so far.
    respawns: u32,
    /// Out of the rotation for the rest of the run.
    quarantined: bool,
}

/// A live worker fleet implementing [`BlockDispatcher`].
///
/// Created by [`DistLauncher::connect`]; owned by the engine for the
/// duration of one distributed run. Dropping the fleet sends shutdown
/// frames, reaps every subprocess, and hangs up every socket.
pub struct Fleet {
    program: PathBuf,
    args: Vec<String>,
    policy: DistPolicy,
    fault: Option<Arc<FaultPlan>>,
    endpoints: Vec<Endpoint>,
    /// Encoded hello record (heartbeat interval already stamped in),
    /// replayed first to every (re)spawned worker.
    hello: Vec<u8>,
    /// This run's identity — every worker must echo it in its ack.
    run_id: u64,
    /// The chain value after the hello's header record — ditto (`None`
    /// for a header that is no record, which no worker acknowledges).
    header_chain: Option<u64>,
    /// Every commit record broadcast so far, in order — the replay log
    /// that rebuilds a fresh worker's mirror of the committed prefix.
    history: Vec<Vec<u8>>,
    workers: Vec<Worker>,
    tx: Sender<(usize, u64, Event)>,
    rx: Receiver<(usize, u64, Event)>,
    next_generation: u64,
    total_respawns: usize,
    /// Round-robin cursor over non-quarantined slots.
    cursor: usize,
    /// 0-based count of block transmissions (re-dispatches included);
    /// keys the worker-fault injection sites.
    dispatch_ordinal: usize,
    stats: TransportStats,
    lost: bool,
}

impl Fleet {
    /// Spawn/connect one worker per endpoint and replay the hello to
    /// each. A slot that cannot be started is quarantined on the spot
    /// (the fleet starts smaller); only a fleet with **zero** startable
    /// slots — or an incoherent policy ([`DistPolicy::validate`]) —
    /// fails (as a connect error, degrading the run in-process).
    pub fn launch(launcher: &DistLauncher, hello: &WireHello) -> Result<Fleet, String> {
        launcher.policy.validate()?;
        let endpoints = launcher
            .endpoints
            .clone()
            .unwrap_or_else(|| vec![Endpoint::Local; launcher.policy.workers.max(1)]);
        // Stamp the policy's heartbeat interval into the hello the
        // workers see. Only the header bytes seed the commit chain, so
        // this cannot perturb divergence detection.
        let mut hello = hello.clone();
        hello.heartbeat_millis = launcher.policy.heartbeat.as_millis().min(u32::MAX as u128) as u32;
        let run_id = hello.run_id;
        let header_chain = hello.header_chain();
        let (tx, rx) = mpsc::channel();
        let mut fleet = Fleet {
            program: launcher.program.clone(),
            args: launcher.args.clone(),
            policy: launcher.policy,
            fault: launcher.fault.clone(),
            endpoints,
            hello: hello.encode(),
            run_id,
            header_chain,
            history: Vec::new(),
            workers: Vec::new(),
            tx,
            rx,
            next_generation: 0,
            total_respawns: 0,
            cursor: 0,
            dispatch_ordinal: 0,
            stats: TransportStats::default(),
            lost: false,
        };
        let mut failures = Vec::new();
        for idx in 0..fleet.endpoints.len() {
            match fleet.spawn_worker(idx) {
                Ok(w) => fleet.workers.push(w),
                Err(e) => {
                    failures.push(format!("worker {idx} ({}): {e}", fleet.endpoints[idx]));
                    let generation = fleet.next_generation;
                    fleet.next_generation += 1;
                    fleet.workers.push(Worker {
                        link: Link::Closed,
                        generation,
                        last_heartbeat: Instant::now(),
                        outstanding: Vec::new(),
                        queued: Vec::new(),
                        reader: None,
                        respawns: 0,
                        quarantined: true,
                    });
                    fleet.stats.quarantined += 1;
                }
            }
        }
        if fleet.workers.iter().all(|w| w.quarantined) {
            return Err(format!(
                "no worker could be started: {}",
                failures.join("; ")
            ));
        }
        for failure in failures {
            eprintln!("rlrpd supervisor: {failure}; slot quarantined");
        }
        Ok(fleet)
    }

    /// Workers respawned so far (deaths, deadline kills, divergence).
    pub fn respawns(&self) -> usize {
        self.total_respawns
    }

    /// The effective fleet-wide respawn cap.
    fn fleet_cap(&self) -> usize {
        self.policy.fleet_cap(self.endpoints.len())
    }

    /// Start one worker (subprocess or TCP connection, per the slot's
    /// endpoint) and replay hello + commit history into it. Does not
    /// touch `self.workers`.
    fn spawn_worker(&mut self, idx: usize) -> std::io::Result<Worker> {
        let generation = self.next_generation;
        self.next_generation += 1;
        let (mut link, input): (Link, Box<dyn Read + Send>) = match &self.endpoints[idx] {
            Endpoint::Local => {
                let mut child = Command::new(&self.program)
                    .args(&self.args)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()?;
                let stdin = child.stdin.take().expect("worker stdin piped");
                let stdout = child.stdout.take().expect("worker stdout piped");
                (
                    Link::Child { child, stdin },
                    Box::new(BufReader::with_capacity(FRAME_READER_BYTES, stdout)),
                )
            }
            Endpoint::Tcp(addr) => {
                let stream = net::connect(addr, idx as u64)?;
                let reader = stream.try_clone()?;
                let reader = BufReader::with_capacity(FRAME_READER_BYTES, reader);
                (Link::Tcp(stream), Box::new(reader))
            }
        };
        let tx = self.tx.clone();
        let mut input = input;
        let reader = std::thread::spawn(move || loop {
            match read_frame(&mut input) {
                Ok(Some(frame)) => {
                    if tx.send((idx, generation, Event::Frame(frame))).is_err() {
                        break;
                    }
                }
                Ok(None) | Err(_) => {
                    let _ = tx.send((idx, generation, Event::Eof));
                    break;
                }
            }
        });
        let mut replay = Vec::new();
        push_frame(&mut replay, &self.hello);
        for record in &self.history {
            push_frame(&mut replay, record);
        }
        link.send(&replay)?;
        self.stats.wire_bytes += replay.len() as u64;
        Ok(Worker {
            link,
            generation,
            last_heartbeat: Instant::now(),
            outstanding: Vec::new(),
            queued: Vec::new(),
            reader: Some(reader),
            respawns: 0,
            quarantined: false,
        })
    }

    /// Take slot `idx` out of the rotation for good: tear the link
    /// down, reclaim its outstanding blocks (returned for re-dispatch
    /// elsewhere), and shrink the active fleet. Fails with
    /// [`WorkerLoss`] only when no active worker remains.
    fn quarantine(&mut self, idx: usize, why: &str) -> Result<Vec<usize>, WorkerLoss> {
        let w = &mut self.workers[idx];
        w.teardown();
        let orphans: Vec<usize> = w.outstanding.drain(..).map(|(req, _)| req).collect();
        w.queued = Vec::new();
        if !w.quarantined {
            w.quarantined = true;
            self.stats.quarantined += 1;
            eprintln!(
                "rlrpd supervisor: worker {idx} ({}) quarantined: {why}",
                self.endpoints[idx]
            );
        }
        if self.workers.iter().all(|w| w.quarantined) {
            self.lost = true;
            return Err(WorkerLoss {
                reason: format!("worker {idx}: {why}; no active workers remain"),
            });
        }
        Ok(orphans)
    }

    /// Kill worker `idx` and start a replacement (after a jittered
    /// exponential backoff), replaying hello + history so its mirror of
    /// the committed prefix is rebuilt. Returns the request indices
    /// that were outstanding on the dead worker — the caller must
    /// re-dispatch them (possibly to other slots). A slot that exhausts
    /// its own budget — or cannot be restarted — is quarantined instead
    /// of sinking the fleet; only exhausting the fleet-wide cap (or
    /// losing the last active slot) fails with [`WorkerLoss`].
    fn respawn(&mut self, idx: usize, why: &str) -> Result<Vec<usize>, WorkerLoss> {
        self.total_respawns += 1;
        self.stats.respawns += 1;
        self.workers[idx].respawns += 1;
        if self.total_respawns > self.fleet_cap() {
            self.lost = true;
            return Err(WorkerLoss {
                reason: format!(
                    "worker {idx}: {why}; fleet respawn budget ({}) exhausted",
                    self.fleet_cap()
                ),
            });
        }
        if self.workers[idx].respawns as usize > self.policy.max_respawns {
            return self.quarantine(
                idx,
                &format!(
                    "{why}; slot respawn budget ({}) exhausted",
                    self.policy.max_respawns
                ),
            );
        }
        self.workers[idx].teardown();
        let per = self.workers[idx].respawns;
        let exp = (per - 1).min(10);
        let backoff = self.policy.backoff * 2u32.saturating_pow(exp)
            + net::jitter(idx as u64, per as u64, self.policy.backoff);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        let orphans: Vec<usize> = self.workers[idx]
            .outstanding
            .drain(..)
            .map(|(req, _)| req)
            .collect();
        match self.spawn_worker(idx) {
            Ok(mut w) => {
                w.respawns = per;
                self.workers[idx] = w;
                Ok(orphans)
            }
            Err(e) => {
                // The endpoint is gone (binary deleted, host down,
                // connection refused past the retry budget): quarantine
                // the slot, keep the fleet.
                let mut all = self.quarantine(idx, &format!("{why}; restart failed: {e}"))?;
                all.extend(orphans);
                Ok(all)
            }
        }
    }

    /// The next non-quarantined slot, round-robin.
    fn next_active(&mut self) -> Option<usize> {
        let n = self.workers.len();
        for _ in 0..n {
            let idx = self.cursor % n;
            self.cursor += 1;
            if !self.workers[idx].quarantined {
                return Some(idx);
            }
        }
        None
    }

    /// The fault directive for the next block transmission.
    fn next_fault_code(&mut self) -> u32 {
        let ordinal = self.dispatch_ordinal;
        self.dispatch_ordinal += 1;
        match self.fault.as_ref().and_then(|f| f.worker_fault(ordinal)) {
            None => FAULT_NONE,
            Some(WorkerFault::Kill) => FAULT_KILL,
            Some(WorkerFault::Hang) => FAULT_HANG,
            Some(WorkerFault::CorruptResult) => FAULT_CORRUPT,
        }
    }

    /// Drain the pending queue: transmit each request to the next
    /// active slot, respawning (within budget) on write failures —
    /// whose orphans join the queue and flow to surviving slots.
    fn pump_pending(
        &mut self,
        pending: &mut VecDeque<usize>,
        reqs: &[BlockRequest],
    ) -> Result<(), WorkerLoss> {
        while let Some(req_index) = pending.pop_front() {
            loop {
                let Some(idx) = self.next_active() else {
                    // Unreachable in practice: losing the last active
                    // slot already failed the respawn/quarantine call.
                    self.lost = true;
                    return Err(WorkerLoss {
                        reason: "no active workers remain".into(),
                    });
                };
                let record = reqs[req_index].encode(self.next_fault_code());
                // The commit frames queued for this worker and the
                // request: one write.
                let w = &mut self.workers[idx];
                push_frame(&mut w.queued, &record);
                match w.link.send(&w.queued) {
                    Ok(()) => {
                        self.stats.wire_bytes += w.queued.len() as u64;
                        w.queued.clear();
                        w.outstanding.push((req_index, Instant::now()));
                        break;
                    }
                    Err(e) => {
                        // The worker died between blocks; its orphans
                        // join the queue and this request retries on
                        // whatever slot is next. The commit frames it
                        // was owed reach its replacement in the replay.
                        let orphans = self.respawn(idx, &format!("request write failed: {e}"))?;
                        pending.extend(orphans);
                    }
                }
            }
        }
        Ok(())
    }

    /// Validate a worker's handshake ack. A mismatch is deterministic —
    /// a wrong binary or a cross-wired connection — so the slot is
    /// quarantined outright without burning respawn budget (a restart
    /// would fail the same way).
    fn check_ack(&self, frame: &[u8]) -> Verdict {
        let ack = match HelloAck::decode(frame) {
            Ok(a) => a,
            Err(e) => return Verdict::Replace(format!("undecodable hello ack: {e}")),
        };
        if ack.protocol != PROTOCOL_VERSION {
            return Verdict::Quarantine(format!(
                "protocol version mismatch: supervisor speaks v{}, worker speaks v{} \
                 (mismatched rlrpd binaries?)",
                PROTOCOL_VERSION, ack.protocol
            ));
        }
        if ack.run_id != self.run_id || Some(ack.header_chain) != self.header_chain {
            return Verdict::Quarantine(format!(
                "handshake identity mismatch: expected run {:#x}/header {:x?}, \
                 worker acknowledged run {:#x}/header {:#x} (cross-wired connection?)",
                self.run_id, self.header_chain, ack.run_id, ack.header_chain
            ));
        }
        Verdict::Fine
    }

    /// Match a reply frame from worker `idx` to the block it answers
    /// and take that block off the worker's hands; `Err` says why the
    /// worker cannot be trusted instead.
    fn accept_reply(
        &mut self,
        idx: usize,
        frame: &[u8],
        reqs: &[BlockRequest],
    ) -> Result<(usize, BlockReply), String> {
        let reply = BlockReply::decode(frame).map_err(|e| format!("undecodable reply: {e}"))?;
        let outstanding = &mut self.workers[idx].outstanding;
        let slot = outstanding
            .iter()
            .position(|&(r, _)| reqs[r].pos == reply.pos)
            .ok_or("reply for a block never dispatched")?;
        let (req_index, _) = outstanding[slot];
        if reply.chain != reqs[req_index].chain {
            // Divergent worker: its mirror of the committed state no
            // longer matches ours. Reject the result and rebuild it
            // from scratch.
            return Err("divergent result (input-chain mismatch)".into());
        }
        outstanding.swap_remove(slot);
        Ok((req_index, reply))
    }

    /// The one recovery step: replace worker `idx` — or, on a fault a
    /// restart would repeat, quarantine it — and hand whatever it was
    /// working on to the slots that remain.
    fn recover(
        &mut self,
        idx: usize,
        verdict: Verdict,
        pending: &mut VecDeque<usize>,
        reqs: &[BlockRequest],
    ) -> Result<(), WorkerLoss> {
        let orphans = match verdict {
            Verdict::Fine => return Ok(()),
            Verdict::Replace(why) => self.respawn(idx, &why)?,
            Verdict::Quarantine(why) => self.quarantine(idx, &why)?,
        };
        pending.extend(orphans);
        self.pump_pending(pending, reqs)
    }

    /// Heartbeat-staleness threshold: a busy worker silent this long is
    /// presumed dead even if its block deadline has not yet passed.
    fn heartbeat_timeout(&self) -> Duration {
        self.policy
            .block_deadline
            .max(MIN_HEARTBEAT_TIMEOUT)
            .max(self.policy.heartbeat.saturating_mul(4))
    }
}

impl Worker {
    /// Kill the worker and reap its reader thread.
    fn teardown(&mut self) {
        self.link.kill();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl BlockDispatcher for Fleet {
    fn broadcast(&mut self, record: &[u8]) -> Result<(), WorkerLoss> {
        if self.lost {
            return Err(WorkerLoss {
                reason: "fleet already lost".into(),
            });
        }
        // Nothing is written here. The record joins the history — so a
        // replacement's replay holds it — and each live worker's queue,
        // which goes out ahead of that worker's next block request: no
        // worker needs record `k` before it is asked for a block of
        // stage `k + 1`, and the last stage's record is never needed.
        self.history.push(record.to_vec());
        for w in self.workers.iter_mut().filter(|w| !w.quarantined) {
            push_frame(&mut w.queued, record);
        }
        Ok(())
    }

    fn dispatch(&mut self, reqs: &[BlockRequest]) -> Result<Vec<BlockReply>, WorkerLoss> {
        if self.lost {
            return Err(WorkerLoss {
                reason: "fleet already lost".into(),
            });
        }
        let t0 = Instant::now();
        let mut pending: VecDeque<usize> = (0..reqs.len()).collect();
        self.pump_pending(&mut pending, reqs)?;
        self.stats.dispatch_seconds += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let mut replies: Vec<Option<BlockReply>> = reqs.iter().map(|_| None).collect();
        let mut remaining = reqs.len();
        let mut last_sweep = Instant::now();
        while remaining > 0 {
            match self.rx.recv_timeout(TICK) {
                Ok((idx, generation, event)) => {
                    if idx >= self.workers.len()
                        || self.workers[idx].generation != generation
                        || self.workers[idx].quarantined
                    {
                        continue; // stale event from a killed predecessor
                    }
                    let verdict = match event {
                        Event::Eof => Verdict::Replace("worker exited".into()),
                        Event::Frame(frame) => {
                            let kind = frame_kind(&frame);
                            // A heartbeat is a function of the clock,
                            // not of the run: it is not counted.
                            if kind != Some(FRAME_HEARTBEAT) {
                                self.stats.wire_bytes += 4 + frame.len() as u64;
                            }
                            self.workers[idx].last_heartbeat = Instant::now();
                            match kind {
                                Some(FRAME_HEARTBEAT) => Verdict::Fine,
                                // The worker's handshake ack.
                                Some(FRAME_HELLO) => self.check_ack(&frame),
                                Some(FRAME_REPLY) => match self.accept_reply(idx, &frame, reqs) {
                                    Ok((req_index, reply)) => {
                                        if replies[req_index].replace(reply).is_none() {
                                            remaining -= 1;
                                        }
                                        Verdict::Fine
                                    }
                                    Err(why) => Verdict::Replace(why),
                                },
                                _ => Verdict::Replace("unexpected frame kind".into()),
                            }
                        }
                    };
                    self.recover(idx, verdict, &mut pending, reqs)?;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable: the fleet holds a sender clone.
                    self.lost = true;
                    return Err(WorkerLoss {
                        reason: "event channel disconnected".into(),
                    });
                }
            }
            // Deadline/staleness sweep on every pass, not only when the
            // channel is quiet: a hung worker whose heartbeat thread is
            // still alive keeps frames flowing at the heartbeat interval,
            // so `recv_timeout` may never actually time out.
            if last_sweep.elapsed() >= TICK {
                last_sweep = Instant::now();
                let now = Instant::now();
                let deadline = self.policy.block_deadline;
                let stale_after = self.heartbeat_timeout();
                for idx in 0..self.workers.len() {
                    let w = &self.workers[idx];
                    if w.quarantined || w.outstanding.is_empty() {
                        continue;
                    }
                    let overdue = w
                        .outstanding
                        .iter()
                        .any(|&(_, sent)| now.duration_since(sent) > deadline);
                    let stale = now.duration_since(w.last_heartbeat) > stale_after;
                    if overdue || stale {
                        let why = if overdue {
                            "block deadline exceeded"
                        } else {
                            "heartbeat lost"
                        };
                        self.recover(idx, Verdict::Replace(why.into()), &mut pending, reqs)?;
                    }
                }
            }
        }
        self.stats.collect_seconds += t1.elapsed().as_secs_f64();
        Ok(replies
            .into_iter()
            .map(|r| r.expect("all collected"))
            .collect())
    }

    fn take_stats(&mut self) -> TransportStats {
        std::mem::take(&mut self.stats)
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let mut bye = Vec::new();
        push_frame(&mut bye, &encode_shutdown());
        for w in &mut self.workers {
            if !w.quarantined {
                let _ = w.link.send(&bye);
            }
        }
        self.workers.iter_mut().for_each(Worker::teardown);
    }
}
