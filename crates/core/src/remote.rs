//! The distributed stage-sharding protocol: supervisor ↔ worker wire
//! types, the block-dispatch abstraction, and the worker-side engine
//! host.
//!
//! The R-LRPD commit frontier (paper §2.3) is the natural distribution
//! boundary: everything at or below the frontier is permanently
//! correct, so a worker subprocess that mirrors the committed prefix
//! can execute any block of the next stage *idempotently* — if the
//! worker dies, hangs, or returns a divergent result, the supervisor
//! simply respawns it, replays the committed prefix, and re-dispatches
//! the block.
//!
//! ## Wire format
//!
//! Every message is a length-framed [`crate::persist`] record (`u32 len |
//! record`), the envelope the crash journal uses on disk, and each record
//! kind is declared once, as its struct with one wire field type per
//! field (`crate::schema`): [`WireHello`] and the worker's [`HelloAck`],
//! [`BlockRequest`], [`BlockReply`], the heartbeat and the shutdown, and
//! the serve frames below. Encode, decode, encoded length and list bounds
//! all come from those declarations; what they cannot say — a reply's
//! mark codes, a request's fault directive — is each record's one check.
//! A **commit broadcast** is the crash journal's commit record byte for
//! byte, chained from the same seed; workers fold each into their mirror
//! of shared storage. A request carries the supervisor's chain and a reply
//! echoes the worker's: a mismatch is a **divergent worker**. Heartbeats
//! come from a side thread, so a *hung* block (deadline passed, heartbeats
//! flowing) is told from a *dead* worker (EOF, heartbeats stopped).
//!
//! The supervisor side of the fleet (process spawning, heartbeats,
//! deadlines, respawn with backoff) lives in the `rlrpd-dist` crate;
//! this module defines everything both sides must agree on, plus the
//! engine integration ([`Engine::execute_remote`] and the
//! [`BlockDispatcher`] trait the fleet implements).

use crate::checkpoint::CheckpointPolicy;
use crate::driver::FallbackReason;
use crate::engine::{Engine, EngineCfg, FaultEvent};
use crate::journal::{
    elem_fingerprint, CommitRecord, ElemBits, JournalElem, JournalHeader, CHAIN_SEED,
};
use crate::ledger::CostRuns;
use crate::persist::{
    PersistError, Reader, Writer, KIND_DIST_HEARTBEAT, KIND_DIST_HELLO, KIND_DIST_REPLY,
    KIND_DIST_REQUEST, KIND_DIST_SHUTDOWN, KIND_JOURNAL_COMMIT, KIND_SERVE_DECISION,
    KIND_SERVE_STATUS, KIND_SERVE_STATUS_REQ, KIND_SERVE_SUBMIT, KIND_SERVE_SUMMARY,
};
use crate::report::RunReport;
use crate::schema::{schema, As, Blob, List, OrMax, Str, Wire};
use crate::spec_loop::SpecLoop;
use crate::value::Value;
use crate::view::Contribution;
use rlrpd_runtime::{BlockSchedule, CostModel, ExecMode, StageStats, StageTiming};
use std::io::{Read, Write};

/// Upper bound on one wire frame; larger lengths are protocol errors
/// (a corrupt length prefix must not drive an allocation).
pub const MAX_FRAME: usize = 256 << 20;

/// Version of the supervisor↔worker protocol. Carried in every
/// [`WireHello`] and echoed in the worker's [`HelloAck`]; a worker whose
/// own version differs refuses the session with a protocol error (exit
/// 64 for a standalone worker) *before* any block work — a mismatched
/// binary must be rejected at the handshake, not surface later as chain
/// divergence. (Version 5 is version 4 sealed with the version-2
/// envelope checksum, [`crate::persist`]; no frame changed.)
pub const PROTOCOL_VERSION: u32 = 5;

/// Wire mark code: exposed read only (consumed shared data, produced
/// nothing).
pub const MARK_EXPOSED: u8 = 1;
/// Wire mark code: written, not exposed (the private slot holds the
/// block's final value).
pub const MARK_WRITE: u8 = 2;
/// Wire mark code: written *and* exposed (read-then-write, or a
/// materialized reduction).
pub const MARK_WRITE_EXPOSED: u8 = 3;
/// Wire mark code: reduction-only (the value is the accumulated delta).
pub const MARK_REDUCTION: u8 = 4;

/// Fault directive: none.
pub const FAULT_NONE: u32 = 0;
/// Fault directive: the worker aborts before executing the block
/// (simulated crash — the supervisor sees pipe EOF).
pub const FAULT_KILL: u32 = 1;
/// Fault directive: the worker's main thread sleeps forever while its
/// heartbeat thread keeps beating (simulated hang — only the block
/// deadline can catch it).
pub const FAULT_HANG: u32 = 2;
/// Fault directive: the worker executes the block correctly but lies in
/// its chain echo (simulated divergence — caught by the chain check).
pub const FAULT_CORRUPT: u32 = 3;

/// Frame kind of a session hello ([`WireHello`]).
pub const FRAME_HELLO: u8 = KIND_DIST_HELLO;
/// Frame kind of a block reply ([`BlockReply`]).
pub const FRAME_REPLY: u8 = KIND_DIST_REPLY;
/// Frame kind of a worker liveness heartbeat.
pub const FRAME_HEARTBEAT: u8 = KIND_DIST_HEARTBEAT;
/// Frame kind of an orderly-shutdown notice.
pub const FRAME_SHUTDOWN: u8 = KIND_DIST_SHUTDOWN;

/// Errors on the worker side of the wire.
#[derive(Debug)]
pub enum WireError {
    /// An I/O operation on the worker pipes failed.
    Io(std::io::Error),
    /// The peer violated the protocol: malformed frame, chain mismatch,
    /// or a run identity that does not match the resolved loop.
    Protocol(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "worker I/O error: {e}"),
            WireError::Protocol(m) => write!(f, "worker protocol error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<PersistError> for WireError {
    fn from(e: PersistError) -> Self {
        WireError::Protocol(e.to_string())
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Append `record` to `out` as one frame: `u32 len | record`. Frames
/// queued in one buffer reach the peer in one write.
pub fn push_frame(out: &mut Vec<u8>, record: &[u8]) {
    out.reserve(4 + record.len());
    out.extend_from_slice(&(record.len() as u32).to_le_bytes());
    out.extend_from_slice(record);
}

/// Write one length-prefixed record — length and record in a single
/// write, so an unbuffered pipe or socket carries a frame as one
/// `write(2)` — and flush it.
pub fn write_frame(w: &mut dyn Write, record: &[u8]) -> std::io::Result<()> {
    let mut frame = Vec::new();
    push_frame(&mut frame, record);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed record. `Ok(None)` is a clean EOF at a
/// frame boundary (the peer closed the pipe); EOF inside a frame, a
/// zero length, or a length beyond [`MAX_FRAME`] is an error.
pub fn read_frame(r: &mut dyn Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("invalid frame length {len}"),
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(Some(buf))
}

/// The one walk over frames lying in a buffer — a journal file, or the
/// frame a [`crate::journal::FrameObserver`] was handed: each complete
/// frame's record, in order, with the offset its frame ends at. The walk
/// ends where a journal's valid prefix can go no further: at a zero
/// length, or at a frame the buffer holds only part of (a torn tail).
pub fn frames(buf: &[u8]) -> impl Iterator<Item = (&[u8], usize)> {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let start = pos.checked_add(4)?;
        let len = u32::from_le_bytes(buf.get(pos..start)?.try_into().ok()?) as usize;
        let end = start.checked_add(len).filter(|_| len > 0)?;
        let record = buf.get(start..end)?;
        pos = end;
        Some((record, end))
    })
}

/// The persist `kind` byte of a framed record (offset 8), if present.
/// A peek only — decoding still validates magic, version, and checksum.
pub fn frame_kind(record: &[u8]) -> Option<u8> {
    record.get(8).copied()
}

pub use crate::persist::record_chain;

// ---------------------------------------------------------------------------
// Wire types
// ---------------------------------------------------------------------------

schema! {
    /// The session hello: the protocol handshake, the run's identity, and
    /// the loop spec the worker resolves to an executable loop.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct WireHello @ KIND_DIST_HELLO {
        /// Dist-protocol version of the supervisor binary
        /// ([`PROTOCOL_VERSION`]); the worker refuses a session from a
        /// mismatched binary at the handshake. Any version decodes, so
        /// the refusal can name both.
        pub protocol: u32 => u32,
        /// Identity of this run (unique per supervisor process and run);
        /// echoed in the worker's [`HelloAck`] so a cross-wired connection
        /// is caught at the handshake.
        pub run_id: u64 => u64,
        /// Heartbeat interval the worker must beat at, in milliseconds
        /// (`0` = the worker's built-in default). Set by the transport
        /// connector from its `DistPolicy`, not by the engine.
        pub heartbeat_millis: u32 => u32,
        /// Shadow-memory budget every worker must enforce, in bytes
        /// (`0` = unlimited). Stamped from the supervisor's own cap so a
        /// distributed run degrades identically on every host; a worker
        /// whose freshly built shadows exceed it down-tiers representations
        /// at construction instead of crashing.
        pub shadow_budget: u64 => u64,
        /// The run's journal-header record bytes (a
        /// [`crate::journal::JournalHeader`] chained from the journal
        /// seed): loop shape, array layout, element type.
        pub header: Vec<u8> => Blob,
        /// Registry spec string (e.g. `"rlp:<source>"`) the worker resolves
        /// to the loop it will execute.
        pub spec: String => Str,
    }
}

impl WireHello {
    /// The chain value after the header record — what a correct worker
    /// echoes in [`HelloAck::header_chain`], and the seed both sides
    /// start their commit chain from. `None` when the header is not a
    /// record (no worker accepts such a hello).
    pub fn header_chain(&self) -> Option<u64> {
        record_chain(&self.header)
    }
}

schema! {
    /// The worker's half of the handshake, sent as its first frame after
    /// validating the hello: its own protocol version, the run identity it
    /// accepted, and the chain value of the header it chained from. The
    /// supervisor validates all three; a mismatch means a wrong binary or a
    /// cross-wired connection, and the worker is quarantined rather than
    /// respawned (a deterministic mismatch cannot be respawned away). It
    /// shares the hello's kind: only workers send acks.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct HelloAck @ KIND_DIST_HELLO {
        /// The worker binary's [`PROTOCOL_VERSION`].
        pub protocol: u32 => u32,
        /// Echo of [`WireHello::run_id`].
        pub run_id: u64 => u64,
        /// The chain value after the hello's header record — the seed both
        /// sides start their commit chain from.
        pub header_chain: u64 => u64,
    }
}

schema! {
    /// One block of one stage, dispatched to a worker.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct BlockRequest {
        /// The supervisor's commit chain at dispatch time; a worker whose
        /// own chain differs has diverged from the committed prefix.
        pub chain: u64 => u64,
        /// Stage ordinal (diagnostics).
        pub stage: u32 => u32,
        /// Block position in the stage schedule.
        pub pos: u32 => u32,
        /// First iteration of the block.
        pub start: u64 => u64,
        /// One past the last iteration of the block.
        pub end: u64 => u64,
    }
}

impl BlockRequest {
    /// Encode to a wire record, attaching a fault directive
    /// ([`FAULT_NONE`] for a normal request). The directive rides the
    /// request — not the worker state — so a re-dispatched block never
    /// re-fires a one-shot fault.
    pub fn encode(&self, fault: u32) -> Vec<u8> {
        crate::schema::encode::<(Self, u32)>(KIND_DIST_REQUEST, &(*self, fault))
    }

    /// Decode from a wire record, returning the request and its fault
    /// directive — one of the `FAULT_*` codes, or the record is
    /// `Corrupt`.
    pub fn decode(bytes: &[u8]) -> Result<(Self, u32), PersistError> {
        let (req, fault) = crate::schema::decode::<(Self, u32)>(KIND_DIST_REQUEST, bytes)?;
        if fault > FAULT_CORRUPT {
            return Err(PersistError::Corrupt);
        }
        Ok((req, fault))
    }
}

schema! {
    /// One tested slot's speculative outcome inside a [`BlockReply`].
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct SlotReply {
        /// Dynamic reference count (marking-overhead accounting).
        pub refs: u64 => u64,
        /// Touched elements: `(element, mark code, value bits)`. The value
        /// is the written value for write marks, the accumulated delta for
        /// reduction marks, and 0 for exposed reads.
        pub touched: Vec<(u32, u8, u64)> => List<u64, (u32, As<u8, u32>, u64)>,
    } check SlotReply::marks_known
}

impl SlotReply {
    /// The slot's check: every mark one of the four wire codes.
    fn marks_known(&self) -> bool {
        let known = MARK_EXPOSED..=MARK_REDUCTION;
        self.touched.iter().all(|(_, code, _)| known.contains(code))
    }
}

schema! {
    /// A worker's result for one dispatched block. On the wire, "no
    /// exit" and "no fault" are `u64::MAX` where the iteration would be.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct BlockReply @ KIND_DIST_REPLY {
        /// The worker's commit chain when it executed the block; must match
        /// the supervisor's or the worker has diverged.
        pub chain: u64 => u64,
        /// Echo of [`BlockRequest::pos`].
        pub pos: u32 => u32,
        /// Iteration at which the block requested a premature exit, if any.
        pub exit_iter: Option<u32> => OrMax<As<u32, u64>>,
        /// A panic contained during the block: `(iteration, message)`.
        pub fault: Option<(u64, String)> => OrMax<(u64, Str)>,
        /// Per tested slot, in slot order.
        pub tested: Vec<SlotReply> => List<u32, SlotReply>,
        /// Per untested slot, in slot order: the `(element, new value
        /// bits)` pairs the block wrote in place.
        pub untested: Vec<Vec<(u32, u64)>> => List<u32, List<u64, (u32, u64)>>,
        /// `(iteration, cost)` pairs executed, in execution order — as the
        /// runs the wire carries them in, which is most of a reply's pairs:
        /// a block's iterations are consecutive and a loop's cost is
        /// usually one number.
        pub iter_costs: CostRuns => CostRuns,
        /// The worker's shadow footprint (bytes) while this block's marks
        /// were live — folded (max) into the supervisor's
        /// `shadow_bytes_peak` so the report reflects the whole fleet.
        pub shadow_bytes: u64 => u64,
    }
}

/// Encode a liveness heartbeat carrying a worker-local sequence number.
pub fn encode_heartbeat(seq: u64) -> Vec<u8> {
    crate::schema::encode::<u64>(KIND_DIST_HEARTBEAT, &seq)
}

/// Encode an orderly-shutdown record.
pub fn encode_shutdown() -> Vec<u8> {
    crate::schema::encode::<()>(KIND_DIST_SHUTDOWN, &())
}

// ---------------------------------------------------------------------------
// Supervisor-side abstraction
// ---------------------------------------------------------------------------

/// The worker fleet is unrecoverable: the respawn budget is exhausted
/// (or the fleet could never be launched). The engine reacts by
/// degrading to in-process execution — never by failing the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerLoss {
    /// Human-readable cause (diagnostics).
    pub reason: String,
}

impl std::fmt::Display for WorkerLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker fleet lost: {}", self.reason)
    }
}

/// Wall-clock transport accounting for one stage of distributed
/// execution, drained via [`BlockDispatcher::take_stats`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TransportStats {
    /// Seconds spent encoding and shipping block requests.
    pub dispatch_seconds: f64,
    /// Seconds spent waiting on and decoding worker replies.
    pub collect_seconds: f64,
    /// Bytes moved over worker pipes, both directions.
    pub wire_bytes: u64,
    /// Workers respawned (kill, deadline, or divergence), fleet-wide.
    pub respawns: usize,
    /// Worker slots quarantined (removed from rotation for the rest of
    /// the run after exhausting their own respawn budget or failing a
    /// deterministic check such as the handshake).
    pub quarantined: usize,
}

/// The supervisor's handle on a worker fleet. Implemented by
/// `rlrpd-dist`'s subprocess fleet (heartbeats, deadlines, respawn with
/// backoff, divergence rejection) and by in-process loopbacks in tests.
///
/// Contract: `dispatch` returns exactly one reply per request, in
/// request order, each already validated against the supervisor's
/// chain; every recoverable fault (dead, hung, or divergent worker) is
/// handled *inside* the dispatcher by respawn + re-dispatch.
/// [`WorkerLoss`] is returned only when the fleet is beyond recovery,
/// and the engine then degrades to in-process execution.
pub trait BlockDispatcher {
    /// Broadcast one commit record (journal wire image) to every
    /// worker, advancing their mirror of the committed prefix.
    fn broadcast(&mut self, record: &[u8]) -> Result<(), WorkerLoss>;

    /// Execute one stage's blocks on the fleet and collect the replies.
    fn dispatch(&mut self, reqs: &[BlockRequest]) -> Result<Vec<BlockReply>, WorkerLoss>;

    /// Drain the transport accounting accumulated since the last call.
    fn take_stats(&mut self) -> TransportStats;
}

/// Launches a worker fleet for a run. Implemented by `rlrpd-dist`'s
/// process launcher; the indirection keeps `rlrpd-core` free of any
/// process-management code.
pub trait DistConnector {
    /// Launch (or attach to) a fleet for the run described by `hello`.
    /// An `Err` degrades the run to the in-process pooled path and is
    /// recorded as a worker loss.
    fn connect(&mut self, hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String>;
}

/// The engine's live connection to a worker fleet.
pub(crate) struct RemoteLink<T> {
    /// The fleet.
    pub dispatcher: Box<dyn BlockDispatcher>,
    /// Record chain over hello-header + broadcast commit records.
    pub chain: u64,
    /// Rebuilds a value from its wire image.
    pub from_bits: fn(u64) -> T,
}

impl<T: Value> Engine<'_, T> {
    /// Execute one stage's blocks on the worker fleet, loading the
    /// replies into the per-block states exactly as local execution
    /// would have left them. On [`WorkerLoss`] nothing has been loaded
    /// and the caller re-runs the stage in-process.
    pub(crate) fn execute_remote(
        &mut self,
        schedule: &BlockSchedule,
        stage: usize,
        stats: &mut StageStats,
    ) -> Result<(StageTiming, Option<FaultEvent>), WorkerLoss> {
        let start = std::time::Instant::now();
        let (replies, from_bits, chain) = {
            let link = self.remote.as_mut().expect("execute_remote needs a link");
            let reqs: Vec<BlockRequest> = schedule
                .blocks()
                .iter()
                .enumerate()
                .map(|(pos, b)| BlockRequest {
                    chain: link.chain,
                    stage: stage as u32,
                    pos: pos as u32,
                    start: b.range.start as u64,
                    end: b.range.end as u64,
                })
                .collect();
            // Drain transport stats in both outcomes: the respawns
            // leading up to a fleet loss belong on the report too.
            let replies = link.dispatcher.dispatch(&reqs);
            let t = link.dispatcher.take_stats();
            stats.dispatch_seconds += t.dispatch_seconds;
            stats.collect_seconds += t.collect_seconds;
            stats.wire_bytes += t.wire_bytes;
            stats.respawns += t.respawns;
            stats.quarantined += t.quarantined;
            (replies?, link.from_bits, link.chain)
        };
        let wall_seconds = start.elapsed().as_secs_f64();

        if replies.len() != schedule.num_blocks() {
            return Err(WorkerLoss {
                reason: format!(
                    "{} replies for {} blocks",
                    replies.len(),
                    schedule.num_blocks()
                ),
            });
        }
        // Defensive re-validation of the dispatcher contract — a reply
        // is checksummed, not authenticated, and everything below
        // indexes by what it names; only after every reply passes does
        // any engine state change, so a loss here leaves the stage
        // cleanly re-runnable in-process.
        for (pos, reply) in replies.iter().enumerate() {
            if reply.pos as usize != pos || reply.chain != chain {
                return Err(WorkerLoss {
                    reason: format!("divergent reply for block {pos}"),
                });
            }
            if !self.reply_fits(reply, &schedule.blocks()[pos].range) {
                return Err(WorkerLoss {
                    reason: format!("malformed reply for block {pos}"),
                });
            }
        }

        let mut fault: Option<FaultEvent> = None;
        let mut per_block_cost = vec![0.0; schedule.num_blocks()];
        for (pos, reply) in replies.into_iter().enumerate() {
            stats.shadow_bytes_peak = stats.shadow_bytes_peak.max(reply.shadow_bytes);
            let st = &mut self.states[pos];
            per_block_cost[pos] = reply.iter_costs.total();
            st.iter_costs = reply.iter_costs;
            st.exit_iter = reply.exit_iter;
            for (slot, sr) in reply.tested.iter().enumerate() {
                let view = &mut st.views[slot];
                for &(elem, code, bits) in &sr.touched {
                    // The inverse of the worker's encoding (`run_block`).
                    let (exposed, produced) = match code {
                        MARK_EXPOSED => (true, None),
                        MARK_WRITE => (false, Some(Contribution::Write(from_bits(bits)))),
                        MARK_WRITE_EXPOSED => (true, Some(Contribution::Write(from_bits(bits)))),
                        _ => (false, Some(Contribution::Delta(from_bits(bits)))),
                    };
                    view.replay(elem as usize, exposed, produced);
                }
                view.set_refs(sr.refs);
            }
            for (slot, entries) in reply.untested.iter().enumerate() {
                let buf = &self.shared[self.untested_ids[slot]];
                for &(elem, bits) in entries {
                    let e = elem as usize;
                    // SAFETY: untested contract — this block is the
                    // sole writer of element e this stage, and the
                    // first-write snapshot reads the pre-stage value.
                    st.wlog.record(slot, e, || unsafe { buf.get(e) });
                    // SAFETY: same exclusivity contract as the read
                    // above — no other block writes element e this
                    // stage, and the supervisor applies replies on one
                    // thread.
                    unsafe { buf.set(e, from_bits(bits), pos as u32) };
                }
            }
            if fault.is_none() {
                if let Some((iter, message)) = reply.fault {
                    // Replies arrive in block order, so the first fault
                    // seen is the lowest position — same rule as the
                    // local executors.
                    fault = Some(FaultEvent {
                        pos,
                        iter: iter as usize,
                        message,
                    });
                }
            }
        }
        Ok((
            StageTiming {
                per_block_cost,
                wall_seconds,
            },
            fault,
        ))
    }

    /// Is `reply` shaped like this engine's execution of `block`: one
    /// entry per array slot, every element it names inside its array,
    /// and a cost ledger that is the front of the block — runs ascending
    /// and contiguous from `block.start`, none past `block.end` — ending
    /// on the exit iteration if it reports one? Everything the stage
    /// goes on to index by a number the reply supplied.
    fn reply_fits(&self, reply: &BlockReply, block: &std::ops::Range<usize>) -> bool {
        let mut next = block.start as u64;
        let front_of_block = reply.iter_costs.runs().iter().all(|run| {
            let contiguous = run.first as u64 == next;
            next += run.count as u64;
            contiguous
        }) && next <= block.end as u64;
        front_of_block
            && reply
                .exit_iter
                .is_none_or(|e| next > block.start as u64 && e as u64 == next - 1)
            && reply.tested.len() == self.tested_ids.len()
            && reply.untested.len() == self.untested_ids.len()
            && reply
                .tested
                .iter()
                .zip(&self.tested_sizes)
                .all(|(slot, &len)| {
                    let mut elems = slot.touched.iter();
                    elems.all(|&(elem, _, _)| (elem as usize) < len)
                })
            && reply
                .untested
                .iter()
                .zip(&self.untested_ids)
                .all(|(entries, &id)| {
                    let len = self.shared[id].len();
                    entries.iter().all(|&(elem, _)| (elem as usize) < len)
                })
    }

    /// Broadcast one stage's commit record to the fleet (no-op without
    /// a live link). It is the record the crash journal appends, chained
    /// with the same record chain, so a journaled distributed run writes
    /// byte-identical records to disk and wire (each side encodes
    /// against its own chain: after a resume the wire's restarts at the
    /// hello). A broadcast failure drops the link (the workers are
    /// gone) and the run continues in-process.
    pub(crate) fn broadcast_commit(&mut self, rec: &CommitRecord) {
        let Some(link) = self.remote.as_mut() else {
            return;
        };
        let (bytes, next_chain) = rec.encode(link.chain);
        match link.dispatcher.broadcast(&bytes) {
            Ok(()) => link.chain = next_chain,
            Err(_) => {
                self.remote = None;
                self.worker_loss = true;
            }
        }
    }
}

/// A run identity unique within this machine: the supervisor pid in the
/// high half, a process-local counter in the low half. Two concurrent
/// supervisors — or two runs of one supervisor — never share one, so a
/// worker accepted into the wrong session is caught at the handshake.
pub(crate) fn fresh_run_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    ((std::process::id() as u64) << 32) | (NEXT.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff)
}

/// Attach a worker fleet to `engine` (called by the run body before
/// the first stage). A connector failure records a worker loss and
/// leaves the engine on its in-process path.
pub(crate) fn attach_remote<T: Value>(
    engine: &mut Engine<'_, T>,
    header: &JournalHeader,
    spec: &str,
    connector: &mut dyn DistConnector,
    elem: ElemBits<T>,
) {
    let (header, chain) = header.encode(CHAIN_SEED);
    let hello = WireHello {
        protocol: PROTOCOL_VERSION,
        run_id: fresh_run_id(),
        // 0 = worker default; the transport connector overrides this
        // from its policy before the hello goes on a wire.
        heartbeat_millis: 0,
        shadow_budget: engine.cfg.shadow_cap.unwrap_or(0),
        header,
        spec: spec.to_string(),
    };
    match connector.connect(&hello) {
        Ok(dispatcher) => {
            engine.remote = Some(RemoteLink {
                chain,
                from_bits: elem.from_bits,
                dispatcher,
            });
        }
        Err(_) => engine.worker_loss = true,
    }
}

/// Drop the fleet (its `Drop` shuts the workers down) and record a
/// worker loss on the report if one occurred anywhere in the run.
pub(crate) fn release_remote<T: Value>(engine: &mut Engine<'_, T>, report: &mut RunReport) {
    engine.remote = None;
    if engine.worker_loss && report.fallback.is_none() {
        report.fallback = Some(FallbackReason::WorkerLoss);
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Serve one worker session over `input`/`send`: validate the hello's
/// run identity against `lp`, then loop — fold commit broadcasts into
/// the mirror of shared storage, execute block requests, reply —
/// until an orderly shutdown or EOF (supervisor death; also an orderly
/// end, so a SIGKILLed supervisor never leaves orphans running).
///
/// `send` is a closure rather than a writer so the caller can interleave
/// heartbeat frames from a side thread behind one lock.
///
/// Block execution is **idempotent**: the worker's arrays hold the
/// committed prefix — speculative untested writes are rolled back
/// through the write-log after every block, but for a restore-free
/// array's, which no iteration reads and the next run of those
/// iterations rewrites — so the supervisor may re-dispatch any block to
/// a fresh worker at any time.
pub fn serve_worker<T: Value + JournalElem>(
    lp: &dyn SpecLoop<T>,
    hello: &WireHello,
    input: &mut dyn Read,
    send: &mut dyn FnMut(&[u8]) -> std::io::Result<()>,
) -> Result<(), WireError> {
    if hello.protocol != PROTOCOL_VERSION {
        return Err(WireError::Protocol(format!(
            "protocol version mismatch: supervisor speaks v{}, this worker speaks v{} \
             (mismatched rlrpd binaries?)",
            hello.protocol, PROTOCOL_VERSION
        )));
    }
    let (header, header_chain) = JournalHeader::decode(&hello.header, CHAIN_SEED)
        .map_err(|e| WireError::Protocol(format!("bad hello header: {e}")))?;
    let mut engine = Engine::new(
        lp,
        EngineCfg {
            p: 1,
            exec: ExecMode::Simulated,
            cost: CostModel::default(),
            // Rollback after every block needs the undo log.
            checkpoint: CheckpointPolicy::OnDemand,
            commit_prefix_on_failure: true,
            fault: None,
            shadow_cap: (hello.shadow_budget != 0).then_some(hello.shadow_budget),
        },
        false,
    );
    if header.n != engine.n {
        return Err(WireError::Protocol(format!(
            "iteration count {} != resolved loop's {}",
            header.n, engine.n
        )));
    }
    if header.arrays != engine.layout() {
        return Err(WireError::Protocol("array layout mismatch".into()));
    }
    if header.elem_hash != elem_fingerprint::<T>() {
        return Err(WireError::Protocol("element type mismatch".into()));
    }

    // Identity validated: acknowledge. The ack is the worker's first
    // frame, so the supervisor can reject a mismatched or cross-wired
    // worker before dispatching any block to it.
    send(
        &HelloAck {
            protocol: PROTOCOL_VERSION,
            run_id: hello.run_id,
            header_chain,
        }
        .encode(),
    )?;

    let mut chain = header_chain;
    loop {
        let Some(frame) = read_frame(input)? else {
            return Ok(()); // supervisor went away: orderly end
        };
        match frame_kind(&frame) {
            Some(KIND_DIST_SHUTDOWN) => {
                crate::schema::decode::<()>(KIND_DIST_SHUTDOWN, &frame)?;
                return Ok(());
            }
            Some(KIND_JOURNAL_COMMIT) => {
                let (rec, next_chain) = CommitRecord::decode(&frame, chain)
                    .map_err(|e| WireError::Protocol(format!("bad commit broadcast: {e}")))?;
                rec.apply(&mut engine.shared, T::from_bits)
                    .map_err(|e| WireError::Protocol(format!("bad commit broadcast: {e}")))?;
                chain = next_chain;
            }
            Some(KIND_DIST_REQUEST) => {
                let (req, fault) = BlockRequest::decode(&frame)
                    .map_err(|e| WireError::Protocol(format!("bad block request: {e}")))?;
                if req.chain != chain {
                    return Err(WireError::Protocol(format!(
                        "chain mismatch: supervisor {:#x}, worker {chain:#x}",
                        req.chain
                    )));
                }
                match fault {
                    FAULT_KILL => std::process::abort(),
                    FAULT_HANG => loop {
                        // The heartbeat side thread keeps beating: only
                        // the block deadline can recover from this.
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    },
                    _ => {}
                }
                let mut reply = run_block(&mut engine, &req);
                reply.chain = if fault == FAULT_CORRUPT {
                    chain ^ 1 // lie: the divergence check must catch it
                } else {
                    chain
                };
                send(&reply.encode())?;
            }
            _ => {
                return Err(WireError::Protocol(format!(
                    "unexpected frame kind {:?}",
                    frame_kind(&frame)
                )));
            }
        }
    }
}

/// Execute one block against the worker's mirror of the committed
/// prefix and package the speculative outcome, then roll the mirror
/// back so the next (re-)dispatch starts from identical state.
fn run_block<T: Value + JournalElem>(engine: &mut Engine<'_, T>, req: &BlockRequest) -> BlockReply {
    let start = (req.start as usize).min(engine.n);
    let end = (req.end as usize).min(engine.n);
    for buf in &mut engine.shared {
        buf.new_epoch();
    }
    // The engine's block body, as a one-block stage of this
    // one-processor engine (whose simulated executor contains a panic
    // exactly as a local stage's does) — still one iteration per loop
    // call.
    let schedule = BlockSchedule::even(start..end, 1);
    let (_, fault) = engine.run_blocks_local(&schedule, None, true);
    let fault = fault.map(|f| (f.iter as u64, f.message));
    let st = &engine.states[0];

    let tested = st
        .views
        .iter()
        .map(|view| {
            let mut touched = Vec::with_capacity(view.num_touched());
            for (elem, mark) in view.touched() {
                // The commit's contribution rule, plus the exposed bit
                // the supervisor's analysis needs.
                let (code, bits) = match view.contribution(elem, mark) {
                    Some(Contribution::Write(v)) if mark.is_exposed_read() => {
                        (MARK_WRITE_EXPOSED, T::to_bits(v))
                    }
                    Some(Contribution::Write(v)) => (MARK_WRITE, T::to_bits(v)),
                    Some(Contribution::Delta(d)) => (MARK_REDUCTION, T::to_bits(d)),
                    None => (MARK_EXPOSED, 0),
                };
                touched.push((elem as u32, code, bits));
            }
            SlotReply {
                refs: view.refs(),
                touched,
            }
        })
        .collect();
    let untested = (0..engine.untested_ids.len())
        .map(|slot| {
            let buf = &engine.shared[engine.untested_ids[slot]];
            st.wlog
                .written(slot)
                .map(|elem| {
                    // SAFETY: this process's single block is the only
                    // writer; the element was just written by it.
                    (elem as u32, T::to_bits(unsafe { buf.get(elem) }))
                })
                .collect()
        })
        .collect();
    let reply = BlockReply {
        chain: 0, // the caller stamps the echo
        pos: req.pos,
        exit_iter: st.exit_iter,
        fault,
        tested,
        untested,
        iter_costs: st.iter_costs.clone(),
        shadow_bytes: st
            .views
            .iter()
            .map(crate::view::ProcView::shadow_bytes)
            .sum(),
    };

    // Roll back: restore untested writes as the engine restores a
    // discarded block's (this engine's policy is on-demand: the undo
    // log, no snapshot), drop all speculative state. The worker's
    // arrays are again the committed prefix, except that a
    // restore-free array keeps this block's values: nothing reads
    // them, and the block that next runs these iterations rewrites
    // them.
    engine
        .restore_untested_writes(0, None, 0)
        .expect("the on-demand policy restores from its undo log");
    // Worker-side governance: a block whose touches project past the
    // hello's cap down-tiers its now empty views, so the worker
    // degrades rather than outgrowing the budget it was handed.
    let touched = engine.densest_touches();
    let st = &mut engine.states[0];
    for v in &mut st.views {
        v.clear();
    }
    st.wlog.clear();
    engine.fit_shadows(&touched, 0);
    reply
}

// ---------------------------------------------------------------------------
// Serve wire types (client ↔ daemon protocol)
// ---------------------------------------------------------------------------

/// Version of the client↔daemon (`rlrpd serve`) protocol. Carried in
/// every [`JobSpec`] and [`StatusRequest`]; the daemon rejects a
/// mismatched client at submission, before any state is created.
pub const SERVE_PROTOCOL_VERSION: u32 = 1;

/// Frame kind of a job submission ([`JobSpec`]).
pub const FRAME_SUBMIT: u8 = KIND_SERVE_SUBMIT;
/// Frame kind of a job status ([`JobStatusFrame`]).
pub const FRAME_STATUS: u8 = KIND_SERVE_STATUS;
/// Frame kind of a frontier summary ([`FrontierSummary`]).
pub const FRAME_SUMMARY: u8 = KIND_SERVE_SUMMARY;
/// Frame kind of a status query ([`StatusRequest`]).
pub const FRAME_STATUS_REQ: u8 = KIND_SERVE_STATUS_REQ;

schema! {
    /// A client's job submission: everything the daemon needs to rebuild
    /// the run configuration, plus the client-chosen idempotency key. The
    /// encoded record doubles as the job's on-disk meta file, so a
    /// restarted daemon recovers jobs by decoding the exact bytes the
    /// client sent — and a resubmission with the same key but different
    /// bytes is a detectable conflict, not a silent overwrite.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct JobSpec @ KIND_SERVE_SUBMIT {
        /// Serve-protocol version of the client ([`SERVE_PROTOCOL_VERSION`]).
        pub protocol: u32 => u32,
        /// Client-chosen idempotency key: resubmitting the same key with
        /// the same bytes attaches to the existing job (running or done)
        /// instead of starting a duplicate.
        pub key: u64 => u64,
        /// Virtual processor count.
        pub p: u32 => u32,
        /// Shadow-budget request in bytes; `0` asks the daemon to carve a
        /// fair share of its process-wide pool.
        pub budget_bytes: u64 => u64,
        /// Deterministic panic-fault seed (`0` = none) — each job's faults
        /// are its own, injected from its own plan.
        pub fault_seed: u64 => u64,
        /// Hard stage cap (`0` = the daemon's default).
        pub max_stages: u64 => u64,
        /// Registry spec string (e.g. `"rlp:<source>"`, `"fptrak:0"`) the
        /// daemon resolves to the loop it will execute.
        pub spec: String => Str,
        /// Strategy string in CLI syntax (`"adaptive"`, `"nrd"`, `"rd"`,
        /// `"sw:W"`).
        pub strategy: String => Str,
        /// Shadow-pressure injections in CLI syntax (`"STAGE:BYTES[,..]"`,
        /// empty = none).
        pub shadow_fault: String => Str,
    }
}

/// Why the daemon refused a submission. Typed so clients can decide
/// (retry later vs. give up vs. shrink the request) without parsing
/// prose.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The requested budget exceeds the daemon's *entire* pool — no
    /// amount of queueing will ever fit it.
    OverPool {
        /// Bytes the job asked for.
        requested: u64,
        /// The daemon's whole pool.
        pool: u64,
    },
    /// The key is already bound to a job with *different* submission
    /// bytes — an idempotency violation, not a resubmission.
    KeyConflict,
    /// The spec, strategy, or options could not be parsed/resolved.
    BadSpec(String),
    /// The daemon is draining (SIGTERM) and admits nothing new.
    Draining,
    /// The client speaks a different serve-protocol version.
    ProtocolMismatch {
        /// The daemon's version.
        server: u32,
    },
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::OverPool { requested, pool } => {
                write!(f, "requested budget {requested} exceeds pool {pool}")
            }
            RejectReason::KeyConflict => write!(f, "key bound to a different submission"),
            RejectReason::BadSpec(m) => write!(f, "bad job spec: {m}"),
            RejectReason::Draining => write!(f, "daemon is draining"),
            RejectReason::ProtocolMismatch { server } => {
                write!(f, "serve protocol mismatch (server v{server})")
            }
        }
    }
}

const DECISION_ACCEPTED: u32 = 0;
const DECISION_QUEUED: u32 = 1;
const DECISION_REJECTED: u32 = 2;
const DECISION_ATTACHED: u32 = 3;

const REJECT_OVER_POOL: u32 = 0;
const REJECT_KEY_CONFLICT: u32 = 1;
const REJECT_BAD_SPEC: u32 = 2;
const REJECT_DRAINING: u32 = 3;
const REJECT_PROTOCOL: u32 = 4;

/// The daemon's admission decision, sent as the first reply to a
/// [`JobSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobDecision {
    /// Admitted; dispatch may still wait for a budget grant.
    Accepted,
    /// Admitted but waiting in the tenant's queue for pool budget.
    Queued,
    /// This key already names an identical job (running or finished);
    /// the stream attaches to it instead of starting a duplicate.
    Attached,
    /// Refused, with a typed reason.
    Rejected(RejectReason),
}

/// A decision's five fixed slots: `u32 decision | u32 reason | u64 a |
/// u64 b | message`. Each variant uses its own; the others are zero and
/// empty, and a decision that sets them is `Corrupt`.
type DecisionSlots = (u32, u32, u64, u64, Str);

impl Wire for JobDecision {
    type Value = Self;
    const MIN: usize = DecisionSlots::MIN;
    fn len(v: &Self) -> usize {
        DecisionSlots::len(&v.slots())
    }
    fn put(v: &Self, w: &mut Writer) {
        DecisionSlots::put(&v.slots(), w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        use JobDecision::Rejected;
        use RejectReason::*;
        let (code, reason, a, b, msg) = DecisionSlots::get(r)?;
        let no_msg = msg.is_empty();
        Ok(match (code, reason, a, b, no_msg) {
            (DECISION_ACCEPTED, 0, 0, 0, true) => JobDecision::Accepted,
            (DECISION_QUEUED, 0, 0, 0, true) => JobDecision::Queued,
            (DECISION_ATTACHED, 0, 0, 0, true) => JobDecision::Attached,
            (DECISION_REJECTED, REJECT_OVER_POOL, requested, pool, true) => {
                Rejected(OverPool { requested, pool })
            }
            (DECISION_REJECTED, REJECT_KEY_CONFLICT, 0, 0, true) => Rejected(KeyConflict),
            (DECISION_REJECTED, REJECT_BAD_SPEC, 0, 0, _) => Rejected(BadSpec(msg)),
            (DECISION_REJECTED, REJECT_DRAINING, 0, 0, true) => Rejected(Draining),
            (DECISION_REJECTED, REJECT_PROTOCOL, server, 0, true) => Rejected(ProtocolMismatch {
                server: u32::try_from(server).map_err(|_| PersistError::Corrupt)?,
            }),
            _ => return Err(PersistError::Corrupt),
        })
    }
}

impl JobDecision {
    /// The decision in its five slots ([`DecisionSlots`]).
    fn slots(&self) -> (u32, u32, u64, u64, String) {
        let (reason, a, b, msg) = match self {
            JobDecision::Accepted => return (DECISION_ACCEPTED, 0, 0, 0, String::new()),
            JobDecision::Queued => return (DECISION_QUEUED, 0, 0, 0, String::new()),
            JobDecision::Attached => return (DECISION_ATTACHED, 0, 0, 0, String::new()),
            JobDecision::Rejected(r) => match r {
                RejectReason::OverPool { requested, pool } => {
                    (REJECT_OVER_POOL, *requested, *pool, "")
                }
                RejectReason::KeyConflict => (REJECT_KEY_CONFLICT, 0, 0, ""),
                RejectReason::BadSpec(m) => (REJECT_BAD_SPEC, 0, 0, m.as_str()),
                RejectReason::Draining => (REJECT_DRAINING, 0, 0, ""),
                RejectReason::ProtocolMismatch { server } => {
                    (REJECT_PROTOCOL, u64::from(*server), 0, "")
                }
            },
        };
        (DECISION_REJECTED, reason, a, b, msg.to_string())
    }

    /// Encode to a wire record.
    pub fn encode(&self) -> Vec<u8> {
        crate::schema::encode::<Self>(KIND_SERVE_DECISION, self)
    }

    /// Decode from a wire record.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        crate::schema::decode::<Self>(KIND_SERVE_DECISION, bytes)
    }
}

/// Lifecycle state of a daemon job, carried in [`JobStatusFrame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in its tenant's queue for a budget grant.
    Queued,
    /// Executing.
    Running,
    /// Paused at a durable commit point by a drain; will resume.
    Paused,
    /// Finished (exit code 0).
    Done,
    /// Finished with a non-zero exit code.
    Failed,
    /// The daemon has no job under this key.
    Unknown,
}

/// Every [`JobState`], at the index that is its wire code.
const JOB_STATES: [JobState; 6] = [
    JobState::Queued,
    JobState::Running,
    JobState::Paused,
    JobState::Done,
    JobState::Failed,
    JobState::Unknown,
];

/// A [`JobState`] as a `u32`: its index in [`JOB_STATES`]. A code past
/// the table is `Corrupt`.
impl Wire for JobState {
    type Value = Self;
    const MIN: usize = 4;
    fn put(v: &Self, w: &mut Writer) {
        let code = JOB_STATES.iter().position(|s| s == v);
        w.u32(code.expect("every state is in the table") as u32);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let code = r.u32()? as usize;
        JOB_STATES.get(code).copied().ok_or(PersistError::Corrupt)
    }
}

schema! {
    /// A job's status: the CLI exit-code contract (0 success / 1 other /
    /// 2 program fault / 3 stage limit / 4 journal / 64 usage) mapped onto
    /// a wire frame, plus the run-report JSON (the `--format json` schema)
    /// for finished jobs. Also written (atomically) as the job's on-disk
    /// status sidecar, so a restarted daemon knows which jobs finished.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct JobStatusFrame @ KIND_SERVE_STATUS {
        /// The job's idempotency key.
        pub key: u64 => u64,
        /// Lifecycle state.
        pub state: JobState => JobState,
        /// Exit code per the CLI contract (meaningful for `Done`/`Failed`).
        pub exit_code: u32 => u32,
        /// True when the finished arrays were verified byte-identical to a
        /// sequential execution of the same loop.
        pub verified: bool => crate::schema::Flag,
        /// Last durable commit frontier.
        pub frontier: u64 => u64,
        /// [`RunReport::to_json`] of the finished run (empty until then).
        pub report_json: String => Str,
        /// Human-readable diagnostic (error text for `Failed`).
        pub message: String => Str,
    }
}

schema! {
    /// A frontier summary: substituted for journal frames a slow client's
    /// bounded stream buffer had to drop. The client learns how far its job
    /// has durably progressed (and how much detail it missed) without the
    /// daemon buffering unboundedly.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct FrontierSummary @ KIND_SERVE_SUMMARY {
        /// The job's idempotency key.
        pub key: u64 => u64,
        /// Last durable commit frontier at summary time.
        pub frontier: u64 => u64,
        /// Journal records appended so far (header included).
        pub records: u64 => u64,
        /// Full frames dropped from this client's stream since the last
        /// summary.
        pub dropped: u64 => u64,
    }
}

schema! {
    /// A status query by idempotency key (`rlrpd status`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct StatusRequest @ KIND_SERVE_STATUS_REQ {
        /// Serve-protocol version of the client.
        pub protocol: u32 => u32,
        /// Key of the job being asked about.
        pub key: u64 => u64,
    }
}

/// The commit frontier of a framed journal commit record, if `record`
/// is one — a peek for stream consumers (progress display, frontier
/// summaries) that does not re-validate the checksum.
pub fn commit_frontier(record: &[u8]) -> Option<u64> {
    // The chain word, then the field `CommitRecord` declares first.
    let mut r = Reader::unverified(record, KIND_JOURNAL_COMMIT)?;
    <(u64, u64)>::get(&mut r).ok().map(|(_, frontier)| frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, ArrayId, ShadowKind};
    use crate::driver::{FallbackReason, RunConfig, RunPlan, Runner, Strategy};
    use crate::engine::run_sequential;
    use crate::spec_loop::ClosureLoop;
    use crate::window::WindowConfig;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::{Arc, Mutex};

    /// A partially parallel loop touching every wire path: a tested
    /// array with read-modify-writes (exposed + write marks), plain
    /// writes, a sum reduction, and an untested array.
    fn model_loop(n: usize) -> ClosureLoop {
        ClosureLoop::new(
            n,
            move || {
                vec![
                    ArrayDecl::tested("A", vec![1.0; 64], ShadowKind::Dense),
                    ArrayDecl::reduction(
                        "S",
                        vec![0.0; 4],
                        ShadowKind::Dense,
                        crate::value::Reduction::sum(),
                    ),
                    ArrayDecl::untested("U", vec![0.0; 256]),
                ]
            },
            |i, ctx| {
                let a = ArrayId(0);
                let s = ArrayId(1);
                let u = ArrayId(2);
                // Backward flow dependence of stride 13 → partially
                // parallel; read-modify-write of element i % 64.
                let v = ctx.read(a, (i % 64).saturating_sub(13));
                let cur = ctx.read(a, i % 64);
                ctx.write(a, i % 64, cur + v);
                ctx.reduce(s, i % 4, v);
                ctx.write(u, i % 256, v + i as f64);
            },
        )
    }

    /// `Read` over an mpsc channel of byte chunks (a fake worker stdin).
    struct ChanReader {
        rx: Receiver<Vec<u8>>,
        buf: Vec<u8>,
        pos: usize,
    }

    impl Read for ChanReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos >= self.buf.len() {
                match self.rx.recv() {
                    Ok(b) => {
                        self.buf = b;
                        self.pos = 0;
                    }
                    Err(_) => return Ok(0), // supervisor dropped: EOF
                }
            }
            let n = (self.buf.len() - self.pos).min(out.len());
            out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// Spawn an in-process worker thread running [`serve_worker`] over
    /// channels — the loopback analogue of a worker subprocess.
    fn spawn_loopback_worker(hello: WireHello, n: usize) -> (Sender<Vec<u8>>, Receiver<Vec<u8>>) {
        let (tx_in, rx_in) = channel::<Vec<u8>>();
        let (tx_out, rx_out) = channel::<Vec<u8>>();
        std::thread::spawn(move || {
            let lp = model_loop(n);
            let mut input = ChanReader {
                rx: rx_in,
                buf: Vec::new(),
                pos: 0,
            };
            let mut send = |bytes: &[u8]| {
                tx_out.send(bytes.to_vec()).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "supervisor gone")
                })
            };
            serve_worker::<f64>(&lp, &hello, &mut input, &mut send)
        });
        (tx_in, rx_out)
    }

    /// Single-worker in-process dispatcher speaking the real protocol.
    struct Loopback {
        to_worker: Sender<Vec<u8>>,
        from_worker: Receiver<Vec<u8>>,
        stats: TransportStats,
        /// Dispatch ordinals whose requests carry a corrupt-result
        /// directive (divergence-detection tests).
        corrupt_at: Vec<usize>,
        ordinal: usize,
        /// Every record handed to `broadcast`, in order.
        broadcasts: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Loopback {
        fn frame(record: &[u8]) -> Vec<u8> {
            let mut framed = Vec::with_capacity(record.len() + 4);
            write_frame(&mut framed, record).unwrap();
            framed
        }
    }

    impl BlockDispatcher for Loopback {
        fn broadcast(&mut self, record: &[u8]) -> Result<(), WorkerLoss> {
            self.stats.wire_bytes += record.len() as u64;
            self.broadcasts.lock().unwrap().push(record.to_vec());
            self.to_worker
                .send(Self::frame(record))
                .map_err(|_| WorkerLoss {
                    reason: "loopback worker gone".into(),
                })
        }

        fn dispatch(&mut self, reqs: &[BlockRequest]) -> Result<Vec<BlockReply>, WorkerLoss> {
            let mut replies = Vec::with_capacity(reqs.len());
            for req in reqs {
                let fault = if self.corrupt_at.contains(&self.ordinal) {
                    FAULT_CORRUPT
                } else {
                    FAULT_NONE
                };
                self.ordinal += 1;
                let bytes = req.encode(fault);
                self.stats.wire_bytes += bytes.len() as u64;
                self.to_worker
                    .send(Self::frame(&bytes))
                    .map_err(|_| WorkerLoss {
                        reason: "loopback worker gone".into(),
                    })?;
                // Skip non-reply frames (the handshake ack, heartbeats):
                // a real fleet's reader thread does the same dispatch on
                // frame kind.
                let raw = loop {
                    let raw = self
                        .from_worker
                        .recv_timeout(std::time::Duration::from_secs(30))
                        .map_err(|_| WorkerLoss {
                            reason: "loopback worker silent".into(),
                        })?;
                    self.stats.wire_bytes += raw.len() as u64;
                    if frame_kind(&raw) == Some(FRAME_REPLY) {
                        break raw;
                    }
                };
                let reply = BlockReply::decode(&raw).map_err(|e| WorkerLoss {
                    reason: format!("bad loopback reply: {e}"),
                })?;
                if reply.chain != req.chain {
                    // A real fleet would respawn and re-dispatch; the
                    // loopback treats divergence as fleet loss so tests
                    // can observe the degradation ladder.
                    return Err(WorkerLoss {
                        reason: "divergent loopback reply".into(),
                    });
                }
                replies.push(reply);
            }
            Ok(replies)
        }

        fn take_stats(&mut self) -> TransportStats {
            std::mem::take(&mut self.stats)
        }
    }

    /// Connector launching one loopback worker thread per run.
    struct LoopbackConnector {
        n: usize,
        corrupt_at: Vec<usize>,
        broadcasts: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl LoopbackConnector {
        fn new(n: usize) -> Self {
            LoopbackConnector {
                n,
                corrupt_at: Vec::new(),
                broadcasts: Arc::default(),
            }
        }
    }

    impl DistConnector for LoopbackConnector {
        fn connect(&mut self, hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
            let (tx, rx) = spawn_loopback_worker(hello.clone(), self.n);
            Ok(Box::new(Loopback {
                to_worker: tx,
                from_worker: rx,
                stats: TransportStats::default(),
                corrupt_at: std::mem::take(&mut self.corrupt_at),
                ordinal: 0,
                broadcasts: Arc::clone(&self.broadcasts),
            }))
        }
    }

    /// A connector that cannot launch anything.
    struct DeadConnector;

    impl DistConnector for DeadConnector {
        fn connect(&mut self, _hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
            Err("no workers available".into())
        }
    }

    #[test]
    fn wire_types_round_trip_and_are_hardened() {
        let hello = WireHello {
            protocol: PROTOCOL_VERSION,
            run_id: 0x1234_0000_0042,
            heartbeat_millis: 25,
            shadow_budget: 4 << 20,
            header: vec![1, 2, 3, 4, 5],
            spec: "rlp:A[i] = A[i - 1];".into(),
        };
        assert_eq!(WireHello::decode(&hello.encode()).unwrap(), hello);

        let ack = HelloAck {
            protocol: PROTOCOL_VERSION,
            run_id: 0x1234_0000_0042,
            header_chain: 0x5eed_0000_c4a1_0001,
        };
        assert_eq!(hello.header_chain(), None, "five bytes are no record");
        assert_eq!(HelloAck::decode(&ack.encode()).unwrap(), ack);

        let req = BlockRequest {
            chain: 0xdead_beef_1234_5678,
            stage: 7,
            pos: 3,
            start: 100,
            end: 164,
        };
        assert_eq!(
            BlockRequest::decode(&req.encode(FAULT_HANG)).unwrap(),
            (req, FAULT_HANG)
        );

        // Swept replies name iterations at the top of the space, where a
        // mutated run count overflows it: the sweep meets the refusal as
        // well as the (O(1), since runs stay runs) acceptance.
        let top = u32::MAX - 64;
        let reply = BlockReply {
            chain: 42,
            pos: 1,
            exit_iter: Some(17),
            fault: Some((23, "boom: index out of range".into())),
            tested: vec![
                SlotReply {
                    refs: 9,
                    touched: vec![
                        (0, MARK_EXPOSED, 0),
                        (3, MARK_WRITE, 4.5f64.to_bits()),
                        (4, MARK_WRITE_EXPOSED, 1.0f64.to_bits()),
                    ],
                },
                SlotReply {
                    refs: 2,
                    touched: vec![(1, MARK_REDUCTION, 2.25f64.to_bits())],
                },
            ],
            untested: vec![vec![(5, 8.0f64.to_bits()), (6, 9.0f64.to_bits())], vec![]],
            iter_costs: [(top, 1.0), (top + 1, 2.5)].into_iter().collect(),
            shadow_bytes: 12_288,
        };
        assert_eq!(BlockReply::decode(&reply.encode()).unwrap(), reply);

        // A reply that is nothing but its ledger, written out by hand.
        let with_runs = |declared: u64, runs: &[(u32, u32, u64)]| {
            let mut w = Writer::with_payload(KIND_DIST_REPLY, 0);
            w.u64(0);
            w.u32(0);
            w.u64(u64::MAX);
            w.u64(u64::MAX);
            w.u32(0);
            w.u32(0);
            w.u64(declared);
            for &(first, count, bits) in runs {
                w.u32(first);
                w.u32(count);
                w.u64(bits);
            }
            w.u64(0);
            w.finish().0
        };
        // The runs `encode` derived from a reply's pair vector while the
        // ledger was one (wire v4 as it first shipped).
        let runs_of_pairs = |pairs: &[(u32, f64)]| {
            let mut runs: Vec<(u32, u32, u64)> = Vec::new();
            for &(iter, cost) in pairs {
                let bits = cost.to_bits();
                match runs.last_mut() {
                    Some((first, count, run_bits))
                        if *run_bits == bits && first.checked_add(*count) == Some(iter) =>
                    {
                        *count += 1;
                    }
                    _ => runs.push((iter, 1, bits)),
                }
            }
            runs
        };
        // Wire v4 carries `iter_costs` as runs; whatever the pairs, the
        // decoded reply is the encoded one, cost bits included, and the
        // bytes are the ones that derivation produced.
        let plain = |pairs: Vec<(u32, f64)>| BlockReply {
            iter_costs: pairs.into_iter().collect(),
            ..Default::default()
        };
        let one_cost = plain((100..612).map(|i| (i, 1.0)).collect());
        for (what, r) in [
            ("empty", plain(Vec::new())),
            ("single iteration", plain(vec![(top + 7, 1.5)])),
            ("one cost", one_cost.clone()),
            (
                "mixed costs and a gap",
                BlockReply {
                    iter_costs: [(0, 1.0), (1, 1.0), (2, 2.5), (3, 2.5), (9, 2.5), (10, 1.0)]
                        .into_iter()
                        .map(|(i, c)| (top + i, c))
                        .collect(),
                    ..reply.clone()
                },
            ),
            (
                "equal but not bit-equal",
                plain(vec![(top + 5, 0.0), (top + 6, -0.0)]),
            ),
            (
                "not ascending",
                plain(vec![(top + 3, 1.0), (top + 2, 1.0), (top + 2, 1.0)]),
            ),
            (
                "end of the iteration space",
                plain(vec![(u32::MAX - 1, 1.0), (u32::MAX, 1.0)]),
            ),
        ] {
            let bytes = r.encode();
            let back = BlockReply::decode(&bytes).unwrap();
            assert_eq!(back, r, "{what}");
            let bits = |r: &BlockReply| -> Vec<u64> {
                r.iter_costs.iter().map(|(_, c)| c.to_bits()).collect()
            };
            assert_eq!(bits(&back), bits(&r), "{what}: cost bits");
            let pairs: Vec<(u32, f64)> = r.iter_costs.iter().collect();
            let derived = runs_of_pairs(&pairs);
            let held: Vec<_> = r.iter_costs.runs().iter().collect();
            assert_eq!(held.len(), derived.len(), "{what}: runs");
            for (run, &(first, count, bits)) in held.iter().zip(&derived) {
                assert_eq!(
                    (run.first, run.count, run.cost.to_bits()),
                    (first, count, bits)
                );
            }
            if r == plain(pairs) {
                assert_eq!(bytes, with_runs(derived.len() as u64, &derived), "{what}");
            }
        }
        // 512 consecutive iterations at one cost are one run, not 6 KB.
        assert_eq!(
            one_cost.encode().len(),
            plain(vec![(100, 1.0)]).encode().len()
        );

        // Hostile runs: a count read from the wire sizes no allocation
        // at all — a run stays a run, however long — and a run `encode`
        // never writes is refused.
        let c = 1.0f64.to_bits();
        assert_eq!(
            BlockReply::decode(&with_runs(1, &[(4, 3, c)])).unwrap(),
            plain(vec![(4, 1.0), (5, 1.0), (6, 1.0)])
        );
        // These were refused here while decoding expanded a run into
        // pairs. They are well-formed runs of *some* block; whether of
        // the block that was dispatched is `execute_remote`'s question
        // (`a_poisoned_reply_costs_the_fleet_not_the_run`).
        for (what, count) in [
            ("count of u32::MAX", u32::MAX),
            ("count just past the cap", (MAX_FRAME / 12) as u32 + 1),
            ("all but one iteration", u32::MAX - 1),
        ] {
            let back = BlockReply::decode(&with_runs(1, &[(0, count, c)])).unwrap();
            assert_eq!(back.iter_costs.runs().len(), 1, "{what}");
            assert_eq!(back.iter_costs.len(), count as usize, "{what}");
        }
        for (what, bytes) in [
            ("empty run", with_runs(1, &[(4, 0, c)])),
            (
                "run past the last iteration",
                with_runs(1, &[(u32::MAX, 2, c)]),
            ),
            (
                "more runs declared than sent",
                with_runs(u64::MAX, &[(4, 3, c)]),
            ),
            (
                "fewer runs declared than sent",
                with_runs(1, &[(4, 3, c), (9, 1, c)]),
            ),
            (
                "one run spelled as two",
                with_runs(2, &[(4, 3, c), (7, 1, c)]),
            ),
        ] {
            assert_eq!(
                BlockReply::decode(&bytes),
                Err(PersistError::Corrupt),
                "{what}"
            );
        }

        // Hostile counts: the list bound refuses them before a slot is
        // read (a slot is 32 B in memory; 1 MiB of payload holds 65 536).
        let with_tested = |declared: u32, payload: usize| {
            let mut w = Writer::with_payload(KIND_DIST_REPLY, 0);
            w.u64(0);
            w.u32(0);
            w.u64(u64::MAX);
            w.u64(u64::MAX);
            w.u32(declared);
            for _ in 0..payload / 4 {
                w.u32(0);
            }
            w.finish().0
        };
        let empty_slots = BlockReply::decode(&with_tested(3, 3 * 16 + 4 + 8 + 8)).unwrap();
        assert_eq!(empty_slots.tested, vec![SlotReply::default(); 3]);
        for declared in [u32::MAX, (1 << 20) / 16 + 1, 1 << 20] {
            assert_eq!(
                BlockReply::decode(&with_tested(declared, 1 << 20)),
                Err(PersistError::Corrupt),
                "{declared} tested slots in front of 1 MiB"
            );
        }

        assert_eq!(frame_kind(&encode_shutdown()), Some(FRAME_SHUTDOWN));
    }

    #[test]
    fn serve_frames_round_trip_and_are_hardened() {
        let spec = JobSpec {
            protocol: SERVE_PROTOCOL_VERSION,
            key: 0xA_0000_0007,
            spec: "rlp:A[i] = A[i - 1] + ε;".into(),
            p: 4,
            strategy: "sw:64".into(),
            budget_bytes: 1 << 20,
            fault_seed: 3,
            shadow_fault: "0:64K".into(),
            max_stages: 9,
        };
        assert_eq!(JobSpec::decode(&spec.encode()).unwrap(), spec);

        for decision in [
            JobDecision::Accepted,
            JobDecision::Queued,
            JobDecision::Attached,
            JobDecision::Rejected(RejectReason::OverPool {
                requested: 2 << 20,
                pool: 1 << 20,
            }),
            JobDecision::Rejected(RejectReason::KeyConflict),
            JobDecision::Rejected(RejectReason::BadSpec("no such deck".into())),
            JobDecision::Rejected(RejectReason::Draining),
            JobDecision::Rejected(RejectReason::ProtocolMismatch { server: 7 }),
        ] {
            let bytes = decision.encode();
            assert_eq!(JobDecision::decode(&bytes).unwrap(), decision);
        }

        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Paused,
            JobState::Done,
            JobState::Failed,
            JobState::Unknown,
        ] {
            let status = JobStatusFrame {
                key: 0xB_0000_0001,
                state,
                exit_code: 3,
                verified: state == JobState::Done,
                frontier: 4096,
                report_json: "{\"stages\":7}".into(),
                message: "stage limit".into(),
            };
            let bytes = status.encode();
            assert_eq!(JobStatusFrame::decode(&bytes).unwrap(), status);
        }

        let summary = FrontierSummary {
            key: 0xC_0000_0001,
            frontier: 640,
            records: 11,
            dropped: 4,
        };
        assert_eq!(FrontierSummary::decode(&summary.encode()).unwrap(), summary);

        let query = StatusRequest {
            protocol: SERVE_PROTOCOL_VERSION,
            key: 0xC_0000_0001,
        };
        assert_eq!(StatusRequest::decode(&query.encode()).unwrap(), query);

        // Hostile fields, checksum resealed by the writer.
        let record = |kind: u8, fields: &[u64], tail: &dyn Fn(&mut Writer)| {
            let mut w = Writer::with_payload(kind, 0);
            for &f in fields {
                w.u64(f);
            }
            tail(&mut w);
            w.finish().0
        };
        use crate::persist::{KIND_SERVE_DECISION, KIND_SERVE_STATUS, KIND_SERVE_SUBMIT};
        // protocol + p, key, budget, seed, stages; then a spec whose
        // declared length runs past the payload.
        let past_the_payload = record(KIND_SERVE_SUBMIT, &[0; 5], &|w| {
            w.u64(u64::MAX);
            w.blob(b"rd");
            w.blob(b"");
        });
        assert_eq!(
            JobSpec::decode(&past_the_payload[..]),
            Err(PersistError::Corrupt)
        );
        let status = |state: u32, verified: u32| {
            record(KIND_SERVE_STATUS, &[1], &|w| {
                w.u32(state);
                w.u32(0);
                w.u32(verified);
                w.u64(0);
                w.blob(b"");
                w.blob(b"");
            })
        };
        assert!(JobStatusFrame::decode(&status(5, 1)).is_ok());
        for (what, bytes) in [
            ("verified = 2", status(3, 2)),
            ("unknown state", status(6, 0)),
        ] {
            assert_eq!(
                JobStatusFrame::decode(&bytes),
                Err(PersistError::Corrupt),
                "{what}"
            );
        }
        let decision = |code: u32, reason: u32, a: u64, msg: &'static [u8]| {
            record(KIND_SERVE_DECISION, &[], &|w| {
                w.u32(code);
                w.u32(reason);
                w.u64(a);
                w.u64(0);
                w.blob(msg);
            })
        };
        assert_eq!(
            JobDecision::decode(&decision(DECISION_REJECTED, REJECT_DRAINING, 0, b"")),
            Ok(JobDecision::Rejected(RejectReason::Draining))
        );
        for (what, bytes) in [
            ("unknown decision", decision(4, 0, 0, b"")),
            ("unknown reason", decision(DECISION_REJECTED, 5, 0, b"")),
            (
                "message not UTF-8",
                decision(DECISION_REJECTED, REJECT_BAD_SPEC, 0, b"\xff"),
            ),
            (
                "an unused field set",
                decision(DECISION_ACCEPTED, 0, 1, b""),
            ),
            (
                "a reason on an accept",
                decision(DECISION_QUEUED, REJECT_DRAINING, 0, b""),
            ),
            (
                "a version wider than its field",
                decision(DECISION_REJECTED, REJECT_PROTOCOL, 1 << 32, b""),
            ),
        ] {
            assert_eq!(
                JobDecision::decode(&bytes),
                Err(PersistError::Corrupt),
                "{what}"
            );
        }
    }

    #[test]
    fn frame_io_round_trips_and_rejects_bad_lengths() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"world!").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"world!");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");

        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut &zero[..]).is_err(), "zero length");
        let huge = (u32::MAX).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err(), "oversized length");
        let torn = [5u8, 0, 0, 0, b'x'];
        assert!(read_frame(&mut &torn[..]).is_err(), "EOF inside frame");
        let part = [5u8, 0];
        assert!(read_frame(&mut &part[..]).is_err(), "EOF inside length");

        // The same frames lying in a buffer: each record with the offset
        // its frame ends at; the walk stops for good at a torn frame, a
        // partial length or a zero length.
        let walk = |buf: &[u8]| -> Vec<(Vec<u8>, usize)> {
            let mut it = frames(buf);
            let walked = it.by_ref().map(|(rec, end)| (rec.to_vec(), end)).collect();
            assert!(it.next().is_none(), "the walk resumed");
            walked
        };
        let whole = vec![(b"hello".to_vec(), 9), (b"world!".to_vec(), 19)];
        assert_eq!(walk(&buf), whole);
        assert_eq!(walk(&[]), vec![]);
        for tail in [
            &torn[..],
            &part[..],
            &huge[..],
            &[0, 0, 0, 0, 1, 0, 0, 0, b'x'][..],
        ] {
            let mut longer = buf.clone();
            longer.extend_from_slice(tail);
            assert_eq!(walk(&longer), whole, "tail {tail:?}");
        }
        assert_eq!(walk(&buf[..18]), whole[..1], "a torn second frame");
    }

    #[test]
    fn every_frame_reaches_the_writer_as_one_write() {
        /// Accepts everything; remembers the size of each `write`.
        #[derive(Default)]
        struct Counting(Vec<usize>);
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.len());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let reply = BlockReply {
            iter_costs: [(0, 1.0), (1, 2.0)].into_iter().collect(),
            ..Default::default()
        };
        for record in [
            b"x".to_vec(),
            // A line-buffered writer would cut this one at every byte.
            vec![0x0A; 4096],
            encode_heartbeat(1),
            reply.encode(),
        ] {
            let mut w = Counting::default();
            write_frame(&mut w, &record).unwrap();
            assert_eq!(w.0, vec![4 + record.len()]);
        }
        // Frames queued in one buffer are still whole frames.
        let mut queued = Vec::new();
        push_frame(&mut queued, b"hello");
        push_frame(&mut queued, b"world!");
        let mut r = &queued[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"world!");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    fn assert_matches_sequential(cfg: RunConfig, n: usize) {
        let lp = model_loop(n);
        let mut connector = LoopbackConnector::new(n);
        let got = Runner::new(cfg)
            .execute(
                &lp,
                RunPlan {
                    fleet: Some(("loopback", &mut connector)),
                    ..Default::default()
                },
            )
            .expect("distributed run");
        let (seq, _) = run_sequential(&lp);
        assert_eq!(got.arrays, seq, "distributed state differs from sequential");
        assert_eq!(got.report.fallback, None, "no degradation expected");
        assert!(got.report.wire_bytes() > 0, "transport stats recorded");
        assert!(got.report.restarts > 0, "loop should be partially parallel");
    }

    #[test]
    fn distributed_run_matches_sequential_rd() {
        let mut cfg = RunConfig::new(4);
        cfg.strategy = Strategy::Rd;
        assert_matches_sequential(cfg, 200);
    }

    #[test]
    fn distributed_run_matches_sequential_nrd() {
        let mut cfg = RunConfig::new(3);
        cfg.strategy = Strategy::Nrd;
        assert_matches_sequential(cfg, 150);
    }

    #[test]
    fn distributed_run_matches_sequential_sliding_window() {
        let mut cfg = RunConfig::new(4);
        cfg.strategy = Strategy::SlidingWindow(WindowConfig::fixed(7));
        assert_matches_sequential(cfg, 200);
    }

    #[test]
    fn distributed_and_pooled_runs_are_equivalent() {
        for strategy in [
            Strategy::Nrd,
            Strategy::Rd,
            Strategy::SlidingWindow(WindowConfig::fixed(5)),
        ] {
            let n = 180;
            let lp = model_loop(n);
            let mut cfg = RunConfig::new(4);
            cfg.strategy = strategy;
            let local = Runner::new(cfg).try_run(&lp).expect("in-process run");
            let mut connector = LoopbackConnector::new(n);
            let dist = Runner::new(cfg)
                .execute(
                    &lp,
                    RunPlan {
                        fleet: Some(("loopback", &mut connector)),
                        ..Default::default()
                    },
                )
                .expect("distributed run");
            assert_eq!(dist.arrays, local.arrays, "{strategy:?}");
            assert_eq!(dist.report.restarts, local.report.restarts, "{strategy:?}");
            assert_eq!(
                dist.report.stages.len(),
                local.report.stages.len(),
                "{strategy:?}"
            );
            for (d, l) in dist.report.stages.iter().zip(&local.report.stages) {
                assert_eq!(d.iters_committed, l.iters_committed, "{strategy:?}");
                assert_eq!(d.iters_attempted, l.iters_attempted, "{strategy:?}");
                assert_eq!(d.loop_time, l.loop_time, "{strategy:?}");
                assert_eq!(d.overhead.total(), l.overhead.total(), "{strategy:?}");
            }
        }
    }

    /// The promise on [`Engine::broadcast_commit`]: on a fresh journal
    /// the wire and the disk carry the same record chain — through
    /// every branch of the stage loop, budget pressure included.
    #[test]
    fn wire_and_disk_carry_the_same_commit_records_under_pressure() {
        for strategy in [
            Strategy::Nrd,
            Strategy::SlidingWindow(WindowConfig::fixed(4)),
        ] {
            let n = 120;
            let lp = model_loop(n);
            let mut cfg = RunConfig::new(2).with_shadow_budget(Some(1 << 20));
            cfg.strategy = strategy;
            // Dense shadows can down-tier, so the pressured stage is
            // relieved and re-runs instead of ending the run in a
            // sequential fallback (whose record is not broadcast).
            let plan = rlrpd_runtime::FaultPlan::new().shadow_pressure_at(1, 1 << 30);
            let mut connector = LoopbackConnector::new(n);
            let path = std::env::temp_dir().join(format!(
                "rlrpd-wire-disk-{}-{}",
                matches!(strategy, Strategy::Nrd),
                std::process::id()
            ));
            let mut journal = crate::journal::Journal::create(&path).unwrap();
            let got = Runner::new(cfg)
                .with_fault(Arc::new(plan))
                .execute(
                    &lp,
                    RunPlan {
                        journal: Some(&mut journal),
                        fleet: Some(("loopback", &mut connector)),
                        resume: false,
                    },
                )
                .expect("distributed journaled run");
            drop(journal);
            assert_eq!(got.report.shadow_pressure_events(), 1, "{strategy:?}");
            assert_eq!(got.report.fallback, None, "{strategy:?}");

            let file = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let mut rest = &file[..];
            let mut disk = Vec::new();
            while let Some(record) = read_frame(&mut rest).unwrap() {
                disk.push(record);
            }
            disk.remove(0); // the header travels in the hello
            let wire = connector.broadcasts.lock().unwrap();
            assert_eq!(wire.len(), disk.len(), "{strategy:?}: records on the wire");
            assert!(*wire == disk, "{strategy:?}: wire and disk records differ");
        }
    }

    #[test]
    fn premature_exit_propagates_through_the_wire() {
        let n = 120;
        let exit_at = 73;
        let mk = move || {
            ClosureLoop::new(
                n,
                || vec![ArrayDecl::tested("A", vec![0.0; 128], ShadowKind::Dense)],
                move |i, ctx| {
                    let a = ArrayId(0);
                    let v = ctx.read(a, i.saturating_sub(1));
                    ctx.write(a, i, v + 1.0);
                    if i == exit_at {
                        ctx.exit();
                    }
                },
            )
        };
        let lp = mk();
        // Worker resolves the same loop via its own constructor.
        let (tx_in, rx_in) = channel::<Vec<u8>>();
        let (tx_out, rx_out) = channel::<Vec<u8>>();
        type Channel = (Sender<Vec<u8>>, Receiver<Vec<u8>>);
        struct ExitConnector {
            ch: Option<Channel>,
        }
        impl DistConnector for ExitConnector {
            fn connect(&mut self, _hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
                let (tx, rx) = self.ch.take().ok_or("already connected")?;
                Ok(Box::new(Loopback {
                    to_worker: tx,
                    from_worker: rx,
                    stats: TransportStats::default(),
                    corrupt_at: Vec::new(),
                    ordinal: 0,
                    broadcasts: Arc::default(),
                }))
            }
        }
        let hello_rx = rx_in;
        std::thread::spawn(move || {
            let lp = mk();
            let mut input = ChanReader {
                rx: hello_rx,
                buf: Vec::new(),
                pos: 0,
            };
            // First frame is the hello in this hand-rolled transport.
            let hello_bytes = read_frame(&mut input).unwrap().unwrap();
            let hello = WireHello::decode(&hello_bytes).unwrap();
            let mut send = |bytes: &[u8]| {
                tx_out.send(bytes.to_vec()).map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "supervisor gone")
                })
            };
            serve_worker::<f64>(&lp, &hello, &mut input, &mut send)
        });
        struct HelloFirst {
            inner: ExitConnector,
            tx: Sender<Vec<u8>>,
        }
        impl DistConnector for HelloFirst {
            fn connect(&mut self, hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
                self.tx
                    .send(Loopback::frame(&hello.encode()))
                    .map_err(|e| e.to_string())?;
                self.inner.connect(hello)
            }
        }
        let mut connector = HelloFirst {
            inner: ExitConnector {
                ch: Some((tx_in.clone(), rx_out)),
            },
            tx: tx_in,
        };
        let mut cfg = RunConfig::new(4);
        cfg.strategy = Strategy::Rd;
        let got = Runner::new(cfg)
            .execute(
                &lp,
                RunPlan {
                    fleet: Some(("loopback", &mut connector)),
                    ..Default::default()
                },
            )
            .expect("distributed run");
        let (seq, _) = run_sequential(&lp);
        assert_eq!(got.arrays, seq);
        assert_eq!(got.report.exited_at, Some(exit_at));
        assert_eq!(got.report.fallback, None);
    }

    #[test]
    fn connector_failure_degrades_to_in_process_with_worker_loss() {
        let n = 160;
        let lp = model_loop(n);
        let mut cfg = RunConfig::new(4);
        cfg.strategy = Strategy::Rd;
        let got = Runner::new(cfg)
            .execute(
                &lp,
                RunPlan {
                    fleet: Some(("loopback", &mut DeadConnector)),
                    ..Default::default()
                },
            )
            .expect("run must survive a dead connector");
        let (seq, _) = run_sequential(&lp);
        assert_eq!(got.arrays, seq);
        assert_eq!(got.report.fallback, Some(FallbackReason::WorkerLoss));
        assert_eq!(got.report.wire_bytes(), 0, "nothing ever went on a wire");
    }

    #[test]
    fn divergent_worker_mid_run_degrades_without_losing_state() {
        let n = 200;
        let lp = model_loop(n);
        let mut cfg = RunConfig::new(4);
        cfg.strategy = Strategy::Rd;
        let mut connector = LoopbackConnector::new(n);
        // Corrupt the 5th dispatched block's chain echo: the loopback
        // dispatcher reports fleet loss, the engine re-runs that stage
        // in-process, and the run completes correctly.
        connector.corrupt_at = vec![4];
        let got = Runner::new(cfg)
            .execute(
                &lp,
                RunPlan {
                    fleet: Some(("loopback", &mut connector)),
                    ..Default::default()
                },
            )
            .expect("run must survive divergence");
        let (seq, _) = run_sequential(&lp);
        assert_eq!(got.arrays, seq);
        assert_eq!(got.report.fallback, Some(FallbackReason::WorkerLoss));
    }

    /// A fleet whose `at`-th reply is rewritten before the engine sees
    /// it — a worker that lies in a frame whose checksum holds.
    struct Poisoner {
        inner: Box<dyn BlockDispatcher>,
        at: usize,
        seen: usize,
        poison: fn(&mut BlockReply),
    }

    impl BlockDispatcher for Poisoner {
        fn broadcast(&mut self, record: &[u8]) -> Result<(), WorkerLoss> {
            self.inner.broadcast(record)
        }

        fn dispatch(&mut self, reqs: &[BlockRequest]) -> Result<Vec<BlockReply>, WorkerLoss> {
            let mut replies = self.inner.dispatch(reqs)?;
            for reply in &mut replies {
                if self.seen == self.at {
                    (self.poison)(reply);
                }
                self.seen += 1;
            }
            Ok(replies)
        }

        fn take_stats(&mut self) -> TransportStats {
            self.inner.take_stats()
        }
    }

    struct PoisonedConnector {
        inner: LoopbackConnector,
        at: usize,
        poison: fn(&mut BlockReply),
    }

    impl DistConnector for PoisonedConnector {
        fn connect(&mut self, hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
            Ok(Box::new(Poisoner {
                inner: self.inner.connect(hello)?,
                at: self.at,
                seen: 0,
                poison: self.poison,
            }))
        }
    }

    /// Every number of a reply that the stage goes on to index by:
    /// each, out of range, must cost the run its fleet and nothing
    /// else. (Before `execute_remote` checked them the first of these
    /// was `index out of bounds: the len is 200 but the index is
    /// 4000000000` in `run_stage`.)
    #[test]
    fn a_poisoned_reply_costs_the_fleet_not_the_run() {
        fn one_run(first: u32, count: u32) -> CostRuns {
            let mut w = Writer::with_payload(KIND_DIST_REPLY, 0);
            w.u64(1);
            w.u32(first);
            w.u32(count);
            w.u64(1.0f64.to_bits());
            crate::schema::decode::<CostRuns>(KIND_DIST_REPLY, &w.finish().0).unwrap()
        }
        type Poison = fn(&mut BlockReply);
        let poisons: [(&str, Poison); 9] = [
            ("an iteration far outside the loop", |r| {
                r.iter_costs = one_run(4_000_000_000, 1)
            }),
            // The two counts `decode` refused while it expanded runs.
            ("count of u32::MAX", |r| r.iter_costs = one_run(0, u32::MAX)),
            ("count just past the cap", |r| {
                let first = r.iter_costs.runs().first().map_or(0, |run| run.first);
                r.iter_costs = one_run(first, (MAX_FRAME / 12) as u32 + 1)
            }),
            ("a ledger that skips the block's first iteration", |r| {
                let pairs: Vec<_> = r.iter_costs.iter().skip(1).collect();
                r.iter_costs = pairs.into_iter().collect()
            }),
            ("a ledger with a hole", |r| {
                let pairs: Vec<_> = r.iter_costs.iter().collect();
                let (front, back) = pairs.split_at(pairs.len() / 2);
                r.iter_costs = front.iter().chain(&back[1..]).copied().collect()
            }),
            ("an exit that is not the last iteration run", |r| {
                r.exit_iter = Some(4_000_000_000)
            }),
            ("a tested element past its array", |r| {
                r.tested[0].touched.push((64, MARK_WRITE, 0))
            }),
            ("an untested element past its array", |r| {
                r.untested[0].push((256, 0))
            }),
            ("a missing untested slot", |r| r.untested.clear()),
        ];
        let n = 200;
        let lp = model_loop(n);
        let (seq, _) = run_sequential(&lp);
        for (what, poison) in poisons {
            for at in [0, 5] {
                let mut cfg = RunConfig::new(4);
                cfg.strategy = Strategy::Rd;
                let mut connector = PoisonedConnector {
                    inner: LoopbackConnector::new(n),
                    at,
                    poison,
                };
                let got = Runner::new(cfg)
                    .execute(
                        &lp,
                        RunPlan {
                            fleet: Some(("loopback", &mut connector)),
                            ..Default::default()
                        },
                    )
                    .unwrap_or_else(|e| panic!("{what} in reply {at}: {e}"));
                assert_eq!(got.arrays, seq, "{what} in reply {at}");
                assert_eq!(
                    got.report.fallback,
                    Some(FallbackReason::WorkerLoss),
                    "{what} in reply {at}"
                );
            }
        }
    }

    #[test]
    fn worker_rejects_a_mismatched_run_identity() {
        let n = 60;
        let lp = model_loop(n);
        let other = model_loop(n + 1); // different iteration count
        let ecfg = EngineCfg {
            p: 2,
            exec: ExecMode::Simulated,
            cost: CostModel::default(),
            checkpoint: CheckpointPolicy::OnDemand,
            commit_prefix_on_failure: true,
            fault: None,
            shadow_cap: None,
        };
        let engine = Engine::new(&lp, ecfg, false);
        let header = JournalHeader {
            n: engine.n,
            p: 2,
            strategy_hash: 0,
            elem_hash: elem_fingerprint::<f64>(),
            arrays: engine.layout(),
        };
        let hello = WireHello {
            protocol: PROTOCOL_VERSION,
            run_id: fresh_run_id(),
            heartbeat_millis: 0,
            shadow_budget: 0,
            header: header.encode(CHAIN_SEED).0,
            spec: "loopback".into(),
        };
        let mut input = std::io::empty();
        let mut send = |_: &[u8]| Ok(());
        let err = serve_worker::<f64>(&other, &hello, &mut input, &mut send).unwrap_err();
        assert!(
            matches!(err, WireError::Protocol(ref m) if m.contains("iteration count")),
            "{err}"
        );
        // The matching loop accepts the hello and ends cleanly on EOF.
        serve_worker::<f64>(&lp, &hello, &mut input, &mut send).expect("clean EOF");
    }

    #[test]
    fn worker_rejects_a_protocol_version_mismatch_before_identity_checks() {
        let n = 40;
        let lp = model_loop(n);
        let hello = WireHello {
            protocol: PROTOCOL_VERSION + 1,
            run_id: fresh_run_id(),
            heartbeat_millis: 0,
            shadow_budget: 0,
            // Garbage header: the version check must fire first, so a
            // future binary whose header layout we cannot parse still
            // gets a version-mismatch diagnostic, not "bad header".
            header: vec![0xff; 16],
            spec: "loopback".into(),
        };
        let mut input = std::io::empty();
        let mut sent = Vec::new();
        let mut send = |bytes: &[u8]| {
            sent.push(bytes.to_vec());
            Ok(())
        };
        let err = serve_worker::<f64>(&lp, &hello, &mut input, &mut send).unwrap_err();
        assert!(
            matches!(err, WireError::Protocol(ref m) if m.contains("protocol version mismatch")),
            "{err}"
        );
        assert!(sent.is_empty(), "no ack may precede the version check");
    }

    #[test]
    fn worker_acknowledges_an_accepted_hello_with_its_identity() {
        let n = 50;
        let lp = model_loop(n);
        let ecfg = EngineCfg {
            p: 2,
            exec: ExecMode::Simulated,
            cost: CostModel::default(),
            checkpoint: CheckpointPolicy::OnDemand,
            commit_prefix_on_failure: true,
            fault: None,
            shadow_cap: None,
        };
        let engine = Engine::new(&lp, ecfg, false);
        let header = JournalHeader {
            n: engine.n,
            p: 2,
            strategy_hash: 0,
            elem_hash: elem_fingerprint::<f64>(),
            arrays: engine.layout(),
        };
        let hello = WireHello {
            protocol: PROTOCOL_VERSION,
            run_id: fresh_run_id(),
            heartbeat_millis: 10,
            shadow_budget: 0,
            header: header.encode(CHAIN_SEED).0,
            spec: "loopback".into(),
        };
        let mut input = std::io::empty();
        let mut sent = Vec::new();
        let mut send = |bytes: &[u8]| {
            sent.push(bytes.to_vec());
            Ok(())
        };
        serve_worker::<f64>(&lp, &hello, &mut input, &mut send).expect("clean EOF");
        assert_eq!(sent.len(), 1, "exactly the ack");
        let ack = HelloAck::decode(&sent[0]).unwrap();
        assert_eq!(
            ack,
            HelloAck {
                protocol: PROTOCOL_VERSION,
                run_id: hello.run_id,
                header_chain: header.encode(CHAIN_SEED).1,
            }
        );
        assert_eq!(hello.header_chain(), Some(ack.header_chain));
    }

    #[test]
    fn run_ids_are_process_unique() {
        let a = fresh_run_id();
        let b = fresh_run_id();
        assert_ne!(a, b);
        assert_eq!(a >> 32, (std::process::id() as u64) & 0xffff_ffff);
    }
}
