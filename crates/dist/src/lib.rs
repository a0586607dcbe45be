//! Fault-tolerant multi-process stage sharding.
//!
//! This crate turns the in-process R-LRPD drivers into a
//! supervisor/worker system: the supervisor (the normal
//! [`rlrpd_core::Runner`]) dispatches each stage's block work to worker
//! **subprocesses** over length-framed pipes, collects per-block
//! shadow/delta results, re-runs the existing parallel LRPD analysis on
//! the merged shadows, and advances the commit frontier exactly as the
//! in-process drivers do. The paper's observation that everything below
//! the commit frontier is permanently correct (Section 2.3) is what
//! makes this safe: a worker only ever needs the committed prefix plus
//! one block request, so every block is idempotent and can be
//! re-dispatched after any failure.
//!
//! The robustness machinery lives in [`Fleet`]:
//!
//! - **heartbeats** — every worker emits a heartbeat frame on a fixed
//!   interval from a dedicated thread; a busy worker whose heartbeats
//!   stop is presumed dead and killed;
//! - **deadlines** — a block outstanding past
//!   [`DistPolicy::block_deadline`] marks its worker hung (its
//!   heartbeats may well continue: only the deadline catches a stuck
//!   main thread);
//! - **retry with backoff** — a dead, hung, or divergent worker is
//!   respawned after an exponentially growing backoff and its
//!   outstanding blocks re-dispatched, up to
//!   [`DistPolicy::max_respawns`] across the run;
//! - **divergence detection** — every block reply echoes the record
//!   chain of the inputs the worker computed from (the same chain the
//!   crash journal uses); a mismatch means the worker's mirror of the
//!   committed state has diverged, so the result is rejected and the
//!   worker rebuilt from scratch.
//!
//! Exhausting the fleet-wide respawn budget (or quarantining every
//! worker) degrades the run to the in-process pooled path (recorded as
//! `FallbackReason::WorkerLoss` on the [`rlrpd_core::RunReport`]) —
//! never an error, and never a loss of committed work. A single
//! flapping worker exhausts only its **own** budget and is quarantined
//! (removed from rotation) while the rest of the fleet finishes the
//! run.
//!
//! ## Transports
//!
//! Workers come in two flavors behind one wire protocol:
//!
//! - **subprocess** ([`Endpoint::Local`]) — spawned by the supervisor,
//!   framed over stdin/stdout pipes;
//! - **TCP** ([`Endpoint::Tcp`]) — a standalone `rlrpd worker --listen
//!   ADDR` host ([`listen_entry`]), connected with per-attempt timeouts,
//!   jittered exponential backoff, socket deadlines, and keepalive
//!   ([`net::connect`]). A respawn is a fresh connection that replays
//!   hello + commit history, so reconnect-and-rejoin after a transient
//!   partition falls out of the same machinery.
//!
//! The hello carries a protocol version and run identity
//! ([`rlrpd_core::PROTOCOL_VERSION`]); a mismatched binary is rejected
//! at the handshake (worker exit 64, supervisor quarantine) instead of
//! surfacing later as chain divergence.
//!
//! For testing the failure paths deterministically there is an in-repo
//! chaos proxy ([`ChaosProxy`]) that injects connection refusal,
//! mid-frame disconnects, half-open partitions, bytewise corruption,
//! latency, and slow-loris trickle on a schedule keyed by connection
//! ordinal ([`ChaosPlan`]).

#![warn(missing_docs)]

pub mod chaos;
mod fleet;
pub mod net;
mod spec;
mod worker;

pub use chaos::{ChaosFault, ChaosPlan, ChaosProxy};
pub use fleet::{DistLauncher, DistPolicy, Endpoint, Fleet};
pub use net::{listen_entry, DEFAULT_IDLE_TIMEOUT};
pub use spec::resolve_spec;
pub use worker::{worker_entry, EXIT_OK, EXIT_TRANSPORT, EXIT_USAGE};
