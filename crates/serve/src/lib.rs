//! # rlrpd-serve — a crash-tolerant multi-tenant job daemon
//!
//! `rlrpd serve` turns the single-shot CLI into a long-lived service:
//! many concurrent clients submit compiled loop programs over the
//! existing length-framed protocol, and the daemon multiplexes their
//! speculative runs over one process — one shared worker pool, one
//! process-wide shadow-budget pool, one journal directory.
//!
//! The protocol *is* the journal format: every frame the daemon
//! streams to a watching client is the exact record an `fdatasync` of
//! that job's crash journal has just covered. "Follow the job" and
//! "replicate the journal" are the same operation, which is why a
//! client that reconnects after a daemon crash can be caught up from
//! the file byte-for-byte.
//!
//! Robustness properties, each deterministic enough to assert in CI:
//!
//! - **Admission control** — a process-wide [`rlrpd_shadow::BudgetPool`]
//!   is carved into per-job leases at dispatch; concurrently granted
//!   budgets never sum above the pool, submissions that could never
//!   fit are rejected with a typed reason, and dispatch round-robins
//!   across tenants (the upper 32 bits of the job key).
//! - **Backpressure** — each subscribed client gets a bounded frame
//!   queue; overflow frames are dropped and coalesced into
//!   [`rlrpd_core::remote::FrontierSummary`] records, and a client
//!   whose socket stalls past the write timeout is disconnected.
//!   Job durability is never coupled to client liveness.
//! - **Graceful drain** — SIGTERM stops admission, sets every running
//!   job's cooperative stop flag, lets runs pause at a durable commit
//!   point, and exits 0 with zero torn journals.
//! - **Crash recovery** — a restart with `--resume` scans the state
//!   directory and resumes every incomplete job from its journal;
//!   a SIGKILL mid-fleet costs at most the uncommitted suffix of each
//!   run, and every job still finishes byte-identical to sequential.
//!
//! [`daemon`] hosts the server ([`Daemon`] in-process for tests,
//! [`serve_entry`] as the CLI process body); [`client`] implements
//! `rlrpd submit` / `rlrpd status` with exponential backoff and
//! idempotent resubmission keyed by the client-chosen job key.

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod jobs;

pub use client::{query_status, submit, ClientError, ClientOptions, SubmitOutcome};
pub use daemon::{serve_entry, Daemon, DaemonHandle, ServeConfig};
pub use jobs::{tenant_of, Job, Publisher, Subscriber};
