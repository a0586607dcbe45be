//! Deterministic fault injection for speculative stages.
//!
//! The R-LRPD containment story is only trustworthy if every recovery
//! path — contained panic, watchdog-tripping straggler, failed
//! checkpoint — is exercised by deterministic tests. A [`FaultPlan`]
//! describes *exactly* which faults to inject and where:
//!
//! * a **panic** at a `(proc, iteration)` pair: the engine raises an
//!   [`InjectedFault`] unwind just before the iteration body runs,
//!   exercising the same catch/contain/re-execute machinery a genuine
//!   program fault would;
//! * a **delay** at a `(proc, iteration)` pair: extra virtual cost
//!   charged to that iteration, inflating the stage's critical path so
//!   the driver's watchdog budget trips deterministically;
//! * a **checkpoint fault** at a stage ordinal: the engine's
//!   checkpoint phase reports failure at the start of that stage
//!   (before any speculative write), modelling an I/O or allocation
//!   error in the checkpoint machinery;
//! * **journal I/O faults** at a journal-record ordinal: a *short
//!   write* (the record is torn after a byte prefix and the run aborts,
//!   modelling a crash mid-append), a *silent corruption* (one payload
//!   byte is flipped as the record lands on disk, modelling media
//!   corruption the next open must detect and truncate), and an
//!   *fsync failure* (the durability barrier itself reports an error).
//!
//! Injected panics and checkpoint faults are **one-shot**: each site
//! fires at most once per plan, modelling transient faults so the
//! containment layer's retry actually succeeds. Delays fire on every
//! execution of their site (a persistently slow iteration).
//!
//! A plan is injected through `EngineCfg`; engines without a plan pay
//! only a single well-predicted branch per iteration (the no-fault fast
//! path). Because sites are keyed by the *schedule-determined*
//! `(proc, iteration)` pair, not by thread timing, injection is
//! deterministic across the simulated, threaded, and pooled executors.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// The unwind payload of an injected panic.
///
/// Raised with `std::panic::resume_unwind` rather than `panic!`, so the
/// process-global panic hook never runs: injected faults are silent on
/// stderr while genuine program panics still print normally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// Virtual processor the fault was injected on.
    pub proc: u32,
    /// Iteration the fault was injected at.
    pub iter: usize,
}

impl std::fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "injected fault at (proc {}, iteration {})",
            self.proc, self.iter
        )
    }
}

/// Parse a byte count with an optional binary suffix: `4096`, `512K`,
/// `64M`, `2G` (case-insensitive). Zero and counts past `u64` are
/// refused.
pub fn parse_bytes(v: &str) -> Result<u64, String> {
    let bad = || format!("expected a byte count (with optional K/M/G suffix), got '{v}'");
    let (digits, shift) = match v.chars().last() {
        Some('k') | Some('K') => (&v[..v.len() - 1], 10),
        Some('m') | Some('M') => (&v[..v.len() - 1], 20),
        Some('g') | Some('G') => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    n.checked_mul(1u64 << shift)
        .filter(|&b| b > 0)
        .ok_or_else(bad)
}

/// Render a caught panic payload as a human-readable message.
///
/// Understands the payload types that actually occur: `&str` / `String`
/// from `panic!`, and [`InjectedFault`] from fault injection.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        f.to_string()
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Wildcard processor: the site fires on whichever processor executes
/// its iteration (each stage's blocks partition the iteration space, so
/// exactly one does).
const ANY_PROC: u32 = u32::MAX;

/// One injectable site keyed by `(proc, iteration)`.
#[derive(Debug)]
struct Site {
    proc: u32,
    iter: u32,
    /// One-shot arming (panic sites) — cleared on first firing.
    armed: AtomicBool,
}

impl Site {
    fn new(proc: u32, iter: usize) -> Self {
        Site {
            proc,
            iter: iter as u32,
            armed: AtomicBool::new(true),
        }
    }

    fn matches(&self, proc: u32, iter: usize) -> bool {
        (self.proc == proc || self.proc == ANY_PROC) && self.iter as usize == iter
    }
}

/// A worker-subprocess fault directive, keyed by dispatch ordinal (the
/// count of block transmissions over the run, re-dispatches included).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerFault {
    /// The worker aborts (SIGABRT) on receipt — models a crash/SIGKILL;
    /// the supervisor sees EOF and must respawn + re-dispatch.
    Kill,
    /// The worker's main thread stops making progress while its
    /// heartbeat thread keeps beating — only the per-block deadline can
    /// catch it.
    Hang,
    /// The worker computes the block normally but lies about the chain
    /// hash of its inputs — the supervisor must reject the result as
    /// divergent and re-dispatch.
    CorruptResult,
}

/// A deterministic, seedable description of faults to inject into a
/// speculative run. See the module docs for the fault vocabulary.
///
/// Plans hold interior one-shot state; build a **fresh plan per run**
/// when comparing runs (e.g. cross-executor equivalence tests).
#[derive(Debug, Default)]
pub struct FaultPlan {
    panics: Vec<Site>,
    delays: Vec<(u32, u32, f64)>,
    checkpoint_faults: Vec<Site>,
    /// `(site keyed by record ordinal, bytes to keep)` — the append of
    /// that journal record is torn after `keep` bytes.
    io_short_writes: Vec<(Site, u32)>,
    /// Record ordinals whose payload is silently corrupted on append.
    io_corrupts: Vec<Site>,
    /// Record ordinals whose durability barrier (fsync) fails.
    io_fsync_fails: Vec<Site>,
    /// `(site keyed by record ordinal, remaining transient failures)` —
    /// the first `remaining` write attempts of that record fail with a
    /// transient errno (EINTR); the bounded retry in the journal should
    /// absorb them.
    io_transients: Vec<(Site, AtomicU32)>,
    /// `(site keyed by dispatch ordinal, directive)` — worker-process
    /// faults, delivered in the block request frame.
    worker_faults: Vec<(Site, WorkerFault)>,
    /// `(site keyed by stage ordinal, phantom bytes)` — the engine
    /// charges the bytes to its shadow-budget accountant at the end of
    /// that stage's execute phase (and releases them immediately after
    /// the pressure check), simulating a burst of shadow growth. The
    /// injection only bites when a budget cap is armed: with an
    /// unlimited budget the charge is accounted (it still shows in the
    /// peak) but can never trip pressure.
    shadow_pressure: Vec<(Site, u64)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; useful for measuring the cost of
    /// the injection checks themselves).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a one-shot panic at `(proc, iter)`.
    pub fn panic_at(mut self, proc: usize, iter: usize) -> Self {
        self.panics.push(Site::new(proc as u32, iter));
        self
    }

    /// Add a one-shot panic at iteration `iter` on whichever processor
    /// executes it (exact-`(proc, iter)` sites only fire when the
    /// schedule happens to place the iteration on that processor; an
    /// iteration-keyed site always fires).
    pub fn panic_at_iter(mut self, iter: usize) -> Self {
        self.panics.push(Site::new(ANY_PROC, iter));
        self
    }

    /// Add `cost` virtual time units of delay to every execution of
    /// iteration `iter` on processor `proc`.
    pub fn delay_at(mut self, proc: usize, iter: usize, cost: f64) -> Self {
        self.delays.push((proc as u32, iter as u32, cost));
        self
    }

    /// Fail the checkpoint phase of stage ordinal `stage` (0-based,
    /// counted over the engine's lifetime), one-shot.
    pub fn checkpoint_fault_at(mut self, stage: usize) -> Self {
        self.checkpoint_faults.push(Site::new(0, stage));
        self
    }

    /// Tear the append of journal record ordinal `record` (0-based over
    /// the journal's lifetime, header included) after `keep` bytes,
    /// one-shot. The append reports an I/O error after writing the
    /// prefix, modelling a crash mid-write: the next open must truncate
    /// the torn tail.
    pub fn short_write_at(mut self, record: usize, keep: usize) -> Self {
        self.io_short_writes
            .push((Site::new(0, record), keep as u32));
        self
    }

    /// Silently flip one byte of journal record ordinal `record` as it
    /// lands on disk, one-shot. The append *succeeds* — the corruption
    /// is only detectable by the checksum/chain validation on the next
    /// open, which must truncate the record.
    pub fn corrupt_record_at(mut self, record: usize) -> Self {
        self.io_corrupts.push(Site::new(0, record));
        self
    }

    /// Fail the fsync durability barrier after journal record ordinal
    /// `record` is written, one-shot.
    pub fn fsync_fail_at(mut self, record: usize) -> Self {
        self.io_fsync_fails.push(Site::new(0, record));
        self
    }

    /// Fail the first `times` write attempts of journal record ordinal
    /// `record` with a transient errno (EINTR). Unlike the other I/O
    /// sites this is a *counted* site: it fires `times` times, then the
    /// write goes through — exercising the journal's bounded retry.
    pub fn transient_io_at(mut self, record: usize, times: u32) -> Self {
        self.io_transients
            .push((Site::new(0, record), AtomicU32::new(times)));
        self
    }

    /// Kill the worker that receives dispatch ordinal `dispatch`
    /// (0-based count of block transmissions over the run), one-shot.
    pub fn kill_worker_at(mut self, dispatch: usize) -> Self {
        self.worker_faults
            .push((Site::new(ANY_PROC, dispatch), WorkerFault::Kill));
        self
    }

    /// Hang the worker that receives dispatch ordinal `dispatch` — its
    /// heartbeats continue but the block never completes — one-shot.
    pub fn hang_worker_at(mut self, dispatch: usize) -> Self {
        self.worker_faults
            .push((Site::new(ANY_PROC, dispatch), WorkerFault::Hang));
        self
    }

    /// Make the worker that receives dispatch ordinal `dispatch` return
    /// a result with a corrupted input-chain hash, one-shot.
    pub fn corrupt_result_at(mut self, dispatch: usize) -> Self {
        self.worker_faults
            .push((Site::new(ANY_PROC, dispatch), WorkerFault::CorruptResult));
        self
    }

    /// Charge `bytes` of phantom shadow growth to the budget accountant
    /// at the end of stage ordinal `stage`'s execute phase, one-shot.
    /// Exercises the budget-pressure containment path (down-tier ladder,
    /// window shrink, sequential fallback) deterministically; a run with
    /// no budget cap armed records the charge in the peak but never
    /// trips pressure.
    pub fn shadow_pressure_at(mut self, stage: usize, bytes: u64) -> Self {
        self.shadow_pressure.push((Site::new(0, stage), bytes));
        self
    }

    /// Add the shadow-pressure injections `spec` names: the
    /// `--shadow-fault` grammar, `STAGE:BYTES[,STAGE:BYTES...]` with
    /// [`parse_bytes`] byte counts, as the CLI and a daemon job
    /// submission both spell it.
    pub fn shadow_pressure_spec(mut self, spec: &str) -> Result<Self, String> {
        for part in spec.split(',') {
            let (stage, bytes) = part
                .split_once(':')
                .ok_or(format!("expected STAGE:BYTES entries, got '{part}'"))?;
            let stage: usize = stage
                .parse()
                .map_err(|_| format!("bad stage ordinal '{stage}'"))?;
            self = self.shadow_pressure_at(stage, parse_bytes(bytes)?);
        }
        Ok(self)
    }

    /// Derive a single-panic plan from `seed` for a loop of `n`
    /// iterations: the canonical "inject a panic into any one
    /// iteration" configuration of the containment acceptance suite,
    /// reproducible from the seed alone. The site is iteration-keyed,
    /// so it fires exactly once — on whichever processor the schedule
    /// assigns that iteration to.
    pub fn seeded_panic(seed: u64, n: usize) -> Self {
        let mut s = SplitMix(seed);
        let iter = (s.next() % n.max(1) as u64) as usize;
        FaultPlan::new().panic_at_iter(iter)
    }

    /// True when the plan has no sites at all (checks can be skipped).
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.delays.is_empty()
            && self.checkpoint_faults.is_empty()
            && self.io_short_writes.is_empty()
            && self.io_corrupts.is_empty()
            && self.io_fsync_fails.is_empty()
            && self.io_transients.is_empty()
            && self.worker_faults.is_empty()
            && self.shadow_pressure.is_empty()
    }

    /// Should a panic fire for iteration `iter` on processor `proc`?
    /// Disarms the site (one-shot).
    #[inline]
    pub fn should_panic(&self, proc: u32, iter: usize) -> bool {
        self.panics
            .iter()
            .any(|s| s.matches(proc, iter) && s.armed.swap(false, Ordering::Relaxed))
    }

    /// Extra virtual cost to charge iteration `iter` on processor
    /// `proc` (0.0 almost always).
    #[inline]
    pub fn delay_for(&self, proc: u32, iter: usize) -> f64 {
        self.delays
            .iter()
            .filter(|(dp, di, _)| *dp == proc && *di as usize == iter)
            .map(|(_, _, c)| *c)
            .sum()
    }

    /// Should the checkpoint phase of stage ordinal `stage` fail?
    /// Disarms the site (one-shot).
    #[inline]
    pub fn should_fail_checkpoint(&self, stage: usize) -> bool {
        self.checkpoint_faults
            .iter()
            .any(|s| s.iter as usize == stage && s.armed.swap(false, Ordering::Relaxed))
    }

    /// Should the append of journal record ordinal `record` be torn?
    /// Returns the byte count to keep, disarming the site (one-shot).
    #[inline]
    pub fn io_short_write(&self, record: usize) -> Option<usize> {
        self.io_short_writes
            .iter()
            .find(|(s, _)| s.iter as usize == record && s.armed.swap(false, Ordering::Relaxed))
            .map(|(_, keep)| *keep as usize)
    }

    /// Should journal record ordinal `record` be silently corrupted on
    /// append? Disarms the site (one-shot).
    #[inline]
    pub fn io_corrupt(&self, record: usize) -> bool {
        self.io_corrupts
            .iter()
            .any(|s| s.iter as usize == record && s.armed.swap(false, Ordering::Relaxed))
    }

    /// Should the fsync after journal record ordinal `record` fail?
    /// Disarms the site (one-shot).
    #[inline]
    pub fn io_fsync_fail(&self, record: usize) -> bool {
        self.io_fsync_fails
            .iter()
            .any(|s| s.iter as usize == record && s.armed.swap(false, Ordering::Relaxed))
    }

    /// Should this write attempt of journal record ordinal `record`
    /// fail with a transient errno? Decrements the site's remaining
    /// count (counted, not one-shot).
    #[inline]
    pub fn io_transient(&self, record: usize) -> bool {
        self.io_transients.iter().any(|(s, remaining)| {
            s.iter as usize == record
                && remaining
                    .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                    .is_ok()
        })
    }

    /// The worker fault directive (if any) for dispatch ordinal
    /// `dispatch`. Disarms the site (one-shot), so a re-dispatch of the
    /// same block after recovery runs clean.
    #[inline]
    pub fn worker_fault(&self, dispatch: usize) -> Option<WorkerFault> {
        self.worker_faults
            .iter()
            .find(|(s, _)| s.iter as usize == dispatch && s.armed.swap(false, Ordering::Relaxed))
            .map(|(_, k)| *k)
    }

    /// Phantom shadow bytes (if any) to charge at the end of stage
    /// ordinal `stage`'s execute phase. Disarms the site (one-shot), so
    /// the stage's re-execution under the degraded configuration runs
    /// clean.
    #[inline]
    pub fn shadow_pressure(&self, stage: usize) -> Option<u64> {
        self.shadow_pressure
            .iter()
            .find(|(s, _)| s.iter as usize == stage && s.armed.swap(false, Ordering::Relaxed))
            .map(|(_, bytes)| *bytes)
    }
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        for s in &self.panics {
            parts.push(if s.proc == ANY_PROC {
                format!("panic@iter {}", s.iter)
            } else {
                format!("panic@(proc {}, iter {})", s.proc, s.iter)
            });
        }
        for (proc, iter, cost) in &self.delays {
            parts.push(format!("delay {cost}@(proc {proc}, iter {iter})"));
        }
        for s in &self.checkpoint_faults {
            parts.push(format!("checkpoint-fault@stage {}", s.iter));
        }
        for (s, keep) in &self.io_short_writes {
            parts.push(format!("short-write@record {} (keep {keep})", s.iter));
        }
        for s in &self.io_corrupts {
            parts.push(format!("corrupt@record {}", s.iter));
        }
        for s in &self.io_fsync_fails {
            parts.push(format!("fsync-fail@record {}", s.iter));
        }
        for (s, remaining) in &self.io_transients {
            parts.push(format!(
                "transient-io@record {} (×{})",
                s.iter,
                remaining.load(Ordering::Relaxed)
            ));
        }
        for (s, kind) in &self.worker_faults {
            let name = match kind {
                WorkerFault::Kill => "kill-worker",
                WorkerFault::Hang => "hang-worker",
                WorkerFault::CorruptResult => "corrupt-result",
            };
            parts.push(format!("{name}@dispatch {}", s.iter));
        }
        for (s, bytes) in &self.shadow_pressure {
            parts.push(format!("shadow-pressure@stage {} ({bytes} bytes)", s.iter));
        }
        if parts.is_empty() {
            write!(f, "no faults")
        } else {
            write!(f, "{}", parts.join(", "))
        }
    }
}

/// SplitMix64 — deterministic seed expansion with no dependencies.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_sites_are_one_shot() {
        let plan = FaultPlan::new().panic_at(2, 7);
        assert!(!plan.should_panic(2, 6));
        assert!(!plan.should_panic(1, 7));
        assert!(plan.should_panic(2, 7), "armed site fires");
        assert!(!plan.should_panic(2, 7), "fired site is disarmed");
    }

    #[test]
    fn delays_fire_every_time() {
        let plan = FaultPlan::new().delay_at(0, 3, 1.5).delay_at(0, 3, 2.0);
        assert_eq!(plan.delay_for(0, 3), 3.5);
        assert_eq!(plan.delay_for(0, 3), 3.5, "delays are not one-shot");
        assert_eq!(plan.delay_for(1, 3), 0.0);
    }

    #[test]
    fn checkpoint_faults_are_one_shot_per_stage() {
        let plan = FaultPlan::new().checkpoint_fault_at(1);
        assert!(!plan.should_fail_checkpoint(0));
        assert!(plan.should_fail_checkpoint(1));
        assert!(!plan.should_fail_checkpoint(1));
    }

    #[test]
    fn seeded_plan_is_reproducible_and_in_range() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let a = FaultPlan::seeded_panic(seed, 100);
            let b = FaultPlan::seeded_panic(seed, 100);
            let site_a = &a.panics[0];
            let site_b = &b.panics[0];
            assert_eq!((site_a.proc, site_a.iter), (site_b.proc, site_b.iter));
            assert_eq!(site_a.proc, ANY_PROC);
            assert!((site_a.iter as usize) < 100);
        }
    }

    #[test]
    fn iteration_keyed_sites_fire_on_any_processor() {
        let plan = FaultPlan::new().panic_at_iter(9);
        assert!(!plan.should_panic(5, 8));
        assert!(plan.should_panic(5, 9), "fires on whichever proc runs it");
        assert!(!plan.should_panic(0, 9), "still one-shot");
    }

    #[test]
    fn display_summarizes_sites() {
        let plan = FaultPlan::new()
            .panic_at(1, 2)
            .panic_at_iter(7)
            .delay_at(0, 3, 2.5)
            .checkpoint_fault_at(4);
        let text = plan.to_string();
        assert!(text.contains("panic@(proc 1, iter 2)"), "{text}");
        assert!(text.contains("panic@iter 7"), "{text}");
        assert!(text.contains("delay 2.5@(proc 0, iter 3)"), "{text}");
        assert!(text.contains("checkpoint-fault@stage 4"), "{text}");
        assert_eq!(FaultPlan::new().to_string(), "no faults");
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new().is_empty());
        assert!(!FaultPlan::new().panic_at(0, 0).is_empty());
        assert!(!FaultPlan::new().short_write_at(0, 4).is_empty());
        assert!(!FaultPlan::new().corrupt_record_at(0).is_empty());
        assert!(!FaultPlan::new().fsync_fail_at(0).is_empty());
    }

    #[test]
    fn io_faults_are_one_shot_and_keyed_by_record() {
        let plan = FaultPlan::new()
            .short_write_at(2, 11)
            .corrupt_record_at(3)
            .fsync_fail_at(4);
        assert_eq!(plan.io_short_write(1), None);
        assert_eq!(plan.io_short_write(2), Some(11));
        assert_eq!(plan.io_short_write(2), None, "short-write is one-shot");
        assert!(!plan.io_corrupt(2));
        assert!(plan.io_corrupt(3));
        assert!(!plan.io_corrupt(3), "corruption is one-shot");
        assert!(!plan.io_fsync_fail(3));
        assert!(plan.io_fsync_fail(4));
        assert!(!plan.io_fsync_fail(4), "fsync failure is one-shot");
    }

    #[test]
    fn io_faults_display() {
        let plan = FaultPlan::new()
            .short_write_at(1, 8)
            .corrupt_record_at(2)
            .fsync_fail_at(3);
        let text = plan.to_string();
        assert!(text.contains("short-write@record 1 (keep 8)"), "{text}");
        assert!(text.contains("corrupt@record 2"), "{text}");
        assert!(text.contains("fsync-fail@record 3"), "{text}");
    }

    #[test]
    fn transient_io_fires_a_counted_number_of_times() {
        let plan = FaultPlan::new().transient_io_at(2, 3);
        assert!(!plan.is_empty());
        assert!(!plan.io_transient(1), "wrong record never fires");
        assert!(plan.io_transient(2));
        assert!(plan.io_transient(2));
        assert!(plan.io_transient(2));
        assert!(!plan.io_transient(2), "count exhausted");
        assert!(plan.to_string().contains("transient-io@record 2"));
    }

    #[test]
    fn worker_faults_are_one_shot_and_keyed_by_dispatch() {
        let plan = FaultPlan::new()
            .kill_worker_at(0)
            .hang_worker_at(3)
            .corrupt_result_at(5);
        assert!(!plan.is_empty());
        assert_eq!(plan.worker_fault(1), None);
        assert_eq!(plan.worker_fault(0), Some(WorkerFault::Kill));
        assert_eq!(plan.worker_fault(0), None, "kill is one-shot");
        assert_eq!(plan.worker_fault(3), Some(WorkerFault::Hang));
        assert_eq!(plan.worker_fault(5), Some(WorkerFault::CorruptResult));
        let text = plan.to_string();
        assert!(text.contains("kill-worker@dispatch 0"), "{text}");
        assert!(text.contains("hang-worker@dispatch 3"), "{text}");
        assert!(text.contains("corrupt-result@dispatch 5"), "{text}");
    }

    #[test]
    fn shadow_pressure_spec_is_the_cli_grammar() {
        let plan = FaultPlan::new()
            .shadow_pressure_spec("0:64K,3:2m,7:4096")
            .unwrap();
        assert_eq!(plan.shadow_pressure(0), Some(64 << 10));
        assert_eq!(plan.shadow_pressure(3), Some(2 << 20));
        assert_eq!(plan.shadow_pressure(7), Some(4096));
        for bad in ["", "3", "x:1K", "0:0", "0:1T", "0:64K,", "0:99999999999G"] {
            let err = FaultPlan::new().shadow_pressure_spec(bad);
            assert!(err.is_err(), "'{bad}' must be refused");
        }
        assert_eq!(parse_bytes("2G"), Ok(2 << 30));
    }

    #[test]
    fn shadow_pressure_is_one_shot_and_keyed_by_stage() {
        let plan = FaultPlan::new().shadow_pressure_at(2, 1 << 20);
        assert!(!plan.is_empty());
        assert_eq!(plan.shadow_pressure(1), None);
        assert_eq!(plan.shadow_pressure(2), Some(1 << 20));
        assert_eq!(plan.shadow_pressure(2), None, "pressure site is one-shot");
        let text = plan.to_string();
        assert!(
            text.contains("shadow-pressure@stage 2 (1048576 bytes)"),
            "{text}"
        );
    }

    #[test]
    fn panic_message_understands_payload_kinds() {
        assert_eq!(
            panic_message(&InjectedFault { proc: 1, iter: 4 }),
            "injected fault at (proc 1, iteration 4)"
        );
        let s: Box<dyn std::any::Any + Send> = Box::new("boom");
        assert_eq!(panic_message(s.as_ref()), "boom");
        let s: Box<dyn std::any::Any + Send> = Box::new(String::from("sboom"));
        assert_eq!(panic_message(s.as_ref()), "sboom");
        let s: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(s.as_ref()), "panic with non-string payload");
    }
}
