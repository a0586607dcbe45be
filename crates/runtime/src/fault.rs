//! Deterministic fault injection for speculative stages.
//!
//! The R-LRPD containment story is only trustworthy if every recovery
//! path — contained panic, watchdog-tripping straggler, failed
//! checkpoint, torn journal, lost worker — is exercised by
//! deterministic tests. A [`FaultPlan`] is **one table** of sites, each
//! saying what to inject, at which ordinal of which [`FaultDomain`],
//! and how many times:
//!
//! * at an **iteration** (on one processor, or on whichever runs it): a
//!   *panic* — the engine raises an [`InjectedFault`] unwind just
//!   before the body runs, exercising the catch/contain/re-execute
//!   machinery a genuine program fault would — or a *delay*, extra
//!   virtual cost that inflates the stage's critical path so the
//!   driver's watchdog budget trips deterministically;
//! * at a **stage**: a *checkpoint fault* (the checkpoint phase fails
//!   before any speculative write) or *shadow pressure* (phantom bytes
//!   added to the engine's shadow footprint);
//! * at a **journal record**: a *short write* (the append is torn and
//!   the run aborts, a crash mid-append), a *silent corruption* (the
//!   next open must detect and truncate it), an *fsync failure*,
//!   *transient* write errors the journal's bounded retry absorbs, or a
//!   *slow fsync* (the device stalls before the record's sync — the run
//!   must neither wait for it stage by stage nor outrun it unboundedly);
//! * at a **dispatch** to a worker fleet: the worker is *killed*,
//!   *hangs*, or returns a *corrupt result* ([`WorkerFault`]).
//!
//! One rule fires them all (`FaultPlan::fire`): a site fires at its
//! ordinal while it has shots left, and spends one. Most sites are
//! **one-shot**, modelling transient faults so the containment layer's
//! retry actually succeeds; transient I/O errors are *counted*; delays
//! are *persistent* (a slow iteration is slow every time it runs).
//!
//! A plan is injected through `EngineCfg`; engines without a plan pay
//! only a single well-predicted branch per iteration (the no-fault fast
//! path). Because sites are keyed by *schedule-determined* ordinals,
//! not by thread timing, injection is deterministic across the
//! simulated and pooled executors.

use std::sync::atomic::{AtomicU32, Ordering};

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

/// What a fault site's ordinal counts, and so which part of a run
/// visits it. A run that never visits a domain asks [`FaultPlan::arms`]
/// and refuses a plan armed there, instead of silently never firing it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDomain {
    /// A loop iteration, executed by a speculative block.
    Iteration,
    /// A stage ordinal (0-based, counted over the engine's lifetime).
    Stage,
    /// A journal-record ordinal (0-based over the journal's lifetime,
    /// header included).
    Record,
    /// A dispatch ordinal: the 0-based count of block transmissions to
    /// a worker fleet over the run, re-dispatches included.
    Dispatch,
}

/// A worker-subprocess fault directive, delivered in the block request
/// frame of its dispatch ordinal.
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

/// What a site injects (each is documented on its builder).
#[derive(Clone, Copy, Debug, PartialEq)]
enum FaultKind {
    Panic,
    Delay(f64),
    CheckpointFault,
    ShortWrite(usize),
    Corrupt,
    FsyncFail,
    TransientIo,
    SlowFsync(u64),
    Worker(WorkerFault),
    ShadowPressure(u64),
}

impl FaultKind {
    fn domain(self) -> FaultDomain {
        match self {
            FaultKind::Panic | FaultKind::Delay(_) => FaultDomain::Iteration,
            FaultKind::CheckpointFault | FaultKind::ShadowPressure(_) => FaultDomain::Stage,
            FaultKind::ShortWrite(_)
            | FaultKind::Corrupt
            | FaultKind::FsyncFail
            | FaultKind::TransientIo
            | FaultKind::SlowFsync(_) => FaultDomain::Record,
            FaultKind::Worker(_) => FaultDomain::Dispatch,
        }
    }
}

/// The `pick` of [`FaultPlan::fire`] for one kind: its payload.
macro_rules! pick {
    ($kind:pat => $payload:expr) => {
        |k| match k {
            $kind => Some($payload),
            _ => None,
        }
    };
}

/// [`Site::shots`] of a persistent site: it fires and is never spent.
const PERSISTENT: u32 = u32::MAX;

/// One row of the fault table.
#[derive(Debug)]
struct Site {
    kind: FaultKind,
    /// Where the site fires, counted in the kind's domain.
    ordinal: u32,
    /// The one processor an iteration site fires on; `None` is
    /// whichever processor executes the iteration (each stage's blocks
    /// partition the iteration space, so exactly one does).
    proc: Option<u32>,
    /// Firings left: 1 for a one-shot site, `times` for a counted one,
    /// [`PERSISTENT`] for one that fires on every visit.
    shots: AtomicU32,
}

/// A deterministic, seedable description of faults to inject into a
/// speculative run. See the module docs for the fault vocabulary.
///
/// Plans hold interior one-shot state; build a **fresh plan per run**
/// when comparing runs (e.g. cross-executor equivalence tests).
#[derive(Debug, Default)]
pub struct FaultPlan {
    sites: Vec<Site>,
}

impl FaultPlan {
    /// An empty plan (injects nothing; useful for measuring the cost of
    /// the injection checks themselves).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    fn site(mut self, kind: FaultKind, ordinal: usize, proc: Option<usize>, shots: u32) -> Self {
        self.sites.push(Site {
            kind,
            ordinal: ordinal as u32,
            proc: proc.map(|p| p as u32),
            shots: AtomicU32::new(shots),
        });
        self
    }

    /// Add a one-shot panic at `(proc, iter)`.
    pub fn panic_at(self, proc: usize, iter: usize) -> Self {
        self.site(FaultKind::Panic, iter, Some(proc), 1)
    }

    /// Add a one-shot panic at iteration `iter` on whichever processor
    /// executes it (exact-`(proc, iter)` sites only fire when the
    /// schedule happens to place the iteration on that processor; an
    /// iteration-keyed site always fires).
    pub fn panic_at_iter(self, iter: usize) -> Self {
        self.site(FaultKind::Panic, iter, None, 1)
    }

    /// Add `cost` virtual time units of delay to every execution of
    /// iteration `iter` on processor `proc` (persistent).
    pub fn delay_at(self, proc: usize, iter: usize, cost: f64) -> Self {
        self.site(FaultKind::Delay(cost), iter, Some(proc), PERSISTENT)
    }

    /// Fail the checkpoint phase of stage ordinal `stage`, one-shot. It
    /// fires before the stage touches any state, so the driver recovers
    /// by running the remainder sequentially from the commit point.
    pub fn checkpoint_fault_at(self, stage: usize) -> Self {
        self.site(FaultKind::CheckpointFault, stage, None, 1)
    }

    /// Tear the append of journal record ordinal `record` after `keep`
    /// bytes, one-shot. The append reports an I/O error after writing
    /// the prefix, modelling a crash mid-write: the next open must
    /// truncate the torn tail.
    pub fn short_write_at(self, record: usize, keep: usize) -> Self {
        self.site(FaultKind::ShortWrite(keep), record, None, 1)
    }

    /// Silently flip one byte of journal record ordinal `record` as it
    /// lands on disk, one-shot. The append *succeeds* — the corruption
    /// is only detectable by the checksum/chain validation on the next
    /// open, which must truncate the record.
    pub fn corrupt_record_at(self, record: usize) -> Self {
        self.site(FaultKind::Corrupt, record, None, 1)
    }

    /// Fail the fsync durability barrier after journal record ordinal
    /// `record` is written, one-shot.
    pub fn fsync_fail_at(self, record: usize) -> Self {
        self.site(FaultKind::FsyncFail, record, None, 1)
    }

    /// Fail the first `times` write attempts of journal record ordinal
    /// `record` with a transient errno (EINTR). A *counted* site: it
    /// fires `times` times, then the write goes through — exercising
    /// the journal's bounded retry.
    pub fn transient_io_at(self, record: usize, times: u32) -> Self {
        self.site(FaultKind::TransientIo, record, None, times)
    }

    /// Stall the journal's writer for `millis` milliseconds between the
    /// write of journal record ordinal `record` and its sync, one-shot:
    /// a slow device. Nothing fails; the run may get ahead of the
    /// durable frontier by no more than its bound while it lasts.
    pub fn slow_fsync_at(self, record: usize, millis: u64) -> Self {
        self.site(FaultKind::SlowFsync(millis), record, None, 1)
    }

    /// Kill the worker that receives dispatch ordinal `dispatch`,
    /// one-shot — so the re-dispatch after recovery runs clean.
    pub fn kill_worker_at(self, dispatch: usize) -> Self {
        self.site(FaultKind::Worker(WorkerFault::Kill), dispatch, None, 1)
    }

    /// Hang the worker that receives dispatch ordinal `dispatch` — its
    /// heartbeats continue but the block never completes — one-shot.
    pub fn hang_worker_at(self, dispatch: usize) -> Self {
        self.site(FaultKind::Worker(WorkerFault::Hang), dispatch, None, 1)
    }

    /// Make the worker that receives dispatch ordinal `dispatch` return
    /// a result with a corrupted input-chain hash, one-shot.
    pub fn corrupt_result_at(self, dispatch: usize) -> Self {
        let kind = FaultKind::Worker(WorkerFault::CorruptResult);
        self.site(kind, dispatch, None, 1)
    }

    /// Add `bytes` of phantom shadow growth to the engine's footprint
    /// at the end of stage ordinal `stage`'s execute phase (for the
    /// pressure check only), one-shot — so the stage's re-execution
    /// under the degraded configuration runs clean.
    /// Exercises the budget-pressure containment path (down-tier ladder,
    /// window shrink, sequential fallback) deterministically; a run with
    /// no budget cap armed records the charge in the peak but never
    /// trips pressure.
    pub fn shadow_pressure_at(self, stage: usize, bytes: u64) -> Self {
        self.site(FaultKind::ShadowPressure(bytes), stage, None, 1)
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
        let iter = (s.next_u64() % n.max(1) as u64) as usize;
        FaultPlan::new().panic_at_iter(iter)
    }

    /// The plan a run's options arm on a loop of `n` iterations: a
    /// [`seeded_panic`](Self::seeded_panic) for `seed`, then the
    /// [`shadow_pressure_spec`](Self::shadow_pressure_spec) injections
    /// for `shadow_fault`; `None` when neither is given. The CLI's
    /// `--fault-seed` / `--shadow-fault` and a daemon job's fields both
    /// build their plan here.
    pub fn from_options(
        seed: Option<u64>,
        shadow_fault: Option<&str>,
        n: usize,
    ) -> Result<Option<Self>, String> {
        let plan = seed.map_or_else(FaultPlan::new, |seed| FaultPlan::seeded_panic(seed, n));
        match shadow_fault {
            Some(spec) => plan.shadow_pressure_spec(spec).map(Some),
            None => Ok(seed.is_some().then_some(plan)),
        }
    }

    /// True when the plan has no sites at all (checks can be skipped).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Does the plan hold a site of `domain`, fired or not?
    pub fn arms(&self, domain: FaultDomain) -> bool {
        self.sites.iter().any(|s| s.kind.domain() == domain)
    }

    /// **The firing rule**, which every query below calls: a site fires
    /// at its ordinal (on its processor, if it names one) while it has
    /// shots left, and spends one. `pick` names the kind the caller
    /// injects — a kind fixes its domain, so `ordinal` counts what the
    /// caller counts — and what a firing hands back. Sites are tried in
    /// the order they were added, lazily: a caller that takes the first
    /// firing spends no later site.
    fn fire<'a, R: 'a>(
        &'a self,
        ordinal: usize,
        proc: u32,
        pick: impl Fn(FaultKind) -> Option<R> + 'a,
    ) -> impl Iterator<Item = R> + 'a {
        let spend = |shots| match shots {
            0 => None,
            PERSISTENT => Some(PERSISTENT),
            n => Some(n - 1),
        };
        let relaxed = Ordering::Relaxed;
        self.sites.iter().filter_map(move |s| {
            let hit = pick(s.kind)?;
            let here = s.ordinal as usize == ordinal && s.proc.is_none_or(|p| p == proc);
            (here && s.shots.fetch_update(relaxed, relaxed, spend).is_ok()).then_some(hit)
        })
    }

    /// Does a `kind` site fire at `(ordinal, proc)`?
    fn fires(&self, kind: FaultKind, ordinal: usize, proc: u32) -> bool {
        let mut firing = self.fire(ordinal, proc, |k| (k == kind).then_some(()));
        firing.next().is_some()
    }

    /// Does a panic fire for iteration `iter` on processor `proc`?
    #[inline]
    pub fn should_panic(&self, proc: u32, iter: usize) -> bool {
        self.fires(FaultKind::Panic, iter, proc)
    }

    /// Extra virtual cost to charge iteration `iter` on processor
    /// `proc` (0.0 almost always).
    #[inline]
    pub fn delay_for(&self, proc: u32, iter: usize) -> f64 {
        self.fire(iter, proc, pick!(FaultKind::Delay(cost) => cost))
            .sum()
    }

    /// Does the checkpoint phase of stage ordinal `stage` fail?
    #[inline]
    pub fn should_fail_checkpoint(&self, stage: usize) -> bool {
        self.fires(FaultKind::CheckpointFault, stage, 0)
    }

    /// The byte count to keep, if the append of journal record ordinal
    /// `record` is torn.
    #[inline]
    pub fn io_short_write(&self, record: usize) -> Option<usize> {
        self.fire(record, 0, pick!(FaultKind::ShortWrite(keep) => keep))
            .next()
    }

    /// Is journal record ordinal `record` silently corrupted on append?
    #[inline]
    pub fn io_corrupt(&self, record: usize) -> bool {
        self.fires(FaultKind::Corrupt, record, 0)
    }

    /// Does the fsync after journal record ordinal `record` fail?
    #[inline]
    pub fn io_fsync_fail(&self, record: usize) -> bool {
        self.fires(FaultKind::FsyncFail, record, 0)
    }

    /// Does this write attempt of journal record ordinal `record` fail
    /// with a transient errno?
    #[inline]
    pub fn io_transient(&self, record: usize) -> bool {
        self.fires(FaultKind::TransientIo, record, 0)
    }

    /// How long the sync of journal record ordinal `record` stalls
    /// before it starts, if it does.
    #[inline]
    pub fn io_slow_fsync(&self, record: usize) -> Option<std::time::Duration> {
        self.fire(record, 0, pick!(FaultKind::SlowFsync(millis) => millis))
            .next()
            .map(std::time::Duration::from_millis)
    }

    /// The worker fault directive (if any) for dispatch ordinal
    /// `dispatch`.
    #[inline]
    pub fn worker_fault(&self, dispatch: usize) -> Option<WorkerFault> {
        self.fire(dispatch, 0, pick!(FaultKind::Worker(w) => w))
            .next()
    }

    /// Phantom shadow bytes (if any) to charge at the end of stage
    /// ordinal `stage`'s execute phase.
    #[inline]
    pub fn shadow_pressure(&self, stage: usize) -> Option<u64> {
        self.fire(stage, 0, pick!(FaultKind::ShadowPressure(bytes) => bytes))
            .next()
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (at, proc) = (self.ordinal, self.proc);
        match self.kind {
            FaultKind::Panic => match proc {
                Some(proc) => write!(f, "panic@(proc {proc}, iter {at})"),
                None => write!(f, "panic@iter {at}"),
            },
            FaultKind::Delay(cost) => {
                write!(f, "delay {cost}@(proc {}, iter {at})", proc.unwrap_or(0))
            }
            FaultKind::CheckpointFault => write!(f, "checkpoint-fault@stage {at}"),
            FaultKind::ShortWrite(keep) => write!(f, "short-write@record {at} (keep {keep})"),
            FaultKind::Corrupt => write!(f, "corrupt@record {at}"),
            FaultKind::FsyncFail => write!(f, "fsync-fail@record {at}"),
            FaultKind::TransientIo => {
                let left = self.shots.load(Ordering::Relaxed);
                write!(f, "transient-io@record {at} (×{left})")
            }
            FaultKind::SlowFsync(millis) => write!(f, "slow-fsync@record {at} ({millis} ms)"),
            FaultKind::Worker(WorkerFault::Kill) => write!(f, "kill-worker@dispatch {at}"),
            FaultKind::Worker(WorkerFault::Hang) => write!(f, "hang-worker@dispatch {at}"),
            FaultKind::Worker(WorkerFault::CorruptResult) => {
                write!(f, "corrupt-result@dispatch {at}")
            }
            FaultKind::ShadowPressure(bytes) => {
                write!(f, "shadow-pressure@stage {at} ({bytes} bytes)")
            }
        }
    }
}

/// The sites in the order they were added.
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.sites.is_empty() {
            return write!(f, "no faults");
        }
        let sites: Vec<String> = self.sites.iter().map(Site::to_string).collect();
        write!(f, "{}", sites.join(", "))
    }
}

/// SplitMix64 — deterministic seed expansion with no dependencies: the
/// one generator behind seeded fault plans, seeded chaos plans and the
/// fleet's connect jitter, so a seed names the same run everywhere.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// The next value of the sequence.
    pub fn next_u64(&mut self) -> u64 {
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

    const DOMAINS: [FaultDomain; 4] = [
        FaultDomain::Iteration,
        FaultDomain::Stage,
        FaultDomain::Record,
        FaultDomain::Dispatch,
    ];

    /// How many sites fire when `domain`'s queries visit `ordinal` (the
    /// iteration queries as processor 1).
    fn firings(plan: &FaultPlan, domain: FaultDomain, ordinal: usize) -> usize {
        let fired: &[bool] = match domain {
            FaultDomain::Iteration => &[
                plan.should_panic(1, ordinal),
                plan.delay_for(1, ordinal) != 0.0,
            ],
            FaultDomain::Stage => &[
                plan.should_fail_checkpoint(ordinal),
                plan.shadow_pressure(ordinal).is_some(),
            ],
            FaultDomain::Record => &[
                plan.io_short_write(ordinal).is_some(),
                plan.io_corrupt(ordinal),
                plan.io_fsync_fail(ordinal),
                plan.io_transient(ordinal),
                plan.io_slow_fsync(ordinal).is_some(),
            ],
            FaultDomain::Dispatch => &[plan.worker_fault(ordinal).is_some()],
        };
        fired.iter().filter(|&&f| f).count()
    }

    /// The table is held to its own rule, kind by kind: a site fires at
    /// its ordinal exactly `shots` times, never at another ordinal or in
    /// another domain; `arms` names exactly its domain; and `Display`
    /// prints it as `rlrpd run`'s `fault injection:` lines always have.
    #[test]
    fn every_kind_fires_at_its_site_exactly_shots_times() {
        use FaultDomain::*;
        type Build = fn(FaultPlan) -> FaultPlan;
        let kinds: [(Build, FaultDomain, u32, &str); 13] = [
            (|p| p.panic_at(1, 5), Iteration, 1, "panic@(proc 1, iter 5)"),
            (|p| p.panic_at_iter(5), Iteration, 1, "panic@iter 5"),
            (
                |p| p.delay_at(1, 5, 2.5),
                Iteration,
                PERSISTENT,
                "delay 2.5@(proc 1, iter 5)",
            ),
            (
                |p| p.checkpoint_fault_at(5),
                Stage,
                1,
                "checkpoint-fault@stage 5",
            ),
            (
                |p| p.shadow_pressure_at(5, 65536),
                Stage,
                1,
                "shadow-pressure@stage 5 (65536 bytes)",
            ),
            (
                |p| p.short_write_at(5, 8),
                Record,
                1,
                "short-write@record 5 (keep 8)",
            ),
            (|p| p.corrupt_record_at(5), Record, 1, "corrupt@record 5"),
            (|p| p.fsync_fail_at(5), Record, 1, "fsync-fail@record 5"),
            (
                |p| p.transient_io_at(5, 3),
                Record,
                3,
                "transient-io@record 5 (×3)",
            ),
            (
                |p| p.slow_fsync_at(5, 40),
                Record,
                1,
                "slow-fsync@record 5 (40 ms)",
            ),
            (
                |p| p.kill_worker_at(5),
                Dispatch,
                1,
                "kill-worker@dispatch 5",
            ),
            (
                |p| p.hang_worker_at(5),
                Dispatch,
                1,
                "hang-worker@dispatch 5",
            ),
            (
                |p| p.corrupt_result_at(5),
                Dispatch,
                1,
                "corrupt-result@dispatch 5",
            ),
        ];
        for (build, domain, shots, shown) in kinds {
            let plan = build(FaultPlan::new());
            assert_eq!(plan.to_string(), shown);
            assert!(!plan.is_empty(), "{shown}");
            for d in DOMAINS {
                assert_eq!(plan.arms(d), d == domain, "{shown}: arms({d:?})");
                for at in [0, 4, 6] {
                    assert_eq!(firings(&plan, d, at), 0, "{shown}: fired at {d:?} {at}");
                }
                if d != domain {
                    assert_eq!(firings(&plan, d, 5), 0, "{shown}: fired in {d:?}");
                }
            }
            // A persistent site is still firing long after a counted
            // one would have been spent.
            for shot in 0..shots.min(10) {
                assert_eq!(firings(&plan, domain, 5), 1, "{shown}: shot {shot}");
            }
            let spent = (shots != PERSISTENT) as usize;
            assert_eq!(firings(&plan, domain, 5), 1 - spent, "{shown}: after");
        }
        // An exact-processor site never fires on another processor.
        let plan = FaultPlan::new().panic_at(2, 5).delay_at(2, 5, 1.0);
        assert_eq!(firings(&plan, Iteration, 5), 0);
        // A whole plan prints its sites in the order they were added.
        let plan = FaultPlan::seeded_panic(3, 100).shadow_pressure_at(0, 65536);
        let shown = plan.to_string();
        assert!(shown.starts_with("panic@iter "), "{shown}");
        assert!(
            shown.ends_with(", shadow-pressure@stage 0 (65536 bytes)"),
            "{shown}"
        );
    }

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
            let (site_a, site_b) = (&a.sites[0], &b.sites[0]);
            assert_eq!(site_a.kind, FaultKind::Panic);
            assert_eq!((site_a.proc, site_a.ordinal), (site_b.proc, site_b.ordinal));
            assert_eq!(site_a.proc, None, "fires on whichever processor runs it");
            assert!((site_a.ordinal as usize) < 100);
        }
    }

    /// The generator is SplitMix64 exactly: a seed printed by one
    /// binary names the same fault, chaos plan and jitter in another.
    #[test]
    fn splitmix_is_pinned_at_seed_zero() {
        let mut s = SplitMix(0);
        let first: Vec<u64> = (0..3).map(|_| s.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
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
    fn from_options_arms_the_seeded_panic_then_the_spec() {
        assert!(FaultPlan::from_options(None, None, 100).unwrap().is_none());
        let seeded = FaultPlan::from_options(Some(3), None, 100)
            .unwrap()
            .unwrap();
        assert_eq!(
            seeded.to_string(),
            FaultPlan::seeded_panic(3, 100).to_string()
        );
        let both = FaultPlan::from_options(Some(3), Some("0:64K"), 100)
            .unwrap()
            .unwrap();
        let want = FaultPlan::seeded_panic(3, 100).shadow_pressure_at(0, 64 << 10);
        assert_eq!(both.to_string(), want.to_string());
        let spec = FaultPlan::from_options(None, Some("0:64K"), 100).unwrap();
        assert_eq!(spec.unwrap().shadow_pressure(0), Some(64 << 10));
        assert!(FaultPlan::from_options(Some(3), Some(""), 100).is_err());
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
