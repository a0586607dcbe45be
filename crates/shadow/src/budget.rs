//! The shadow-memory footprint accountant.
//!
//! Shadow structures historically sized themselves as a function of the
//! array (`n` mark bytes per processor for a dense shadow) — fine for a
//! single run, fatal for a host multiplexing many. [`ShadowBudget`]
//! turns shadow memory into a governed resource: one accountant per
//! run, shared by every engine that run creates (supervisor, worker,
//! sequential fallback), through which every representation reports its
//! allocation and growth at the engine's phase boundaries.
//!
//! The accountant is deliberately dumb: it tracks `used` and `peak`
//! bytes against an optional `cap` and answers "are we over?". *Policy*
//! — the dense→packed→sparse ladder ([`crate::select::fit_budget`]),
//! window shrinking, sequential fallback — lives with the engine and
//! driver, which consult the accountant at safe points (commit points,
//! where untested state is about to be re-executed anyway).

use std::sync::atomic::{AtomicU64, Ordering};

/// Sentinel for "no cap": `u64::MAX` bytes is unreachable by any real
/// shadow allocation.
const UNLIMITED: u64 = u64::MAX;

/// Per-run shadow-memory accountant: bytes used, peak, and an optional
/// hard cap.
///
/// Shared (via `Arc`) across the engines of one run and across threads;
/// all counters are atomic. Charges are advisory — nothing fails at
/// charge time; the engine checks [`ShadowBudget::over`] at its safe
/// points and degrades representations there.
#[derive(Debug)]
pub struct ShadowBudget {
    cap: u64,
    used: AtomicU64,
    peak: AtomicU64,
}

impl Default for ShadowBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl ShadowBudget {
    /// An accountant that tracks usage but never reports pressure.
    pub fn unlimited() -> Self {
        ShadowBudget {
            cap: UNLIMITED,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// An accountant with a hard cap of `bytes`.
    pub fn limited(bytes: u64) -> Self {
        ShadowBudget {
            cap: bytes.min(UNLIMITED - 1),
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// `limited(b)` when `bytes` is `Some(b)`, else `unlimited()`.
    pub fn new(bytes: Option<u64>) -> Self {
        match bytes {
            Some(b) => Self::limited(b),
            None => Self::unlimited(),
        }
    }

    /// The cap, or `None` when unlimited.
    pub fn cap(&self) -> Option<u64> {
        (self.cap != UNLIMITED).then_some(self.cap)
    }

    /// Report `bytes` of new shadow allocation or growth. Saturates at
    /// `u64::MAX`: a charge never wraps.
    pub fn charge(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let grow = |used: u64| Some(used.saturating_add(bytes));
        let was = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, grow)
            .unwrap_or_else(|was| was);
        self.peak
            .fetch_max(was.saturating_add(bytes), Ordering::Relaxed);
    }

    /// A transient spike of `bytes` on top of current usage (an
    /// injected phantom allocation): it shows in the peak, `used` stays
    /// where it was. Returns whether the spike exceeds the cap — any
    /// size does under a cap, none does unlimited.
    pub fn spike(&self, bytes: u64) -> bool {
        let now = self.used().saturating_add(bytes);
        self.peak.fetch_max(now, Ordering::Relaxed);
        now > self.cap
    }

    /// Report `bytes` of shadow memory returned (shrunk or freed).
    /// Saturates at zero: releases racing with charges must never wrap.
    pub fn release(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Bytes currently accounted.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of accounted bytes.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Whether current usage exceeds the cap (always `false` when
    /// unlimited).
    pub fn over(&self) -> bool {
        self.used() > self.cap
    }
}

/// A process-wide pool of shadow-budget bytes, carved into per-job
/// grants by a multiplexing host (the `rlrpd serve` daemon).
///
/// Where [`ShadowBudget`] governs one run's *usage*, `BudgetPool`
/// governs *admission*: a job is dispatched only once
/// [`BudgetPool::try_carve`] hands it a [`BudgetLease`], and the
/// invariant `Σ granted ≤ total` holds at every instant — the grant is
/// a single atomic compare-exchange, and the lease returns its bytes
/// on drop (even when the job panics).
#[derive(Debug)]
pub struct BudgetPool {
    total: u64,
    granted: AtomicU64,
    granted_peak: AtomicU64,
}

impl BudgetPool {
    /// A pool of `total` bytes.
    pub fn new(total: u64) -> Self {
        BudgetPool {
            total,
            granted: AtomicU64::new(0),
            granted_peak: AtomicU64::new(0),
        }
    }

    /// The pool's size in bytes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bytes currently out on leases.
    pub fn granted(&self) -> u64 {
        self.granted.load(Ordering::Relaxed)
    }

    /// High-water mark of concurrently granted bytes — the soak tests'
    /// witness that concurrent grants never summed above the pool.
    pub fn granted_peak(&self) -> u64 {
        self.granted_peak.load(Ordering::Relaxed)
    }

    /// Bytes available for the next grant.
    pub fn available(&self) -> u64 {
        self.total.saturating_sub(self.granted())
    }

    /// Would a request for `bytes` *ever* fit, even on an idle pool?
    /// `false` means the request must be rejected, not queued.
    pub fn can_ever_fit(&self, bytes: u64) -> bool {
        bytes <= self.total
    }

    /// Carve `bytes` out of the pool, or `None` if they are not
    /// available right now (queue and retry after a release). The
    /// returned lease gives the bytes back when dropped.
    pub fn try_carve(self: &std::sync::Arc<Self>, bytes: u64) -> Option<BudgetLease> {
        let mut cur = self.granted.load(Ordering::Relaxed);
        loop {
            let next = cur.checked_add(bytes).filter(|&n| n <= self.total)?;
            match self.granted.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.granted_peak.fetch_max(next, Ordering::Relaxed);
                    return Some(BudgetLease {
                        pool: std::sync::Arc::clone(self),
                        bytes,
                    });
                }
                Err(actual) => cur = actual,
            }
        }
    }
}

/// A per-job grant carved from a [`BudgetPool`]; the bytes return to
/// the pool when the lease drops.
#[derive(Debug)]
pub struct BudgetLease {
    pool: std::sync::Arc<BudgetPool>,
    bytes: u64,
}

impl BudgetLease {
    /// Bytes this lease holds.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        let mut cur = self.pool.granted.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(self.bytes);
            match self.pool.granted.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn unlimited_never_reports_pressure() {
        let b = ShadowBudget::unlimited();
        b.charge(u64::MAX / 2);
        assert!(!b.over());
        assert_eq!(b.cap(), None);
        assert_eq!(b.peak(), u64::MAX / 2);
    }

    #[test]
    fn cap_trips_over_and_peak_is_sticky() {
        let b = ShadowBudget::limited(100);
        b.charge(60);
        assert!(!b.over());
        b.charge(60);
        assert!(b.over());
        assert_eq!(b.used(), 120);
        b.release(80);
        assert!(!b.over());
        assert_eq!(b.used(), 40);
        assert_eq!(b.peak(), 120, "peak survives releases");
    }

    #[test]
    fn release_saturates_at_zero() {
        let b = ShadowBudget::limited(10);
        b.charge(5);
        b.release(1_000);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn new_maps_option_to_cap() {
        assert_eq!(ShadowBudget::new(Some(64)).cap(), Some(64));
        assert_eq!(ShadowBudget::new(None).cap(), None);
    }

    #[test]
    fn a_charge_saturates_instead_of_overflowing() {
        let b = ShadowBudget::limited(100);
        b.charge(10);
        b.charge(u64::MAX);
        assert_eq!(b.used(), u64::MAX);
        assert_eq!(b.peak(), u64::MAX);
        assert!(b.over());
    }

    #[test]
    fn a_spike_of_any_size_trips_the_cap_and_leaves_usage_alone() {
        let b = ShadowBudget::limited(100);
        b.charge(10);
        for bytes in [91, u64::MAX - 10, u64::MAX] {
            assert!(b.spike(bytes), "{bytes}");
            assert_eq!(b.used(), 10, "{bytes}");
        }
        assert!(!b.spike(90), "exactly at the cap is not over");
        assert_eq!(b.peak(), u64::MAX, "the spike shows in the peak");
        assert!(!ShadowBudget::unlimited().spike(u64::MAX));
    }

    #[test]
    fn pool_grants_never_sum_above_total() {
        let pool = Arc::new(BudgetPool::new(100));
        let a = pool.try_carve(60).expect("60 fits");
        assert_eq!(pool.granted(), 60);
        assert!(pool.try_carve(50).is_none(), "110 > 100");
        let b = pool.try_carve(40).expect("exactly fills");
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.granted(), 40);
        drop(b);
        assert_eq!(pool.granted(), 0);
        assert_eq!(pool.granted_peak(), 100);
    }

    #[test]
    fn pool_rejects_what_can_never_fit() {
        let pool = Arc::new(BudgetPool::new(10));
        assert!(!pool.can_ever_fit(11));
        assert!(pool.can_ever_fit(10));
        assert!(pool.try_carve(11).is_none());
    }

    #[test]
    fn concurrent_carves_respect_the_pool() {
        let pool = Arc::new(BudgetPool::new(1_000));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let pool = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    if let Some(lease) = pool.try_carve(300) {
                        assert!(pool.granted() <= 1_000);
                        drop(lease);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.granted(), 0, "every lease returned");
        assert!(pool.granted_peak() <= 1_000, "peak bounded by pool");
    }
}
