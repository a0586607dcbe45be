//! The daemon's shadow-budget pool.
//!
//! A run's shadow cap is a plain number its engine holds and checks
//! (`EngineCfg::shadow_cap` in `rlrpd-core`). What needs shared state is
//! a host multiplexing many runs: [`BudgetPool`] carves one process-wide
//! byte pool into per-job grants, so the caps of the jobs running at
//! once never sum above it.

use std::sync::atomic::{AtomicU64, Ordering};

/// A process-wide pool of shadow-budget bytes, carved into per-job
/// grants by a multiplexing host (the `rlrpd serve` daemon).
///
/// The pool governs *admission*: a job is dispatched only once
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
