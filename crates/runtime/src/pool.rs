//! A persistent fork-join pool, reused by every stage and restart. A
//! job's `0..n` is cut into `min(n, threads)` contiguous chunks, one
//! per *slot*: an atomic state word, free → claimed → done. DESIGN §4.6
//! states the protocol and why it is live and sound.

use crate::fault::panic_message;
use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{JoinHandle, Thread};

/// A raw pointer shared by tasks that each derive a disjoint element.
pub struct SendPtr<T>(*mut T);

// SAFETY: no access by itself; each dereference site justifies its own.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap a base pointer for cross-thread indexed access.
    pub fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    /// The wrapped base pointer.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

/// A contained task panic: the lowest task index that panicked.
pub struct JobPanic {
    /// The lowest task index that panicked.
    pub index: usize,
    /// The panic payload of that task.
    pub payload: Box<dyn Any + Send>,
}

impl JobPanic {
    /// The payload rendered as a human-readable message.
    pub fn message(&self) -> String {
        panic_message(self.payload.as_ref())
    }
}

impl std::fmt::Debug for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JobPanic(index={}, {})", self.index, self.message())
    }
}

/// Slot states; `DONE` is also the state between jobs.
const DONE: u8 = 0;
const FREE: u8 = 1;
const CLAIMED: u8 = 2;

type SlotFn<'a> = dyn Fn(usize) -> Option<JobPanic> + Sync + 'a;

/// One cache line each: different threads write different slots.
#[derive(Default)]
#[repr(align(64))]
struct Slot {
    state: AtomicU8,
    panic: UnsafeCell<Option<JobPanic>>,
}

#[derive(Default)]
struct Shared {
    /// The running job and its submitter.
    job: UnsafeCell<Option<(&'static SlotFn<'static>, Thread)>>,
    slots: Box<[Slot]>,
    /// Submitters take turns.
    turn: Mutex<()>,
    shutdown: AtomicBool,
}

// SAFETY: the cells are the only fields that are not `Sync`. `job` is
// written only while every slot is `DONE` and read only by a slot's
// claimant. A slot's `panic` (its payload is `Send`) is moved in by the
// claimant before the `DONE` store and out by the submitter after it
// loads `DONE`.
unsafe impl Sync for Shared {}

impl Shared {
    /// Claim slot `own` if it is free, otherwise any free slot.
    fn claim(&self, own: usize) -> Option<usize> {
        let take = |k: &usize| {
            let s = &self.slots[*k].state;
            (s.compare_exchange(FREE, CLAIMED, Ordering::Acquire, Ordering::Relaxed)).is_ok()
        };
        (own..self.slots.len()).chain(1..own).find(take)
    }

    /// Run slot `s`, claimed by the caller, and mark it done. Returns
    /// the submitter when no slot is left undone.
    fn run_slot(&self, s: usize) -> Option<Thread> {
        // SAFETY: the caller holds slot `s`: until the `DONE` store the job
        // stays as published, and no other thread touches the slot's panic.
        let submitter = unsafe {
            let (run, submitter) = (*self.job.get()).clone().expect("a claimed job");
            *self.slots[s].panic.get() = run(s);
            submitter
        };
        // `SeqCst` here and in `all_done`: of two threads finishing at
        // once, at least one sees both slots done.
        self.slots[s].state.store(DONE, Ordering::SeqCst);
        self.all_done().then_some(submitter)
    }

    fn all_done(&self) -> bool {
        let done = |s: &Slot| s.state.load(Ordering::SeqCst) == DONE;
        self.slots.iter().all(done)
    }

    /// Helper `me`: run slots while any is free, else park.
    fn help(&self, me: usize) {
        while !self.shutdown.load(Ordering::Acquire) {
            while let Some(s) = self.claim(me) {
                if let Some(submitter) = self.run_slot(s) {
                    submitter.unpark();
                }
            }
            std::thread::park();
        }
    }
}

/// A persistent pool executing parallel-fors `threads` wide: the
/// submitting thread plus `threads − 1` helpers. Prefer
/// [`WorkerPool::shared`], so restarts and independent engines share it.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// `handles[k − 1]` is helper `k`.
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool(threads={})", self.threads())
    }
}

impl WorkerPool {
    /// A pool `threads` wide (clamped to at least one). It spawns
    /// `threads − 1` helpers, so a width-1 pool spawns none.
    pub fn new(threads: usize) -> Self {
        let slots = (0..threads.max(1)).map(|_| Slot::default()).collect();
        let shared = Arc::new(Shared {
            slots,
            ..Shared::default()
        });
        let spawn = |k: usize| {
            let sh = Arc::clone(&shared);
            let helper = std::thread::Builder::new().name(format!("rlrpd-pool-{k}"));
            helper.spawn(move || sh.help(k)).expect("spawn pool helper")
        };
        let handles = (1..threads).map(spawn).collect();
        WorkerPool { shared, handles }
    }

    /// The process-wide pool of this width, created on first use.
    pub fn shared(threads: usize) -> Arc<WorkerPool> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let pools = POOLS.get_or_init(Mutex::default).lock();
        let mut pools = pools.expect("pool registry lock poisoned");
        let pool = pools.entry(threads.max(1));
        Arc::clone(pool.or_insert_with(|| Arc::new(WorkerPool::new(threads))))
    }

    /// How many threads work on one job, the submitter included.
    pub fn threads(&self) -> usize {
        self.shared.slots.len()
    }

    /// Run `f(i)` for every `i in 0..n` and block until all calls
    /// finish. The lowest-index task panic is re-raised here.
    pub fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if let Err(p) = self.try_run(n, f) {
            resume_unwind(p.payload);
        }
    }

    /// Like [`WorkerPool::run`], but task panics are *contained*: every
    /// other index still runs, the lowest-index panic is returned, and
    /// the pool stays usable.
    pub fn try_run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), JobPanic> {
        let (sh, w) = (&*self.shared, self.threads().min(n));
        if w <= 1 {
            return run_inline(0..n, f);
        }
        let _turn = sh.turn.lock().expect("pool turn lock poisoned");
        let chunk = n.div_ceil(w);
        let run: &SlotFn = &|s| run_inline((s * chunk).min(n)..((s + 1) * chunk).min(n), f).err();
        // SAFETY: no thread uses `run` after this call returns. The job is
        // written before the slots are freed with `Release`. A thread reads
        // it only after an `Acquire` claim of a freed slot, and not after
        // marking that slot `DONE`. This call returns only after every slot
        // reads `DONE`, and no slot is freed again before the next job.
        let run: &'static SlotFn<'static> = unsafe { std::mem::transmute(run) };
        // SAFETY: every slot is `DONE` between jobs, so no thread reads it.
        unsafe { *sh.job.get() = Some((run, std::thread::current())) };
        for slot in &sh.slots[..w] {
            slot.state.store(FREE, Ordering::Release);
        }
        for helper in &self.handles[..w - 1] {
            helper.thread().unpark();
        }
        // Slot 0 first (no helper claims it), then every slot still free.
        while let Some(s) = sh.claim(0) {
            sh.run_slot(s);
        }
        while !sh.all_done() {
            std::thread::park();
        }
        // SAFETY: every slot is `DONE`, so no other thread touches the job
        // or a slot's panic before the next submission.
        unsafe {
            *sh.job.get() = None;
            let panics = sh.slots[..w].iter().filter_map(|s| (*s.panic.get()).take());
            panics.min_by_key(|p| p.index).map_or(Ok(()), Err)
        }
    }
}

/// Run `f` over `range` on the calling thread, in order: the inline
/// pool path, one slot, and the simulated executor. Every index runs;
/// the first panic met, the lowest index, is returned.
pub(crate) fn run_inline(range: Range<usize>, f: &(dyn Fn(usize) + Sync)) -> Result<(), JobPanic> {
    let mut first = None;
    for index in range {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(index))) {
            first.get_or_insert(JobPanic { index, payload });
        }
    }
    first.map_or(Ok(()), Err)
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for h in self.handles.drain(..) {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn every_index_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for n in [0usize, 1, 3, 4, 7, 64, 1000] {
            let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            pool.run(n, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "n={n}: some index ran 0 or 2+ times"
            );
        }
    }

    #[test]
    fn pool_is_reused_across_many_jobs() {
        let pool = WorkerPool::new(2);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(5, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 1000);
    }

    #[test]
    #[cfg_attr(miri, ignore = "timing-based; slow under the interpreter")]
    fn skewed_work_is_stolen_and_completes() {
        // All the costly indices land in slot 0's chunk, which one
        // thread runs alone; completion is what we assert here.
        let pool = WorkerPool::new(4);
        let done = AtomicUsize::new(0);
        pool.run(64, &|i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn task_panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    std::panic::resume_unwind(Box::new("boom at 3"));
                }
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the submitter");
        // The pool remains usable.
        let ok = AtomicUsize::new(0);
        pool.run(8, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn try_run_contains_panics_and_runs_every_other_index() {
        let pool = WorkerPool::new(3);
        let done = AtomicUsize::new(0);
        let err = pool
            .try_run(16, &|i| {
                if i == 5 || i == 11 {
                    std::panic::resume_unwind(Box::new(format!("boom at {i}")));
                }
                done.fetch_add(1, Ordering::Relaxed);
            })
            .expect_err("two tasks panicked");
        assert_eq!(err.index, 5, "the lowest panicking index is reported");
        assert_eq!(err.message(), "boom at 5");
        assert_eq!(
            done.load(Ordering::Relaxed),
            14,
            "all non-panicking indices still execute"
        );
    }

    #[test]
    fn back_to_back_panicking_and_clean_jobs_share_one_pool() {
        // Regression: after a job panics, the pool must stay usable and
        // the panic slot must be clear for the next job — alternating
        // panicking and clean jobs on the same shared pool never
        // cross-contaminate.
        let pool = WorkerPool::shared(3);
        for round in 0..20 {
            let err = pool
                .try_run(9, &|i| {
                    if i == round % 9 {
                        std::panic::resume_unwind(Box::new(format!("round {round}")));
                    }
                })
                .expect_err("one task panics every round");
            assert_eq!(err.index, round % 9);
            assert_eq!(err.message(), format!("round {round}"));

            // The very next job on the same pool is clean: no stale
            // panic slot, all indices run.
            let done = AtomicUsize::new(0);
            pool.try_run(9, &|_| {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .expect("clean job after a panicking one");
            assert_eq!(done.load(Ordering::Relaxed), 9);
        }
    }

    #[test]
    fn concurrent_submitters_serialize_cleanly() {
        let pool = Arc::new(WorkerPool::new(3));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..50 {
                        pool.run(7, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 7);
    }

    /// Which threads ran the tasks of one job.
    fn threads_of(pool: &WorkerPool, n: usize) -> (Vec<AtomicU32>, HashSet<ThreadId>) {
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let seen = Mutex::new(HashSet::new());
        pool.run(n, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        (counts, seen.into_inner().unwrap())
    }

    #[test]
    fn fewer_indices_than_threads_need_fewer_threads() {
        let pool = WorkerPool::new(8);
        for n in 2..8 {
            let (counts, seen) = threads_of(&pool, n);
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            assert!(
                seen.len() <= n,
                "n={n}: {} threads took part in a job with {n} deques",
                seen.len()
            );
        }
    }

    #[test]
    fn one_index_and_width_one_run_on_the_caller() {
        let me = std::thread::current().id();
        let wide = WorkerPool::new(4);
        for _ in 0..50 {
            let (counts, seen) = threads_of(&wide, 1);
            assert_eq!(counts[0].load(Ordering::Relaxed), 1);
            assert_eq!(seen, HashSet::from([me]), "n = 1 must not wake a helper");
        }
        let narrow = WorkerPool::new(1);
        assert!(narrow.handles.is_empty(), "a width-1 pool spawns no thread");
        let (counts, seen) = threads_of(&narrow, 9);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(seen, HashSet::from([me]));
        // The inline path keeps the containment contract.
        let err = narrow
            .try_run(6, &|i| {
                if i == 4 || i == 2 {
                    std::panic::resume_unwind(Box::new(i));
                }
            })
            .expect_err("two tasks panicked");
        assert_eq!(err.index, 2);
    }

    #[test]
    fn a_panic_in_the_callers_share_is_contained() {
        let pool = WorkerPool::new(3);
        let me = std::thread::current().id();
        for _ in 0..20 {
            let fired = AtomicBool::new(false);
            let done = AtomicUsize::new(0);
            let err = pool
                .try_run(12, &|i| {
                    if std::thread::current().id() != me {
                        // Helpers hold their first task until the
                        // submitter has taken (and lost) its own, so
                        // they cannot drain deque 0 before it starts.
                        while !fired.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                    } else if !fired.swap(true, Ordering::AcqRel) {
                        std::panic::resume_unwind(Box::new(format!("caller at {i}")));
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                })
                .expect_err("the submitter's own task panicked");
            assert_eq!(err.index, 0, "the submitter starts at the front of deque 0");
            assert_eq!(err.message(), "caller at 0");
            assert_eq!(done.load(Ordering::Relaxed), 11, "every other index ran");
        }
        let (counts, _) = threads_of(&pool, 5);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn two_submitters_released_together_both_complete() {
        let pool = WorkerPool::new(3);
        let gate = Barrier::new(2);
        let totals = [AtomicUsize::new(0), AtomicUsize::new(0)];
        std::thread::scope(|s| {
            for total in &totals {
                let (pool, gate) = (&pool, &gate);
                s.spawn(move || {
                    for _ in 0..100 {
                        gate.wait();
                        pool.run(9, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        for total in &totals {
            assert_eq!(total.load(Ordering::Relaxed), 900);
        }
    }

    #[test]
    fn every_task_of_a_job_no_wider_than_the_pool_runs_at_once() {
        // Each task of a job with `n <= threads` gets a thread of its
        // own, so tasks that wait on each other all arrive. A hang
        // fails the test after a minute instead of stalling the suite.
        let (done, finished) = std::sync::mpsc::channel();
        let jobs = std::thread::spawn(move || {
            let wide = WorkerPool::new(4);
            for w in 2..=4 {
                for pool in [&WorkerPool::new(w), &wide] {
                    let barrier = Barrier::new(w);
                    for _ in 0..200 {
                        pool.run(w, &|_| {
                            barrier.wait();
                        });
                    }
                }
            }
            done.send(()).unwrap();
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("every task of a width-w job reached the barrier");
        jobs.join().expect("the job thread finishes");
    }

    #[test]
    fn a_borrow_dropped_as_the_job_returns_is_never_read_late() {
        // With `2 <= n < threads` the submitter often claims a slot whose
        // helper has not woken yet. That helper wakes after `try_run`
        // has returned and `counts` is freed: it must find no slot to
        // claim and so never read the task that borrowed `counts`.
        let pool = WorkerPool::new(4);
        for round in 0..3000 {
            let n = 2 + round % 2;
            let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            pool.try_run(n, &|i| {
                counts[i].fetch_add(1, Ordering::Relaxed);
            })
            .expect("no task panics");
            assert!(
                counts.into_iter().all(|c| c.into_inner() == 1),
                "round {round}: some index ran 0 or 2+ times"
            );
        }
    }

    #[test]
    fn shared_pools_are_memoized_by_width() {
        let a = WorkerPool::shared(3);
        let b = WorkerPool::shared(3);
        let c = WorkerPool::shared(5);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.threads(), 5);
    }

    #[test]
    fn zero_width_pool_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        let (counts, _) = threads_of(&pool, 3);
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
