//! A persistent work-stealing worker pool for speculative stages.
//!
//! The seed executor spawned one scoped OS thread per block per stage.
//! An R-LRPD run executes *many* stages — every restart re-runs the
//! remaining iterations as a fresh doall, and the analysis / commit /
//! shadow-reset phases between stages are themselves parallel loops — so
//! thread creation cost was paid hundreds of times per loop
//! instantiation. This module replaces that with a pool of workers
//! created **once** (per requested width) and reused by every stage,
//! every phase, and every restart.
//!
//! Design:
//!
//! * Each submitted job is a *parallel for* over indices `0..n`. The
//!   index space is split into one contiguous chunk per worker, each
//!   held in an [`IndexDeque`]: a `(start, end)` pair packed into one
//!   atomic word. The owning worker claims indices from the front with
//!   CAS; idle workers steal from the back of other workers' deques with
//!   the same CAS word, so claiming is lock-free and a task index is
//!   executed exactly once.
//! * **The submitting thread is worker 0.** A pool of width `threads`
//!   owns `threads − 1` helper threads; the submitter drains deque 0
//!   (then steals) itself instead of parking while someone else does. A
//!   job splits into `min(n, threads)` deques, and helpers park on a
//!   condvar until a job has an *unclaimed* deque: a helper that wakes
//!   claims one under the pool lock, drains it, steals, and checks out.
//!   When the submitter runs out of work every index has been claimed,
//!   so it revokes the deques nobody came for and waits only for the
//!   helpers that did claim one — a job the submitter finishes alone
//!   never waits for a helper to be scheduled. A width-1 pool and a
//!   one-index job run inline: no lock, no allocation, no wake-up.
//!   Jobs are serialized: a second submitter waits until the first has
//!   released the pool.
//! * Task closures are lifetime-erased (`&'a dyn Fn(usize)` →
//!   `&'static`). This is sound because a helper touches the closure
//!   only between claiming a deque and checking out, both under the pool
//!   lock, and [`WorkerPool::try_run`] returns only after it has — under
//!   that same lock — revoked every unclaimed deque and seen the count
//!   of checked-in helpers reach zero. No helper can reach the closure
//!   after that, so the erased borrow strictly outlives every use.
//! * Task panics are *contained*: a panicking task never takes down a
//!   worker or the job. Every remaining index still executes (other
//!   tasks are independent speculative work whose results the caller
//!   may commit), and the panic of the lowest index is recorded in the
//!   job. [`WorkerPool::try_run`] hands it back as a [`JobPanic`];
//!   [`WorkerPool::run`] re-raises it with `resume_unwind`. Either way
//!   the panic slot dies with the job, so the pool stays usable and the
//!   next job starts clean.
//!
//! [`WorkerPool::shared`] memoizes pools by width in a process-global
//! map so independent engines (and restarted runs) reuse the same OS
//! threads instead of re-spawning.

use crate::fault::panic_message;
use std::any::Any;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A raw pointer that may be shared across the pool's workers.
///
/// Used to hand disjoint `&mut` slots of a slice to tasks: each task
/// index derives exactly one element pointer, so exclusivity is an
/// indexing invariant the caller upholds (and documents at the use
/// site), not something the type system can see.
pub struct SendPtr<T>(*mut T);

// SAFETY: a SendPtr is only a capability to *derive* element pointers;
// every dereference happens at an unsafe site whose caller guarantees
// disjointness. Sending the pointer itself between threads is sound
// whenever the pointee values may move between threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — sharing the pointer grants no access by itself;
// every dereference site must justify exclusivity on its own.
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

/// One worker's contiguous slice of the job's index space, packed as
/// `(start << 32) | end` in a single atomic word. The owner pops from
/// the front, thieves pop from the back; both are CAS loops on the same
/// word, so the deque never hands out an index twice.
struct IndexDeque(AtomicU64);

impl IndexDeque {
    fn new(start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= u32::MAX as usize);
        IndexDeque(AtomicU64::new(((start as u64) << 32) | end as u64))
    }

    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (start, end) = ((cur >> 32) as u32, cur as u32);
            if start >= end {
                return None;
            }
            let next = ((u64::from(start) + 1) << 32) | u64::from(end);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(start as usize),
                Err(seen) => cur = seen,
            }
        }
    }

    fn pop_back(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (start, end) = ((cur >> 32) as u32, cur as u32);
            if start >= end {
                return None;
            }
            let next = (u64::from(start) << 32) | u64::from(end - 1);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some((end - 1) as usize),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// Lifetime-erased task reference. `&dyn Fn + Sync` is `Send + Sync`,
/// so the reference may be handed to every worker.
#[derive(Clone, Copy)]
struct TaskRef(&'static (dyn Fn(usize) + Sync));

/// A contained task panic: which index panicked (the lowest, when
/// several did) and the original unwind payload.
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

/// One submitted parallel-for.
struct Job {
    task: TaskRef,
    /// One deque per participant: the submitter owns deque 0, the
    /// helper that claims slot `k` owns deque `k`.
    deques: Box<[IndexDeque]>,
    /// The lowest-index task panic, if any. Every index still executes
    /// after a panic — tasks are independent, and the caller decides
    /// what to do with the surviving results.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl Job {
    fn exec(&self, i: usize) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task.0)(i))) {
            let mut slot = self.panic.lock().unwrap();
            match &*slot {
                Some((idx, _)) if *idx <= i => {}
                _ => *slot = Some((i, payload)),
            }
        }
    }

    /// Drain the job from worker `me`'s point of view: own deque from
    /// the front, then every other deque from the back. The index space
    /// is fixed at submission, so one pass that fully drains each deque
    /// in turn leaves nothing claimable.
    fn run_from(&self, me: usize) {
        let w = self.deques.len();
        for k in 0..w {
            let victim = (me + k) % w;
            if k == 0 {
                while let Some(i) = self.deques[victim].pop_front() {
                    self.exec(i);
                }
            } else {
                while let Some(i) = self.deques[victim].pop_back() {
                    self.exec(i);
                }
            }
        }
    }
}

struct PoolState {
    job: Option<Arc<Job>>,
    /// Deques of the current job that no helper has claimed yet
    /// (deques `1..=unclaimed`; deque 0 is the submitter's).
    unclaimed: usize,
    /// Helpers that claimed a deque and have not checked out.
    busy: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Helpers park here until a job has an unclaimed deque.
    work_cv: Condvar,
    /// Submitters park here while the pool is busy / their helpers run.
    done_cv: Condvar,
}

impl PoolShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // Nothing panics while holding the lock (tasks run outside it,
        // inside `catch_unwind`), so poisoning means a bug in this file.
        self.state.lock().expect("pool state lock poisoned")
    }
}

/// A persistent pool executing parallel-fors `threads` wide: the
/// submitting thread plus `threads − 1` helper threads.
///
/// Create one with [`WorkerPool::new`] or — preferred, so restarts and
/// independent engines share OS threads — [`WorkerPool::shared`].
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// The `threads − 1` helpers.
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool(threads={})", self.threads)
    }
}

impl WorkerPool {
    /// A pool `threads` wide (clamped to at least one). The submitter
    /// of each job is one of the `threads`, so this spawns
    /// `threads − 1` helpers — a width-1 pool spawns none.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                unclaimed: 0,
                busy: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|k| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rlrpd-pool-{k}"))
                    .spawn(move || helper_loop(&shared))
                    .expect("failed to spawn pool helper")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// The process-wide pool of this width, created on first use and
    /// kept alive for the life of the process.
    pub fn shared(threads: usize) -> Arc<WorkerPool> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let threads = threads.max(1);
        let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        Arc::clone(
            pools
                .lock()
                .unwrap()
                .entry(threads)
                .or_insert_with(|| Arc::new(WorkerPool::new(threads))),
        )
    }

    /// Width of the pool: how many threads work on one job, the
    /// submitter included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(i)` for every `i in 0..n` across the pool and block until
    /// all calls finish. Panics from tasks are re-raised here (the
    /// lowest-index panic when several tasks panicked). Jobs are
    /// serialized; concurrent submitters queue.
    pub fn run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if let Err(p) = self.try_run(n, f) {
            resume_unwind(p.payload);
        }
    }

    /// Like [`WorkerPool::run`], but a task panic is *contained* and
    /// returned as `Err(JobPanic)` instead of re-raised. Every index
    /// still executes (panicked tasks excepted); the reported panic is
    /// the one with the lowest index. The pool stays fully usable
    /// either way — the panic slot lives in the job, which is dropped
    /// here, so the next submission starts clean.
    pub fn try_run(&self, n: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), JobPanic> {
        if self.threads == 1 || n <= 1 {
            return run_inline(n, f);
        }
        assert!(n <= u32::MAX as usize, "pool job too large");
        // SAFETY: a helper uses `task` only between claiming a deque
        // and checking out. We return only after revoking the
        // unclaimed deques and seeing `busy == 0` under the pool lock,
        // so no helper holds or can still obtain a claim on this job:
        // the erased borrow strictly outlives every use of `task`.
        let task: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        let w = self.threads.min(n);
        let chunk = n.div_ceil(w);
        let deques = (0..w)
            .map(|k| IndexDeque::new((k * chunk).min(n), ((k + 1) * chunk).min(n)))
            .collect();
        let job = Arc::new(Job {
            task: TaskRef(task),
            deques,
            panic: Mutex::new(None),
        });

        let sh = &*self.shared;
        {
            let mut st = sh.lock();
            while st.job.is_some() {
                st = sh.done_cv.wait(st).expect("pool state lock poisoned");
            }
            st.job = Some(Arc::clone(&job));
            st.unclaimed = w - 1;
        }
        if w == self.threads {
            sh.work_cv.notify_all();
        } else {
            for _ in 1..w {
                sh.work_cv.notify_one();
            }
        }

        // Worker 0's share, then whatever can be stolen. `Job::exec`
        // contains a panicking task, so this always returns.
        job.run_from(0);

        {
            let mut st = sh.lock();
            // Every index is claimed by now: a deque nobody came for
            // is empty, and its helper need not show up at all.
            st.unclaimed = 0;
            while st.busy != 0 {
                st = sh.done_cv.wait(st).expect("pool state lock poisoned");
            }
            st.job = None;
        }
        // Release any submitter queued behind this job.
        sh.done_cv.notify_all();

        let taken = job.panic.lock().unwrap().take();
        match taken {
            Some((index, payload)) => Err(JobPanic { index, payload }),
            None => Ok(()),
        }
    }

    /// Run `f(i)` for every `i in 0..n` and collect the results in index
    /// order. Task panics are re-raised.
    pub fn run_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        match self.try_run_indexed(n, f) {
            Ok(out) => out,
            Err(p) => resume_unwind(p.payload),
        }
    }

    /// Like [`WorkerPool::run_indexed`], but a task panic is contained
    /// and returned as `Err(JobPanic)`; the surviving results are
    /// discarded (the caller cannot know which slots are valid).
    pub fn try_run_indexed<R, F>(&self, n: usize, f: F) -> Result<Vec<R>, JobPanic>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let slots = SendPtr::new(out.as_mut_ptr());
        self.try_run(n, &|i| {
            // SAFETY: task indices are distinct and each writes only its
            // own slot, so the derived &mut is exclusive.
            unsafe { *slots.get().add(i) = Some(f(i)) };
        })?;
        Ok(out
            .into_iter()
            .map(|slot| slot.expect("pool task did not run"))
            .collect())
    }
}

/// The job on the calling thread alone, in index order — what a
/// width-1 pool and a one-index job come down to. Same containment
/// contract as the pooled path: every index runs, the lowest-index
/// panic (the first one met, in this order) is reported.
fn run_inline(n: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), JobPanic> {
    let mut first = None;
    for index in 0..n {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(index))) {
            first.get_or_insert(JobPanic { index, payload });
        }
    }
    first.map_or(Ok(()), Err)
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.state.lock() {
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn helper_loop(sh: &PoolShared) {
    let mut st = sh.lock();
    loop {
        if st.shutdown {
            return;
        }
        let claim = match &st.job {
            Some(job) if st.unclaimed > 0 => Some((Arc::clone(job), st.unclaimed)),
            _ => None,
        };
        let Some((job, me)) = claim else {
            st = sh.work_cv.wait(st).expect("pool state lock poisoned");
            continue;
        };
        st.unclaimed -= 1;
        st.busy += 1;
        drop(st);

        job.run_from(me);
        drop(job);

        st = sh.lock();
        st.busy -= 1;
        if st.busy == 0 {
            // Possibly the last helper out: the submitter may be
            // waiting on exactly this.
            sh.done_cv.notify_all();
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
    fn index_deque_front_and_back_partition_the_range() {
        let d = IndexDeque::new(3, 8);
        assert_eq!(d.pop_front(), Some(3));
        assert_eq!(d.pop_back(), Some(7));
        assert_eq!(d.pop_front(), Some(4));
        assert_eq!(d.pop_back(), Some(6));
        assert_eq!(d.pop_front(), Some(5));
        assert_eq!(d.pop_front(), None);
        assert_eq!(d.pop_back(), None);
    }

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
    fn run_indexed_returns_results_in_order() {
        let pool = WorkerPool::new(3);
        let out = pool.run_indexed(10, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
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
        // All the work lands in worker 0's chunk by cost; thieves must
        // take from the back for the job to finish quickly — but
        // correctness alone is what we assert here.
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
    fn try_run_indexed_reports_the_panic() {
        let pool = WorkerPool::new(2);
        let err = pool
            .try_run_indexed(6, |i| {
                if i == 2 {
                    std::panic::resume_unwind(Box::new("idx"));
                }
                i * 2
            })
            .expect_err("task 2 panicked");
        assert_eq!(err.index, 2);
        assert_eq!(pool.try_run_indexed(6, |i| i * 2).unwrap()[5], 10);
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
        assert_eq!(pool.run_indexed(5, |i| i + 1), vec![1, 2, 3, 4, 5]);
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
        assert_eq!(pool.run_indexed(3, |i| i + 1), vec![1, 2, 3]);
    }
}
