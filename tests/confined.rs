//! A pooled executor on a thread confined to one CPU runs a stage's
//! blocks inline, on the calling thread; an unconfined thread on a host
//! with two CPUs still runs two blocks at once.
//!
//! Each test narrows only its own thread (`sched_setaffinity(0, …)`)
//! and restores its CPU set when done, also when it fails. A child
//! process inherits the set of the thread that starts it.

use rlrpd::core::{run_speculative, ExecMode, RunConfig, Strategy};
use rlrpd::loops::{NlfiltInput, NlfiltLoop};
use rlrpd::runtime::Executor;
use std::collections::HashSet;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// CPU sets up to 1024 CPUs, as `sched_{get,set}affinity` take them.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The calling thread confined to the first CPU of its set until
/// dropped, which restores the set.
struct Confined(CpuMask);

impl Confined {
    fn to_one_cpu() -> Confined {
        let mut mask: CpuMask = [0; 16];
        let size = std::mem::size_of::<CpuMask>();
        // SAFETY: `mask` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
        let word = mask.iter().position(|&w| w != 0).expect("a CPU to run on");
        let mut one: CpuMask = [0; 16];
        one[word] = 1 << mask[word].trailing_zeros();
        // SAFETY: as above.
        assert_eq!(unsafe { sched_setaffinity(0, size, one.as_ptr()) }, 0);
        assert_eq!(cpus(), 1);
        Confined(mask)
    }
}

impl Drop for Confined {
    fn drop(&mut self) {
        let size = std::mem::size_of::<CpuMask>();
        // SAFETY: as in `to_one_cpu`.
        unsafe { sched_setaffinity(0, size, self.0.as_ptr()) };
    }
}

/// CPUs the calling thread may run on.
fn cpus() -> u32 {
    let mut mask: CpuMask = [0; 16];
    let size = std::mem::size_of::<CpuMask>();
    // SAFETY: as in `Confined::to_one_cpu`.
    assert_eq!(unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) }, 0);
    mask.iter().map(|w| w.count_ones()).sum()
}

/// Run one stage of `blocks` blocks; each records its thread and leaves
/// a value its position decides.
fn stage(ex: &Executor, blocks: usize) -> (Vec<u64>, Vec<f64>, HashSet<ThreadId>) {
    let threads = Mutex::new(HashSet::new());
    let mut states = vec![0u64; blocks];
    let t = ex.run_blocks(&mut states, |pos, s| {
        threads.lock().unwrap().insert(std::thread::current().id());
        *s = (pos as u64 + 1) * 7919;
        pos as f64 + 0.5
    });
    (states, t.per_block_cost, threads.into_inner().unwrap())
}

#[test]
fn a_confined_thread_runs_every_block_inline() {
    let _one = Confined::to_one_cpu();
    let me = std::thread::current().id();
    for p in [2, 4] {
        let pooled = Executor::with_procs(ExecMode::Pooled, p);
        assert_eq!(pooled.threads(), 1, "p = {p}");
        let (states, costs, threads) = stage(&pooled, p);
        assert_eq!(threads, HashSet::from([me]), "p = {p}");
        let (want_states, want_costs, _) = stage(&Executor::new(ExecMode::Simulated), p);
        assert_eq!((states, costs), (want_states, want_costs), "p = {p}");
        // Still one section per stage: a confined run reports what an
        // unconfined one does.
        assert_eq!(pooled.fork_joins(), 1);
    }
}

#[test]
fn a_confined_engine_run_is_the_simulated_one() {
    let _one = Confined::to_one_cpu();
    let lp = NlfiltLoop::new(NlfiltInput::i4_50());
    for p in [2, 4] {
        let cfg = RunConfig::new(p).with_strategy(Strategy::Rd);
        let pooled = run_speculative(&lp, cfg.with_exec(ExecMode::Pooled));
        let simulated = run_speculative(&lp, cfg.with_exec(ExecMode::Simulated));
        assert_eq!(pooled.arrays, simulated.arrays, "p = {p}");
        assert_eq!(pooled.report.restarts, simulated.report.restarts, "p = {p}");
        assert_eq!(pooled.report.stages.len(), simulated.report.stages.len());
    }
}

/// The name is kept from the deleted DOACROSS tier, whose lanes needed a
/// thread each. The β deck's proven loops now speculate, and a run
/// confined to one CPU runs their blocks inline on one thread; it must
/// still finish, and both loops must verify.
#[test]
fn a_confined_doacross_pipeline_still_gets_its_lanes() {
    let deck = format!(
        "{}/examples/programs/beta_pipeline.rlp",
        env!("CARGO_MANIFEST_DIR")
    );
    let _one = Confined::to_one_cpu();
    let mut child = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .args(["run", &deck, "--procs", "2", "--pooled"])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    // Blocks that waited on each other on one thread would wait for ever.
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("the run deadlocked on one CPU");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let verified = "verified against sequential execution";
    assert_eq!(stdout.matches(verified).count(), 2, "{stdout}");
    assert_eq!(
        stdout.matches("; p = 2 on 1 thread)\n").count(),
        2,
        "{stdout}"
    );
}

#[test]
fn a_confined_run_says_its_blocks_ran_on_one_thread() {
    let deck = format!(
        "{}/examples/programs/tracking.rlp",
        env!("CARGO_MANIFEST_DIR")
    );
    let _one = Confined::to_one_cpu();
    let out = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .args(["run", &deck, "--procs", "2", "--pooled"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("; p = 2 on 1 thread)\n"), "{stdout}");
}

#[test]
fn an_unconfined_thread_on_two_cpus_runs_two_blocks_at_once() {
    if cpus() < 2 {
        eprintln!("skipped: this thread may run on {} CPU", cpus());
        return;
    }
    // Only a thread confined to one CPU narrows its pool: more blocks
    // than CPUs still get a thread each.
    for p in [2, 3, 4] {
        assert_eq!(Executor::with_procs(ExecMode::Pooled, p).threads(), p);
    }
    let pooled = Executor::with_procs(ExecMode::Pooled, 2);
    // Each block waits for the other to arrive: only two threads at
    // once get both through.
    let arrived = AtomicUsize::new(0);
    let mut states = vec![false; 2];
    pooled.run_blocks(&mut states, |_, met| {
        arrived.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(60);
        while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            std::hint::spin_loop();
        }
        *met = arrived.load(Ordering::SeqCst) == 2;
        1.0
    });
    assert_eq!(states, [true, true]);
}
