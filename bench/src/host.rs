//! Host control and host health: the CPU pin, the deterministic
//! allocator environment, the calibration kernel, the two-thread
//! capacity probe, and resident-set readings.
//!
//! Nothing here calls into the repository: `cal` must track the host's
//! speed and nothing else, so no change to the code under test can
//! move it.

use std::hint::black_box;
use std::time::Instant;

/// glibc malloc settings the harness re-execs itself under: arrays up
/// to 32 MiB come from the heap rather than fresh `mmap`s, freed heap
/// is never trimmed back to the kernel, and one arena serves every
/// thread — so an op re-uses warm pages instead of re-faulting them.
pub const ALLOC_ENV: [(&str, &str); 3] = [
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "17179869184"),
    ("MALLOC_ARENA_MAX", "1"),
];

/// Set once the re-exec happened, so a host that strips the variables
/// cannot loop.
const REEXEC_MARK: &str = "RLRPD_BENCH_REEXEC";

/// CPU sets up to 1024 CPUs, as `sched_{get,set}affinity` take them.
type CpuMask = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// True when every [`ALLOC_ENV`] variable is in effect.
pub fn allocator_env_in_effect() -> bool {
    ALLOC_ENV
        .iter()
        .all(|(k, v)| std::env::var(k).as_deref() == Ok(*v))
}

/// Replace this process with itself under [`ALLOC_ENV`] (glibc reads
/// the variables at start-up only). Returns when they already hold or
/// the re-exec was already tried.
pub fn reexec_with_allocator_env() {
    use std::os::unix::process::CommandExt;
    if allocator_env_in_effect() || std::env::var_os(REEXEC_MARK).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let err = std::process::Command::new(exe)
        .args(std::env::args_os().skip(1))
        .envs(ALLOC_ENV)
        .env(REEXEC_MARK, "1")
        .exec();
    eprintln!("bench: re-exec under the allocator environment failed: {err}");
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread (and every thread or process it starts
/// afterwards) to `cpus`. Returns whether the kernel accepted it.
pub fn set_cpus(cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; 16];
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) } == 0
}

/// Hypervisor steal ticks charged to `cpu` so far (`/proc/stat`, USER_HZ
/// ticks): time the guest wanted the CPU and the host ran someone else.
pub fn steal_ticks(cpu: usize) -> u64 {
    let tag = format!("cpu{cpu}");
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.split(' ').next() == Some(&tag))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Largest peak resident set among the child processes reaped so far,
/// MiB (`getrusage(RUSAGE_CHILDREN).ru_maxrss`).
pub fn children_peak_rss_mb() -> f64 {
    const RUSAGE_CHILDREN: i32 = -1;
    // x86-64 / aarch64 Linux `struct rusage`: two `timeval`s (four
    // longs) then fourteen longs, `ru_maxrss` (KiB) first among them.
    let mut ru = [0i64; 18];
    // SAFETY: `ru` is a live, writable buffer at least as large as
    // `struct rusage` (144 bytes) on the supported targets.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) } != 0 {
        return 0.0;
    }
    ru[4] as f64 / 1024.0
}

/// What one [`Cal::run`] takes on this host when it is calm. `setup_s`
/// is a set-up's wall divided by the calibration passes around it,
/// times this: seconds as the calm host would have read them.
pub const CAL_NOMINAL_S: f64 = 0.1;

/// The calibration kernel, timed next to every op: it carries the
/// host's momentary speed and nothing of the code under test.
///
/// Two parts, because the host's speed does not move as one number: a
/// compute-bound part (the TRACK filter arithmetic, a strided gather
/// plus some twenty flops and a square root per element) and a
/// bandwidth-bound part (a STREAM-style triad), the second about twice
/// as long as the first. Over twelve runs of each workload with one
/// seed, the spread of `op / cal` between runs was 1.6–3.3 % against
/// the triad and 2.0–4.3 % against the filter arithmetic alone — the
/// drift on this host is mostly neighbours on the shared last-level
/// cache, which the filter arithmetic barely feels and the ops do.
pub struct Cal {
    state: Vec<f64>,
    work: Vec<f64>,
    aux: Vec<f64>,
}

impl Cal {
    /// Three 8 MiB vectors: past the 4 MiB L2, like the decks.
    const N: usize = 1 << 20;
    const FILTER_PASSES: usize = 6;
    const TRIAD_PASSES: usize = 48;

    pub fn new() -> Self {
        Cal {
            state: (0..Self::N).map(|i| 1.0 + (i % 97) as f64 * 1e-3).collect(),
            work: vec![0.0; Self::N],
            aux: vec![0.5; Self::N],
        }
    }

    /// One calibration pass; returns its wall seconds.
    pub fn run(&mut self) -> f64 {
        let n = Self::N;
        let t = Instant::now();
        for pass in 0..Self::FILTER_PASSES {
            for i in 0..n {
                let z = self.state[(i * 11 + 3 + pass) % n];
                let pr = z * 0.975 + i as f64 * 0.001;
                let rs = z - pr * 0.955;
                let w = rs.abs() * 0.25 + 0.125;
                let g = (w * 0.5 + 0.0625).min(0.9);
                let up = pr + g * rs;
                let e2 = rs * rs * 0.5 + up * up * 0.0225;
                let q = (e2 + 1.0).sqrt();
                self.work[i] = up * 0.96875 + q * 0.03125;
            }
            black_box(&mut self.work);
        }
        for _ in 0..Self::TRIAD_PASSES {
            for i in 0..n {
                self.aux[i] = 0.5 * self.work[i] + 0.4999 * self.state[i];
            }
            black_box(&mut self.aux);
            std::mem::swap(&mut self.aux, &mut self.work);
        }
        t.elapsed().as_secs_f64()
    }
}

fn spin() -> f64 {
    let t = Instant::now();
    let mut x = 1.000_000_1f64;
    for i in 0..12_000_000u64 {
        x = x * 1.000_000_01 + (i & 7) as f64 * 1e-12;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Wall of two spinning threads ÷ wall of one, both free to use every
/// CPU in `cpus`: ≈ 1 with two idle cores, ≈ 2 when the host gives
/// this VM one core's worth.
pub fn two_thread_capacity(cpus: &[usize]) -> f64 {
    let unpinned = |k: usize| -> f64 {
        std::thread::scope(|s| {
            let hs: Vec<_> = (0..k)
                .map(|_| {
                    s.spawn(|| {
                        set_cpus(cpus);
                        spin()
                    })
                })
                .collect();
            hs.into_iter()
                .map(|h| h.join().expect("spin thread"))
                .fold(0.0, f64::max)
        })
    };
    let one = unpinned(1);
    unpinned(2) / one
}
