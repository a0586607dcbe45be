//! `spice_durable_fleet`: the SPICE DSL deck (flow dependences at
//! distance ≤ 16, a five-flop body) through the durable, out-of-process
//! path — every stage's blocks go to subprocess workers over the wire
//! and every commit is appended to a crash journal and fsynced before
//! the run advances. Compute is negligible; journal append + fsync and
//! per-stage dispatch / collect are the op.

use super::{metric, seeded_source, verify, Acc, Arrays, Counts, Env, Metric, Workload};
use crate::layers;
use crate::stats::median;
use crate::trace::Tracer;
use rlrpd_core::remote::{BlockDispatcher, DistConnector, WireHello};
use rlrpd_core::{
    run_sequential, ExecMode, Journal, RunConfig, RunResult, Runner, Strategy, WindowConfig,
};
use rlrpd_dist::{DistLauncher, DistPolicy};
use rlrpd_lang::CompiledLoop;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const N: usize = 32_768;
/// Every window's second block reads what its first block wrote, so a
/// stage commits about one block: some `N / WINDOW` stages per run.
const WINDOW: usize = 512;
/// The deck must stay a many-small-commits run.
const STAGES: std::ops::RangeInclusive<usize> = 50..=100;
/// Durable runs per op.
const K: usize = 5;
const WARMUPS: usize = 1;

/// The launcher, with every fleet launch timed from outside.
struct TimedLauncher {
    inner: DistLauncher,
    launches: Vec<f64>,
}

impl DistConnector for TimedLauncher {
    fn connect(&mut self, hello: &WireHello) -> Result<Box<dyn BlockDispatcher>, String> {
        let t = Instant::now();
        let fleet = self.inner.connect(hello);
        self.launches.push(t.elapsed().as_secs_f64());
        fleet
    }
}

pub struct Spice {
    lp: CompiledLoop,
    src: String,
    spec: String,
    cfg: RunConfig,
    reference: Arrays,
    runner: Runner,
    launcher: TimedLauncher,
    journal_path: PathBuf,
    acc: Acc,
    /// Wall seconds of this instance's timed ops.
    op_secs: f64,
}

impl Spice {
    pub fn setup(env: &Env, tr: &mut Tracer) -> Result<Self, String> {
        let s = tr.begin("setup.deck");
        let (src, _) = seeded_source(rlrpd_loops::dsl::spice_dsl(N), "= 2;", env.seed);
        tr.end(s);
        let s = tr.begin("lang.compile");
        let lp = rlrpd_lang::compile(&src).map_err(|e| format!("SPICE deck: {e}"));
        tr.end(s);
        let lp = lp?;
        let s = tr.begin("setup.reference");
        let (reference, _) = run_sequential(&lp);
        tr.end(s);

        let exe = std::env::current_exe().map_err(|e| format!("own binary: {e}"))?;
        let launcher =
            DistLauncher::new(exe, vec!["--dist-worker".into()]).with_policy(DistPolicy {
                workers: env.p,
                ..DistPolicy::default()
            });
        let cfg = RunConfig::new(env.p)
            .with_exec(ExecMode::Distributed)
            .with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(WINDOW)));
        let mut w = Spice {
            spec: format!("rlp:{src}"),
            src,
            lp,
            cfg,
            reference,
            runner: Runner::new(cfg),
            launcher: TimedLauncher {
                inner: launcher,
                launches: Vec::new(),
            },
            journal_path: env.out_dir.join(format!("spice-{}.journal", env.seed)),
            acc: Acc::default(),
            op_secs: 0.0,
        };
        // The warm-ups double as the fleet probe: a fleet that cannot
        // launch fails set-up, not the first timed op.
        let s = tr.begin("setup.warmup");
        for _ in 0..WARMUPS {
            w.op(&mut Tracer::new(false))?;
        }
        tr.end(s);
        w.acc = Acc::default();
        w.launcher.launches.clear();
        Ok(w)
    }

    /// Shape guard + result check shared by the fleet op and the
    /// in-process probes; `commits` is the journal's commit-record
    /// count where the run was journaled.
    fn check(&self, res: &RunResult<f64>, commits: Option<usize>) -> Result<(), String> {
        let r = &res.report;
        if let Some(reason) = r.fallback {
            return Err(format!("run fell back unexpectedly: {reason:?}"));
        }
        if r.respawns() != 0 {
            return Err(format!("{} workers respawned", r.respawns()));
        }
        let committed = r.stages.iter().filter(|s| s.iters_committed > 0).count();
        if commits.is_some_and(|c| c != committed) {
            return Err(format!(
                "{commits:?} journal commit records for {committed} committed stages"
            ));
        }
        if !STAGES.contains(&r.stages.len()) {
            return Err(format!(
                "{} stages, deck is sized for {STAGES:?}",
                r.stages.len()
            ));
        }
        verify(&self.reference, &res.arrays, &[false])
    }

    /// One op: `K` times a fresh journal, one durable run over a fresh
    /// fleet, guards, verification, journal removed.
    fn op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut counts = Counts::default();
        for _ in 0..K {
            let s = tr.begin("core.journal.create");
            let journal = Journal::create(&self.journal_path).map_err(|e| e.to_string());
            tr.end(s);
            let mut journal = journal?;

            let s = tr.begin("core.run");
            let launched = self.launcher.launches.len();
            let res = self
                .runner
                .try_run_distributed_journaled(
                    &self.lp,
                    &self.spec,
                    &mut self.launcher,
                    &mut journal,
                )
                .map_err(|e| format!("durable fleet run failed: {e}"));
            if let Ok(res) = &res {
                if let Some(&secs) = self.launcher.launches.get(launched) {
                    tr.reported("dist.fleet_launch", secs);
                }
                self.acc.run(tr, &res.report);
            }
            tr.end(s);
            let res = res?;

            let s = tr.begin("bench.verify");
            let ok = self.check(&res, Some(journal.commits().len()));
            tr.end(s);
            counts.add(N, &res.report);
            counts.journal_commits += journal.commits().len() as u64;
            drop(journal);
            let _ = std::fs::remove_file(&self.journal_path);
            ok?;
        }
        self.acc.op_done(counts)
    }

    /// Wall seconds of one in-process run of the deck (pooled, same
    /// window), journaled or plain — the bases of `core.journal_x` and
    /// `dist.fleet_x`.
    fn in_process_s(&self, journaled: bool, path: &Path) -> Result<f64, String> {
        let cfg = RunConfig {
            exec: ExecMode::Pooled,
            ..self.cfg
        };
        let mut walls = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let (res, commits) = if journaled {
                let mut j = Journal::create(path).map_err(|e| e.to_string())?;
                let res = Runner::new(cfg).try_run_journaled(&self.lp, &mut j);
                (res, Some(j.commits().len()))
            } else {
                (Runner::new(cfg).try_run(&self.lp), None)
            };
            self.check(&res.map_err(|e| e.to_string())?, commits)?;
            walls.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&walls))
    }

    /// `Runner::resume` from a journal cut after the commit that
    /// crosses the 50 % frontier.
    fn resume_s(&self, path: &Path) -> Result<f64, String> {
        // The file is length-framed records: header, then one commit
        // per stage. Keep the header and the first half of the commits.
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let commits = Journal::open(path)
            .map_err(|e| e.to_string())?
            .commits()
            .len();
        let mut pos = 0usize;
        for _ in 0..1 + commits / 2 {
            let len = bytes
                .get(pos..pos + 4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("four bytes")) as usize)
                .ok_or("journal shorter than its frame count")?;
            pos += 4 + len;
        }
        std::fs::write(path, &bytes[..pos.min(bytes.len())]).map_err(|e| e.to_string())?;
        let cfg = RunConfig {
            exec: ExecMode::Pooled,
            ..self.cfg
        };
        let mut journal = Journal::open(path).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let res = Runner::new(cfg)
            .resume(&self.lp, &mut journal)
            .map_err(|e| format!("resume failed: {e}"))?;
        let s = t.elapsed().as_secs_f64();
        let frontier = res.report.resumed_at.unwrap_or(0);
        if !(N / 4..=3 * N / 4).contains(&frontier) {
            return Err(format!(
                "resume started at iteration {frontier}, journal was cut near {}",
                N / 2
            ));
        }
        verify(&self.reference, &res.arrays, &[false])?;
        Ok(s)
    }
}

impl Workload for Spice {
    fn seq(&mut self) {
        black_box(run_sequential(&self.lp));
    }

    fn seq_per_op(&self) -> f64 {
        K as f64
    }

    fn round(&mut self, tr: &mut Tracer, jobs: &mut Vec<f64>) -> Result<f64, String> {
        let wall = layers::timed_op(tr, jobs, |tr| self.op(tr))?;
        self.op_secs += wall;
        Ok(wall)
    }

    fn acc(&self) -> &Acc {
        &self.acc
    }

    fn layers(&mut self) -> Result<Vec<Metric>, String> {
        let mut m = layers::lang_tiers(&self.src)?;
        // X's address stream: two reads behind `i`, one write at `i`.
        m.extend(layers::shadow_marks(N, 2 * N, |k| {
            let i = (k / 2).max(16);
            if k % 2 == 0 {
                (i - 16, None)
            } else {
                (i - (i % 7) - 1, Some(i))
            }
        }));
        m.push(layers::virtual_speedup_p8(&self.lp, self.cfg)?);

        let path = self.journal_path.with_extension("probe");
        let probes = (|| -> Result<[f64; 3], String> {
            let plain = self.in_process_s(false, &path)?;
            let journaled = self.in_process_s(true, &path)?;
            Ok([plain, journaled, self.resume_s(&path)?])
        })();
        let _ = std::fs::remove_file(&path);
        let [plain, journaled, resume] = probes?;
        let fleet = self.op_secs / (K as u64 * self.acc.ops).max(1) as f64;
        m.extend([
            metric("core.journal_x", journaled / plain, "x"),
            metric("core.journal.resume_s", resume, "s"),
            metric("dist.fleet_x", fleet / journaled, "x"),
            metric("dist.fleet_launch_s", median(&self.launcher.launches), "s"),
            metric(
                "dist.worker_rss_mb",
                crate::host::children_peak_rss_mb(),
                "MiB",
            ),
        ]);
        Ok(m)
    }
}

impl Drop for Spice {
    fn drop(&mut self) {
        // A failed or panicking op may leave its journal behind.
        let _ = std::fs::remove_file(&self.journal_path);
    }
}
