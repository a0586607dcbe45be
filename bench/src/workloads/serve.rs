//! `serve_mix`: an in-process `rlrpd serve` daemon under a closed loop
//! of `nproc` clients, each submitting its next job when the previous
//! one reached its terminal status. An op is one job, `submit` →
//! verified terminal frame: admission, round-robin queueing, the
//! journal as progress stream, TCP frames and the daemon's own
//! re-verification are the work. The only workload where concurrency,
//! not a single run, sets the result.

use super::{metric, Acc, Counts, Env, Metric, SplitMix, Workload};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use rlrpd_core::remote::{
    frame_kind, read_frame, write_frame, FrontierSummary, JobDecision, JobSpec, JobState,
    JobStatusFrame, FRAME_STATUS, FRAME_SUMMARY, SERVE_PROTOCOL_VERSION,
};
use rlrpd_core::{run_sequential, SpecLoop};
use rlrpd_lang::CompiledLoop;
use rlrpd_serve::{query_status, submit, ClientOptions, Daemon, DaemonHandle, ServeConfig};
use std::hint::black_box;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Jobs per batch. Every batch holds the same jobs — equal work, so
/// its counts repeat — in an order and under tenants drawn anew from
/// the seed stream, so a run's median is over many orders, not one.
const BATCH: usize = 20;
const TENANTS: u64 = 3;
const WARMUP_BATCHES: usize = 1;

/// One kind of job in the mix.
struct Kind {
    src: String,
    strategy: &'static str,
    /// Jobs of this kind per batch.
    share: usize,
    lp: CompiledLoop,
}

/// The mix: a cheap, a middle and an expensive kind at 5 : 10 : 5, so
/// the median job of a batch is always a middle-kind job — the seed
/// draws order and tenants, never how much work a batch holds.
///
/// `track_dsl` is not in the mix: the daemon re-verifies with strict
/// `==` against sequential execution, which a reassociated `ENERGY`
/// reduction fails, so its jobs end `verified = false`.
fn kinds() -> Result<Vec<Kind>, String> {
    use rlrpd_loops::dsl::{nlfilt_dsl, spice_dsl};
    [
        // small SPICE: every window restarts, many small commits
        (spice_dsl(1 << 12), "sw:256", 5),
        // medium NLFILT under a window: data-dependent guard, large
        // commit deltas
        (nlfilt_dsl(1 << 17), "sw:8192", 10),
        // large NLFILT under the default strategy: few, large stages
        (nlfilt_dsl(1 << 18), "adaptive", 5),
    ]
    .into_iter()
    .map(|(src, strategy, share)| {
        let lp = rlrpd_lang::compile(&src).map_err(|e| format!("mix deck: {e}"))?;
        Ok(Kind {
            src,
            strategy,
            share,
            lp,
        })
    })
    .collect()
}

/// Harness-side timestamps of one job followed frame by frame.
struct Stamps {
    submit: Instant,
    decision: Instant,
    first_frame: Instant,
    last_frame: Instant,
    status: Instant,
}

/// What a finished job told its client.
struct Done {
    status: JobStatusFrame,
    /// Journal frames streamed to the client (header included).
    frames: u64,
    /// Frames the daemon dropped from the stream instead.
    dropped: u64,
    stamps: Option<Stamps>,
}

/// One client's jobs of a batch: `(latency, outcome)` in submit order.
type ClientJobs = Vec<(f64, Result<Done, String>)>;

/// The traced client: the same exchange as `rlrpd_serve::submit`
/// (submit frame, decision frame, journal stream, status frame), with
/// a timestamp at every frame boundary. No retries — a traced job that
/// loses its connection is a failed op.
fn submit_traced(addr: &str, spec: &JobSpec) -> Result<Done, String> {
    let t_submit = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    write_frame(&mut stream, &spec.encode()).map_err(|e| format!("submit: {e}"))?;
    let frame = read_frame(&mut stream)
        .map_err(|e| format!("decision: {e}"))?
        .ok_or("daemon hung up before its decision")?;
    let t_decision = Instant::now();
    match JobDecision::decode(&frame).map_err(|e| format!("decision frame: {e:?}"))? {
        JobDecision::Rejected(r) => return Err(format!("rejected: {r}")),
        JobDecision::Accepted | JobDecision::Queued | JobDecision::Attached => {}
    }
    let (mut first, mut last, mut frames, mut dropped) = (None, t_decision, 0, 0);
    loop {
        let frame = read_frame(&mut stream)
            .map_err(|e| format!("stream: {e}"))?
            .ok_or("daemon hung up mid-stream")?;
        let now = Instant::now();
        match frame_kind(&frame) {
            Some(FRAME_STATUS) => {
                let status =
                    JobStatusFrame::decode(&frame).map_err(|e| format!("status frame: {e:?}"))?;
                return Ok(Done {
                    status,
                    frames,
                    dropped,
                    stamps: Some(Stamps {
                        submit: t_submit,
                        decision: t_decision,
                        first_frame: first.unwrap_or(now),
                        last_frame: last,
                        status: now,
                    }),
                });
            }
            Some(FRAME_SUMMARY) => {
                if let Ok(s) = FrontierSummary::decode(&frame) {
                    dropped += s.dropped;
                }
            }
            _ => {
                frames += 1;
                first.get_or_insert(now);
                last = now;
            }
        }
    }
}

pub struct Serve {
    kinds: Vec<Kind>,
    rng: SplitMix,
    daemon: Option<DaemonHandle>,
    state_dir: PathBuf,
    clients: usize,
    p: u32,
    next_key: u64,
    acc: Acc,
    // Traced-run samples, one per job.
    queue_ms: Vec<f64>,
    verify_share: Vec<f64>,
    latencies: Vec<f64>,
    dropped: u64,
    batch_secs: f64,
    last_key: u64,
}

impl Serve {
    pub fn setup(env: &Env, tr: &mut Tracer) -> Result<Self, String> {
        let s = tr.begin("lang.compile");
        let kinds = kinds();
        tr.end(s);
        let kinds = kinds?;
        let mut rng = SplitMix(env.seed);

        let s = tr.begin("serve.start");
        let state_dir = env.out_dir.join("serve-state");
        let _ = std::fs::remove_dir_all(&state_dir);
        let daemon = Daemon::start(ServeConfig {
            state_dir: state_dir.clone(),
            max_jobs: env.p,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("daemon start: {e}"));
        tr.end(s);
        let mut w = Serve {
            kinds,
            daemon: Some(daemon?),
            state_dir,
            clients: env.p,
            p: env.p as u32,
            // Job keys: tenant in the upper half, a seed-derived running
            // number in the lower.
            next_key: rng.next() & 0x7fff_ffff,
            rng,
            acc: Acc::default(),
            queue_ms: Vec::new(),
            verify_share: Vec::new(),
            latencies: Vec::new(),
            dropped: 0,
            batch_secs: 0.0,
            last_key: 0,
        };
        let s = tr.begin("setup.warmup");
        // Every client on the most expensive kind at once: the resident
        // set reaches its high-water mark here, not at whichever moment
        // of the window two such jobs first overlap.
        let largest = w.kinds.len() - 1;
        let prime: Vec<(usize, u64)> = (0..w.clients).map(|c| (largest, 1 + c as u64)).collect();
        w.closed_loop(&prime, &mut Tracer::new(false), &mut Vec::new())?;
        for _ in 0..WARMUP_BATCHES {
            w.batch(&mut Tracer::new(false), &mut Vec::new())?;
        }
        tr.end(s);
        w.acc = Acc::default();
        w.latencies.clear();
        w.batch_secs = 0.0;
        Ok(w)
    }

    fn addr(&self) -> String {
        self.daemon
            .as_ref()
            .expect("daemon runs until drop")
            .addr()
            .to_string()
    }

    fn spec(&self, kind: usize, key: u64) -> JobSpec {
        JobSpec {
            protocol: SERVE_PROTOCOL_VERSION,
            key,
            spec: format!("rlp:{}", self.kinds[kind].src),
            p: self.p,
            strategy: self.kinds[kind].strategy.into(),
            budget_bytes: 0,
            fault_seed: 0,
            shadow_fault: String::new(),
            max_stages: 0,
        }
    }

    /// `(kind, tenant)` per job of the next batch: the fixed composition,
    /// shuffled, each job under a drawn tenant.
    fn draw_plan(&mut self) -> Vec<(usize, u64)> {
        let mut plan: Vec<(usize, u64)> = self
            .kinds
            .iter()
            .enumerate()
            .flat_map(|(k, kind)| std::iter::repeat_n(k, kind.share))
            .map(|k| (k, 1 + self.rng.next() % TENANTS))
            .collect();
        assert_eq!(plan.len(), BATCH, "the kinds' shares make one batch");
        for i in (1..plan.len()).rev() {
            plan.swap(i, (self.rng.next() % (i as u64 + 1)) as usize);
        }
        plan
    }

    /// One batch; returns its mean job latency. With every
    /// client always holding exactly one job, that mean is `clients ×
    /// batch wall ÷ jobs` (Little's law), so unlike a batch median it
    /// does not depend on which jobs happened to run side by side.
    fn batch(&mut self, tr: &mut Tracer, jobs: &mut Vec<f64>) -> Result<f64, String> {
        let plan = self.draw_plan();
        let before = jobs.len();
        self.closed_loop(&plan, tr, jobs)?;
        let mine = &jobs[before..];
        Ok(mine.iter().sum::<f64>() / mine.len().max(1) as f64)
    }

    /// The closed loop: the clients drain `plan` in order, each taking
    /// the next job when its previous one is terminal.
    fn closed_loop(
        &mut self,
        plan: &[(usize, u64)],
        tr: &mut Tracer,
        walls: &mut Vec<f64>,
    ) -> Result<(), String> {
        let addr = self.addr();
        let specs: Vec<JobSpec> = plan
            .iter()
            .enumerate()
            .map(|(j, &(kind, tenant))| self.spec(kind, tenant << 32 | (self.next_key + j as u64)))
            .collect();
        self.next_key += specs.len() as u64;
        self.last_key = specs[specs.len() - 1].key;
        let next = AtomicUsize::new(0);
        let traced = tr.enabled();
        let t_batch = Instant::now();
        let per_client: Vec<(Tracer, ClientJobs)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients)
                .map(|_| {
                    let mut tr = tr.fork();
                    let (addr, specs, next) = (&addr, &specs, &next);
                    s.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let j = next.fetch_add(1, Ordering::SeqCst);
                            let Some(spec) = specs.get(j) else {
                                return (tr, done);
                            };
                            let span = tr.begin("op");
                            let t = Instant::now();
                            let outcome = if traced {
                                submit_traced(addr, spec)
                            } else {
                                submit(addr, spec, &ClientOptions::default())
                                    .map(|o| Done {
                                        status: o.status,
                                        frames: o.frames,
                                        dropped: o.dropped,
                                        stamps: None,
                                    })
                                    .map_err(|e| e.to_string())
                            };
                            let wall = t.elapsed().as_secs_f64();
                            if let Ok(Done {
                                stamps: Some(st), ..
                            }) = &outcome
                            {
                                tr.measured("serve.admission", st.submit, st.decision);
                                tr.measured("serve.queue", st.decision, st.first_frame);
                                tr.measured("serve.run", st.first_frame, st.last_frame);
                                tr.measured("serve.verify", st.last_frame, st.status);
                            }
                            tr.end(span);
                            done.push((wall, outcome));
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        self.batch_secs += t_batch.elapsed().as_secs_f64();

        let mut counts = Counts::default();
        let mut failure = None;
        for (client_tr, jobs) in per_client {
            tr.join(client_tr);
            for (wall, outcome) in jobs {
                walls.push(wall);
                self.latencies.push(wall);
                match outcome.and_then(|d| self.settle(d, wall, &mut counts)) {
                    Ok(()) => {}
                    Err(e) => failure = failure.or(Some(e)),
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None if plan.len() == BATCH => self.acc.op_done(counts),
            None => Ok(()),
        }
    }

    /// Check one terminal status and fold its report into the batch's
    /// counts.
    fn settle(&mut self, d: Done, wall: f64, counts: &mut Counts) -> Result<(), String> {
        let st = &d.status;
        if st.state != JobState::Done || st.exit_code != 0 {
            return Err(format!(
                "job {:016x} ended {:?} (exit {}): {}",
                st.key, st.state, st.exit_code, st.message
            ));
        }
        if !st.verified {
            return Err(format!(
                "job {:016x}: the daemon could not verify its result against sequential execution",
                st.key
            ));
        }
        let field = |name: &str| -> Result<u64, String> {
            let tag = format!("\"{name}\":");
            let rest = st
                .report_json
                .split_once(&tag)
                .ok_or(format!("status report lacks {name}"))?
                .1;
            rest[..rest.find([',', '}']).unwrap_or(rest.len())]
                .parse()
                .map_err(|_| format!("status report: {name} is not a count"))
        };
        if st.report_json.contains("\"fallback\":\"") {
            return Err(format!("job {:016x} fell back: {}", st.key, st.report_json));
        }
        counts.runs += 1;
        counts.iters += st.frontier;
        counts.stages += field("stages")?;
        counts.restarts += field("restarts")?;
        counts.journal_bytes += field("journal_bytes")?;
        // The stream is the journal: one header, then one frame per commit.
        counts.journal_commits += (d.frames + d.dropped).saturating_sub(1);
        counts.shadow_bytes_peak = counts.shadow_bytes_peak.max(field("shadow_bytes_peak")?);
        counts.shadow_migrations += field("shadow_migrations")?;
        if let Some(s) = d.stamps {
            let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
            self.queue_ms.push(ms(s.decision, s.first_frame));
            self.verify_share
                .push(100.0 * ms(s.last_frame, s.status) / (wall * 1e3));
        }
        self.dropped += d.dropped;
        Ok(())
    }
}

impl Workload for Serve {
    fn seq(&mut self) {
        for kind in &self.kinds {
            for _ in 0..kind.share {
                black_box(run_sequential(&kind.lp));
            }
        }
    }

    fn seq_per_op(&self) -> f64 {
        1.0 / BATCH as f64
    }

    fn round(&mut self, tr: &mut Tracer, jobs: &mut Vec<f64>) -> Result<f64, String> {
        self.batch(tr, jobs)
    }

    fn acc(&self) -> &Acc {
        &self.acc
    }

    fn layers(&mut self) -> Result<Vec<Metric>, String> {
        let addr = self.addr();
        let opts = ClientOptions::default();
        // Idle daemon: status round trip on a finished job.
        let mut rtt = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            let st = query_status(&addr, self.last_key, &opts).map_err(|e| e.to_string())?;
            rtt.push(t.elapsed().as_secs_f64() * 1e3);
            if st.state != JobState::Done {
                return Err(format!("finished job reads {:?}", st.state));
            }
        }
        // Idle daemon: submit → decision frame, on the smallest job.
        let mut admission = Vec::new();
        let small = (0..self.kinds.len())
            .min_by_key(|&k| self.kinds[k].lp.num_iters())
            .expect("three kinds");
        for _ in 0..10 {
            let spec = self.spec(small, 9 << 32 | self.next_key);
            self.next_key += 1;
            let d = submit_traced(&addr, &spec)?;
            let s = d.stamps.expect("traced client stamps every job");
            admission.push(s.decision.saturating_duration_since(s.submit).as_secs_f64() * 1e3);
        }
        let compile_s: f64 = self
            .kinds
            .iter()
            .map(|k| {
                let t = Instant::now();
                black_box(rlrpd_lang::compile(&k.src).is_ok());
                t.elapsed().as_secs_f64()
            })
            .sum();
        let instrs: usize = self
            .kinds
            .iter()
            .map(|k| k.lp.as_program().loop_code(0).len())
            .sum();
        Ok(vec![
            metric("lang.compile_s", compile_s, "s"),
            metric("lang.bytecode_instrs", instrs as f64, "count"),
            metric("serve.status_rtt_ms", median(&rtt), "ms"),
            metric("serve.admission_ms", median(&admission), "ms"),
            metric("serve.queue_wait_p50_ms", median(&self.queue_ms), "ms"),
            metric(
                "serve.jobs_per_s",
                self.latencies.len() as f64 / self.batch_secs.max(f64::MIN_POSITIVE),
                "1/s",
            ),
            metric(
                "serve.job_tail_s",
                tail(&self.latencies).map_or(0.0, |(_, v)| v),
                "s",
            ),
            metric("serve.verify_share", median(&self.verify_share), "%"),
            metric("serve.frames_dropped", self.dropped as f64, "count"),
            metric("serve.rejected", 0.0, "count"),
        ])
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Drain and join on every exit path, panics included; the state
        // directory goes with the daemon.
        if let Some(d) = self.daemon.take() {
            d.drain();
            d.join();
        }
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}
