//! The four workloads and what they share: the verification rule, the
//! per-op accounting folded from `RunReport`s, and the seed stream.

pub mod inproc;
pub mod nlfilt;
pub mod serve;
pub mod spice;
pub mod track;

use crate::trace::Tracer;
use rlrpd_core::{ArrayKind, RunReport, SpecLoop};
use std::path::PathBuf;

pub const NAMES: [&str; 4] = [
    "track_doall",
    "nlfilt_partial",
    "spice_durable_fleet",
    "serve_mix",
];

/// What every workload is built from.
#[derive(Clone)]
pub struct Env {
    pub seed: u64,
    /// Processor count of every run (`nproc` of the unpinned host).
    pub p: usize,
    /// Scratch directory for journals and daemon state (`bench/out/…`).
    pub out_dir: PathBuf,
}

/// Final arrays as the engine returns them.
pub type Arrays = Vec<(&'static str, Vec<f64>)>;

/// SplitMix64: the harness's only source of randomness, keyed by
/// `--seed`.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Give a DSL deck a seed-derived initial value: replaces the source's
/// `from` initialiser (`"= 1;"`) and returns the value. The generated
/// source keeps its reference structure (subscripts depend on `i`
/// only) while every datum the program sees comes from `--seed`.
pub fn seeded_source(src: String, from: &str, seed: u64) -> (String, f64) {
    let literal = format!("{:.6}", 1.0 + SplitMix(seed).unit());
    assert!(
        src.contains(from),
        "deck source lost its '{from}' initialiser"
    );
    let init = literal.parse().expect("a decimal literal");
    (src.replacen(from, &format!("= {literal};"), 1), init)
}

/// Which declared arrays carry a reduction operator (declaration
/// order).
pub fn reduction_mask(lp: &dyn SpecLoop<f64>) -> Vec<bool> {
    lp.arrays()
        .iter()
        .map(|d| {
            matches!(
                d.kind,
                ArrayKind::Tested {
                    reduction: Some(_),
                    ..
                }
            )
        })
        .collect()
}

/// The result check applied to every op: each array must equal the
/// sequential reference bit for bit (`f64::to_bits`), except declared
/// reductions — a parallel fold reassociates the sum, so those compare
/// at the CLI's rounding tolerance (`1e-9 · max(|x|, 1)`).
pub fn verify(reference: &Arrays, got: &Arrays, reductions: &[bool]) -> Result<(), String> {
    if reference.len() != got.len() {
        return Err(format!(
            "{} arrays returned, {} expected",
            got.len(),
            reference.len()
        ));
    }
    for (((name, want), (_, have)), &reduction) in reference.iter().zip(got).zip(reductions) {
        if want.len() != have.len() {
            return Err(format!(
                "array {name}: length {} != {}",
                have.len(),
                want.len()
            ));
        }
        let bad = if reduction {
            want.iter()
                .zip(have)
                .position(|(a, b)| (a - b).abs() > 1e-9 * a.abs().max(1.0))
        } else {
            want.iter()
                .zip(have)
                .position(|(a, b)| a.to_bits() != b.to_bits())
        };
        if let Some(k) = bad {
            return Err(format!(
                "array {name}[{k}] = {} differs from sequential execution ({})",
                have[k], want[k]
            ));
        }
    }
    Ok(())
}

/// What the runs of the timed ops reported about themselves: seconds
/// summed over every op, and the exact counts of the most recent op.
#[derive(Clone, Debug, Default)]
pub struct Acc {
    pub ops: u64,
    pub execute_s: f64,
    pub analysis_s: f64,
    pub commit_s: f64,
    pub restore_s: f64,
    pub shadow_clear_s: f64,
    pub journal_s: f64,
    pub dispatch_s: f64,
    pub collect_s: f64,
    /// Bytes over worker pipes (heartbeats included, so not exact).
    pub wire_bytes: u64,
    /// Stages of all timed ops (the base of per-stage means).
    pub stages: u64,
    pub counts: Counts,
}

/// Exact, host-independent counts of one op. Two runs with one seed
/// must agree on every field.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub runs: u64,
    pub iters: u64,
    pub stages: u64,
    pub restarts: u64,
    pub iters_attempted: u64,
    pub journal_bytes: u64,
    pub journal_commits: u64,
    pub shadow_bytes_peak: u64,
    pub shadow_migrations: u64,
}

impl Counts {
    /// Fold one run of `iters` iterations into this op's counts.
    pub fn add(&mut self, iters: usize, r: &RunReport) {
        self.runs += 1;
        self.iters += iters as u64;
        self.stages += r.stages.len() as u64;
        self.restarts += r.restarts as u64;
        self.iters_attempted += r
            .stages
            .iter()
            .map(|s| s.iters_attempted as u64)
            .sum::<u64>();
        self.journal_bytes += r.journal_bytes();
        self.shadow_bytes_peak = self.shadow_bytes_peak.max(r.shadow_bytes_peak());
        self.shadow_migrations += r.shadow_migrations() as u64;
    }

    /// Parallelism ratio: instantiations ÷ (restarts + instantiations).
    pub fn pr(&self) -> f64 {
        self.runs as f64 / (self.restarts + self.runs).max(1) as f64
    }

    /// Share of executed iterations that were re-executions.
    pub fn reexec_share(&self) -> f64 {
        if self.iters_attempted == 0 {
            return 0.0;
        }
        self.iters_attempted.saturating_sub(self.iters) as f64 / self.iters_attempted as f64
    }
}

impl Acc {
    /// Close one op. Its counts must equal the previous op's: the op is
    /// fixed work, so a count that moves inside a run is a failure.
    pub fn op_done(&mut self, counts: Counts) -> Result<(), String> {
        if self.ops > 0 && counts != self.counts {
            return Err(format!(
                "op counts changed between ops: {:?} then {counts:?}",
                self.counts
            ));
        }
        self.ops += 1;
        self.counts = counts;
        Ok(())
    }

    /// Fold another set-up's accumulator in; its ops must have counted
    /// exactly what this one's did.
    pub fn absorb(&mut self, other: &Acc) -> Result<(), String> {
        if self.ops > 0 && other.ops > 0 && self.counts != other.counts {
            return Err(format!(
                "op counts changed between set-ups: {:?} then {:?}",
                self.counts, other.counts
            ));
        }
        if other.ops > 0 {
            self.counts = other.counts.clone();
        }
        self.ops += other.ops;
        self.execute_s += other.execute_s;
        self.analysis_s += other.analysis_s;
        self.commit_s += other.commit_s;
        self.restore_s += other.restore_s;
        self.shadow_clear_s += other.shadow_clear_s;
        self.journal_s += other.journal_s;
        self.dispatch_s += other.dispatch_s;
        self.collect_s += other.collect_s;
        self.wire_bytes += other.wire_bytes;
        self.stages += other.stages;
        Ok(())
    }

    /// Account one finished run: its self-reported seconds become child
    /// spans of the open `core.run` span and add to the totals.
    pub fn run(&mut self, tr: &mut Tracer, r: &RunReport) {
        let ph = r.phase_totals();
        self.wire_bytes += r.wire_bytes();
        self.stages += r.stages.len() as u64;
        // A distributed stage's execute phase *is* its dispatch +
        // collect (plus reply decoding); split it so neither is counted
        // twice.
        let (dispatch, collect) = (r.dispatch_seconds(), r.collect_seconds());
        let execute = (ph.execute_seconds - dispatch - collect).max(0.0);
        for (name, total, secs) in [
            ("core.execute", &mut self.execute_s, execute),
            ("dist.dispatch", &mut self.dispatch_s, dispatch),
            ("dist.collect", &mut self.collect_s, collect),
            ("core.analysis", &mut self.analysis_s, ph.analysis_seconds),
            ("core.commit", &mut self.commit_s, ph.commit_seconds),
            ("core.restore", &mut self.restore_s, ph.restore_seconds),
            (
                "core.shadow_clear",
                &mut self.shadow_clear_s,
                ph.shadow_clear_seconds,
            ),
            ("core.journal", &mut self.journal_s, r.journal_seconds()),
        ] {
            *total += secs;
            tr.reported(name, secs);
        }
    }
}

/// One named number with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A workload after set-up: deck built, reference result computed,
/// pool / fleet / daemon up, warm-up ops done.
pub trait Workload {
    /// One plain sequential execution of the deck behind one op
    /// (`run_sequential`; for `serve_mix`, of every spec of a batch).
    fn seq(&mut self);

    /// How many [`Workload::seq`] passes one op's work equals (`K`
    /// instantiations per op; 1 ÷ batch size for `serve_mix`).
    fn seq_per_op(&self) -> f64;

    /// One timed round: run the round's ops, each request → result
    /// verified, pushing every op's wall seconds onto `jobs`. Returns
    /// the round's op sample: the op's wall where a round is one op,
    /// the batch's mean job latency for `serve_mix`. `Err` is a failed
    /// op.
    fn round(&mut self, tr: &mut Tracer, jobs: &mut Vec<f64>) -> Result<f64, String>;

    /// Self-reported seconds and exact counts of the timed ops so far.
    fn acc(&self) -> &Acc;

    /// Workload-specific per-layer metrics (traced run only): probes
    /// of the layers this workload exercises, run after the window.
    fn layers(&mut self) -> Result<Vec<Metric>, String>;
}

/// Build workload `name`: everything `setup_s` covers.
pub fn setup(name: &str, env: &Env, tr: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    fn boxed<W: Workload + 'static>(w: W) -> Box<dyn Workload> {
        Box::new(w)
    }
    match name {
        "track_doall" => track::Track::setup(env, tr).map(boxed),
        "nlfilt_partial" => nlfilt::Nlfilt::setup(env, tr).map(boxed),
        "spice_durable_fleet" => spice::Spice::setup(env, tr).map(boxed),
        "serve_mix" => serve::Serve::setup(env, tr).map(boxed),
        other => Err(format!(
            "unknown workload '{other}' (have: {})",
            NAMES.join(", ")
        )),
    }
}
