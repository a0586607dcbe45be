//! An op that is `K` back-to-back in-process `Runner::run`s of one
//! deck — the shape `track_doall` and `nlfilt_partial` share.

use super::{reduction_mask, verify, Acc, Arrays, Counts};
use crate::trace::Tracer;
use rlrpd_core::{run_sequential, RunConfig, RunReport, Runner, SpecLoop};
use std::hint::black_box;

pub struct InProc {
    pub lp: Box<dyn SpecLoop<f64>>,
    pub cfg: RunConfig,
    pub k: usize,
    pub reference: Arrays,
    reductions: Vec<bool>,
    runner: Runner,
    /// The workload's shape guard, applied to every run's report.
    check: fn(&RunReport) -> Result<(), String>,
    pub acc: Acc,
}

impl InProc {
    /// Reference result by plain sequential execution, then `warmups`
    /// untimed ops.
    pub fn setup(
        lp: Box<dyn SpecLoop<f64>>,
        cfg: RunConfig,
        k: usize,
        warmups: usize,
        check: fn(&RunReport) -> Result<(), String>,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        let s = tr.begin("setup.reference");
        let (reference, _) = run_sequential(lp.as_ref());
        tr.end(s);
        let mut w = InProc {
            reductions: reduction_mask(lp.as_ref()),
            runner: Runner::new(cfg),
            lp,
            cfg,
            k,
            reference,
            check,
            acc: Acc::default(),
        };
        let s = tr.begin("setup.warmup");
        for _ in 0..warmups {
            w.op(&mut Tracer::new(false))?;
        }
        tr.end(s);
        w.acc = Acc::default();
        Ok(w)
    }

    pub fn seq(&mut self) {
        black_box(run_sequential(self.lp.as_ref()));
    }

    /// One op: `K` instantiations, each run → shape guard → verified
    /// against the sequential reference.
    pub fn op(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let mut counts = Counts::default();
        for _ in 0..self.k {
            let s = tr.begin("core.run");
            let res = self
                .runner
                .try_run(self.lp.as_ref())
                .map_err(|e| format!("run failed: {e}"));
            if let Ok(res) = &res {
                self.acc.run(tr, &res.report);
            }
            tr.end(s);
            let res = res?;
            if let Some(reason) = res.report.fallback {
                return Err(format!("run fell back unexpectedly: {reason:?}"));
            }
            (self.check)(&res.report)?;
            let s = tr.begin("bench.verify");
            let ok = verify(&self.reference, &res.arrays, &self.reductions);
            tr.end(s);
            ok?;
            counts.add(self.lp.num_iters(), &res.report);
        }
        self.acc.op_done(counts)
    }
}
