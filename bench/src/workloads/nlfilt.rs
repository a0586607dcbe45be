//! `nlfilt_partial`: the native NLFILT_300 kernel under a fixed sliding
//! window — many short stages with restarts over a 16 MiB checkpointed
//! `STATE` and a tiny closure body, so the stage machinery of `core`
//! and the dispatch of `runtime` are the op. No DSL anywhere: a change
//! to `lang` must not move this workload.

use super::inproc::InProc;
use super::{Acc, Env, Metric, Workload};
use crate::layers;
use crate::trace::Tracer;
use rlrpd_core::{ExecMode, RunConfig, RunReport, Strategy, WindowConfig};
use rlrpd_loops::{NlfiltInput, NlfiltLoop};

/// `STATE` is `16 · N` doubles = 16 MiB, the largest array the
/// allocator settings keep on the warm heap.
const N: usize = 131_072;
const WINDOW: usize = 64;
/// Instantiations per op.
const K: usize = 5;
const WARMUPS: usize = 1;

pub struct Nlfilt {
    inner: InProc,
}

fn restarted(r: &RunReport) -> Result<(), String> {
    if r.restarts > 0 {
        Ok(())
    } else {
        Err("nlfilt_partial must be partially parallel, but no stage restarted".into())
    }
}

impl Nlfilt {
    pub fn setup(env: &Env, tr: &mut Tracer) -> Result<Self, String> {
        let s = tr.begin("setup.deck");
        let lp = NlfiltLoop::new(NlfiltInput {
            name: "bench",
            n: N,
            slots: N,
            write_rate: 0.012,
            max_distance: 24,
            seed: env.seed,
        });
        tr.end(s);
        let cfg = RunConfig::new(env.p)
            .with_exec(ExecMode::Pooled)
            .with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(WINDOW)));
        let inner = InProc::setup(Box::new(lp), cfg, K, WARMUPS, restarted, tr)?;
        Ok(Nlfilt { inner })
    }
}

impl Workload for Nlfilt {
    fn seq(&mut self) {
        self.inner.seq()
    }

    fn seq_per_op(&self) -> f64 {
        K as f64
    }

    fn round(&mut self, tr: &mut Tracer, jobs: &mut Vec<f64>) -> Result<f64, String> {
        layers::timed_op(tr, jobs, |tr| self.inner.op(tr))
    }

    fn acc(&self) -> &Acc {
        &self.inner.acc
    }

    fn layers(&mut self) -> Result<Vec<Metric>, String> {
        // NUSED's address stream: each iteration reads its own slot and
        // both neighbours; the rare guarded write is left to the engine
        // run (its rate is the deck's secret, not the probe's).
        let mut m = layers::shadow_marks(N, 3 * N, |k| ((k / 3 + k % 3 + N - 1) % N, None));
        m.push(layers::virtual_speedup_p8(
            self.inner.lp.as_ref(),
            self.inner.cfg,
        )?);
        Ok(m)
    }
}
