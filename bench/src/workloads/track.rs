//! `track_doall`: the TRACK DSL deck at a size where no dependence
//! materialises at run time — one stage, so the op is body execution
//! plus shadow marking and nothing else.

use super::inproc::InProc;
use super::{metric, seeded_source, Acc, Env, Metric, Workload};
use crate::layers;
use crate::trace::Tracer;
use rlrpd_core::{
    ArrayDecl, ArrayId, ClosureLoop, ExecMode, Reduction, RunConfig, RunReport, ShadowKind,
};

/// `11 · 2^17`: with `11 | n` the gather `(11·i + 3) mod n` only reads
/// elements `≡ 3 (mod 11)` and the guarded scatter only writes
/// `≡ 10 (mod 11)`, so the loop is a doall at run time while the
/// compiler must still classify `STATE` as tested. (`n = 2^20`
/// restarts twice.)
const N: usize = 11 << 17;
/// Instantiations per op.
const K: usize = 2;
const WARMUPS: usize = 1;

pub struct Track {
    inner: InProc,
    src: String,
    /// Seed-derived initial value of `STATE`.
    init: f64,
}

fn one_stage(r: &RunReport) -> Result<(), String> {
    if r.stages.len() == 1 && r.restarts == 0 {
        Ok(())
    } else {
        Err(format!(
            "track_doall must run as one stage, got {} stages / {} restarts",
            r.stages.len(),
            r.restarts
        ))
    }
}

impl Track {
    pub fn setup(env: &Env, tr: &mut Tracer) -> Result<Self, String> {
        let s = tr.begin("setup.deck");
        let (src, init) = seeded_source(rlrpd_loops::dsl::track_dsl(N), "= 1;", env.seed);
        tr.end(s);
        let s = tr.begin("lang.compile");
        let lp = rlrpd_lang::compile(&src).map_err(|e| format!("TRACK deck: {e}"));
        tr.end(s);
        let cfg = RunConfig::new(env.p).with_exec(ExecMode::Pooled);
        let inner = InProc::setup(Box::new(lp?), cfg, K, WARMUPS, one_stage, tr)?;
        Ok(Track { inner, src, init })
    }
}

/// The TRACK body as a hand-written closure — the native tier the
/// compiled tiers are measured against (same references, same
/// arithmetic, same declarations).
fn native_twin(n: usize, init: f64) -> ClosureLoop {
    const STATE: ArrayId = ArrayId(0);
    const WORK: ArrayId = ArrayId(1);
    const ENERGY: ArrayId = ArrayId(2);
    ClosureLoop::new(
        n,
        move || {
            vec![
                ArrayDecl::tested("STATE", vec![init; n + 88], ShadowKind::Dense),
                ArrayDecl::untested("WORK", vec![0.0; n]),
                ArrayDecl::reduction("ENERGY", vec![0.0; 16], ShadowKind::Dense, Reduction::sum()),
            ]
        },
        move |i, ctx| {
            let fi = i as f64;
            let src = (i * 11 + 3) % n;
            let z = ctx.read(STATE, src);
            let pr = z * 0.975 + fi * 0.001;
            let rs = z - pr * 0.955;
            let w = rs.abs() * 0.25 + 0.125;
            let g = (w * 0.5 + 0.0625).min(0.9);
            let up = pr + g * rs;
            let vel = z * 0.03 + pr * 0.01;
            let acc = rs * 0.005 + vel * 0.875;
            let p2 = up * 1.01 + vel * 0.125;
            let bias = p2 * 0.0625 + acc * 0.25;
            let damp = (bias * 0.5 + acc * 0.125).max(0.0375);
            let e2 = rs * rs * 0.5 + up * up * 0.0225;
            let sc = up.abs() * 0.0125 + w * 0.75;
            let q = (e2 + 1.0).sqrt();
            let nv = up * 0.96875 + q * 0.03125;
            let jr = acc * 0.375 + bias * 0.0125;
            let fl = damp * 0.8125 + jr * 0.1875;
            let d2 = vel * 0.4375 + acc * 0.5625;
            let g2 = g * 0.96875 + w * 0.03125;
            let h2 = d2 * g2 + fl * 0.375;
            let en = e2 * 0.9375 + h2 * h2;
            let mx = sc * 0.5625 + en * 0.0625;
            let t2 = h2 * 0.5 + mx * 0.25;
            ctx.write(WORK, i, nv * 0.875 + t2 * 0.125);
            if i % 32 == 0 {
                ctx.write(STATE, src + 40, nv * 0.5 + z * 0.5);
            }
            ctx.reduce(ENERGY, i % 16, en * 0.5 + damp * damp);
        },
    )
}

impl Workload for Track {
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
        let mut m = layers::lang_tiers(&self.src)?;
        // The twin must stay a twin: its sequential result is held to
        // the deck's reference, bit for bit.
        let native = native_twin(N, self.init);
        let (ns, arrays) = layers::seq_ns_per_iter(&native);
        super::verify(&self.inner.reference, &arrays, &[false; 3])
            .map_err(|e| format!("native TRACK twin diverged from the DSL deck: {e}"))?;
        m.push(metric("lang.native_ns_per_iter", ns, "ns"));
        // The deck's address stream on its tested array: one gather per
        // iteration, one guarded scatter every 32nd.
        m.extend(layers::shadow_marks(N + 88, N, |i| {
            let src = (i * 11 + 3) % N;
            (src, (i % 32 == 0).then_some(src + 40))
        }));
        m.push(layers::virtual_speedup_p8(
            self.inner.lp.as_ref(),
            self.inner.cfg,
        )?);
        Ok(m)
    }
}
