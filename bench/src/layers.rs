//! Per-layer probes: each times calls into one layer's public
//! functions, from outside. They run in the traced invocation only,
//! after the timed window, so they cost the end-to-end numbers nothing.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{metric, Arrays, Metric};
use rlrpd_core::{
    run_sequential, ArrayDecl, ArrayId, BlockReply, BlockRequest, ClosureLoop, CommitRecord,
    ExecMode, Journal, JournalHeader, RunConfig, Runner, ShadowKind, SlotReply, SpecLoop, Strategy,
    WindowConfig,
};
use rlrpd_runtime::WorkerPool;
use rlrpd_shadow::Shadow;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Time one op under an `op` span; push and return its wall seconds.
pub fn timed_op(
    tr: &mut Tracer,
    jobs: &mut Vec<f64>,
    op: impl FnOnce(&mut Tracer) -> Result<(), String>,
) -> Result<f64, String> {
    let s = tr.begin("op");
    let t = Instant::now();
    let r = op(tr);
    let wall = t.elapsed().as_secs_f64();
    tr.end(s);
    r?;
    jobs.push(wall);
    Ok(wall)
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Nanoseconds per iteration of one plain sequential execution of `lp`
/// (no speculation, no marking: body cost alone), and its result.
pub fn seq_ns_per_iter(lp: &dyn SpecLoop<f64>) -> (f64, Arrays) {
    let t = Instant::now();
    let (arrays, _) = run_sequential(lp);
    let ns = t.elapsed().as_secs_f64() * 1e9 / lp.num_iters().max(1) as f64;
    (ns, arrays)
}

/// `lang`: compile time and bytecode size of `src`, and the body cost
/// per iteration on the bytecode VM and on the tree-walk interpreter.
pub fn lang_tiers(src: &str) -> Result<Vec<Metric>, String> {
    let mut compile = Vec::new();
    let mut lp = None;
    for _ in 0..3 {
        let t = Instant::now();
        lp = Some(rlrpd_lang::compile(src).map_err(|e| e.to_string())?);
        compile.push(t.elapsed().as_secs_f64());
    }
    let lp = lp.expect("compiled three times");
    let instrs = lp.as_program().loop_code(0).len();
    let (vm_ns, vm) = seq_ns_per_iter(&lp);
    let lp = lp.with_interpreter();
    let (interp_ns, interp) = seq_ns_per_iter(&lp);
    if vm != interp {
        return Err("bytecode VM and tree-walk interpreter disagree on the deck".into());
    }
    Ok(vec![
        metric("lang.compile_s", median(&compile), "s"),
        metric("lang.bytecode_instrs", instrs as f64, "count"),
        metric("lang.vm_ns_per_iter", vm_ns, "ns"),
        metric("lang.interp_ns_per_iter", interp_ns, "ns"),
    ])
}

/// `shadow`: cost of one mark on each representation, driven by a
/// deck's own address stream (`stream(i)` = the element iteration `i`
/// reads and the element it writes, if any), and of clearing a dense
/// shadow of the deck's size.
pub fn shadow_marks(
    size: usize,
    iters: usize,
    stream: impl Fn(usize) -> (usize, Option<usize>),
) -> Vec<Metric> {
    let mark = |mut sh: Shadow| -> (f64, Shadow) {
        let mut marks = 0u64;
        let t = Instant::now();
        for i in 0..iters {
            let (r, w) = stream(i);
            sh.on_read(r);
            marks += 1;
            if let Some(w) = w {
                sh.on_write(w);
                marks += 1;
            }
        }
        let s = t.elapsed().as_secs_f64();
        black_box(sh.num_touched());
        (s * 1e9 / marks.max(1) as f64, sh)
    };
    let (dense_ns, mut dense) = mark(Shadow::dense(size));
    let (packed_ns, _) = mark(Shadow::packed(size));
    let (sparse_ns, _) = mark(Shadow::sparse());
    let clear = secs(|| dense.clear());
    vec![
        metric("shadow.mark_ns_dense", dense_ns, "ns"),
        metric("shadow.mark_ns_packed", packed_ns, "ns"),
        metric("shadow.mark_ns_sparse", sparse_ns, "ns"),
        metric("shadow.clear_ns_per_elem", clear * 1e9 / size as f64, "ns"),
    ]
}

/// The paper-figure number: virtual speedup of the deck on eight
/// simulated processors (host-independent, so it repeats exactly).
pub fn virtual_speedup_p8(lp: &dyn SpecLoop<f64>, cfg: RunConfig) -> Result<Metric, String> {
    let cfg = RunConfig {
        p: 8,
        exec: ExecMode::Simulated,
        ..cfg
    };
    let res = Runner::new(cfg)
        .try_run(lp)
        .map_err(|e| format!("simulated p=8 run failed: {e}"))?;
    Ok(metric("core.virtual_speedup_p8", res.report.speedup(), "x"))
}

/// `runtime`: round trip of one no-op job through the shared pool.
pub fn pool_dispatch_us(p: usize) -> Metric {
    const TRIPS: usize = 2000;
    let pool = WorkerPool::shared(p);
    let noop = |i: usize| {
        black_box(i);
    };
    for _ in 0..100 {
        pool.run(p, &noop);
    }
    let s = secs(|| {
        for _ in 0..TRIPS {
            pool.run(p, &noop);
        }
    });
    metric("runtime.pool_dispatch_us", s * 1e6 / TRIPS as f64, "us")
}

/// `core`: fixed cost of one stage — a sliding-window run whose body
/// is one private write, wall ÷ stages.
pub fn stage_fixed_us(p: usize) -> Result<Metric, String> {
    const N: usize = 1 << 14;
    let lp = ClosureLoop::new(
        N,
        || vec![ArrayDecl::tested("A", vec![0.0; N], ShadowKind::Dense)],
        |i, ctx| ctx.write(ArrayId(0), i, i as f64),
    );
    let cfg = RunConfig::new(p)
        .with_exec(ExecMode::Pooled)
        .with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(16)));
    let mut runner = Runner::new(cfg);
    runner.try_run(&lp).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let res = runner.try_run(&lp).map_err(|e| e.to_string())?;
    let s = t.elapsed().as_secs_f64();
    let stages = res.report.stages.len().max(1);
    Ok(metric("core.stage_fixed_us", s * 1e6 / stages as f64, "us"))
}

/// `core.journal`: one write-ahead commit append (frame + write +
/// fsync) of a record the size of a typical stage delta.
pub fn journal_append_fsync_us(out_dir: &Path) -> Result<Metric, String> {
    const APPENDS: usize = 64;
    const ELEMS: u32 = 512;
    let path = out_dir.join("probe.journal");
    let result = (|| -> Result<f64, String> {
        let mut j = Journal::create(&path).map_err(|e| e.to_string())?;
        j.append_header(&JournalHeader {
            n: APPENDS * ELEMS as usize,
            p: 1,
            strategy_hash: 0,
            elem_hash: 0,
            arrays: vec![((APPENDS * ELEMS as usize) as u64, true)],
        })
        .map_err(|e| e.to_string())?;
        let mut each = Vec::with_capacity(APPENDS);
        for stage in 0..APPENDS {
            let base = stage as u32 * ELEMS;
            let rec = CommitRecord {
                stage,
                frontier: (base + ELEMS) as usize,
                exited_at: None,
                fallback: false,
                arrays: vec![(0, (base..base + ELEMS).map(|e| (e, e as u64)).collect())],
            };
            let t = Instant::now();
            j.append_commit(rec).map_err(|e| e.to_string())?;
            each.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&each))
    })();
    let _ = std::fs::remove_file(&path);
    Ok(metric("core.journal.append_fsync_us", result? * 1e6, "us"))
}

/// `core.wire`: encode + decode of one block request and one block
/// reply carrying a typical block's marks.
pub fn wire_codec_ns_per_block() -> Result<Metric, String> {
    const BLOCKS: usize = 2000;
    const TOUCHED: u32 = 256;
    let req = BlockRequest {
        chain: 0x1234_5678_9abc_def0,
        stage: 7,
        pos: 1,
        start: 4096,
        end: 8192,
    };
    let reply = BlockReply {
        chain: req.chain,
        pos: 1,
        tested: vec![SlotReply {
            refs: 3 * TOUCHED as u64,
            touched: (0..TOUCHED).map(|e| (e, 2, e as u64)).collect(),
        }],
        iter_costs: (0..TOUCHED).map(|i| (i, 10.0)).collect(),
        ..Default::default()
    };
    let t = Instant::now();
    for _ in 0..BLOCKS {
        let bytes = req.encode(0);
        let (back, _) = BlockRequest::decode(&bytes).map_err(|e| format!("{e:?}"))?;
        let bytes = black_box(&reply).encode();
        let reply_back = BlockReply::decode(&bytes).map_err(|e| format!("{e:?}"))?;
        if back != req || reply_back.tested.len() != 1 {
            return Err("wire codec round trip changed a block".into());
        }
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / BLOCKS as f64;
    Ok(metric("core.wire.codec_ns_per_block", ns, "ns"))
}
