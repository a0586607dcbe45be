//! SPICE2G6 kernels (Fig. 6).
//!
//! SPICE's arrays are all equivalenced to one large workspace (`VALUE`)
//! and referenced through multiple levels of indirection — "a 'total'
//! workspace aliasing problem" — so none of them are compiler
//! analyzable, and because addresses depend on data the loops produce,
//! no proper inspector exists either. The paper parallelizes three
//! loops:
//!
//! * **DCDCMP loop 15** (sparse LU decomposition,
//!   [`Dcdcmp15Loop`]) — partially parallel with a dependence structure
//!   given by the circuit topology. The paper extracts the DDG with the
//!   sparse sliding-window R-LRPD test and generates a reusable
//!   wavefront schedule (14337 iterations, critical path 334 for the
//!   `adder.128` deck).
//! * **DCDCMP loop 70** ([`Dcdcmp70Loop`]) — fully parallel with a
//!   premature exit.
//! * **BJT model evaluation** ([`BjtLoop`]) — devices update the sparse
//!   Y matrix through reductions; validated with the sparse LRPD test
//!   plus sparse reduction parallelization. The linked-list traversal
//!   order is pre-distributed (the paper's speculative list-traversal
//!   technique), modeled here as a precomputed device permutation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlrpd_core::{ArrayDecl, ArrayId, IterCtx, Reduction, ShadowKind, SpecLoop};

/// Sparse-LU kernel: DCDCMP loop 15.
///
/// The synthetic "circuit": iteration `j` eliminates unknown `j`,
/// reading the already-eliminated unknowns it is coupled to (its
/// *parents* in the factorization DAG) and writing slot `j`. The
/// generator shapes the DAG into `target_cp` topological levels so the
/// extracted wavefront schedule lands near the paper's adder.128
/// numbers (n = 14337, CP = 334) by default.
#[derive(Clone, Debug)]
pub struct Dcdcmp15Loop {
    n: usize,
    parents: Vec<Vec<u32>>,
}

const X: ArrayId = ArrayId(0);

impl Dcdcmp15Loop {
    /// A synthetic deck with `n` unknowns shaped into `target_cp`
    /// elimination levels.
    pub fn new(n: usize, target_cp: usize, seed: u64) -> Self {
        assert!(target_cp >= 1 && target_cp <= n.max(1));
        let mut rng = StdRng::seed_from_u64(seed);
        let per_level = n.div_ceil(target_cp);
        let parents = (0..n)
            .map(|j| {
                let level = j / per_level;
                if level == 0 {
                    return Vec::new();
                }
                let prev = (level - 1) * per_level..(level * per_level).min(n);
                let fanin = rng.random_range(1..=3usize);
                let mut ps: Vec<u32> = (0..fanin)
                    .map(|_| rng.random_range(prev.clone()) as u32)
                    .collect();
                ps.sort_unstable();
                ps.dedup();
                ps
            })
            .collect();
        Dcdcmp15Loop { n, parents }
    }

    /// The paper's adder.128 deck shape: 14337 iterations, critical
    /// path 334.
    pub fn adder128() -> Self {
        Self::new(14337, 334, 0xADDE128)
    }

    /// A small deck for tests.
    pub fn small(seed: u64) -> Self {
        Self::new(600, 30, seed)
    }
}

impl SpecLoop for Dcdcmp15Loop {
    fn num_iters(&self) -> usize {
        self.n
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        // The workspace slice: huge and sparsely touched per window —
        // the sparse LRPD test's home turf.
        vec![ArrayDecl::tested(
            "X",
            (0..self.n).map(|k| 1.0 + (k % 7) as f64).collect(),
            ShadowKind::Sparse,
        )]
    }

    fn body(&self, j: usize, ctx: &mut IterCtx<'_, f64>) {
        let mut acc = 1.0;
        for &p in &self.parents[j] {
            acc += 0.5 * ctx.read(X, p as usize);
        }
        let diag = ctx.read(X, j);
        ctx.write(X, j, diag - acc * 0.125);
    }

    fn cost(&self, j: usize) -> f64 {
        1.0 + self.parents[j].len() as f64 * 0.5
    }
}

/// DCDCMP loop 70: fully parallel with a premature exit.
///
/// The exit condition — a singular-pivot check in the original —
/// dynamically fires at iteration `exit_at`: that iteration completes
/// and requests the exit ([`IterCtx::exit`]); every later iteration's
/// speculative work is discarded by the engine. The loop is otherwise
/// fully parallel, so a single stage commits the live prefix.
#[derive(Clone, Debug)]
pub struct Dcdcmp70Loop {
    n: usize,
    exit_at: usize,
}

impl Dcdcmp70Loop {
    /// `n` iterations; the pivot check fires at iteration `exit_at`
    /// (the last one executed).
    pub fn new(n: usize, exit_at: usize) -> Self {
        assert!(exit_at < n);
        Dcdcmp70Loop { n, exit_at }
    }
}

impl SpecLoop for Dcdcmp70Loop {
    fn num_iters(&self) -> usize {
        self.n
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        vec![ArrayDecl::tested(
            "D",
            vec![0.5; self.n],
            ShadowKind::Sparse,
        )]
    }

    fn body(&self, i: usize, ctx: &mut IterCtx<'_, f64>) {
        let v = ctx.read(D, i);
        ctx.write(D, i, v * 2.0 + 1.0);
        if i == self.exit_at {
            // Singular pivot discovered: the loop terminates here.
            ctx.exit();
        }
    }

    fn cost(&self, _i: usize) -> f64 {
        1.0
    }
}

const D: ArrayId = ArrayId(0);

/// BJT model evaluation: sparse reductions into the Y matrix.
///
/// Device `d` (visited in the pre-distributed linked-list order) reads
/// its read-only model parameters and *reduces* its stamp into the
/// 4 Y-matrix entries of its terminal nodes. Different devices sharing
/// a node collide across processors — harmless under speculative
/// reduction parallelization, which is the point: the loop runs in one
/// stage with PR = 1.
#[derive(Clone, Debug)]
pub struct BjtLoop {
    devices: usize,
    nodes: usize,
    /// Linked-list traversal order (pre-distributed).
    order: Vec<u32>,
    /// Terminal nodes of each device (by device id).
    terminals: Vec<[u32; 4]>,
}

const Y: ArrayId = ArrayId(0);
const PARAM: ArrayId = ArrayId(1);

impl BjtLoop {
    /// A synthetic circuit of `devices` BJTs over `nodes` nodes.
    pub fn new(devices: usize, nodes: usize, seed: u64) -> Self {
        assert!(nodes >= 4);
        let mut rng = StdRng::seed_from_u64(seed);
        // The traversal order of the device list: a permutation, as the
        // list was built by netlist insertion order.
        let mut order: Vec<u32> = (0..devices as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let terminals = (0..devices)
            .map(|_| {
                [
                    rng.random_range(0..nodes) as u32,
                    rng.random_range(0..nodes) as u32,
                    rng.random_range(0..nodes) as u32,
                    rng.random_range(0..nodes) as u32,
                ]
            })
            .collect();
        BjtLoop {
            devices,
            nodes,
            order,
            terminals,
        }
    }

    /// A deck shaped like the paper's 128-bit adder in BJT technology.
    pub fn adder128() -> Self {
        Self::new(3000, 900, 0xB17)
    }
}

impl SpecLoop for BjtLoop {
    fn num_iters(&self) -> usize {
        self.devices
    }

    fn arrays(&self) -> Vec<ArrayDecl<f64>> {
        vec![
            ArrayDecl::reduction(
                "Y",
                vec![0.0; self.nodes],
                ShadowKind::Sparse,
                Reduction::sum(),
            ),
            ArrayDecl::untested("PARAM", (0..self.devices).map(|d| 0.1 + d as f64).collect()),
        ]
    }

    fn body(&self, i: usize, ctx: &mut IterCtx<'_, f64>) {
        let dev = self.order[i] as usize;
        // Read-only model parameters (untested array, never written).
        let p = ctx.read(PARAM, dev);
        let gm = 1.0 / (1.0 + p);
        // Stamp the device into the Y matrix: pure sparse reductions.
        let t = self.terminals[dev];
        ctx.reduce(Y, t[0] as usize, gm);
        ctx.reduce(Y, t[1] as usize, -gm);
        ctx.reduce(Y, t[2] as usize, gm * 0.5);
        ctx.reduce(Y, t[3] as usize, -gm * 0.5);
    }

    fn cost(&self, _i: usize) -> f64 {
        3.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlrpd_core::{
        extract_ddg, run_sequential, run_speculative, RunConfig, Strategy, WindowConfig,
    };

    #[test]
    fn dcdcmp15_ddg_recovers_intended_critical_path() {
        let lp = Dcdcmp15Loop::small(3);
        let cfg = RunConfig::new(4);
        let ddg = extract_ddg(&lp, &cfg, WindowConfig::fixed(16));
        // The generator shapes ~30 levels; the flow critical path must
        // land exactly there (each level depends on the previous one).
        assert_eq!(ddg.graph.flow_critical_path(), 30);
        // Extraction executed the loop correctly as a side effect.
        let (seq, _) = run_sequential(&lp);
        assert_eq!(ddg.run.array("X"), seq[0].1.as_slice());
    }

    #[test]
    fn dcdcmp15_is_heavily_partially_parallel() {
        let lp = Dcdcmp15Loop::small(5);
        let spec = run_speculative(&lp, RunConfig::new(8).with_strategy(Strategy::Rd));
        let (seq, _) = run_sequential(&lp);
        assert_eq!(spec.array("X"), seq[0].1.as_slice());
        assert!(spec.report.restarts > 0);
    }

    #[test]
    fn dcdcmp70_exits_prematurely_in_one_stage() {
        let lp = Dcdcmp70Loop::new(2000, 1499);
        let spec = run_speculative(&lp, RunConfig::new(8).with_strategy(Strategy::Nrd));
        assert_eq!(spec.report.stages.len(), 1, "fully parallel prefix");
        assert_eq!(spec.report.pr(), 1.0);
        assert_eq!(spec.report.exited_at, Some(1499));
        let (seq, _) = run_sequential(&lp);
        assert_eq!(spec.array("D"), seq[0].1.as_slice());
        // Iterations past the exit never executed: original value.
        assert_eq!(spec.array("D")[1500], 0.5);
        assert_eq!(
            spec.array("D")[1499],
            2.0,
            "the exiting iteration completed"
        );
    }

    #[test]
    fn dcdcmp70_exit_respected_by_the_window_strategy() {
        use rlrpd_core::WindowConfig;
        let lp = Dcdcmp70Loop::new(400, 123);
        let spec = run_speculative(
            &lp,
            RunConfig::new(4).with_strategy(Strategy::SlidingWindow(WindowConfig::fixed(16))),
        );
        assert_eq!(spec.report.exited_at, Some(123));
        let (seq, _) = run_sequential(&lp);
        assert_eq!(spec.array("D"), seq[0].1.as_slice());
    }

    #[test]
    fn bjt_reductions_validate_in_one_stage() {
        let lp = BjtLoop::new(400, 64, 9);
        let spec = run_speculative(&lp, RunConfig::new(8).with_strategy(Strategy::Rd));
        assert_eq!(
            spec.report.stages.len(),
            1,
            "pure reductions never conflict"
        );
        let (seq, _) = run_sequential(&lp);
        let spec_y = spec.array("Y");
        let seq_y = &seq[0].1;
        for (a, b) in spec_y.iter().zip(seq_y) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn bjt_traversal_order_is_a_permutation() {
        let lp = BjtLoop::new(100, 16, 1);
        let mut seen = lp.order.clone();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(seen, expect);
    }
}
