//! Data-dependence-graph extraction (paper Section 3).
//!
//! For loops whose dependence structure would serialize the R-LRPD
//! test, the sliding-window test can instead *extract* the full
//! iteration DDG: the shadow becomes an N-level mark list (per-iteration
//! events, [`rlrpd_shadow::IterMarks`]), a distributed last-reference
//! table carries producers across windows, and every dependence between
//! committed iterations is logged. The DDG then generates a *wavefront
//! schedule* (topological levels) reusable across the remaining loop
//! instantiations — the technique the paper applies to SPICE's sparse
//! LU loop (DCDCMP loop 15: 14337 iterations, critical path 334 on the
//! adder.128 deck).
//!
//! Edges are classified flow / anti / output. Flow edges are the true
//! value dependences (what the paper logs); anti and output edges are
//! additionally collected because the wavefront *executor* runs
//! iterations in place (no privatization), so it must respect them for
//! in-place safety.

use crate::driver::{RunConfig, RunResult, Strategy};
use crate::engine::{CommittedBlockMarks, Engine};
use crate::spec_loop::SpecLoop;
use crate::stages::run_stages;
use crate::value::Value;
use crate::window::WindowConfig;
use rlrpd_runtime::FeedbackPartitioner;
use rlrpd_shadow::hasher::FxBuildHasher;
use rlrpd_shadow::{EventKind, LastRefTable};
use std::collections::HashMap;

/// Dependence edge classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Write → later read (true dependence).
    Flow,
    /// Read → later write.
    Anti,
    /// Write → later write.
    Output,
}

/// The iteration data dependence graph of one loop instantiation.
#[derive(Clone, Debug, Default)]
pub struct DepGraph {
    /// Number of iterations.
    pub n: usize,
    /// Flow edges `(src, dst)`, `src < dst`, deduplicated.
    pub flow: Vec<(u32, u32)>,
    /// Anti edges.
    pub anti: Vec<(u32, u32)>,
    /// Output edges.
    pub output: Vec<(u32, u32)>,
}

impl DepGraph {
    /// All edges of the selected kinds.
    pub fn edges(&self, kinds: &[EdgeKind]) -> impl Iterator<Item = (u32, u32)> + '_ {
        let f = kinds.contains(&EdgeKind::Flow);
        let a = kinds.contains(&EdgeKind::Anti);
        let o = kinds.contains(&EdgeKind::Output);
        self.flow
            .iter()
            .filter(move |_| f)
            .chain(self.anti.iter().filter(move |_| a))
            .chain(self.output.iter().filter(move |_| o))
            .copied()
    }

    /// Total edge count across all kinds.
    pub fn num_edges(&self) -> usize {
        self.flow.len() + self.anti.len() + self.output.len()
    }

    /// Topological levels ("wavefronts") of the graph restricted to the
    /// selected edge kinds: every iteration appears in exactly one
    /// level, and all its predecessors appear in earlier levels.
    pub fn wavefronts(&self, kinds: &[EdgeKind]) -> Vec<Vec<u32>> {
        let mut indeg = vec![0u32; self.n];
        let mut succ: Vec<Vec<u32>> = vec![Vec::new(); self.n];
        for (s, d) in self.edges(kinds) {
            succ[s as usize].push(d);
            indeg[d as usize] += 1;
        }
        let mut levels = Vec::new();
        let mut frontier: Vec<u32> = (0..self.n as u32)
            .filter(|&i| indeg[i as usize] == 0)
            .collect();
        let mut placed = 0usize;
        while !frontier.is_empty() {
            placed += frontier.len();
            let mut next = Vec::new();
            for &i in &frontier {
                for &d in &succ[i as usize] {
                    indeg[d as usize] -= 1;
                    if indeg[d as usize] == 0 {
                        next.push(d);
                    }
                }
            }
            levels.push(std::mem::replace(&mut frontier, next));
        }
        assert_eq!(
            placed, self.n,
            "dependence graph has a cycle (impossible: edges go forward)"
        );
        levels
    }

    /// Critical path length = number of wavefronts over all edge kinds.
    pub fn critical_path(&self) -> usize {
        self.wavefronts(&[EdgeKind::Flow, EdgeKind::Anti, EdgeKind::Output])
            .len()
    }

    /// Critical path length counting flow edges only (the figure the
    /// paper reports for DCDCMP).
    pub fn flow_critical_path(&self) -> usize {
        self.wavefronts(&[EdgeKind::Flow]).len()
    }
}

/// Streaming dependence collector: feed reads/writes in committed
/// iteration order, harvest a [`DepGraph`]. Shared by sliding-window
/// DDG extraction and the inspector/executor baseline.
#[derive(Debug, Default)]
pub struct DepCollector {
    /// Per (array slot, element): producer / reader history.
    hist: HashMap<(u32, usize), Hist, FxBuildHasher>,
    /// Last committed writer per element, per slot (the paper's
    /// distributed last-reference table; kept for parity/diagnostics —
    /// `hist` subsumes it for edge derivation).
    last_ref: Vec<LastRefTable>,
    flow: Vec<(u32, u32)>,
    anti: Vec<(u32, u32)>,
    output: Vec<(u32, u32)>,
}

#[derive(Debug, Default)]
struct Hist {
    last_write: Option<u32>,
    readers_since_write: Vec<u32>,
}

impl DepCollector {
    /// A collector over `num_slots` tested arrays.
    pub fn new(num_slots: usize) -> Self {
        DepCollector {
            last_ref: (0..num_slots).map(|_| LastRefTable::new()).collect(),
            ..Default::default()
        }
    }

    /// Record an exposed read of `(slot, elem)` by iteration `iter`.
    pub fn read(&mut self, slot: u32, elem: usize, iter: u32) {
        let h = self.hist.entry((slot, elem)).or_default();
        if let Some(w) = h.last_write {
            if w != iter {
                self.flow.push((w, iter));
            }
        }
        h.readers_since_write.push(iter);
    }

    /// Record a write of `(slot, elem)` by iteration `iter`.
    pub fn write(&mut self, slot: u32, elem: usize, iter: u32) {
        let h = self.hist.entry((slot, elem)).or_default();
        for &r in &h.readers_since_write {
            if r != iter {
                self.anti.push((r, iter));
            }
        }
        if let Some(w) = h.last_write {
            if w != iter {
                self.output.push((w, iter));
            }
        }
        h.last_write = Some(iter);
        h.readers_since_write.clear();
        self.last_ref[slot as usize].record_write(elem, iter);
    }

    /// Consume one stage's committed per-iteration marks, in block
    /// order.
    pub(crate) fn consume(&mut self, blocks: &[CommittedBlockMarks]) {
        for block in blocks {
            debug_assert!(
                block.marks.iter().flat_map(|m| m.elems()).all(|(_, ev)| {
                    ev.events()
                        .iter()
                        .all(|&(i, _)| block.range.contains(&(i as usize)))
                }),
                "committed marks carry iterations outside the block range"
            );
            for (slot, marks) in block.marks.iter().enumerate() {
                // Collect elements in deterministic order so the edge
                // list is reproducible run to run.
                let mut elems: Vec<_> = marks.elems().collect();
                elems.sort_by_key(|&(e, _)| e);
                for (elem, events) in elems {
                    for &(iter, kind) in events.events() {
                        match kind {
                            EventKind::ExposedRead => self.read(slot as u32, elem, iter),
                            EventKind::Write => self.write(slot as u32, elem, iter),
                        }
                    }
                }
            }
        }
    }

    /// Finish: dedupe and sort the edge lists into a [`DepGraph`].
    pub fn finish(self, n: usize) -> DepGraph {
        fn dedup(mut v: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
            v.sort_unstable();
            v.dedup();
            v
        }
        let g = DepGraph {
            n,
            flow: dedup(self.flow),
            anti: dedup(self.anti),
            output: dedup(self.output),
        };
        debug_assert!(g
            .edges(&[EdgeKind::Flow, EdgeKind::Anti, EdgeKind::Output])
            .all(|(s, d)| s < d));
        g
    }
}

/// Result of a DDG extraction run.
pub struct DdgResult<T: Value> {
    /// The extracted graph.
    pub graph: DepGraph,
    /// The speculative run that produced it (its arrays are the loop's
    /// correct final state).
    pub run: RunResult<T>,
}

/// Extract the full DDG of `lp` with the sliding-window R-LRPD test.
///
/// The extraction *executes the loop correctly* as a side effect (it is
/// a normal SW run with N-level mark lists), so the returned arrays are
/// committed final state — crucially, this works for loops from which
/// no side-effect-free inspector can be extracted.
pub fn extract_ddg<T: Value>(
    lp: &dyn SpecLoop<T>,
    cfg: &RunConfig,
    wcfg: WindowConfig,
) -> DdgResult<T> {
    // A normal SW run over N-level mark lists, whatever strategy `cfg`
    // names; window schedules never consult the partitioner.
    let cfg = cfg.with_strategy(Strategy::SlidingWindow(wcfg));
    let mut engine = Engine::new(lp, cfg.engine_cfg(), true);
    let num_slots = engine.tested_ids.len();
    let n = engine.n;
    let mut collector = DepCollector::new(num_slots);
    let (mut report, arcs) = run_stages(
        &mut engine,
        &cfg,
        &FeedbackPartitioner::new(),
        0,
        &mut None,
        None,
        |blocks| collector.consume(blocks),
    )
    .unwrap_or_else(|e| panic!("DDG extraction failed: {e}"));
    report.sum_wall_seconds();
    let run = RunResult {
        arrays: engine.arrays_out(),
        report,
        arcs,
    };
    DdgResult {
        graph: collector.finish(n),
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_derives_flow_anti_output() {
        let mut c = DepCollector::new(1);
        // iter 0 writes e; iter 1 reads e; iter 2 writes e.
        c.write(0, 7, 0);
        c.read(0, 7, 1);
        c.write(0, 7, 2);
        let g = c.finish(3);
        assert_eq!(g.flow, vec![(0, 1)]);
        assert_eq!(g.anti, vec![(1, 2)]);
        assert_eq!(g.output, vec![(0, 2)]);
    }

    #[test]
    fn all_readers_get_anti_edges() {
        let mut c = DepCollector::new(1);
        c.read(0, 3, 0);
        c.read(0, 3, 1);
        c.write(0, 3, 2);
        let g = c.finish(3);
        assert_eq!(g.anti, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn same_iteration_events_never_self_loop() {
        let mut c = DepCollector::new(1);
        c.read(0, 3, 1);
        c.write(0, 3, 1);
        c.write(0, 3, 1);
        let g = c.finish(2);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_edges_are_deduplicated() {
        let mut c = DepCollector::new(1);
        c.write(0, 1, 0);
        c.read(0, 1, 1);
        c.write(0, 2, 0);
        c.read(0, 2, 1); // second (0,1) flow edge via another element
        let g = c.finish(2);
        assert_eq!(g.flow, vec![(0, 1)]);
    }

    #[test]
    fn wavefronts_are_topological_levels() {
        let g = DepGraph {
            n: 5,
            flow: vec![(0, 2), (1, 2), (2, 4)],
            anti: vec![(3, 4)],
            output: vec![],
        };
        let all = [EdgeKind::Flow, EdgeKind::Anti, EdgeKind::Output];
        let levels = g.wavefronts(&all);
        assert_eq!(levels, vec![vec![0, 1, 3], vec![2], vec![4]]);
        assert_eq!(g.critical_path(), 3);
    }

    #[test]
    fn chain_has_critical_path_n() {
        let g = DepGraph {
            n: 4,
            flow: (0..3).map(|i| (i, i + 1)).collect(),
            anti: vec![],
            output: vec![],
        };
        assert_eq!(g.flow_critical_path(), 4);
    }

    #[test]
    fn independent_iterations_form_one_wavefront() {
        let g = DepGraph {
            n: 6,
            ..Default::default()
        };
        assert_eq!(g.critical_path(), 1);
        assert_eq!(g.wavefronts(&[EdgeKind::Flow])[0].len(), 6);
    }

    #[test]
    fn edge_kind_filter_selects_subsets() {
        let g = DepGraph {
            n: 3,
            flow: vec![(0, 1)],
            anti: vec![(1, 2)],
            output: vec![(0, 2)],
        };
        assert_eq!(g.edges(&[EdgeKind::Flow]).count(), 1);
        assert_eq!(g.edges(&[EdgeKind::Anti, EdgeKind::Output]).count(), 2);
        assert_eq!(g.flow_critical_path(), 2);
        assert_eq!(g.critical_path(), 3);
    }
}
