//! Execution timelines: render a run's stage structure as a
//! per-processor ASCII chart.
//!
//! The paper's Figs. 1, 2 and 4 all communicate *stage structure* —
//! which processor executed what, which blocks committed, where the
//! restarts happened. [`Timeline`] reconstructs that picture from a
//! recorded run so examples, reports and bug reports can show it
//! directly:
//!
//! ```text
//! stage 0 | P0 ████████ C | P1 ████████ C | P2 ████████ X | P3 ████████ X
//! stage 1 | P0 ........   | P1 ........   | P2 ████████ C | P3 ████████ C
//! ```
//!
//! `C` = committed, `X` = discarded (re-executed later), `.` = idle.

use crate::driver::RunResult;
use crate::value::Value;
use rlrpd_runtime::StageStats;

/// What one processor did in one stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// Executed `iters` iterations that committed.
    Committed {
        /// Iterations executed.
        iters: usize,
    },
    /// Executed `iters` iterations that were discarded.
    Discarded {
        /// Iterations executed.
        iters: usize,
    },
    /// Idle (empty block).
    Idle,
}

/// A reconstructed per-stage, per-processor activity chart.
///
/// Built from a [`RunResult`]'s stage statistics: the committed prefix
/// of each stage is derived from `iters_committed` under the block
/// structure implied by `iters_attempted` (even blocks). The chart is
/// approximate for feedback-balanced runs (block cuts are not recorded
/// per stage) but exact for even blocks — and always exact in its
/// committed/discarded totals.
#[derive(Clone, Debug)]
pub struct Timeline {
    rows: Vec<Vec<Cell>>,
    stats: Vec<StageStats>,
}

impl Timeline {
    /// Reconstruct the timeline of `result` as run on `p` processors.
    pub fn from_result<T: Value>(result: &RunResult<T>, p: usize) -> Self {
        let rows = result
            .report
            .stages
            .iter()
            .map(|s| {
                // Reconstruct even blocks over the attempted count.
                let n = s.iters_attempted;
                let base = n / p;
                let extra = n % p;
                let mut cells = Vec::with_capacity(p);
                let mut committed_left = s.iters_committed;
                for k in 0..p {
                    let len = base + usize::from(k < extra);
                    if len == 0 {
                        cells.push(Cell::Idle);
                    } else if committed_left >= len {
                        committed_left -= len;
                        cells.push(Cell::Committed { iters: len });
                    } else if committed_left > 0 {
                        // Partially committed block (premature exit).
                        cells.push(Cell::Committed {
                            iters: committed_left,
                        });
                        committed_left = 0;
                    } else {
                        cells.push(Cell::Discarded { iters: len });
                    }
                }
                cells
            })
            .collect();
        Timeline {
            rows,
            stats: result.report.stages.clone(),
        }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.rows.len()
    }

    /// The cells of one stage, indexed by processor.
    pub fn stage(&self, k: usize) -> &[Cell] {
        &self.rows[k]
    }

    /// Total iterations executed but discarded over the whole run.
    pub fn wasted_iters(&self) -> usize {
        self.rows
            .iter()
            .flatten()
            .map(|c| match c {
                Cell::Discarded { iters } => *iters,
                _ => 0,
            })
            .sum()
    }

    /// Render as an ASCII chart: one line per stage, one column group
    /// per processor, bar length proportional to the block size within
    /// the stage.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        const BAR: usize = 8;
        let mut out = String::new();
        for (k, row) in self.rows.iter().enumerate() {
            let max = row
                .iter()
                .map(|c| match c {
                    Cell::Committed { iters } | Cell::Discarded { iters } => *iters,
                    Cell::Idle => 0,
                })
                .max()
                .unwrap_or(0)
                .max(1);
            let _ = write!(out, "stage {k:>2} |");
            for (proc, cell) in row.iter().enumerate() {
                let (iters, tag) = match cell {
                    Cell::Committed { iters } => (*iters, 'C'),
                    Cell::Discarded { iters } => (*iters, 'X'),
                    Cell::Idle => (0, ' '),
                };
                let filled = (iters * BAR).div_ceil(max).min(BAR);
                let mut bar = String::new();
                for i in 0..BAR {
                    bar.push(if i < filled { '#' } else { '.' });
                }
                let _ = write!(out, " P{proc} {bar} {tag} |");
            }
            let _ = writeln!(out, " t={:.1}", self.stats[k].virtual_time());
        }
        let _ = writeln!(
            out,
            "wasted speculation: {} iterations across {} stages",
            self.wasted_iters(),
            self.num_stages()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::{ArrayDecl, ArrayId, ShadowKind};
    use crate::driver::{run_speculative, RunConfig, Strategy};
    use crate::spec_loop::ClosureLoop;

    const A: ArrayId = ArrayId(0);

    fn dep_loop(n: usize, sink: usize) -> ClosureLoop {
        ClosureLoop::new(
            n,
            move || vec![ArrayDecl::tested("A", vec![0.0; 64], ShadowKind::Dense)],
            move |i, ctx| {
                let v = if i == sink {
                    ctx.read(A, sink - 1)
                } else {
                    0.0
                };
                ctx.write(A, i % 64, v + i as f64);
            },
        )
    }

    #[test]
    fn fig1_shape_reconstructs() {
        // 8 iterations, 4 procs, sink at 4: stage 0 commits P0-P1,
        // discards P2-P3; stage 1 runs P2-P3 (NRD: P0-P1 idle).
        let res = run_speculative(
            &dep_loop(8, 4),
            RunConfig::new(4).with_strategy(Strategy::Nrd),
        );
        let t = Timeline::from_result(&res, 4);
        assert_eq!(t.num_stages(), 2);
        assert_eq!(t.stage(0)[0], Cell::Committed { iters: 2 });
        assert_eq!(t.stage(0)[1], Cell::Committed { iters: 2 });
        assert_eq!(t.stage(0)[2], Cell::Discarded { iters: 2 });
        assert_eq!(t.stage(0)[3], Cell::Discarded { iters: 2 });
        assert_eq!(t.wasted_iters(), 4);
    }

    #[test]
    fn fully_parallel_timeline_has_no_waste() {
        let res = run_speculative(&dep_loop(32, usize::MAX), RunConfig::new(4));
        let t = Timeline::from_result(&res, 4);
        assert_eq!(t.num_stages(), 1);
        assert_eq!(t.wasted_iters(), 0);
        assert!(t
            .stage(0)
            .iter()
            .all(|c| matches!(c, Cell::Committed { .. })));
    }

    #[test]
    fn render_is_well_formed() {
        let res = run_speculative(
            &dep_loop(16, 8),
            RunConfig::new(4).with_strategy(Strategy::Rd),
        );
        let t = Timeline::from_result(&res, 4);
        let text = t.render();
        assert!(text.lines().count() > t.num_stages());
        assert!(text.contains("stage  0"));
        assert!(text.contains("wasted speculation"));
        assert!(text.contains(" C |"), "{text}");
        assert!(text.contains(" X |"), "{text}");
    }
}
