//! Static block schedules.
//!
//! The R-LRPD test requires the speculative loop to be *statically block
//! scheduled in increasing order of iteration* so that, after a failed
//! stage, the prefix of blocks below the first dependence sink can be
//! committed. A [`BlockSchedule`] is an ordered list of disjoint,
//! contiguous iteration ranges ([`Block`]s), each assigned to one virtual
//! processor.
//!
//! Dependence ordering is by **block position** (iteration order), not by
//! raw processor rank: the sliding-window strategy assigns blocks to
//! processors *circularly* to preserve locality across windows, so the
//! same physical processor can hold the logically-first block of one
//! window and the logically-last block of the next.

use crate::proc::ProcId;
use std::ops::Range;

/// One contiguous run of iterations assigned to a single processor for
/// one speculative stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// The physical processor that executes (and keeps the private state
    /// for) this block.
    pub proc: ProcId,
    /// Global iteration numbers `range.start..range.end` of the original
    /// loop, half-open.
    pub range: Range<usize>,
}

impl Block {
    /// Number of iterations in the block.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// True when the block carries no iterations.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }
}

/// A static block schedule for one speculative stage: blocks in strictly
/// increasing iteration order, each on a distinct processor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockSchedule {
    blocks: Vec<Block>,
}

impl BlockSchedule {
    /// Build a schedule from pre-cut blocks.
    ///
    /// # Panics
    /// Panics if blocks are not in strictly increasing iteration order,
    /// overlap, or reuse a processor. Empty blocks are permitted (an idle
    /// processor in the NRD strategy) and keep their position.
    pub fn new(blocks: Vec<Block>) -> Self {
        let mut last_end: Option<usize> = None;
        let mut seen = std::collections::HashSet::new();
        for b in &blocks {
            assert!(b.range.start <= b.range.end, "inverted block {:?}", b.range);
            if let Some(end) = last_end {
                assert!(b.range.start >= end, "blocks overlap or are out of order");
            }
            if !b.is_empty() {
                last_end = Some(b.range.end);
            }
            assert!(
                seen.insert(b.proc),
                "processor {:?} scheduled twice",
                b.proc
            );
        }
        BlockSchedule { blocks }
    }

    /// Split `iters` as evenly as possible over processors `0..p`, in
    /// rank order. The first `iters.len() % p` processors receive one
    /// extra iteration, matching the usual static block scheduling.
    pub fn even(iters: Range<usize>, p: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        let n = iters.len();
        let base = n / p;
        let extra = n % p;
        let mut start = iters.start;
        let blocks = ProcId::all(p)
            .map(|proc| {
                let len = base + usize::from(proc.index() < extra);
                let range = start..start + len;
                start += len;
                Block { proc, range }
            })
            .collect();
        BlockSchedule::new(blocks)
    }

    /// Cut `iters` at explicit boundaries (used by feedback-guided load
    /// balancing). `cuts` holds the `p - 1` interior cut points, each in
    /// `iters` and non-decreasing; processor `i` receives
    /// `[cut_{i-1}, cut_i)`.
    pub fn from_cuts(iters: Range<usize>, cuts: &[usize]) -> Self {
        let p = cuts.len() + 1;
        let mut bounds = Vec::with_capacity(p + 1);
        bounds.push(iters.start);
        bounds.extend_from_slice(cuts);
        bounds.push(iters.end);
        let blocks = ProcId::all(p)
            .map(|proc| {
                let i = proc.index();
                assert!(
                    bounds[i] <= bounds[i + 1],
                    "cut points must be non-decreasing"
                );
                Block {
                    proc,
                    range: bounds[i]..bounds[i + 1],
                }
            })
            .collect();
        BlockSchedule::new(blocks)
    }

    /// Assign `p` equal blocks of `iters` to processors starting at rank
    /// `rotation` and wrapping — the circular assignment of the
    /// sliding-window strategy. The block order (and hence dependence
    /// order) is still increasing iteration order.
    pub fn circular(iters: Range<usize>, p: usize, rotation: usize) -> Self {
        assert!(p > 0, "need at least one processor");
        let n = iters.len();
        let base = n / p;
        let extra = n % p;
        let mut start = iters.start;
        let blocks = (0..p)
            .map(|k| {
                let proc = ProcId::from((rotation + k) % p);
                let len = base + usize::from(k < extra);
                let range = start..start + len;
                start += len;
                Block { proc, range }
            })
            .collect();
        BlockSchedule::new(blocks)
    }

    /// The NRD restart schedule: blocks strictly below position `from`
    /// become empty (their processors idle), every other block re-runs
    /// unchanged on its original processor.
    pub fn nrd_restart(&self, from: usize) -> Self {
        let blocks = self
            .blocks
            .iter()
            .enumerate()
            .map(|(pos, b)| {
                if pos < from {
                    Block {
                        proc: b.proc,
                        range: b.range.end..b.range.end,
                    }
                } else {
                    b.clone()
                }
            })
            .collect();
        BlockSchedule::new(blocks)
    }

    /// Blocks in iteration order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Number of blocks (== number of participating processors).
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of iterations carried by the schedule.
    pub fn num_iters(&self) -> usize {
        self.blocks.iter().map(Block::len).sum()
    }

    /// True when no block carries any iteration.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(Block::is_empty)
    }

    /// The block position (dependence rank) executing global iteration
    /// `iter`, if any block covers it.
    pub fn position_of_iter(&self, iter: usize) -> Option<usize> {
        self.blocks.iter().position(|b| b.range.contains(&iter))
    }

    /// The block position held by processor `proc`, if it participates.
    pub fn position_of_proc(&self, proc: ProcId) -> Option<usize> {
        self.blocks.iter().position(|b| b.proc == proc)
    }

    /// First iteration of the block at `pos` — the restart point when the
    /// first dependence sink lands at that position.
    pub fn block_start(&self, pos: usize) -> usize {
        self.blocks[pos].range.start
    }

    /// Number of iterations of this schedule assigned to a *different*
    /// processor than `old` assigned them (iterations `old` did not
    /// schedule count as moved: their data lives wherever the committed
    /// state is). This is the per-iteration redistribution volume the
    /// paper charges `ℓ` for — remote misses only happen for work that
    /// actually changed processors.
    pub fn moved_from(&self, old: &BlockSchedule) -> usize {
        let mut moved = 0;
        for b in &self.blocks {
            if b.is_empty() {
                continue;
            }
            // Walk old blocks overlapping this range.
            let mut covered_same = 0usize;
            for ob in old.blocks() {
                let lo = b.range.start.max(ob.range.start);
                let hi = b.range.end.min(ob.range.end);
                if lo < hi && ob.proc == b.proc {
                    covered_same += hi - lo;
                }
            }
            moved += b.len() - covered_same;
        }
        moved
    }

    /// The full iteration range spanned (first non-empty block start to
    /// last non-empty block end), or `None` when empty.
    pub fn span(&self) -> Option<Range<usize>> {
        let first = self.blocks.iter().find(|b| !b.is_empty())?;
        let last = self.blocks.iter().rev().find(|b| !b.is_empty())?;
        Some(first.range.start..last.range.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_distributes_remainder_to_low_ranks() {
        let s = BlockSchedule::even(0..10, 4);
        let lens: Vec<_> = s.blocks().iter().map(Block::len).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
        assert_eq!(s.num_iters(), 10);
        assert_eq!(s.span(), Some(0..10));
    }

    #[test]
    fn even_split_handles_fewer_iters_than_procs() {
        let s = BlockSchedule::even(5..7, 4);
        let lens: Vec<_> = s.blocks().iter().map(Block::len).collect();
        assert_eq!(lens, vec![1, 1, 0, 0]);
        assert_eq!(s.span(), Some(5..7));
    }

    #[test]
    fn position_of_iter_finds_owning_block() {
        let s = BlockSchedule::even(0..8, 4);
        assert_eq!(s.position_of_iter(0), Some(0));
        assert_eq!(s.position_of_iter(3), Some(1));
        assert_eq!(s.position_of_iter(7), Some(3));
        assert_eq!(s.position_of_iter(8), None);
    }

    #[test]
    fn nrd_restart_empties_committed_prefix() {
        let s = BlockSchedule::even(0..8, 4);
        let r = s.nrd_restart(2);
        assert!(r.blocks()[0].is_empty());
        assert!(r.blocks()[1].is_empty());
        assert_eq!(r.blocks()[2].range, 4..6);
        assert_eq!(r.blocks()[3].range, 6..8);
        assert_eq!(r.num_iters(), 4);
        assert_eq!(r.span(), Some(4..8));
    }

    #[test]
    fn circular_rotates_processor_assignment_only() {
        let s = BlockSchedule::circular(0..8, 4, 2);
        let procs: Vec<_> = s.blocks().iter().map(|b| b.proc.index()).collect();
        assert_eq!(procs, vec![2, 3, 0, 1]);
        // Iteration order of blocks is unchanged by the rotation.
        let starts: Vec<_> = s.blocks().iter().map(|b| b.range.start).collect();
        assert_eq!(starts, vec![0, 2, 4, 6]);
        assert_eq!(s.position_of_proc(ProcId(0)), Some(2));
    }

    #[test]
    fn from_cuts_respects_boundaries() {
        let s = BlockSchedule::from_cuts(0..10, &[1, 5, 9]);
        let lens: Vec<_> = s.blocks().iter().map(Block::len).collect();
        assert_eq!(lens, vec![1, 4, 4, 1]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_blocks_rejected() {
        BlockSchedule::new(vec![
            Block {
                proc: ProcId(0),
                range: 0..5,
            },
            Block {
                proc: ProcId(1),
                range: 4..8,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "scheduled twice")]
    fn duplicate_processor_rejected() {
        BlockSchedule::new(vec![
            Block {
                proc: ProcId(0),
                range: 0..2,
            },
            Block {
                proc: ProcId(0),
                range: 2..4,
            },
        ]);
    }

    #[test]
    fn nrd_restart_moves_nothing() {
        let s = BlockSchedule::even(0..16, 4);
        let r = s.nrd_restart(2);
        assert_eq!(r.moved_from(&s), 0, "NRD keeps every iteration in place");
    }

    #[test]
    fn redistribution_counts_only_changed_assignments() {
        let old = BlockSchedule::even(0..16, 4); // blocks of 4
                                                 // Restart from iteration 8: redistribute 8..16 over all 4 procs
                                                 // (blocks of 2). Old owners: 8..12 -> P2, 12..16 -> P3.
                                                 // New: 8..10 P0, 10..12 P1, 12..14 P2, 14..16 P3.
        let new = BlockSchedule::even(8..16, 4);
        // 8..12 moved (P2 -> P0/P1), 12..14 moved (P3 -> P2),
        // 14..16 stayed on P3.
        assert_eq!(new.moved_from(&old), 6);
    }

    #[test]
    fn unscheduled_iterations_count_as_moved() {
        let old = BlockSchedule::even(0..4, 2);
        let new = BlockSchedule::even(4..8, 2); // disjoint window
        assert_eq!(new.moved_from(&old), 4);
    }

    #[test]
    fn empty_schedule_has_no_span() {
        let s = BlockSchedule::even(3..3, 2);
        assert!(s.is_empty());
        assert_eq!(s.span(), None);
    }
}
