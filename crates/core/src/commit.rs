//! The commit phase: last-value copy-out of correctly computed private
//! data into shared storage.
//!
//! For the committing prefix of blocks (everything below the first
//! dependence sink, or all blocks on a passing stage), each tested
//! element's final shared value is assembled **in block order**:
//!
//! * an ordinary write replaces the value (so the *last* committing
//!   writer wins — the paper's last-value semantics for output
//!   dependences);
//! * a reduction delta folds into the value with the declared operator
//!   (starting from the current shared value when no committing block
//!   wrote the element ordinarily).
//!
//! Committing also establishes the flow-dependence repair for the next
//! stage: re-executed blocks copy in the committed values on demand.
//!
//! The fold is written once, in `fold_in_block_order`, over the
//! contributions [`ProcView::contribution`] selects, one tested array
//! at a time on the calling thread. What the fold produced — per
//! contributing block, the `(array, element, value)` triples to write
//! back — is also exactly what the stage changed in the tested arrays,
//! so [`commit_tested`] returns the lists and the engine builds the
//! journal / wire delta from them instead of scanning the views again.

use crate::buf::SharedBuf;
use crate::value::{Reduction, Value};
use crate::view::{Contribution, ProcView};
use rlrpd_shadow::hasher::FxBuildHasher;
use std::collections::HashMap;

/// Cost-accounting summary of one commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct CommitStats {
    /// Distinct elements whose shared value was updated.
    pub elems_committed: usize,
    /// Max contributions from any single block (parallel critical path).
    pub max_per_block: usize,
}

/// The fold's map, element -> (value so far, last contributing block
/// position): the engine's, kept at its capacity between stages.
pub(crate) type FinalValues<T> = HashMap<usize, (T, usize), FxBuildHasher>;

/// Write-back work list per contributing block:
/// (array declaration index, element, final value).
pub(crate) type PerBlock<T> = Vec<Vec<(u32, usize, T)>>;

/// Fold the committing blocks' private data into shared storage, and
/// return what was written: element `e` of array `a` appears in exactly
/// one block's list, with the value shared storage now holds.
///
/// `per_pos_views` must be the committing prefix, in block order;
/// `reductions[slot]` is the declared operator of tested slot `slot`;
/// `tested_ids[slot]` maps the slot to its array declaration index in
/// `shared`; `final_vals` is the engine's scratch.
pub(crate) fn commit_tested<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    reductions: &[Option<Reduction<T>>],
    shared: &[SharedBuf<T>],
    final_vals: &mut FinalValues<T>,
) -> (CommitStats, PerBlock<T>) {
    let mut stats = CommitStats::default();
    let mut per_block: PerBlock<T> = vec![Vec::new(); per_pos_views.len()];
    for (slot, &array_id) in tested_ids.iter().enumerate() {
        let buf = &shared[array_id];
        let most = fold_in_block_order(
            per_pos_views
                .iter()
                .map(|views| views[slot].contributions()),
            // SAFETY: commit runs after the stage barrier; no
            // concurrent writers of tested shared data.
            |elem| unsafe { buf.get(elem) },
            reductions[slot],
            final_vals,
        );
        stats.max_per_block = stats.max_per_block.max(most);
        stats.elems_committed += final_vals.len();
        for (elem, (v, who)) in final_vals.drain() {
            // SAFETY: the commit runs on one thread, and each element
            // is written once, as its last contributing block `who`.
            unsafe { buf.set(elem, v, who as u32) };
            per_block[who].push((array_id as u32, elem, v));
        }
    }
    (stats, per_block)
}

/// The fold rule. `blocks` yields, in block order, each committing
/// block's contributions to one tested array. A write replaces the
/// element's value; a delta folds, with the array's `reduction`, onto
/// the value so far — `shared_value(elem)` when no earlier block
/// contributed. Leaves each element's final value with the last block
/// that contributed to it in `final_vals`, and returns the largest
/// number of contributions any one block made.
fn fold_in_block_order<T: Value>(
    blocks: impl Iterator<Item = impl Iterator<Item = (usize, Contribution<T>)>>,
    shared_value: impl Fn(usize) -> T,
    reduction: Option<Reduction<T>>,
    final_vals: &mut FinalValues<T>,
) -> usize {
    final_vals.clear();
    let mut max_per_block = 0usize;
    for (pos, block) in blocks.enumerate() {
        let mut contributions = 0usize;
        for (elem, produced) in block {
            let value = match produced {
                Contribution::Write(v) => v,
                Contribution::Delta(delta) => {
                    let base = match final_vals.get(&elem) {
                        Some(&(v, _)) => v,
                        None => shared_value(elem),
                    };
                    let op = reduction.expect("reduction mark without operator");
                    (op.combine)(base, delta)
                }
            };
            final_vals.insert(elem, (value, pos));
            contributions += 1;
        }
        max_per_block = max_per_block.max(contributions);
    }
    max_per_block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ShadowKind;

    fn setup(init: Vec<f64>) -> SharedBuf<f64> {
        SharedBuf::new(init)
    }

    fn commit_one(
        views: Vec<ProcView<f64>>,
        red: Option<Reduction<f64>>,
        buf: &mut SharedBuf<f64>,
    ) -> CommitStats {
        buf.new_epoch();
        let wrapped: Vec<Vec<ProcView<f64>>> = views.into_iter().map(|v| vec![v]).collect();
        let refs: Vec<&[ProcView<f64>]> = wrapped.iter().map(|v| v.as_slice()).collect();
        let bufs = std::slice::from_ref(buf);
        commit_tested(&refs, &[0], &[red], bufs, &mut FinalValues::default()).0
    }

    #[test]
    fn last_value_wins_across_blocks() {
        let mut buf = setup(vec![0.0; 4]);
        let mut a = ProcView::new(4, ShadowKind::Dense, None);
        a.write(1, 10.0);
        let mut b = ProcView::new(4, ShadowKind::Dense, None);
        b.write(1, 20.0);
        let stats = commit_one(vec![a, b], None, &mut buf);
        assert_eq!(buf.as_slice()[1], 20.0);
        assert_eq!(stats.elems_committed, 1);
    }

    #[test]
    fn unwritten_elements_are_untouched() {
        let mut buf = setup(vec![7.0; 4]);
        let mut a = ProcView::new(4, ShadowKind::Dense, None);
        let _ = a.read(2, |_| 7.0); // exposed read only: nothing to commit
        let stats = commit_one(vec![a], None, &mut buf);
        assert_eq!(buf.as_slice(), &[7.0; 4]);
        assert_eq!(stats.elems_committed, 0);
    }

    #[test]
    fn reduction_deltas_fold_over_shared() {
        let mut buf = setup(vec![100.0; 2]);
        let op = Reduction::sum();
        let mut a = ProcView::new(2, ShadowKind::Dense, Some(op));
        a.reduce(0, 3.0, |_| 100.0);
        let mut b = ProcView::new(2, ShadowKind::Dense, Some(op));
        b.reduce(0, 4.0, |_| 100.0);
        commit_one(vec![a, b], Some(op), &mut buf);
        assert_eq!(buf.as_slice()[0], 107.0);
    }

    #[test]
    fn delta_applies_on_top_of_lower_block_write() {
        let mut buf = setup(vec![0.0; 2]);
        let op = Reduction::sum();
        let mut a = ProcView::new(2, ShadowKind::Dense, Some(op));
        a.write(0, 50.0);
        let mut b = ProcView::new(2, ShadowKind::Dense, Some(op));
        b.reduce(0, 4.0, |_| 0.0);
        commit_one(vec![a, b], Some(op), &mut buf);
        assert_eq!(
            buf.as_slice()[0],
            54.0,
            "delta composes over the committed write"
        );
    }

    #[test]
    fn sparse_views_commit_identically() {
        let mut buf = setup(vec![0.0; 8]);
        let mut a = ProcView::new(8, ShadowKind::Sparse, None);
        a.write(5, 1.5);
        commit_one(vec![a], None, &mut buf);
        assert_eq!(buf.as_slice()[5], 1.5);
    }

    #[test]
    fn max_per_block_tracks_critical_path() {
        let mut buf = setup(vec![0.0; 8]);
        let mut a = ProcView::new(8, ShadowKind::Dense, None);
        a.write(0, 1.0);
        a.write(1, 1.0);
        a.write(2, 1.0);
        let mut b = ProcView::new(8, ShadowKind::Dense, None);
        b.write(3, 1.0);
        let stats = commit_one(vec![a, b], None, &mut buf);
        assert_eq!(stats.max_per_block, 3);
        assert_eq!(stats.elems_committed, 4);
    }
}
