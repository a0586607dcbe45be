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
//! contributions [`ProcView::contribution`] selects; like the analysis
//! it has a sequential feeder (`merge_seq`: the views themselves, one
//! tested array at a time) and a partitioned one (`merge_parallel`: one
//! bucket of elements per pool thread). What the fold produced — per
//! contributing block, the `(array, element, value)` triples to write
//! back — is also exactly what the stage changed in the tested arrays,
//! so [`commit_tested`] returns the lists and the engine builds the
//! journal / wire delta from them instead of scanning the views again.

use crate::analysis::{bucket_of, merge_buckets};
use crate::buf::SharedBuf;
use crate::value::{Reduction, Value};
use crate::view::{Contribution, ProcView};
use rlrpd_runtime::Executor;
use rlrpd_shadow::hasher::FxBuildHasher;
use std::collections::HashMap;
use std::hash::Hash;

/// Cost-accounting summary of one commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct CommitStats {
    /// Distinct elements whose shared value was updated.
    pub elems_committed: usize,
    /// Max contributions from any single block (parallel critical path).
    pub max_per_block: usize,
}

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
/// `shared`.
///
/// With `fan_out` (the engine found the stage wide enough to pay for
/// the fork-joins, see [`Executor::fans_out`]) the *merge* — resolving
/// last-value/reduction order per element — is element-partitioned
/// (same bucketing scheme as the parallel analysis) and the
/// *write-back*, the memory-heavy part, is partitioned by last
/// contributing block, which is how the paper's commit "is fully
/// parallel and scales with the number of processors". Without it both
/// run on the calling thread through the sequential reference merge.
/// Either way the final arrays, the [`CommitStats`] and the set of
/// triples returned are the same.
pub(crate) fn commit_tested<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    reductions: &[Option<Reduction<T>>],
    shared: &[SharedBuf<T>],
    fan_out: Option<&Executor>,
) -> (CommitStats, PerBlock<T>) {
    let (stats, mut per_block) = match fan_out {
        Some(executor) => merge_parallel(per_pos_views, tested_ids, reductions, shared, executor),
        None => merge_seq(per_pos_views, tested_ids, reductions, shared),
    };
    let write = |who: usize, entries: &mut Vec<(u32, usize, T)>| {
        for &(array_id, elem, v) in entries.iter() {
            // SAFETY: ownership partition — element `elem` of this
            // array appears in exactly one block's work list, and each
            // list is walked by one thread.
            unsafe { shared[array_id as usize].set(elem, v, who as u32) };
        }
        entries.len() as f64
    };
    match fan_out {
        Some(executor) => {
            executor.run_blocks(&mut per_block, write);
        }
        None => {
            for (who, entries) in per_block.iter_mut().enumerate() {
                write(who, entries);
            }
        }
    }
    (stats, per_block)
}

/// The fold rule. `blocks` yields, in block order, each committing
/// block's contributions to one element population (`key` names the
/// element: every contribution to an element must pass through the same
/// call). A write replaces the element's value; a delta folds, with
/// `operator(key)`, onto the value so far — `shared_value(key)` when no
/// earlier block contributed. Returns each element's final value with
/// the last block that contributed to it, and the largest number of
/// contributions any one block made.
fn fold_in_block_order<K: Copy + Eq + Hash, T: Value>(
    blocks: impl Iterator<Item = impl Iterator<Item = (K, Contribution<T>)>>,
    shared_value: impl Fn(K) -> T,
    operator: impl Fn(K) -> Reduction<T>,
) -> (HashMap<K, (T, usize), FxBuildHasher>, usize) {
    // element -> (value so far, last contributing block position).
    let mut final_vals: HashMap<K, (T, usize), FxBuildHasher> = HashMap::default();
    let mut max_per_block = 0usize;
    for (pos, block) in blocks.enumerate() {
        let mut contributions = 0usize;
        for (key, produced) in block {
            let value = match produced {
                Contribution::Write(v) => v,
                Contribution::Delta(delta) => {
                    let base = match final_vals.get(&key) {
                        Some(&(v, _)) => v,
                        None => shared_value(key),
                    };
                    (operator(key).combine)(base, delta)
                }
            };
            final_vals.insert(key, (value, pos));
            contributions += 1;
        }
        max_per_block = max_per_block.max(contributions);
    }
    (final_vals, max_per_block)
}

/// Sequential reference merge: the fold rule over the views as they
/// stand, one tested array at a time.
fn merge_seq<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    reductions: &[Option<Reduction<T>>],
    shared: &[SharedBuf<T>],
) -> (CommitStats, PerBlock<T>) {
    let mut stats = CommitStats::default();
    let mut per_block: PerBlock<T> = vec![Vec::new(); per_pos_views.len()];

    for (slot, &array_id) in tested_ids.iter().enumerate() {
        let buf = &shared[array_id];
        let (final_vals, most) = fold_in_block_order(
            per_pos_views
                .iter()
                .map(|views| views[slot].contributions()),
            // SAFETY: commit runs after the stage barrier; no
            // concurrent writers of tested shared data.
            |elem| unsafe { buf.get(elem) },
            |_| reductions[slot].expect("reduction mark without operator"),
        );
        stats.max_per_block = stats.max_per_block.max(most);
        stats.elems_committed += final_vals.len();
        for (elem, (v, who)) in final_vals {
            per_block[who].push((array_id as u32, elem, v));
        }
    }

    (stats, per_block)
}

/// Element-partitioned parallel merge. Pass 1 (parallel over blocks)
/// extracts each block's contributions — element, kind and the private
/// value — bucketed by element hash, and counts contributions per
/// `(block, slot)` for the critical-path statistic. Pass 2 (parallel
/// over buckets) runs the fold rule over each bucket: every entry of a
/// given `(slot, elem)` lands in one bucket, in block order, so the
/// fold is the sequential one. Pass 3 (sequential, cheap) redistributes
/// the final values into per-last-contributor write-back lists.
fn merge_parallel<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    reductions: &[Option<Reduction<T>>],
    shared: &[SharedBuf<T>],
    executor: &Executor,
) -> (CommitStats, PerBlock<T>) {
    let num_pos = per_pos_views.len();
    let num_slots = tested_ids.len();
    let buckets = merge_buckets(executor);

    // Pass 1: per-block contribution extraction.
    type Bucket<T> = Vec<((u32, usize), Contribution<T>)>;
    struct BlockPart<T> {
        buckets: Vec<Bucket<T>>,
        /// Contribution count per slot (sequential counts per
        /// `(slot, pos)`; the stats maximum ranges over both).
        per_slot_contribs: Vec<usize>,
    }
    let parts: Vec<BlockPart<T>> = executor.run_indexed(num_pos, |pos| {
        let mut part = BlockPart {
            buckets: vec![Vec::new(); buckets],
            per_slot_contribs: vec![0; num_slots],
        };
        for (slot, view) in per_pos_views[pos].iter().enumerate().take(num_slots) {
            for (elem, produced) in view.contributions() {
                part.per_slot_contribs[slot] += 1;
                part.buckets[bucket_of(slot, elem, buckets)].push(((slot as u32, elem), produced));
            }
        }
        part
    });

    // Pass 2: per-bucket fold in block order.
    let folded: Vec<Vec<(u32, usize, T, u32)>> = executor.run_indexed(buckets, |b| {
        let (final_vals, _) = fold_in_block_order(
            parts.iter().map(|part| part.buckets[b].iter().copied()),
            // SAFETY: commit runs after the stage barrier; no
            // concurrent writers of tested shared data.
            |(slot, elem)| unsafe { shared[tested_ids[slot as usize]].get(elem) },
            |(slot, _)| reductions[slot as usize].expect("reduction mark without operator"),
        );
        final_vals
            .into_iter()
            .map(|((slot, elem), (v, who))| (tested_ids[slot as usize] as u32, elem, v, who as u32))
            .collect()
    });

    // Pass 3: redistribute by last contributor.
    let mut stats = CommitStats::default();
    for part in &parts {
        for &c in &part.per_slot_contribs {
            stats.max_per_block = stats.max_per_block.max(c);
        }
    }
    let mut per_block: PerBlock<T> = vec![Vec::new(); num_pos];
    for bucket in folded {
        stats.elems_committed += bucket.len();
        for (array_id, elem, v, who) in bucket {
            per_block[who as usize].push((array_id, elem, v));
        }
    }

    (stats, per_block)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ShadowKind;
    use rlrpd_runtime::ExecMode;

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
        commit_tested(&refs, &[0], &[red], bufs, None).0
    }

    /// The partitioned merge and write-back against the sequential
    /// reference, for every bucket count a pool of 1..=8 produces:
    /// same shared arrays, same [`CommitStats`], same per-block
    /// write-back lists returned — on a population large enough
    /// that every bucket of every width holds entries, with overwrites,
    /// reduction chains and reductions over ordinary writes.
    #[test]
    fn partitioned_commit_matches_the_sequential_reference() {
        const N: usize = 4096;
        let op = Reduction::sum();
        let views: Vec<Vec<ProcView<f64>>> = (0..6usize)
            .map(|pos| {
                let mut red = ProcView::new(N, ShadowKind::Dense, Some(op));
                let mut plain = ProcView::new(N, ShadowKind::Sparse, None);
                for e in (pos..N).step_by(3) {
                    plain.write(e, (pos * N + e) as f64);
                    if (e + pos) % 2 == 0 {
                        red.write(e, e as f64 + 0.5);
                    } else {
                        red.reduce(e, 1.0 / (pos + 1) as f64, |_| 1.0);
                    }
                }
                vec![red, plain]
            })
            .collect();
        let refs: Vec<&[ProcView<f64>]> = views.iter().map(|v| v.as_slice()).collect();
        let tested_ids = [1usize, 0];
        let reductions = [Some(op), None];
        let fresh = || {
            let mut bufs = vec![SharedBuf::new(vec![0.0; N]), SharedBuf::new(vec![1.0; N])];
            bufs.iter_mut().for_each(SharedBuf::new_epoch);
            bufs
        };
        let sorted = |mut per_block: PerBlock<f64>| {
            for list in &mut per_block {
                list.sort_by_key(|&(array, elem, _)| (array, elem));
            }
            per_block
        };

        let mut want = fresh();
        let (want_stats, want_lists) = commit_tested(&refs, &tested_ids, &reductions, &want, None);
        assert!(want_stats.elems_committed > 2 * N - 8);

        for executor in (1..=8).map(|p| Executor::with_procs(ExecMode::Pooled, p)) {
            let mut got = fresh();
            let (stats, lists) =
                commit_tested(&refs, &tested_ids, &reductions, &got, Some(&executor));
            assert_eq!(stats, want_stats, "{executor:?}");
            assert_eq!(sorted(lists), sorted(want_lists.clone()), "{executor:?}");
            for (g, w) in got.iter_mut().zip(&mut want) {
                let same = g.as_slice().iter().zip(w.as_slice());
                assert!(same.clone().all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
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
