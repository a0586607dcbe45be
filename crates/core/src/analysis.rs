//! The fully parallel analysis phase of the processor-wise LRPD test.
//!
//! After a speculative stage, the per-processor shadows are merged in
//! block (iteration) order. The only pattern that invalidates
//! speculation is a **cross-block flow dependence**: a block produced
//! data for an element (ordinary write, or a reduction delta) and a
//! *later* block performed an exposed read of the same element — it
//! copied in the stale shared value instead of the producer's result.
//!
//! Every other pattern is benign under privatization + last-value
//! commit:
//!
//! * anti dependences (exposed read below, write above): the reader
//!   correctly saw the original value;
//! * output dependences (writes in several blocks): the commit takes the
//!   highest block's value;
//! * reductions in several blocks: deltas fold at commit;
//! * a reduction delta *above* an ordinary write: the delta applies on
//!   top of the committed value, so it composes.
//!
//! The key theorem the R-LRPD test rests on: *all blocks strictly below
//! the earliest dependence sink executed correctly and can be
//! committed.* The `analyze` function returns that earliest sink
//! position.
//!
//! The arc rule is written once, in `flow_arcs`: a scan of one element
//! population's touched entries in block order. It has two feeders.
//! [`analyze_seq`] hands it the views themselves, one tested array at a
//! time, on the calling thread; [`analyze_parallel`] first partitions
//! the entries by element into one bucket per pool thread and hands it
//! each bucket. Which one a stage uses is the engine's choice
//! ([`Executor::fans_out`]); what an arc *is* does not depend on it.

use crate::value::Value;
use crate::view::ProcView;
use rlrpd_runtime::Executor;
use rlrpd_shadow::hasher::FxBuildHasher;
use rlrpd_shadow::Mark;
use std::collections::HashMap;
use std::hash::Hash;

/// One detected cross-block flow arc (first arc per element reported).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepArc {
    /// Declaration index of the tested array.
    pub array: u32,
    /// Element index within the array.
    pub elem: usize,
    /// Block position that produced the value.
    pub src_pos: usize,
    /// Block position whose exposed read missed it (the sink).
    pub sink_pos: usize,
}

impl std::fmt::Display for DepArc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "array#{}[{}]: block {} -> block {}",
            self.array, self.elem, self.src_pos, self.sink_pos
        )
    }
}

/// Outcome of the analysis phase.
#[derive(Clone, Debug, Default)]
pub struct AnalysisResult {
    /// Earliest dependence-sink block position; `None` means the stage
    /// passed and everything commits.
    pub first_violation: Option<usize>,
    /// Detected arcs, one per violating element.
    pub arcs: Vec<DepArc>,
    /// Max distinct touched elements on any single block (the parallel
    /// analysis critical path).
    pub max_touched: usize,
    /// Total distinct touched elements across blocks.
    pub total_touched: usize,
}

/// Merge the per-block shadows of every tested array and find the
/// earliest cross-block flow-dependence sink: the partitioned parallel
/// merge on `fan_out` when the engine found the stage wide enough to pay
/// for its fork-joins ([`Executor::fans_out`]), the sequential scan on
/// the calling thread otherwise — always the latter under
/// [`rlrpd_runtime::ExecMode::Simulated`], whose determinism contract
/// excludes any dependence on host parallelism. Both produce identical
/// [`AnalysisResult`]s — the randomized equivalence suite asserts it.
pub(crate) fn analyze<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    fan_out: Option<&Executor>,
) -> AnalysisResult {
    match fan_out {
        Some(executor) => analyze_parallel(per_pos_views, tested_ids, executor),
        None => analyze_seq(per_pos_views, tested_ids),
    }
}

/// The arc rule. `blocks` yields, in block order, each block's touched
/// entries of one element population (`key` names the element: every
/// entry of an element must pass through the same call); `arc_at` turns
/// a key back into the `(array, element)` an arc reports. The first
/// exposed read of an element that a strictly earlier block produced is
/// pushed onto `arcs`, once per element.
fn flow_arcs<K: Copy + Eq + Hash>(
    blocks: impl Iterator<Item = impl Iterator<Item = (K, Mark)>>,
    arc_at: impl Fn(K) -> (u32, usize),
    arcs: &mut Vec<DepArc>,
) {
    // element -> (earliest producing block position, arc reported).
    let mut producers: HashMap<K, (u32, bool), FxBuildHasher> = HashMap::default();
    for (pos, block) in blocks.enumerate() {
        for (key, mark) in block {
            // Check the read against *strictly earlier* producers
            // before recording this block as a producer: an exposed
            // read below this block's own write is satisfied by
            // copy-in.
            if mark.is_exposed_read() {
                if let Some((src_pos, reported)) = producers.get_mut(&key) {
                    if !*reported {
                        *reported = true;
                        let (array, elem) = arc_at(key);
                        arcs.push(DepArc {
                            array,
                            elem,
                            src_pos: *src_pos as usize,
                            sink_pos: pos,
                        });
                    }
                }
            }
            if mark.is_dependence_source() {
                producers.entry(key).or_insert((pos as u32, false));
            }
        }
    }
}

/// Sequential reference implementation of the shadow merge: the arc
/// rule over the views as they stand, one tested array at a time.
///
/// `per_pos_views[pos][slot]` is block `pos`'s view of tested array
/// `slot`; `tested_ids[slot]` maps a slot back to its declaration index
/// for reporting. Arcs are returned in canonical `(array, elem)` order.
pub fn analyze_seq<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
) -> AnalysisResult {
    let mut result = AnalysisResult::default();
    for (slot, &id) in tested_ids.iter().enumerate() {
        flow_arcs(
            per_pos_views.iter().map(|views| views[slot].touched()),
            |elem| (id as u32, elem),
            &mut result.arcs,
        );
    }
    finish(&mut result, per_pos_views);
    result
}

/// Parallel shadow merge, partitioned by element.
///
/// Three passes:
///
/// 1. **Partition** (parallel over block positions): each block's
///    touched lists are split into one bucket per worker by a hash of
///    `(slot, elem)`.
/// 2. **Merge** (parallel over buckets): every entry of a given element
///    lands in exactly one bucket, and within a bucket entries are
///    scanned in block order — so each bucket is an element population
///    the arc rule runs over independently, with no sharing.
/// 3. **Combine** (sequential, cheap): bucket arc lists are
///    concatenated and canonically sorted; the earliest sink is a `min`
///    over all arcs.
///
/// The result is identical to [`analyze_seq`] for any bucket count:
/// arcs are a per-element property (first exposed read above an earlier
/// producer), the canonical sort fixes the order, and the sink minimum
/// is order-insensitive.
pub fn analyze_parallel<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    executor: &Executor,
) -> AnalysisResult {
    let buckets = merge_buckets(executor);

    // Pass 1: partition each block's touched entries by element bucket.
    // (Flat triples: 16 bytes an entry, where `((slot, elem), mark)`
    // would be 24.)
    type Bucket = Vec<(u32, usize, Mark)>;
    let partitioned: Vec<Vec<Bucket>> = executor.run_indexed(per_pos_views.len(), |pos| {
        let mut out: Vec<Bucket> = vec![Vec::new(); buckets];
        for (slot, view) in per_pos_views[pos].iter().enumerate().take(tested_ids.len()) {
            for (elem, mark) in view.touched() {
                out[bucket_of(slot, elem, buckets)].push((slot as u32, elem, mark));
            }
        }
        out
    });

    // Pass 2: per-bucket merge in block order.
    let per_bucket_arcs: Vec<Vec<DepArc>> = executor.run_indexed(buckets, |b| {
        let mut arcs = Vec::new();
        flow_arcs(
            partitioned.iter().map(|block| {
                let entries = block[b].iter();
                entries.map(|&(slot, elem, mark)| ((slot, elem), mark))
            }),
            |(slot, elem)| (tested_ids[slot as usize] as u32, elem),
            &mut arcs,
        );
        arcs
    });

    // Pass 3: combine.
    let mut result = AnalysisResult::default();
    for mut arcs in per_bucket_arcs {
        result.arcs.append(&mut arcs);
    }
    finish(&mut result, per_pos_views);
    result
}

/// Shared tail of both merge implementations: canonical arc order,
/// touch counts, earliest sink.
fn finish<T: Value>(result: &mut AnalysisResult, per_pos_views: &[&[ProcView<T>]]) {
    // At most one arc per (array, elem) is ever reported, so this sort
    // key is a total order and both implementations emit byte-identical
    // arc lists.
    result.arcs.sort_unstable_by_key(|a| (a.array, a.elem));

    for views in per_pos_views {
        let touched: usize = views.iter().map(|v| v.num_touched()).sum();
        result.total_touched += touched;
        result.max_touched = result.max_touched.max(touched);
    }

    result.first_violation = result.arcs.iter().map(|a| a.sink_pos).min();
}

/// Number of buckets the partitioned merges (here and in
/// [`crate::commit`]) split a stage's entries into: the pool's width,
/// and a single bucket for an executor without a pool.
pub(crate) fn merge_buckets(executor: &Executor) -> usize {
    executor.pool().map_or(1, |pool| pool.threads()).max(1)
}

/// Deterministic element-to-bucket assignment (multiplicative hash so
/// striding access patterns spread instead of aliasing onto one bucket).
#[inline]
pub(crate) fn bucket_of(slot: usize, elem: usize, buckets: usize) -> usize {
    let h = (elem ^ (slot << 56)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) % buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ShadowKind;
    use crate::value::Reduction;
    use rlrpd_runtime::ExecMode;

    fn view(size: usize) -> ProcView<f64> {
        ProcView::new(size, ShadowKind::Dense, None)
    }

    fn red_view(size: usize) -> ProcView<f64> {
        ProcView::new(size, ShadowKind::Dense, Some(Reduction::sum()))
    }

    fn shared0(_: usize) -> f64 {
        0.0
    }

    fn run(views: Vec<ProcView<f64>>) -> AnalysisResult {
        let wrapped: Vec<Vec<ProcView<f64>>> = views.into_iter().map(|v| vec![v]).collect();
        let refs: Vec<&[ProcView<f64>]> = wrapped.iter().map(|v| v.as_slice()).collect();
        let seq = analyze_seq(&refs, &[0]);
        // Every fixture doubles as an equivalence check: the parallel
        // merge must agree with the sequential one in every mode.
        for executor in [
            Executor::new(ExecMode::Simulated),
            Executor::with_procs(ExecMode::Pooled, 4),
        ] {
            let par = analyze_parallel(&refs, &[0], &executor);
            assert_eq!(par.first_violation, seq.first_violation);
            assert_eq!(par.arcs, seq.arcs, "mode {:?}", executor.mode());
            assert_eq!(par.max_touched, seq.max_touched);
            assert_eq!(par.total_touched, seq.total_touched);
        }
        seq
    }

    #[test]
    fn independent_blocks_pass() {
        let mut a = view(8);
        a.write(0, 1.0);
        let mut b = view(8);
        b.write(1, 2.0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, None);
        assert!(r.arcs.is_empty());
    }

    #[test]
    fn write_below_exposed_read_above_is_a_violation() {
        let mut a = view(8);
        a.write(3, 1.0);
        let mut b = view(8);
        let _ = b.read(3, shared0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, Some(1));
        assert_eq!(
            r.arcs,
            vec![DepArc {
                array: 0,
                elem: 3,
                src_pos: 0,
                sink_pos: 1
            }]
        );
    }

    #[test]
    fn anti_dependence_is_benign() {
        // Read below, write above: reader saw the original value.
        let mut a = view(8);
        let _ = a.read(3, shared0);
        let mut b = view(8);
        b.write(3, 1.0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, None);
    }

    #[test]
    fn output_dependence_is_benign() {
        let mut a = view(8);
        a.write(3, 1.0);
        let mut b = view(8);
        b.write(3, 2.0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, None);
    }

    #[test]
    fn covered_read_after_write_is_benign() {
        // Block B writes 3 then reads it: copy-in never happened.
        let mut a = view(8);
        a.write(3, 1.0);
        let mut b = view(8);
        b.write(3, 5.0);
        let _ = b.read(3, shared0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, None);
    }

    #[test]
    fn exposed_read_then_local_write_still_violates() {
        // The paper's (Read, Write) pattern on the upper block: the read
        // copied in stale data.
        let mut a = view(8);
        a.write(3, 1.0);
        let mut b = view(8);
        let _ = b.read(3, shared0);
        b.write(3, 7.0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, Some(1));
    }

    #[test]
    fn earliest_sink_wins() {
        let mut a = view(8);
        a.write(0, 1.0);
        a.write(5, 1.0);
        let mut b = view(8);
        let _ = b.read(5, shared0); // sink at pos 1
        let mut c = view(8);
        let _ = c.read(0, shared0); // sink at pos 2
        let r = run(vec![a, b, c]);
        assert_eq!(r.first_violation, Some(1));
        assert_eq!(r.arcs.len(), 2);
    }

    #[test]
    fn pure_reductions_across_blocks_pass() {
        let mut a = red_view(8);
        a.reduce(2, 1.0, shared0);
        let mut b = red_view(8);
        b.reduce(2, 2.0, shared0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, None);
    }

    #[test]
    fn exposed_read_above_reduction_violates() {
        // The delta is applied at commit; a later block reading shared
        // over it would miss it.
        let mut a = red_view(8);
        a.reduce(2, 1.0, shared0);
        let mut b = red_view(8);
        let _ = b.read(2, shared0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, Some(1));
    }

    #[test]
    fn reduction_above_ordinary_write_is_benign() {
        // Delta composes on top of the committed value.
        let mut a = red_view(8);
        a.write(2, 5.0);
        let mut b = red_view(8);
        b.reduce(2, 1.0, shared0);
        let r = run(vec![a, b]);
        assert_eq!(r.first_violation, None);
    }

    #[test]
    fn same_block_read_then_write_is_self_satisfied() {
        let mut a = view(8);
        let _ = a.read(3, shared0);
        a.write(3, 1.0);
        let r = run(vec![a]);
        assert_eq!(r.first_violation, None, "single block can never violate");
    }

    #[test]
    fn arc_display_is_compact() {
        let arc = DepArc {
            array: 2,
            elem: 7,
            src_pos: 1,
            sink_pos: 3,
        };
        assert_eq!(arc.to_string(), "array#2[7]: block 1 -> block 3");
    }

    #[test]
    fn touch_counts_are_reported() {
        let mut a = view(8);
        a.write(0, 1.0);
        a.write(1, 1.0);
        let mut b = view(8);
        b.write(2, 1.0);
        let r = run(vec![a, b]);
        assert_eq!(r.total_touched, 3);
        assert_eq!(r.max_touched, 2);
    }
}
