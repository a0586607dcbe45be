//! The analysis phase of the processor-wise LRPD test. The paper runs
//! it fully parallel and the virtual-time model charges it that way
//! (`max_touched · ⌈log₂ p⌉`); on the host it runs on the thread that
//! submitted the stage (DESIGN §4.6).
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
//! The arc rule is written once, in `flow_arcs`: a scan of one tested
//! array's touched entries in block order. [`analyze`] hands it the
//! views themselves, one tested array at a time, on the calling thread.

use crate::value::Value;
use crate::view::ProcView;
use rlrpd_shadow::hasher::FxBuildHasher;
use rlrpd_shadow::Mark;
use std::collections::HashMap;

/// The arc rule's map, element -> (earliest producing block position,
/// arc reported): the engine's, kept at its capacity between stages.
pub(crate) type Producers = HashMap<usize, (u32, bool), FxBuildHasher>;

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

/// The arc rule. `blocks` yields, in block order, each block's touched
/// entries of tested array `array`. The first exposed read of an
/// element that a strictly earlier block produced is pushed onto
/// `arcs`, once per element.
fn flow_arcs(
    blocks: impl Iterator<Item = impl Iterator<Item = (usize, Mark)>>,
    array: u32,
    arcs: &mut Vec<DepArc>,
    producers: &mut Producers,
) {
    producers.clear();
    for (pos, block) in blocks.enumerate() {
        for (elem, mark) in block {
            // Check the read against *strictly earlier* producers
            // before recording this block as a producer: an exposed
            // read below this block's own write is satisfied by
            // copy-in.
            if mark.is_exposed_read() {
                if let Some((src_pos, reported)) = producers.get_mut(&elem) {
                    if !*reported {
                        *reported = true;
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
                producers.entry(elem).or_insert((pos as u32, false));
            }
        }
    }
}

/// Merge the per-block shadows of every tested array and find the
/// earliest cross-block flow-dependence sink: the arc rule over the
/// views as they stand, one tested array at a time, on the calling
/// thread.
///
/// `per_pos_views[pos][slot]` is block `pos`'s view of tested array
/// `slot`; `tested_ids[slot]` maps a slot back to its declaration index
/// for reporting; `producers` is the engine's scratch. Arcs are returned
/// in canonical `(array, elem)` order.
pub(crate) fn analyze<T: Value>(
    per_pos_views: &[&[ProcView<T>]],
    tested_ids: &[usize],
    producers: &mut Producers,
) -> AnalysisResult {
    let mut result = AnalysisResult::default();
    for (slot, &id) in tested_ids.iter().enumerate() {
        flow_arcs(
            per_pos_views.iter().map(|views| views[slot].touched()),
            id as u32,
            &mut result.arcs,
            producers,
        );
    }
    // The scan emits arcs in touch order; at most one arc per
    // `(array, elem)` is reported, so this key is a total order.
    result.arcs.sort_unstable_by_key(|a| (a.array, a.elem));
    for views in per_pos_views {
        let touched: usize = views.iter().map(|v| v.num_touched()).sum();
        result.total_touched += touched;
        result.max_touched = result.max_touched.max(touched);
    }
    result.first_violation = result.arcs.iter().map(|a| a.sink_pos).min();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ShadowKind;
    use crate::value::Reduction;

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
        analyze(&refs, &[0], &mut Producers::default())
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
