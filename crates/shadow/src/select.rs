//! Static shadow-structure selection.
//!
//! The paper's shadow-structure optimization makes marking cost
//! proportional to the number of *touched* elements rather than the
//! array size — but only if the right structure is picked: a dense byte
//! shadow is fastest per mark yet allocates (and, bit-packed, clears)
//! the whole array; a sparse hash shadow allocates per touch but pays
//! hashing on every mark. With the symbolic dependence analysis
//! predicting per-array **touch density** ahead of the run, the choice
//! is made statically per loop, before the engine is built.
//!
//! [`choose`] is a pure function of `(size, predicted_touched)` so the
//! decision is auditable and testable in isolation. There is no
//! per-array budget: the byte cap is a run setting, and [`fit_budget`]
//! is the run's one ladder over all of a loop's tested arrays at once.
//! A step always shrinks the projection; a slot with no smaller tier
//! left is at its floor.

/// Which shadow structure to instrument an array with (re-exported by
/// the engine as `rlrpd_core::ShadowKind`). Only the marks differ by
/// kind: private values are paged the same way for every kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShadowKind {
    /// One mark byte per element ([`crate::DenseShadow`]): fastest
    /// marks, O(size) allocation — right when most elements are hit.
    Dense,
    /// Bit-packed planes ([`crate::PackedShadow`]): ~4× smaller than
    /// the byte shadow, slightly dearer marks — right for big arrays
    /// with moderate density where footprint dominates.
    Packed,
    /// Hash-based ([`crate::SparseShadow`]): allocation proportional to
    /// touches — right when a large array is touched sparsely.
    Sparse,
}

impl ShadowKind {
    /// Short lowercase name for reports and lints.
    pub fn describe(self) -> &'static str {
        match self {
            ShadowKind::Dense => "dense",
            ShadowKind::Packed => "packed",
            ShadowKind::Sparse => "sparse",
        }
    }

    /// The next-smaller representation on the degradation ladder, or
    /// `None` at the sparse floor.
    pub fn down_tier(self) -> Option<ShadowKind> {
        match self {
            ShadowKind::Dense => Some(ShadowKind::Packed),
            ShadowKind::Packed => Some(ShadowKind::Sparse),
            ShadowKind::Sparse => None,
        }
    }
}

/// Below this size a dense byte shadow is always cheapest: the whole
/// shadow fits in a couple of cache lines, so density games cannot win.
pub const SMALL_ARRAY: usize = 1 << 10;

/// Touch density at or below which hashing beats allocating the array:
/// fewer than 1 in 64 elements marked.
pub const SPARSE_DENSITY: f64 = 1.0 / 64.0;

/// Touch density below which the bit-packed shadow's 4× footprint
/// saving outweighs its dearer marks.
pub const PACKED_DENSITY: f64 = 1.0 / 4.0;

/// Estimated bytes per occupied sparse-shadow entry: an 8-byte key, a
/// mark byte, and hash-table control/padding overhead.
pub const SPARSE_ENTRY_BYTES: u64 = 16;

/// Bytes each touched element costs in a dense/packed touched list
/// (`u32` per first touch).
pub const TOUCH_LIST_BYTES: u64 = 4;

/// Predicted per-processor footprint, in bytes, of one shadow of
/// `kind` over an array of `size` elements with `touched` distinct
/// references per stage. Pure; mirrors what the live structures report
/// as their `shadow_bytes` (dense: a mark byte per element; packed:
/// three bit-planes; sparse: hash entries), so [`fit_budget`]'s
/// projection and the engine's cap check agree on what fits.
pub fn footprint(kind: ShadowKind, size: usize, touched: usize) -> u64 {
    // Distinct touches cannot exceed the array (overcounted predictions
    // clamp, mirroring `choose`'s density clamp).
    let touched = touched.min(size) as u64;
    match kind {
        ShadowKind::Dense => size as u64 + touched * TOUCH_LIST_BYTES,
        ShadowKind::Packed => size.div_ceil(64) as u64 * 24 + touched * TOUCH_LIST_BYTES,
        ShadowKind::Sparse => touched * SPARSE_ENTRY_BYTES,
    }
}

/// Pick the shadow structure for an array of `size` elements of which
/// the static analysis predicts `touched` distinct ones are referenced
/// per speculative stage. Pure and total: callers may feed
/// `touched > size` (clamped) or `size == 0` (dense).
pub fn choose(size: usize, touched: usize) -> ShadowKind {
    if size < SMALL_ARRAY {
        return ShadowKind::Dense;
    }
    let density = touched.min(size) as f64 / size as f64;
    if density <= SPARSE_DENSITY {
        ShadowKind::Sparse
    } else if density <= PACKED_DENSITY {
        ShadowKind::Packed
    } else {
        ShadowKind::Dense
    }
}

/// The run's one budget ladder. Slot `s` of a loop holds `kinds[s]`
/// over `sizes[s]` elements, `touched[s]` of them per processor; the
/// projection is `p` copies of every slot's [`footprint`] plus `extra`
/// bytes the slots do not model. While it exceeds `cap`, the slot with
/// the largest predicted footprint steps to the first tier below it
/// (dense → packed → sparse) whose footprint is strictly smaller — for
/// a small, fully touched array sparse is the *largest* tier. A slot
/// with no smaller tier is at its floor: the result may still exceed
/// `cap`, and the runtime's window-shrink / sequential-fallback rungs
/// take over from there.
pub fn fit_budget(
    kinds: &[ShadowKind],
    sizes: &[usize],
    touched: &[usize],
    p: u64,
    extra: u64,
    cap: u64,
) -> Vec<ShadowKind> {
    let mut kinds = kinds.to_vec();
    let foot = |kind, s: usize| p.saturating_mul(footprint(kind, sizes[s], touched[s]));
    loop {
        let total = (0..kinds.len()).fold(extra, |t, s| t.saturating_add(foot(kinds[s], s)));
        if total <= cap {
            return kinds;
        }
        let smaller = |s: usize| {
            let now = foot(kinds[s], s);
            std::iter::successors(kinds[s].down_tier(), |k| k.down_tier())
                .find(|&k| foot(k, s) < now)
                .map(|k| (s, now, k))
        };
        let Some((slot, _, next)) = (0..kinds.len())
            .filter_map(smaller)
            .max_by_key(|&(_, now, _)| now)
        else {
            return kinds;
        };
        kinds[slot] = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ShadowKind::{Dense, Packed, Sparse};

    #[test]
    fn small_arrays_are_always_dense() {
        assert_eq!(choose(8, 1), ShadowKind::Dense);
        assert_eq!(choose(1023, 0), ShadowKind::Dense);
        assert_eq!(choose(0, 0), ShadowKind::Dense);
    }

    #[test]
    fn sparse_touches_on_big_arrays_hash() {
        assert_eq!(choose(1 << 20, 100), ShadowKind::Sparse);
        assert_eq!(choose(1 << 20, (1 << 20) / 64), ShadowKind::Sparse);
    }

    #[test]
    fn moderate_density_bit_packs() {
        assert_eq!(choose(1 << 20, 1 << 17), ShadowKind::Packed);
        assert_eq!(choose(4096, 512), ShadowKind::Packed);
    }

    #[test]
    fn dense_touches_stay_dense() {
        assert_eq!(choose(1 << 20, 1 << 19), ShadowKind::Dense);
        assert_eq!(choose(4096, 4096), ShadowKind::Dense);
    }

    #[test]
    fn overcounted_touches_clamp() {
        assert_eq!(choose(4096, usize::MAX), ShadowKind::Dense);
    }

    #[test]
    fn boundaries_are_stable() {
        let size = 1 << 12;
        // Exactly at the sparse threshold: still sparse (<=).
        assert_eq!(choose(size, size / 64), ShadowKind::Sparse);
        assert_eq!(choose(size, size / 64 + 1), ShadowKind::Packed);
        assert_eq!(choose(size, size / 4), ShadowKind::Packed);
        assert_eq!(choose(size, size / 4 + 1), ShadowKind::Dense);
    }

    #[test]
    fn the_largest_predicted_footprint_steps_first() {
        // Two dense slots over one cap: the bigger array steps first,
        // and one step is enough.
        let (sizes, touched) = ([1 << 12, 1 << 16], [64, 64]);
        let fits_one_step =
            2 * (footprint(Dense, sizes[0], touched[0]) + footprint(Packed, sizes[1], touched[1]));
        assert_eq!(
            fit_budget(&[Dense, Dense], &sizes, &touched, 2, 0, fits_one_step),
            [Dense, Packed]
        );
        // One byte less: the packed slot is still the largest, so it
        // steps again and the small dense one is never touched.
        assert_eq!(
            fit_budget(&[Dense, Dense], &sizes, &touched, 2, 0, fits_one_step - 1),
            [Dense, Sparse]
        );
    }

    #[test]
    fn sparse_is_the_floor_even_over_budget() {
        // Nothing smaller exists: a starvation cap walks every slot to
        // sparse and stops there (the runtime's rungs handle the rest).
        let sizes = [1 << 20, 512];
        let kinds = fit_budget(&[Dense, Dense], &sizes, &[1 << 12, 4], 4, 0, 1);
        assert_eq!(kinds, [Sparse, Sparse]);
        // Half touched, the big slot's sparse tier would outweigh its
        // dense one: it stops at packed.
        let kinds = fit_budget(&[Dense, Packed], &sizes, &[1 << 19, 4], 4, 0, 1);
        assert_eq!(kinds, [Packed, Sparse]);
        // The small-array fast path is a performance default, not an
        // exemption from the ladder.
        assert_eq!(
            fit_budget(&[choose(512, 4)], &[512], &[4], 1, 0, 64),
            [Sparse]
        );
    }

    #[test]
    fn extra_bytes_count_toward_the_total() {
        let (sizes, touched) = ([1 << 16], [1 << 15]);
        let dense = 4 * footprint(Dense, sizes[0], touched[0]);
        assert_eq!(fit_budget(&[Dense], &sizes, &touched, 4, 0, dense), [Dense]);
        assert_eq!(
            fit_budget(&[Dense], &sizes, &touched, 4, 1, dense),
            [Packed]
        );
        // An unbounded extra cannot overflow the projection: it walks
        // to the floor, which at density ½ is packed (sparse would be
        // 2.7× dense).
        assert_eq!(
            fit_budget(&[Dense], &sizes, &touched, 4, u64::MAX, dense),
            [Packed]
        );
    }

    #[test]
    fn a_slot_never_steps_into_a_bigger_tier() {
        // A small, fully touched array: sparse costs 16 B a touch, four
        // times the dense byte plus touch list. Under a tiny cap the
        // ladder stops at packed instead of growing the footprint.
        let (sizes, touched) = ([4096], [4096]);
        assert!(footprint(Sparse, 4096, 4096) > footprint(Dense, 4096, 4096));
        assert_eq!(fit_budget(&[Dense], &sizes, &touched, 4, 0, 1), [Packed]);
        assert_eq!(fit_budget(&[Packed], &sizes, &touched, 4, 0, 1), [Packed]);
        // Below 24 elements packed outweighs dense, so a lightly touched
        // dense slot skips it on the way to sparse, and a fully touched
        // one has no smaller tier at all.
        assert_eq!(fit_budget(&[Dense], &[16], &[1], 1, 0, 1), [Sparse]);
        assert_eq!(fit_budget(&[Dense], &[16], &[16], 1, 0, 1), [Dense]);
    }

    #[test]
    fn nothing_steps_when_the_projection_fits() {
        let kinds = [Dense, Packed, Sparse];
        let (sizes, touched) = ([8, 1 << 20, 1 << 20], [8, 1 << 17, 100]);
        let total: u64 = (0..3)
            .map(|s| 3 * footprint(kinds[s], sizes[s], touched[s]))
            .sum();
        assert_eq!(fit_budget(&kinds, &sizes, &touched, 3, 0, total), kinds);
        assert_eq!(fit_budget(&kinds, &sizes, &touched, 3, 0, u64::MAX), kinds);
        assert!(fit_budget(&[], &[], &[], 3, 0, 0).is_empty());
    }

    #[test]
    fn footprint_orders_the_ladder() {
        let (size, touched) = (1 << 20, 1 << 14);
        let d = footprint(Dense, size, touched);
        let p = footprint(Packed, size, touched);
        let s = footprint(Sparse, size, touched);
        assert!(d > p && p > s, "{d} > {p} > {s}");
    }
}
