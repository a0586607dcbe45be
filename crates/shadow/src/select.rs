//! Static shadow-structure selection.
//!
//! The paper's shadow-structure optimization makes marking cost
//! proportional to the number of *touched* elements rather than the
//! array size — but only if the right structure is picked: a dense byte
//! shadow is fastest per mark yet allocates (and, bit-packed, clears)
//! the whole array; a sparse hash shadow allocates per touch but pays
//! hashing on every mark. The run-time pass historically picked by
//! array size alone; with the symbolic dependence analysis predicting
//! per-array **touch density** ahead of the run, the choice can be made
//! statically per loop — and re-made at commit points from *observed*
//! density (the ROADMAP "adaptive shadow selection under memory
//! budgets" item).
//!
//! [`choose`] is a pure function of `(size, predicted_touched, budget)`
//! so the decision is auditable and testable in isolation; the engine
//! declares and migrates shadows in the same [`ShadowKind`]. The optional
//! per-array budget clamps the density pick down the
//! dense→packed→sparse ladder when the picked structure alone would
//! exceed it ([`clamp_to_budget`]); sparse is the floor — its footprint
//! follows touches, not `n`, so it is always admissible.

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
/// through the accountant (dense: a mark byte per element; packed:
/// three bit-planes; sparse: hash entries), so the budget clamp and the
/// runtime ladder agree on which representations fit.
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

/// Walk `kind` down the dense→packed→sparse ladder until its
/// predicted [`footprint`] fits `budget` (no-op when `budget` is
/// `None`). Sparse is the floor: it is returned even when its
/// touch-proportional footprint exceeds the budget, because no
/// representation can do better and the runtime's window-shrink /
/// sequential-fallback rungs take over from there.
pub fn clamp_to_budget(
    kind: ShadowKind,
    size: usize,
    touched: usize,
    budget: Option<u64>,
) -> ShadowKind {
    let Some(cap) = budget else { return kind };
    let mut c = kind;
    while footprint(c, size, touched) > cap {
        match c.down_tier() {
            Some(next) => c = next,
            None => break,
        }
    }
    c
}

/// Pick the shadow structure for an array of `size` elements of which
/// the static analysis predicts `touched` distinct ones are referenced
/// per speculative stage, under an optional per-array byte `budget`
/// (see [`clamp_to_budget`]). Pure and total: callers may feed
/// `touched > size` (clamped) or `size == 0` (dense).
pub fn choose(size: usize, touched: usize, budget: Option<u64>) -> ShadowKind {
    let unclamped = if size < SMALL_ARRAY {
        ShadowKind::Dense
    } else {
        let density = touched.min(size) as f64 / size as f64;
        if density <= SPARSE_DENSITY {
            ShadowKind::Sparse
        } else if density <= PACKED_DENSITY {
            ShadowKind::Packed
        } else {
            ShadowKind::Dense
        }
    };
    clamp_to_budget(unclamped, size, touched, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_arrays_are_always_dense() {
        assert_eq!(choose(8, 1, None), ShadowKind::Dense);
        assert_eq!(choose(1023, 0, None), ShadowKind::Dense);
        assert_eq!(choose(0, 0, None), ShadowKind::Dense);
    }

    #[test]
    fn sparse_touches_on_big_arrays_hash() {
        assert_eq!(choose(1 << 20, 100, None), ShadowKind::Sparse);
        assert_eq!(choose(1 << 20, (1 << 20) / 64, None), ShadowKind::Sparse);
    }

    #[test]
    fn moderate_density_bit_packs() {
        assert_eq!(choose(1 << 20, 1 << 17, None), ShadowKind::Packed);
        assert_eq!(choose(4096, 512, None), ShadowKind::Packed);
    }

    #[test]
    fn dense_touches_stay_dense() {
        assert_eq!(choose(1 << 20, 1 << 19, None), ShadowKind::Dense);
        assert_eq!(choose(4096, 4096, None), ShadowKind::Dense);
    }

    #[test]
    fn overcounted_touches_clamp() {
        assert_eq!(choose(4096, usize::MAX, None), ShadowKind::Dense);
    }

    #[test]
    fn boundaries_are_stable() {
        let size = 1 << 12;
        // Exactly at the sparse threshold: still sparse (<=).
        assert_eq!(choose(size, size / 64, None), ShadowKind::Sparse);
        assert_eq!(choose(size, size / 64 + 1, None), ShadowKind::Packed);
        assert_eq!(choose(size, size / 4, None), ShadowKind::Packed);
        assert_eq!(choose(size, size / 4 + 1, None), ShadowKind::Dense);
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        for (size, touched) in [(8, 1), (1 << 20, 100), (4096, 512), (4096, 4096)] {
            assert_eq!(
                choose(size, touched, None),
                choose(size, touched, Some(u64::MAX))
            );
        }
    }

    #[test]
    fn dense_pick_over_budget_down_tiers() {
        // A dense-density array whose byte shadow alone exceeds the
        // budget must drop to packed, and then to sparse.
        let size = 1 << 20;
        let touched = size / 2;
        assert_eq!(choose(size, touched, None), ShadowKind::Dense);
        let packed_fits = footprint(ShadowKind::Packed, size, touched);
        assert_eq!(choose(size, touched, Some(packed_fits)), ShadowKind::Packed);
        // Below packed's footprint the only remaining tier is sparse.
        assert_eq!(
            choose(size, touched, Some(packed_fits - 1)),
            ShadowKind::Sparse
        );
    }

    #[test]
    fn sparse_is_the_floor_even_over_budget() {
        // Nothing smaller exists: a starvation budget still yields
        // sparse (the runtime ladder handles the rest).
        assert_eq!(choose(1 << 20, 1 << 19, Some(1)), ShadowKind::Sparse);
        assert_eq!(
            clamp_to_budget(ShadowKind::Sparse, 1 << 20, 1 << 19, Some(1)),
            ShadowKind::Sparse
        );
    }

    #[test]
    fn small_arrays_also_respect_the_budget() {
        // The small-array fast path is a performance default, not an
        // exemption from governance.
        assert_eq!(choose(512, 4, Some(64)), ShadowKind::Sparse);
    }

    #[test]
    fn footprint_orders_the_ladder() {
        let (size, touched) = (1 << 20, 1 << 14);
        let d = footprint(ShadowKind::Dense, size, touched);
        let p = footprint(ShadowKind::Packed, size, touched);
        let s = footprint(ShadowKind::Sparse, size, touched);
        assert!(d > p && p > s, "{d} > {p} > {s}");
    }
}
