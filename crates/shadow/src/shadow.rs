//! Runtime-selected shadow representation.
//!
//! The engine builds one kind per tested array when it starts: dense
//! when the array is small relative to the expected touch count
//! (TRACK's NUSED), packed for moderate density, sparse for huge,
//! sparsely touched arrays (SPICE's VALUE workspace). A kind changes
//! only on empty views, by building a fresh shadow. [`Shadow`]
//! dispatches with a uniform API so the rest of the engine never
//! branches on representation.

use crate::dense::DenseShadow;
use crate::marks::Mark;
use crate::packed::PackedShadow;
use crate::select::ShadowKind;
use crate::sparse::SparseShadow;

/// The per-element transitions of one representation. Code written
/// once over `M: Marking` runs on whichever representation a [`Shadow`]
/// holds, matched once for a batch of references.
pub trait Marking {
    /// Current mark of `elem`.
    fn mark(&self, elem: usize) -> Mark;
    /// Record an ordinary read of `elem`.
    fn on_read(&mut self, elem: usize);
    /// Record an ordinary write of `elem`.
    fn on_write(&mut self, elem: usize);
    /// Record a reduction update of `elem`.
    fn on_reduce(&mut self, elem: usize);
    /// Convert `elem`'s reduction marks to ordinary marks.
    fn materialize(&mut self, elem: usize);
}

/// A per-processor shadow of one array under test, dense or sparse.
#[derive(Clone, Debug)]
pub enum Shadow {
    /// One mark byte per element plus touched list.
    Dense(DenseShadow),
    /// Bit-packed planes, 3 bits per element.
    Packed(PackedShadow),
    /// Hash map from element to mark byte.
    Sparse(SparseShadow),
}

impl Shadow {
    /// A dense shadow for `size` elements.
    pub fn dense(size: usize) -> Self {
        Shadow::Dense(DenseShadow::new(size))
    }

    /// A bit-packed dense shadow for `size` elements.
    pub fn packed(size: usize) -> Self {
        Shadow::Packed(PackedShadow::new(size))
    }

    /// A sparse shadow (unbounded index space).
    pub fn sparse() -> Self {
        Shadow::Sparse(SparseShadow::new())
    }

    /// A fresh shadow of representation `kind` for an array of `size`
    /// elements.
    pub fn for_kind(kind: ShadowKind, size: usize) -> Self {
        match kind {
            ShadowKind::Dense => Shadow::dense(size),
            ShadowKind::Packed => Shadow::packed(size),
            ShadowKind::Sparse => Shadow::sparse(),
        }
    }

    /// Which representation this shadow currently is.
    pub fn kind(&self) -> ShadowKind {
        match self {
            Shadow::Dense(_) => ShadowKind::Dense,
            Shadow::Packed(_) => ShadowKind::Packed,
            Shadow::Sparse(_) => ShadowKind::Sparse,
        }
    }

    /// Record an ordinary read of `elem`.
    #[inline]
    pub fn on_read(&mut self, elem: usize) {
        match self {
            Shadow::Dense(s) => s.on_read(elem),
            Shadow::Packed(s) => s.on_read(elem),
            Shadow::Sparse(s) => s.on_read(elem),
        }
    }

    /// Record an ordinary write of `elem`.
    #[inline]
    pub fn on_write(&mut self, elem: usize) {
        match self {
            Shadow::Dense(s) => s.on_write(elem),
            Shadow::Packed(s) => s.on_write(elem),
            Shadow::Sparse(s) => s.on_write(elem),
        }
    }

    /// Record a reduction update of `elem`.
    #[inline]
    pub fn on_reduce(&mut self, elem: usize) {
        match self {
            Shadow::Dense(s) => s.on_reduce(elem),
            Shadow::Packed(s) => s.on_reduce(elem),
            Shadow::Sparse(s) => s.on_reduce(elem),
        }
    }

    /// Convert `elem`'s reduction marks to ordinary marks.
    #[inline]
    pub fn materialize(&mut self, elem: usize) {
        match self {
            Shadow::Dense(s) => s.materialize(elem),
            Shadow::Packed(s) => s.materialize(elem),
            Shadow::Sparse(s) => s.materialize(elem),
        }
    }

    /// Current mark of `elem`.
    #[inline]
    pub fn mark(&self, elem: usize) -> Mark {
        match self {
            Shadow::Dense(s) => s.mark(elem),
            Shadow::Packed(s) => s.mark(elem),
            Shadow::Sparse(s) => s.mark(elem),
        }
    }

    /// Distinct elements referenced with their marks. Order is
    /// first-touch for dense, arbitrary for sparse; analysis must not
    /// depend on it.
    pub fn touched(&self) -> Box<dyn Iterator<Item = (usize, Mark)> + '_> {
        match self {
            Shadow::Dense(s) => Box::new(s.touched()),
            Shadow::Packed(s) => Box::new(s.touched()),
            Shadow::Sparse(s) => Box::new(s.touched()),
        }
    }

    /// Number of distinct elements referenced.
    pub fn num_touched(&self) -> usize {
        match self {
            Shadow::Dense(s) => s.num_touched(),
            Shadow::Packed(s) => s.num_touched(),
            Shadow::Sparse(s) => s.num_touched(),
        }
    }

    /// Re-initialize for the next stage.
    pub fn clear(&mut self) {
        match self {
            Shadow::Dense(s) => s.clear(),
            Shadow::Packed(s) => s.clear(),
            Shadow::Sparse(s) => s.clear(),
        }
    }

    /// Shadow memory held, in bytes (sparse is a capacity-based
    /// estimate) — what the engine holds against its cap.
    pub fn shadow_bytes(&self) -> u64 {
        match self {
            Shadow::Dense(s) => s.shadow_bytes() as u64,
            Shadow::Packed(s) => s.shadow_bytes() as u64,
            Shadow::Sparse(s) => s.shadow_bytes() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(size: usize) -> [Shadow; 3] {
        [Shadow::dense(size), Shadow::packed(size), Shadow::sparse()]
    }

    #[test]
    fn dense_and_sparse_agree_on_marking_semantics() {
        for mut s in both(16) {
            s.on_read(3);
            s.on_write(3);
            s.on_write(5);
            s.on_read(5);
            s.on_reduce(7);
            assert!(s.mark(3).is_exposed_read() && s.mark(3).is_written());
            assert!(s.mark(5).is_written() && !s.mark(5).is_exposed_read());
            assert!(s.mark(7).is_reduction_only());
            assert_eq!(s.num_touched(), 3);
            s.clear();
            assert_eq!(s.num_touched(), 0);
        }
    }

    #[test]
    fn touched_sets_agree_between_representations() {
        let mut d = Shadow::dense(32);
        let mut p = Shadow::sparse();
        let refs = [(3usize, 'r'), (9, 'w'), (3, 'w'), (21, 'r'), (9, 'r')];
        for (e, k) in refs {
            match k {
                'r' => {
                    d.on_read(e);
                    p.on_read(e);
                }
                _ => {
                    d.on_write(e);
                    p.on_write(e);
                }
            }
        }
        let mut dt: Vec<(usize, u8)> = d.touched().map(|(e, m)| (e, m.0)).collect();
        let mut pt: Vec<(usize, u8)> = p.touched().map(|(e, m)| (e, m.0)).collect();
        dt.sort_unstable();
        pt.sort_unstable();
        assert_eq!(dt, pt);
    }
}
