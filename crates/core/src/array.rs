//! Array declarations: what the compiler pass would tell the run-time
//! system about each shared array referenced by the loop.
//!
//! The paper's transformed loop distinguishes:
//!
//! * **tested** arrays (`A` in Fig. 1) — the compiler could not analyze
//!   their access pattern; they are privatized with on-demand copy-in,
//!   shadow-marked, and committed by last value after the test passes;
//! * **untested** arrays (`B` in Fig. 1) — statically analyzable and
//!   safe for the parallel schedule, but *modified*, so they are
//!   checkpointed and restored on the processors whose work is
//!   discarded;
//! * tested arrays with a **reduction** operator — referenced only as
//!   `x = x ⊕ exp`; validated speculatively and committed by folding
//!   per-processor deltas.

use crate::value::{Reduction, Value};

/// Handle to a declared array, valid for the loop that declared it.
/// Indexes the declaration list in order of declaration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ArrayId(pub u32);

impl ArrayId {
    /// Index into declaration-ordered storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Shadow representation of a tested array: dense mark bytes, the
/// paper's bit-packed planes, or a hash map for huge sparsely touched
/// arrays. Private values are paged the same way for every kind.
pub use rlrpd_shadow::ShadowKind;

/// How an array participates in the speculative execution.
pub enum ArrayKind<T> {
    /// Compiler-unanalyzable: privatize, mark, test, commit.
    Tested {
        /// Shadow representation.
        shadow: ShadowKind,
        /// Optional speculative reduction operator: elements referenced
        /// exclusively through [`crate::ctx::IterCtx::reduce`] are
        /// validated as parallel reductions instead of dependences.
        reduction: Option<Reduction<T>>,
    },
    /// Statically analyzable but modified: written directly to shared
    /// storage, checkpointed for rollback. The *caller* guarantees (as
    /// the compiler would) that concurrent iterations never write the
    /// same element.
    Untested {
        /// The caller also guarantees that the loop never reads the
        /// array, stores it on every path at subscripts of the iteration
        /// alone and never exits early: re-execution rewrites whatever a
        /// discarded block wrote, so no old value is saved or restored.
        restore_free: bool,
    },
}

impl<T> std::fmt::Debug for ArrayKind<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArrayKind::Tested { shadow, reduction } => f
                .debug_struct("Tested")
                .field("shadow", shadow)
                .field("reduction", &reduction.is_some())
                .finish(),
            ArrayKind::Untested {
                restore_free: false,
            } => write!(f, "Untested"),
            ArrayKind::Untested { .. } => write!(f, "Untested (restore-free)"),
        }
    }
}

/// One shared array declaration: name (for reports), participation kind,
/// and the initial contents at loop entry.
pub struct ArrayDecl<T> {
    /// Human-readable name used in reports and panics.
    pub name: &'static str,
    /// Participation kind.
    pub kind: ArrayKind<T>,
    /// Contents at loop entry; the engine clones this per run.
    pub init: Vec<T>,
}

impl<T: Value> ArrayDecl<T> {
    /// A tested array with the given shadow representation.
    pub fn tested(name: &'static str, init: Vec<T>, shadow: ShadowKind) -> Self {
        ArrayDecl {
            name,
            kind: ArrayKind::Tested {
                shadow,
                reduction: None,
            },
            init,
        }
    }

    /// A tested array that is also a speculative reduction target.
    pub fn reduction(
        name: &'static str,
        init: Vec<T>,
        shadow: ShadowKind,
        op: Reduction<T>,
    ) -> Self {
        ArrayDecl {
            name,
            kind: ArrayKind::Tested {
                shadow,
                reduction: Some(op),
            },
            init,
        }
    }

    /// An untested (checkpointed) array.
    pub fn untested(name: &'static str, init: Vec<T>) -> Self {
        ArrayDecl {
            name,
            kind: ArrayKind::Untested {
                restore_free: false,
            },
            init,
        }
    }

    /// True for tested (shadow-marked) arrays.
    pub fn is_tested(&self) -> bool {
        matches!(self.kind, ArrayKind::Tested { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kinds() {
        let t = ArrayDecl::tested("A", vec![0.0; 4], ShadowKind::Dense);
        assert!(t.is_tested());
        let u = ArrayDecl::<f64>::untested("B", vec![0.0; 4]);
        assert!(!u.is_tested());
        let r = ArrayDecl::reduction("Y", vec![0.0; 4], ShadowKind::Sparse, Reduction::sum());
        match r.kind {
            ArrayKind::Tested { reduction, .. } => assert!(reduction.is_some()),
            _ => panic!(),
        }
    }

    #[test]
    fn array_id_indexes_declaration_order() {
        assert_eq!(ArrayId(3).index(), 3);
    }
}
