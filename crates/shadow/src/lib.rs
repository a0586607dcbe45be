//! Shadow data structures for the LRPD family of run-time dependence
//! tests.
//!
//! The LRPD test instruments every read/write of a compiler-unanalyzable
//! shared array with *marking code* that records, per processor and per
//! element, whether the element was written and whether it was read
//! before being written (an *exposed* read — the reference that needs
//! copy-in and the only possible sink of a cross-processor flow
//! dependence). This crate provides:
//!
//! * [`marks`] — the 2(+1)-bit mark byte and its transition rules,
//! * [`DenseShadow`] — one mark byte per array element plus a *touched
//!   list* so that analysis and re-initialization are proportional to the
//!   number of distinct references, not the array size (the paper's
//!   shadow-structure optimization),
//! * [`SparseShadow`] — a hash-based shadow for SPICE-like access
//!   patterns where the array is huge and touches are sparse,
//! * [`PackedShadow`] — the paper's literal bit-packed layout (3 bits
//!   per element in planes), ~4× smaller than the byte shadow,
//! * [`Shadow`] — one of the three, chosen per array,
//! * [`IterMarks`] — per-*iteration* mark lists (the paper's "N-level
//!   mark list") used by sliding-window DDG extraction.
//!
//! All structures are per-processor and single-threaded by design; the
//! analysis phase merges them across processors.
//!
//! ```
//! use rlrpd_shadow::Shadow;
//!
//! let mut shadow = Shadow::dense(16);
//! shadow.on_read(3);   // exposed: no prior write
//! shadow.on_write(3);
//! shadow.on_write(5);
//! shadow.on_read(5);   // covered by the write above
//! assert!(shadow.mark(3).is_exposed_read());
//! assert!(!shadow.mark(5).is_exposed_read());
//! assert_eq!(shadow.num_touched(), 2);
//! shadow.clear();      // O(touched), not O(size)
//! assert_eq!(shadow.num_touched(), 0);
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod budget;
pub mod dense;
pub mod hasher;
pub mod iter_marks;
pub mod marks;
pub mod packed;
pub mod select;
pub mod shadow;
pub mod sparse;

pub use budget::{BudgetLease, BudgetPool};
pub use dense::DenseShadow;
pub use iter_marks::{ElemEvents, EventKind, IterMarks};
pub use marks::Mark;
pub use packed::PackedShadow;
pub use select::{choose, fit_budget, footprint, ShadowKind};
pub use shadow::{Marking, Shadow};
pub use sparse::SparseShadow;
