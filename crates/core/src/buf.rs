//! The shared-memory buffer behind every array — and the only `unsafe`
//! code in the workspace.
//!
//! Speculative parallelization is, from the borrow checker's point of
//! view, many threads writing one shared array. The algorithm makes this
//! sound in three disjoint ways, each of which maps to one use of
//! [`SharedBuf`]:
//!
//! 1. **untested arrays during a stage** — the compiler (here: the
//!    caller, via [`crate::array::ArrayKind::Untested`]'s contract)
//!    guarantees concurrent iterations never write the same element;
//! 2. **commit** — each committed element is written once, tagged with
//!    its *last committing writer*, so the blocks' write sets are
//!    disjoint;
//! 3. **restore** — each failed processor undoes exactly the elements
//!    it wrote, which the stage-1 contract already made disjoint.
//!
//! In all three cases disjointness is an algorithmic invariant the type
//! system cannot see, so writes go through [`SharedBuf::set`], an
//! `unsafe fn` whose contract states it. Debug builds additionally
//! *check* the invariant: every write CASes an `(epoch, writer)` tag per
//! element and panics when two writers hit one element in the same
//! epoch.

use std::cell::UnsafeCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size shared buffer of `Copy` values permitting disjoint
/// concurrent writes through a documented unsafe contract.
pub struct SharedBuf<T> {
    data: Box<[UnsafeCell<T>]>,
    /// Per-element `(epoch << 32) | (writer + 1)` tag; 0 = unwritten.
    /// Debug builds only: catches contract violations.
    #[cfg(debug_assertions)]
    owners: Box<[AtomicU64]>,
    #[cfg(debug_assertions)]
    epoch: std::sync::atomic::AtomicU32,
}

// SAFETY: all aliasing writes go through `set`, whose contract requires
// per-epoch per-element writer exclusivity; reads racing a write are
// forbidden by the same contract (`get` is unsafe). With that contract
// upheld there are no data races, so sharing across threads is sound.
unsafe impl<T: Send + Sync> Sync for SharedBuf<T> {}
// SAFETY: the buffer owns its storage; moving it between threads moves
// plain `Send` data with no thread-affine state.
unsafe impl<T: Send> Send for SharedBuf<T> {}

impl<T: Copy> SharedBuf<T> {
    /// Take ownership of `init` as the buffer contents — a move, not a
    /// pass over the elements (a `map(UnsafeCell::new).collect()` reuses
    /// the allocation but still walks it: 2–3 ms per 16 MiB array, per
    /// instantiation).
    pub fn new(init: Vec<T>) -> Self {
        #[cfg(debug_assertions)]
        let owners = (0..init.len()).map(|_| AtomicU64::new(0)).collect();
        let data = Box::into_raw(init.into_boxed_slice()) as *mut [UnsafeCell<T>];
        SharedBuf {
            // SAFETY: `data` came out of `Box::into_raw` just above, and
            // `UnsafeCell<T>` is `repr(transparent)` over `T`: same size,
            // alignment and validity, so the allocation is a valid
            // `Box<[UnsafeCell<T>]>` of the same length and layout.
            data: unsafe { Box::from_raw(data) },
            #[cfg(debug_assertions)]
            owners,
            #[cfg(debug_assertions)]
            epoch: std::sync::atomic::AtomicU32::new(0),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Begin a new write epoch: from now on, each element may be written
    /// by (at most) one new writer identity. Call between speculative
    /// stages / commit phases. Requires `&mut self`, so no writes are in
    /// flight.
    pub fn new_epoch(&mut self) {
        #[cfg(debug_assertions)]
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No thread may be concurrently writing element `i`. The engine
    /// guarantees this: tested arrays are never written during a stage
    /// (writes are privatized), and untested arrays are only read at
    /// indices the untested-disjointness contract keeps thread-local.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> T {
        debug_assert!(i < self.data.len());
        // SAFETY: caller contract — no concurrent writer of element i.
        unsafe { *self.data[i].get() }
    }

    /// Write element `i` as writer identity `who`.
    ///
    /// # Safety
    /// Within the current epoch, element `i` must be written by no
    /// writer identity other than `who`, and no thread may concurrently
    /// read element `i`. Debug builds verify the single-writer part and
    /// panic on violation.
    #[inline]
    pub unsafe fn set(&self, i: usize, v: T, who: u32) {
        debug_assert!(i < self.data.len());
        #[cfg(debug_assertions)]
        self.check_owner(i, who);
        #[cfg(not(debug_assertions))]
        let _ = who;
        // SAFETY: caller contract — `who` is the sole writer of element
        // i this epoch and no concurrent readers exist.
        unsafe { *self.data[i].get() = v };
    }

    #[cfg(debug_assertions)]
    fn check_owner(&self, i: usize, who: u32) {
        let epoch = self.epoch.load(Ordering::SeqCst) as u64;
        let tag = (epoch << 32) | (who as u64 + 1);
        let prev = self.owners[i].swap(tag, Ordering::SeqCst);
        if prev >> 32 == epoch && prev != tag && prev & 0xffff_ffff != 0 {
            panic!(
                "SharedBuf contract violated: element {i} written by {} and {} in epoch {epoch}",
                (prev & 0xffff_ffff) - 1,
                who
            );
        }
    }

    /// Exclusive view of the contents (no concurrent access possible).
    pub fn as_slice(&mut self) -> &[T] {
        // SAFETY: &mut self — no other reference exists.
        unsafe { std::slice::from_raw_parts(self.data.as_ptr() as *const T, self.data.len()) }
    }

    /// Exclusive mutable view of the contents.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: &mut self — no other reference exists.
        unsafe { std::slice::from_raw_parts_mut(self.data.as_mut_ptr() as *mut T, self.data.len()) }
    }

    /// Copy the contents out (exclusive access).
    pub fn to_vec(&mut self) -> Vec<T> {
        self.as_slice().to_vec()
    }

    /// Hand the contents out, consuming the buffer — no copy is made
    /// (`UnsafeCell<T>` has the layout of `T`, so the collect reuses
    /// the allocation in place).
    pub fn into_vec(self) -> Vec<T> {
        self.data
            .into_vec()
            .into_iter()
            .map(UnsafeCell::into_inner)
            .collect()
    }
}

impl<T: Copy + std::fmt::Debug> std::fmt::Debug for SharedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedBuf(len={})", self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let mut b = SharedBuf::new(vec![1.0, 2.0, 3.0]);
        // SAFETY: single-threaded test, single writer.
        unsafe {
            assert_eq!(b.get(1), 2.0);
            b.set(1, 9.0, 0);
            assert_eq!(b.get(1), 9.0);
        }
        assert_eq!(b.as_slice(), &[1.0, 9.0, 3.0]);
    }

    #[test]
    fn disjoint_parallel_writes_are_sound() {
        let b = SharedBuf::new(vec![0usize; 64]);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let b = &b;
                s.spawn(move || {
                    for i in (t..64).step_by(4) {
                        // SAFETY: each thread writes i ≡ t (mod 4) — disjoint.
                        unsafe { b.set(i, i * 10, t as u32) };
                    }
                });
            }
        });
        let mut b = b;
        for (i, &v) in b.as_slice().iter().enumerate() {
            assert_eq!(v, i * 10);
        }
    }

    #[test]
    fn same_writer_may_rewrite_within_epoch() {
        let b = SharedBuf::new(vec![0; 4]);
        // SAFETY: single-threaded test, one writer id, no racing reads.
        unsafe {
            b.set(2, 1, 7);
            b.set(2, 2, 7); // same writer: fine
        }
    }

    #[test]
    fn new_epoch_resets_ownership() {
        let mut b = SharedBuf::new(vec![0; 4]);
        // SAFETY: single-threaded test; each epoch has one writer.
        unsafe { b.set(1, 5, 0) };
        b.new_epoch();
        // SAFETY: as above — the epoch rolled, so writer 1 is sole owner.
        unsafe { b.set(1, 6, 1) }; // different writer, new epoch: fine
        assert_eq!(b.as_slice()[1], 6);
    }

    #[test]
    fn zero_length_buffer_is_fine() {
        let mut b = SharedBuf::<f64>::new(vec![]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert!(b.as_slice().is_empty());
        b.new_epoch();
    }

    #[test]
    fn exclusive_mutation_via_as_mut_slice() {
        let mut b = SharedBuf::new(vec![1, 2, 3]);
        b.as_mut_slice()[1] = 20;
        assert_eq!(b.to_vec(), vec![1, 20, 3]);
    }

    #[test]
    fn new_moves_the_storage_in() {
        let init = vec![1.5, 2.5, 3.5];
        let before = init.as_ptr();
        let mut b = SharedBuf::new(init);
        assert_eq!(b.as_slice().as_ptr(), before, "the allocation is kept");
        assert_eq!(b.as_slice(), &[1.5, 2.5, 3.5]);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn into_vec_moves_the_storage_out() {
        let mut b = SharedBuf::new(vec![1.5, 2.5, 3.5]);
        let before = b.as_slice().as_ptr();
        // SAFETY: single-threaded test, single writer.
        unsafe { b.set(0, 9.0, 0) };
        let v = b.into_vec();
        assert_eq!(v, vec![9.0, 2.5, 3.5]);
        assert_eq!(v.as_ptr(), before, "the allocation is reused, not copied");
    }

    #[test]
    fn is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedBuf<f64>>();
        assert_send_sync::<SharedBuf<i64>>();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "contract violated")]
    fn conflicting_writers_panic_in_debug() {
        let b = SharedBuf::new(vec![0; 4]);
        // SAFETY: deliberately violates the per-epoch single-writer
        // contract to exercise the debug-mode detector; single-threaded,
        // so the violation is a panic, not a data race.
        unsafe {
            b.set(1, 5, 0);
            b.set(1, 6, 1); // second writer, same epoch: contract violation
        }
    }
}
