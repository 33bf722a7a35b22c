//! Typed atomic pointers to reclaimable blocks, with low-bit tagging.
//!
//! Data structures store links as [`Atomic<T>`] — an atomic word holding a
//! `*mut Linked<T>` whose low bits may carry marks (Harris-Michael lists mark
//! the next pointer of logically deleted nodes, the Natarajan-Mittal BST flags
//! and tags child edges). The representation is a plain `AtomicUsize`, which
//! is exactly what the WFE slow path needs: a helper thread can re-read the
//! hazardous location through its address without knowing `T`.

use core::marker::PhantomData;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::block::Linked;

/// An atomic, optionally tagged pointer to a [`Linked<T>`] block.
#[repr(transparent)]
pub struct Atomic<T> {
    raw: AtomicUsize,
    _marker: PhantomData<*mut Linked<T>>,
}

// The pointer itself is freely shareable; dereferencing it is where the
// reclamation contract (and `unsafe`) kicks in.
// SAFETY: the pointer itself is freely shareable; dereferencing it is where
// the reclamation contract (and `unsafe`) kicks in.
unsafe impl<T> Send for Atomic<T> {}
// SAFETY: as above — the cell is a plain atomic word.
unsafe impl<T> Sync for Atomic<T> {}

impl<T> Atomic<T> {
    /// Creates a null pointer.
    pub const fn null() -> Self {
        Self {
            raw: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Creates a pointer holding `ptr` (no tag).
    pub fn new(ptr: *mut Linked<T>) -> Self {
        Self {
            raw: AtomicUsize::new(ptr as usize),
            _marker: PhantomData,
        }
    }

    /// Loads the raw (possibly tagged) pointer.
    #[inline]
    pub fn load(&self, order: Ordering) -> *mut Linked<T> {
        self.raw.load(order) as *mut Linked<T>
    }

    /// Stores a raw (possibly tagged) pointer.
    #[inline]
    pub fn store(&self, ptr: *mut Linked<T>, order: Ordering) {
        self.raw.store(ptr as usize, order);
    }

    /// Compare-and-swap on the raw (possibly tagged) pointer value.
    #[inline]
    pub fn compare_exchange(
        &self,
        current: *mut Linked<T>,
        new: *mut Linked<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut Linked<T>, *mut Linked<T>> {
        self.raw
            .compare_exchange(current as usize, new as usize, success, failure)
            .map(|v| v as *mut Linked<T>)
            .map_err(|v| v as *mut Linked<T>)
    }

    /// Weak compare-and-swap (may fail spuriously), for retry loops.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        current: *mut Linked<T>,
        new: *mut Linked<T>,
        success: Ordering,
        failure: Ordering,
    ) -> Result<*mut Linked<T>, *mut Linked<T>> {
        self.raw
            .compare_exchange_weak(current as usize, new as usize, success, failure)
            .map(|v| v as *mut Linked<T>)
            .map_err(|v| v as *mut Linked<T>)
    }

    /// Atomically sets tag bits (`fetch_or`) on the stored pointer and returns
    /// the previous raw value. Used by the Natarajan-Mittal BST to flag edges.
    #[inline]
    pub fn fetch_or_tag(&self, tag: usize, order: Ordering) -> *mut Linked<T> {
        self.raw.fetch_or(tag, order) as *mut Linked<T>
    }

    /// Exposes the underlying atomic word. The WFE slow path records this
    /// address so that helper threads can re-read the hazardous location.
    #[inline]
    pub fn as_raw_atomic(&self) -> &AtomicUsize {
        &self.raw
    }
}

impl<T> Default for Atomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> core::fmt::Debug for Atomic<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Atomic({:p})", self.load(Ordering::Relaxed)) // ORDER: Debug formatting only.
    }
}

/// Pointer-tagging helpers. All data-structure marks live in the low bits,
/// which are guaranteed free because [`Linked<T>`] allocations are at least
/// word-aligned (the header starts with a `u64`).
pub mod tag {
    use crate::block::Linked;

    /// Returns the pointer with all tag bits removed.
    #[inline]
    pub fn untagged<T>(ptr: *mut Linked<T>) -> *mut Linked<T> {
        ((ptr as usize) & !low_bits::<T>()) as *mut Linked<T>
    }

    /// Returns the tag bits of the pointer.
    #[inline]
    pub fn tag_of<T>(ptr: *mut Linked<T>) -> usize {
        (ptr as usize) & low_bits::<T>()
    }

    /// Returns the pointer with the given tag bits set (previous tag cleared).
    #[inline]
    pub fn with_tag<T>(ptr: *mut Linked<T>, tag: usize) -> *mut Linked<T> {
        debug_assert_eq!(tag & !low_bits::<T>(), 0, "tag does not fit in low bits");
        ((untagged(ptr) as usize) | tag) as *mut Linked<T>
    }

    /// The mask of low bits available for tagging.
    #[inline]
    pub fn low_bits<T>() -> usize {
        core::mem::align_of::<Linked<T>>() - 1
    }

    /// The mask that strips tags: `!low_bits`.
    #[inline]
    pub fn ptr_mask<T>() -> usize {
        !low_bits::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfe_sync::atomic::Ordering::{Relaxed, SeqCst};

    #[test]
    fn null_and_store_load() {
        let a: Atomic<u64> = Atomic::null();
        assert!(a.load(SeqCst).is_null());
        let p = Linked::alloc(5u64, 0);
        a.store(p, SeqCst);
        assert_eq!(a.load(SeqCst), p);
        // SAFETY: test-owned block(s), never retired; freed exactly once.
        unsafe { Linked::dealloc(p) };
    }

    #[test]
    fn compare_exchange_works() {
        let p = Linked::alloc(1u64, 0);
        let q = Linked::alloc(2u64, 0);
        let a = Atomic::new(p);
        assert!(a.compare_exchange(q, p, SeqCst, SeqCst).is_err());
        assert_eq!(a.compare_exchange(p, q, SeqCst, SeqCst), Ok(p));
        assert_eq!(a.load(SeqCst), q);
        // SAFETY: test-owned block(s), never retired; freed exactly once.
        unsafe {
            Linked::dealloc(p);
            Linked::dealloc(q);
        }
    }

    #[test]
    fn tagging_roundtrip() {
        let p = Linked::alloc(3u32, 0);
        assert!(
            tag::low_bits::<u32>() >= 3,
            "at least two tag bits available"
        );
        let tagged = tag::with_tag(p, 1);
        assert_eq!(tag::tag_of(tagged), 1);
        assert_eq!(tag::untagged(tagged), p);
        let retagged = tag::with_tag(tagged, 2);
        assert_eq!(tag::tag_of(retagged), 2);
        assert_eq!(tag::untagged(retagged), p);
        // SAFETY: test-owned block(s), never retired; freed exactly once.
        unsafe { Linked::dealloc(p) };
    }

    #[test]
    fn fetch_or_tag_marks_in_place() {
        let p = Linked::alloc(3u32, 0);
        let a = Atomic::new(p);
        let before = a.fetch_or_tag(1, SeqCst);
        assert_eq!(before, p);
        assert_eq!(tag::tag_of(a.load(Relaxed)), 1);
        assert_eq!(tag::untagged(a.load(Relaxed)), p);
        // SAFETY: test-owned block(s), never retired; freed exactly once.
        unsafe { Linked::dealloc(p) };
    }

    #[test]
    fn atomic_is_word_sized() {
        assert_eq!(
            core::mem::size_of::<Atomic<u64>>(),
            core::mem::size_of::<usize>()
        );
    }
}
