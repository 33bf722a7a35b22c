//! The intrusive allocation header shared by every reclamation scheme.
//!
//! The paper's Figure 2 shows that each reclaimable node embeds a "hazard eras
//! header block" as its first field. [`Linked<T>`] is that layout: a
//! [`BlockHeader`] followed by the user payload. Schemes only ever traffic in
//! `*mut BlockHeader`; the generic convenience methods on
//! [`Handle`](crate::Handle) recover the typed pointer.

use wfe_sync::atomic::{AtomicU64, Ordering};

use crate::cache::{self, LocalBlockCache, SizeClass};
#[cfg(debug_assertions)]
use crate::slab;

/// The "infinite" era: a reservation holding this value protects nothing.
///
/// Matches the `∞` sentinel of the paper's pseudo-code.
pub const ERA_INF: u64 = u64::MAX;

/// The reserved invalid pointer value used by WFE's slow path.
///
/// The paper reserves the maximum integer value because `nullptr` is a
/// legitimate value for hazardous references while no real allocation can ever
/// be placed at the top of the address space (`mmap` returns this value only
/// as `MAP_FAILED`).
pub const INVPTR: u64 = u64::MAX;

/// Reclamation header embedded at offset 0 of every reclaimable allocation.
///
/// * `alloc_era` — global era at allocation time (`alloc_block()`),
/// * `drop_fn` — type-erased destructor installed at allocation time.
///
/// What only a retired block needs — its retire era and its place in the
/// retiring thread's batch — lives in that batch's entry
/// ([`Retired`](crate::retired::Retired)), not here, so a live node carries
/// 16 bytes of header rather than 32.
///
/// `alloc_era` is an atomic only because the WFE *helper* threads read it in
/// a parent block concurrently with nothing but the allocation that wrote it.
// LAYOUT: the header is the first 16 bytes of the block it describes. Class
// blocks are carved back to back at their class size from 64-aligned slabs,
// 8-aligned, so a payload's first two words (a list node's `key` and `next`)
// share a line in 7 blocks of 8 at the 40-byte stride; the 8th straddles two
// lines, the price of 40 bytes per node instead of a 48-byte chunk.
#[repr(C)]
#[derive(Debug)]
pub struct BlockHeader {
    /// Era at which the block was allocated.
    pub alloc_era: AtomicU64,
    /// Type-erased destructor: drops the payload and either frees the whole
    /// allocation (`Box`-path blocks, returning `None`) or hands the memory
    /// back to the caller keyed by its size class (`Some`), so the free path
    /// can route it into a block cache or the pool. It is the one record of
    /// which path allocated the block.
    pub(crate) drop_fn: unsafe fn(*mut BlockHeader) -> Option<SizeClass>,
}

impl BlockHeader {
    /// Reads the allocation era.
    #[inline]
    pub fn alloc_era(&self) -> u64 {
        self.alloc_era.load(Ordering::Acquire) // ORDER: pairs with the Release publish of the block that carries the stamp.
    }
}

/// A reclaimable allocation: reclamation header followed by the user payload.
///
/// `#[repr(C)]` guarantees the header sits at offset 0 so a `*mut Linked<T>`
/// can be reinterpreted as `*mut BlockHeader` and back.
#[repr(C)]
#[derive(Debug)]
pub struct Linked<T> {
    /// The reclamation header (must stay the first field).
    pub header: BlockHeader,
    /// The user payload (a data-structure node).
    pub value: T,
}

impl<T> Linked<T> {
    /// The size class this block type is carved and cached under, or `None`
    /// when its layout exceeds the largest class (or its alignment
    /// [`CLASS_ALIGN`](crate::cache::CLASS_ALIGN)) and must use the `Box`
    /// path.
    pub(crate) const SIZE_CLASS: Option<SizeClass> = SizeClass::of(
        core::mem::size_of::<Linked<T>>(),
        core::mem::align_of::<Linked<T>>(),
    );

    /// Heap-allocates a new block with the given allocation era, as a `Box`
    /// of its own (no magazine, so no class block).
    ///
    /// Returns an owning raw pointer; the allocation is freed either by the
    /// reclamation scheme (after [`retire`](crate::Handle::retire)) or by
    /// [`Linked::dealloc`].
    pub fn alloc(value: T, alloc_era: u64) -> *mut Linked<T> {
        Self::alloc_in(value, alloc_era, None)
    }

    /// Like [`alloc`](Self::alloc), but, when the layout fits a size class,
    /// allocates a class block popped from the handle's `local` magazine
    /// (which refills from the pool, [`crate::slab`], when empty). Without a
    /// magazine — the cache off, a scheme that never reclaims — or for a
    /// layout no class fits, the block is a `Box` of its own; its `drop_fn`
    /// records which.
    pub fn alloc_in(
        value: T,
        alloc_era: u64,
        local: Option<&mut LocalBlockCache>,
    ) -> *mut Linked<T> {
        let header = |drop_fn: unsafe fn(*mut BlockHeader) -> Option<SizeClass>| BlockHeader {
            alloc_era: AtomicU64::new(alloc_era),
            drop_fn,
        };
        match (Self::SIZE_CLASS, local) {
            (Some(class), Some(local)) => {
                let raw = local.pop(class);
                // SAFETY: a class block off a magazine is dead memory this
                // thread owns (and poisoned, in debug builds).
                #[cfg(debug_assertions)]
                unsafe {
                    slab::check_poison(raw, class)
                };
                let ptr = raw.cast::<Linked<T>>();
                // SAFETY: `raw` is a class block — at least
                // `size_of::<Linked<T>>()` writable bytes at sufficient
                // alignment, exclusively owned.
                unsafe {
                    ptr.write(Linked {
                        header: header(drop_block_classed::<T>),
                        value,
                    });
                }
                ptr
            }
            _ => Box::into_raw(Box::new(Linked {
                header: header(drop_block_boxed::<T>),
                value,
            })),
        }
    }

    /// Immediately frees a block that is *not* going through a retire path:
    /// the remaining nodes freed by a data structure's `Drop`, which has no
    /// handle. A `Box` goes to the allocator, a class block to the calling
    /// thread's spare magazine (which spills to the pool in chains of half a
    /// magazine). Mid-operation, a node that never became reachable goes back to the
    /// magazine it came from instead
    /// ([`Handle::discard`](crate::Handle::discard)).
    ///
    /// # Safety
    ///
    /// `ptr` must have been produced by [`Linked::alloc`] /
    /// [`Linked::alloc_in`] for the same `T`, must not have been freed or
    /// retired before, and no other thread may still access it.
    pub unsafe fn dealloc(ptr: *mut Linked<T>) {
        // SAFETY: the caller guarantees `ptr` is a live, unaliased block;
        // dispatching through `drop_fn` frees it down whichever path
        // (class or `Box`) allocated it.
        unsafe { free_block(Self::as_header(ptr), None) };
    }

    /// Upcasts a typed block pointer to its header pointer.
    #[inline]
    pub fn as_header(ptr: *mut Linked<T>) -> *mut BlockHeader {
        ptr.cast()
    }
}

/// Frees a type-erased `Box`-path block. Installed as `drop_fn` at
/// allocation time for layouts no size class fits, and for every block
/// allocated without a magazine.
///
/// # Safety
///
/// `header` must point to the `BlockHeader` of a live `Linked<T>` allocation
/// of the matching `T` that was allocated through `Box`.
unsafe fn drop_block_boxed<T>(header: *mut BlockHeader) -> Option<SizeClass> {
    // SAFETY: the caller guarantees `header` is the first field of a live
    // `Linked<T>` allocation, so the cast recovers the original `Box`.
    drop(unsafe { Box::from_raw(header as *mut Linked<T>) });
    None
}

/// Drops the payload of a class-path block **without freeing the memory**,
/// returning its size class so the caller routes the block into a cache or
/// back to the pool. Installed as `drop_fn` at allocation time.
///
/// # Safety
///
/// `header` must point to the `BlockHeader` of a live `Linked<T>` allocation
/// of the matching `T` that was allocated as a class block. After the call
/// the memory is uninitialized and owned by the caller.
unsafe fn drop_block_classed<T>(header: *mut BlockHeader) -> Option<SizeClass> {
    // SAFETY: the caller guarantees `header` is the first field of a live
    // `Linked<T>` allocation; dropping it in place leaves the class memory
    // allocated but uninitialized, exactly what the contract hands back.
    unsafe { core::ptr::drop_in_place(header as *mut Linked<T>) };
    Linked::<T>::SIZE_CLASS
}

/// Frees a block through its type-erased destructor, parking the memory of
/// class-path blocks on the handle's `local` magazine; with no magazine at
/// hand a class block parks on the calling thread's spare one. Debug builds poison a class block before parking it, so a write after
/// the free fails at the next `alloc` of its class.
///
/// # Safety
///
/// The block must be unreachable and unprotected by every thread: retired
/// and judged free, or never published.
// Inlinable across crates: the batch scan that calls this once per freed
// block is instantiated, with the scheme core, in the caller's crate.
#[inline]
pub(crate) unsafe fn free_block(header: *mut BlockHeader, local: Option<&mut LocalBlockCache>) {
    // SAFETY: the caller guarantees the block is retired, unreachable and
    // unprotected; `drop_fn` was installed at allocation for the right `T`.
    let class = unsafe { ((*header).drop_fn)(header) };
    if let Some(class) = class {
        // The payload is dropped; the class memory is ours to route.
        let block = header.cast::<u8>();
        // SAFETY: dead class memory of `class`, ours.
        #[cfg(debug_assertions)]
        unsafe {
            slab::poison(block, class)
        };
        match local {
            // SAFETY: the block was allocated as a class block of `class`
            // (`drop_fn` returned it) and enters the magazine exactly once.
            Some(local) => unsafe { local.push(class, block) },
            // SAFETY: as above.
            None => unsafe { cache::park_without_handle(class, block) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wfe_sync::atomic::{AtomicUsize, Ordering::SeqCst};

    #[test]
    fn header_is_at_offset_zero() {
        let ptr = Linked::alloc(42u64, 7);
        let header = Linked::as_header(ptr);
        assert_eq!(header as usize, ptr as usize);
        // SAFETY: `ptr` was just allocated and is exclusively owned by the test.
        unsafe {
            assert_eq!((*header).alloc_era(), 7);
            assert_eq!((*ptr).value, 42);
            Linked::dealloc(ptr);
        }
    }

    struct Canary(Arc<AtomicUsize>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn a_class_block_freed_without_a_handle_parks_on_the_spare_magazine() {
        // A thread of its own: its spare magazine starts empty, and drains
        // into the pool when the thread exits.
        std::thread::spawn(|| {
            let mut local = LocalBlockCache::new();
            let node = Linked::alloc_in(1u64, 0, Some(&mut local));
            assert_eq!(cache::spare_blocks(), 0);
            // SAFETY: never published; freed exactly once.
            unsafe { Linked::dealloc(node) };
            assert_eq!(
                cache::spare_blocks(),
                1,
                "parked, not pushed as a chain of one"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn drop_fn_runs_payload_destructor() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ptr = Linked::alloc(Canary(drops.clone()), 0);
        // SAFETY: the block is alive, unreachable by any other thread, and freed
        // exactly once through its installed `drop_fn`.
        unsafe { free_block(Linked::as_header(ptr), None) };
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn only_a_block_allocated_through_a_magazine_is_a_class_block() {
        // A u64 block fits the smallest class; a 2 KiB payload fits none.
        assert!(
            Linked::<u64>::SIZE_CLASS.is_some(),
            "fits the smallest class"
        );
        assert!(Linked::<[u8; 2048]>::SIZE_CLASS.is_none());
        let mut local = LocalBlockCache::new();
        let boxed = Linked::alloc(7u64, 0);
        let large = Linked::alloc_in([0u8; 2048], 0, Some(&mut local));
        let classed = Linked::alloc_in(7u64, 0, Some(&mut local));
        let parked = local.cached_bytes();
        // Freed with a magazine at hand, only the class block stays in it:
        // each `drop_fn` knows which path its block took.
        // SAFETY: the blocks are unpublished and freed exactly once.
        unsafe {
            assert_eq!((*boxed).value, 7);
            free_block(Linked::as_header(boxed), Some(&mut local));
            free_block(Linked::as_header(large), Some(&mut local));
            assert_eq!(local.cached_bytes(), parked, "two `Box`es, freed");
            free_block(Linked::as_header(classed), Some(&mut local));
        }
        assert_eq!(local.cached_bytes(), parked + 40, "parked");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "written at byte 16 while it was parked")]
    fn a_write_into_a_parked_block_panics_at_the_next_alloc_of_its_class() {
        let mut local = LocalBlockCache::new();
        let node = Linked::alloc_in(1u64, 0, Some(&mut local));
        // SAFETY: never published; freed exactly once, into the magazine.
        unsafe { free_block(Linked::as_header(node), Some(&mut local)) };
        // A stale writer stores into the dead payload. SAFETY: the block is
        // slab memory and stays mapped; only the poison tells.
        unsafe { node.cast::<u64>().add(2).write(7) };
        let _ = Linked::alloc_in(2u64, 0, Some(&mut local));
    }

    #[test]
    fn free_into_cache_recycles_memory_and_drops_payload() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut local = LocalBlockCache::new();
        let ptr = Linked::alloc_in(Canary(drops.clone()), 0, Some(&mut local));
        let addr = ptr as usize;
        // SAFETY: the block is unpublished; freed exactly once, into the cache.
        unsafe { free_block(Linked::as_header(ptr), Some(&mut local)) };
        assert_eq!(drops.load(SeqCst), 1, "payload dropped even when cached");
        // The next allocation of the same class reuses the parked block.
        let reused = Linked::alloc_in(42u64, 0, Some(&mut local));
        assert_eq!(reused as usize, addr, "cache served the recycled block");
        // SAFETY: unpublished, freed exactly once.
        unsafe { free_block(Linked::as_header(reused), Some(&mut local)) };
        assert!(local.cached_bytes() > 0, "memory parked, not freed");
        let counters = crate::stats::SlotCounters::default();
        local.flush_stats(&counters);
        let stats = crate::stats::snapshot(|| core::iter::once(&counters), 0);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.cached_bytes, local.cached_bytes());
    }

    #[test]
    fn sentinels_are_max_values() {
        assert_eq!(ERA_INF, u64::MAX);
        assert_eq!(INVPTR, u64::MAX);
    }
}
