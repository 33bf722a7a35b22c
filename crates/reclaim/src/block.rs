//! The intrusive allocation header shared by every reclamation scheme.
//!
//! The paper's Figure 2 shows that each reclaimable node embeds a "hazard eras
//! header block" as its first field. [`Linked<T>`] is that layout: a
//! [`BlockHeader`] followed by the user payload. Schemes only ever traffic in
//! `*mut BlockHeader`; the generic convenience methods on
//! [`Handle`](crate::Handle) recover the typed pointer.

use wfe_sync::atomic::{AtomicU64, Ordering};

use crate::cache::{alloc_class, dealloc_class, LocalBlockCache, ShardCache, SizeClass};

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
// LAYOUT: the header is the first 16 bytes of the block it describes, so a
// 16-aligned class block puts the payload's first two words on one line.
#[repr(C)]
#[derive(Debug)]
pub struct BlockHeader {
    /// Era at which the block was allocated.
    pub alloc_era: AtomicU64,
    /// Type-erased destructor: drops the payload and either frees the whole
    /// allocation (`Box`-path blocks, returning `None`) or hands the memory
    /// back to the caller keyed by its size class (`Some`), so the free path
    /// can route it into a block cache instead of the allocator.
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
    /// The size class this block type is cached under, or `None` when its
    /// layout exceeds the largest class and must use the `Box` path.
    pub(crate) const SIZE_CLASS: Option<SizeClass> = SizeClass::of(
        core::mem::size_of::<Linked<T>>(),
        core::mem::align_of::<Linked<T>>(),
    );

    /// Heap-allocates a new block with the given allocation era.
    ///
    /// Returns an owning raw pointer; the allocation is freed either by the
    /// reclamation scheme (after [`retire`](crate::Handle::retire)) or by
    /// [`Linked::dealloc`].
    pub fn alloc(value: T, alloc_era: u64) -> *mut Linked<T> {
        Self::alloc_in(value, alloc_era, None, None)
    }

    /// Like [`alloc`](Self::alloc), but pops a recycled block of the matching
    /// size class from the handle's `local` magazine (refilled from `shard`,
    /// its backing) before falling back to the allocator. Blocks whose
    /// layout fits no class ignore both, and without a magazine nothing is
    /// recycled: the shard is reached a chain at a time, through a magazine.
    pub fn alloc_in(
        value: T,
        alloc_era: u64,
        local: Option<&mut LocalBlockCache>,
        shard: Option<&ShardCache>,
    ) -> *mut Linked<T> {
        let header = |drop_fn: unsafe fn(*mut BlockHeader) -> Option<SizeClass>| BlockHeader {
            alloc_era: AtomicU64::new(alloc_era),
            drop_fn,
        };
        match Self::SIZE_CLASS {
            Some(class) => {
                let recycled = local.and_then(|local| local.pop(class, shard));
                let raw = recycled.unwrap_or_else(|| alloc_class(class));
                let ptr = raw.cast::<Linked<T>>();
                // SAFETY: `raw` is a fresh or recycled class block — at least
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
            None => Box::into_raw(Box::new(Linked {
                header: header(drop_block_boxed::<T>),
                value,
            })),
        }
    }

    /// Immediately frees a block that is *not* going through a retire path,
    /// straight to the allocator: the remaining nodes freed by a data
    /// structure's `Drop`, which has no handle. Mid-operation, a node that
    /// never became reachable goes back to the magazine it came from instead
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
        unsafe { free_block(Self::as_header(ptr), None, None) };
    }

    /// Upcasts a typed block pointer to its header pointer.
    #[inline]
    pub fn as_header(ptr: *mut Linked<T>) -> *mut BlockHeader {
        ptr.cast()
    }
}

/// Frees a type-erased `Box`-path block. Installed as `drop_fn` at
/// allocation time for layouts no size class fits.
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
/// back to the allocator. Installed as `drop_fn` at allocation time.
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
/// class-path blocks on the handle's `local` magazine (which spills to
/// `shard`, its backing) instead of returning it to the allocator; with no
/// magazine the memory goes to the allocator.
///
/// # Safety
///
/// The block must be unreachable and unprotected by every thread: retired
/// and judged free, or never published.
// Inlinable across crates: the batch scan that calls this once per freed
// block is instantiated, with the scheme core, in the caller's crate.
#[inline]
pub(crate) unsafe fn free_block(
    header: *mut BlockHeader,
    local: Option<&mut LocalBlockCache>,
    shard: Option<&ShardCache>,
) {
    // SAFETY: the caller guarantees the block is retired, unreachable and
    // unprotected; `drop_fn` was installed at allocation for the right `T`.
    let class = unsafe { ((*header).drop_fn)(header) };
    if let Some(class) = class {
        // The payload is dropped; the class memory is ours to route.
        match local {
            // SAFETY: the block was allocated as a class block of `class`
            // (`drop_fn` returned it) and enters the magazine exactly once.
            Some(local) => unsafe { local.push(class, header.cast(), shard) },
            // SAFETY: as above — freed exactly once here.
            None => unsafe { dealloc_class(class, header.cast()) },
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
    fn drop_fn_runs_payload_destructor() {
        let drops = Arc::new(AtomicUsize::new(0));
        let ptr = Linked::alloc(Canary(drops.clone()), 0);
        // SAFETY: the block is alive, unreachable by any other thread, and freed
        // exactly once through its installed `drop_fn`.
        unsafe { free_block(Linked::as_header(ptr), None, None) };
        assert_eq!(drops.load(SeqCst), 1);
    }

    #[test]
    fn size_class_split_small_vs_large_payloads() {
        // A u64 block fits the smallest class; a 2 KiB payload fits none.
        assert!(Linked::<u64>::SIZE_CLASS.is_some());
        assert!(Linked::<[u8; 2048]>::SIZE_CLASS.is_none());
        // Both paths allocate and free cleanly.
        let small = Linked::alloc(7u64, 0);
        let large = Linked::alloc([0u8; 2048], 0);
        // SAFETY: both blocks are unpublished and freed exactly once.
        unsafe {
            assert_eq!((*small).value, 7);
            Linked::dealloc(small);
            Linked::dealloc(large);
        }
    }

    #[test]
    fn free_into_cache_recycles_memory_and_drops_payload() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cache = crate::cache::BlockCaches::new(
            &crate::cache::BlockCacheConfig {
                enabled: true,
                per_class_capacity: 4,
            },
            1,
        );
        let shard = cache.shard(0);
        let mut local = LocalBlockCache::new();
        let ptr = Linked::alloc_in(Canary(drops.clone()), 0, Some(&mut local), shard);
        let addr = ptr as usize;
        // SAFETY: the block is unpublished; freed exactly once, into the cache.
        unsafe { free_block(Linked::as_header(ptr), Some(&mut local), shard) };
        assert_eq!(drops.load(SeqCst), 1, "payload dropped even when cached");
        // The next allocation of the same class reuses the parked block.
        let reused = Linked::alloc_in(42u64, 0, Some(&mut local), shard);
        assert_eq!(reused as usize, addr, "cache served the recycled block");
        // SAFETY: unpublished, freed exactly once; the drain parks it.
        unsafe { free_block(Linked::as_header(reused), Some(&mut local), shard) };
        local.drain(shard);
        assert!(
            shard.unwrap().cached_bytes() > 0,
            "memory parked, not freed"
        );
        let counters = crate::stats::SlotCounters::default();
        local.flush_stats(&counters);
        let stats = crate::stats::snapshot(|| core::iter::once(&counters), 0);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    }

    #[test]
    fn sentinels_are_max_values() {
        assert_eq!(ERA_INF, u64::MAX);
        assert_eq!(INVPTR, u64::MAX);
    }
}
