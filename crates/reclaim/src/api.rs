//! The common reclamation API.
//!
//! The paper keeps the Hazard-Pointers-compatible interface of Hazard Eras:
//!
//! * `get_protected(ptr, index [, parent])` → [`Handle::protect`] (or
//!   [`RawHandle::cell`] once + [`RawHandle::protect_cell`] per call)
//! * `retire(ptr)` → [`RawHandle::retire_raw`] / [`Handle::retire`]
//! * `clear()` → [`RawHandle::clear`]
//! * `alloc_block(size)` → [`RawHandle::pre_alloc`] + [`Handle::alloc`]
//!
//! plus `begin_op`/`end_op` brackets that epoch- and interval-based schemes
//! (EBR, 2GEIBR) need, exactly like the benchmark harness of Wen et al. that
//! the paper's evaluation reuses. Data structures are written once against
//! this API and instantiated with any scheme.

use std::sync::Arc;
use wfe_sync::atomic::AtomicUsize;

use crate::block::{free_block, BlockHeader, Linked};
use crate::cache::{BlockCacheConfig, LocalBlockCache};
use crate::guard::{Guard, Shield, ShieldError, ShieldSlots};
use crate::ptr::{tag, Atomic};
use crate::registry::ThreadRegistry;
use crate::stats::SmrStats;

/// Progress guarantee provided by a scheme's *reclamation operations*
/// (the data-structure operations on top have their own guarantees).
///
/// The guarantee covers `protect`, `retire`, `clear` and the cleanup pass.
/// An allocation adds the block cache's steps, the same under every scheme:
/// a magazine hit, and a free's park, make no shared write; a refill or a
/// spill is one lock-free pop or push on the process-wide pool per half
/// magazine; the one step without a bound is the pool fetching a fresh slab
/// from the system allocator (as is every allocation with the cache off).
/// Nothing on the allocation path waits for another thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// Every reclamation operation completes in a bounded number of steps.
    WaitFree,
    /// At least one thread always makes progress.
    LockFree,
    /// Reclamation can be delayed indefinitely by stalled threads
    /// (unbounded memory usage).
    Blocking,
    /// No reclamation at all (the "Leak Memory" baseline).
    None,
}

/// Tuning knobs shared by every scheme; field names follow the paper.
///
/// One configuration describes one *domain*, not just the paper's per-scheme
/// constants. Construct it with [`DomainConfig::with_max_threads`] or a
/// struct literal over [`Default`]:
///
/// ```
/// use wfe_reclaim::{DomainConfig, He, RawHandle, Reclaimer};
///
/// let config = DomainConfig {
///     slots_per_thread: 4,
///     ..DomainConfig::with_max_threads(64)
/// };
/// let domain = He::with_config(config);
/// assert_eq!(domain.registry().capacity(), 64);
/// let handle = domain.register();
/// assert_eq!((handle.thread_id(), domain.registry().registered()), (0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct DomainConfig {
    /// Maximum number of simultaneously registered threads (`max_threads`).
    pub max_threads: usize,
    /// Number of reservation indices available to the application per thread
    /// (`max_hes` for era-based schemes, hazard-pointer count for HP).
    pub slots_per_thread: usize,
    /// Increment the global era/epoch every `era_freq` allocations (ν in §5).
    pub era_freq: usize,
    /// Scan the retired list every `cleanup_freq` retirements. A scheme with
    /// a clock advances it one retirement before each scan (on the scan's
    /// own retirement when this is 1).
    pub cleanup_freq: usize,
    /// Fast-path attempts before WFE switches to the slow path
    /// (`max_attempts`; the paper uses 16). Ignored by other schemes.
    pub fast_path_attempts: usize,
    /// Not read. It split a thread registry that is one dense array now,
    /// and survives only because the `benchmark/` harness builds this struct
    /// by literal.
    pub shards: usize,
    /// The size-class block cache (per-handle magazines over the
    /// process-wide block pool) that keeps retire→free→alloc cycles out of
    /// the global allocator; see [`BlockCacheConfig`] for the default and
    /// the `WFE_BLOCK_CACHE` environment switch.
    ///
    /// ```
    /// use wfe_reclaim::{BlockCacheConfig, DomainConfig, Handle, He, RawHandle, Reclaimer};
    ///
    /// let domain = He::with_config(DomainConfig {
    ///     block_cache: BlockCacheConfig {
    ///         enabled: true,
    ///         ..BlockCacheConfig::default()
    ///     },
    ///     cleanup_freq: 1,
    ///     ..DomainConfig::with_max_threads(2)
    /// });
    /// let mut handle = domain.register();
    /// // retire → scan → cache: the freed block's memory is parked on the
    /// // handle's magazine ...
    /// let node = handle.alloc(7u64);
    /// // SAFETY: never published; retired exactly once.
    /// unsafe { handle.retire(node) };
    /// handle.force_cleanup();
    /// // ... and the next allocation of the class recycles it.
    /// let again = handle.alloc(8u64);
    /// // SAFETY: as above.
    /// unsafe { handle.retire(again) };
    /// handle.force_cleanup(); // folds the magazine's tallies into the stats
    /// assert_eq!(domain.stats().cache_hits, 1);
    /// assert!(domain.stats().cached_bytes > 0); // the block, parked again
    /// drop(handle); // drains the magazine into the process-wide pool
    /// assert_eq!(domain.stats().cached_bytes, 0);
    /// ```
    pub block_cache: BlockCacheConfig,
}

impl Default for DomainConfig {
    fn default() -> Self {
        Self {
            max_threads: 128,
            slots_per_thread: 8,
            era_freq: 150,
            cleanup_freq: 30,
            fast_path_attempts: 16,
            shards: 0,
            block_cache: BlockCacheConfig::default(),
        }
    }
}

impl DomainConfig {
    /// Convenience constructor used throughout the tests and benches.
    pub fn with_max_threads(max_threads: usize) -> Self {
        Self {
            max_threads,
            ..Self::default()
        }
    }
}

/// The reservation-slot index check every cell resolution makes
/// ([`RawHandle::cell`]), under every scheme and in every build: once per
/// [`Shield`] lease, once per raw [`Handle::protect`].
///
/// An index past the application slots would resolve a cell that is not
/// the caller's to publish into: WFE's helper pins (the two slots after the
/// application ones), a row's padding, or — past the row's stride — the
/// first slots of the next thread's row, whose reservation it would
/// silently overwrite.
///
/// # Panics
///
/// Panics if `index >= slots`.
#[inline]
#[track_caller]
pub fn assert_slot_index(index: usize, slots: usize) {
    assert!(
        index < slots,
        "reservation slot index {index} out of range: this handle has {slots} \
         application slots (a stray index would corrupt an unrelated reservation)"
    );
}

/// The type-erased, per-thread reclamation interface.
///
/// This is the Rust rendering of the paper's Hazard-Eras-compatible C
/// interface. Its one implementation is the handle of the crate's scheme
/// core; a new scheme is a policy of that core, not another implementation
/// of this trait. Application code should use the safe layer instead:
/// [`Handle::enter`] for operation brackets, [`Guard::shield`]/[`Shield`] for
/// reservations and [`Protected`](crate::Protected) for the pointers they
/// return; the raw methods below remain public for harnesses that measure
/// the uncooked operations (the repository benchmark's per-layer rungs,
/// `benchmark/src/rungs.rs`).
///
/// # Safety
///
/// Implementations must guarantee that a pointer returned by
/// [`protect_cell`](Self::protect_cell) (with its tag bits masked by `mask`)
/// on a cell of slot `index` remains valid — i.e. is not freed —
/// until the same slot `index` is overwritten by a later protect, or
/// [`clear`](Self::clear) / [`end_op`](Self::end_op) is called, provided the
/// program obeys the usual SMR contract (blocks are retired only after
/// becoming unreachable, and only once). [`cell`](Self::cell) must call
/// `assert_slot_index` (or an equivalent check), so an out-of-range index
/// fails the same way under every scheme and in every build.
///
/// The implementing type must be `!Sync`, and
/// [`shield_slots`](Self::shield_slots) must hand out one table per
/// registration: leasing a [`Shield`] takes `&self` and sets a lease flag
/// with a plain store, which is only sound while a single thread at a time
/// can reach the handle (see [`ShieldSlots`]' single-writer protocol). The
/// table's identity is also what ties a shield's cell to the handle (and
/// `tid`) that resolved it.
pub unsafe trait RawHandle {
    /// Dense index of this thread in `0..max_threads`.
    fn thread_id(&self) -> usize;

    /// Number of reservation slots available to the application.
    fn slots(&self) -> usize;

    /// The shield lease table of this handle, shared with every outstanding
    /// [`Shield`]. Implementations create one per registration (sized by
    /// [`slots`](Self::slots)) and hand back the same `Arc` for the handle's
    /// whole lifetime — its identity is how [`Shield::protect`] recognises
    /// its owning handle.
    fn shield_slots(&self) -> &Arc<ShieldSlots>;

    /// A reservation cell: the addresses one slot's protect reads and
    /// writes, resolved once (the scheme policy's `Cell`).
    type Cell: Copy + Send + Sync;

    /// Resolves the cell of reservation slot `index` of this handle — what a
    /// [`Shield`] does once, when it is leased.
    ///
    /// # Safety
    ///
    /// The cell is passed to [`protect_cell`](Self::protect_cell) only
    /// while this registration lives — the handle is alive, and so is its
    /// domain — and only by the thread currently running the handle.
    ///
    /// # Panics
    ///
    /// Panics if `index >= slots()` (`assert_slot_index`).
    unsafe fn cell(&self, index: usize) -> Self::Cell;

    /// Hazard-Eras `get_protected` through a resolved cell: reads the pointer
    /// stored at `src` and publishes whatever reservation the scheme needs so
    /// the pointee cannot be freed. Returns the raw (possibly tagged) value
    /// read from `src`; the *protected* object is `value & mask`.
    ///
    /// `parent` is the block containing `src` (null for data-structure roots)
    /// — only WFE uses it, other schemes ignore it. [`Shield::protect`] and
    /// [`Handle::protect`] both run it.
    fn protect_cell(
        cell: &Self::Cell,
        src: &AtomicUsize,
        parent: *mut BlockHeader,
        mask: usize,
    ) -> usize;

    /// Marks the beginning of a data-structure operation.
    fn begin_op(&mut self);

    /// Marks the end of a data-structure operation; drops all protections.
    fn end_op(&mut self);

    /// Hazard-Eras `retire`: hands an unreachable block to the scheme for
    /// eventual reclamation.
    ///
    /// # Safety
    ///
    /// `block` must have been allocated through [`Handle::alloc`] on the same
    /// domain, must already be unreachable from the data structure (only
    /// in-flight readers may still hold it), and must be retired exactly once.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader);

    /// Hazard-Eras `clear`: resets every reservation made by this thread.
    fn clear(&mut self);

    /// Hazard-Eras `alloc_block` bookkeeping: advances the era clock if due
    /// and returns the era to stamp into the new block's `alloc_era`.
    fn pre_alloc(&mut self) -> u64;

    /// Forces a retired-list scan regardless of `cleanup_freq`. Used by tests
    /// and by handle teardown; not part of the paper API.
    fn force_cleanup(&mut self);

    /// The magazines [`Handle::alloc`] pops class blocks from and
    /// [`Handle::discard`] parks them on, or `None` when every block of this
    /// handle is a `Box` of its own. The default opts out of caching; the
    /// scheme core returns the handle's magazines when its domain gives
    /// handles some.
    fn block_cache(&mut self) -> Option<&mut LocalBlockCache> {
        None
    }

    /// Who pins this thread's retired blocks: the groups its batch has
    /// parked, as `(witness era, blocks)` pairs in no particular order. A
    /// pair `(334, 50_000)` reads "50 000 blocks pinned by era 334": some
    /// thread has published era (epoch) 334 since before they were retired
    /// and the last cleanup pass still saw it. Blocks retired since that pass
    /// and, under HP and 2GEIBR, blocks pinned without a nameable era are not
    /// listed. The default (nothing parked) suits schemes that never scan.
    fn parked_groups(&self) -> Vec<(u64, usize)> {
        Vec::new()
    }
}

/// Typed convenience layer over [`RawHandle`]; blanket-implemented.
///
/// Besides the paper-shaped `alloc`/`protect`/`retire`, this is where the
/// safe guard API hangs off a handle: [`enter`](Self::enter) opens an
/// operation bracket, [`shield`](Self::shield) leases a reservation slot
/// that outlives brackets.
pub trait Handle: RawHandle {
    /// Opens an operation bracket (the paper's `begin_op`), returning the
    /// [`Guard`] through which shared pointers are read. Dropping the guard
    /// closes the bracket (`end_op`).
    ///
    /// The guard borrows the handle exclusively; lease the operation's
    /// [`Shield`]s from it ([`Guard::shield`]) once inside.
    fn enter(&mut self) -> Guard<'_, Self>
    where
        Self: Sized,
    {
        Guard::new(self)
    }

    /// Leases a reservation slot as an owned [`Shield`], or reports
    /// exhaustion as an error instead of silently stomping a neighbouring
    /// reservation.
    ///
    /// For leases that must outlive a bracket (held across operations): the
    /// shield shares the lease table's `Arc`. Inside an operation, lease from
    /// the guard instead ([`Guard::shield`]), which borrows the table and
    /// touches no reference count.
    fn shield<T>(&self) -> Result<Shield<'static, T, Self>, ShieldError>
    where
        Self: Sized,
    {
        Shield::lease(self)
    }

    /// Allocates a reclaimable block holding `value`
    /// (the paper's `alloc_block`), popping a block of the matching size
    /// class from this handle's magazine when it has one.
    fn alloc<T>(&mut self, value: T) -> *mut Linked<T> {
        let era = self.pre_alloc();
        Linked::alloc_in(value, era, self.block_cache())
    }

    /// Frees a block that was allocated but never published — an insert that
    /// found its key present, a CAS that lost — back into the magazine
    /// [`alloc`](Self::alloc) popped it from (the allocator when the cache is
    /// off), so the next `alloc` of the class gets the same memory. The
    /// payload is dropped; no counter moves (the block was never retired).
    ///
    /// # Safety
    ///
    /// `ptr` must come from [`Handle::alloc`], must never have been reachable
    /// by another thread, and must not have been freed or retired before.
    unsafe fn discard<T>(&mut self, ptr: *mut Linked<T>) {
        // SAFETY: the caller owns the block exclusively and hands it over
        // exactly once; nothing can protect a block that was never published.
        unsafe { free_block(Linked::as_header(ptr), self.block_cache()) };
    }

    /// Protects and returns the pointer stored in `src` (the paper's
    /// `get_protected`).
    ///
    /// The returned pointer keeps any tag bits found in `src`; the protected
    /// object is the untagged pointer. `parent` must be the block that
    /// physically contains `src`, or null when `src` is a data-structure
    /// root; it must itself be protected by the caller (that is the API
    /// convention §3.4 relies upon).
    ///
    /// Resolves the cell of `index` on every call ([`RawHandle::cell`]:
    /// panics on an index out of range); a [`Shield`] resolves it once per
    /// lease.
    #[inline(always)]
    fn protect<T>(
        &mut self,
        src: &Atomic<T>,
        index: usize,
        parent: *mut Linked<T>,
    ) -> *mut Linked<T> {
        // SAFETY: the cell is used for this one protect, while `&mut self`
        // keeps the registration (and its domain) alive on this thread.
        let cell = unsafe { self.cell(index) };
        Self::protect_cell(
            &cell,
            src.as_raw_atomic(),
            Linked::as_header(parent),
            tag::ptr_mask::<T>(),
        ) as *mut Linked<T>
    }

    /// Retires an unreachable block (the paper's `retire`).
    ///
    /// # Safety
    ///
    /// Same contract as [`RawHandle::retire_raw`].
    unsafe fn retire<T>(&mut self, ptr: *mut Linked<T>) {
        debug_assert!(!ptr.is_null(), "cannot retire a null block");
        debug_assert_eq!(tag::tag_of(ptr), 0, "cannot retire a tagged pointer");
        // SAFETY: forwarded contract — same obligations as `retire_raw`.
        unsafe { self.retire_raw(Linked::as_header(ptr)) };
    }
}

impl<H: RawHandle + ?Sized> Handle for H {}

/// A reclamation scheme (a *domain* in SMR terminology).
///
/// One domain guards one or more data structures; threads participate by
/// [`register`](Self::register)ing a handle. Handles keep the domain alive
/// through an [`Arc`], so a domain is destroyed only after every handle and
/// every data structure using it has been dropped — at that point any block
/// still waiting on an orphan list is freed.
pub trait Reclaimer: Send + Sync + Sized + 'static {
    /// The per-thread handle type.
    type Handle: RawHandle + Send;

    /// Creates a domain with the given configuration.
    fn with_config(config: DomainConfig) -> Arc<Self>;

    /// Creates a domain with [`DomainConfig::default`].
    fn new_default() -> Arc<Self> {
        Self::with_config(DomainConfig::default())
    }

    /// Registers the calling thread and returns its handle, or `None` when
    /// `max_threads` handles are already registered, so callers can degrade
    /// gracefully (shed the thread, queue the work) instead of panicking.
    ///
    /// ```
    /// use wfe_reclaim::{DomainConfig, He, Reclaimer};
    ///
    /// let domain = He::with_config(DomainConfig::with_max_threads(1));
    /// let first = domain.try_register().expect("one slot is available");
    /// assert!(domain.try_register().is_none(), "registry exhausted");
    /// drop(first);
    /// assert!(domain.try_register().is_some(), "slot recycled");
    /// ```
    fn try_register(self: &Arc<Self>) -> Option<Self::Handle>;

    /// Registers the calling thread and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` handles are already registered. Use
    /// [`try_register`](Self::try_register) to handle exhaustion without
    /// panicking.
    fn register(self: &Arc<Self>) -> Self::Handle {
        self.try_register().unwrap_or_else(|| {
            panic!(
                "thread registry exhausted: more than {} concurrent handles; \
                 raise DomainConfig::max_threads",
                self.config().max_threads
            )
        })
    }

    /// Short scheme name as used in the paper's plots
    /// (`"WFE"`, `"HE"`, `"HP"`, `"EBR"`, `"2GEIBR"`, `"Leak"`).
    fn name() -> &'static str;

    /// Progress guarantee of the reclamation operations.
    fn progress() -> Progress;

    /// Snapshot of the reclamation counters.
    fn stats(&self) -> SmrStats;

    /// The configuration this domain was created with.
    fn config(&self) -> &DomainConfig;

    /// The domain's thread-slot registry (capacity, registered count and
    /// high-water mark are observable for monitoring and benchmarks).
    fn registry(&self) -> &ThreadRegistry;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_parameters() {
        let cfg = DomainConfig::default();
        assert_eq!(cfg.era_freq, 150);
        assert_eq!(cfg.fast_path_attempts, 16);
        assert!(cfg.cleanup_freq >= 30);
        assert!(cfg.slots_per_thread >= 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn a_raw_slot_index_at_the_row_stride_panics_in_every_build() {
        // Hazard Eras' rows are 128-byte units of 8-byte eras: with 8 slots
        // the stride is 16 cells, so index 16 of the first row is the second
        // row's slot 0 — another thread's reservation.
        const STRIDE: usize = 128 / 8;
        let domain = crate::He::with_config(DomainConfig {
            slots_per_thread: 8,
            ..DomainConfig::with_max_threads(2)
        });
        let mut first = domain.register();
        let _second = domain.register();
        let root: Atomic<u64> = Atomic::null();
        first.protect(&root, STRIDE, core::ptr::null_mut());
    }

    #[test]
    fn with_max_threads_overrides_only_that_field() {
        let cfg = DomainConfig::with_max_threads(4);
        assert_eq!(cfg.max_threads, 4);
        assert_eq!(cfg.era_freq, DomainConfig::default().era_freq);
    }
}
