//! The safe, guard-based protection API.
//!
//! The raw [`RawHandle`] interface mirrors the paper's Hazard-Eras-compatible
//! C API: bare slot indices, raw `*mut Linked<T>` results, and an `unsafe fn
//! retire` whose three-part contract every caller must re-derive by hand. It
//! remains available as the SPI for scheme implementors; application code is
//! written against the three types of this module instead:
//!
//! * [`Guard`] — an *operation bracket* created by
//!   [`Handle::enter`]. Construction runs `begin_op`,
//!   drop runs `end_op`, and every hazardous read goes through a guard, so an
//!   operation can no longer forget to open or close its bracket.
//! * [`Shield`] — a leased reservation slot. Slot indices become a managed
//!   resource: exhaustion is an [`Err`](ShieldError) instead of a silent stomp
//!   on a neighbouring reservation, and the slot is returned when the shield
//!   is dropped. **Lease from the guard inside an operation
//!   ([`Guard::shield`]), from the handle ([`Handle::shield`]) only when the
//!   lease must outlive a bracket.** The guard lease borrows the handle's
//!   lease table for the bracket and costs a load and a store; the handle
//!   lease owns a share of the table (an `Arc` clone), so it can be held
//!   across operations and dropped on any thread.
//! * [`Protected`] — a tagged, borrow-checked pointer returned by
//!   [`Shield::protect`]. Its lifetime is tied to the guard it was read
//!   under, so it cannot outlive the operation bracket. Dereferencing via
//!   [`Protected::as_ref`] carries a single `unsafe` obligation — the shield
//!   that produced the value has not re-protected since (lease one shield
//!   per simultaneously-live pointer) — and debug builds verify that
//!   obligation at runtime. Retirement is [`Protected::retire_in`], whose
//!   single obligation is "I unlinked it".
//!
//! A block an operation allocated leaves it in one of three ways, by what
//! became of it: **published** (a CAS linked it: the structure owns it now),
//! **unlinked** ([`Protected::retire_in`]: readers may still hold it, the
//! scheme frees it later), or **never published** ([`Guard::discard`]:
//! nobody else ever saw it, so it goes straight back to the handle's
//! magazine, where the next [`Guard::alloc`] finds it). [`Linked::dealloc`]
//! — straight to the allocator — is for `Drop` implementations, which have
//! no handle.
//!
//! ```
//! use std::sync::Arc;
//! use wfe_reclaim::{Atomic, Handle, He, Reclaimer};
//!
//! let domain = He::new_default();
//! let mut handle = domain.register();
//!
//! let node = handle.alloc(42u64);
//! let root: Atomic<u64> = Atomic::new(node);
//!
//! {
//!     let guard = handle.enter(); // begin_op
//!     // One operation: the shield is leased from the guard.
//!     let mut shield = guard.shield::<u64>().expect("slots available");
//!     let value = shield.protect(&guard, &root, None);
//!     // SAFETY: `shield` does not re-protect while `value` is in use.
//!     assert_eq!(unsafe { value.as_ref() }, Some(&42));
//! } // slot returned, then end_op
//!
//! // Unlink, then retire through the typed API: the *only* obligation left
//! // is that the block really was unlinked.
//! root.store(core::ptr::null_mut(), core::sync::atomic::Ordering::SeqCst);
//! let guard = handle.enter();
//! // SAFETY: `node` was just unlinked from `root` and is retired once.
//! unsafe { wfe_reclaim::Protected::from_unlinked(node).retire_in(&guard) };
//! ```
//!
//! # What the borrow checker enforces — and what it cannot
//!
//! A [`Protected`] cannot outlive its [`Guard`], nor can a [`Shield`] leased
//! from that guard (compile errors), and a
//! [`Shield`] leased from one scheme's handle cannot be used with a guard of
//! another scheme (type error); using it with a *different handle of the same
//! scheme* panics at runtime. One granularity the type system does not
//! track: re-protecting through the *same* shield overwrites the reservation
//! slot and thereby ends the protection of the pointer the shield
//! previously returned. This is exactly why [`Protected::as_ref`] is
//! `unsafe`. Tying the returned value to `&mut self` of the shield (the
//! `haphazard` approach) would move the check to compile time, but it also
//! rejects the hand-over-hand window every list/tree traversal here returns
//! from its retry loop: a borrow that flows into a returned window is
//! extended to the whole function body under non-lexical lifetimes, so each
//! loop-back re-protect through the same shield conflicts with it (rustc
//! E0499 — the classic NLL "problem case #3"). Until the borrow checker can
//! express that pattern, the discipline is *lease one shield per
//! simultaneously-live pointer*, exactly as the data structures in `wfe-ds`
//! do — and debug builds verify it: every [`Shield::protect`] bumps a
//! per-slot generation that is stamped into the [`Protected`] it returns,
//! and a stale [`as_ref`](Protected::as_ref) panics deterministically
//! instead of touching freed memory.

use core::marker::PhantomData;
use core::ops::Deref;
use core::ptr;
use std::sync::Arc;
#[cfg(debug_assertions)]
use wfe_sync::atomic::AtomicUsize;
use wfe_sync::atomic::{AtomicBool, Ordering};

use crate::api::{Handle, RawHandle};
use crate::block::Linked;
use crate::ptr::{tag, Atomic};

/// The lease table behind a handle's [`Shield`]s: one flag per application
/// reservation slot.
///
/// The handle owns it through an `Arc` that every *owned* shield
/// ([`Handle::shield`]) shares, so such a shield can return its slot even
/// after the handle moved or was parked in a
/// [`HandlePool`](crate::pool::HandlePool); a guard-leased shield
/// ([`Guard::shield`]) merely borrows it for the bracket. The table's address
/// doubles as the handle identity [`Shield::protect`] validates at runtime.
///
/// # The single-writer protocol
///
/// Neither leasing nor releasing needs an atomic read-modify-write, because
/// each transition of a flag has exactly one possible writer:
///
/// * `false → true` happens only in `lease`, and `lease` is reachable only
///   through `&H` ([`Handle::shield`]) or through the [`Guard`] that holds
///   the `&mut H`. Handles are `!Sync` ([`RawHandle`]'s `# Safety`) and a
///   guard is `!Send + !Sync`, so at any moment at most one thread can be
///   inside `lease` for a given table. A flag that thread reads as `false`
///   therefore stays `false` until the same thread sets it.
/// * `true → false` happens only in `release`, called once by the one
///   `Shield` that owns the slot (from whichever thread drops it). A racing
///   `lease` either still sees `true` and skips the slot, or sees `false`
///   and takes a slot nobody owns any more.
// LAYOUT: one handle's table, touched by the thread that runs that handle
// (a shield dropped elsewhere is the exception); compact, so a lease scans
// one line.
#[derive(Debug)]
pub struct ShieldSlots {
    /// `leased[i]` set ⇔ slot `i` is currently leased to a live `Shield`.
    leased: Box<[AtomicBool]>,
    /// Per-slot protect generation, bumped by every [`Shield::protect`] and
    /// stamped into the [`Protected`] it returns so a stale value (one whose
    /// slot has since been re-protected) is caught at `as_ref` time.
    /// Debug builds only — release builds carry no stamp.
    #[cfg(debug_assertions)]
    generations: Box<[AtomicUsize]>,
}

impl ShieldSlots {
    /// Creates a lease table for `slots` application reservation slots.
    pub fn new(slots: usize) -> Arc<Self> {
        Arc::new(Self {
            leased: (0..slots).map(|_| AtomicBool::new(false)).collect(),
            #[cfg(debug_assertions)]
            generations: (0..slots).map(|_| AtomicUsize::new(0)).collect(),
        })
    }

    /// Number of slots this table can lease.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.leased.len()
    }

    /// Number of slots currently leased.
    pub fn leased(&self) -> usize {
        self.leased
            .iter()
            .filter(|flag| flag.load(Ordering::Acquire)) // ORDER: advisory count; pairs with the Release store in `release`.
            .count()
    }

    /// Leases the lowest free slot, or reports that all are taken.
    ///
    /// A load and a store, no read-modify-write: the caller is the only
    /// thread that can set a flag of this table (the single-writer protocol
    /// in the type docs), so the flag it saw clear is still clear when it
    /// sets it.
    #[inline]
    fn lease(&self) -> Result<usize, ShieldError> {
        let free = self
            .leased
            .iter()
            .position(|flag| !flag.load(Ordering::Acquire)); // ORDER: pairs with the Release store in `release`, so the previous owner's use of the slot happens-before ours.
        let slot = free.ok_or(ShieldError {
            slots: self.capacity(),
        })?;
        self.leased[slot].store(true, Ordering::Relaxed); // ORDER: single writer — only this thread leases from this table, and a later `lease` reads it in program order (or after the handle's own hand-off to another thread).
        Ok(slot)
    }

    /// Returns a leased slot (called by `Shield::drop`, on any thread).
    #[inline]
    fn release(&self, slot: usize) {
        let flag = &self.leased[slot];
        // ORDER: the releasing shield is the flag's only writer while it is set.
        debug_assert!(
            flag.load(Ordering::Relaxed),
            "releasing a slot never leased"
        );
        flag.store(false, Ordering::Release); // ORDER: pairs with the Acquire scan in `lease`; only the shield that owns the slot clears it, so a plain store cannot lose an update.
    }

    /// The protect-generation cell of `slot` (see [`Shield::protect`]).
    #[cfg(debug_assertions)]
    #[inline]
    fn generation(&self, slot: usize) -> &AtomicUsize {
        &self.generations[slot]
    }
}

/// Error returned by [`Guard::shield`] and [`Handle::shield`] when every
/// reservation slot of the handle is already leased.
///
/// The raw API would have let the extra index silently stomp a neighbouring
/// reservation (a use-after-free time bomb); the typed API reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShieldError {
    /// Number of slots the handle has (all currently leased).
    pub slots: usize,
}

impl core::fmt::Display for ShieldError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "reservation slots exhausted: all {} slots of this handle are leased \
             (raise DomainConfig slots_per_thread or drop an unused Shield)",
            self.slots
        )
    }
}

impl std::error::Error for ShieldError {}

/// An operation bracket: the region between `begin_op` and `end_op` in which
/// shared pointers may be read.
///
/// Created by [`Handle::enter`]; dropping the guard
/// closes the bracket (dropping every protection for the epoch- and
/// interval-based schemes, clearing reservations for the rest). The guard
/// borrows the handle mutably for its whole lifetime, so an operation cannot
/// interleave raw handle calls with guarded reads.
///
/// A [`Protected`] pointer cannot outlive the guard it was read under:
///
/// ```compile_fail
/// use wfe_reclaim::{Atomic, Handle, He, Reclaimer};
/// let domain = He::new_default();
/// let mut handle = domain.register();
/// let mut shield = handle.shield::<u64>().unwrap();
/// let node = handle.alloc(1u64);
/// let root: Atomic<u64> = Atomic::new(node);
/// let escaped = {
///     let guard = handle.enter();
///     shield.protect(&guard, &root, None)
/// }; // ERROR: `guard` dropped while `escaped` still borrows it
/// unsafe { escaped.as_ref() };
/// ```
///
/// Neither can a [`Shield`] leased from it — the shield borrows the lease
/// table through the guard, which is what lets [`Guard::shield`] skip the
/// `Arc` clone an owned lease pays:
///
/// ```compile_fail,E0597
/// use wfe_reclaim::{Handle, He, Reclaimer};
/// let domain = He::new_default();
/// let mut handle = domain.register();
/// let escaped = {
///     let guard = handle.enter();
///     guard.shield::<u64>().unwrap()
/// }; // ERROR: `guard` does not live long enough
/// drop(escaped);
/// ```
///
/// And the bracket cannot leave its thread — protection is per-registry-slot
/// state owned by the handle, so the guard is deliberately `!Send` (a
/// [`PooledHandle`](crate::PooledHandle) may move between threads, a bracket
/// opened on it may not):
///
/// ```compile_fail,E0277
/// use wfe_reclaim::{Handle, He, Reclaimer};
/// fn requires_send<T: Send>(_: T) {}
/// let domain = He::new_default();
/// let mut handle = domain.register();
/// let guard = handle.enter();
/// requires_send(guard); // ERROR: `Guard<'_, HeHandle>` is not `Send`
/// ```
pub struct Guard<'h, H: RawHandle> {
    /// Exclusive access to the handle for the guard's lifetime. A raw pointer
    /// (rather than `&'h mut H`) so that [`Shield::protect`] can take `&self`:
    /// several `Protected` values may borrow the guard *shared* at once while
    /// protect/retire calls still reach the handle's `&mut` methods.
    handle: *mut H,
    /// The handle's lease table, reborrowed once for the whole bracket: the
    /// source of guard-leased [`Shield`]s, of the handle identity
    /// [`Shield::protect`] checks, and of the debug generation cells.
    slots: &'h ShieldSlots,
    _marker: PhantomData<&'h mut H>,
}

impl<'h, H: RawHandle> Guard<'h, H> {
    /// Opens the bracket. Called by [`Handle::enter`].
    pub(crate) fn new(handle: &'h mut H) -> Self {
        handle.begin_op();
        // SAFETY: `RawHandle::shield_slots` hands back the same `Arc` for
        // the handle's whole lifetime (trait contract), so the table — a
        // heap block the `Arc` owns, outside the bytes of `H` that the
        // `&mut` accesses below retag — lives at least as long as the
        // handle, which this guard keeps borrowed for `'h`; the table is
        // never structurally mutated.
        let slots = unsafe { &*Arc::as_ptr(handle.shield_slots()) };
        Self {
            handle,
            slots,
            _marker: PhantomData,
        }
    }

    /// Leases the lowest free reservation slot of the underlying handle for
    /// (at most) the rest of this bracket — the lease every operation of a
    /// data structure should use. Exhaustion is an error, as with
    /// [`Handle::shield`]; unlike it, the returned [`Shield`] *borrows* the
    /// lease table through the guard, so leasing is a load and a store and
    /// returning the slot a single store (no `Arc` traffic, no locked
    /// instruction).
    ///
    /// Declare the shields after the guard so they are dropped before it.
    #[inline]
    pub fn shield<T>(&self) -> Result<Shield<'_, T, H>, ShieldError> {
        // Single-writer premise of `ShieldSlots::lease`: this guard holds
        // the handle's `&mut` and is `!Send + !Sync`, so no other thread
        // can be leasing from the same table.
        let slot = self.slots.lease()?;
        Ok(Shield {
            slot,
            table: TableRef::Borrowed(self.slots),
            _marker: PhantomData,
        })
    }

    /// Runs `f` with exclusive access to the handle.
    ///
    /// SAFETY argument for the interior `&mut`: the guard was constructed
    /// from `&'h mut H` (no other reference to the handle can exist for
    /// `'h`), the raw-pointer field makes the guard `!Send`/`!Sync` (no
    /// cross-thread aliasing), and every closure passed here is a leaf call
    /// into the handle that never re-enters the guard (no reentrant `&mut`).
    #[inline]
    fn with<R>(&self, f: impl FnOnce(&mut H) -> R) -> R {
        // SAFETY: see above — exclusive, single-threaded, non-reentrant.
        f(unsafe { &mut *self.handle })
    }

    /// Dense index of the underlying thread in `0..max_threads`.
    #[inline]
    pub fn thread_id(&self) -> usize {
        self.with(|h| h.thread_id())
    }

    /// Number of reservation slots of the underlying handle.
    #[inline]
    pub fn slots(&self) -> usize {
        self.with(|h| h.slots())
    }

    /// Allocates a reclaimable block mid-operation (the paper's
    /// `alloc_block`). The pointer is owned by the caller until it is either
    /// published into the data structure or handed back with
    /// [`discard`](Self::discard).
    #[inline]
    pub fn alloc<T>(&self, value: T) -> *mut Linked<T> {
        self.with(|h| h.alloc(value))
    }

    /// Hands back a block this operation allocated and never published
    /// ([`Handle::discard`]): into the handle's magazine, where the next
    /// `alloc` finds it.
    ///
    /// # Safety
    ///
    /// Same contract as [`Handle::discard`].
    #[inline]
    pub unsafe fn discard<T>(&self, block: *mut Linked<T>) {
        // SAFETY: forwarded contract.
        self.with(|h| unsafe { h.discard(block) })
    }

    /// Protects and returns the pointer at `src` through slot `index` of this
    /// guard's handle. Internal engine of [`Shield::protect`].
    #[inline(always)]
    fn protect_in_slot<'g, T>(
        &'g self,
        index: usize,
        src: &Atomic<T>,
        parent: Option<Protected<'_, T>>,
    ) -> Protected<'g, T> {
        let parent_ptr = parent.map_or(ptr::null_mut(), |p| p.untagged().as_raw());
        let raw = self.with(|h| h.protect(src, index, parent_ptr));
        Protected::from_raw(raw)
    }

    /// Retires `block` (called by [`Protected::retire_in`]).
    ///
    /// # Safety
    ///
    /// Same contract as [`crate::Handle::retire`].
    #[inline]
    unsafe fn retire_block<T>(&self, block: *mut Linked<T>) {
        // SAFETY: forwarded contract — the caller (`Protected::retire_in`)
        // guarantees the block is unlinked and retired exactly once.
        self.with(|h| unsafe { h.retire(block) })
    }
}

impl<H: RawHandle> Drop for Guard<'_, H> {
    fn drop(&mut self) {
        self.with(|h| h.end_op());
    }
}

impl<H: RawHandle> core::fmt::Debug for Guard<'_, H> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Guard")
            .field("thread_id", &self.thread_id())
            .finish()
    }
}

/// Variance/auto-trait marker for [`Shield`]: the shield is tied to a
/// protected type `T` and a handle type `H` without owning either.
type ShieldMarker<T, H> = PhantomData<(fn() -> T, fn(&H))>;

/// Where a [`Shield`] finds the lease table its slot belongs to.
#[derive(Debug)]
enum TableRef<'g> {
    /// Borrowed through the [`Guard`] that leased the shield: nothing to
    /// clone, nothing to drop.
    Borrowed(&'g ShieldSlots),
    /// A share of the handle's `Arc`, for leases that outlive brackets.
    Owned(Arc<ShieldSlots>),
}

impl Deref for TableRef<'_> {
    type Target = ShieldSlots;

    #[inline]
    fn deref(&self) -> &ShieldSlots {
        match self {
            Self::Borrowed(table) => table,
            Self::Owned(table) => table,
        }
    }
}

/// A leased reservation slot, returned on drop.
///
/// Lease it from the guard inside an operation ([`Guard::shield`]: the
/// shield borrows the lease table for `'g`, the rest of the bracket), from
/// the handle ([`Handle::shield`]: `Shield<'static, ..>`, a share of the
/// table's `Arc`) only when the lease must outlive a bracket — held across
/// operations, dropped on another thread.
///
/// One shield protects one pointer at a time: [`Shield::protect`] publishes
/// whatever reservation the scheme needs in the leased slot and hands back a
/// borrow-checked [`Protected`]. Lease as many shields as the operation has
/// simultaneously-live pointers (a list traversal needs two, the BST window
/// needs five).
///
/// The shield is typed by the scheme's handle, so it cannot cross schemes:
///
/// ```compile_fail
/// use wfe_reclaim::{Atomic, Handle, He, Hp, Reclaimer};
/// let he = He::new_default();
/// let hp = Hp::new_default();
/// let mut he_handle = he.register();
/// let mut hp_handle = hp.register();
/// let mut shield = he_handle.shield::<u64>().unwrap();
/// let root: Atomic<u64> = Atomic::null();
/// let guard = hp_handle.enter();
/// shield.protect(&guard, &root, None); // ERROR: HE shield, HP guard
/// ```
///
/// Using a shield with a different *handle* of the same scheme is rejected at
/// runtime (panic) — see [`Shield::protect`].
pub struct Shield<'g, T, H: RawHandle> {
    slot: usize,
    table: TableRef<'g>,
    _marker: ShieldMarker<T, H>,
}

impl<T, H: RawHandle> Shield<'static, T, H> {
    /// Leases the lowest free slot of `handle` as an owned shield. Called by
    /// [`Handle::shield`].
    pub(crate) fn lease(handle: &H) -> Result<Self, ShieldError> {
        let table = handle.shield_slots();
        // Single-writer premise of `ShieldSlots::lease`: `H` is `!Sync`
        // (`RawHandle`'s `# Safety`), so this `&H` is on the only thread
        // that can currently reach the handle.
        let slot = table.lease()?;
        Ok(Self {
            slot,
            table: TableRef::Owned(Arc::clone(table)),
            _marker: PhantomData,
        })
    }
}

impl<T, H: RawHandle> Shield<'_, T, H> {
    /// The reservation slot index this shield owns.
    #[inline]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Hazard-Eras `get_protected`, typed: reads the pointer stored at `src`,
    /// publishes the scheme's reservation in this shield's slot, and returns
    /// a [`Protected`] tied to `guard`.
    ///
    /// `parent` is the protected block that physically contains `src`
    /// (`None` when `src` is a data-structure root). Only WFE's slow path
    /// uses it; passing it is how the paper's §3.4 API convention — "the
    /// parent must itself be protected" — becomes a typed requirement.
    ///
    /// Re-protecting through the same shield releases the protection of the
    /// pointer it previously returned (see the [module docs](self)). In
    /// debug builds each call bumps this slot's generation, so a stale
    /// [`Protected`] kept past that point panics on its next
    /// [`as_ref`](Protected::as_ref) instead of dereferencing freed memory.
    ///
    /// # Panics
    ///
    /// Panics if the shield was leased from a different handle than the one
    /// `guard` brackets — the slot index would otherwise stomp an unrelated
    /// reservation of that handle.
    #[inline(always)]
    pub fn protect<'g>(
        &mut self,
        guard: &'g Guard<'_, H>,
        src: &Atomic<T>,
        parent: Option<Protected<'_, T>>,
    ) -> Protected<'g, T> {
        assert!(
            core::ptr::eq::<ShieldSlots>(&*self.table, guard.slots),
            "Shield used with a guard of a different handle (lease a shield from \
             the guard, or the handle, that entered this operation)"
        );
        // Invalidate any Protected previously returned for this slot before
        // its reservation is overwritten below.
        #[cfg(debug_assertions)]
        let stamp = {
            let cell = guard.slots.generation(self.slot);
            let gen = cell.load(Ordering::Relaxed).wrapping_add(1); // ORDER: debug-only generation stamp; same-thread accesses.
            cell.store(gen, Ordering::Relaxed); // ORDER: debug-only generation stamp; same-thread accesses.
            SlotStamp { cell, gen }
        };
        #[cfg_attr(not(debug_assertions), allow(unused_mut))]
        let mut protected = guard.protect_in_slot(self.slot, src, parent);
        #[cfg(debug_assertions)]
        {
            protected.stamp = Some(stamp);
        }
        protected
    }
}

impl<T, H: RawHandle> Drop for Shield<'_, T, H> {
    #[inline]
    fn drop(&mut self) {
        self.table.release(self.slot);
    }
}

impl<T, H: RawHandle> core::fmt::Debug for Shield<'_, T, H> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Shield").field("slot", &self.slot).finish()
    }
}

/// A tagged, borrow-checked pointer to a reclaimable block, valid for the
/// lifetime `'g` of the [`Guard`] it was read under.
///
/// Obtained from [`Shield::protect`] (or, as the single unsafe escape hatch,
/// [`Protected::from_unlinked`]). The pointer keeps any low tag bits found in
/// the source; the *protected* object is the untagged block, which is what
/// [`Protected::as_ref`] dereferences.
///
/// Like the guard it borrows, a `Protected` is deliberately `!Send`: the
/// reservation backing it lives in the handle's registry slot, so the value
/// is meaningless on any other thread:
///
/// ```compile_fail,E0277
/// use wfe_reclaim::{Atomic, Handle, He, Reclaimer};
/// fn requires_send<T: Send>(_: T) {}
/// let domain = He::new_default();
/// let mut handle = domain.register();
/// let mut shield = handle.shield::<u64>().unwrap();
/// let root: Atomic<u64> = Atomic::null();
/// let guard = handle.enter();
/// let p = shield.protect(&guard, &root, None);
/// requires_send(p); // ERROR: `Protected<'_, u64>` is not `Send`
/// ```
pub struct Protected<'g, T> {
    /// Raw, possibly tagged pointer.
    ptr: *mut Linked<T>,
    /// Which protect-generation of its slot this value belongs to; `None`
    /// for values not backed by a reservation slot ([`Protected::null`],
    /// [`Protected::from_unlinked`]). Debug builds only.
    #[cfg(debug_assertions)]
    stamp: Option<SlotStamp<'g>>,
    /// Ties the value to the guard's borrow region.
    _guard: PhantomData<&'g ()>,
}

/// The (generation cell, observed generation) pair [`Shield::protect`]
/// stamps into a [`Protected`]; [`Protected::as_ref`] compares the cell
/// against the stamp to detect that the slot has been re-protected (which
/// ends this value's reservation). Debug builds only.
#[cfg(debug_assertions)]
#[derive(Clone, Copy)]
struct SlotStamp<'g> {
    cell: &'g AtomicUsize,
    gen: usize,
}

impl<T> Clone for Protected<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Protected<'_, T> {}

impl<'g, T> Protected<'g, T> {
    /// Wraps a raw pointer with no slot stamp (internal constructor; the
    /// stamped path is [`Shield::protect`]).
    #[inline]
    fn from_raw(ptr: *mut Linked<T>) -> Self {
        Self {
            ptr,
            #[cfg(debug_assertions)]
            stamp: None,
            _guard: PhantomData,
        }
    }

    /// The null pointer (protects nothing; `as_ref` returns `None`).
    #[inline]
    pub fn null() -> Self {
        Self::from_raw(ptr::null_mut())
    }

    /// The unsafe escape hatch: wraps a raw pointer in a `Protected` without
    /// a reservation.
    ///
    /// # Safety
    ///
    /// The caller guarantees the block cannot be reclaimed while this value
    /// (or anything derived from it) is in use. The two legitimate cases:
    ///
    /// * the calling thread just **unlinked** the block and owns its
    ///   retirement (constructing a `Protected` only to call
    ///   [`retire_in`](Self::retire_in), or to read a value only the
    ///   unlinking thread may still access);
    /// * the block is an **immortal sentinel** that its data structure never
    ///   retires (e.g. the Natarajan-Mittal BST's root nodes).
    ///
    /// A value constructed this way and passed to [`retire_in`](Self::retire_in)
    /// must additionally come from the same domain as the retiring guard's
    /// handle (see `retire_in`'s contract).
    #[inline]
    pub unsafe fn from_unlinked(ptr: *mut Linked<T>) -> Self {
        Self::from_raw(ptr)
    }

    /// The raw, possibly tagged pointer (for CAS expected/new values and
    /// pointer comparisons; dereferencing it is on the caller).
    #[inline]
    pub fn as_raw(&self) -> *mut Linked<T> {
        self.ptr
    }

    /// `true` if the untagged pointer is null.
    #[inline]
    pub fn is_null(&self) -> bool {
        tag::untagged(self.ptr).is_null()
    }

    /// The low tag bits carried by the pointer.
    #[inline]
    pub fn tag(&self) -> usize {
        tag::tag_of(self.ptr)
    }

    /// The same protected block with all tag bits cleared.
    #[inline]
    pub fn untagged(self) -> Self {
        Self {
            ptr: tag::untagged(self.ptr),
            ..self
        }
    }

    /// The same protected block carrying `tag` (previous tag cleared).
    #[inline]
    pub fn with_tag(self, tag_bits: usize) -> Self {
        Self {
            ptr: tag::with_tag(self.ptr, tag_bits),
            ..self
        }
    }

    /// Dereferences the protected block. Returns `None` for null.
    ///
    /// The returned reference lives as long as the guard: the reservation
    /// taken by [`Shield::protect`] keeps the block from being freed until
    /// the bracket closes.
    ///
    /// # Safety
    ///
    /// The reservation this value was returned under must still be in
    /// place: the [`Shield`] that produced it must not have re-protected —
    /// and its slot must not have been re-leased and re-protected — between
    /// [`Shield::protect`] and the last use of the returned reference.
    /// Leasing one shield per simultaneously-live pointer (each structure's
    /// `REQUIRED_SLOTS` count) satisfies this by construction. Values built
    /// with [`Protected::from_unlinked`] answer to that constructor's
    /// contract (just-unlinked and owned, or immortal) instead.
    ///
    /// Debug builds verify the obligation: every `Shield::protect` bumps a
    /// per-slot generation, and a stale `as_ref` panics (see the
    /// [module docs](self)).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if the value is stale as described above.
    #[inline]
    pub unsafe fn as_ref(&self) -> Option<&'g T> {
        let clean = tag::untagged(self.ptr);
        if clean.is_null() {
            return None;
        }
        #[cfg(debug_assertions)]
        if let Some(stamp) = self.stamp {
            assert!(
                stamp.cell.load(Ordering::Relaxed) == stamp.gen, // ORDER: debug-only generation stamp; same-thread accesses.
                "stale Protected: its Shield re-protected (or its slot was \
                 re-leased and re-protected) after this value was returned, \
                 which ended its reservation — lease one Shield per \
                 simultaneously-live pointer"
            );
        }
        // SAFETY: the protection invariant — `clean` was published in a
        // reservation slot under `'g`'s guard and the caller guarantees the
        // slot has not been re-protected since (or the value was asserted
        // immortal / owned via `from_unlinked`), so the scheme will not free
        // it while `'g` is live, and `Linked<T>` keeps the payload at a
        // stable address.
        Some(unsafe { &(*clean).value })
    }

    /// `true` if both values point at the same block with the same tag.
    #[inline]
    pub fn ptr_eq(&self, other: Protected<'_, T>) -> bool {
        self.ptr == other.ptr
    }

    /// Retires the block (the paper's `retire`), encapsulating the raw
    /// three-part contract behind one obligation.
    ///
    /// # Safety
    ///
    /// **"I unlinked it":** the calling thread made this block unreachable
    /// from the data structure (it won the unlink CAS, or the block was never
    /// published), and no other thread will retire it. In addition, `guard`
    /// must bracket a handle of the **domain the block was allocated in** —
    /// a different domain's cleanup never scans the readers' reservations and
    /// would free the block under them. Note that `retire_in` is generic
    /// over the guard's handle type and performs no domain-identity check
    /// (the block header does not record its owning domain), so this
    /// obligation binds *every* call: even a `Protected` obtained from
    /// [`Shield::protect`] on domain A can be wrongly handed a guard of
    /// domain B — the type system only rules out crossing *schemes*, not
    /// domains of the same scheme.
    #[inline]
    pub unsafe fn retire_in<H: RawHandle>(self, guard: &Guard<'_, H>) {
        debug_assert!(!self.is_null(), "cannot retire a null block");
        debug_assert_eq!(self.tag(), 0, "cannot retire a tagged pointer");
        // SAFETY: forwarded "unlinked exactly once" obligation.
        unsafe { guard.retire_block(self.ptr) };
    }
}

impl<T> PartialEq for Protected<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr == other.ptr
    }
}

impl<T> Eq for Protected<'_, T> {}

impl<T> core::fmt::Debug for Protected<'_, T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Protected({:p}, tag {})",
            tag::untagged(self.ptr),
            self.tag()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Reclaimer, ReclaimerConfig};
    use crate::he::He;

    #[test]
    fn shield_lease_release_roundtrip() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(2));
        let handle = domain.register();
        let total = handle.shield_slots().capacity();
        assert!(total >= 2);
        let a = Handle::shield::<u64>(&handle).unwrap();
        let b = Handle::shield::<u64>(&handle).unwrap();
        assert_ne!(a.slot(), b.slot());
        assert_eq!(handle.shield_slots().leased(), 2);
        drop(a);
        assert_eq!(handle.shield_slots().leased(), 1);
        let c = Handle::shield::<u64>(&handle).unwrap();
        assert_eq!(c.slot(), 0, "lowest slot is recycled first");
        drop(b);
        drop(c);
        assert_eq!(handle.shield_slots().leased(), 0);
    }

    #[test]
    fn shield_exhaustion_is_an_error_not_a_stomp() {
        let domain = He::with_config(ReclaimerConfig {
            slots_per_thread: 2,
            ..ReclaimerConfig::with_max_threads(1)
        });
        let handle = domain.register();
        let _a = Handle::shield::<u64>(&handle).unwrap();
        let _b = Handle::shield::<u64>(&handle).unwrap();
        let err = Handle::shield::<u64>(&handle).unwrap_err();
        assert_eq!(err.slots, 2);
        assert!(err.to_string().contains("slots_per_thread"));
    }

    #[test]
    fn guard_brackets_protect_and_retire() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(2));
        let mut handle = domain.register();
        let mut shield = handle.shield::<u64>().unwrap();
        let node = handle.alloc(9u64);
        let root: Atomic<u64> = Atomic::new(node);
        {
            let guard = handle.enter();
            let p = shield.protect(&guard, &root, None);
            assert!(!p.is_null());
            // SAFETY: `shield` does not re-protect while `p` is in use.
            assert_eq!(unsafe { p.as_ref() }, Some(&9));
            assert_eq!(p.as_raw(), node);
        }
        root.store(ptr::null_mut(), Ordering::SeqCst);
        let guard = handle.enter();
        // SAFETY: just unlinked from `root`, retired once.
        unsafe { Protected::from_unlinked(node).retire_in(&guard) };
        drop(guard);
        handle.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
    }

    #[test]
    fn protect_pins_the_block_until_the_bracket_closes() {
        let domain = He::with_config(ReclaimerConfig {
            cleanup_freq: 1,
            era_freq: 1,
            ..ReclaimerConfig::with_max_threads(2)
        });
        let mut reader = domain.register();
        let mut writer = domain.register();
        let mut shield = reader.shield::<u64>().unwrap();
        let node = writer.alloc(5u64);
        let root: Atomic<u64> = Atomic::new(node);

        let guard = reader.enter();
        let p = shield.protect(&guard, &root, None);
        // SAFETY: `shield` does not re-protect while `p` is in use.
        assert_eq!(unsafe { p.as_ref() }, Some(&5));

        root.store(ptr::null_mut(), Ordering::SeqCst);
        {
            let wguard = writer.enter();
            // SAFETY: unlinked above, retired once.
            unsafe { Protected::from_unlinked(node).retire_in(&wguard) };
        }
        writer.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 1, "guarded read pins the block");
        // SAFETY: `shield` still has not re-protected; the reservation holds.
        let still_readable = unsafe { p.as_ref() };
        assert_eq!(still_readable, Some(&5), "still readable while protected");

        drop(guard);
        writer.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
    }

    #[test]
    #[should_panic(expected = "different handle")]
    fn shield_cannot_cross_handles_of_the_same_scheme() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(2));
        let first = domain.register();
        let mut second = domain.register();
        let mut shield = Handle::shield::<u64>(&first).unwrap();
        let root: Atomic<u64> = Atomic::null();
        let guard = second.enter();
        let _ = shield.protect(&guard, &root, None);
    }

    #[test]
    fn tag_round_trip_on_protected() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(1));
        let mut handle = domain.register();
        let node = handle.alloc(3u32);
        let root: Atomic<u32> = Atomic::new(tag::with_tag(node, 1));
        let mut shield = handle.shield::<u32>().unwrap();
        let guard = handle.enter();
        let p = shield.protect(&guard, &root, None);
        assert_eq!(p.tag(), 1);
        assert_eq!(p.untagged().tag(), 0);
        assert_eq!(p.with_tag(2).tag(), 2);
        assert_eq!(p.untagged().as_raw(), node);
        // SAFETY: `shield` does not re-protect while `p` is in use.
        assert_eq!(unsafe { p.as_ref() }, Some(&3), "as_ref ignores the tag");
        drop(guard);
        // SAFETY: never published anywhere else; freed exactly once.
        unsafe { Linked::dealloc(node) };
    }

    #[test]
    fn null_protected_behaves() {
        let p: Protected<'_, u64> = Protected::null();
        assert!(p.is_null());
        // SAFETY: null never dereferences.
        assert_eq!(unsafe { p.as_ref() }, None);
        assert_eq!(p.tag(), 0);
        assert!(p.ptr_eq(Protected::null()));
    }

    #[test]
    fn leases_reach_past_one_machine_word_of_slots() {
        // The bitmap table capped leases at `usize::BITS`; the flag table
        // leases every application slot the domain was configured with.
        const SLOTS: usize = usize::BITS as usize + 1;
        let domain = He::with_config(ReclaimerConfig {
            slots_per_thread: SLOTS,
            ..ReclaimerConfig::with_max_threads(1)
        });
        let mut handle = domain.register();
        assert_eq!(handle.shield_slots().capacity(), SLOTS);
        let node = handle.alloc(65u64);
        let root: Atomic<u64> = Atomic::new(node);
        {
            let guard = handle.enter();
            let mut shields: Vec<_> = (0..SLOTS)
                .map(|_| guard.shield::<u64>().expect("every configured slot leases"))
                .collect();
            assert_eq!(guard.shield::<u64>().unwrap_err().slots, SLOTS);
            let last = shields.last_mut().unwrap();
            assert_eq!(last.slot(), SLOTS - 1);
            let p = last.protect(&guard, &root, None);
            // SAFETY: the last shield does not re-protect while `p` is in use.
            assert_eq!(unsafe { p.as_ref() }, Some(&65));
        }
        assert_eq!(handle.shield_slots().leased(), 0);
        // SAFETY: never published anywhere else; freed exactly once.
        unsafe { Linked::dealloc(node) };
    }

    #[test]
    fn guard_lease_skips_owned_slots_and_reuses_the_lowest_released() {
        let domain = He::with_config(ReclaimerConfig {
            slots_per_thread: 4,
            ..ReclaimerConfig::with_max_threads(1)
        });
        let mut handle = domain.register();
        let owned_low = handle.shield::<u64>().unwrap();
        let owned_high = handle.shield::<u64>().unwrap();
        assert_eq!((owned_low.slot(), owned_high.slot()), (0, 1));
        {
            let guard = handle.enter();
            let a = guard.shield::<u64>().unwrap();
            let b = guard.shield::<u64>().unwrap();
            assert_eq!((a.slot(), b.slot()), (2, 3), "owned slots are skipped");
            drop(owned_low);
            let c = guard.shield::<u64>().unwrap();
            assert_eq!(c.slot(), 0, "a slot an owned shield released is leasable");
            drop(a);
            drop(c);
            let d = guard.shield::<u64>().unwrap();
            assert_eq!(d.slot(), 0, "lowest released slot is reused first");
        }
        assert_eq!(handle.shield_slots().leased(), 1, "guard leases returned");
        drop(owned_high);
        assert_eq!(handle.shield_slots().leased(), 0);
    }

    #[test]
    fn guard_lease_reports_exhaustion() {
        let domain = He::with_config(ReclaimerConfig {
            slots_per_thread: 2,
            ..ReclaimerConfig::with_max_threads(1)
        });
        let mut handle = domain.register();
        let _owned = handle.shield::<u64>().unwrap();
        let guard = handle.enter();
        let _leased = guard.shield::<u64>().unwrap();
        let err = guard.shield::<u64>().unwrap_err();
        assert_eq!(err.slots, 2);
        assert!(err.to_string().contains("slots_per_thread"));
    }

    #[test]
    #[should_panic(expected = "different handle")]
    fn guard_leased_shield_cannot_cross_handles_of_the_same_scheme() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(2));
        let mut first = domain.register();
        let mut second = domain.register();
        let first_guard = first.enter();
        let mut shield = first_guard.shield::<u64>().unwrap();
        let root: Atomic<u64> = Atomic::null();
        let second_guard = second.enter();
        let _ = shield.protect(&second_guard, &root, None);
    }

    /// Frees test-owned blocks that were never retired when dropped — also
    /// while a `should_panic` test unwinds, so those tests leak nothing
    /// (LeakSanitizer runs them).
    #[cfg(debug_assertions)]
    struct FreeOnDrop(Vec<*mut Linked<u64>>);

    #[cfg(debug_assertions)]
    impl Drop for FreeOnDrop {
        fn drop(&mut self) {
            for &block in &self.0 {
                // SAFETY: each block was allocated by the test, never
                // retired, and is not read once the guard drops — it is
                // declared before every reference to it.
                unsafe { Linked::dealloc(block) };
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale Protected")]
    fn stale_protected_through_a_guard_leased_shield_panics_in_debug() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(1));
        let mut handle = domain.register();
        let a = handle.alloc(1u64);
        let b = handle.alloc(2u64);
        let _blocks = FreeOnDrop(vec![a, b]);
        let root_a: Atomic<u64> = Atomic::new(a);
        let root_b: Atomic<u64> = Atomic::new(b);
        let guard = handle.enter();
        let mut shield = guard.shield::<u64>().unwrap();
        let stale = shield.protect(&guard, &root_a, None);
        let fresh = shield.protect(&guard, &root_b, None);
        // SAFETY: `fresh` is the shield's current reservation.
        assert_eq!(unsafe { fresh.as_ref() }, Some(&2));
        // SAFETY: deliberately violated contract — the generation stamp must
        // turn this use-after-reprotect into a panic, not a stale read.
        let _ = unsafe { stale.as_ref() };
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale Protected")]
    fn stale_protected_after_reprotect_panics_in_debug() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(1));
        let mut handle = domain.register();
        let mut shield = handle.shield::<u64>().unwrap();
        let a = handle.alloc(1u64);
        let b = handle.alloc(2u64);
        let _blocks = FreeOnDrop(vec![a, b]);
        let root_a: Atomic<u64> = Atomic::new(a);
        let root_b: Atomic<u64> = Atomic::new(b);
        let guard = handle.enter();
        let stale = shield.protect(&guard, &root_a, None);
        let fresh = shield.protect(&guard, &root_b, None);
        // SAFETY: `fresh` is the shield's current reservation.
        assert_eq!(unsafe { fresh.as_ref() }, Some(&2));
        // SAFETY: deliberately violated contract — the generation stamp must
        // turn this use-after-reprotect into a panic, not a stale read.
        let _ = unsafe { stale.as_ref() };
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale Protected")]
    fn stale_protected_after_slot_release_and_reuse_panics_in_debug() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(1));
        let mut handle = domain.register();
        let mut shield = handle.shield::<u64>().unwrap();
        let slot = shield.slot();
        let node = handle.alloc(7u64);
        let _blocks = FreeOnDrop(vec![node]);
        let root: Atomic<u64> = Atomic::new(node);
        let guard = handle.enter();
        let stale = shield.protect(&guard, &root, None);
        drop(shield);
        // Re-lease the same slot (the handle itself is borrowed by the
        // guard, so the second lease comes from the guard).
        let mut second = guard.shield::<u64>().unwrap();
        assert_eq!(second.slot(), slot, "lowest slot is recycled first");
        let _ = second.protect(&guard, &root, None);
        // SAFETY: deliberately violated contract — the slot was re-leased
        // and re-protected, so the stamp check must fire.
        let _ = unsafe { stale.as_ref() };
    }
}
