//! The one scheme core: [`Domain<P>`] and its per-thread [`DomainHandle<P>`].
//!
//! The six schemes of the evaluation differ in *what* a thread reserves and
//! *when* the clock moves — Hazard Eras publishes an era where Hazard
//! Pointers publishes a pointer, WFE is Hazard Eras with `get_protected`
//! made wait-free, EBR and 2GEIBR reserve per operation instead of per
//! pointer — and in nothing else. Everything else is written here, once:
//!
//! * **the domain** owns the configuration, the dense
//!   [`ThreadRegistry`], one [`SlotCounters`] block per registry slot, the
//!   [`OrphanStack`] and the one [`EraSource`] clock;
//! * **the handle** owns the [`ShieldSlots`] lease table, its block-cache
//!   magazines, the [`RetiredBatch`], the snapshot scratch and the two
//!   cadence counters (`cleanup_freq` retirements per pass, `era_freq`
//!   allocations per clock advance) — and, while it holds its registry slot,
//!   is the only writer of that slot's counter block;
//! * the only `impl Reclaimer`, the only `unsafe impl RawHandle`, the only
//!   cleanup pass and both `Drop`s.
//!
//! A [`Policy`] supplies the scheme: its reservation table, its snapshot
//! type, what `protect` publishes, how `begin_op`/`end_op`/`clear` publish
//! and withdraw, how a pass fills its snapshot and how the clock advances.

use core::ptr::NonNull;
use std::sync::Arc;
use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use wfe_sync::{CachePadded, EraSource};

use crate::api::{assert_slot_index, DomainConfig, Progress, RawHandle, Reclaimer};
use crate::block::BlockHeader;
use crate::cache::LocalBlockCache;
use crate::guard::ShieldSlots;
use crate::registry::ThreadRegistry;
use crate::retired::{cleanup_pass, OrphanStack, Retired, RetiredBatch};
use crate::scan::ReservationSet;
use crate::stats::{self, SlotCounters, SmrStats};

/// What makes a reclamation scheme that scheme; everything a [`Domain`] and
/// its [`DomainHandle`] do not already do for all of them.
///
/// The hooks are associated functions over the domain rather than methods on
/// the policy value, because most of them need the domain's clock, registry
/// or counters next to the policy's own tables.
///
/// # Safety
///
/// The core's `RawHandle` contract rests on [`cell`](Self::cell),
/// [`protect`](Self::protect) and [`fill_snapshot`](Self::fill_snapshot)
/// together.
///
/// * `cell(domain, tid, index)` resolves, once, every address a protect
///   through slot `index` of thread `tid` reads or writes: the reservation
///   word that pair publishes into (and no other pair's, except where the
///   scheme shares one word between a thread's indexes on purpose, as
///   2GEIBR's `upper` is) and the domain's clock. The addresses point into
///   the domain, never into the handle (which moves, and is parked and
///   checked out by a [`HandlePool`](crate::HandlePool) with its `tid`), so
///   a cell stays valid for as long as the domain lives.
/// * For a block that is retired only after it became unreachable: from the
///   moment `protect` on the cell of `(tid, index)` returns its address
///   until that thread's next `protect` through the same cell,
///   [`clear`](Self::clear) or [`end_op`](Self::end_op), every snapshot that
///   `fill_snapshot` fills after the block's retirement must not
///   [`judge`](ReservationSet::judge) the block free (its header's
///   `alloc_era` and its batch entry's `retire_era` are the clock values the
///   core read at allocation and at retirement). A witness a snapshot names
///   must obey [`ReservationSet::holds`].
pub unsafe trait Policy: Send + Sync + Sized + 'static {
    /// The scratch one cleanup pass fills and judges the batch against.
    type Snapshot: ReservationSet + Default + Send;

    /// Short scheme name as used in the paper's plots.
    const NAME: &'static str;

    /// Progress guarantee of the reclamation operations.
    const PROGRESS: Progress;

    /// Whether the scheme reclaims while it runs. `false` (Leak alone) means
    /// the core never runs a cleanup pass, so never adopts an orphaned
    /// batch, and gives its handles no magazines: nothing would ever refill
    /// them.
    const RECLAIMS: bool = true;

    /// Whether the scheme stamps and compares eras. `false` (HP, Leak) means
    /// the default [`advance`](Self::advance) leaves the clock alone and
    /// [`SmrStats::era`] reports 0, "no clock".
    const HAS_CLOCK: bool = true;

    /// Builds the scheme's reservation tables; the place for its own
    /// configuration checks.
    fn new(config: &DomainConfig) -> Self;

    /// What a [`Shield`](crate::Shield) resolves once, when it is leased,
    /// and every protect through it then reads instead of `(tid, index)`:
    /// the address of the slot's reservation word and of the clock (built
    /// from [`CellPtr`]s). `()` under a scheme that publishes nothing per
    /// pointer.
    type Cell: Copy + Send + Sync;

    /// Resolves the cell of slot `index` of thread `tid`. `index` was
    /// checked against `slots_per_thread` by the caller
    /// ([`assert_slot_index`]).
    ///
    /// # Safety
    ///
    /// The cell is handed to [`protect`](Self::protect) only while `domain`
    /// is alive (a cell is addresses into it), and only by the thread that
    /// currently runs the handle registered as `tid` (the single writer of
    /// its row).
    unsafe fn cell(domain: &Domain<Self>, tid: usize, index: usize) -> Self::Cell;

    /// The paper's `get_protected` on a resolved cell: reads `src` and
    /// publishes whatever keeps `value & mask` from being freed. `parent`
    /// (its tag bits masked by `mask`, too) is the block containing `src`
    /// (null for roots); only WFE's helpers need it. The one protect of the
    /// scheme: the shield path passes the cell it resolved at lease time, the
    /// raw path one it resolved for this call.
    fn protect(
        cell: &Self::Cell,
        src: &AtomicUsize,
        parent: *mut BlockHeader,
        mask: usize,
    ) -> usize;

    /// Opens an operation bracket. Schemes that reserve per pointer have
    /// nothing to publish here.
    #[inline]
    fn begin_op(_domain: &Domain<Self>, _tid: usize) {}

    /// The paper's `clear`: withdraws what `protect` published. Schemes that
    /// reserve per operation keep the default — their reservation must
    /// outlive a mid-operation `clear` and is withdrawn by `end_op`.
    #[inline]
    fn clear(_domain: &Domain<Self>, _tid: usize) {}

    /// Closes an operation bracket: withdraws every reservation of `tid`.
    #[inline]
    fn end_op(domain: &Domain<Self>, tid: usize) {
        Self::clear(domain, tid);
    }

    /// Snapshots every reservation of the domain for one cleanup pass.
    fn fill_snapshot(domain: &Domain<Self>, snapshot: &mut Self::Snapshot);

    /// The era-advance rule, run every `era_freq` allocations, by
    /// `force_cleanup` before its pass, and one retirement ahead of each due
    /// pass (on the due retirement itself when `cleanup_freq` is 1) if that
    /// retirement's block still carries the current era. The default bumps
    /// the clock if the scheme [has one](Self::HAS_CLOCK); WFE helps pending
    /// slow paths first.
    #[inline]
    fn advance(domain: &Domain<Self>, _tid: usize) {
        if Self::HAS_CLOCK {
            domain.clock.advance(Ordering::AcqRel); // ORDER: era advance; orders the clock with the allocations and retires it brackets.
        }
    }
}

/// An address inside a domain — a reservation word, the clock, the domain
/// itself — resolved once into a [`Policy::Cell`].
///
/// Making one is the `unsafe` step ([`new`](Self::new)): nothing ties the
/// pointer to the lifetime of what it points at, so whoever makes it
/// promises the target outlives every read through it. A
/// [`Shield`](crate::Shield) keeps the cells it resolved across its lease
/// and protects through them only under a guard of the handle that leased
/// it, which keeps the domain alive.
#[derive(Debug)]
pub struct CellPtr<T>(NonNull<T>);

impl<T> CellPtr<T> {
    /// The address of `target`.
    ///
    /// # Safety
    ///
    /// `target` outlives every [`get`](Self::get) through the returned
    /// pointer and its copies: nothing reads through them after `target` is
    /// dropped or moved.
    #[inline]
    pub unsafe fn new(target: &T) -> Self {
        Self(NonNull::from(target))
    }

    /// The target.
    #[inline(always)]
    pub fn get(&self) -> &T {
        // SAFETY: made from a reference to a target that outlives every read
        // through this pointer (`new`'s contract).
        unsafe { self.0.as_ref() }
    }
}

impl<T> Clone for CellPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for CellPtr<T> {}

// SAFETY: the only access through a `CellPtr` is `get`, a shared
// reference, which is sound to make on any thread exactly when `T` is
// `Sync` (the atomics and the clock are).
unsafe impl<T: Sync> Send for CellPtr<T> {}
// SAFETY: as above — shared access to a `Sync` target.
unsafe impl<T: Sync> Sync for CellPtr<T> {}

/// A reservation word and the domain clock: the cell of the schemes whose
/// protect is Figure 1's loop on one published era (HE per slot, 2GEIBR on
/// its `upper` bound).
// LAYOUT: two addresses, not two atomics — written once at lease time and
// only read after, by the one thread that protects through the cell.
#[derive(Debug, Clone, Copy)]
pub struct EraCell {
    reservation: CellPtr<AtomicU64>,
    clock: CellPtr<EraSource>,
}

impl EraCell {
    /// The cell publishing into `reservation`, a word of `domain`'s tables,
    /// under `domain`'s clock.
    ///
    /// # Safety
    ///
    /// As [`Policy::cell`]'s: the cell is used only while `domain` lives.
    #[inline]
    pub(crate) unsafe fn new<P: Policy>(domain: &Domain<P>, reservation: &AtomicU64) -> Self {
        // SAFETY: both targets live as long as `domain`, which outlives
        // every use of the cell (the caller's contract).
        unsafe {
            Self {
                reservation: CellPtr::new(reservation),
                clock: CellPtr::new(&domain.clock),
            }
        }
    }

    /// Hazard Eras' `get_protected` loop (Figure 1, lines 15-24): read the
    /// own reservation, `src` and the clock; publish and retry until the
    /// clock holds still across a read of `src`.
    #[inline(always)]
    pub fn protect(&self, src: &AtomicUsize) -> usize {
        let (reservation, clock) = (self.reservation.get(), self.clock.get());
        let mut prev_era = reservation.load(Ordering::Relaxed); // ORDER: own slot re-read; the publish that matters is the SeqCst store in the loop.
        loop {
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = clock.load(Ordering::Acquire); // ORDER: era clock read; pairs with the AcqRel (or stronger) era advances.
            if prev_era == new_era {
                return value;
            }
            // Publishing the era must become visible to era-advancing
            // threads before we re-read the source pointer, hence SeqCst
            // (the paper's pseudo-code assumes sequential consistency here).
            reservation.store(new_era, Ordering::SeqCst);
            prev_era = new_era;
        }
    }
}

/// A reclamation domain running scheme `P`.
///
/// The scheme names — [`Wfe`](crate::Wfe), [`He`](crate::He),
/// [`Hp`](crate::Hp), [`Ebr`](crate::Ebr), [`Ibr2Ge`](crate::Ibr2Ge) and
/// [`Leak`](crate::Leak) — are aliases of this type.
pub struct Domain<P: Policy> {
    config: DomainConfig,
    registry: ThreadRegistry,
    /// One block per registry slot, written only by the slot's current
    /// handle (and by the policy hooks it calls with its own `tid`).
    counters: Box<[CachePadded<SlotCounters>]>,
    orphans: OrphanStack,
    /// The era/epoch clock (it stays at 1 under a policy that never advances).
    clock: EraSource,
    policy: P,
}

impl<P: Policy> Domain<P> {
    /// Current value of the global era (epoch) clock.
    #[inline]
    pub(crate) fn era(&self) -> u64 {
        self.clock.load(Ordering::Acquire) // ORDER: era clock read; pairs with the AcqRel (or stronger) era advances.
    }

    /// The domain's era clock. Exposed so deterministic model tests can pin
    /// or bump the clock mid-schedule; production code never writes through
    /// this (the clock only moves through [`Policy::advance`]).
    pub fn era_source(&self) -> &EraSource {
        &self.clock
    }

    /// The scheme's own state: its reservation tables.
    #[inline]
    pub(crate) fn policy(&self) -> &P {
        &self.policy
    }

    /// The counter block of registry slot `tid`, for the events only a
    /// policy sees (WFE's slow paths and helps). Single-writer: a hook
    /// credits the `tid` it was called with — its caller's own slot — and no
    /// other.
    #[inline]
    pub(crate) fn slot_counters(&self, tid: usize) -> &SlotCounters {
        &self.counters[tid]
    }
}

impl<P: Policy> Reclaimer for Domain<P> {
    type Handle = DomainHandle<P>;

    fn with_config(config: DomainConfig) -> Arc<Self> {
        assert!(
            config.era_freq >= 1,
            "DomainConfig::era_freq must be at least 1: the clock advances every era_freq allocations"
        );
        let registry = ThreadRegistry::new(config.max_threads);
        Arc::new(Self {
            counters: (0..registry.capacity())
                .map(|_| CachePadded::default())
                .collect(),
            registry,
            orphans: OrphanStack::new(),
            clock: EraSource::new(1),
            policy: P::new(&config),
            config,
        })
    }

    fn try_register(self: &Arc<Self>) -> Option<DomainHandle<P>> {
        let tid = self.registry.try_acquire()?;
        // The one fact the domain keeps about the block cache: whether its
        // handles get magazines. A scheme that never reclaims gets none.
        let magazines = P::RECLAIMS && self.config.block_cache.enabled;
        Some(DomainHandle {
            shield_slots: ShieldSlots::new(self.config.slots_per_thread),
            local_cache: magazines.then(LocalBlockCache::new),
            domain: Arc::clone(self),
            tid,
            retired: RetiredBatch::new(),
            snapshot: P::Snapshot::default(),
            since_cleanup: 0,
            until_advance: self.config.era_freq,
        })
    }

    fn name() -> &'static str {
        P::NAME
    }

    fn progress() -> Progress {
        P::PROGRESS
    }

    fn stats(&self) -> SmrStats {
        let era = if P::HAS_CLOCK { self.era() } else { 0 };
        // The mark is re-read by each walk: the second must cover any slot
        // whose retirements the first walk's frees came from.
        let written = || {
            self.counters[..self.registry.high_water()]
                .iter()
                .map(|slot| &**slot)
        };
        stats::snapshot(written, era)
    }

    fn config(&self) -> &DomainConfig {
        &self.config
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }
}

impl<P: Policy> Drop for Domain<P> {
    fn drop(&mut self) {
        // SAFETY: no handle can exist any more (handles hold an `Arc` to the
        // domain), so every orphaned block is unreachable and unprotected.
        unsafe {
            self.orphans.free_all();
        }
    }
}

impl<P: Policy> core::fmt::Debug for Domain<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct(P::NAME)
            .field("era", &self.era())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Per-thread handle of a [`Domain<P>`].
///
/// Deliberately `!Sync`: the single-writer premise of the
/// [`Shield`](crate::Shield) lease table (`RawHandle`'s `# Safety`).
///
/// A thread cannot lend its handle to another:
///
/// ```compile_fail,E0277
/// use wfe_reclaim::{RawHandle, Reclaimer, Wfe};
/// let domain = Wfe::new_default();
/// let handle = domain.register();
/// std::thread::scope(|scope| {
///     scope.spawn(|| handle.thread_id()); // ERROR: the handle is not `Sync`
/// });
/// ```
pub struct DomainHandle<P: Policy> {
    /// Lease table for this handle's [`Shield`](crate::Shield)s. Schemes that
    /// ignore slot indices still lease, which keeps data structures
    /// scheme-generic.
    shield_slots: Arc<ShieldSlots>,
    /// The handle's block-cache magazines over the process-wide pool; `None`
    /// when the domain's handles get none.
    local_cache: Option<LocalBlockCache>,
    domain: Arc<Domain<P>>,
    tid: usize,
    retired: RetiredBatch,
    /// Reusable reservation snapshot (the batch scan scratch).
    snapshot: P::Snapshot,
    /// Retirements since the last cleanup pass.
    since_cleanup: usize,
    /// Allocations left until the next clock advance: counts down from
    /// `era_freq`, so no allocation divides.
    until_advance: usize,
}

impl<P: Policy> DomainHandle<P> {
    /// One cleanup pass of the batch scan protocol
    /// ([`crate::retired::cleanup_pass`]); nothing under a scheme that never
    /// reclaims.
    fn cleanup(&mut self) {
        self.since_cleanup = 0;
        if !P::RECLAIMS {
            return;
        }
        let domain = &*self.domain;
        // SAFETY: `fill_snapshot` reads the reservation tables inside
        // `cleanup_pass`, i.e. after the orphan pop and after every block on the
        // batch was retired — the snapshot-freshness contract; that the
        // snapshot then covers every protected block is `Policy`'s contract.
        unsafe {
            cleanup_pass(
                &mut self.retired,
                &domain.orphans,
                domain.slot_counters(self.tid),
                &mut self.snapshot,
                self.local_cache.as_mut(),
                |snapshot| P::fill_snapshot(domain, snapshot),
            );
        }
    }
}

// SAFETY: `thread_id` is unique per live handle (acquired from the registry,
// released on drop); `cell` checks the index and resolves the cell in this
// handle's domain for its own `tid`, and `protect_cell` returns what
// `P::protect` returns on such a cell, so by `Policy`'s contract
// the reservation it published keeps the block covered in every snapshot
// `cleanup` fills until the slot is overwritten or cleared. The handle is
// `!Sync` (its magazine and batch hold raw pointers) and hands out the one
// lease table made at registration.
unsafe impl<P: Policy> RawHandle for DomainHandle<P> {
    type Cell = P::Cell;

    fn thread_id(&self) -> usize {
        self.tid
    }

    fn slots(&self) -> usize {
        self.domain.config.slots_per_thread
    }

    fn shield_slots(&self) -> &Arc<ShieldSlots> {
        &self.shield_slots
    }

    #[inline]
    fn begin_op(&mut self) {
        P::begin_op(&self.domain, self.tid);
    }

    #[inline]
    fn end_op(&mut self) {
        P::end_op(&self.domain, self.tid);
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::cell`); the obligations are the caller's.
    #[inline]
    unsafe fn cell(&self, index: usize) -> P::Cell {
        // Checked under every scheme, also those that ignore the index: a
        // stray one is a caller bug and must fail the same way everywhere.
        assert_slot_index(index, self.slots());
        // SAFETY: forwarded contract — the caller uses the cell only while
        // this registration lives (and so the domain its `Arc` holds), on
        // the thread running it.
        unsafe { P::cell(&self.domain, self.tid, index) }
    }

    #[inline(always)]
    fn protect_cell(
        cell: &P::Cell,
        src: &AtomicUsize,
        parent: *mut BlockHeader,
        mask: usize,
    ) -> usize {
        P::protect(cell, src, parent, mask)
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::retire_raw`); the obligations are the caller's.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader) {
        let domain = &*self.domain;
        let era = domain.era();
        // SAFETY: the caller's `retire_raw` contract — `block` is a valid,
        // unreachable block retired exactly once — is `Retired::new`'s.
        self.retired.push(unsafe { Retired::new(block, era) });
        domain.slot_counters(self.tid).on_retire();
        self.since_cleanup += 1;
        let cleanup_freq = domain.config.cleanup_freq;
        // Figure 1, lines 27-28 (Figure 4, lines 80-82) advance the clock,
        // if nothing else advanced it since this block was stamped, and scan
        // on the same retirement. Here the advance runs one retirement
        // earlier, on the one that brings the batch to `cleanup_freq - 1`
        // (on the same one when `cleanup_freq` is 1): an operation that
        // begins in between publishes the new era, so the pass frees every
        // block but the newest instead of leaving the era the advance just
        // closed pinning much of the batch for another period. Safety is
        // Hazard Eras' argument unchanged: an advance is legal at any point,
        // and each pass still follows an advance.
        if self.since_cleanup == cleanup_freq.saturating_sub(1).max(1) && era == domain.era() {
            P::advance(domain, self.tid);
        }
        if self.since_cleanup >= cleanup_freq {
            self.cleanup();
        }
    }

    #[inline]
    fn clear(&mut self) {
        P::clear(&self.domain, self.tid);
    }

    fn pre_alloc(&mut self) -> u64 {
        let domain = &*self.domain;
        domain.slot_counters(self.tid).on_alloc();
        self.until_advance -= 1;
        if self.until_advance == 0 {
            self.until_advance = domain.config.era_freq;
            P::advance(domain, self.tid);
        }
        domain.era()
    }

    fn force_cleanup(&mut self) {
        P::advance(&self.domain, self.tid);
        self.cleanup();
    }

    #[inline]
    fn block_cache(&mut self) -> Option<&mut LocalBlockCache> {
        self.local_cache.as_mut()
    }

    fn parked_groups(&self) -> Vec<(u64, usize)> {
        self.retired.parked_groups().collect()
    }
}

impl<P: Policy> Drop for DomainHandle<P> {
    fn drop(&mut self) {
        // Withdraw first, so the final pass can free what only this handle
        // still protected.
        self.end_op();
        self.cleanup();
        // Hand the magazines' blocks to the pool so surviving threads can
        // recycle them, and report the drained gauge.
        if let Some(cache) = &mut self.local_cache {
            cache.drain();
            cache.flush_stats(self.domain.slot_counters(self.tid));
        }
        // Whatever the final pass could not free is parked on the orphan
        // stack; the next live thread's cleanup pass adopts it.
        self.domain.orphans.push(self.retired.take());
        self.domain.registry.release(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use crate::{DomainConfig, Ebr, Handle, He, Ibr2Ge, RawHandle, Reclaimer, Wfe};

    /// With the allocation cadence out of the way, `passes × cleanup_freq`
    /// retirements, each in its own operation, move the clock exactly
    /// `passes` times: the batch's advance runs once per pass, ahead of it,
    /// and not again on the pass's own retirement. Under `cleanup_freq: 1`
    /// the advance and the pass share the retirement, so a lone unprotected
    /// block is freed by its own pass.
    fn one_clock_advance_per_pass<R: Reclaimer>() {
        const PASSES: u64 = 5;
        for cleanup_freq in [1, 2, 3, 30] {
            let domain = R::with_config(DomainConfig {
                cleanup_freq,
                era_freq: usize::MAX,
                ..DomainConfig::with_max_threads(1)
            });
            let mut handle = domain.register();
            let blocks: Vec<_> = (0..PASSES * cleanup_freq as u64)
                .map(|i| handle.alloc(i))
                .collect();
            let before = domain.stats().era;
            for block in blocks {
                handle.begin_op();
                // SAFETY: never published, so trivially unreachable; retired once.
                unsafe { handle.retire(block) };
                handle.end_op();
            }
            let advances = domain.stats().era - before;
            assert_eq!(
                advances, PASSES,
                "{advances} clock advances over {PASSES} passes of {cleanup_freq}"
            );
        }

        let domain = R::with_config(DomainConfig {
            cleanup_freq: 1,
            era_freq: usize::MAX,
            ..DomainConfig::with_max_threads(1)
        });
        let mut handle = domain.register();
        let block = handle.alloc(0u64);
        // SAFETY: never published, so trivially unreachable; retired once.
        unsafe { handle.retire(block) };
        let stats = domain.stats();
        assert_eq!((stats.era, stats.freed), (2, 1), "advanced, then freed");
    }

    #[test]
    fn one_clock_advance_per_pass_under_wfe() {
        one_clock_advance_per_pass::<Wfe>();
    }

    #[test]
    fn one_clock_advance_per_pass_under_he() {
        one_clock_advance_per_pass::<He>();
    }

    #[test]
    fn one_clock_advance_per_pass_under_ebr() {
        one_clock_advance_per_pass::<Ebr>();
    }

    #[test]
    fn one_clock_advance_per_pass_under_ibr() {
        one_clock_advance_per_pass::<Ibr2Ge>();
    }
}
