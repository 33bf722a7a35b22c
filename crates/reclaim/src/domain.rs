//! The one scheme core: [`Domain<P>`] and its per-thread [`DomainHandle<P>`].
//!
//! The six schemes of the evaluation differ in *what* a thread reserves and
//! *when* the clock moves — Hazard Eras publishes an era where Hazard
//! Pointers publishes a pointer, WFE is Hazard Eras with `get_protected`
//! made wait-free, EBR and 2GEIBR reserve per operation instead of per
//! pointer — and in nothing else. Everything else is written here, once:
//!
//! * **the domain** owns the configuration, the sharded
//!   [`ThreadRegistry`], one [`SlotCounters`] block per registry slot, the
//!   [`OrphanStack`], the [`BlockCaches`] and the one [`EraSource`] clock;
//! * **the handle** owns the [`ShieldSlots`] lease table, the home shard and
//!   its magazine, the [`RetiredBatch`], the snapshot scratch and the two
//!   cadence counters (`cleanup_freq` retirements per pass, `era_freq`
//!   allocations per clock advance) — and, while it holds its registry slot,
//!   is the only writer of that slot's counter block;
//! * the only `impl Reclaimer`, the only `unsafe impl RawHandle`, the only
//!   cleanup pass and both `Drop`s.
//!
//! A [`Policy`] supplies the scheme: its reservation table, its snapshot
//! type, what `protect` publishes, how `begin_op`/`end_op`/`clear` publish
//! and withdraw, how a pass fills its snapshot and how the clock advances.

use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};
use wfe_sync::{CachePadded, EraSource};

use crate::api::{debug_assert_slot_index, DomainConfig, Progress, RawHandle, Reclaimer};
use crate::block::BlockHeader;
use crate::cache::{BlockCaches, LocalBlockCache, ShardCache};
use crate::guard::ShieldSlots;
use crate::registry::ThreadRegistry;
use crate::retired::{cleanup_pass, OrphanStack, RetiredBatch};
use crate::scan::ReservationSet;
use crate::stats::{self, SlotCounters, SmrStats};

/// What makes a reclamation scheme that scheme; everything a [`Domain`] and
/// its [`DomainHandle`] do not already do for all of them.
///
/// The hooks are associated functions over the domain rather than methods on
/// the policy value, because most of them need the domain's clock, registry
/// or counters next to the policy's own tables ([`Domain::policy`]).
///
/// # Safety
///
/// The core's `RawHandle` contract rests on [`protect`](Self::protect) and
/// [`fill_snapshot`](Self::fill_snapshot) together. For a block that is
/// retired only after it became unreachable: from the moment `protect`
/// returns its address for `(tid, index)` until that thread's next `protect`
/// on the same index, [`clear`](Self::clear) or [`end_op`](Self::end_op),
/// every snapshot that `fill_snapshot` fills after the block's retirement
/// must not [`judge`](ReservationSet::judge) the block free (its
/// `alloc_era`/`retire_era` are the clock values the core stamped). A
/// witness a snapshot names must obey [`ReservationSet::holds`].
pub unsafe trait Policy: Send + Sync + Sized + 'static {
    /// The scratch one cleanup pass fills and judges the batch against.
    type Snapshot: ReservationSet + Default + Send;

    /// Short scheme name as used in the paper's plots.
    const NAME: &'static str;

    /// Progress guarantee of the reclamation operations.
    const PROGRESS: Progress;

    /// Whether the scheme reclaims while it runs. `false` (Leak alone) means
    /// the core never runs a cleanup pass, so never adopts an orphaned
    /// batch, and builds no block caches: nothing would ever refill them.
    const RECLAIMS: bool = true;

    /// Whether the scheme stamps and compares eras. `false` (HP, Leak) means
    /// the default [`advance`](Self::advance) leaves the clock alone and
    /// [`SmrStats::era`] reports 0, "no clock".
    const HAS_CLOCK: bool = true;

    /// Builds the scheme's reservation tables; the place for its own
    /// configuration checks.
    fn new(config: &DomainConfig) -> Self;

    /// The paper's `get_protected`: reads `src` and publishes whatever keeps
    /// `value & mask` from being freed. `parent` is the block containing
    /// `src` (null for roots); only WFE's helpers need it. `index` was
    /// checked against `slots_per_thread` by the caller.
    fn protect(
        domain: &Domain<Self>,
        tid: usize,
        src: &AtomicUsize,
        index: usize,
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

    /// The era-advance rule, run every `era_freq` allocations and before a
    /// due pass whose newest block still carries the current era. The
    /// default bumps the clock if the scheme [has one](Self::HAS_CLOCK);
    /// WFE helps pending slow paths first.
    #[inline]
    fn advance(domain: &Domain<Self>, _tid: usize) {
        if Self::HAS_CLOCK {
            domain.clock.advance(Ordering::AcqRel); // ORDER: era advance; orders the clock with the allocations and retires it brackets.
        }
    }
}

/// A reclamation domain running scheme `P`.
///
/// The scheme names — [`He`](crate::He), [`Hp`](crate::Hp),
/// [`Ebr`](crate::Ebr), [`Ibr2Ge`](crate::Ibr2Ge), [`Leak`](crate::Leak) and
/// `wfe_core::Wfe` — are aliases of this type.
pub struct Domain<P: Policy> {
    config: DomainConfig,
    registry: ThreadRegistry,
    /// One block per registry slot, written only by the slot's current
    /// handle (and by the policy hooks it calls with its own `tid`).
    counters: Box<[CachePadded<SlotCounters>]>,
    orphans: OrphanStack,
    /// The era/epoch clock (it stays at 1 under a policy that never advances).
    clock: EraSource,
    /// Per-shard size-class block caches (empty when disabled).
    caches: BlockCaches,
    policy: P,
}

impl<P: Policy> Domain<P> {
    /// Current value of the global era (epoch) clock.
    #[inline]
    pub fn era(&self) -> u64 {
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
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The counter block of registry slot `tid`, for the events only a
    /// policy sees (WFE's slow paths and helps). Single-writer: a hook
    /// credits the `tid` it was called with — its caller's own slot — and no
    /// other.
    #[inline]
    pub fn slot_counters(&self, tid: usize) -> &SlotCounters {
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
        let registry = config.build_registry();
        // A scheme that never reclaims gets no shard caches, hence no magazines.
        let cached_shards = if P::RECLAIMS {
            registry.shard_count()
        } else {
            0
        };
        Arc::new(Self {
            caches: BlockCaches::new(&config.block_cache, cached_shards),
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
        Some(DomainHandle {
            shield_slots: ShieldSlots::new(self.config.slots_per_thread),
            cache_shard: self.registry.shard_of(tid),
            local_cache: LocalBlockCache::new(),
            domain: Arc::clone(self),
            tid,
            retired: RetiredBatch::new(),
            snapshot: P::Snapshot::default(),
            since_cleanup: 0,
            alloc_counter: 0,
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
        let mut stats = stats::snapshot(written, era);
        stats.cached_bytes = self.caches.cached_bytes();
        stats
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
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// fn for_every_policy<P: wfe_reclaim::domain::Policy>() {
///     requires_sync::<wfe_reclaim::domain::DomainHandle<P>>(); // ERROR: not `Sync`
/// }
/// ```
pub struct DomainHandle<P: Policy> {
    /// Lease table for this handle's [`Shield`](crate::Shield)s. Schemes that
    /// ignore slot indices still lease, which keeps data structures
    /// scheme-generic.
    shield_slots: Arc<ShieldSlots>,
    /// Home registry shard, fixed at registration (indexes the block caches).
    cache_shard: usize,
    /// Private block-cache magazine fronting the home shard's freelists.
    local_cache: LocalBlockCache,
    domain: Arc<Domain<P>>,
    tid: usize,
    retired: RetiredBatch,
    /// Reusable reservation snapshot (the batch scan scratch).
    snapshot: P::Snapshot,
    /// Retirements since the last cleanup pass.
    since_cleanup: usize,
    alloc_counter: usize,
}

impl<P: Policy> DomainHandle<P> {
    /// The domain this handle belongs to.
    pub fn domain(&self) -> &Arc<Domain<P>> {
        &self.domain
    }

    /// One cleanup pass of the batch scan protocol
    /// ([`crate::retired::cleanup_pass`]); nothing under a scheme that never
    /// reclaims.
    fn cleanup(&mut self) {
        self.since_cleanup = 0;
        if !P::RECLAIMS {
            return;
        }
        let domain = &*self.domain;
        let shard = domain.caches.shard(self.cache_shard);
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
                shard.is_some().then_some(&mut self.local_cache),
                shard,
                |snapshot| P::fill_snapshot(domain, snapshot),
            );
        }
    }
}

// SAFETY: `thread_id` is unique per live handle (acquired from the registry,
// released on drop); `protect_raw` returns what `P::protect` returns, and by
// `Policy`'s contract the reservation it published keeps the block covered
// in every snapshot `cleanup` fills until the slot is overwritten or cleared.
// The handle is `!Sync` (its magazine and batch hold raw pointers) and hands
// out the one lease table made at registration.
unsafe impl<P: Policy> RawHandle for DomainHandle<P> {
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

    #[inline(always)]
    fn protect_raw(
        &mut self,
        src: &AtomicUsize,
        index: usize,
        parent: *mut BlockHeader,
        mask: usize,
    ) -> usize {
        // Checked under every scheme, also those that ignore the index: a
        // stray one is a caller bug and must fail the same way everywhere.
        debug_assert_slot_index(index, self.slots());
        P::protect(&self.domain, self.tid, src, index, parent, mask)
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::retire_raw`); the obligations are the caller's.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader) {
        let domain = &*self.domain;
        let era = domain.era();
        // SAFETY: the caller's `retire_raw` contract — `block` is a valid,
        // unreachable block retired exactly once — covers both the header
        // stamp and the batch push.
        unsafe {
            (*block).retire_era.store(era, Ordering::Release); // ORDER: stamps the header before the push that makes it scannable.
            self.retired.push(block);
        }
        domain.slot_counters(self.tid).on_retire();
        self.since_cleanup += 1;
        if self.since_cleanup >= domain.config.cleanup_freq {
            // Figure 1, lines 27-28 (Figure 4, lines 80-82): only advance the
            // clock if nothing else advanced it since this block was stamped,
            // then scan.
            // SAFETY: same contract — the header is valid for the whole call.
            if unsafe { (*block).retire_era() } == domain.era() {
                P::advance(domain, self.tid);
            }
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
        self.alloc_counter += 1;
        if self.alloc_counter % domain.config.era_freq == 0 {
            P::advance(domain, self.tid);
        }
        domain.era()
    }

    fn force_cleanup(&mut self) {
        P::advance(&self.domain, self.tid);
        self.cleanup();
    }

    fn block_caches(&mut self) -> (Option<&mut LocalBlockCache>, Option<&ShardCache>) {
        let shard = self.domain.caches.shard(self.cache_shard);
        (shard.is_some().then_some(&mut self.local_cache), shard)
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
        // Park the magazine's blocks on the home shard (freeing them when the
        // cache is off) so surviving threads can recycle them.
        self.local_cache
            .drain(self.domain.caches.shard(self.cache_shard));
        // Whatever the final pass could not free is parked on the orphan
        // stack; the next live thread's cleanup pass adopts it.
        self.domain.orphans.push(self.retired.take());
        self.domain.registry.release(self.tid);
    }
}
