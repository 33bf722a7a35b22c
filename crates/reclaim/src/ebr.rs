//! Epoch-Based Reclamation (EBR).
//!
//! The classic scheme descending from RCU and Fraser's epochs: a thread
//! publishes the global epoch when it starts an operation and withdraws the
//! reservation when it finishes; a retired block may be freed once every
//! *active* thread's published epoch is newer than the block's retirement
//! epoch. EBR has the lowest per-read overhead of all schemes (reads need no
//! per-pointer work at all), but a stalled or preempted thread pins every
//! block retired after it began its operation — memory usage is unbounded,
//! which is why the paper classifies it as blocking and why it cannot be used
//! under a wait-free data structure without forfeiting the guarantee.

use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use wfe_sync::EraSource;

use crate::api::{debug_assert_slot_index, Progress, RawHandle, Reclaimer, ReclaimerConfig};
use crate::block::{BlockHeader, ERA_INF};
use crate::cache::{BlockCaches, LocalBlockCache, ShardCache};
use crate::guard::ShieldSlots;
use crate::registry::ThreadRegistry;
use crate::retired::{OrphanStack, RetiredBatch};
use crate::scan::EpochSnapshot;
use crate::slots::SlotArray;
use crate::stats::{Counters, SmrStats};

/// The EBR domain.
pub struct Ebr {
    config: ReclaimerConfig,
    registry: ThreadRegistry,
    counters: Counters,
    orphans: OrphanStack,
    global_epoch: EraSource,
    /// One published epoch per thread; `ERA_INF` = quiescent.
    reservations: SlotArray,
    /// Per-shard size-class block caches (empty when disabled).
    caches: BlockCaches,
}

impl Ebr {
    /// Current value of the global epoch clock.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.global_epoch.load(Ordering::Acquire) // ORDER: epoch clock read; pairs with the AcqRel epoch advances.
    }

    /// The domain's epoch clock (injectable in model tests; see [`EraSource`]).
    pub fn era_source(&self) -> &EraSource {
        &self.global_epoch
    }

    /// Snapshots every published epoch once per cleanup pass: only the oldest
    /// active epoch matters, so the scratch is a single word. The walk goes
    /// shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`]).
    fn fill_snapshot(&self, snapshot: &mut EpochSnapshot) {
        snapshot.clear();
        for range in self.registry.occupied_ranges() {
            for thread in range {
                // ORDER: snapshot load; pairs with the Release epoch withdrawal (see scan.rs safety argument).
                snapshot.insert(self.reservations.get(thread, 0).load(Ordering::Acquire));
            }
        }
    }
}

impl Reclaimer for Ebr {
    type Handle = EbrHandle;

    fn with_config(config: ReclaimerConfig) -> Arc<Self> {
        let registry = config.build_registry();
        let caches = BlockCaches::new(&config.block_cache, registry.shard_count());
        Arc::new(Self {
            registry,
            caches,
            counters: Counters::new(),
            orphans: OrphanStack::new(),
            global_epoch: EraSource::new(1),
            reservations: SlotArray::new(config.max_threads, 1, ERA_INF),
            config,
        })
    }

    fn try_register(self: &Arc<Self>) -> Option<EbrHandle> {
        let tid = self.registry.try_acquire()?;
        Some(EbrHandle {
            shield_slots: ShieldSlots::new(self.config.slots_per_thread),
            cache_shard: self.registry.shard_of(tid),
            local_cache: LocalBlockCache::new(),
            domain: Arc::clone(self),
            tid,
            retired: RetiredBatch::new(),
            snapshot: EpochSnapshot::new(),
            since_cleanup: 0,
            alloc_counter: 0,
        })
    }

    fn name() -> &'static str {
        "EBR"
    }

    fn progress() -> Progress {
        Progress::Blocking
    }

    fn stats(&self) -> SmrStats {
        let mut stats = self.counters.snapshot(self.epoch());
        self.caches.merge_into(&mut stats);
        stats
    }

    fn config(&self) -> &ReclaimerConfig {
        &self.config
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }
}

impl Drop for Ebr {
    fn drop(&mut self) {
        // SAFETY: no handle can exist any more (handles hold an `Arc` to the
        // domain), so every orphaned block is unreachable and unprotected.
        unsafe {
            self.orphans.free_all();
        }
    }
}

impl core::fmt::Debug for Ebr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ebr")
            .field("epoch", &self.epoch())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Per-thread EBR handle.
///
/// Deliberately `!Sync`: the single-writer premise of the [`Shield`](crate::Shield)
/// lease table (`RawHandle`'s `# Safety`).
///
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<wfe_reclaim::ebr::EbrHandle>(); // ERROR: `EbrHandle` is not `Sync`
/// ```
pub struct EbrHandle {
    /// Lease table for this handle's [`Shield`](crate::Shield)s. EBR ignores
    /// the indices, but leases keep data structures scheme-generic.
    shield_slots: Arc<ShieldSlots>,
    /// Home registry shard, fixed at registration (indexes the block caches).
    cache_shard: usize,
    /// Private block-cache magazine fronting the home shard's freelists.
    local_cache: LocalBlockCache,
    domain: Arc<Ebr>,
    tid: usize,
    retired: RetiredBatch,
    /// Reusable reservation snapshot (the batch scan scratch).
    snapshot: EpochSnapshot,
    /// Retirements since the last cleanup pass.
    since_cleanup: usize,
    alloc_counter: usize,
}

impl EbrHandle {
    /// One cleanup pass of the batch scan protocol
    /// ([`crate::retired::cleanup_pass`]).
    fn cleanup(&mut self) {
        self.since_cleanup = 0;
        let domain = &self.domain;
        let shard = domain.caches.shard(self.cache_shard);
        // SAFETY: `fill_snapshot` reads the reservation tables inside
        // `cleanup_pass`, i.e. after the orphan pop and after every block on the
        // batch was retired — the snapshot-freshness contract.
        unsafe {
            crate::retired::cleanup_pass(
                &mut self.retired,
                &domain.orphans,
                &domain.counters,
                &mut self.snapshot,
                shard.is_some().then_some(&mut self.local_cache),
                shard,
                |snapshot| domain.fill_snapshot(snapshot),
            );
        }
    }
}

// SAFETY: `protect_raw` publishes the scheme's reservation before returning,
// so the returned pointer stays valid until the slot is overwritten or
// cleared — the `RawHandle` validity contract.
unsafe impl RawHandle for EbrHandle {
    fn thread_id(&self) -> usize {
        self.tid
    }

    fn slots(&self) -> usize {
        // EBR protects everything read inside the operation bracket, so the
        // per-pointer index space is irrelevant; report the configured value
        // so data structures can use indices uniformly.
        self.domain.config.slots_per_thread
    }

    fn shield_slots(&self) -> &Arc<ShieldSlots> {
        &self.shield_slots
    }

    fn begin_op(&mut self) {
        let epoch = self.domain.epoch();
        self.domain
            .reservations
            .get(self.tid, 0)
            .store(epoch, Ordering::SeqCst);
    }

    fn end_op(&mut self) {
        self.domain
            .reservations
            .get(self.tid, 0)
            .store(ERA_INF, Ordering::Release); // ORDER: withdraws the epoch; pairs with the snapshot's Acquire loads.
    }

    fn protect_raw(
        &mut self,
        src: &AtomicUsize,
        index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        // The index is unused (protection comes from the epoch published in
        // `begin_op`), but a stray one is still a caller bug: check it
        // uniformly so misuse fails the same way under every scheme.
        debug_assert_slot_index(index, self.slots());
        src.load(Ordering::Acquire) // ORDER: pairs with the Release publish of the pointer being protected.
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::retire_raw`); the obligations are the caller's.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader) {
        let epoch = self.domain.epoch();
        // SAFETY: the caller's `retire_raw` contract — `block` is a valid,
        // unreachable block retired exactly once — covers both the header
        // stamp and the batch push.
        unsafe {
            (*block).retire_era.store(epoch, Ordering::Release); // ORDER: stamps the header before the push that makes it scannable.
            self.retired.push(block);
        }
        self.domain.counters.on_retire();
        self.since_cleanup += 1;
        if self.since_cleanup >= self.domain.config.cleanup_freq {
            // SAFETY: same contract — the header is valid for the whole call.
            if unsafe { (*block).retire_era() } == self.domain.epoch() {
                self.domain.global_epoch.advance(Ordering::AcqRel); // ORDER: epoch advance; orders the clock with the retires it brackets.
            }
            self.cleanup();
        }
    }

    fn clear(&mut self) {
        // Within an operation the epoch reservation must stay put; dropping
        // protection happens in `end_op`.
    }

    fn pre_alloc(&mut self) -> u64 {
        self.domain.counters.on_alloc();
        self.alloc_counter += 1;
        if self.alloc_counter % self.domain.config.era_freq == 0 {
            self.domain.global_epoch.advance(Ordering::AcqRel); // ORDER: epoch advance; orders the clock with the allocations it brackets.
        }
        self.domain.epoch()
    }

    fn force_cleanup(&mut self) {
        self.domain.global_epoch.advance(Ordering::AcqRel); // ORDER: epoch advance; orders the clock with the forced cleanup that follows.
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

impl Drop for EbrHandle {
    fn drop(&mut self) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance;

    #[test]
    fn naming_and_progress() {
        assert_eq!(Ebr::name(), "EBR");
        assert_eq!(Ebr::progress(), Progress::Blocking);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Ebr>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<Ebr>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Ebr>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Ebr>(4, 2_000);
    }

    #[test]
    fn stalled_reader_costs_passes_nothing() {
        conformance::stalled_reader_costs_passes_nothing::<Ebr>();
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Ebr>(true);
    }

    #[test]
    fn stalled_reader_pins_memory() {
        // The defining weakness of EBR: a thread inside an operation bracket
        // prevents every later retirement from being freed.
        use crate::Handle;
        let domain = Ebr::with_config(ReclaimerConfig {
            cleanup_freq: 1,
            era_freq: 1,
            ..ReclaimerConfig::with_max_threads(2)
        });
        let mut stalled = domain.register();
        let mut worker = domain.register();
        stalled.begin_op(); // ... and never ends its operation.
        for _ in 0..100 {
            let ptr = worker.alloc(0u64);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { worker.retire(ptr) };
        }
        worker.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            100,
            "nothing can be freed while a reader is stalled"
        );
        stalled.end_op();
        worker.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            0,
            "everything freed once the reader leaves"
        );
    }
}
