//! Hazard Eras (Figure 1 of the paper).
//!
//! Hazard Eras [Ramalhete & Correia, SPAA'17] merges epoch-based reclamation
//! with Hazard Pointers: instead of publishing the *pointer* it is about to
//! dereference, a thread publishes the current value of a global era clock in
//! one of its reservation slots. A retired block may be freed once no
//! published era falls inside its `[alloc_era, retire_era]` lifespan.
//!
//! Every operation except `get_protected()` is wait-free (given wait-free
//! fetch-and-add); `get_protected()` is only lock-free because its loop keeps
//! retrying while other threads advance the era clock — this is exactly the
//! loop WFE (in the `wfe-core` crate) makes wait-free.

use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use wfe_sync::EraSource;

use crate::api::{debug_assert_slot_index, Progress, RawHandle, Reclaimer, ReclaimerConfig};
use crate::block::{BlockHeader, ERA_INF};
use crate::cache::{BlockCaches, LocalBlockCache, ShardCache};
use crate::guard::ShieldSlots;
use crate::registry::ThreadRegistry;
use crate::retired::{OrphanStack, RetiredBatch};
use crate::scan::EraSnapshot;
use crate::slots::SlotArray;
use crate::stats::{Counters, SmrStats};

/// The Hazard Eras domain.
pub struct He {
    config: ReclaimerConfig,
    registry: ThreadRegistry,
    counters: Counters,
    orphans: OrphanStack,
    global_era: EraSource,
    /// `max_threads × slots_per_thread` published eras (`ERA_INF` = none).
    reservations: SlotArray,
    /// Per-shard size-class block caches (empty when disabled).
    caches: BlockCaches,
}

impl He {
    /// Current value of the global era clock.
    #[inline]
    pub fn era(&self) -> u64 {
        self.global_era.load(Ordering::Acquire) // ORDER: era clock read; pairs with the AcqRel era advances.
    }

    /// The domain's era clock. Exposed so deterministic model tests can pin
    /// or bump the clock mid-schedule; production code never writes through
    /// this (it only ever advances the clock via retirement).
    pub fn era_source(&self) -> &EraSource {
        &self.global_era
    }

    #[inline]
    fn advance_era(&self) {
        self.global_era.advance(Ordering::AcqRel); // ORDER: era advance; orders the clock with the operations it brackets.
    }

    /// Snapshots every published era once per cleanup pass, sorted so the
    /// Figure-1 `can_delete` lifespan test becomes one binary search per
    /// block instead of a full reservation-table walk. The walk goes
    /// shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`]).
    fn fill_snapshot(&self, snapshot: &mut EraSnapshot) {
        snapshot.clear();
        for range in self.registry.occupied_ranges() {
            for thread in range {
                for slot in 0..self.reservations.slots() {
                    // ORDER: snapshot load; pairs with the Release era withdrawal (see scan.rs safety argument).
                    snapshot.insert(self.reservations.get(thread, slot).load(Ordering::Acquire));
                }
            }
        }
        snapshot.seal();
    }
}

impl Reclaimer for He {
    type Handle = HeHandle;

    fn with_config(config: ReclaimerConfig) -> Arc<Self> {
        let registry = config.build_registry();
        let caches = BlockCaches::new(&config.block_cache, registry.shard_count());
        Arc::new(Self {
            registry,
            caches,
            counters: Counters::new(),
            orphans: OrphanStack::new(),
            global_era: EraSource::new(1),
            reservations: SlotArray::new(config.max_threads, config.slots_per_thread, ERA_INF),
            config,
        })
    }

    fn try_register(self: &Arc<Self>) -> Option<HeHandle> {
        let tid = self.registry.try_acquire()?;
        Some(HeHandle {
            shield_slots: ShieldSlots::new(self.config.slots_per_thread),
            cache_shard: self.registry.shard_of(tid),
            local_cache: LocalBlockCache::new(),
            domain: Arc::clone(self),
            tid,
            retired: RetiredBatch::new(),
            snapshot: EraSnapshot::new(),
            since_cleanup: 0,
            alloc_counter: 0,
        })
    }

    fn name() -> &'static str {
        "HE"
    }

    fn progress() -> Progress {
        Progress::LockFree
    }

    fn stats(&self) -> SmrStats {
        let mut stats = self.counters.snapshot(self.era());
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

impl Drop for He {
    fn drop(&mut self) {
        // No handle can exist any more (handles hold an Arc), so every
        // orphaned block is unreachable and unprotected.
        // SAFETY: no handle can exist any more (handles hold an `Arc` to the
        // domain), so every orphaned block is unreachable and unprotected.
        unsafe {
            self.orphans.free_all();
        }
    }
}

impl core::fmt::Debug for He {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("He")
            .field("era", &self.era())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Per-thread Hazard Eras handle.
///
/// Deliberately `!Sync`: the single-writer premise of the [`Shield`](crate::Shield)
/// lease table (`RawHandle`'s `# Safety`).
///
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<wfe_reclaim::he::HeHandle>(); // ERROR: `HeHandle` is not `Sync`
/// ```
pub struct HeHandle {
    /// Lease table for this handle's [`Shield`](crate::Shield)s.
    shield_slots: Arc<ShieldSlots>,
    /// Home registry shard, fixed at registration (indexes the block caches).
    cache_shard: usize,
    /// Private block-cache magazine fronting the home shard's freelists.
    local_cache: LocalBlockCache,
    domain: Arc<He>,
    tid: usize,
    retired: RetiredBatch,
    /// Reusable era snapshot (the batch scan scratch).
    snapshot: EraSnapshot,
    /// Retirements since the last cleanup pass.
    since_cleanup: usize,
    alloc_counter: usize,
}

impl HeHandle {
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
unsafe impl RawHandle for HeHandle {
    fn thread_id(&self) -> usize {
        self.tid
    }

    fn slots(&self) -> usize {
        self.domain.config.slots_per_thread
    }

    fn shield_slots(&self) -> &Arc<ShieldSlots> {
        &self.shield_slots
    }

    fn begin_op(&mut self) {}

    fn end_op(&mut self) {
        self.clear();
    }

    fn protect_raw(
        &mut self,
        src: &AtomicUsize,
        index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        debug_assert_slot_index(index, self.slots());
        let reservation = self.domain.reservations.get(self.tid, index);
        let mut prev_era = reservation.load(Ordering::Relaxed); // ORDER: own slot re-read; the publish that matters is the SeqCst store in the loop.
        loop {
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = self.domain.era();
            if prev_era == new_era {
                return value;
            }
            // Publishing the era must become visible to era-advancing threads
            // before we re-read the source pointer, hence SeqCst (the paper's
            // pseudo-code assumes sequential consistency here).
            reservation.store(new_era, Ordering::SeqCst);
            prev_era = new_era;
        }
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::retire_raw`); the obligations are the caller's.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader) {
        let era = self.domain.era();
        // SAFETY: the caller's `retire_raw` contract — `block` is a valid,
        // unreachable block retired exactly once — covers both the header
        // stamp and the batch push.
        unsafe {
            (*block).retire_era.store(era, Ordering::Release); // ORDER: stamps the header before the push that makes it scannable.
            self.retired.push(block);
        }
        self.domain.counters.on_retire();
        self.since_cleanup += 1;
        if self.since_cleanup >= self.domain.config.cleanup_freq {
            // Figure 1, lines 27-28: only advance the clock if nothing else
            // advanced it since this block was stamped, then scan.
            // SAFETY: same contract — the header is valid for the whole call.
            if unsafe { (*block).retire_era() } == self.domain.era() {
                self.domain.advance_era();
            }
            self.cleanup();
        }
    }

    fn clear(&mut self) {
        self.domain
            .reservations
            .fill_row(self.tid, ERA_INF, Ordering::Release); // ORDER: withdraws the eras; pairs with the snapshot's Acquire loads.
    }

    fn pre_alloc(&mut self) -> u64 {
        self.domain.counters.on_alloc();
        self.alloc_counter += 1;
        if self.alloc_counter % self.domain.config.era_freq == 0 {
            self.domain.advance_era();
        }
        self.domain.era()
    }

    fn force_cleanup(&mut self) {
        self.domain.advance_era();
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

impl Drop for HeHandle {
    fn drop(&mut self) {
        self.clear();
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
        assert_eq!(He::name(), "HE");
        assert_eq!(He::progress(), Progress::LockFree);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<He>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<He>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<He>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<He>(4, 2_000);
    }

    #[test]
    fn unreclaimed_is_bounded() {
        conformance::unreclaimed_is_bounded::<He>(4_000);
    }

    #[test]
    fn stalled_reader_costs_passes_nothing() {
        conformance::stalled_reader_costs_passes_nothing::<He>();
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<He>(true);
    }

    #[test]
    fn era_advances_with_allocations() {
        let domain = He::with_config(ReclaimerConfig {
            era_freq: 10,
            ..ReclaimerConfig::with_max_threads(2)
        });
        let mut handle = domain.register();
        let before = domain.era();
        for _ in 0..100 {
            let ptr = crate::Handle::alloc(&mut handle, 0u64);
            // SAFETY: the block was never published and never retired; freed once.
            unsafe { crate::Linked::dealloc(ptr) };
        }
        assert!(
            domain.era() >= before + 9,
            "era clock advanced by era_freq steps"
        );
    }
}
