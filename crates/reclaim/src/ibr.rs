//! Interval-Based Reclamation, 2GE variant (Wen et al., PPoPP'18).
//!
//! 2GEIBR ("two global epochs") keeps one `[lower, upper]` era interval per
//! thread instead of one era per protected pointer. `begin_op` seeds both
//! bounds with the current era; every hazardous read bumps `upper` to the era
//! observed while reading. A retired block may be freed when its
//! `[alloc_era, retire_era]` lifespan overlaps no thread's interval.
//!
//! Compared with Hazard Eras, IBR needs no per-pointer index, but a single
//! long-running operation widens its interval without bound, so a stalled
//! thread can pin arbitrarily many blocks (the paper keeps HE as its base for
//! exactly this reason). The paper notes WFE's helping idea applies to 2GEIBR
//! as well; the wait-free extension in this repository targets HE.

use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use wfe_sync::EraSource;

use crate::api::{debug_assert_slot_index, Progress, RawHandle, Reclaimer, ReclaimerConfig};
use crate::block::{BlockHeader, ERA_INF};
use crate::cache::{BlockCaches, LocalBlockCache, ShardCache};
use crate::guard::ShieldSlots;
use crate::registry::ThreadRegistry;
use crate::retired::{OrphanStack, RetiredBatch};
use crate::scan::IntervalSnapshot;
use crate::slots::SlotArray;
use crate::stats::{Counters, SmrStats};

const LOWER: usize = 0;
const UPPER: usize = 1;

/// The 2GEIBR domain.
pub struct Ibr2Ge {
    config: ReclaimerConfig,
    registry: ThreadRegistry,
    counters: Counters,
    orphans: OrphanStack,
    global_era: EraSource,
    /// `max_threads × 2`: per-thread `[lower, upper]` interval (`ERA_INF` = idle).
    reservations: SlotArray,
    /// Per-shard size-class block caches (empty when disabled).
    caches: BlockCaches,
}

impl Ibr2Ge {
    /// Current value of the global era clock.
    #[inline]
    pub fn era(&self) -> u64 {
        self.global_era.load(Ordering::Acquire) // ORDER: era clock read; pairs with the AcqRel era advances.
    }

    /// The domain's era clock (injectable in model tests; see [`EraSource`]).
    pub fn era_source(&self) -> &EraSource {
        &self.global_era
    }

    /// Snapshots every active `[lower, upper]` interval once per cleanup
    /// pass; the per-block overlap test then runs without atomic loads. The
    /// walk goes shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`]).
    fn fill_snapshot(&self, snapshot: &mut IntervalSnapshot) {
        snapshot.clear();
        for range in self.registry.occupied_ranges() {
            for thread in range {
                let lower = self.reservations.get(thread, LOWER).load(Ordering::Acquire); // ORDER: snapshot load; pairs with the Release interval withdrawal (see scan.rs safety argument).
                if lower == ERA_INF {
                    continue;
                }
                let upper = self.reservations.get(thread, UPPER).load(Ordering::Acquire); // ORDER: snapshot load; pairs with the Release interval withdrawal.
                snapshot.insert(lower, upper);
            }
        }
    }
}

impl Reclaimer for Ibr2Ge {
    type Handle = IbrHandle;

    fn with_config(config: ReclaimerConfig) -> Arc<Self> {
        let registry = config.build_registry();
        let caches = BlockCaches::new(&config.block_cache, registry.shard_count());
        Arc::new(Self {
            registry,
            caches,
            counters: Counters::new(),
            orphans: OrphanStack::new(),
            global_era: EraSource::new(1),
            reservations: SlotArray::new(config.max_threads, 2, ERA_INF),
            config,
        })
    }

    fn try_register(self: &Arc<Self>) -> Option<IbrHandle> {
        let tid = self.registry.try_acquire()?;
        Some(IbrHandle {
            shield_slots: ShieldSlots::new(self.config.slots_per_thread),
            cache_shard: self.registry.shard_of(tid),
            local_cache: LocalBlockCache::new(),
            domain: Arc::clone(self),
            tid,
            retired: RetiredBatch::new(),
            snapshot: IntervalSnapshot::new(),
            since_cleanup: 0,
            alloc_counter: 0,
        })
    }

    fn name() -> &'static str {
        "2GEIBR"
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

impl Drop for Ibr2Ge {
    fn drop(&mut self) {
        // SAFETY: no handle can exist any more (handles hold an `Arc` to the
        // domain), so every orphaned block is unreachable and unprotected.
        unsafe {
            self.orphans.free_all();
        }
    }
}

impl core::fmt::Debug for Ibr2Ge {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Ibr2Ge")
            .field("era", &self.era())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Per-thread 2GEIBR handle.
///
/// Deliberately `!Sync`: the single-writer premise of the [`Shield`](crate::Shield)
/// lease table (`RawHandle`'s `# Safety`).
///
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<wfe_reclaim::ibr::IbrHandle>(); // ERROR: `IbrHandle` is not `Sync`
/// ```
pub struct IbrHandle {
    /// Lease table for this handle's [`Shield`](crate::Shield)s. 2GEIBR
    /// ignores the indices, but leases keep data structures scheme-generic.
    shield_slots: Arc<ShieldSlots>,
    /// Home registry shard, fixed at registration (indexes the block caches).
    cache_shard: usize,
    /// Private block-cache magazine fronting the home shard's freelists.
    local_cache: LocalBlockCache,
    domain: Arc<Ibr2Ge>,
    tid: usize,
    retired: RetiredBatch,
    /// Reusable interval snapshot (the batch scan scratch).
    snapshot: IntervalSnapshot,
    /// Retirements since the last cleanup pass.
    since_cleanup: usize,
    alloc_counter: usize,
}

impl IbrHandle {
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
unsafe impl RawHandle for IbrHandle {
    fn thread_id(&self) -> usize {
        self.tid
    }

    fn slots(&self) -> usize {
        self.domain.config.slots_per_thread
    }

    fn shield_slots(&self) -> &Arc<ShieldSlots> {
        &self.shield_slots
    }

    fn begin_op(&mut self) {
        let era = self.domain.era();
        let res = &self.domain.reservations;
        // Seed the interval with the current era; `lower` is published last so
        // a scanner never observes an active interval with a stale upper bound.
        res.get(self.tid, UPPER).store(era, Ordering::SeqCst);
        res.get(self.tid, LOWER).store(era, Ordering::SeqCst);
    }

    fn end_op(&mut self) {
        let res = &self.domain.reservations;
        res.get(self.tid, LOWER).store(ERA_INF, Ordering::Release); // ORDER: withdraws the interval; pairs with the snapshot's Acquire loads.
        res.get(self.tid, UPPER).store(ERA_INF, Ordering::Release); // ORDER: withdraws the interval; pairs with the snapshot's Acquire loads.
    }

    fn protect_raw(
        &mut self,
        src: &AtomicUsize,
        index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        // The index is unused (the interval lives in the fixed LOWER/UPPER
        // cells), but a stray one is still a caller bug: check it uniformly.
        debug_assert_slot_index(index, self.slots());
        let upper = self.domain.reservations.get(self.tid, UPPER);
        let mut prev_era = upper.load(Ordering::Relaxed); // ORDER: own slot re-read; the publish that matters is the SeqCst store below.
        loop {
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = self.domain.era();
            if prev_era == new_era {
                return value;
            }
            upper.store(new_era, Ordering::SeqCst);
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
            // SAFETY: same contract — the header is valid for the whole call.
            if unsafe { (*block).retire_era() } == self.domain.era() {
                self.domain.global_era.advance(Ordering::AcqRel); // ORDER: era advance; orders the clock with the retires it brackets.
            }
            self.cleanup();
        }
    }

    fn clear(&mut self) {
        // Protection is interval-based; dropping it happens in `end_op`.
    }

    fn pre_alloc(&mut self) -> u64 {
        self.domain.counters.on_alloc();
        self.alloc_counter += 1;
        if self.alloc_counter % self.domain.config.era_freq == 0 {
            self.domain.global_era.advance(Ordering::AcqRel); // ORDER: era advance; orders the clock with the allocations it brackets.
        }
        self.domain.era()
    }

    fn force_cleanup(&mut self) {
        self.domain.global_era.advance(Ordering::AcqRel); // ORDER: era advance; orders the clock with the forced cleanup that follows.
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

impl Drop for IbrHandle {
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
    use crate::Handle;

    #[test]
    fn naming_and_progress() {
        assert_eq!(Ibr2Ge::name(), "2GEIBR");
        assert_eq!(Ibr2Ge::progress(), Progress::LockFree);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Ibr2Ge>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<Ibr2Ge>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Ibr2Ge>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Ibr2Ge>(4, 2_000);
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Ibr2Ge>(true);
    }

    #[test]
    fn interval_only_pins_overlapping_lifespans() {
        let domain = Ibr2Ge::with_config(ReclaimerConfig {
            cleanup_freq: 1,
            era_freq: 1,
            ..ReclaimerConfig::with_max_threads(2)
        });
        let mut reader = domain.register();
        let mut writer = domain.register();

        // Blocks allocated and retired strictly before the reader's interval
        // begins can always be reclaimed.
        for _ in 0..10 {
            let ptr = writer.alloc(1u64);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { writer.retire(ptr) };
        }
        writer.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);

        // A block allocated *before* the reader's interval starts but retired
        // *after* overlaps the interval and stays pinned.
        let pinned = writer.alloc(2u64);
        reader.begin_op();
        // SAFETY: `pinned` was never published; retired exactly once.
        unsafe { writer.retire(pinned) };
        writer.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            1,
            "the overlapping block is pinned"
        );

        // A block allocated *after* the interval began is invisible to the
        // reader (it never protected it), so IBR may reclaim it right away.
        let fresh = writer.alloc(3u64);
        // SAFETY: `fresh` was never published; retired exactly once.
        unsafe { writer.retire(fresh) };
        writer.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            1,
            "the non-overlapping block is reclaimed immediately"
        );

        reader.end_op();
        writer.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
    }
}
