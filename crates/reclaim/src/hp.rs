//! Hazard Pointers (Michael, 2004).
//!
//! Each thread owns a small set of *hazard slots*; before dereferencing a
//! shared pointer it publishes the pointer in a slot and re-reads the source
//! to validate that the pointer is still reachable. A retired block may be
//! freed once its address appears in no slot. Memory usage is tightly bounded
//! (at most `max_threads × slots` blocks can be pinned), but every traversal
//! step pays a store + fence + re-read, which is why HP is the slowest scheme
//! in most of the paper's figures.

use std::sync::Arc;
use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use wfe_atomics::CachePadded;

use crate::api::{debug_assert_slot_index, Progress, RawHandle, Reclaimer, ReclaimerConfig};
use crate::block::BlockHeader;
use crate::cache::{BlockCaches, LocalBlockCache, ShardCache};
use crate::guard::ShieldSlots;
use crate::registry::ThreadRegistry;
use crate::retired::{OrphanStack, RetiredBatch};
use crate::scan::HazardSnapshot;
use crate::slots::PtrSlotArray;
use crate::stats::{Counters, SmrStats};

/// The Hazard Pointers domain.
pub struct Hp {
    config: ReclaimerConfig,
    registry: ThreadRegistry,
    counters: Counters,
    orphans: OrphanStack,
    /// `max_threads × slots_per_thread` published addresses (0 = none).
    hazards: PtrSlotArray,
    /// Not used for safety — only reported in stats for uniformity.
    op_clock: CachePadded<AtomicU64>,
    /// Per-shard size-class block caches (empty when disabled).
    caches: BlockCaches,
}

impl Hp {
    /// Snapshots the current hazard set once per cleanup pass, sorted so the
    /// per-block membership test is one binary search. The walk goes
    /// shard-by-shard and skips wholly-idle shards (see
    /// [`ThreadRegistry::occupied_ranges`]).
    fn fill_snapshot(&self, snapshot: &mut HazardSnapshot) {
        snapshot.clear();
        for range in self.registry.occupied_ranges() {
            for thread in range {
                for slot in 0..self.hazards.slots() {
                    // ORDER: snapshot load; pairs with the Release hazard clear (see scan.rs safety argument).
                    snapshot.insert(self.hazards.get(thread, slot).load(Ordering::Acquire));
                }
            }
        }
        snapshot.seal();
    }
}

impl Reclaimer for Hp {
    type Handle = HpHandle;

    fn with_config(config: ReclaimerConfig) -> Arc<Self> {
        let registry = config.build_registry();
        let caches = BlockCaches::new(&config.block_cache, registry.shard_count());
        Arc::new(Self {
            registry,
            caches,
            counters: Counters::new(),
            orphans: OrphanStack::new(),
            hazards: PtrSlotArray::new(config.max_threads, config.slots_per_thread),
            op_clock: CachePadded::new(AtomicU64::new(0)),
            config,
        })
    }

    fn try_register(self: &Arc<Self>) -> Option<HpHandle> {
        let tid = self.registry.try_acquire()?;
        Some(HpHandle {
            shield_slots: ShieldSlots::new(self.config.slots_per_thread),
            cache_shard: self.registry.shard_of(tid),
            local_cache: LocalBlockCache::new(),
            domain: Arc::clone(self),
            tid,
            retired: RetiredBatch::new(),
            snapshot: HazardSnapshot::new(),
            since_cleanup: 0,
        })
    }

    fn name() -> &'static str {
        "HP"
    }

    fn progress() -> Progress {
        Progress::LockFree
    }

    fn stats(&self) -> SmrStats {
        let mut stats = self
            .counters
            .snapshot(self.op_clock.load(Ordering::Relaxed)); // ORDER: advisory op clock for stats only.
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

impl Drop for Hp {
    fn drop(&mut self) {
        // SAFETY: no handle can exist any more (handles hold an `Arc` to the
        // domain), so every orphaned block is unreachable and unprotected.
        unsafe {
            self.orphans.free_all();
        }
    }
}

impl core::fmt::Debug for Hp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Hp").field("stats", &self.stats()).finish()
    }
}

/// Per-thread Hazard Pointers handle.
///
/// Deliberately `!Sync`: the single-writer premise of the [`Shield`](crate::Shield)
/// lease table (`RawHandle`'s `# Safety`).
///
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<wfe_reclaim::hp::HpHandle>(); // ERROR: `HpHandle` is not `Sync`
/// ```
pub struct HpHandle {
    /// Lease table for this handle's [`Shield`](crate::Shield)s.
    shield_slots: Arc<ShieldSlots>,
    /// Home registry shard, fixed at registration (indexes the block caches).
    cache_shard: usize,
    /// Private block-cache magazine fronting the home shard's freelists.
    local_cache: LocalBlockCache,
    domain: Arc<Hp>,
    tid: usize,
    retired: RetiredBatch,
    /// Reusable hazard snapshot (the batch scan scratch).
    snapshot: HazardSnapshot,
    /// Retirements since the last cleanup pass.
    since_cleanup: usize,
}

impl HpHandle {
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
unsafe impl RawHandle for HpHandle {
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
        mask: usize,
    ) -> usize {
        debug_assert_slot_index(index, self.slots());
        let slot = self.domain.hazards.get(self.tid, index);
        let mut value = src.load(Ordering::Acquire); // ORDER: first read is optimistic; the SeqCst publish + re-read below validate it.
        loop {
            // Publish the (untagged) address, then validate that the source
            // still holds the same value: if it does, the block cannot have
            // been retired-and-scanned before our publication became visible.
            slot.store(value & mask, Ordering::SeqCst);
            let again = src.load(Ordering::Acquire); // ORDER: re-validation read; pairs with the Release publish of the pointer.
            if again == value {
                return value;
            }
            value = again;
        }
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::retire_raw`); the obligations are the caller's.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader) {
        // SAFETY: the caller's `retire_raw` contract — `block` is a valid,
        // unreachable block retired exactly once — covers both the header
        // stamp and the batch push.
        unsafe {
            (*block).retire_era.store(0, Ordering::Relaxed); // ORDER: HP ignores eras; the stamp is never read for ordering.
            self.retired.push(block);
        }
        self.domain.counters.on_retire();
        self.domain.op_clock.fetch_add(1, Ordering::Relaxed); // ORDER: advisory op clock for stats only.
        self.since_cleanup += 1;
        if self.since_cleanup >= self.domain.config.cleanup_freq {
            self.cleanup();
        }
    }

    fn clear(&mut self) {
        self.domain.hazards.fill_row(self.tid, 0, Ordering::Release); // ORDER: withdraws the hazards; pairs with the snapshot's Acquire loads.
    }

    fn pre_alloc(&mut self) -> u64 {
        self.domain.counters.on_alloc();
        0
    }

    fn force_cleanup(&mut self) {
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

impl Drop for HpHandle {
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
    use crate::{Atomic, Handle};

    #[test]
    fn naming_and_progress() {
        assert_eq!(Hp::name(), "HP");
        assert_eq!(Hp::progress(), Progress::LockFree);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Hp>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<Hp>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Hp>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Hp>(4, 2_000);
    }

    #[test]
    fn unreclaimed_is_bounded() {
        conformance::unreclaimed_is_bounded::<Hp>(2_000);
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Hp>(true);
    }

    #[test]
    fn hazard_protects_exact_address_not_tag() {
        // Protecting a tagged pointer must publish the *untagged* address,
        // otherwise the scan would not recognise the block as protected.
        let domain = Hp::with_config(ReclaimerConfig::with_max_threads(2));
        let mut owner = domain.register();
        let mut other = domain.register();

        let node = owner.alloc(7u64);
        let tagged = crate::ptr::tag::with_tag(node, 1);
        let root: Atomic<u64> = Atomic::new(tagged);

        let seen = other.protect(&root, 0, core::ptr::null_mut());
        assert_eq!(seen, tagged, "raw tagged value is returned");

        // Retire from the owner; the other thread's hazard must keep it alive.
        root.store(core::ptr::null_mut(), Ordering::SeqCst);
        // SAFETY: `node` was just unlinked from `root`; retired exactly once.
        unsafe { owner.retire(node) };
        owner.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            1,
            "hazard pointer pins the block"
        );

        other.clear();
        owner.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
    }
}
