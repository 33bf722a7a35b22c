//! The "Leak Memory" baseline: no reclamation at all.
//!
//! The paper's throughput plots include a scheme that simply never frees
//! retired blocks. It provides an upper bound on attainable throughput
//! (no reclamation overhead whatsoever) at the cost of unbounded memory.
//!
//! To keep the test suite leak-free, retired blocks are parked on the domain
//! (a dropping handle pushes its batch onto the orphan stack) and freed when
//! the domain itself is dropped; during the measured run this behaves exactly
//! like leaking — live threads never run a cleanup pass, so they never adopt.

use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{debug_assert_slot_index, Progress, RawHandle, Reclaimer, ReclaimerConfig};
use crate::block::BlockHeader;
use crate::guard::ShieldSlots;
use crate::registry::ThreadRegistry;
use crate::retired::{OrphanStack, RetiredBatch};
use crate::stats::{Counters, SmrStats};

/// The leak-memory domain.
pub struct Leak {
    config: ReclaimerConfig,
    registry: ThreadRegistry,
    counters: Counters,
    orphans: OrphanStack,
}

impl Reclaimer for Leak {
    type Handle = LeakHandle;

    fn with_config(config: ReclaimerConfig) -> Arc<Self> {
        Arc::new(Self {
            registry: config.build_registry(),
            counters: Counters::new(),
            orphans: OrphanStack::new(),
            config,
        })
    }

    fn try_register(self: &Arc<Self>) -> Option<LeakHandle> {
        let tid = self.registry.try_acquire()?;
        Some(LeakHandle {
            shield_slots: ShieldSlots::new(self.config.slots_per_thread),
            domain: Arc::clone(self),
            tid,
            retired: RetiredBatch::new(),
        })
    }

    fn name() -> &'static str {
        "Leak"
    }

    fn progress() -> Progress {
        Progress::None
    }

    fn stats(&self) -> SmrStats {
        self.counters.snapshot(0)
    }

    fn config(&self) -> &ReclaimerConfig {
        &self.config
    }

    fn registry(&self) -> &ThreadRegistry {
        &self.registry
    }
}

impl Drop for Leak {
    fn drop(&mut self) {
        // SAFETY: no handle can exist any more, and Leak never frees while running,
        // so every parked block is unreachable; domain drop is the one free point.
        unsafe {
            self.orphans.free_all();
        }
    }
}

impl core::fmt::Debug for Leak {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Leak")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Per-thread leak-memory handle.
///
/// Deliberately `!Sync`: the single-writer premise of the [`Shield`](crate::Shield)
/// lease table (`RawHandle`'s `# Safety`).
///
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<wfe_reclaim::leak::LeakHandle>(); // ERROR: `LeakHandle` is not `Sync`
/// ```
pub struct LeakHandle {
    /// Lease table for this handle's [`Shield`](crate::Shield)s. Leak never
    /// reclaims, but leases keep data structures scheme-generic.
    shield_slots: Arc<ShieldSlots>,
    domain: Arc<Leak>,
    tid: usize,
    retired: RetiredBatch,
}

// SAFETY: nothing is ever freed while the domain lives, so every pointer
// trivially satisfies the `RawHandle` validity contract.
unsafe impl RawHandle for LeakHandle {
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

    fn end_op(&mut self) {}

    fn protect_raw(
        &mut self,
        src: &AtomicUsize,
        index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        // Nothing is ever reclaimed, so no reservation is needed — but a
        // stray index is still a caller bug: check it uniformly.
        debug_assert_slot_index(index, self.slots());
        src.load(Ordering::Acquire) // ORDER: pairs with the Release publish of the pointer being protected.
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::retire_raw`); the obligations are the caller's.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader) {
        // SAFETY: forwarded `retire_raw` contract — `block` is valid,
        // unreachable and retired exactly once.
        unsafe { self.retired.push(block) };
        self.domain.counters.on_retire();
    }

    fn clear(&mut self) {}

    fn pre_alloc(&mut self) -> u64 {
        self.domain.counters.on_alloc();
        0
    }

    fn force_cleanup(&mut self) {
        // Leaking means never cleaning up.
    }
}

impl Drop for LeakHandle {
    fn drop(&mut self) {
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
        assert_eq!(Leak::name(), "Leak");
        assert_eq!(Leak::progress(), Progress::None);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Leak>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Leak>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Leak>(4, 2_000);
    }

    #[test]
    fn orphans_wait_for_domain_drop() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Leak>(false);
    }

    #[test]
    fn nothing_is_ever_freed_while_running() {
        let domain = Leak::with_config(ReclaimerConfig::with_max_threads(1));
        let mut handle = domain.register();
        for _ in 0..50 {
            let ptr = handle.alloc(0u64);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { handle.retire(ptr) };
        }
        handle.force_cleanup();
        let stats = domain.stats();
        assert_eq!(stats.retired, 50);
        assert_eq!(stats.freed, 0);
        assert_eq!(stats.unreclaimed, 50);
    }
}
