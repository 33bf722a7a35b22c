//! The "Leak Memory" baseline: no reclamation at all.
//!
//! The paper's throughput plots include a scheme that simply never frees
//! retired blocks. It provides an upper bound on attainable throughput
//! (no reclamation overhead whatsoever) at the cost of unbounded memory.
//!
//! To keep the test suite leak-free, retired blocks are parked on the domain
//! (a dropping handle pushes its batch onto the orphan stack) and freed when
//! the domain itself is dropped; during the measured run this behaves exactly
//! like leaking — [`Policy::RECLAIMS`] is `false`, so live threads never run a
//! cleanup pass, never adopt, and allocate past the (absent) block caches.

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress};
use crate::block::BlockHeader;
use crate::domain::{Domain, DomainHandle, Policy};
use crate::retired::Retired;
use crate::scan::{ReservationSet, Verdict};

/// The leak-memory domain.
pub type Leak = Domain<LeakPolicy>;

/// Per-thread leak-memory handle.
///
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<wfe_reclaim::leak::LeakHandle>(); // ERROR: `LeakHandle` is not `Sync`
/// ```
pub type LeakHandle = DomainHandle<LeakPolicy>;

/// What leaking adds to the scheme core: nothing. No table, no reservation.
#[derive(Debug)]
pub struct LeakPolicy;

/// Leak's reservation set: every block is pinned for as long as the domain
/// lives.
#[derive(Debug, Default)]
pub struct PinsEverything;

impl ReservationSet for PinsEverything {
    fn judge(&self, _entry: &Retired) -> Verdict {
        Verdict::Pinned
    }
}

// SAFETY: the snapshot never judges a block free, so nothing is freed while
// the domain lives and every pointer `protect` returns stays valid.
unsafe impl Policy for LeakPolicy {
    type Snapshot = PinsEverything;
    const NAME: &'static str = "Leak";
    const PROGRESS: Progress = Progress::None;
    const RECLAIMS: bool = false;
    const HAS_CLOCK: bool = false;

    fn new(_config: &DomainConfig) -> Self {
        Self
    }

    #[inline]
    fn protect(
        _domain: &Leak,
        _tid: usize,
        src: &AtomicUsize,
        _index: usize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        src.load(Ordering::Acquire) // ORDER: pairs with the Release publish of the pointer being protected.
    }

    fn fill_snapshot(_domain: &Leak, _snapshot: &mut PinsEverything) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{RawHandle, Reclaimer, ReclaimerConfig};
    use crate::Handle;

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

    #[test]
    fn never_scans_never_adopts_never_touches_the_caches() {
        let domain = Leak::with_config(ReclaimerConfig {
            cleanup_freq: 1,
            block_cache: crate::BlockCacheConfig {
                enabled: true,
                ..crate::BlockCacheConfig::default()
            },
            ..ReclaimerConfig::with_max_threads(2)
        });
        let mut survivor = domain.register();
        {
            // Leaves a batch on the orphan stack for a pass to adopt.
            let mut exiting = domain.register();
            let ptr = exiting.alloc(0u64);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { exiting.retire(ptr) };
        }
        for _ in 0..50 {
            let ptr = survivor.alloc(0u64);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { survivor.retire(ptr) };
        }
        survivor.force_cleanup();
        drop(survivor);
        let stats = domain.stats();
        assert_eq!(stats.retired, 51);
        assert_eq!(stats.scanned, 0, "no pass ever ran");
        assert_eq!(stats.adopted_batches, 0);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);
        assert_eq!(stats.cached_bytes, 0);
    }
}
