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
//! loop WFE (`crate::wfe`) makes wait-free.

use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::{BlockHeader, ERA_INF};
use crate::domain::{Domain, EraCell, Policy};
use crate::scan::EraSnapshot;
use crate::slots::SlotTable;

/// The Hazard Eras domain.
///
/// Its per-thread handle is deliberately `!Sync`:
///
/// ```compile_fail,E0277
/// use wfe_reclaim::{He, Reclaimer};
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<<He as Reclaimer>::Handle>(); // ERROR: the Hazard Eras handle is not `Sync`
/// ```
pub type He = Domain<HePolicy>;

/// What Hazard Eras adds to the scheme core: one published era per
/// reservation slot.
#[derive(Debug)]
pub struct HePolicy {
    /// `max_threads × slots_per_thread` published eras (`ERA_INF` = none).
    reservations: SlotTable<AtomicU64>,
}

// SAFETY: a cell is the `(tid, index)` slot's own era word and the clock;
// `protect` returns a value only once the era it read it under is published
// in that slot (SeqCst, before the re-read), and that era lies in the
// pointee's lifespan; `fill_snapshot` records every published era of
// every registered thread, so the snapshot covers the block until the slot
// is overwritten or withdrawn.
unsafe impl Policy for HePolicy {
    type Snapshot = EraSnapshot;
    type Cell = EraCell;
    const NAME: &'static str = "HE";
    const PROGRESS: Progress = Progress::LockFree;

    fn new(config: &DomainConfig) -> Self {
        Self {
            reservations: SlotTable::new(config.max_threads, config.slots_per_thread, || {
                AtomicU64::new(ERA_INF)
            }),
        }
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety` on
    // `Policy::cell`); the obligations are the caller's.
    #[inline]
    unsafe fn cell(domain: &He, tid: usize, index: usize) -> EraCell {
        // SAFETY: forwarded contract.
        unsafe { EraCell::new(domain, domain.policy().reservations.get(tid, index)) }
    }

    #[inline(always)]
    fn protect(
        cell: &EraCell,
        src: &AtomicUsize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        cell.protect(src)
    }

    #[inline]
    fn clear(domain: &He, tid: usize) {
        for era in domain.policy().reservations.row(tid) {
            era.store(ERA_INF, Ordering::Release); // ORDER: withdraws the eras; pairs with the snapshot's Acquire loads.
        }
    }

    /// Snapshots every published era once per cleanup pass, sorted so the
    /// Figure-1 `can_delete` lifespan test becomes one binary search per
    /// block instead of a full reservation-table walk. The walk covers
    /// the rows below the registry's mark ([`ThreadRegistry::high_water`](crate::registry::ThreadRegistry::high_water)).
    fn fill_snapshot(domain: &He, snapshot: &mut EraSnapshot) {
        let reservations = &domain.policy().reservations;
        snapshot.clear();
        for thread in 0..domain.registry().high_water() {
            for era in reservations.row(thread) {
                // ORDER: snapshot load; pairs with the Release era withdrawal (see scan.rs safety argument).
                snapshot.insert(era.load(Ordering::Acquire));
            }
        }
        snapshot.seal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DomainConfig;

    #[test]
    fn era_advances_with_allocations() {
        let domain = He::with_config(DomainConfig {
            era_freq: 10,
            ..DomainConfig::with_max_threads(2)
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
