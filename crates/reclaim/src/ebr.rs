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

use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::{BlockHeader, ERA_INF};
use crate::domain::{Domain, Policy};
use crate::scan::EpochSnapshot;
use crate::slots::SlotTable;

/// The EBR domain; its epoch is the core's clock (`era()`).
///
/// Its per-thread handle is deliberately `!Sync`:
///
/// ```compile_fail,E0277
/// use wfe_reclaim::{Ebr, Reclaimer};
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<<Ebr as Reclaimer>::Handle>(); // ERROR: the EBR handle is not `Sync`
/// ```
pub type Ebr = Domain<EbrPolicy>;

/// What EBR adds to the scheme core: one published epoch per thread, for the
/// length of an operation bracket.
#[derive(Debug)]
pub struct EbrPolicy {
    /// One published epoch per thread; `ERA_INF` = quiescent.
    reservations: SlotTable<AtomicU64>,
}

// SAFETY: everything `protect` reads inside a bracket was reachable after
// `begin_op` published the epoch (SeqCst), so it is retired at that epoch or
// later; `fill_snapshot` takes the oldest published epoch of every
// registered thread, and the snapshot pins every block retired at or after
// it — until `end_op` withdraws the epoch (`clear` does not).
unsafe impl Policy for EbrPolicy {
    type Cell = ();
    type Snapshot = EpochSnapshot;
    const NAME: &'static str = "EBR";
    const PROGRESS: Progress = Progress::Blocking;

    fn new(config: &DomainConfig) -> Self {
        Self {
            reservations: SlotTable::new(config.max_threads, 1, || AtomicU64::new(ERA_INF)),
        }
    }

    #[inline]
    fn begin_op(domain: &Ebr, tid: usize) {
        let epoch = domain.era();
        domain
            .policy()
            .reservations
            .get(tid, 0)
            .store(epoch, Ordering::SeqCst);
    }

    #[inline]
    fn end_op(domain: &Ebr, tid: usize) {
        domain
            .policy()
            .reservations
            .get(tid, 0)
            .store(ERA_INF, Ordering::Release); // ORDER: withdraws the epoch; pairs with the snapshot's Acquire loads.
    }

    /// Protection comes from the epoch published in `begin_op`; reads need no
    /// per-pointer work at all, and a cell names nothing.
    // SAFETY: contract inherited from the trait declaration (`# Safety` on
    // `Policy::cell`); the obligations are the caller's.
    #[inline]
    unsafe fn cell(_domain: &Ebr, _tid: usize, _index: usize) {}

    #[inline(always)]
    fn protect(_cell: &(), src: &AtomicUsize, _parent: *mut BlockHeader, _mask: usize) -> usize {
        src.load(Ordering::Acquire) // ORDER: pairs with the Release publish of the pointer being protected.
    }

    /// Snapshots every published epoch once per cleanup pass: only the oldest
    /// active epoch matters, so the scratch is a single word. The walk covers
    /// the rows below the registry's mark ([`ThreadRegistry::high_water`](crate::registry::ThreadRegistry::high_water)).
    fn fill_snapshot(domain: &Ebr, snapshot: &mut EpochSnapshot) {
        let reservations = &domain.policy().reservations;
        snapshot.clear();
        for thread in 0..domain.registry().high_water() {
            // ORDER: snapshot load; pairs with the Release epoch withdrawal (see scan.rs safety argument).
            snapshot.insert(reservations.get(thread, 0).load(Ordering::Acquire));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DomainConfig, RawHandle};

    #[test]
    fn stalled_reader_pins_memory() {
        // The defining weakness of EBR: a thread inside an operation bracket
        // prevents every later retirement from being freed.
        use crate::Handle;
        let domain = Ebr::with_config(DomainConfig {
            cleanup_freq: 1,
            era_freq: 1,
            ..DomainConfig::with_max_threads(2)
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
