//! Hazard Pointers (Michael, 2004).
//!
//! Each thread owns a small set of *hazard slots*; before dereferencing a
//! shared pointer it publishes the pointer in a slot and re-reads the source
//! to validate that the pointer is still reachable. A retired block may be
//! freed once its address appears in no slot. Memory usage is tightly bounded
//! (at most `max_threads × slots` blocks can be pinned), but every traversal
//! step pays a store + fence + re-read, which is why HP is the slowest scheme
//! in most of the paper's figures.

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::BlockHeader;
use crate::domain::{CellPtr, Domain, Policy};
use crate::scan::HazardSnapshot;
use crate::slots::PtrSlotArray;

/// The Hazard Pointers domain.
///
/// Its per-thread handle is deliberately `!Sync`:
///
/// ```compile_fail,E0277
/// use wfe_reclaim::{Hp, Reclaimer};
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<<Hp as Reclaimer>::Handle>(); // ERROR: the Hazard Pointers handle is not `Sync`
/// ```
pub type Hp = Domain<HpPolicy>;

/// What Hazard Pointers adds to the scheme core: one published address per
/// reservation slot. The era clock is never moved and never consulted.
#[derive(Debug)]
pub struct HpPolicy {
    /// `max_threads × slots_per_thread` published addresses (0 = none).
    hazards: PtrSlotArray,
}

// SAFETY: a cell is the `(tid, index)` slot's own hazard word; `protect`
// returns a value only after publishing its untagged address (SeqCst) and re-reading the source unchanged, so the block was
// still reachable — not yet retired — once the hazard was visible;
// `fill_snapshot` records every hazard of every registered thread, and the
// snapshot pins a block while its address is among them.
unsafe impl Policy for HpPolicy {
    type Snapshot = HazardSnapshot;
    type Cell = CellPtr<AtomicUsize>;
    const NAME: &'static str = "HP";
    const PROGRESS: Progress = Progress::LockFree;
    /// Hazard pointers have no clock to move.
    const HAS_CLOCK: bool = false;

    fn new(config: &DomainConfig) -> Self {
        Self {
            hazards: PtrSlotArray::new(config.max_threads, config.slots_per_thread),
        }
    }

    /// The slot's hazard word; there is no clock.
    // SAFETY: contract inherited from the trait declaration (`# Safety` on
    // `Policy::cell`); the obligations are the caller's.
    #[inline]
    unsafe fn cell(domain: &Hp, tid: usize, index: usize) -> CellPtr<AtomicUsize> {
        // SAFETY: forwarded contract — the hazard table lives as long as
        // `domain`.
        unsafe { CellPtr::new(domain.policy().hazards.get(tid, index)) }
    }

    #[inline(always)]
    fn protect(
        cell: &CellPtr<AtomicUsize>,
        src: &AtomicUsize,
        _parent: *mut BlockHeader,
        mask: usize,
    ) -> usize {
        let slot = cell.get();
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

    #[inline]
    fn clear(domain: &Hp, tid: usize) {
        domain.policy().hazards.fill_row(tid, 0, Ordering::Release); // ORDER: withdraws the hazards; pairs with the snapshot's Acquire loads.
    }

    /// Snapshots the current hazard set once per cleanup pass, sorted so the
    /// per-block membership test is one binary search. The walk covers
    /// the rows below the registry's mark ([`ThreadRegistry::high_water`](crate::registry::ThreadRegistry::high_water)).
    fn fill_snapshot(domain: &Hp, snapshot: &mut HazardSnapshot) {
        let hazards = &domain.policy().hazards;
        snapshot.clear();
        for thread in 0..domain.registry().high_water() {
            for slot in 0..hazards.slots() {
                // ORDER: snapshot load; pairs with the Release hazard clear (see scan.rs safety argument).
                snapshot.insert(hazards.get(thread, slot).load(Ordering::Acquire));
            }
        }
        snapshot.seal();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DomainConfig, RawHandle};
    use crate::{Atomic, Handle};

    #[test]
    fn hazard_protects_exact_address_not_tag() {
        // Protecting a tagged pointer must publish the *untagged* address,
        // otherwise the scan would not recognise the block as protected.
        let domain = Hp::with_config(DomainConfig::with_max_threads(2));
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
