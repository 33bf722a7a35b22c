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

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::{BlockHeader, ERA_INF};
use crate::domain::{Domain, EraCell, Policy};
use crate::scan::IntervalSnapshot;
use crate::slots::SlotArray;

const LOWER: usize = 0;
const UPPER: usize = 1;

/// The 2GEIBR domain.
///
/// Its per-thread handle is deliberately `!Sync`:
///
/// ```compile_fail,E0277
/// use wfe_reclaim::{Ibr2Ge, Reclaimer};
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<<Ibr2Ge as Reclaimer>::Handle>(); // ERROR: the 2GEIBR handle is not `Sync`
/// ```
pub type Ibr2Ge = Domain<IbrPolicy>;

/// What 2GEIBR adds to the scheme core: one published `[lower, upper]` era
/// interval per thread, for the length of an operation bracket.
#[derive(Debug)]
pub struct IbrPolicy {
    /// `max_threads × 2`: per-thread `[lower, upper]` interval (`ERA_INF` = idle).
    reservations: SlotArray,
}

// SAFETY: a cell is the thread's `upper` word and the clock; `protect`
// returns a value only once `upper` holds (SeqCst) the era it was read under, and `lower` has held the bracket's first era since
// `begin_op`, so the pointee's lifespan overlaps the published interval;
// `fill_snapshot` records the interval of every registered thread, and the
// snapshot pins every overlapping block — until `end_op` withdraws the
// interval (`clear` does not).
unsafe impl Policy for IbrPolicy {
    type Snapshot = IntervalSnapshot;
    type Cell = EraCell;
    const NAME: &'static str = "2GEIBR";
    const PROGRESS: Progress = Progress::LockFree;

    fn new(config: &DomainConfig) -> Self {
        Self {
            reservations: SlotArray::new(config.max_threads, 2, ERA_INF),
        }
    }

    #[inline]
    fn begin_op(domain: &Ibr2Ge, tid: usize) {
        let era = domain.era();
        let res = &domain.policy().reservations;
        // Seed the interval with the current era; `lower` is published last so
        // a scanner never observes an active interval with a stale upper bound.
        res.get(tid, UPPER).store(era, Ordering::SeqCst);
        res.get(tid, LOWER).store(era, Ordering::SeqCst);
    }

    /// Withdraws `lower` first: a scanner that still sees it also still sees
    /// a valid `upper`.
    #[inline]
    fn end_op(domain: &Ibr2Ge, tid: usize) {
        domain
            .policy()
            .reservations
            .fill_row(tid, ERA_INF, Ordering::Release); // ORDER: withdraws the interval; pairs with the snapshot's Acquire loads.
    }

    /// Every index of a thread resolves to the same cell: the interval's
    /// `upper` bound.
    // SAFETY: contract inherited from the trait declaration (`# Safety` on
    // `Policy::cell`); the obligations are the caller's.
    #[inline]
    unsafe fn cell(domain: &Ibr2Ge, tid: usize, _index: usize) -> EraCell {
        // SAFETY: forwarded contract.
        unsafe { EraCell::new(domain, domain.policy().reservations.get(tid, UPPER)) }
    }

    /// Hazard Eras' loop on `upper`: every read raises the bound to the era
    /// it was read under.
    #[inline(always)]
    fn protect(
        cell: &EraCell,
        src: &AtomicUsize,
        _parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        cell.protect(src)
    }

    /// Snapshots every active `[lower, upper]` interval once per cleanup
    /// pass; the per-block overlap test then runs without atomic loads. The
    /// walk covers the rows below the registry's mark
    /// ([`ThreadRegistry::high_water`](crate::registry::ThreadRegistry::high_water)).
    fn fill_snapshot(domain: &Ibr2Ge, snapshot: &mut IntervalSnapshot) {
        let res = &domain.policy().reservations;
        snapshot.clear();
        for thread in 0..domain.registry().high_water() {
            let lower = res.get(thread, LOWER).load(Ordering::Acquire); // ORDER: snapshot load; pairs with the Release interval withdrawal (see scan.rs safety argument).
            if lower == ERA_INF {
                continue;
            }
            let upper = res.get(thread, UPPER).load(Ordering::Acquire); // ORDER: snapshot load; pairs with the Release interval withdrawal.
            snapshot.insert(lower, upper);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DomainConfig, RawHandle};
    use crate::Handle;

    #[test]
    fn interval_only_pins_overlapping_lifespans() {
        let domain = Ibr2Ge::with_config(DomainConfig {
            cleanup_freq: 1,
            era_freq: 1,
            ..DomainConfig::with_max_threads(2)
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
