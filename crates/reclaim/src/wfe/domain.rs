//! What WFE adds to the scheme core: the `(era, tag)` reservation pairs and
//! slow-path records, the bounded fast path, helping and the modified
//! `cleanup()` scan order (Figure 4).

use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use wfe_sync::{AtomicPair, CachePadded, EraSource};

use crate::api::{DomainConfig, Progress, Reclaimer};
use crate::block::{BlockHeader, ERA_INF, INVPTR};
use crate::domain::{CellPtr, Domain, DomainHandle, Policy};
use crate::scan::EraSnapshot;
use crate::slots::SlotTable;

use super::state::State;

/// Index (relative to a thread's reservation row) of the first internal
/// reservation: the *parent pin* used by helpers (paper: `max_hes`).
const PARENT_SLOT_OFFSET: usize = 0;
/// Index offset of the second internal reservation: the *hand-over pin*
/// (paper: `max_hes + 1`).
const HANDOVER_SLOT_OFFSET: usize = 1;
/// Number of internal reservation slots appended to every thread's row.
const EXTRA_SLOTS: usize = 2;
/// Fast-path attempts `protect` makes inline (fewer if the budget is
/// smaller); the rest run out of line in `protect_retry`.
const INLINE_ATTEMPTS: usize = 2;

/// The Wait-Free Eras domain: the scheme core running `WfePolicy`. The
/// `global_era` of Figure 4 is the core's clock (`era()`).
pub type Wfe = Domain<WfePolicy>;

/// Per-thread Wait-Free Eras handle. Its lease table covers the application
/// slots only; the two internal helper slots are never leasable.
///
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<wfe_reclaim::WfeHandle>(); // ERROR: `WfeHandle` is not `Sync`
/// ```
pub type WfeHandle = DomainHandle<WfePolicy>;

/// A WFE reservation cell: the slot's `(era, tag)` pair and the clock —
/// all a hit reads — and what a miss needs besides: the domain, the slot's
/// `(tid, index)` in the state table and the attempt budget.
// LAYOUT: addresses, not atomics — written once at lease time and only read
// after, by the one thread that protects through the cell.
#[derive(Debug, Clone, Copy)]
pub struct WfeCell {
    pub(crate) reservation: CellPtr<AtomicPair>,
    clock: CellPtr<EraSource>,
    pub(crate) domain: CellPtr<Wfe>,
    pub(crate) tid: usize,
    pub(crate) index: usize,
    attempts: usize,
}

/// What the paper adds on top of Hazard Eras (Figure 4 top):
/// * `counter_start` / `counter_end` — how many slow-path cycles have begun /
///   finished; their difference tells era-advancing threads whether anyone
///   needs help, and movement of `counter_start` tells `cleanup()` that a new
///   slow path may have started mid-scan,
/// * `reservations` — a `max_threads × (max_hes + 2)` table of `(era, tag)`
///   pairs; the last two columns are internal to the `help_thread` slow path,
/// * `state` — a `max_threads × max_hes` table of slow-path request records,
///   cell `(tid, index)` serving reservation `(tid, index)`.
// LAYOUT: the counters are padded; the tables' cells live in allocations
// of their own (`SlotTable`, rows on 128-byte boundaries), and the fields
// here are only their read-only handles.
#[derive(Debug)]
pub struct WfePolicy {
    pub(crate) counter_start: CachePadded<AtomicU64>,
    pub(crate) counter_end: CachePadded<AtomicU64>,
    pub(crate) reservations: SlotTable<AtomicPair>,
    pub(crate) state: SlotTable<State>,
}

impl WfePolicy {
    /// Number of application-visible reservation slots per thread (`max_hes`).
    #[inline]
    pub(crate) fn app_slots(&self) -> usize {
        self.state.slots()
    }

    /// Row index of a thread's parent-pin internal reservation.
    #[inline]
    pub(crate) fn parent_slot(&self) -> usize {
        self.app_slots() + PARENT_SLOT_OFFSET
    }

    /// Row index of a thread's hand-over internal reservation.
    #[inline]
    pub(crate) fn handover_slot(&self) -> usize {
        self.app_slots() + HANDOVER_SLOT_OFFSET
    }

    /// Adds one column range of the reservation table to `snapshot` (eras
    /// only; the tag word is irrelevant to reclamation). The walk covers
    /// the rows below the registry's mark ([`ThreadRegistry::high_water`](crate::registry::ThreadRegistry::high_water)):
    /// helper pins live in the rows of registered helpers, and a row beyond
    /// the mark was never registered.
    fn snapshot_columns(domain: &Wfe, snapshot: &mut EraSnapshot, js: usize, je: usize) {
        let reservations = &domain.policy().reservations;
        for thread in 0..domain.registry().high_water() {
            for pair in &reservations.row(thread)[js..je] {
                // ORDER: snapshot load; pairs with the Release era withdrawal (see scan.rs safety argument).
                snapshot.insert(pair.load_first(Ordering::Acquire));
            }
        }
    }

    /// The fast-path attempts after the second (Figure 4, lines 15-24), out
    /// of line: `protect` made attempts 1 and 2 (just 1 when the budget is
    /// one) and published `prev_era`; this makes the rest of the cell's
    /// `fast_path_attempts` with the same loads and stores in the same
    /// order, then asks for help.
    #[cold]
    #[inline(never)]
    fn protect_retry(
        cell: &WfeCell,
        src: &AtomicUsize,
        parent: *mut BlockHeader,
        mut prev_era: u64,
    ) -> usize {
        let (reservation, clock) = (cell.reservation.get(), cell.clock.get());
        for _ in INLINE_ATTEMPTS..cell.attempts {
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = clock.load(Ordering::Acquire); // ORDER: era clock read; pairs with the SeqCst era advances.
            if prev_era == new_era {
                return value;
            }
            reservation.store_first(new_era, Ordering::SeqCst);
            prev_era = new_era;
        }

        // The era kept moving: ask for help.
        Self::protect_slow(cell, src, parent, prev_era)
    }

    /// `increment_era()` (Figure 4, lines 87-98): before advancing the global
    /// era clock, help every pending slow-path request so that the pending
    /// `get_protected()` calls cannot be starved by the very increment we are
    /// about to perform.
    pub(crate) fn increment_era(domain: &Wfe, helper_tid: usize) {
        let this = domain.policy();
        let counter_end = this.counter_end.load(Ordering::SeqCst);
        let counter_start = this.counter_start.load(Ordering::SeqCst);
        if counter_start != counter_end {
            // ORDER: the mark's SeqCst load bounds the rows. Only a registered
            // thread publishes a request, and it raised the mark (SeqCst
            // `fetch_max` in `try_acquire`) before its SeqCst `counter_start`
            // increment; a helper that saw that increment (the counters
            // differ) and then loads the mark covers the requester's row. A
            // request whose increment it did not see it need not help.
            for thread in 0..domain.registry().high_water() {
                for (slot, state) in this.state.row(thread).iter().enumerate() {
                    if state.is_pending() {
                        Self::help_thread(domain, thread, slot, helper_tid);
                    }
                }
            }
        }
        domain.era_source().advance(Ordering::SeqCst);
    }

    /// `help_thread(i, j, tid)` (Figure 4, lines 100-134): completes thread
    /// `i`'s pending `get_protected()` request in slot `j` on its behalf.
    ///
    /// The helper (`helper_tid`) pins the requester's *parent* block by
    /// publishing its `alloc_era` in the parent-pin internal reservation, and
    /// pins the block it reads out of the hazardous location by publishing the
    /// era it read under in the hand-over internal reservation. Both pins are
    /// withdrawn before returning; reclamation safety across the hand-over is
    /// provided by the `cleanup()` scan order (Lemmas 4 and 5).
    pub(crate) fn help_thread(domain: &Wfe, requester: usize, slot: usize, helper_tid: usize) {
        let this = domain.policy();
        domain.slot_counters(helper_tid).on_help();
        let state = this.state.get(requester, slot);
        let request = state.result.load();
        if request.0 != INVPTR {
            return;
        }
        // Pin the parent block before touching anything else (Lemma 4).
        let parent_era = state.era.load(Ordering::Acquire); // ORDER: pairs with the requester's SeqCst publish of the slow-path state.
        let parent_pin = this.reservations.get(helper_tid, this.parent_slot());
        parent_pin.store_first(parent_era, Ordering::SeqCst);

        let location = state.pointer.load(Ordering::Acquire); // ORDER: pairs with the requester's SeqCst publish of the slow-path state.
        let tag = this
            .reservations
            .get(requester, slot)
            .load_second(Ordering::SeqCst);
        // If the tag moved on, the request we read belongs to an already
        // finished slow-path cycle: the state fields may be stale, so bail out.
        if tag == request.1 {
            let handover_pin = this.reservations.get(helper_tid, this.handover_slot());
            let mut prev_era = domain.era();
            // Bounded by the number of in-flight era increments (Lemma 2).
            loop {
                handover_pin.store_first(prev_era, Ordering::SeqCst);
                // SAFETY: `location` is the address of an `AtomicUsize` inside
                // the parent block (or a data-structure root). The tag matched
                // after the parent pin was published, so by Lemma 4 the parent
                // cannot have been reclaimed and the location is still valid.
                let value = unsafe { (*(location as *const AtomicUsize)).load(Ordering::Acquire) }; // ORDER: pairs with the Release publish of the pointer being protected.
                let new_era = domain.era();
                if prev_era == new_era {
                    if state
                        .result
                        .compare_exchange(request, (value as u64, new_era))
                        .is_ok()
                    {
                        // Update the requester's reservation on its behalf;
                        // at most two iterations (Lemma 3).
                        loop {
                            let old = this.reservations.get(requester, slot).load();
                            if old.1 != tag {
                                break;
                            }
                            if this
                                .reservations
                                .get(requester, slot)
                                .compare_exchange(old, (new_era, tag + 1))
                                .is_ok()
                            {
                                break;
                            }
                        }
                    }
                    break;
                }
                prev_era = new_era;
                if state.result.load() != request {
                    break;
                }
            }
            handover_pin.store_first(ERA_INF, Ordering::SeqCst);
        }
        parent_pin.store_first(ERA_INF, Ordering::SeqCst);
    }
}

// SAFETY: `protect` returns a value only once an era it was read under is
// published in the requester's reservation: by the requester itself on the
// fast path and on a self-cancelled slow path (as in Hazard Eras), or by a
// helper that pinned it in its hand-over slot until the reservation carried
// it (Lemmas 4 and 5). `fill_snapshot` keeps the Figure-4 scan order those
// lemmas need, over every registered thread's row.
unsafe impl Policy for WfePolicy {
    type Snapshot = EraSnapshot;
    type Cell = WfeCell;
    const NAME: &'static str = "WFE";
    const PROGRESS: Progress = Progress::WaitFree;

    fn new(config: &DomainConfig) -> Self {
        assert!(
            config.slots_per_thread >= 1,
            "WFE needs at least one application reservation slot"
        );
        assert!(
            config.fast_path_attempts >= 1,
            "WFE needs at least one fast-path attempt"
        );
        Self {
            counter_start: CachePadded::new(AtomicU64::new(0)),
            counter_end: CachePadded::new(AtomicU64::new(0)),
            reservations: SlotTable::new(
                config.max_threads,
                config.slots_per_thread + EXTRA_SLOTS,
                || AtomicPair::new(ERA_INF, 0),
            ),
            state: SlotTable::new(config.max_threads, config.slots_per_thread, State::new),
        }
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety` on
    // `Policy::cell`); the obligations are the caller's.
    #[inline]
    unsafe fn cell(domain: &Wfe, tid: usize, index: usize) -> WfeCell {
        // SAFETY: forwarded contract — the pair table and the clock live as
        // long as `domain`.
        unsafe {
            WfeCell {
                reservation: CellPtr::new(domain.policy().reservations.get(tid, index)),
                clock: CellPtr::new(domain.era_source()),
                domain: CellPtr::new(domain),
                tid,
                index,
                attempts: domain.config().fast_path_attempts,
            }
        }
    }

    /// `get_protected` (Figure 4, lines 15-53).
    ///
    /// The first two fast-path attempts are peeled off the bounded loop. A
    /// hit costs what Hazard Eras' does: one load of the own slot, of `src`
    /// and of the clock, one compare — no attempt counter. A miss publishes
    /// and makes the second attempt inline, which is the one that hits after
    /// a clock tick (and after every `clear`); only the attempts after it
    /// leave the inline path (`protect_retry`).
    #[inline(always)]
    fn protect(cell: &WfeCell, src: &AtomicUsize, parent: *mut BlockHeader, mask: usize) -> usize {
        let (reservation, clock) = (cell.reservation.get(), cell.clock.get());
        let prev_era = reservation.load_first(Ordering::Relaxed); // ORDER: own slot re-read; the publish that matters is the SeqCst store below.

        // Fast path (lines 15-24): identical to Hazard Eras, but bounded.
        let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
        let mut new_era = clock.load(Ordering::Acquire); // ORDER: era clock read; pairs with the SeqCst era advances.
        if prev_era == new_era {
            return value;
        }
        reservation.store_first(new_era, Ordering::SeqCst);
        if cell.attempts >= INLINE_ATTEMPTS {
            let prev_era = new_era;
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            new_era = clock.load(Ordering::Acquire); // ORDER: era clock read; pairs with the SeqCst era advances.
            if prev_era == new_era {
                return value;
            }
            reservation.store_first(new_era, Ordering::SeqCst);
        }
        // Only the slow path reads `parent`: untag it off the hit path.
        let parent = (parent as usize & mask) as *mut BlockHeader;
        Self::protect_retry(cell, src, parent, new_era)
    }

    /// Withdraws the eras of the whole row in one pass: the application
    /// slots' and the two helper pins', which hold `ERA_INF` anyway whenever
    /// their owner is outside `help_thread` (and `clear` is never called
    /// from inside it). The slow-path tags (second words) must survive, so
    /// only the era words are reset ([`AtomicPair::store_first_all`]: one
    /// native-WCAS probe for the row).
    #[inline]
    fn clear(domain: &Wfe, tid: usize) {
        let row = domain.policy().reservations.row(tid);
        AtomicPair::store_first_all(row, ERA_INF, Ordering::Release); // ORDER: withdraws the era reservations; pairs with the snapshot's Acquire loads.
    }

    /// Takes the batch-scan snapshot for one `cleanup()` pass, preserving the
    /// Figure-4 (lines 55-67) scan order at batch granularity: normal
    /// reservations and parent pins first, then — unless no slow path was in
    /// flight — the hand-over pins followed by a re-scan of the normal
    /// reservations. Lemmas 4 and 5 rely on exactly this order; taking each
    /// snapshot once per batch (instead of re-reading the table per block)
    /// preserves it, because every block in the batch was retired before the
    /// first snapshot load.
    ///
    /// Every column read lands in one set, as in Hazard Eras: Figure 4 frees
    /// a block only if no era read in any column lies in its lifespan, which
    /// is the set's `first_in_span` over their union, and the smallest such
    /// era is the witness.
    fn fill_snapshot(domain: &Wfe, snapshot: &mut EraSnapshot) {
        let this = domain.policy();
        let max_hes = this.app_slots();
        // Figure 4, line 56: `counter_end` is read before any reservation.
        let counter_end = this.counter_end.load(Ordering::SeqCst);
        snapshot.clear();
        // Normal reservations + parent pins (columns 0..=max_hes).
        Self::snapshot_columns(domain, snapshot, 0, max_hes + 1);
        if counter_end != this.counter_start.load(Ordering::SeqCst) {
            // A slow path may be in flight: a helper may be handing a
            // protected era over to a requester, so scan the hand-over pins
            // and then the normal reservations *again*.
            Self::snapshot_columns(domain, snapshot, max_hes + 1, max_hes + 2);
            Self::snapshot_columns(domain, snapshot, 0, max_hes);
        }
        snapshot.seal();
    }

    /// Figure 4, lines 69-71 and 80-82: help pending readers before advancing.
    #[inline]
    fn advance(domain: &Wfe, tid: usize) {
        Self::increment_era(domain, tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DomainConfig;
    use crate::{Atomic, Handle, Linked, RawHandle};

    #[test]
    fn reservation_row_has_two_extra_internal_slots() {
        let domain = Wfe::with_config(DomainConfig {
            slots_per_thread: 3,
            ..DomainConfig::with_max_threads(2)
        });
        assert_eq!(domain.policy().parent_slot(), 3);
        assert_eq!(domain.policy().handover_slot(), 4);
        // The row holds both internal slots (`get` bounds-checks the slot).
        let _ = domain.policy().reservations.get(1, 4);
        assert_eq!(domain.policy().state.slots(), 3);
    }

    /// Publishes a pending request in record `(tid, slot)` for a read of
    /// `root`, as the slow path of `get_protected` does (Figure 4, lines
    /// 31-33, without the `counter_start` increment).
    fn stage_request(domain: &Wfe, tid: usize, slot: usize, root: &Atomic<u64>, tag: u64) {
        let state = domain.policy().state.get(tid, slot);
        state
            .pointer
            .store(root.as_raw_atomic() as *const _ as usize, Ordering::SeqCst);
        state.era.store(ERA_INF, Ordering::SeqCst);
        state.result.store((INVPTR, tag));
        assert!(state.is_pending());
    }

    #[test]
    fn help_thread_completes_a_pending_request() {
        // Deterministic exercise of `help_thread`: thread 0 stages a request
        // by hand exactly as the slow path of `get_protected` would, then
        // thread 1 runs `increment_era` and must produce the result.
        let domain = Wfe::with_config(DomainConfig::with_max_threads(2));
        let mut owner = domain.register();
        let helper = domain.register();

        let node = owner.alloc(99u64);
        let root: Atomic<u64> = Atomic::new(node);

        let tid = owner.thread_id();
        let slot = 0usize;
        let tag = domain
            .policy()
            .reservations
            .get(tid, slot)
            .load_second(Ordering::SeqCst);

        // Stage the request (Figure 4, lines 31-33).
        domain.policy().counter_start.fetch_add(1, Ordering::SeqCst);
        stage_request(&domain, tid, slot, &root, tag);
        let state = domain.policy().state.get(tid, slot);

        // A thread about to advance the era must first help.
        WfePolicy::increment_era(&domain, helper.thread_id());

        let produced = state.result.load();
        assert_ne!(produced.0, INVPTR, "request was completed by the helper");
        assert_eq!(produced.0, node as u64, "helper read the hazardous pointer");
        let reservation = domain.policy().reservations.get(tid, slot).load();
        assert_eq!(
            reservation.0, produced.1,
            "reservation era set on requester's behalf"
        );
        assert_eq!(reservation.1, tag + 1, "tag advanced to close the cycle");
        // Helper pins are withdrawn.
        assert_eq!(
            domain
                .policy()
                .reservations
                .get(helper.thread_id(), domain.policy().parent_slot())
                .load_first(Ordering::SeqCst),
            ERA_INF
        );
        assert_eq!(
            domain
                .policy()
                .reservations
                .get(helper.thread_id(), domain.policy().handover_slot())
                .load_first(Ordering::SeqCst),
            ERA_INF
        );
        assert!(domain.stats().helps >= 1);

        // Finish the staged cycle the way get_protected would.
        domain.policy().counter_end.fetch_add(1, Ordering::SeqCst);
        // SAFETY: test-owned block, unlinked and freed exactly once.
        unsafe { Linked::dealloc(node) };
    }

    #[test]
    fn increment_era_helps_a_request_in_the_highest_registered_row() {
        // The scan for pending requests stops at the registry's mark: the
        // requester registered last, so its row is `high_water - 1`, the
        // last one the scan covers. Its request sits in its last slot.
        let domain = Wfe::with_config(DomainConfig::with_max_threads(4));
        let helper = domain.register();
        let requester = domain.register();
        let (tid, slot) = (requester.thread_id(), domain.policy().app_slots() - 1);
        assert_eq!(tid + 1, domain.registry().high_water());
        let root: Atomic<u64> = Atomic::null();
        domain.policy().counter_start.fetch_add(1, Ordering::SeqCst);
        stage_request(&domain, tid, slot, &root, 0);

        WfePolicy::increment_era(&domain, helper.thread_id());

        let state = domain.policy().state.get(tid, slot);
        assert!(!state.is_pending(), "one bump completed the request");
        assert_eq!(state.result.load().0, 0, "the helper read the null root");
        assert_eq!(domain.stats().helps, 1);
        domain.policy().counter_end.fetch_add(1, Ordering::SeqCst);
    }

    #[test]
    fn a_block_witnessed_only_by_a_hand_over_pin_stays_parked_across_the_hand_over() {
        // Mid slow path the only publication of an era can be a helper's
        // hand-over pin; when the helper finishes, the same era lives on in
        // the requester's reservation. A group parked under it must be held
        // by either column, and must not be rejudged in between.
        let domain = Wfe::with_config(DomainConfig {
            cleanup_freq: usize::MAX,
            era_freq: usize::MAX,
            ..DomainConfig::with_max_threads(3)
        });
        let mut requester = domain.register();
        let helper = domain.register();
        let mut cleaner = domain.register();
        let era = domain.era();
        let node = cleaner.alloc(7u64);

        // The requester has announced a cycle and the helper has pinned the
        // era it read under; nothing else names that era yet.
        domain.policy().counter_start.fetch_add(1, Ordering::SeqCst);
        let handover_pin = domain
            .policy()
            .reservations
            .get(helper.thread_id(), domain.policy().handover_slot());
        handover_pin.store_first(era, Ordering::SeqCst);
        // SAFETY: the block was never published; retired exactly once.
        unsafe { cleaner.retire(node) };
        cleaner.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 1, "the hand-over pin covers it");
        assert_eq!(cleaner.parked_groups(), [(era, 1)]);

        // The helper hands the era over (Figure 4, lines 119-127) and leaves.
        let reservation = domain.policy().reservations.get(requester.thread_id(), 0);
        let old = reservation.load();
        reservation
            .compare_exchange(old, (era, old.1 + 1))
            .expect("nothing else writes the requester's slot");
        handover_pin.store_first(ERA_INF, Ordering::SeqCst);
        domain.policy().counter_end.fetch_add(1, Ordering::SeqCst);
        let judged = domain.stats().scanned;
        cleaner.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 1, "now the requester pins it");
        assert_eq!(cleaner.parked_groups(), [(era, 1)]);
        assert_eq!(domain.stats().scanned, judged, "held: not judged again");

        requester.clear();
        cleaner.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
        assert!(cleaner.parked_groups().is_empty());
    }

    #[test]
    fn a_hand_over_pin_counts_only_while_a_slow_path_is_in_flight() {
        // Figure 4 reads the hand-over pins only when `counter_start` has
        // moved past `counter_end`. A stray pin outside a slow path is not
        // read; inside one it joins the reservations, and the witness is the
        // oldest era of either inside the block's lifespan.
        let domain = Wfe::with_config(DomainConfig {
            cleanup_freq: usize::MAX,
            era_freq: usize::MAX,
            ..DomainConfig::with_max_threads(3)
        });
        let mut requester = domain.register();
        let helper = domain.register();
        let mut cleaner = domain.register();
        let handover_pin = domain
            .policy()
            .reservations
            .get(helper.thread_id(), domain.policy().handover_slot());
        let reservation = domain.policy().reservations.get(requester.thread_id(), 0);
        // Retires a block whose lifespan is `[era, era + 1]`; returns `era`.
        let retire_spanning_two_eras = |cleaner: &mut WfeHandle| {
            let era = domain.era();
            let node = cleaner.alloc(7u64);
            domain.era_source().advance(Ordering::SeqCst);
            // SAFETY: the block was never published; retired exactly once.
            unsafe { cleaner.retire(node) };
            era
        };

        // Quiescent: `counter_start == counter_end`.
        let era = retire_spanning_two_eras(&mut cleaner);
        handover_pin.store_first(era, Ordering::SeqCst);
        cleaner.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0, "the stray pin is not read");

        // In flight: the pin counts, and it is older than the reservation.
        let era = retire_spanning_two_eras(&mut cleaner);
        handover_pin.store_first(era, Ordering::SeqCst);
        reservation.store_first(era + 1, Ordering::SeqCst);
        domain.policy().counter_start.fetch_add(1, Ordering::SeqCst);
        cleaner.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 1, "the hand-over pin keeps it");
        assert_eq!(cleaner.parked_groups(), [(era, 1)], "the oldest pin");

        handover_pin.store_first(ERA_INF, Ordering::SeqCst);
        domain.policy().counter_end.fetch_add(1, Ordering::SeqCst);
        requester.clear();
        cleaner.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
        assert!(cleaner.parked_groups().is_empty());
    }

    #[test]
    fn help_thread_ignores_stale_requests() {
        // If the requester's tag has already moved past the tag recorded in
        // the request, the helper must not touch anything.
        let domain = Wfe::with_config(DomainConfig::with_max_threads(2));
        let owner = domain.register();
        let helper = domain.register();
        let tid = owner.thread_id();

        let root: Atomic<u64> = Atomic::null();
        // Stage a request whose tag is already out of date (reservation tag is
        // 0, the request claims tag 5).
        stage_request(&domain, tid, 0, &root, 5);
        let state = domain.policy().state.get(tid, 0);

        WfePolicy::help_thread(&domain, tid, 0, helper.thread_id());

        assert!(state.is_pending(), "stale request left untouched");
        assert_eq!(
            domain.policy().reservations.get(tid, 0).load(),
            (ERA_INF, 0),
            "requester's reservation untouched"
        );
    }

    #[test]
    fn increment_era_without_pending_requests_just_bumps_the_clock() {
        let domain = Wfe::with_config(DomainConfig::with_max_threads(2));
        let handle = domain.register();
        let before = domain.era();
        WfePolicy::increment_era(&domain, handle.thread_id());
        assert_eq!(domain.era(), before + 1);
        assert_eq!(domain.stats().helps, 0);
    }
}
