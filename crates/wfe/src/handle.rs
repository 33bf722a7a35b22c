//! The per-thread WFE handle: `get_protected` (fast + slow path), `retire`,
//! `alloc_block` bookkeeping and `clear` (Figure 4, left-hand column).

use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use wfe_reclaim::api::{debug_assert_slot_index, RawHandle};
use wfe_reclaim::block::BlockHeader;
use wfe_reclaim::cache::{LocalBlockCache, ShardCache};
use wfe_reclaim::guard::ShieldSlots;
use wfe_reclaim::retired::RetiredBatch;
use wfe_reclaim::{ERA_INF, INVPTR};

use crate::domain::{Wfe, WfeSnapshot};

/// Per-thread Wait-Free Eras handle.
///
/// Deliberately `!Sync`: the single-writer premise of the [`Shield`](wfe_reclaim::Shield)
/// lease table (`RawHandle`'s `# Safety`).
///
/// ```compile_fail,E0277
/// fn requires_sync<T: Sync>() {}
/// requires_sync::<wfe_core::WfeHandle>(); // ERROR: `WfeHandle` is not `Sync`
/// ```
pub struct WfeHandle {
    /// Lease table for this handle's [`Shield`](wfe_reclaim::Shield)s
    /// (application slots only; the two internal helper slots are never
    /// leasable).
    shield_slots: Arc<ShieldSlots>,
    /// Home registry shard, fixed at registration (indexes the block caches).
    cache_shard: usize,
    /// Private block-cache magazine fronting the home shard's freelists.
    local_cache: LocalBlockCache,
    domain: Arc<Wfe>,
    tid: usize,
    retired: RetiredBatch,
    /// Reusable reservation snapshot (the batch scan scratch).
    snapshot: WfeSnapshot,
    /// Retirements since the last cleanup pass.
    since_cleanup: usize,
    alloc_counter: usize,
}

impl WfeHandle {
    pub(crate) fn new(domain: Arc<Wfe>, tid: usize) -> Self {
        Self {
            shield_slots: ShieldSlots::new(domain.app_slots()),
            cache_shard: domain.registry.shard_of(tid),
            local_cache: LocalBlockCache::new(),
            domain,
            tid,
            retired: RetiredBatch::new(),
            snapshot: WfeSnapshot::default(),
            since_cleanup: 0,
            alloc_counter: 0,
        }
    }

    /// The domain this handle belongs to.
    pub fn domain(&self) -> &Arc<Wfe> {
        &self.domain
    }

    /// One cleanup pass of the batch scan protocol (the shared
    /// `wfe_reclaim::retired::cleanup_pass` with the Figure-4 snapshot).
    fn cleanup(&mut self) {
        self.since_cleanup = 0;
        let domain = &self.domain;
        let shard = domain.caches.shard(self.cache_shard);
        // SAFETY: every block in `self.retired` was retired by this handle
        // after being unlinked, and the snapshot closure reads the domain's
        // own reservation array — the batch-scan safety argument in
        // `wfe_reclaim::retired::cleanup_pass` applies verbatim.
        unsafe {
            wfe_reclaim::retired::cleanup_pass(
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

    /// The slow path of `get_protected` (Figure 4, lines 26-53): publish a
    /// help request and keep retrying until either this thread manages to
    /// cancel the request after observing a stable era, or a helper delivers
    /// the result. Bounded by the number of in-flight era increments
    /// (Lemma 1).
    #[cold]
    fn protect_slow(
        &mut self,
        src: &AtomicUsize,
        index: usize,
        parent: *mut BlockHeader,
        mut prev_era: u64,
    ) -> usize {
        let domain = &self.domain;
        domain.counters.on_slow_path();

        // Fetch the parent's era so helpers can pin the block that contains
        // the hazardous location (lines 26-27).
        let parent_alloc_era = if parent.is_null() {
            ERA_INF
        } else {
            // SAFETY: non-null `parent` is the caller-protected block
            // that contains the hazardous location, so it is live for the
            // whole slow-path call.
            unsafe { (*parent).alloc_era() }
        };

        // Announce the request (lines 29-33). The order matters: the request
        // only becomes visible to helpers when `result` flips to
        // `(INVPTR, tag)`, so every other field must already be in place.
        domain.counter_start.fetch_add(1, Ordering::SeqCst);
        let state = domain.state.get(self.tid, index);
        state
            .pointer
            .store(src as *const AtomicUsize as usize, Ordering::SeqCst);
        state.era.store(parent_alloc_era, Ordering::SeqCst);
        let reservation = domain.reservations.get(self.tid, index);
        let tag = reservation.load_second(Ordering::SeqCst);
        state.result.store((INVPTR, tag));

        // Lines 34-49. Bounded by the number of threads already inside
        // `increment_era` (each may bump the era once before noticing us).
        let result_value;
        let result_era;
        loop {
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = domain.era();
            if prev_era == new_era
                && state
                    .result
                    .compare_exchange((INVPTR, tag), (0, ERA_INF))
                    .is_ok()
            {
                // Nobody helped yet and the era is stable: cancel the request
                // and finish on our own (lines 38-41).
                reservation.store_second(tag + 1, Ordering::SeqCst);
                domain.counter_end.fetch_add(1, Ordering::SeqCst);
                return value;
            }
            // Keep our reservation up to date while waiting. The WCAS only
            // fails if a helper already published the final era for this
            // cycle, in which case the loop is about to exit (lines 44-45).
            let _ = reservation.compare_exchange((prev_era, tag), (new_era, tag));
            prev_era = new_era;
            let produced = state.result.load();
            if produced.0 != INVPTR {
                result_value = produced.0;
                result_era = produced.1;
                break;
            }
        }

        // A helper produced the result: adopt the era it protected the value
        // under and close the slow-path cycle (lines 50-53). The helper may
        // have already written the same reservation values on our behalf.
        reservation.store_first(result_era, Ordering::SeqCst);
        reservation.store_second(tag + 1, Ordering::SeqCst);
        domain.counter_end.fetch_add(1, Ordering::SeqCst);
        result_value as usize
    }
}

// SAFETY: `thread_id` is unique per live handle (allocated by the domain's
// slot bitmap and released on drop), and `protect`/`protect_fast` only return
// a pointer after validating it against a published reservation.
unsafe impl RawHandle for WfeHandle {
    fn thread_id(&self) -> usize {
        self.tid
    }

    fn slots(&self) -> usize {
        self.domain.app_slots()
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
        parent: *mut BlockHeader,
        _mask: usize,
    ) -> usize {
        debug_assert_slot_index(index, self.slots());
        let domain = &self.domain;
        let reservation = domain.reservations.get(self.tid, index);
        let mut prev_era = reservation.load_first(Ordering::Relaxed); // ORDER: own slot re-read; the publish that matters is the SeqCst store in the loop.

        // Fast path (lines 15-24): identical to Hazard Eras, but bounded.
        let mut attempts = domain.config.fast_path_attempts;
        while attempts > 0 {
            attempts -= 1;
            let value = src.load(Ordering::Acquire); // ORDER: pairs with the Release publish of the pointer being protected.
            let new_era = domain.era();
            if prev_era == new_era {
                return value;
            }
            reservation.store_first(new_era, Ordering::SeqCst);
            prev_era = new_era;
        }

        // The era kept moving: ask for help.
        self.protect_slow(src, index, parent, prev_era)
    }

    // SAFETY: contract inherited from the trait declaration (`# Safety`
    // on `RawHandle::retire_raw`); the obligations are the caller's.
    unsafe fn retire_raw(&mut self, block: *mut BlockHeader) {
        let domain = &self.domain;
        let era = domain.era();
        // SAFETY: the caller's `retire_raw` contract — `block` is a valid,
        // unreachable block retired exactly once — covers both the header
        // stamp and the batch push.
        unsafe {
            (*block).retire_era.store(era, Ordering::Release); // ORDER: stamps the header before the push that makes it scannable.
            self.retired.push(block);
        }
        domain.counters.on_retire();
        self.since_cleanup += 1;
        if self.since_cleanup >= domain.config.cleanup_freq {
            // Figure 4, lines 80-82: advance the clock (helping first) only if
            // it has not moved since this block was stamped, then scan.
            // SAFETY: same contract — the header is valid for the whole call.
            if unsafe { (*block).retire_era() } == domain.era() {
                domain.increment_era(self.tid);
            }
            self.cleanup();
        }
    }

    fn clear(&mut self) {
        // Only the application-visible slots are cleared; the two internal
        // slots belong to the helping machinery. The slow-path tag (second
        // word) must survive, so only the era word is reset.
        for slot in 0..self.domain.app_slots() {
            self.domain
                .reservations
                .get(self.tid, slot)
                .store_first(ERA_INF, Ordering::Release); // ORDER: withdraws the era reservations; pairs with the snapshot's Acquire loads.
        }
    }

    fn pre_alloc(&mut self) -> u64 {
        let domain = &self.domain;
        domain.counters.on_alloc();
        self.alloc_counter += 1;
        if self.alloc_counter % domain.config.era_freq == 0 {
            // Figure 4, lines 69-71: help pending readers before advancing.
            domain.increment_era(self.tid);
        }
        domain.era()
    }

    fn force_cleanup(&mut self) {
        self.domain.increment_era(self.tid);
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

impl Drop for WfeHandle {
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
    use core::ptr;
    use std::sync::Arc as StdArc;
    use wfe_reclaim::api::{Progress, Reclaimer, ReclaimerConfig};
    use wfe_reclaim::conformance;
    use wfe_reclaim::{Atomic, Handle, Linked};
    use wfe_sync::atomic::AtomicBool;

    #[test]
    fn naming_and_progress() {
        assert_eq!(Wfe::name(), "WFE");
        assert_eq!(Wfe::progress(), Progress::WaitFree);
    }

    #[test]
    fn basic_lifecycle() {
        conformance::basic_lifecycle::<Wfe>();
    }

    #[test]
    fn protection_blocks_reclamation() {
        conformance::protection_blocks_reclamation::<Wfe>();
    }

    #[test]
    fn all_blocks_freed_on_drop() {
        conformance::all_blocks_freed_on_drop::<Wfe>();
    }

    #[test]
    fn concurrent_stack_stress() {
        conformance::concurrent_stack_stress::<Wfe>(4, 2_000);
    }

    #[test]
    fn unreclaimed_is_bounded() {
        conformance::unreclaimed_is_bounded::<Wfe>(4_000);
    }

    #[test]
    fn stalled_reader_costs_passes_nothing() {
        conformance::stalled_reader_costs_passes_nothing::<Wfe>();
    }

    #[test]
    fn orphan_adoption() {
        conformance::orphan_adoption_reclaims_exited_threads_blocks::<Wfe>(true);
    }

    #[test]
    fn fast_path_returns_without_touching_counters() {
        let domain = Wfe::with_config(ReclaimerConfig::with_max_threads(1));
        let mut handle = domain.register();
        let node = handle.alloc(5u64);
        let root: Atomic<u64> = Atomic::new(node);
        let seen = handle.protect(&root, 0, ptr::null_mut());
        assert_eq!(seen, node);
        assert_eq!(domain.stats().slow_path, 0);
        // SAFETY: test-owned block, unlinked and freed exactly once.
        unsafe { Linked::dealloc(node) };
    }

    #[test]
    fn slow_path_self_cancel_completes() {
        // With a single fast-path attempt, making the era move right before
        // the call forces the slow path; with no other thread running the
        // requester must cancel its own request and still return the right
        // pointer, leaving the counters balanced and the tag advanced.
        let domain = Wfe::with_config(ReclaimerConfig {
            fast_path_attempts: 1,
            ..ReclaimerConfig::with_max_threads(2)
        });
        let mut handle = domain.register();
        let node = handle.alloc(7u64);
        let root: Atomic<u64> = Atomic::new(node);

        // First protect publishes the current era; then the era moves so the
        // single fast-path attempt cannot observe a stable clock.
        let _ = handle.protect(&root, 0, ptr::null_mut());
        domain.increment_era(handle.thread_id());

        let tag_before = domain
            .reservations
            .get(handle.thread_id(), 0)
            .load_second(Ordering::SeqCst);
        let seen = handle.protect(&root, 0, ptr::null_mut());
        assert_eq!(seen, node);
        let stats = domain.stats();
        assert!(stats.slow_path >= 1, "slow path was taken");
        assert_eq!(
            domain.counter_start.load(Ordering::SeqCst),
            domain.counter_end.load(Ordering::SeqCst),
            "slow-path cycle was closed"
        );
        let tag_after = domain
            .reservations
            .get(handle.thread_id(), 0)
            .load_second(Ordering::SeqCst);
        assert_eq!(tag_after, tag_before + 1, "tag advanced after the cycle");
        // SAFETY: test-owned block, unlinked and freed exactly once.
        unsafe { Linked::dealloc(node) };
    }

    #[test]
    fn forced_slow_path_stress_with_hostile_era_bumper() {
        // The paper validates WFE by forcing the slow path to be taken all the
        // time; here the reader gets a single fast-path attempt while another
        // thread bumps the era as fast as it can (every allocation), so a
        // large fraction of reads must go through the help machinery.
        let domain = Wfe::with_config(ReclaimerConfig {
            fast_path_attempts: 1,
            era_freq: 1,
            cleanup_freq: 4,
            ..ReclaimerConfig::with_max_threads(3)
        });
        let stop = StdArc::new(AtomicBool::new(false));
        let stack = conformance::MiniStack::new();

        std::thread::scope(|scope| {
            // Hostile era bumper: allocates (and immediately retires) blocks,
            // advancing the era on every allocation.
            {
                let domain = StdArc::clone(&domain);
                let stop = StdArc::clone(&stop);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    while !stop.load(Ordering::Relaxed) {
                        let ptr = handle.alloc(0u64);
                        // SAFETY: `ptr` was just allocated by this handle and never
                        // published, so retiring it here is its only retire.
                        unsafe { handle.retire(ptr) };
                    }
                });
            }
            // Two readers/writers hammering the stack through get_protected.
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let domain = StdArc::clone(&domain);
                    let stack = &stack;
                    scope.spawn(move || {
                        let mut handle = domain.register();
                        for i in 0..20_000 {
                            if i % 2 == 0 {
                                stack.push(&mut handle, i, None);
                            } else {
                                stack.pop(&mut handle);
                            }
                        }
                    })
                })
                .collect();
            // Let the workers finish under hostile era movement, then stop the
            // bumper.
            for worker in workers {
                worker.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });

        let stats = domain.stats();
        assert!(
            stats.slow_path > 0,
            "slow path exercised under forced conditions"
        );
        assert_eq!(
            domain.counter_start.load(Ordering::SeqCst),
            domain.counter_end.load(Ordering::SeqCst),
            "every slow-path cycle was closed"
        );
    }
}
