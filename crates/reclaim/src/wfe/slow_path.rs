//! The slow path of `get_protected` (Figure 4, lines 26-53): what a reader
//! does once the bounded fast path has run out of attempts.

use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::block::{BlockHeader, ERA_INF, INVPTR};

use super::domain::{WfeCell, WfePolicy};

impl WfePolicy {
    /// The slow path of `get_protected` (Figure 4, lines 26-53): publish a
    /// help request and keep retrying until either this thread manages to
    /// cancel the request after observing a stable era, or a helper delivers
    /// the result. Bounded by the number of in-flight era increments
    /// (Lemma 1).
    #[cold]
    pub(crate) fn protect_slow(
        cell: &WfeCell,
        src: &AtomicUsize,
        parent: *mut BlockHeader,
        mut prev_era: u64,
    ) -> usize {
        let (domain, reservation) = (cell.domain.get(), cell.reservation.get());
        let this = domain.policy();
        domain.slot_counters(cell.tid).on_slow_path();

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
        this.counter_start.fetch_add(1, Ordering::SeqCst);
        let state = this.state.get(cell.tid, cell.index);
        state
            .pointer
            .store(src as *const AtomicUsize as usize, Ordering::SeqCst);
        state.era.store(parent_alloc_era, Ordering::SeqCst);
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
                this.counter_end.fetch_add(1, Ordering::SeqCst);
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
        this.counter_end.fetch_add(1, Ordering::SeqCst);
        result_value as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DomainConfig, RawHandle, Reclaimer};
    use crate::conformance;
    use crate::Wfe;
    use crate::{Atomic, Handle, Linked};
    use core::ptr;
    use std::sync::Arc as StdArc;
    use wfe_sync::atomic::AtomicBool;

    #[test]
    fn fast_path_returns_without_touching_counters() {
        let domain = Wfe::with_config(DomainConfig::with_max_threads(1));
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
        let domain = Wfe::with_config(DomainConfig {
            fast_path_attempts: 1,
            ..DomainConfig::with_max_threads(2)
        });
        let mut handle = domain.register();
        let node = handle.alloc(7u64);
        let root: Atomic<u64> = Atomic::new(node);

        // First protect publishes the current era; then the era moves so the
        // single fast-path attempt cannot observe a stable clock.
        let _ = handle.protect(&root, 0, ptr::null_mut());
        WfePolicy::increment_era(&domain, handle.thread_id());

        let tag_before = domain
            .policy()
            .reservations
            .get(handle.thread_id(), 0)
            .load_second(Ordering::SeqCst);
        let seen = handle.protect(&root, 0, ptr::null_mut());
        assert_eq!(seen, node);
        let stats = domain.stats();
        assert!(stats.slow_path >= 1, "slow path was taken");
        assert_eq!(
            domain.policy().counter_start.load(Ordering::SeqCst),
            domain.policy().counter_end.load(Ordering::SeqCst),
            "slow-path cycle was closed"
        );
        let tag_after = domain
            .policy()
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
        let domain = Wfe::with_config(DomainConfig {
            fast_path_attempts: 1,
            era_freq: 1,
            cleanup_freq: 4,
            ..DomainConfig::with_max_threads(3)
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
            domain.policy().counter_start.load(Ordering::SeqCst),
            domain.policy().counter_end.load(Ordering::SeqCst),
            "every slow-path cycle was closed"
        );
    }
}
