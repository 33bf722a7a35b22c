//! Dense thread-slot registry.
//!
//! Every scheme in the suite (like the paper and the IBR benchmark harness)
//! assumes a bounded number of participating threads, `max_threads`, and gives
//! each registered thread a dense index into the per-thread reservation
//! arrays. The registry hands out those indices — always the lowest free one,
//! so indices stay dense — and recycles them when a thread's handle is
//! dropped.
//!
//! Cleanup scans walk the rows `0..high_water()`: the mark is one past the
//! highest index ever handed out, so a row beyond it was never written. The
//! registry keeps one claim flag per slot and that mark, nothing else.

use wfe_sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Allocator of dense thread indices in `0..max_threads`.
// LAYOUT: registration and handle drop are the only writers of either field,
// and both are rare next to the scans that read `high_water`; the flags of
// neighbouring slots share lines on purpose, so a first-fit probe over a
// dense prefix touches one or two lines.
#[derive(Debug)]
pub struct ThreadRegistry {
    /// One claim flag per slot: `true` while a handle holds the slot.
    claimed: Box<[AtomicBool]>,
    /// One past the highest slot index ever handed out; only grows.
    high_water: AtomicUsize,
}

impl ThreadRegistry {
    /// Creates a registry with `max_threads` slots.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0, "max_threads must be at least 1");
        Self {
            claimed: (0..max_threads).map(|_| AtomicBool::new(false)).collect(),
            high_water: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.claimed.len()
    }

    /// One past the highest slot index ever acquired. A scan over the slots
    /// (every cleanup pass's snapshot fill, the sum behind `stats()`) stops
    /// here: per-slot state beyond it was never written. The mark only grows,
    /// and it covers a slot before [`try_acquire`](Self::try_acquire) returns
    /// that slot's index.
    pub fn high_water(&self) -> usize {
        // ORDER: SeqCst, paired with the SeqCst `fetch_max` in `try_acquire`.
        // A thread raises the mark before its first SeqCst reservation store,
        // so a scan that misses the mark also misses every reservation that
        // thread publishes later; those can only concern blocks still
        // reachable when the scan read the mark, never the retired blocks it
        // judges (the batch scan protocol's argument, see `crate::scan`).
        self.high_water.load(Ordering::SeqCst)
    }

    /// Claims the lowest free slot, or returns `None` when every slot is
    /// taken, so callers can degrade gracefully (shed the thread, queue the
    /// work) instead of panicking.
    pub fn try_acquire(&self) -> Option<usize> {
        let idx = self.claimed.iter().position(|flag| {
            !flag.load(Ordering::Relaxed) // ORDER: optimistic pre-check; the CAS decides.
                && flag
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed) // ORDER: success pairs with the Release store in `release`, so the slot's previous owner is done with it; failure probes on.
                    .is_ok()
        })?;
        self.high_water.fetch_max(idx + 1, Ordering::SeqCst);
        Some(idx)
    }

    /// Claims the lowest free slot.
    ///
    /// # Panics
    ///
    /// Panics if more than `max_threads` handles are alive simultaneously —
    /// the same error condition the original C++ schemes treat as a
    /// configuration bug. Use [`try_acquire`](Self::try_acquire) to handle
    /// exhaustion without panicking.
    pub fn acquire(&self) -> usize {
        self.try_acquire().unwrap_or_else(|| {
            panic!(
                "thread registry exhausted: more than {} concurrent handles; \
                 raise DomainConfig::max_threads",
                self.capacity()
            )
        })
    }

    /// Returns a slot to the free pool. Callers clear every reservation of
    /// the slot first (handle teardown does).
    pub fn release(&self, idx: usize) {
        debug_assert!(
            self.claimed[idx].load(Ordering::Relaxed), // ORDER: debug check of the caller's own claim.
            "releasing a slot that was not acquired"
        );
        self.claimed[idx].store(false, Ordering::Release); // ORDER: pairs with the Acquire claim CAS in `try_acquire`.
    }

    /// Number of currently registered threads.
    pub fn registered(&self) -> usize {
        self.claimed[..self.high_water()]
            .iter()
            .filter(|flag| flag.load(Ordering::Relaxed)) // ORDER: a monitoring count; no data is read through it.
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Arc;

    #[test]
    fn acquire_release_recycles_slots() {
        let reg = ThreadRegistry::new(2);
        let a = reg.acquire();
        let b = reg.acquire();
        assert_eq!((a, b), (0, 1), "first fit hands out dense indices");
        assert_eq!(reg.registered(), 2);
        reg.release(a);
        assert_eq!(reg.acquire(), a, "released slot is found again");
        reg.release(b);
        reg.release(a);
        assert_eq!(reg.registered(), 0);
    }

    #[test]
    fn try_acquire_returns_none_when_exhausted() {
        let reg = ThreadRegistry::new(2);
        let a = reg.try_acquire().unwrap();
        let b = reg.try_acquire().unwrap();
        assert_ne!(a, b);
        assert_eq!(reg.try_acquire(), None, "no panic, graceful degradation");
        reg.release(a);
        assert_eq!(reg.try_acquire(), Some(a), "released slot usable again");
    }

    #[test]
    #[should_panic(
        expected = "thread registry exhausted: more than 2 concurrent handles; raise DomainConfig::max_threads"
    )]
    fn exhaustion_panics() {
        let reg = ThreadRegistry::new(2);
        let _a = reg.acquire();
        let _b = reg.acquire();
        let _c = reg.acquire();
    }

    #[test]
    fn concurrent_acquisition_yields_unique_indices() {
        const THREADS: usize = 16;
        let reg = Arc::new(ThreadRegistry::new(THREADS));
        let mut joins = Vec::new();
        for _ in 0..THREADS {
            let reg = reg.clone();
            joins.push(std::thread::spawn(move || reg.acquire()));
        }
        let ids: HashSet<usize> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        assert_eq!(
            ids,
            (0..THREADS).collect(),
            "all indices distinct and dense"
        );
        assert_eq!(reg.high_water(), THREADS);
    }

    #[test]
    #[should_panic(expected = "max_threads must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = ThreadRegistry::new(0);
    }

    #[test]
    fn high_water_covers_every_slot_ever_acquired_and_never_falls() {
        let reg = ThreadRegistry::new(8);
        assert_eq!(reg.high_water(), 0);
        let mut top = 0;
        for held in [3, 1, 5, 2, 5, 0, 4] {
            let slots: Vec<usize> = (0..held).map(|_| reg.acquire()).collect();
            top = top.max(held);
            assert_eq!(reg.high_water(), top);
            slots.into_iter().for_each(|idx| reg.release(idx));
            assert_eq!(reg.high_water(), top, "releasing lowers nothing");
        }
    }

    #[test]
    fn high_water_is_the_peak_of_concurrent_registrations_under_churn() {
        // First fit reuses the lowest free slot: with `m` slots held, one of
        // `0..=m` is free, so no acquire reaches past the number of slots
        // held right after it, whatever order the holders release in.
        let reg = ThreadRegistry::new(16);
        let (mut held, mut peak) = (Vec::new(), 0);
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if held.len() < 12 && (held.is_empty() || state % 3 != 0) {
                held.push(reg.acquire());
                peak = peak.max(held.len());
            } else {
                let idx = held.swap_remove(state as usize % held.len());
                reg.release(idx);
            }
            assert_eq!(reg.high_water(), peak);
            assert_eq!(reg.registered(), held.len());
        }
        assert_eq!(peak, 12, "the walk reached its cap");
    }

    #[test]
    fn churn_stress() {
        // More threads than slots, acquiring and releasing: indices stay
        // unique among concurrently held slots and every slot is returned.
        const THREADS: usize = 8;
        const SLOTS: usize = 6;
        const ROUNDS: usize = 2_000;
        let reg = ThreadRegistry::new(SLOTS);
        let held: Vec<AtomicBool> = (0..SLOTS).map(|_| AtomicBool::new(false)).collect();
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        // With 8 threads over 6 slots some acquires must
                        // fail; both outcomes are exercised.
                        if let Some(idx) = reg.try_acquire() {
                            assert!(
                                !held[idx].swap(true, Ordering::SeqCst),
                                "slot {idx} held twice"
                            );
                            if round % 7 == 0 {
                                std::thread::yield_now();
                            }
                            held[idx].store(false, Ordering::SeqCst);
                            reg.release(idx);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(reg.registered(), 0, "every slot returned after the churn");
    }
}
