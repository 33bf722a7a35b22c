//! Sharded thread-slot registry.
//!
//! Every scheme in the suite (like the paper and the IBR benchmark harness)
//! assumes a bounded number of participating threads, `max_threads`, and gives
//! each registered thread a dense index into the per-thread reservation
//! arrays. The registry hands out those indices and recycles them when a
//! thread's handle is dropped.
//!
//! The slot space is split into cache-line-padded **shards** so that sockets
//! (and, under task churn, executor workers) do not contend on one contiguous
//! region:
//!
//! * each acquiring thread probes its **home shard** first — a per-thread
//!   ordinal maps every OS thread to a fixed shard, so repeated
//!   acquire/release cycles from the same thread stay on the same cache
//!   lines — and falls back to **work-stealing** from the other shards only
//!   when the home shard is full;
//! * each shard maintains an **occupancy counter**, updated with sequentially
//!   consistent RMWs, that cleanup scans use to skip wholly-idle shards
//!   without touching their reservation rows (see
//!   [`occupied_ranges`](ThreadRegistry::occupied_ranges) for why the skip
//!   can never hide a live reservation);
//! * within a shard, acquisition starts from a rotating hint, so a burst of
//!   registrations (the cold-start pattern of every benchmark run) is O(1)
//!   per thread uncontended.
//!
//! The shard count defaults to the host's available parallelism (capped by
//! `max_threads`) and can be pinned through
//! [`DomainConfig::shards`](crate::api::DomainConfig).

use core::ops::Range;
use wfe_sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use wfe_sync::CachePadded;

/// One cache-line-padded shard of the slot space.
#[derive(Debug)]
struct Shard {
    /// Acquisition state of each slot in this shard.
    slots: Box<[CachePadded<AtomicBool>]>,
    /// Number of currently acquired slots in this shard. Incremented *after*
    /// winning a slot and decremented *after* the releasing thread has
    /// cleared its reservations, so `occupancy == 0` implies every
    /// reservation row of the shard reads as empty (the shard-skip safety
    /// condition).
    occupancy: CachePadded<AtomicUsize>,
    /// Rotating start hint for the next acquire within this shard.
    hint: CachePadded<AtomicUsize>,
}

impl Shard {
    fn new(len: usize) -> Self {
        Self {
            slots: (0..len)
                .map(|_| CachePadded::new(AtomicBool::new(false)))
                .collect(),
            occupancy: CachePadded::new(AtomicUsize::new(0)),
            hint: CachePadded::new(AtomicUsize::new(0)),
        }
    }
}

/// Returns a small dense ordinal for the calling thread, assigned on first
/// use. Used to pick a stable home shard per OS thread.
fn thread_ordinal() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static ORDINAL: Cell<Option<usize>> = const { Cell::new(None) };
    }
    ORDINAL.with(|ordinal| match ordinal.get() {
        Some(value) => value,
        None => {
            let value = NEXT.fetch_add(1, Ordering::Relaxed); // ORDER: process-wide ordinal; only uniqueness matters.
            ordinal.set(Some(value));
            value
        }
    })
}

/// Sharded allocator of dense thread indices in `0..max_threads`.
// LAYOUT: everything a registration writes per shard is padded inside
// `Shard`; `high_water` moves only when a slot index is handed out for the
// first time and shares its line with geometry nobody writes.
#[derive(Debug)]
pub struct ThreadRegistry {
    shards: Box<[Shard]>,
    /// Slots per shard (every shard except possibly the last is this big).
    shard_size: usize,
    capacity: usize,
    /// One past the highest slot index ever handed out; only grows.
    high_water: AtomicUsize,
}

impl ThreadRegistry {
    /// Creates a registry with `max_threads` slots and an automatically
    /// chosen shard count (the host's available parallelism, capped by
    /// `max_threads`).
    pub fn new(max_threads: usize) -> Self {
        Self::with_shards(max_threads, 0)
    }

    /// Creates a registry with `max_threads` slots split over `shards`
    /// shards (`0` = choose automatically from available parallelism). The
    /// shard count is clamped to `1..=max_threads`.
    pub fn with_shards(max_threads: usize, shards: usize) -> Self {
        assert!(max_threads > 0, "max_threads must be at least 1");
        let shards = if shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            shards
        }
        .clamp(1, max_threads);
        let shard_size = max_threads.div_ceil(shards);
        // `shard_size` rounding can make trailing shards redundant; drop them.
        let shards = max_threads.div_ceil(shard_size);
        let built = (0..shards)
            .map(|shard| {
                let start = shard * shard_size;
                let end = (start + shard_size).min(max_threads);
                Shard::new(end - start)
            })
            .collect();
        Self {
            shards: built,
            shard_size,
            capacity: max_threads,
            high_water: AtomicUsize::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// One past the highest slot index ever acquired: per-slot state beyond
    /// it (the domain's [`SlotCounters`](crate::stats::SlotCounters)) was
    /// never written, so readers that sum over slots stop here. The mark only
    /// grows, and it covers a slot before [`try_acquire`](Self::try_acquire)
    /// returns that slot's index.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Acquire) // ORDER: pairs with the AcqRel `fetch_max` in `try_acquire_in`.
    }

    /// Number of shards the slot space is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The global slot-index range covered by `shard`.
    pub fn shard_range(&self, shard: usize) -> Range<usize> {
        let start = shard * self.shard_size;
        start..(start + self.shards[shard].slots.len())
    }

    /// The shard a global slot index belongs to.
    pub fn shard_of(&self, idx: usize) -> usize {
        debug_assert!(idx < self.capacity);
        idx / self.shard_size
    }

    /// Number of currently acquired slots in `shard`.
    pub fn shard_occupancy(&self, shard: usize) -> usize {
        self.shards[shard].occupancy.load(Ordering::SeqCst)
    }

    /// Number of shards with at least one acquired slot.
    pub fn occupied_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|shard| shard.occupancy.load(Ordering::SeqCst) != 0)
            .count()
    }

    /// Iterates over the slot-index ranges of every shard that currently has
    /// at least one acquired slot. Cleanup scans walk these ranges instead of
    /// `0..capacity`, skipping wholly-idle shards.
    ///
    /// Skipping is safe — a reservation in shard *N* is never missed:
    /// occupancy is incremented (SeqCst) *before* the owning thread can
    /// publish any reservation and decremented (SeqCst) only *after* the
    /// handle teardown has cleared its rows. A scan that reads `occupancy ==
    /// 0` therefore either observes the decrement (and, through its
    /// release/acquire edge, the preceding row clear) or precedes the
    /// increment in the single total order of SeqCst operations — in which
    /// case every later reservation store by that thread is also absent, and
    /// reading the rows would have found them empty anyway. Reservations
    /// published *after* the scan's loads can only concern blocks that were
    /// still reachable then, never the already-retired blocks being scanned
    /// (the batch scan protocol's standing argument, see [`crate::scan`]).
    pub fn occupied_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.shards.iter().enumerate().filter_map(|(idx, shard)| {
            if shard.occupancy.load(Ordering::SeqCst) != 0 {
                Some(self.shard_range(idx))
            } else {
                None
            }
        })
    }

    /// Tries to claim a free slot within one shard.
    fn try_acquire_in(&self, shard_idx: usize) -> Option<usize> {
        let shard = &self.shards[shard_idx];
        let len = shard.slots.len();
        // Fast skip of full shards without touching their slot lines.
        // ORDER: full-shard fast skip; a stale value only misroutes the probe.
        if shard.occupancy.load(Ordering::Relaxed) >= len {
            return None;
        }
        let start = shard.hint.fetch_add(1, Ordering::Relaxed) % len; // ORDER: rotation hint only; no data is ordered by it.
        for probe in 0..len {
            let offset = (start + probe) % len;
            let slot = &shard.slots[offset];
            if !slot.load(Ordering::Relaxed) // ORDER: optimistic pre-check; the CAS below decides.
                && slot
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed) // ORDER: success publishes the slot claim; failure just probes on.
                    .is_ok()
            {
                // SeqCst so a concurrent scan that misses this increment
                // cannot observe any reservation published after it
                // (shard-skip safety; see `occupied_ranges`).
                shard.occupancy.fetch_add(1, Ordering::SeqCst);
                let idx = shard_idx * self.shard_size + offset;
                // One RMW whatever `idx` is (a registration, not the hot
                // path): the number of steps must not depend on which slot
                // was won, or bounded-exhaustive model schedules would not
                // replay.
                // ORDER: raises the mark before the slot's new owner writes anything a reader could find beyond it; pairs with the Acquire load in `high_water`.
                self.high_water.fetch_max(idx + 1, Ordering::AcqRel);
                return Some(idx);
            }
        }
        None
    }

    /// Claims a free slot, or returns `None` when every slot is taken, so
    /// callers can degrade gracefully (shed the thread, queue the work)
    /// instead of panicking.
    ///
    /// The probe starts at the calling thread's home shard (a stable
    /// per-thread assignment) and steals from the other shards only when the
    /// home shard is full, so the uncontended cost is one load plus one CAS
    /// on lines no other shard's threads write.
    pub fn try_acquire(&self) -> Option<usize> {
        let shard_count = self.shards.len();
        let home = thread_ordinal() % shard_count;
        for probe in 0..shard_count {
            let shard = (home + probe) % shard_count;
            if let Some(idx) = self.try_acquire_in(shard) {
                return Some(idx);
            }
        }
        None
    }

    /// Claims a free slot.
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
                self.capacity
            )
        })
    }

    /// Returns a slot to the free pool.
    ///
    /// Callers must have cleared every reservation of the slot first (handle
    /// teardown does); the occupancy decrement is what lets scans skip the
    /// shard afterwards.
    pub fn release(&self, idx: usize) {
        let shard = &self.shards[self.shard_of(idx)];
        // Occupancy is decremented *before* the slot bit is published free:
        // the full-shard fast skip in `try_acquire_in` must never observe a
        // durably freed slot behind a stale "full" counter (a probe that
        // races the window between the two stores merely retries elsewhere,
        // exactly as it would against the pre-shard registry). Scan safety is
        // unaffected — the reservation rows were cleared before this call.
        shard.occupancy.fetch_sub(1, Ordering::SeqCst);
        let was = shard.slots[idx % self.shard_size].swap(false, Ordering::AcqRel); // ORDER: pairs with the AcqRel claim CAS; the SeqCst occupancy store above carries scan safety.
        debug_assert!(was, "releasing a slot that was not acquired");
    }

    /// Number of currently registered threads.
    pub fn registered(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.occupancy.load(Ordering::SeqCst))
            .sum()
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
        assert_ne!(a, b);
        assert_eq!(reg.registered(), 2);
        reg.release(a);
        // With the registry full except for `a`, the stealing probe must find
        // it again regardless of which shard it lives in.
        let c = reg.acquire();
        assert_eq!(c, a, "released slot is found again");
        reg.release(b);
        reg.release(c);
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
    #[should_panic(expected = "thread registry exhausted")]
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
        assert_eq!(ids.len(), THREADS, "all indices distinct");
        assert!(ids.iter().all(|&i| i < THREADS));
    }

    #[test]
    #[should_panic(expected = "max_threads must be at least 1")]
    fn zero_capacity_rejected() {
        let _ = ThreadRegistry::new(0);
    }

    #[test]
    fn shard_geometry_covers_the_slot_space_exactly() {
        for (capacity, shards) in [(1, 1), (2, 2), (7, 3), (8, 4), (128, 0), (5, 64)] {
            let reg = ThreadRegistry::with_shards(capacity, shards);
            assert_eq!(reg.capacity(), capacity);
            assert!(reg.shard_count() >= 1 && reg.shard_count() <= capacity);
            // The shard ranges partition 0..capacity without gaps or overlap.
            let mut covered = 0;
            for shard in 0..reg.shard_count() {
                let range = reg.shard_range(shard);
                assert_eq!(range.start, covered, "ranges are contiguous");
                assert!(!range.is_empty(), "no empty shard");
                for idx in range.clone() {
                    assert_eq!(reg.shard_of(idx), shard);
                }
                covered = range.end;
            }
            assert_eq!(covered, capacity);
        }
    }

    #[test]
    fn high_water_covers_every_slot_ever_acquired_and_never_falls() {
        let reg = ThreadRegistry::with_shards(8, 2);
        assert_eq!(reg.high_water(), 0);
        let mut top = 0;
        for _ in 0..20 {
            let held: Vec<usize> = (0..3).map(|_| reg.acquire()).collect();
            top = top.max(held.iter().max().unwrap() + 1);
            assert_eq!(reg.high_water(), top);
            held.into_iter().for_each(|idx| reg.release(idx));
            assert_eq!(reg.high_water(), top, "releasing lowers nothing");
        }
        assert!(top <= reg.capacity());
    }

    #[test]
    fn explicit_shard_count_is_honoured() {
        let reg = ThreadRegistry::with_shards(8, 4);
        assert_eq!(reg.shard_count(), 4);
        assert_eq!(reg.shard_range(0), 0..2);
        assert_eq!(reg.shard_range(3), 6..8);
    }

    #[test]
    fn occupancy_tracks_acquires_per_shard() {
        let reg = ThreadRegistry::with_shards(8, 4);
        assert_eq!(reg.occupied_shards(), 0);
        assert_eq!(reg.occupied_ranges().count(), 0);
        let idx = reg.acquire();
        let shard = reg.shard_of(idx);
        assert_eq!(reg.shard_occupancy(shard), 1);
        assert_eq!(reg.occupied_shards(), 1);
        let ranges: Vec<_> = reg.occupied_ranges().collect();
        assert_eq!(ranges, vec![reg.shard_range(shard)]);
        reg.release(idx);
        assert_eq!(reg.occupied_shards(), 0);
    }

    #[test]
    fn home_shard_is_stable_and_acquires_stay_local_until_full() {
        // A single thread acquiring repeatedly stays inside one shard until
        // that shard is full, then steals from the others.
        let reg = ThreadRegistry::with_shards(8, 4);
        let a = reg.acquire();
        let b = reg.acquire();
        assert_eq!(
            reg.shard_of(a),
            reg.shard_of(b),
            "home shard reused while it has space"
        );
        let c = reg.acquire();
        assert_ne!(
            reg.shard_of(c),
            reg.shard_of(a),
            "full home shard falls back to stealing"
        );
        // Occupancy reflects the two shards in use.
        assert_eq!(reg.registered(), 3);
        assert_eq!(reg.occupied_shards(), 2);
        for idx in [a, b, c] {
            reg.release(idx);
        }
    }

    #[test]
    fn cross_shard_churn_stress() {
        // Many threads acquiring and releasing against a deliberately small,
        // heavily sharded registry: indices must stay unique among
        // concurrently held slots and every slot must be returned.
        const THREADS: usize = 8;
        const ROUNDS: usize = 2_000;
        let reg = Arc::new(ThreadRegistry::with_shards(6, 3));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // With 8 threads over 6 slots some acquires must
                        // fail; both outcomes are exercised.
                        if let Some(idx) = reg.try_acquire() {
                            assert!(idx < reg.capacity());
                            if round % 7 == 0 {
                                std::thread::yield_now();
                            }
                            reg.release(idx);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        assert_eq!(reg.registered(), 0, "every slot returned after the churn");
        assert_eq!(reg.occupied_shards(), 0);
    }
}
