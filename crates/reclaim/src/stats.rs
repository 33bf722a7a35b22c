//! Reclamation statistics.
//!
//! The paper's second metric ("average number of unreclaimed objects per
//! operation", Figures 5b/5d and the right-hand plots of Figures 6–11)
//! requires every scheme to expose how many retired blocks have not yet been
//! freed. The counters here are kept by all schemes and sampled by the
//! benchmark harness.
//!
//! Counting must not cost the hot path a shared cache line, so there is no
//! domain-wide counter: every registry slot has its own [`SlotCounters`]
//! block, written only by the handle that currently holds the slot, and a
//! reader ([`snapshot`]) sums the blocks.

use wfe_sync::atomic::{AtomicU64, Ordering};

/// The event counters of one registry slot.
///
/// **Single writer**: only the handle registered in the slot calls the
/// `on_*` methods, so an update is a plain load and store — no
/// read-modify-write, and no other thread ever writes the block's cache
/// line. The registry's release/acquire of the slot orders one owner's last
/// update before the next owner's first, so the values carry over from owner
/// to owner and are never reset: a slot's block is the running total of
/// everything its successive handles did.
// LAYOUT: single writer — the whole 88-byte block is one slot's, and the
// domain pads it as a unit (`Box<[CachePadded<SlotCounters>]>`).
#[derive(Debug, Default)]
pub struct SlotCounters {
    /// Number of blocks allocated through `alloc_block`.
    allocated: AtomicU64,
    /// Number of blocks passed to `retire`.
    retired: AtomicU64,
    /// Number of retired blocks actually freed.
    freed: AtomicU64,
    /// Number of retired blocks judged one by one by cleanup passes (blocks
    /// parked under a witness that is still held are skipped, not judged).
    scanned: AtomicU64,
    /// Number of orphaned batches adopted from exited threads.
    adopted_batches: AtomicU64,
    /// Number of blocks freed while scanning an adopted batch (a subset of
    /// `freed`).
    freed_via_adoption: AtomicU64,
    /// Number of slow-path cycles taken (WFE only; 0 elsewhere).
    slow_path: AtomicU64,
    /// Number of `help_thread` invocations (WFE only; 0 elsewhere).
    helps: AtomicU64,
    /// Cacheable allocations the handle's magazine served without a
    /// refill; folded in once per cleanup pass.
    cache_hits: AtomicU64,
    /// Cacheable allocations that refilled the magazine from the pool;
    /// ditto.
    cache_misses: AtomicU64,
    /// Bytes parked in the handle's magazines when it last reported: a
    /// gauge, stored (not added) once per cleanup pass, zero once the
    /// handle's magazines are drained.
    cached_bytes: AtomicU64,
}

/// The single-writer update: the slot's owner is the only thread that
/// stores to `cell`, so the value it loads is still current when it stores.
#[inline]
fn bump(cell: &AtomicU64, n: u64) {
    let seen = cell.load(Ordering::Relaxed); // ORDER: own counter re-read; no other thread writes it.
    cell.store(seen + n, Ordering::Relaxed); // ORDER: statistics counter only.
}

impl SlotCounters {
    /// Records one `alloc_block` call.
    #[inline]
    pub(crate) fn on_alloc(&self) {
        bump(&self.allocated, 1);
    }

    /// Records one `retire` call.
    #[inline]
    pub(crate) fn on_retire(&self) {
        bump(&self.retired, 1);
    }

    /// Records `n` blocks freed by a cleanup scan.
    #[inline]
    pub(crate) fn on_free(&self, n: u64) {
        if n != 0 {
            let seen = self.freed.load(Ordering::Relaxed); // ORDER: own counter re-read; no other thread writes it.
            self.freed.store(seen + n, Ordering::Release); // ORDER: pairs with the Acquire `freed` loads of `snapshot`: a reader that counts these frees also sees the retirements (by any slot) that preceded them.
        }
    }

    /// Records `n` blocks judged by a cleanup scan.
    #[inline]
    pub(crate) fn on_scan(&self, n: u64) {
        if n != 0 {
            bump(&self.scanned, n);
        }
    }

    /// Records the adoption of one orphaned batch from which `freed` blocks
    /// were reclaimed (the freed blocks must *also* be reported through
    /// [`on_free`](Self::on_free) so `unreclaimed` stays consistent).
    #[inline]
    pub(crate) fn on_adoption(&self, freed: u64) {
        bump(&self.adopted_batches, 1);
        if freed != 0 {
            bump(&self.freed_via_adoption, freed);
        }
    }

    /// Records one slow-path entry (WFE only).
    #[inline]
    pub(crate) fn on_slow_path(&self) {
        bump(&self.slow_path, 1);
    }

    /// Records one helping attempt (WFE only).
    #[inline]
    pub(crate) fn on_help(&self) {
        bump(&self.helps, 1);
    }

    /// Records the block-cache hits and misses a handle's magazine tallied
    /// since its last report, and the bytes it holds now
    /// ([`LocalBlockCache::flush_stats`](crate::cache::LocalBlockCache::flush_stats)).
    #[inline]
    pub(crate) fn on_cache(&self, hits: u64, misses: u64, cached_bytes: u64) {
        if hits != 0 {
            bump(&self.cache_hits, hits);
        }
        if misses != 0 {
            bump(&self.cache_misses, misses);
        }
        self.cached_bytes.store(cached_bytes, Ordering::Relaxed); // ORDER: statistics gauge only.
    }
}

/// Sums the counter blocks of a domain's slots into one report.
///
/// `slots` is called twice and must yield, each time, at least every block
/// that had been written when it was called (the domain passes the slots up
/// to the registry's high-water mark). The first walk reads every `freed`,
/// the second everything else: a block is retired before it is freed, so
/// each free counted by the first walk has its retirement counted by the
/// second. `unreclaimed` is therefore never below the true value at the
/// instant between the two walks, and the subtraction cannot go negative.
/// (Reading `retired` first would miss a retire-and-free that lands between
/// the two loads and under-report.)
///
/// `cached_bytes` sums the gauges: what each slot's handle last reported
/// parked in its magazines.
pub fn snapshot<'a, I>(slots: impl Fn() -> I, era: u64) -> SmrStats
where
    I: Iterator<Item = &'a SlotCounters>,
{
    // ORDER: pairs with the Release store of `on_free`; also keeps the second walk's loads after these.
    let freed: u64 = slots().map(|slot| slot.freed.load(Ordering::Acquire)).sum();
    let mut stats = SmrStats {
        freed,
        era,
        ..SmrStats::default()
    };
    for slot in slots() {
        stats.allocated += slot.allocated.load(Ordering::Relaxed); // ORDER: statistics counter only.
        stats.retired += slot.retired.load(Ordering::Relaxed); // ORDER: ordered after the `freed` walk by its Acquire loads.
        stats.scanned += slot.scanned.load(Ordering::Relaxed); // ORDER: statistics counter only.
        stats.adopted_batches += slot.adopted_batches.load(Ordering::Relaxed); // ORDER: statistics counter only.
        stats.freed_via_adoption += slot.freed_via_adoption.load(Ordering::Relaxed); // ORDER: statistics counter only.
        stats.slow_path += slot.slow_path.load(Ordering::Relaxed); // ORDER: statistics counter only.
        stats.helps += slot.helps.load(Ordering::Relaxed); // ORDER: statistics counter only.
        stats.cache_hits += slot.cache_hits.load(Ordering::Relaxed); // ORDER: statistics counter only.
        stats.cache_misses += slot.cache_misses.load(Ordering::Relaxed); // ORDER: statistics counter only.
        stats.cached_bytes += slot.cached_bytes.load(Ordering::Relaxed); // ORDER: statistics gauge only.
    }
    debug_assert!(
        stats.retired >= freed,
        "a block is retired before it is freed"
    );
    stats.unreclaimed = stats.retired - freed;
    stats
}

/// A point-in-time snapshot of a scheme's reclamation activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SmrStats {
    /// Blocks allocated so far.
    pub allocated: u64,
    /// Blocks retired so far.
    pub retired: u64,
    /// Retired blocks already freed.
    pub freed: u64,
    /// Retired blocks still waiting to be freed (`retired - freed`).
    pub unreclaimed: u64,
    /// Retired blocks judged one by one by cleanup passes so far (monotonic).
    /// A block parked under a still-published era is skipped, not judged, so
    /// this grows by about `cleanup_freq` per pass however much is pinned.
    pub scanned: u64,
    /// Orphaned batches adopted from exited threads.
    pub adopted_batches: u64,
    /// Blocks freed while scanning an adopted batch (a subset of `freed`).
    pub freed_via_adoption: u64,
    /// Slow-path cycles taken (WFE only).
    pub slow_path: u64,
    /// `help_thread` calls performed (WFE only).
    pub helps: u64,
    /// Cacheable allocations served from a handle's magazine without a
    /// refill (0 when the cache is disabled). Counted per slot like the
    /// rest; a live handle reports once per cleanup pass, so the figure lags
    /// by at most one pass's traffic.
    pub cache_hits: u64,
    /// Cacheable allocations that found the magazine empty and refilled it
    /// from the process-wide pool.
    pub cache_misses: u64,
    /// Bytes parked in the magazines of the domain's handles, as each handle
    /// last reported (once per cleanup pass; a dropped handle's are drained
    /// and count 0). Blocks back in the process-wide pool belong to no
    /// domain and are not counted.
    pub cached_bytes: u64,
    /// Current value of the global era/epoch clock; `0` — no era is ever 0,
    /// the clock starts at 1 — under the schemes that have none (HP, Leak).
    pub era: u64,
}

impl SmrStats {
    /// Fraction of cacheable allocations served from the block cache
    /// (`0.0` when none were attempted, e.g. cache disabled).
    pub fn cache_hit_rate(&self) -> f64 {
        let attempts = self.cache_hits + self.cache_misses;
        if attempts == 0 {
            0.0
        } else {
            self.cache_hits as f64 / attempts as f64
        }
    }
}

/// One line for logs and examples; a scheme without a clock prints
/// `no clock` where the others print their era.
impl core::fmt::Display for SmrStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "allocated {}, retired {}, freed {}, unreclaimed {}, scanned {}, \
             adopted {} batches ({} blocks), slow paths {}, helps {}, \
             cache {}/{} hits ({} bytes parked), ",
            self.allocated,
            self.retired,
            self.freed,
            self.unreclaimed,
            self.scanned,
            self.adopted_batches,
            self.freed_via_adoption,
            self.slow_path,
            self.helps,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.cached_bytes,
        )?;
        match self.era {
            0 => f.write_str("no clock"),
            era => write!(f, "era {era}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::cell::Cell;

    #[test]
    fn snapshot_sums_every_slot() {
        let slots = [SlotCounters::default(), SlotCounters::default()];
        slots[0].on_alloc();
        slots[1].on_alloc();
        slots[0].on_retire();
        slots[1].on_free(1); // freed by another slot than the one that retired it
        slots[0].on_scan(3);
        slots[0].on_scan(0);
        slots[0].on_free(0);
        slots[1].on_adoption(1);
        slots[0].on_adoption(0);
        slots[1].on_slow_path();
        slots[0].on_help();
        slots[0].on_cache(5, 0, 80);
        slots[1].on_cache(2, 3, 40);
        slots[1].on_cache(0, 0, 56);
        let s = snapshot(|| slots.iter(), 42);
        assert_eq!(s.allocated, 2);
        assert_eq!(s.retired, 1);
        assert_eq!(s.freed, 1);
        assert_eq!(s.unreclaimed, 0);
        assert_eq!(s.scanned, 3);
        assert_eq!(s.adopted_batches, 2);
        assert_eq!(s.freed_via_adoption, 1);
        assert_eq!(s.slow_path, 1);
        assert_eq!(s.helps, 1);
        assert_eq!((s.cache_hits, s.cache_misses), (7, 3));
        assert_eq!(s.cached_bytes, 80 + 56, "a gauge: the last report counts");
        assert_eq!(s.era, 42);
        assert_eq!(
            snapshot(|| slots[..0].iter(), 1),
            SmrStats {
                era: 1,
                ..SmrStats::default()
            }
        );
    }

    #[test]
    fn snapshot_reads_every_freed_before_any_retired() {
        // One block is retired and unreclaimed; a second is retired *and*
        // freed between the two walks. Whatever instant the report is taken
        // to describe, one block was unreclaimed: reading `retired` first
        // would have reported 1 - 1 = 0.
        let slot = SlotCounters::default();
        slot.on_retire();
        let walks = Cell::new(0);
        let s = snapshot(
            || {
                walks.set(walks.get() + 1);
                if walks.get() == 2 {
                    slot.on_retire();
                    slot.on_free(1);
                }
                core::iter::once(&slot)
            },
            1,
        );
        assert_eq!((s.retired, s.freed), (2, 0));
        assert!(s.unreclaimed >= 1, "never below the true value");
    }

    #[test]
    fn cache_hit_rate_handles_zero_attempts() {
        let mut s = SmrStats::default();
        assert_eq!(s.cache_hit_rate(), 0.0);
        s.cache_hits = 3;
        s.cache_misses = 1;
        assert_eq!(s.cache_hit_rate(), 0.75);
    }

    #[test]
    fn display_names_the_era_or_says_there_is_no_clock() {
        let mut s = SmrStats {
            retired: 5,
            freed: 3,
            unreclaimed: 2,
            era: 17,
            ..SmrStats::default()
        };
        let line = s.to_string();
        assert!(
            line.contains("unreclaimed 2") && line.ends_with("era 17"),
            "{line}"
        );
        s.era = 0;
        assert!(s.to_string().ends_with("no clock"));
    }
}
