//! Reclamation statistics.
//!
//! The paper's second metric ("average number of unreclaimed objects per
//! operation", Figures 5b/5d and the right-hand plots of Figures 6–11)
//! requires every scheme to expose how many retired blocks have not yet been
//! freed. The counters here are shared by all schemes and sampled by the
//! benchmark harness.

use wfe_sync::atomic::{AtomicU64, Ordering};

use wfe_sync::CachePadded;

/// Shared monotonic counters maintained by every scheme.
#[derive(Debug, Default)]
pub struct Counters {
    /// Number of blocks allocated through `alloc_block`.
    pub allocated: CachePadded<AtomicU64>,
    /// Number of blocks passed to `retire`.
    pub retired: CachePadded<AtomicU64>,
    /// Number of retired blocks actually freed.
    pub freed: CachePadded<AtomicU64>,
    /// Number of retired blocks judged one by one by cleanup passes (blocks
    /// parked under a witness that is still held are skipped, not judged).
    pub scanned: CachePadded<AtomicU64>,
    /// Number of orphaned batches adopted from exited threads.
    pub adopted_batches: CachePadded<AtomicU64>,
    /// Number of blocks freed while scanning an adopted batch (a subset of
    /// `freed`).
    pub freed_via_adoption: CachePadded<AtomicU64>,
    /// Number of slow-path cycles taken (WFE only; 0 elsewhere).
    pub slow_path: CachePadded<AtomicU64>,
    /// Number of `help_thread` invocations (WFE only; 0 elsewhere).
    pub helps: CachePadded<AtomicU64>,
}

impl Counters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `alloc_block` call.
    #[inline]
    pub fn on_alloc(&self) {
        self.allocated.fetch_add(1, Ordering::Relaxed); // ORDER: statistics counter only.
    }

    /// Records one `retire` call.
    #[inline]
    pub fn on_retire(&self) {
        self.retired.fetch_add(1, Ordering::Relaxed); // ORDER: statistics counter only.
    }

    /// Records `n` blocks freed by a cleanup scan.
    #[inline]
    pub fn on_free(&self, n: u64) {
        if n != 0 {
            self.freed.fetch_add(n, Ordering::Relaxed); // ORDER: statistics counter only.
        }
    }

    /// Records `n` blocks judged by a cleanup scan.
    #[inline]
    pub fn on_scan(&self, n: u64) {
        if n != 0 {
            self.scanned.fetch_add(n, Ordering::Relaxed); // ORDER: statistics counter only.
        }
    }

    /// Records the adoption of one orphaned batch from which `freed` blocks
    /// were reclaimed (the freed blocks must *also* be reported through
    /// [`on_free`](Self::on_free) so `unreclaimed` stays consistent).
    #[inline]
    pub fn on_adoption(&self, freed: u64) {
        self.adopted_batches.fetch_add(1, Ordering::Relaxed); // ORDER: statistics counter only.
        if freed != 0 {
            self.freed_via_adoption.fetch_add(freed, Ordering::Relaxed); // ORDER: statistics counter only.
        }
    }

    /// Records one slow-path entry (used by `wfe-core`).
    #[inline]
    pub fn on_slow_path(&self) {
        self.slow_path.fetch_add(1, Ordering::Relaxed); // ORDER: statistics counter only.
    }

    /// Records one helping attempt (used by `wfe-core`).
    #[inline]
    pub fn on_help(&self) {
        self.helps.fetch_add(1, Ordering::Relaxed); // ORDER: statistics counter only.
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self, current_era: u64) -> SmrStats {
        let retired = self.retired.load(Ordering::Relaxed); // ORDER: statistics counter only.
        let freed = self.freed.load(Ordering::Relaxed); // ORDER: statistics counter only.
        SmrStats {
            allocated: self.allocated.load(Ordering::Relaxed), // ORDER: statistics counter only.
            retired,
            freed,
            unreclaimed: retired.saturating_sub(freed),
            scanned: self.scanned.load(Ordering::Relaxed), // ORDER: statistics counter only.
            adopted_batches: self.adopted_batches.load(Ordering::Relaxed), // ORDER: statistics counter only.
            freed_via_adoption: self.freed_via_adoption.load(Ordering::Relaxed), // ORDER: statistics counter only.
            slow_path: self.slow_path.load(Ordering::Relaxed), // ORDER: statistics counter only.
            helps: self.helps.load(Ordering::Relaxed),         // ORDER: statistics counter only.
            // The cache counters live on the per-shard caches, not here; the
            // owning domain merges them in (`BlockCaches::merge_into`).
            cache_hits: 0,
            cache_misses: 0,
            cached_bytes: 0,
            era: current_era,
        }
    }
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
    /// Cacheable allocations served from a shard's block cache (0 when the
    /// cache is disabled). Merged from the per-shard caches at snapshot time.
    pub cache_hits: u64,
    /// Cacheable allocations that found their shard's freelist empty and fell
    /// through to the allocator.
    pub cache_misses: u64,
    /// Bytes currently parked on the domain's block-cache freelists.
    pub cached_bytes: u64,
    /// Current value of the global era/epoch clock (it stays at its initial 1
    /// under schemes that never advance it: HP, Leak).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let c = Counters::new();
        c.on_alloc();
        c.on_alloc();
        c.on_retire();
        c.on_free(1);
        c.on_scan(3);
        c.on_scan(0);
        c.on_adoption(1);
        c.on_adoption(0);
        c.on_slow_path();
        c.on_help();
        let s = c.snapshot(42);
        assert_eq!(s.allocated, 2);
        assert_eq!(s.retired, 1);
        assert_eq!(s.freed, 1);
        assert_eq!(s.unreclaimed, 0);
        assert_eq!(s.scanned, 3);
        assert_eq!(s.adopted_batches, 2);
        assert_eq!(s.freed_via_adoption, 1);
        assert_eq!(s.slow_path, 1);
        assert_eq!(s.helps, 1);
        assert_eq!(s.era, 42);
    }

    #[test]
    fn unreclaimed_saturates() {
        let c = Counters::new();
        c.on_free(3);
        assert_eq!(c.snapshot(0).unreclaimed, 0);
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
    fn on_free_zero_is_a_noop() {
        let c = Counters::new();
        c.on_free(0);
        assert_eq!(c.snapshot(0).freed, 0);
    }
}
