//! Uniform interfaces the benchmark harness is written against.
//!
//! The paper's evaluation drives every data structure through an abstract
//! key-value interface (`insert`, `delete`, `get`, `put`) and every queue
//! through `enqueue`/`dequeue`. These traits are that interface.
//!
//! Implementations are written against the safe guard API: one operation
//! leases [`required_slots`](ConcurrentMap::required_slots) shields from the
//! handle, enters a [`Guard`](wfe_reclaim::Guard) bracket and performs every
//! hazardous read through [`Shield::protect`](wfe_reclaim::Shield::protect).
//! `required_slots` is therefore exactly the number of simultaneously-leased
//! shields — domains must be configured with at least that many
//! `slots_per_thread`, which the structures assert at construction. The
//! shields are leased from the handle *passed into the operation*, so a
//! caller that parks its own long-lived [`Shield`](wfe_reclaim::Shield)s on
//! that handle must leave `required_slots` slots free or operations panic
//! with a "reservation slots exhausted" message (instead of silently
//! corrupting a reservation, as a stray raw index used to).

use std::sync::Arc;

use wfe_reclaim::Reclaimer;

/// Service-level counters a map exposes to a benchmark.
///
/// Fixed-shape structures report the all-zero default; resizable structures
/// (the split-ordered [`ResizableHashMap`](crate::ResizableHashMap)) report
/// their live geometry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MapServiceStats {
    /// Data entries per bucket (`len / buckets`); `0.0` when the structure
    /// has no bucket geometry.
    pub load_factor: f64,
    /// Completed bucket-array doublings.
    pub resizes: u64,
    /// Cumulative bucket slots carried from superseded arrays into their
    /// replacements.
    pub migrated_buckets: u64,
}

/// A concurrent set/map with `u64` keys and `u64` values.
pub trait ConcurrentMap<R: Reclaimer>: Send + Sync + 'static {
    /// Creates an instance backed by `domain`.
    fn with_domain(domain: Arc<R>) -> Self;

    /// Inserts `key → value`; returns `false` if the key was already present.
    fn insert(&self, handle: &mut R::Handle, key: u64, value: u64) -> bool;

    /// Removes `key`; returns `true` if it was present.
    fn remove(&self, handle: &mut R::Handle, key: u64) -> bool;

    /// Looks up `key`.
    fn get(&self, handle: &mut R::Handle, key: u64) -> Option<u64>;

    /// Number of reservation slots the structure needs per operation.
    /// Domains must be configured with at least this many `slots_per_thread`.
    fn required_slots() -> usize {
        8
    }

    /// Service statistics (load factor and resize counts). Structures
    /// without resize machinery keep the all-zero default.
    fn service_stats(&self) -> MapServiceStats {
        MapServiceStats::default()
    }
}

/// A concurrent FIFO queue with `u64` elements.
pub trait ConcurrentQueue<R: Reclaimer>: Send + Sync + 'static {
    /// Creates an instance backed by `domain`.
    fn with_domain(domain: Arc<R>) -> Self;

    /// Appends `value` to the tail.
    fn enqueue(&self, handle: &mut R::Handle, value: u64);

    /// Removes the head element, if any.
    fn dequeue(&self, handle: &mut R::Handle) -> Option<u64>;

    /// Number of reservation slots the structure needs per operation.
    fn required_slots() -> usize {
        8
    }
}
