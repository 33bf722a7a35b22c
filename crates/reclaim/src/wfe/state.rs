//! The per-(thread, reservation-index) slow-path state records (Figure 3).
//!
//! Each record describes one outstanding help request:
//!
//! * `pointer` — the address of the hazardous location (`block** ptr`) the
//!   requester is trying to read,
//! * `era` — the `alloc_era` of the *parent* block containing that location
//!   (`ERA_INF` when the location is a data-structure root),
//! * `result` — a 16-byte pair that doubles as request flag and reply box.
//!   While a request is pending it holds `(INVPTR, tag)`; helpers (or the
//!   requester itself, when it cancels) flip it with WCAS to
//!   `(pointer-value, era)`.

use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::block::{ERA_INF, INVPTR};
use wfe_sync::AtomicPair;

/// One slow-path request record.
// LAYOUT: one record per (thread, slot) on a line of its own (`align(64)`):
// the requester publishes all three words together, helpers read them
// together, and only on the slow path.
#[repr(align(64))]
#[derive(Debug)]
pub(crate) struct State {
    /// Request flag / reply box: `(INVPTR, tag)` while pending,
    /// `(value, era)` once produced, `(0, ERA_INF)` after a cancel.
    pub(crate) result: AtomicPair,
    /// `alloc_era` of the parent block (`ERA_INF` for roots).
    pub(crate) era: AtomicU64,
    /// Address of the hazardous location being read.
    pub(crate) pointer: AtomicUsize,
}

impl State {
    fn new() -> Self {
        Self {
            result: AtomicPair::new(0, ERA_INF),
            era: AtomicU64::new(ERA_INF),
            pointer: AtomicUsize::new(0),
        }
    }

    /// Whether the record currently advertises a pending request.
    #[inline]
    pub(crate) fn is_pending(&self) -> bool {
        self.result.load_first(Ordering::Acquire) == INVPTR // ORDER: pairs with the SeqCst publish/close of the slow-path result.
    }
}

/// Dense `max_threads × slots` table of [`State`] records.
#[derive(Debug)]
pub(crate) struct StateTable {
    records: Box<[State]>,
    slots: usize,
}

impl StateTable {
    pub(crate) fn new(threads: usize, slots: usize) -> Self {
        assert!(threads > 0 && slots > 0);
        Self {
            records: (0..threads * slots).map(|_| State::new()).collect(),
            slots,
        }
    }

    #[inline]
    pub(crate) fn get(&self, thread: usize, slot: usize) -> &State {
        debug_assert!(slot < self.slots);
        &self.records[thread * self.slots + slot]
    }

    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    #[inline]
    pub(crate) fn threads(&self) -> usize {
        self.records.len() / self.slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_records_are_idle() {
        let table = StateTable::new(3, 4);
        assert_eq!(table.threads(), 3);
        assert_eq!(table.slots(), 4);
        for t in 0..3 {
            for s in 0..4 {
                let record = table.get(t, s);
                assert!(!record.is_pending());
                assert_eq!(record.result.load(), (0, ERA_INF));
                assert_eq!(record.era.load(Ordering::Relaxed), ERA_INF);
                assert_eq!(record.pointer.load(Ordering::Relaxed), 0);
            }
        }
    }

    #[test]
    fn pending_flag_follows_result_word() {
        let table = StateTable::new(1, 1);
        let record = table.get(0, 0);
        record.result.store((INVPTR, 7));
        assert!(record.is_pending());
        record.result.store((0x1000, 3));
        assert!(!record.is_pending());
    }

    #[test]
    fn records_do_not_share_cache_lines_within_a_row() {
        let table = StateTable::new(1, 2);
        let a = table.get(0, 0) as *const _ as usize;
        let b = table.get(0, 1) as *const _ as usize;
        assert!(b - a >= 64);
    }
}
