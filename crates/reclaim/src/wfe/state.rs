//! The per-(thread, reservation-index) slow-path state records (Figure 3).
//!
//! WFE keeps them in a [`SlotTable`](crate::slots::SlotTable) of its own
//! beside the reservation pairs: row `tid`, cell `index` is the request of
//! that thread's application slot. A record is 64 bytes and 64-aligned, so two
//! share a 128-byte row-unit and no two share a cache line. Each record
//! describes one outstanding help request:
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
    /// An idle record: no request, no reply.
    pub(crate) fn new() -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slots::SlotTable;

    #[test]
    fn fresh_records_are_idle() {
        let table = SlotTable::new(3, 4, State::new);
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
        let record = State::new();
        record.result.store((INVPTR, 7));
        assert!(record.is_pending());
        record.result.store((0x1000, 3));
        assert!(!record.is_pending());
    }

    #[test]
    fn records_do_not_share_cache_lines_within_a_row() {
        let table = SlotTable::new(1, 2, State::new);
        let a = table.get(0, 0) as *const _ as usize;
        let b = table.get(0, 1) as *const _ as usize;
        assert!(b - a >= 64);
    }
}
