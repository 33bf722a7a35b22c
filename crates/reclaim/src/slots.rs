//! Padded per-thread reservation arrays.
//!
//! Every scheme keeps a `max_threads × K` table that each thread writes on its
//! own row and every thread reads during `cleanup()`. Rows are padded to a
//! multiple of the cache line so writers never false-share.

use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use wfe_sync::AtomicPair;

/// Number of bytes a row is padded to (two cache lines, matching
/// [`wfe_sync::CachePadded`]).
const ROW_BYTES: usize = 128;

/// A `max_threads × slots` table of `AtomicU64`s with padded rows.
#[derive(Debug)]
pub struct SlotArray {
    data: Box<[AtomicU64]>,
    stride: usize,
    slots: usize,
    threads: usize,
}

impl SlotArray {
    /// Creates a table initialised to `init`.
    pub fn new(threads: usize, slots: usize, init: u64) -> Self {
        assert!(threads > 0 && slots > 0);
        let per_row = ROW_BYTES / core::mem::size_of::<AtomicU64>();
        let stride = slots.div_ceil(per_row) * per_row;
        let data = (0..threads * stride)
            .map(|_| AtomicU64::new(init))
            .collect();
        Self {
            data,
            stride,
            slots,
            threads,
        }
    }

    /// Number of logical slots per thread.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of thread rows.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns the cell for `(thread, slot)`.
    #[inline]
    pub fn get(&self, thread: usize, slot: usize) -> &AtomicU64 {
        debug_assert!(slot < self.slots);
        &self.data[thread * self.stride + slot]
    }

    /// Stores `value` into every slot of `thread`'s row, in slot order.
    #[inline]
    pub fn fill_row(&self, thread: usize, value: u64, order: Ordering) {
        for slot in 0..self.slots {
            self.get(thread, slot).store(value, order);
        }
    }
}

/// A `max_threads × slots` table of `AtomicUsize`s with padded rows
/// (used by Hazard Pointers, which reserve addresses instead of eras).
#[derive(Debug)]
pub struct PtrSlotArray {
    data: Box<[AtomicUsize]>,
    stride: usize,
    slots: usize,
}

impl PtrSlotArray {
    /// Creates a table initialised to null.
    pub fn new(threads: usize, slots: usize) -> Self {
        assert!(threads > 0 && slots > 0);
        let per_row = ROW_BYTES / core::mem::size_of::<AtomicUsize>();
        let stride = slots.div_ceil(per_row) * per_row;
        let data = (0..threads * stride).map(|_| AtomicUsize::new(0)).collect();
        Self {
            data,
            stride,
            slots,
        }
    }

    /// Number of logical slots per thread.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Returns the cell for `(thread, slot)`.
    #[inline]
    pub fn get(&self, thread: usize, slot: usize) -> &AtomicUsize {
        debug_assert!(slot < self.slots);
        &self.data[thread * self.stride + slot]
    }

    /// Stores `value` into every slot of `thread`'s row, in slot order.
    #[inline]
    pub fn fill_row(&self, thread: usize, value: usize, order: Ordering) {
        for slot in 0..self.slots {
            self.get(thread, slot).store(value, order);
        }
    }
}

/// A `max_threads × slots` table of 16-byte [`AtomicPair`]s with padded rows
/// (used by WFE, whose reservations are `(era, tag)` pairs).
#[derive(Debug)]
pub struct PairSlotArray {
    data: Box<[AtomicPair]>,
    stride: usize,
    slots: usize,
    threads: usize,
}

impl PairSlotArray {
    /// Creates a table with every pair initialised to `init`.
    pub fn new(threads: usize, slots: usize, init: (u64, u64)) -> Self {
        assert!(threads > 0 && slots > 0);
        let per_row = ROW_BYTES / core::mem::size_of::<AtomicPair>();
        let stride = slots.div_ceil(per_row) * per_row;
        let data = (0..threads * stride)
            .map(|_| AtomicPair::new(init.0, init.1))
            .collect();
        Self {
            data,
            stride,
            slots,
            threads,
        }
    }

    /// Number of logical slots per thread.
    #[inline]
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of thread rows.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Returns the pair cell for `(thread, slot)`.
    #[inline]
    pub fn get(&self, thread: usize, slot: usize) -> &AtomicPair {
        debug_assert!(slot < self.slots);
        &self.data[thread * self.stride + slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfe_sync::atomic::Ordering::Relaxed;

    #[test]
    fn rows_are_padded_and_independent() {
        let arr = SlotArray::new(3, 5, 7);
        assert_eq!(arr.slots(), 5);
        assert_eq!(arr.threads(), 3);
        // Row stride covers at least a full padding unit.
        let a = arr.get(0, 0) as *const _ as usize;
        let b = arr.get(1, 0) as *const _ as usize;
        assert!(b - a >= ROW_BYTES);
        arr.get(1, 4).store(99, Relaxed);
        assert_eq!(arr.get(1, 4).load(Relaxed), 99);
        assert_eq!(arr.get(0, 4).load(Relaxed), 7);
        let cells = |arr: &SlotArray| {
            (0..arr.threads())
                .flat_map(|t| (0..arr.slots()).map(move |s| (t, s)))
                .collect::<Vec<_>>()
        };
        let modified = cells(&arr)
            .iter()
            .filter(|&&(t, s)| arr.get(t, s).load(Relaxed) == 99)
            .count();
        assert_eq!(modified, 1, "exactly one cell was written");
        arr.fill_row(1, 7, Relaxed);
        assert!(cells(&arr)
            .iter()
            .all(|&(t, s)| arr.get(t, s).load(Relaxed) == 7));
    }

    #[test]
    fn ptr_slots_behave_like_u64_slots() {
        let arr = PtrSlotArray::new(2, 3);
        assert_eq!(arr.slots(), 3);
        arr.get(0, 1).store(0xdead, Relaxed);
        assert_eq!(arr.get(0, 1).load(Relaxed), 0xdead);
        arr.fill_row(0, 0, Relaxed);
        for slot in 0..arr.slots() {
            assert_eq!(arr.get(0, slot).load(Relaxed), 0);
            assert_eq!(arr.get(1, slot).load(Relaxed), 0);
        }
    }

    #[test]
    fn pair_slots_hold_independent_pairs() {
        let arr = PairSlotArray::new(2, 4, (u64::MAX, 0));
        assert_eq!(arr.get(1, 3).load(), (u64::MAX, 0));
        arr.get(1, 3).store((5, 6));
        assert_eq!(arr.get(1, 3).load(), (5, 6));
        assert_eq!(arr.get(0, 3).load(), (u64::MAX, 0));
        // Pairs must stay 16-byte aligned even inside the padded rows.
        assert_eq!(arr.get(1, 1) as *const _ as usize % 16, 0);
    }

    #[test]
    fn wide_rows_grow_stride() {
        // More slots than fit in one padding unit still works.
        let arr = SlotArray::new(2, 40, 1);
        arr.get(0, 39).store(2, Relaxed);
        assert_eq!(arr.get(0, 39).load(Relaxed), 2);
        assert_eq!(arr.get(1, 39).load(Relaxed), 1);
    }
}
