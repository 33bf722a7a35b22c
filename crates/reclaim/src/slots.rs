//! Aligned, padded per-thread reservation arrays.
//!
//! Every scheme keeps a `max_threads × K` table that each thread writes on its
//! own row and every thread reads during `cleanup()`. A row is padded to a
//! multiple of 128 bytes **and starts on a 128-byte boundary**: padding alone
//! only spaces the rows, and a `Box<[_]>` base is aligned for its element (8
//! or 16 bytes), so without the alignment a full row's last slots share a
//! line with the next thread's first, and a row that would fit one line
//! straddles two. Aligned, a writer never false-shares whatever
//! `slots_per_thread` is, and a cleanup pass pulls the fewest lines per row.

use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use wfe_sync::AtomicPair;

/// Number of bytes a row is padded and aligned to (two cache lines, matching
/// [`wfe_sync::CachePadded`]).
const ROW_BYTES: usize = 128;

/// `threads` rows of `T` cells, each row starting on a [`ROW_BYTES`]
/// boundary: the storage under all three tables.
#[derive(Debug)]
struct Rows<T> {
    /// The rows, preceded by the few spare cells it takes to reach the first
    /// `ROW_BYTES` boundary whatever address the allocator returned (and
    /// followed by the rest of that one row-unit of slack).
    cells: Box<[T]>,
    /// Index in `cells` of row 0's first cell.
    base: usize,
    /// Cells from one row's start to the next: a whole number of row-units.
    stride: usize,
    slots: usize,
    threads: usize,
}

impl<T> Rows<T> {
    fn new(threads: usize, slots: usize, init: impl Fn() -> T) -> Self {
        assert!(threads > 0 && slots > 0);
        let cell = core::mem::size_of::<T>();
        // What makes a boundary reachable in whole cells and keeps it so row
        // after row: cells tile a row-unit exactly and are aligned to their
        // own size.
        assert!(ROW_BYTES % cell == 0 && core::mem::align_of::<T>() == cell);
        let per_unit = ROW_BYTES / cell;
        let stride = slots.div_ceil(per_unit) * per_unit;
        let cells: Box<[T]> = (0..threads * stride + per_unit - 1)
            .map(|_| init())
            .collect();
        // Bytes from the allocation's start up to the next boundary, in cells.
        let base = (cells.as_ptr() as usize).wrapping_neg() % ROW_BYTES / cell;
        Self {
            cells,
            base,
            stride,
            slots,
            threads,
        }
    }

    #[inline]
    fn get(&self, thread: usize, slot: usize) -> &T {
        debug_assert!(thread < self.threads && slot < self.slots);
        &self.cells[self.base + thread * self.stride + slot]
    }

    /// The `slots` cells of `thread`'s row.
    #[inline]
    fn row(&self, thread: usize) -> &[T] {
        debug_assert!(thread < self.threads);
        let start = self.base + thread * self.stride;
        &self.cells[start..start + self.slots]
    }
}

/// A `max_threads × slots` table of `AtomicU64`s with aligned, padded rows.
#[derive(Debug)]
pub struct SlotArray(Rows<AtomicU64>);

impl SlotArray {
    /// Creates a table initialised to `init`.
    pub fn new(threads: usize, slots: usize, init: u64) -> Self {
        Self(Rows::new(threads, slots, || AtomicU64::new(init)))
    }

    /// Number of logical slots per thread.
    #[inline]
    pub fn slots(&self) -> usize {
        self.0.slots
    }

    /// Returns the cell for `(thread, slot)`.
    #[inline]
    pub fn get(&self, thread: usize, slot: usize) -> &AtomicU64 {
        self.0.get(thread, slot)
    }

    /// Stores `value` into every slot of `thread`'s row, in slot order.
    #[inline]
    pub fn fill_row(&self, thread: usize, value: u64, order: Ordering) {
        for cell in self.0.row(thread) {
            cell.store(value, order);
        }
    }
}

/// A `max_threads × slots` table of `AtomicUsize`s with aligned, padded rows
/// (used by Hazard Pointers, which reserve addresses instead of eras).
#[derive(Debug)]
pub struct PtrSlotArray(Rows<AtomicUsize>);

impl PtrSlotArray {
    /// Creates a table initialised to null.
    pub fn new(threads: usize, slots: usize) -> Self {
        Self(Rows::new(threads, slots, || AtomicUsize::new(0)))
    }

    /// Number of logical slots per thread.
    #[inline]
    pub fn slots(&self) -> usize {
        self.0.slots
    }

    /// Returns the cell for `(thread, slot)`.
    #[inline]
    pub fn get(&self, thread: usize, slot: usize) -> &AtomicUsize {
        self.0.get(thread, slot)
    }

    /// Stores `value` into every slot of `thread`'s row, in slot order.
    #[inline]
    pub fn fill_row(&self, thread: usize, value: usize, order: Ordering) {
        for cell in self.0.row(thread) {
            cell.store(value, order);
        }
    }
}

/// A `max_threads × slots` table of 16-byte [`AtomicPair`]s with aligned,
/// padded rows (used by WFE, whose reservations are `(era, tag)` pairs).
#[derive(Debug)]
pub struct PairSlotArray(Rows<AtomicPair>);

impl PairSlotArray {
    /// Creates a table with every pair initialised to `init`.
    pub fn new(threads: usize, slots: usize, init: (u64, u64)) -> Self {
        Self(Rows::new(threads, slots, || {
            AtomicPair::new(init.0, init.1)
        }))
    }

    /// Returns the pair cell for `(thread, slot)`.
    #[inline]
    pub fn get(&self, thread: usize, slot: usize) -> &AtomicPair {
        self.0.get(thread, slot)
    }

    /// Stores `value` into the first word of every pair of `thread`'s row,
    /// in slot order, leaving every second word untouched
    /// ([`AtomicPair::store_first_all`]: one native-WCAS probe for the row).
    #[inline]
    pub fn fill_first(&self, thread: usize, value: u64, order: Ordering) {
        AtomicPair::store_first_all(self.0.row(thread), value, order);
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
        // Row stride covers at least a full padding unit.
        let a = arr.get(0, 0) as *const _ as usize;
        let b = arr.get(1, 0) as *const _ as usize;
        assert!(b - a >= ROW_BYTES);
        arr.get(1, 4).store(99, Relaxed);
        assert_eq!(arr.get(1, 4).load(Relaxed), 99);
        assert_eq!(arr.get(0, 4).load(Relaxed), 7);
        let cells = |arr: &SlotArray| {
            (0..3)
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
        let arr = PairSlotArray::new(3, 4, (u64::MAX, 0));
        assert_eq!(arr.get(1, 3).load(), (u64::MAX, 0));
        arr.get(1, 3).store((5, 6));
        assert_eq!(arr.get(1, 3).load(), (5, 6));
        assert_eq!(arr.get(0, 3).load(), (u64::MAX, 0));
        // Pairs must stay 16-byte aligned even inside the padded rows.
        assert_eq!(arr.get(1, 1) as *const _ as usize % 16, 0);
        // `fill_first` writes the first word of every pair of one row and
        // nothing else: every tag word, and every other row, keeps its value.
        for (thread, slot) in (0..3).flat_map(|t| (0..4).map(move |s| (t, s))) {
            let tag = 10 * thread as u64 + slot as u64;
            arr.get(thread, slot).store((100 + tag, tag));
        }
        arr.fill_first(1, 7, Relaxed);
        for (thread, slot) in (0..3).flat_map(|t| (0..4).map(move |s| (t, s))) {
            let tag = 10 * thread as u64 + slot as u64;
            let era = if thread == 1 { 7 } else { 100 + tag };
            assert_eq!(
                arr.get(thread, slot).load(),
                (era, tag),
                "({thread}, {slot})"
            );
        }
    }

    fn address<T>(cell: &T) -> usize {
        cell as *const T as usize
    }

    /// The 128-byte line a cell falls on.
    fn line_of<T>(cell: &T) -> usize {
        address(cell) / ROW_BYTES
    }

    #[test]
    fn every_row_starts_on_a_row_boundary() {
        // Several sizes, several tables alive at once: the allocator hands out
        // bases at different offsets within a line.
        for slots in [1, 3, 8, 14, 16, 17, 40] {
            let eras = SlotArray::new(5, slots, 0);
            let ptrs = PtrSlotArray::new(5, slots);
            let pairs = PairSlotArray::new(5, slots, (0, 0));
            for thread in 0..5 {
                let starts = [
                    address(eras.get(thread, 0)),
                    address(ptrs.get(thread, 0)),
                    address(pairs.get(thread, 0)),
                ];
                for start in starts {
                    assert_eq!(start % ROW_BYTES, 0, "{slots} slots, row {thread}");
                }
            }
        }
    }

    #[test]
    fn full_rows_do_not_share_a_line_with_their_neighbours() {
        // A row that fills its padding exactly — 16 eras or pointers, 8
        // pairs (WFE at `slots_per_thread = 6`) — leaves no slack: only the
        // alignment keeps thread t's last slot off thread t+1's first line.
        let eras = SlotArray::new(4, 16, 0);
        let ptrs = PtrSlotArray::new(4, 16);
        let pairs = PairSlotArray::new(4, 8, (0, 0));
        for thread in 0..3 {
            assert_ne!(
                line_of(eras.get(thread, 15)),
                line_of(eras.get(thread + 1, 0))
            );
            assert_ne!(
                line_of(ptrs.get(thread, 15)),
                line_of(ptrs.get(thread + 1, 0))
            );
            assert_ne!(
                line_of(pairs.get(thread, 7)),
                line_of(pairs.get(thread + 1, 0))
            );
            // And a row that fits one line sits on one line.
            assert_eq!(line_of(eras.get(thread, 0)), line_of(eras.get(thread, 15)));
            assert_eq!(line_of(pairs.get(thread, 0)), line_of(pairs.get(thread, 7)));
        }
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
