//! The per-thread table: `threads` rows of `slots` cells, one row per
//! registry slot.
//!
//! Every scheme keeps its reservations in one (HE, EBR and 2GEIBR: eras in
//! `AtomicU64`s; HP: addresses in `AtomicUsize`s; WFE: `(era, tag)`
//! [`AtomicPair`](wfe_sync::AtomicPair)s), and WFE keeps its slow-path request
//! records in another. A thread writes its own row and a cleanup pass reads
//! every row below the registry's mark. A row is padded to a multiple of 128
//! bytes **and starts on a 128-byte boundary**: padding alone only spaces the
//! rows, and a `Box<[_]>` base is aligned for its element (8 or 16 bytes), so
//! without the alignment a full row's last cells share a line with the next
//! thread's first, and a row that would fit one line straddles two. Aligned,
//! a writer never false-shares whatever `slots_per_thread` is, and a cleanup
//! pass pulls the fewest lines per row.

/// Number of bytes a row is padded and aligned to (two cache lines, matching
/// [`wfe_sync::CachePadded`]).
const ROW_BYTES: usize = 128;

/// `threads` rows of `slots` cells of `T`, each row starting on a
/// [`ROW_BYTES`] boundary.
#[derive(Debug)]
pub(crate) struct SlotTable<T> {
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

impl<T> SlotTable<T> {
    /// A table of `threads × slots` cells, each made by `init`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, or if `T` does not tile a
    /// row-unit in cells aligned to their own size.
    pub(crate) fn new(threads: usize, slots: usize, init: impl Fn() -> T) -> Self {
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

    /// Number of cells per row.
    #[inline]
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// The cell for `(thread, slot)`.
    #[inline]
    pub(crate) fn get(&self, thread: usize, slot: usize) -> &T {
        debug_assert!(thread < self.threads && slot < self.slots);
        &self.cells[self.base + thread * self.stride + slot]
    }

    /// The `slots` cells of `thread`'s row, in slot order.
    #[inline]
    pub(crate) fn row(&self, thread: usize) -> &[T] {
        debug_assert!(thread < self.threads);
        let start = self.base + thread * self.stride;
        &self.cells[start..start + self.slots]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wfe::State;
    use wfe_sync::atomic::Ordering::Relaxed;
    use wfe_sync::atomic::{AtomicU64, AtomicUsize};
    use wfe_sync::AtomicPair;

    fn address<T>(cell: &T) -> usize {
        cell as *const T as usize
    }

    /// The 128-byte line a cell falls on.
    fn line_of<T>(cell: &T) -> usize {
        address(cell) / ROW_BYTES
    }

    /// On a `3 × 5` table of cells reading 7: a store to one cell changes
    /// that cell alone, and a store over one row's cells puts the table back.
    fn one_cell_then_one_row<T>(
        init: impl Fn() -> T,
        store: impl Fn(&T, u64),
        load: impl Fn(&T) -> u64,
    ) {
        let table = SlotTable::new(3, 5, init);
        assert_eq!(table.slots(), 5);
        assert_eq!(table.row(1).len(), 5);
        assert_eq!(address(&table.row(1)[0]), address(table.get(1, 0)));
        assert!(address(table.get(1, 0)) - address(table.get(0, 0)) >= ROW_BYTES);
        let cells = || (0..3).flat_map(|t| (0..5).map(move |s| (t, s)));
        store(table.get(1, 4), 99);
        let written: Vec<_> = cells()
            .filter(|&(t, s)| load(table.get(t, s)) == 99)
            .collect();
        assert_eq!(written, [(1, 4)], "exactly one cell was written");
        for cell in table.row(1) {
            store(cell, 7);
        }
        assert!(cells().all(|(t, s)| load(table.get(t, s)) == 7));
    }

    #[test]
    fn rows_are_padded_and_independent() {
        one_cell_then_one_row(
            || AtomicU64::new(7),
            |cell, v| cell.store(v, Relaxed),
            |cell| cell.load(Relaxed),
        );
        one_cell_then_one_row(
            || AtomicUsize::new(7),
            |cell, v| cell.store(v as usize, Relaxed),
            |cell| cell.load(Relaxed) as u64,
        );
        one_cell_then_one_row(
            || AtomicPair::new(7, 0),
            |cell, v| cell.store((v, 0)),
            |cell| cell.load().0,
        );
    }

    #[test]
    fn pair_slots_hold_independent_pairs() {
        let table = SlotTable::new(3, 4, || AtomicPair::new(0, 0));
        // Pairs must stay 16-byte aligned even inside the padded rows.
        assert_eq!(address(table.get(1, 1)) % 16, 0);
        // `store_first_all` over one row writes the first word of every pair
        // of that row and nothing else: every tag word, and every other row,
        // keeps its value.
        let cells = || (0..3).flat_map(|t| (0..4).map(move |s| (t, s)));
        for (thread, slot) in cells() {
            let tag = 10 * thread as u64 + slot as u64;
            table.get(thread, slot).store((100 + tag, tag));
        }
        AtomicPair::store_first_all(table.row(1), 7, Relaxed);
        for (thread, slot) in cells() {
            let tag = 10 * thread as u64 + slot as u64;
            let era = if thread == 1 { 7 } else { 100 + tag };
            assert_eq!(
                table.get(thread, slot).load(),
                (era, tag),
                "({thread}, {slot})"
            );
        }
    }

    #[test]
    fn every_row_starts_on_a_row_boundary() {
        // Several sizes, several tables alive at once: the allocator hands out
        // bases at different offsets within a line.
        for slots in [1, 3, 8, 14, 16, 17, 40] {
            let eras = SlotTable::new(5, slots, || AtomicU64::new(0));
            let ptrs = SlotTable::new(5, slots, || AtomicUsize::new(0));
            let pairs = SlotTable::new(5, slots, || AtomicPair::new(0, 0));
            let records = SlotTable::new(5, slots, State::new);
            for thread in 0..5 {
                let starts = [
                    address(eras.get(thread, 0)),
                    address(ptrs.get(thread, 0)),
                    address(pairs.get(thread, 0)),
                    address(records.get(thread, 0)),
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
        // pairs (WFE at `slots_per_thread = 6`), 2 request records — leaves
        // no slack: only the alignment keeps thread t's last cell off thread
        // t+1's first line.
        let eras = SlotTable::new(4, 16, || AtomicU64::new(0));
        let ptrs = SlotTable::new(4, 16, || AtomicUsize::new(0));
        let pairs = SlotTable::new(4, 8, || AtomicPair::new(0, 0));
        let records = SlotTable::new(4, 2, State::new);
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
            assert_ne!(
                line_of(records.get(thread, 1)),
                line_of(records.get(thread + 1, 0))
            );
            // And a row that fits one line sits on one line.
            assert_eq!(line_of(eras.get(thread, 0)), line_of(eras.get(thread, 15)));
            assert_eq!(line_of(pairs.get(thread, 0)), line_of(pairs.get(thread, 7)));
            assert_eq!(
                line_of(records.get(thread, 0)),
                line_of(records.get(thread, 1))
            );
        }
    }

    #[test]
    fn wide_rows_grow_stride() {
        // More slots than fit in one padding unit still works.
        let table = SlotTable::new(2, 40, || AtomicU64::new(1));
        table.get(0, 39).store(2, Relaxed);
        assert_eq!(table.get(0, 39).load(Relaxed), 2);
        assert_eq!(table.get(1, 39).load(Relaxed), 1);
    }
}
