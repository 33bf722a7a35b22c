//! Reservation snapshots: the batch scan protocol.
//!
//! Under the old protocol every retired block re-read every reservation slot
//! (`can_free` per block, `O(blocks × threads × slots)` atomic loads per
//! cleanup). The batch protocol — the design of the Hazard Eras reference
//! implementation and of Wen et al.'s IBR harness — snapshots all
//! reservations **once** per cleanup pass into a reusable scratch structure
//! and then judges the whole retired batch against that snapshot, so the
//! per-block work drops to a binary search (or a single comparison).
//!
//! Three schemes publish words a block is judged against one by one: Hazard
//! Eras and WFE eras, Hazard Pointers addresses. Their snapshots are one
//! sorted set ([`SortedSet`]) that differ in the value an empty slot holds
//! and in the verdict; EBR keeps a single word and 2GEIBR a list of
//! intervals.
//!
//! Safety of snapshotting once: every block in a batch was retired — and was
//! therefore already unreachable — *before* the snapshot is taken. A
//! reservation that protects such a block must have been published before the
//! block was unlinked (the publish-then-validate protocol guarantees this),
//! hence before the snapshot's loads; the snapshot therefore observes it, or
//! observes a later value of the same slot, which means the owner has since
//! withdrawn that protection. Adopted orphan batches preserve the same
//! argument because they are popped from the orphan stack *before* the
//! snapshot is taken (see [`crate::retired::OrphanStack`]).
//!
//! # Witnesses
//!
//! A snapshot that finds a block covered also says *why*, when the reason has
//! a name that outlives the snapshot: the era (or epoch) whose publication
//! pins the block — its **witness**. Hazard Eras states the fact the batch
//! relies on: a block is pinned iff some published era lies in
//! `[alloc_era, retire_era]`. So as long as a later snapshot still
//! [`holds`](ReservationSet::holds) that same era — no matter which thread
//! publishes it by then — every block it witnessed is still covered, and the
//! batch need not look at those blocks again (see
//! [`RetiredBatch::scan_against`](crate::retired::RetiredBatch::scan_against)).
//! Hazard pointers (the cover is the block's own address) and 2GEIBR (the
//! interval's upper bound moves) have no such name and answer
//! [`Verdict::Pinned`].

use crate::block::ERA_INF;
use crate::retired::Retired;

/// What a snapshot says about one retired block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No reservation in the snapshot reaches the block: it may be freed.
    Free,
    /// Some reservation reaches the block, for a reason only this snapshot
    /// can state: the block must be judged again by the next pass.
    Pinned,
    /// The published era (epoch) `witness` pins the block. Every snapshot
    /// that [`holds`](ReservationSet::holds) `witness` still covers it.
    PinnedBy(u64),
}

/// A point-in-time snapshot of every reservation in a domain, reused across
/// cleanup passes so the scratch allocation is paid once per thread.
///
/// Implementors are the per-scheme scratch structures; the retired batch is
/// drained against one via
/// [`RetiredBatch::scan_against`](crate::retired::RetiredBatch::scan_against).
pub trait ReservationSet {
    /// The scheme's safety condition for the retired block `entry`,
    /// evaluated against the snapshot, with the witness when there is one.
    fn judge(&self, entry: &Retired) -> Verdict;

    /// Whether `witness` — returned as [`Verdict::PinnedBy`] by an earlier
    /// snapshot of the same domain — still pins every block it was returned
    /// for. Must imply that [`judge`](Self::judge) would not answer
    /// [`Verdict::Free`] for any of them. Snapshots that never name a
    /// witness keep the default.
    fn holds(&self, _witness: u64) -> bool {
        false
    }

    /// Whether some reservation in the snapshot may still reach `entry`.
    fn covers(&self, entry: &Retired) -> bool {
        self.judge(entry) != Verdict::Free
    }
}

/// EBR scratch: only the *oldest* active epoch matters, so the snapshot is a
/// single word.
#[derive(Debug, Default)]
pub struct EpochSnapshot {
    min_active: u64,
}

impl EpochSnapshot {
    /// Creates an empty snapshot (no active reader).
    pub fn new() -> Self {
        Self {
            min_active: ERA_INF,
        }
    }

    /// Resets the snapshot to "no active reader".
    #[inline]
    pub fn clear(&mut self) {
        self.min_active = ERA_INF;
    }

    /// Records one published epoch (`ERA_INF` = quiescent, ignored).
    #[inline]
    pub fn insert(&mut self, epoch: u64) {
        self.min_active = self.min_active.min(epoch);
    }

    /// The oldest active epoch observed, or `ERA_INF` if none.
    #[inline]
    pub fn min_active(&self) -> u64 {
        self.min_active
    }
}

impl ReservationSet for EpochSnapshot {
    #[inline]
    fn judge(&self, entry: &Retired) -> Verdict {
        // A block is pinned while some reader entered its operation at or
        // before the block's retirement epoch; that reader's epoch is the
        // witness.
        if self.min_active <= entry.retire_era() {
            Verdict::PinnedBy(self.min_active)
        } else {
            Verdict::Free
        }
    }

    /// A block witnessed by epoch `w` was retired at or after `w`, so it
    /// stays pinned while the oldest active epoch is no newer than `w`.
    #[inline]
    fn holds(&self, witness: u64) -> bool {
        self.min_active <= witness
    }
}

/// The published words of one snapshot, sorted and deduplicated so that a
/// per-block test is one binary search; `EMPTY` is the value an unused slot
/// holds, which is not recorded. Hazard Eras and WFE record eras in it
/// ([`EraSnapshot`]), Hazard Pointers addresses ([`HazardSnapshot`]).
#[derive(Debug, Default)]
pub struct SortedSet<const EMPTY: u64> {
    words: Vec<u64>,
}

/// Hazard-Eras scratch: the published eras (`ERA_INF` = empty slot).
pub type EraSnapshot = SortedSet<ERA_INF>;

/// Hazard-Pointers scratch: the published addresses (0 = empty slot).
pub type HazardSnapshot = SortedSet<0>;

impl<const EMPTY: u64> SortedSet<EMPTY> {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards the previous snapshot, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Records one published word (`EMPTY` ignored).
    #[inline]
    pub fn insert(&mut self, word: u64) {
        if word != EMPTY {
            self.words.push(word);
        }
    }

    /// Sorts the recorded words; must be called once after the last `insert`
    /// and before the first query.
    pub fn seal(&mut self) {
        self.words.sort_unstable();
        self.words.dedup();
    }

    /// The smallest recorded word inside `[alloc_era, retire_era]`, if any.
    #[inline]
    pub fn first_in_span(&self, alloc_era: u64, retire_era: u64) -> Option<u64> {
        let idx = self.words.partition_point(|&word| word < alloc_era);
        self.words
            .get(idx)
            .copied()
            .filter(|&word| word <= retire_era)
    }

    /// Whether some recorded word falls inside `[alloc_era, retire_era]`.
    #[inline]
    pub fn covers_span(&self, alloc_era: u64, retire_era: u64) -> bool {
        self.first_in_span(alloc_era, retire_era).is_some()
    }

    /// Whether `word` itself was recorded.
    #[inline]
    pub fn contains(&self, word: u64) -> bool {
        self.words.binary_search(&word).is_ok()
    }

    /// Number of distinct recorded words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether no word was recorded.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Collects published words into a sealed snapshot (`EMPTY` ignored).
impl<const EMPTY: u64> FromIterator<u64> for SortedSet<EMPTY> {
    fn from_iter<I: IntoIterator<Item = u64>>(words: I) -> Self {
        let mut snapshot = Self::new();
        words.into_iter().for_each(|word| snapshot.insert(word));
        snapshot.seal();
        snapshot
    }
}

impl ReservationSet for EraSnapshot {
    #[inline]
    fn judge(&self, entry: &Retired) -> Verdict {
        match self.first_in_span(entry.alloc_era(), entry.retire_era()) {
            Some(era) => Verdict::PinnedBy(era),
            None => Verdict::Free,
        }
    }

    /// The witness lies inside the lifespan of every block it was returned
    /// for, so re-finding it here re-proves `covers_span` for all of them.
    #[inline]
    fn holds(&self, witness: u64) -> bool {
        self.contains(witness)
    }
}

/// 2GEIBR scratch: one `[lower, upper]` interval per active thread. The
/// per-block test is a linear overlap check over the (few) active intervals —
/// with zero atomic loads, where the old protocol paid two per thread per
/// block.
#[derive(Debug, Default)]
pub struct IntervalSnapshot {
    intervals: Vec<(u64, u64)>,
}

impl IntervalSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards the previous snapshot, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.intervals.clear();
    }

    /// Records one active `[lower, upper]` interval.
    #[inline]
    pub fn insert(&mut self, lower: u64, upper: u64) {
        self.intervals.push((lower, upper));
    }

    /// Number of active intervals recorded.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether no interval was recorded.
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }
}

impl ReservationSet for IntervalSnapshot {
    /// No witness: an interval's upper bound moves with every `protect`, so
    /// "thread T's interval" names a different set of eras on the next pass.
    #[inline]
    fn judge(&self, entry: &Retired) -> Verdict {
        let (alloc_era, retire_era) = (entry.alloc_era(), entry.retire_era());
        let overlaps = |&(lower, upper): &(u64, u64)| alloc_era <= upper && retire_era >= lower;
        if self.intervals.iter().any(overlaps) {
            Verdict::Pinned
        } else {
            Verdict::Free
        }
    }
}

impl ReservationSet for HazardSnapshot {
    /// No witness: the cover is the block's own address, and the pinned set
    /// is already bounded by the number of hazard slots. The block itself is
    /// not read.
    #[inline]
    fn judge(&self, entry: &Retired) -> Verdict {
        if self.contains(entry.block() as u64) {
            Verdict::Pinned
        } else {
            Verdict::Free
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Linked;

    /// The batch entry of a fresh block that lived through
    /// `[alloc_era, retire_era]`; the block is freed when the entry drops.
    struct Entry(Retired);

    impl core::ops::Deref for Entry {
        type Target = Retired;
        fn deref(&self) -> &Retired {
            &self.0
        }
    }

    impl Drop for Entry {
        fn drop(&mut self) {
            // SAFETY: the block was allocated by `entry_with` as a
            // `Linked<u64>`, never published, and is freed exactly once here.
            unsafe { Linked::<u64>::dealloc(self.0.block().cast()) };
        }
    }

    fn entry_with(alloc_era: u64, retire_era: u64) -> Entry {
        let block = Linked::as_header(Linked::alloc(0u64, alloc_era));
        // SAFETY: test-owned fresh block, on this one entry, never published.
        Entry(unsafe { Retired::new(block, retire_era) })
    }

    #[test]
    fn epoch_snapshot_pins_blocks_retired_at_or_after_min() {
        let mut snap = EpochSnapshot::new();
        assert_eq!(snap.min_active(), ERA_INF);
        snap.insert(ERA_INF);
        snap.insert(7);
        snap.insert(5);
        assert_eq!(snap.min_active(), 5);

        let old = entry_with(1, 4); // retired before the oldest reader
        let pinned = entry_with(1, 5); // retired at the oldest reader's epoch
        assert!(!snap.covers(&old));
        assert!(snap.covers(&pinned));
        snap.clear();
        assert_eq!(snap.min_active(), ERA_INF);
    }

    #[test]
    fn era_snapshot_binary_searches_lifespans() {
        let mut snap = EraSnapshot::new();
        snap.insert(ERA_INF); // ignored
        snap.insert(10);
        snap.insert(20);
        snap.insert(10); // deduped
        snap.seal();
        assert_eq!(snap.len(), 2);
        assert!(!snap.is_empty());

        assert!(snap.covers_span(5, 10), "era 10 inside [5,10]");
        assert!(snap.covers_span(10, 30), "both eras inside");
        assert!(snap.covers_span(15, 25), "era 20 inside [15,25]");
        assert!(!snap.covers_span(11, 19), "gap between the eras");
        assert!(!snap.covers_span(21, 99), "after every era");
        assert!(!snap.covers_span(1, 9), "before every era");

        assert!(snap.covers(&entry_with(15, 25)));
        snap.clear();
        assert!(snap.is_empty());
        assert!(!snap.covers_span(0, ERA_INF));
    }

    #[test]
    fn era_and_epoch_snapshots_name_their_witness() {
        let eras: EraSnapshot = [20, 10, 30].into_iter().collect();
        assert_eq!(eras.first_in_span(5, 40), Some(10), "the smallest era");
        assert_eq!(eras.first_in_span(11, 40), Some(20));
        assert_eq!(eras.first_in_span(31, 40), None);
        assert!(eras.contains(20) && !eras.contains(21));

        let mut epochs = EpochSnapshot::new();
        epochs.insert(7);
        let spans_two = entry_with(15, 25);
        assert_eq!(eras.judge(&spans_two), Verdict::PinnedBy(20));
        assert!(eras.holds(20) && !eras.holds(15));
        assert_eq!(epochs.judge(&spans_two), Verdict::PinnedBy(7));
        assert!(
            epochs.holds(7) && epochs.holds(8),
            "no newer than the witness"
        );
        assert!(!epochs.holds(6), "the oldest reader moved past epoch 6");
        let free = entry_with(1, 6);
        assert_eq!(eras.judge(&free), Verdict::Free);
        assert_eq!(epochs.judge(&free), Verdict::Free);
        assert!(
            !EpochSnapshot::new().holds(u64::MAX - 1),
            "no reader, no witness"
        );
    }

    #[test]
    fn hazard_and_interval_snapshots_name_no_witness() {
        let entry = entry_with(15, 30);
        let mut intervals = IntervalSnapshot::new();
        intervals.insert(10, 20);
        let mut hazards = HazardSnapshot::new();
        hazards.insert(entry.block() as u64);
        hazards.seal();
        assert_eq!(intervals.judge(&entry), Verdict::Pinned);
        assert_eq!(hazards.judge(&entry), Verdict::Pinned);
        assert!(!intervals.holds(15) && !hazards.holds(15));
    }

    #[test]
    fn interval_snapshot_checks_overlap() {
        let mut snap = IntervalSnapshot::new();
        snap.insert(10, 20);
        assert_eq!(snap.len(), 1);
        assert!(!snap.is_empty());

        assert!(snap.covers(&entry_with(15, 30)));
        assert!(!snap.covers(&entry_with(21, 30)));
        snap.clear();
        assert!(snap.is_empty());
    }

    #[test]
    fn hazard_snapshot_matches_exact_addresses() {
        let a = entry_with(0, 0);
        let b = entry_with(0, 0);
        let mut snap = HazardSnapshot::new();
        snap.insert(0); // ignored
        snap.insert(a.block() as u64);
        snap.insert(a.block() as u64); // deduped
        snap.seal();
        assert_eq!(snap.len(), 1);
        assert!(snap.covers(&a));
        assert!(!snap.covers(&b));
    }
}
