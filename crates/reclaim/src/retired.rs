//! Per-thread retired batches and the lock-free orphan stack.
//!
//! Retired blocks wait on an owner-thread-only batch of [`Retired`] entries
//! until a cleanup pass drains the batch against a reservation snapshot
//! ([`crate::scan::ReservationSet`]) taken once per pass. When a thread
//! handle is dropped with blocks still pending, the leftover batch is pushed
//! onto the owning domain's [`OrphanStack`] — a lock-free Treiber stack of
//! whole batches — and the next live thread's cleanup pass *adopts* it, so
//! memory retired by exited threads is reclaimed while the domain is still
//! running instead of waiting for domain teardown.

use wfe_sync::atomic::{AtomicU64, Ordering};

use crate::block::{free_block, BlockHeader};
use crate::cache::LocalBlockCache;
use crate::scan::{ReservationSet, Verdict};
use crate::stats::SlotCounters;
use crate::treiber::TypeStableStack;

/// One retired block and the era it was retired in: an entry of a
/// [`RetiredBatch`], and what a [`ReservationSet`] judges.
///
/// The retire era and the batch's order live here rather than in the
/// block's [`BlockHeader`]: only the retiring thread (or the adopter of its
/// batch) ever reads them, and only after retirement, so a live block need
/// not carry them. An entry owns its block from [`new`](Self::new) until the
/// batch frees it; it is neither `Clone` nor `Copy`, so no safe code can
/// keep it past that point.
#[derive(Debug)]
pub struct Retired {
    block: *mut BlockHeader,
    retire_era: u64,
}

impl Retired {
    /// The entry of `block`, retired in era `retire_era`.
    ///
    /// # Safety
    ///
    /// `block` must be a valid, retired, unreachable block, on no other
    /// entry; the entry owns it until a batch frees it.
    #[inline]
    pub unsafe fn new(block: *mut BlockHeader, retire_era: u64) -> Self {
        Self { block, retire_era }
    }

    /// The block's address: what a hazard pointer names.
    #[inline]
    pub fn block(&self) -> *mut BlockHeader {
        self.block
    }

    /// Era at which the block was retired.
    #[inline]
    pub fn retire_era(&self) -> u64 {
        self.retire_era
    }

    /// Era at which the block was allocated, read from its header.
    #[inline]
    pub fn alloc_era(&self) -> u64 {
        // SAFETY: the entry owns a live block (`new`'s contract) until the
        // batch frees it, which consumes the entry.
        unsafe { (*self.block).alloc_era() }
    }
}

/// Blocks one witness pins: all of them stay covered for as long as a
/// snapshot still [`holds`](ReservationSet::holds) `witness`.
#[derive(Debug)]
struct Group {
    witness: u64,
    blocks: Vec<Retired>,
}

/// Moves every entry of `from` onto `to`, by swapping the two vectors when
/// `to` is empty, so a whole list changes hands without a copy.
fn append_entries(to: &mut Vec<Retired>, from: &mut Vec<Retired>) {
    if to.is_empty() {
        core::mem::swap(to, from);
    } else {
        to.append(from);
    }
}

/// What one [`RetiredBatch::scan_against`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanTally {
    /// Blocks freed.
    pub freed: usize,
    /// Blocks judged one by one (the scan list, after released groups
    /// rejoined it); blocks of groups that stayed parked are not counted.
    pub scanned: usize,
}

/// Owner-thread-only batch of retired blocks, as [`Retired`] entries.
///
/// `retire` appends to the **scan list**; every `cleanup_freq` retirements
/// the owning handle drains the scan list against one reservation snapshot
/// ([`RetiredBatch::scan_against`]). A block that survives because a named
/// era pins it ([`Verdict::PinnedBy`]) is **parked** on that witness's group
/// and is not looked at again until the witness is withdrawn; a survivor
/// without a witness goes back on the scan list.
///
/// Every list is a `Vec` whose capacity outlives its entries: the scan list
/// and `scratch` trade places every pass, and a released group's vector is
/// kept for the next group, so in steady state neither a retire nor a pass
/// calls the allocator.
#[derive(Debug)]
pub struct RetiredBatch {
    /// Blocks the next pass judges one by one.
    scan: Vec<Retired>,
    /// Empty; the vector the next pass moves the scan list's survivors into.
    scratch: Vec<Retired>,
    /// Parked blocks, one group per witness (witnesses are distinct).
    groups: Vec<Group>,
    /// Empty vectors of released groups, kept for the next groups.
    spare: Vec<Vec<Retired>>,
}

// SAFETY: the batch is owned by exactly one thread at a time; sending it
// (e.g. onto the orphan stack) transfers that ownership wholesale.
unsafe impl Send for RetiredBatch {}

impl RetiredBatch {
    /// Creates an empty batch.
    pub const fn new() -> Self {
        Self {
            scan: Vec::new(),
            scratch: Vec::new(),
            groups: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Number of blocks currently on the batch (scan list and parked groups).
    pub fn len(&self) -> usize {
        let parked: usize = self.groups.iter().map(|group| group.blocks.len()).sum();
        self.scan.len() + parked
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parked groups as `(witness era, blocks)` pairs: which published
    /// era pins how much of this batch.
    pub fn parked_groups(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.groups
            .iter()
            .map(|group| (group.witness, group.blocks.len()))
    }

    /// Appends a retired block to the scan list.
    #[inline]
    pub fn push(&mut self, entry: Retired) {
        self.scan.push(entry);
    }

    /// The list of the group parked under `witness`, created on first use
    /// from a spare vector. Inlinable across crates like [`free_block`]: the
    /// scan calls it per parked block.
    #[inline]
    fn group_mut(&mut self, witness: u64) -> &mut Vec<Retired> {
        let index = match self.groups.iter().position(|g| g.witness == witness) {
            Some(index) => index,
            None => {
                let blocks = self.spare.pop().unwrap_or_default();
                self.groups.push(Group { witness, blocks });
                self.groups.len() - 1
            }
        };
        &mut self.groups[index].blocks
    }

    /// Drains the batch against a reservation snapshot: every block the
    /// snapshot does not cover is freed, the rest are kept for the next pass.
    ///
    /// This is the batch scan protocol: the caller takes the snapshot **once**
    /// (after every block in the batch has been retired — for adopted batches,
    /// after popping them from the orphan stack) and the per-block test runs
    /// against the snapshot without touching shared memory.
    ///
    /// The pass first asks the snapshot one question per parked group — is
    /// the witness still held? A held group is skipped whole; a released one
    /// rejoins the scan list. Then each block of the scan list is judged:
    /// freed, parked under its witness, or kept on the scan list. Skipping is
    /// exact: a held witness proves every block of its group still covered
    /// ([`ReservationSet::holds`]), so the pass frees precisely what judging
    /// every block would free, and its cost is the new and released blocks
    /// plus one lookup per group — every group left behind has a witness the
    /// snapshot holds, so there are no more groups than published eras.
    ///
    /// Freed class blocks park on `local` (the scanning thread's magazine),
    /// which spills to the pool when it fills; `Box` blocks free straight
    /// to the allocator.
    ///
    /// # Safety
    ///
    /// `snapshot` must have been filled from the domain's reservation tables
    /// *after* every block on this batch was retired, so that any reservation
    /// still protecting a block is visible in it.
    pub unsafe fn scan_against<S: ReservationSet>(
        &mut self,
        snapshot: &S,
        mut local: Option<&mut LocalBlockCache>,
    ) -> ScanTally {
        let mut index = 0;
        while index < self.groups.len() {
            if snapshot.holds(self.groups[index].witness) {
                index += 1;
            } else {
                let mut released = self.groups.swap_remove(index).blocks;
                self.scan.append(&mut released);
                self.spare.push(released);
            }
        }

        let survivors = core::mem::take(&mut self.scratch);
        let mut pending = core::mem::replace(&mut self.scan, survivors);
        let scanned = pending.len();
        let mut freed = 0usize;
        for entry in pending.drain(..) {
            match snapshot.judge(&entry) {
                Verdict::Free => {
                    // SAFETY: the entry owns its block (`Retired::new`), and
                    // a block the snapshot does not cover is — per the
                    // caller's snapshot-freshness contract — unprotected and
                    // unreachable; the entry is consumed, so the block is
                    // freed exactly once.
                    unsafe { free_block(entry.block, local.as_deref_mut()) };
                    freed += 1;
                }
                Verdict::Pinned => self.scan.push(entry),
                Verdict::PinnedBy(witness) => self.group_mut(witness).push(entry),
            }
        }
        self.scratch = pending;
        ScanTally { freed, scanned }
    }

    /// Unconditionally frees every block on the batch. Returns the count.
    ///
    /// # Safety
    ///
    /// No thread may still hold or acquire references to any block on the
    /// batch (e.g. the owning domain is being dropped).
    pub unsafe fn free_all(&mut self) -> usize {
        let parked = self.groups.drain(..).flat_map(|group| group.blocks);
        let mut freed = 0usize;
        for entry in self.scan.drain(..).chain(parked) {
            // SAFETY: the caller guarantees no thread can still reach these
            // blocks; each entry owns its block and is consumed here, so the
            // block is freed exactly once.
            unsafe { free_block(entry.block, None) };
            freed += 1;
        }
        freed
    }

    /// Moves every block from `other` onto `self`: scan list onto scan list,
    /// each parked group onto the group of the same witness. A list that
    /// lands on an empty one is swapped in, not copied, so adopting a batch
    /// into an idle one walks no entry.
    pub fn append(&mut self, other: &mut RetiredBatch) {
        append_entries(&mut self.scan, &mut other.scan);
        for mut group in other.groups.drain(..) {
            match self
                .groups
                .iter_mut()
                .find(|ours| ours.witness == group.witness)
            {
                Some(ours) => append_entries(&mut ours.blocks, &mut group.blocks),
                None => self.groups.push(group),
            }
        }
    }

    /// Takes the whole batch — scan list and parked groups — leaving `self`
    /// empty.
    pub fn take(&mut self) -> RetiredBatch {
        core::mem::take(self)
    }
}

impl Default for RetiredBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for RetiredBatch {
    fn drop(&mut self) {
        debug_assert!(
            self.is_empty(),
            "RetiredBatch dropped with {} blocks still pending; \
             they must be pushed onto an orphan stack or freed first",
            self.len()
        );
    }
}

/// One cleanup pass of the batch scan protocol, shared by every scheme's
/// handle: pop an orphaned batch (if any), take the reservation snapshot once
/// via `fill`, then drain the own batch and the adopted batch against that
/// single snapshot, crediting `counters` — the scanning thread's own slot —
/// with the frees, the scan and the adoption.
///
/// The orphan batch is popped *before* `fill` runs so that every adopted
/// block was retired before the snapshot's loads — the batch scan safety
/// condition. Adopted survivors are appended to `retired`: parked groups
/// join the adopter's groups, the rest is rescanned on the owner's next
/// pass. Freed class blocks land on `local` (the scanning
/// thread's magazine), which spills to the pool when it fills; the
/// magazine's hit/miss tallies and parked bytes are folded into `counters`
/// at the end of the pass, so domain-level stats lag by at most one cleanup
/// interval.
///
/// # Safety
///
/// Same contract as [`RetiredBatch::scan_against`]: `fill` must fill
/// `snapshot` from the domain's reservation tables such that any reservation
/// still protecting a block on `retired` (or on the popped orphan batch) is
/// visible in it.
pub unsafe fn cleanup_pass<S: ReservationSet>(
    retired: &mut RetiredBatch,
    orphans: &OrphanStack,
    counters: &SlotCounters,
    snapshot: &mut S,
    mut local: Option<&mut LocalBlockCache>,
    fill: impl FnOnce(&mut S),
) {
    let adopted = orphans.pop();
    fill(snapshot);
    // SAFETY: `fill` ran after every block on `retired` was retired and after
    // the orphan batch was popped, so the snapshot-freshness contract of
    // `scan_against` holds for both batches (the caller's obligation).
    let mut tally = unsafe { retired.scan_against(snapshot, local.as_deref_mut()) };
    if let Some(mut batch) = adopted {
        // SAFETY: as above — the snapshot was taken after the pop.
        let theirs = unsafe { batch.scan_against(snapshot, local.as_deref_mut()) };
        counters.on_adoption(theirs.freed as u64);
        retired.append(&mut batch);
        tally.freed += theirs.freed;
        tally.scanned += theirs.scanned;
    }
    counters.on_free(tally.freed as u64);
    counters.on_scan(tally.scanned as u64);
    if let Some(local) = local {
        local.flush_stats(counters);
    }
}

/// Lock-free Treiber stack of whole retired batches abandoned by exited
/// threads.
///
/// A dropping handle [`push`](Self::push)es its leftover batch; any live
/// thread's cleanup pass [`pop`](Self::pop)s one batch and adopts it (scans
/// it against its freshly taken reservation snapshot and keeps the
/// survivors). The stack itself is a `TypeStableStack` — versioned
/// wide-CAS ends, recycled nodes — so it is lock-free and ABA-safe; whatever
/// is still parked when the domain drops is freed by
/// [`free_all`](Self::free_all).
// LAYOUT: gauge and stack are written together, by a handle drop or by the
// pass that adopts; between those the per-pass emptiness probe reads `blocks`
// from a line nobody is writing.
pub struct OrphanStack {
    stack: TypeStableStack<RetiredBatch>,
    /// Blocks currently parked (approximate between operations, exact when
    /// quiescent); used by stats and tests.
    blocks: AtomicU64,
}

impl OrphanStack {
    /// Creates an empty orphan stack.
    pub fn new() -> Self {
        Self {
            stack: TypeStableStack::new(),
            blocks: AtomicU64::new(0),
        }
    }

    /// Number of orphaned blocks currently parked.
    pub fn len(&self) -> usize {
        self.blocks.load(Ordering::Acquire) as usize // ORDER: gauge read; pairs with the AcqRel park/adopt updates.
    }

    /// Whether no blocks are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parks `batch` on the stack (no-op for an empty batch).
    pub fn push(&self, batch: RetiredBatch) {
        if batch.is_empty() {
            return;
        }
        self.blocks.fetch_add(batch.len() as u64, Ordering::AcqRel); // ORDER: keeps the gauge ordered with the batch push it mirrors.
        self.stack.push(batch);
    }

    /// Pops one parked batch for adoption, if any.
    ///
    /// The caller must take its reservation snapshot **after** this returns,
    /// so that any reservation still protecting an adopted block is observed
    /// by the snapshot.
    pub fn pop(&self) -> Option<RetiredBatch> {
        // Opportunistic empty check: the common no-orphans cleanup pass must
        // not pay a wide-CAS RMW on the shared head line. A batch whose push
        // is in flight may be missed — adoption is opportunistic, the next
        // pass will see it.
        // ORDER: opportunistic empty check; a missed in-flight push is adopted next pass.
        if self.blocks.load(Ordering::Acquire) == 0 {
            return None;
        }
        let batch = self.stack.pop()?;
        self.blocks.fetch_sub(batch.len() as u64, Ordering::AcqRel); // ORDER: keeps the gauge ordered with the batch pop it mirrors.
        Some(batch)
    }

    /// Frees every parked block. Returns the count.
    ///
    /// # Safety
    ///
    /// Callable only when no thread can still reach the orphaned blocks
    /// (typically from the domain's `Drop`).
    pub unsafe fn free_all(&self) -> usize {
        let mut freed = 0usize;
        while let Some(mut batch) = self.pop() {
            // SAFETY: forwarded contract — no thread can reach these blocks.
            freed += unsafe { batch.free_all() };
        }
        freed
    }
}

impl Default for OrphanStack {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for OrphanStack {
    fn drop(&mut self) {
        debug_assert!(
            self.is_empty(),
            "OrphanStack dropped with {} blocks still parked; \
             the owning domain must call free_all() first",
            self.len()
        );
        // The inner stack deallocates its type-stable nodes.
    }
}

impl core::fmt::Debug for OrphanStack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OrphanStack")
            .field("blocks", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Linked;
    use crate::scan::{EpochSnapshot, EraSnapshot, HazardSnapshot, ReservationSet};
    use crate::wfe::WfeSnapshot;
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::Arc;
    use wfe_sync::atomic::{AtomicUsize, Ordering::SeqCst};

    struct Canary(Arc<AtomicUsize>);
    impl Drop for Canary {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }

    /// The entry of a fresh block that lived through `[alloc_era, retire_era]`.
    fn entry(drops: &Arc<AtomicUsize>, alloc_era: u64, retire_era: u64) -> Retired {
        let block = Linked::as_header(Linked::alloc(Canary(drops.clone()), alloc_era));
        // SAFETY: freshly allocated, test-owned block, on this one entry;
        // nothing ever publishes it.
        unsafe { Retired::new(block, retire_era) }
    }

    fn make(drops: &Arc<AtomicUsize>) -> Retired {
        entry(drops, 0, 0)
    }

    /// Retires onto `batch` a fresh block that lived through
    /// `[alloc_era, retire_era]`.
    fn retire_span(
        batch: &mut RetiredBatch,
        drops: &Arc<AtomicUsize>,
        alloc_era: u64,
        retire_era: u64,
    ) {
        batch.push(entry(drops, alloc_era, retire_era));
    }

    /// One pass of a single-threaded test: `(freed, scanned)`.
    fn scan<S: ReservationSet>(batch: &mut RetiredBatch, snapshot: &S) -> (usize, usize) {
        // SAFETY: no other thread exists, so the snapshot is all there is to
        // protect a block and it was built after every retire.
        let tally = unsafe { batch.scan_against(snapshot, None) };
        (tally.freed, tally.scanned)
    }

    fn eras(published: &[u64]) -> EraSnapshot {
        published.iter().copied().collect()
    }

    fn groups_of(batch: &RetiredBatch) -> Vec<(u64, usize)> {
        let mut groups: Vec<_> = batch.parked_groups().collect();
        groups.sort_unstable();
        groups
    }

    #[test]
    fn push_scan_keep_and_free() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut batch = RetiredBatch::new();
        let [a, b, c] = [(); 3].map(|()| make(&drops));
        let (a_addr, c_addr) = (a.block() as u64, c.block() as u64);
        batch.push(a);
        batch.push(b);
        batch.push(c);
        assert_eq!(batch.len(), 3);
        // Snapshot covering `a` and `c`: only `b` may be freed.
        let mut snap = HazardSnapshot::new();
        snap.insert(a_addr);
        snap.insert(c_addr);
        snap.seal();
        // SAFETY: the snapshot was filled after every push; nothing else references
        // the blocks.
        let tally = unsafe { batch.scan_against(&snap, None) };
        assert_eq!(
            tally,
            ScanTally {
                freed: 1,
                scanned: 3
            }
        );
        assert_eq!(batch.len(), 2);
        assert_eq!(drops.load(SeqCst), 1);
        assert_eq!(
            batch.parked_groups().count(),
            0,
            "a hazard pointer names no witness: survivors stay on the scan list"
        );
        // SAFETY: as above.
        let again = unsafe { batch.scan_against(&snap, None) };
        assert_eq!(again.scanned, 2, "and are judged again by every pass");
        // SAFETY: no other thread references the batch's blocks.
        let freed = unsafe { batch.free_all() };
        assert_eq!(freed, 2);
        assert_eq!(drops.load(SeqCst), 3);
        assert!(batch.is_empty());
    }

    #[test]
    fn scan_routes_freed_blocks_into_the_cache() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut batch = RetiredBatch::new();
        let mut local = LocalBlockCache::new();
        for _ in 0..2 {
            // Class blocks: allocated through a magazine.
            let block = Linked::alloc_in(Canary(drops.clone()), 0, Some(&mut local));
            // SAFETY: freshly allocated, test-owned block, on this one entry.
            batch.push(unsafe { Retired::new(Linked::as_header(block), 0) });
        }
        let parked = local.cached_bytes();
        // An empty (sealed) snapshot covers nothing: everything is freeable.
        let mut snap = HazardSnapshot::new();
        snap.seal();
        // SAFETY: snapshot taken after the pushes; nothing else references them.
        let freed = unsafe { batch.scan_against(&snap, Some(&mut local)) }.freed;
        assert_eq!(freed, 2);
        assert_eq!(drops.load(SeqCst), 2, "payloads dropped");
        assert_eq!(
            local.cached_bytes(),
            parked + 2 * 40,
            "freed memory parked on the magazine"
        );
    }

    #[test]
    fn append_moves_all_blocks() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut a_batch = RetiredBatch::new();
        let mut b_batch = RetiredBatch::new();
        a_batch.push(make(&drops));
        b_batch.push(make(&drops));
        b_batch.push(make(&drops));
        a_batch.append(&mut b_batch);
        assert_eq!(a_batch.len(), 3);
        assert!(b_batch.is_empty());
        a_batch.append(&mut b_batch); // appending an empty batch is a no-op
        assert_eq!(a_batch.len(), 3);
        let taken = a_batch.take();
        assert!(a_batch.is_empty());
        let mut taken = taken;
        // SAFETY: no other thread references the batch's blocks.
        unsafe { taken.free_all() };
        assert_eq!(drops.load(SeqCst), 3);
    }

    #[test]
    fn pinned_blocks_park_under_their_witness_until_it_is_withdrawn() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut batch = RetiredBatch::new();
        retire_span(&mut batch, &drops, 1, 5); // pinned by era 5 only
        retire_span(&mut batch, &drops, 3, 9); // pinned by 5, and by 7
        retire_span(&mut batch, &drops, 6, 9); // not pinned by 5
        assert_eq!(scan(&mut batch, &eras(&[5])), (1, 3));
        assert_eq!(groups_of(&batch), [(5, 2)]);
        assert_eq!(batch.len(), 2);

        // The witness is still published — by whom does not matter: the
        // group is skipped whole, and a newly retired block is all the pass
        // looks at.
        retire_span(&mut batch, &drops, 8, 8);
        assert_eq!(scan(&mut batch, &eras(&[5, 12])), (1, 1));
        assert_eq!(groups_of(&batch), [(5, 2)]);

        // Era 5 withdrawn, era 7 published: the group rejoins the scan list
        // and is judged block by block; one block finds a new witness.
        assert_eq!(scan(&mut batch, &eras(&[7])), (1, 2));
        assert_eq!(groups_of(&batch), [(7, 1)]);

        assert_eq!(scan(&mut batch, &eras(&[])), (1, 1));
        assert!(batch.is_empty());
        assert_eq!(drops.load(SeqCst), 4);
    }

    #[test]
    fn steady_state_passes_reuse_every_vector() {
        // Every pass parks eight new blocks under a new witness and releases
        // (and frees) the previous group: after a warm-up the batch's
        // vectors are the same buffers with the same capacities, pass after
        // pass — no retire and no pass calls the allocator.
        let drops = Arc::new(AtomicUsize::new(0));
        let mut batch = RetiredBatch::new();
        let buffers = |batch: &RetiredBatch| {
            let groups = batch.groups.iter().map(|group| &group.blocks);
            let mut all: Vec<_> = [&batch.scan, &batch.scratch]
                .into_iter()
                .chain(groups)
                .chain(&batch.spare)
                .filter(|list| list.capacity() > 0)
                .map(|list| (list.as_ptr(), list.capacity()))
                .collect();
            all.sort_unstable();
            all
        };
        let mut warm = Vec::new();
        for era in 1..12u64 {
            for _ in 0..8 {
                retire_span(&mut batch, &drops, era, era);
            }
            let freed = if era == 1 { 0 } else { 8 };
            assert_eq!(scan(&mut batch, &eras(&[era])), (freed, 8 + freed));
            assert_eq!(groups_of(&batch), [(era, 8)]);
            if era == 4 {
                warm = buffers(&batch);
            } else if era > 4 {
                assert_eq!(buffers(&batch), warm, "pass {era} reallocated");
            }
        }
        assert_eq!(scan(&mut batch, &eras(&[])), (8, 8));
        assert!(batch.is_empty());
    }

    #[test]
    fn epoch_witness_holds_while_the_oldest_reader_is_no_newer() {
        let drops = Arc::new(AtomicUsize::new(0));
        let epoch = |min_active: u64| {
            let mut snap = EpochSnapshot::new();
            snap.insert(min_active);
            snap
        };
        let mut batch = RetiredBatch::new();
        retire_span(&mut batch, &drops, 0, 4); // retired before the reader began
        retire_span(&mut batch, &drops, 0, 6);
        retire_span(&mut batch, &drops, 0, 9);
        assert_eq!(scan(&mut batch, &epoch(5)), (1, 3));
        assert_eq!(groups_of(&batch), [(5, 2)]);
        // An older reader shows up late: still held, nothing rescanned.
        assert_eq!(scan(&mut batch, &epoch(3)), (0, 0));
        // The oldest reader moves to epoch 7: released, rejudged, regrouped.
        assert_eq!(scan(&mut batch, &epoch(7)), (1, 2));
        assert_eq!(groups_of(&batch), [(7, 1)]);
        // No reader at all.
        assert_eq!(scan(&mut batch, &EpochSnapshot::new()), (1, 1));
        assert!(batch.is_empty());
        assert_eq!(drops.load(SeqCst), 3);
    }

    #[test]
    fn append_merges_groups_by_witness_and_take_carries_them() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mut ours = RetiredBatch::new();
        let mut theirs = RetiredBatch::new();
        retire_span(&mut ours, &drops, 1, 5);
        retire_span(&mut ours, &drops, 9, 9);
        retire_span(&mut theirs, &drops, 2, 6);
        retire_span(&mut theirs, &drops, 2, 7);
        retire_span(&mut theirs, &drops, 8, 9);
        let snap = eras(&[5, 9]);
        scan(&mut ours, &snap);
        scan(&mut theirs, &snap);
        // One block on each scan list as well.
        retire_span(&mut ours, &drops, 20, 20);
        retire_span(&mut theirs, &drops, 21, 21);
        assert_eq!(groups_of(&ours), [(5, 1), (9, 1)]);
        assert_eq!(groups_of(&theirs), [(5, 2), (9, 1)]);

        ours.append(&mut theirs);
        assert!(theirs.is_empty());
        assert_eq!(theirs.parked_groups().count(), 0);
        assert_eq!(ours.len(), 7);
        assert_eq!(groups_of(&ours), [(5, 3), (9, 2)]);

        let mut taken = ours.take();
        assert!(ours.is_empty());
        assert_eq!(groups_of(&taken), [(5, 3), (9, 2)]);
        assert_eq!(taken.len(), 7);

        // Withdraw era 9 only: its group and the scan list are judged, the
        // era-5 group is not touched.
        assert_eq!(scan(&mut taken, &eras(&[5])), (4, 4));
        assert_eq!(groups_of(&taken), [(5, 3)]);
        // SAFETY: single thread; nothing references the blocks.
        let freed = unsafe { taken.free_all() };
        assert_eq!(freed, 3, "free_all reaches parked groups");
        assert_eq!(drops.load(SeqCst), 7);
    }

    #[test]
    fn cleanup_pass_adopts_parked_groups_without_rescanning_them() {
        let drops = Arc::new(AtomicUsize::new(0));
        let orphans = OrphanStack::new();
        let counters = SlotCounters::default();
        // An exited thread's batch: 40 blocks parked under era 5, which a
        // stalled reader still publishes.
        let mut exited = RetiredBatch::new();
        for _ in 0..40 {
            retire_span(&mut exited, &drops, 1, 8);
        }
        scan(&mut exited, &eras(&[5]));
        assert_eq!(groups_of(&exited), [(5, 40)]);
        orphans.push(exited);
        assert_eq!(orphans.len(), 40, "parked blocks count as orphaned blocks");
        // What the retiring handles would have counted.
        (0..41).for_each(|_| counters.on_retire());

        let mut retired = RetiredBatch::new();
        let mut snapshot = EraSnapshot::new();
        let mut pass = |retired: &mut RetiredBatch, published: &[u64]| {
            // SAFETY: single thread; the snapshot is filled inside the pass,
            // after the retires and the orphan pop.
            unsafe {
                cleanup_pass(
                    retired,
                    &orphans,
                    &counters,
                    &mut snapshot,
                    None,
                    |snapshot| *snapshot = eras(published),
                );
            }
            crate::stats::snapshot(|| core::iter::once(&counters), 1)
        };
        retire_span(&mut retired, &drops, 9, 9);
        let stats = pass(&mut retired, &[5]);
        assert_eq!(stats.adopted_batches, 1);
        assert_eq!(stats.scanned, 1, "only the adopter's own new block");
        assert_eq!(stats.freed, 1);
        assert_eq!(groups_of(&retired), [(5, 40)]);
        assert!(orphans.is_empty());

        let stats = pass(&mut retired, &[]);
        assert_eq!(stats.scanned, 41, "the released group is judged once");
        assert_eq!(stats.freed, 41);
        assert!(retired.is_empty());
        assert_eq!(drops.load(SeqCst), 41);
    }

    #[test]
    fn orphan_stack_push_pop_is_lifo_batches() {
        let drops = Arc::new(AtomicUsize::new(0));
        let stack = OrphanStack::new();
        let mut first = RetiredBatch::new();
        let mut second = RetiredBatch::new();
        first.push(make(&drops));
        second.push(make(&drops));
        second.push(make(&drops));
        stack.push(first);
        stack.push(second);
        assert_eq!(stack.len(), 3);
        let mut adopted = stack.pop().expect("a batch is parked");
        assert_eq!(adopted.len(), 2, "batches pop LIFO");
        assert_eq!(stack.len(), 1);
        // SAFETY: no other thread references the batch's blocks.
        unsafe { adopted.free_all() };
        // SAFETY: all pushes happened-before; nothing references the parked blocks.
        assert_eq!(unsafe { stack.free_all() }, 1);
        assert!(stack.is_empty());
        assert!(stack.pop().is_none());
        assert_eq!(drops.load(SeqCst), 3);
    }

    #[test]
    fn orphan_stack_recycles_nodes() {
        let drops = Arc::new(AtomicUsize::new(0));
        let stack = OrphanStack::new();
        for _ in 0..10 {
            let mut batch = RetiredBatch::new();
            batch.push(make(&drops));
            stack.push(batch);
            let mut adopted = stack.pop().unwrap();
            // SAFETY: no other thread references the batch's blocks.
            unsafe { adopted.free_all() };
        }
        assert!(stack.is_empty());
        assert_eq!(drops.load(SeqCst), 10);
    }

    #[test]
    fn empty_batch_push_is_a_noop() {
        let stack = OrphanStack::new();
        stack.push(RetiredBatch::new());
        assert!(stack.pop().is_none());
    }

    #[test]
    fn concurrent_push_pop_conserves_blocks() {
        const THREADS: usize = 4;
        const BATCHES: usize = 200;
        let drops = Arc::new(AtomicUsize::new(0));
        let stack = Arc::new(OrphanStack::new());
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let drops = Arc::clone(&drops);
                let stack = Arc::clone(&stack);
                scope.spawn(move || {
                    for i in 0..BATCHES {
                        let mut batch = RetiredBatch::new();
                        batch.push(make(&drops));
                        batch.push(make(&drops));
                        stack.push(batch);
                        if i % 2 == 0 {
                            if let Some(mut adopted) = stack.pop() {
                                // SAFETY: no other thread references the batch's blocks.
                                unsafe { adopted.free_all() };
                            }
                        }
                    }
                });
            }
        });
        // SAFETY: all workers have joined; nothing references the parked blocks.
        let remaining = unsafe { stack.free_all() };
        assert!(stack.is_empty());
        assert_eq!(
            drops.load(SeqCst),
            THREADS * BATCHES * 2,
            "every block freed exactly once (popped {remaining} at teardown)"
        );
    }

    /// One cleanup pass of the parked-scan differential: the blocks retired
    /// since the previous pass, how the batch changes hands before the pass, and
    /// the eras the pass's snapshot records in each of WFE's three columns. Eras
    /// come from a pool of twelve, so they appear, disappear and reappear.
    #[derive(Debug, Clone)]
    struct ScanStep {
        /// `(alloc_era, lifespan length)` of each newly retired block.
        retired: Vec<(u64, u64)>,
        hand_off: HandOff,
        primary: Vec<u64>,
        /// `false` = a slow path was in flight: the two columns below count.
        quiescent: bool,
        handover: Vec<u64>,
        recheck: Vec<u64>,
    }

    /// What happens to the batch between two passes.
    #[derive(Debug, Clone, Copy)]
    enum HandOff {
        /// The owner keeps it.
        Keep,
        /// `take()`n and `append`ed to another handle's batch that already
        /// parked blocks under the same snapshot (adoption).
        Adopt,
        /// Parked on an `OrphanStack` and popped again (handle exit).
        Orphan,
    }

    fn scan_step_strategy() -> impl Strategy<Value = ScanStep> {
        let eras = || proptest::collection::vec(0u64..12, 0..4);
        let hand_off = prop_oneof![
            Just(HandOff::Keep),
            Just(HandOff::Keep),
            Just(HandOff::Adopt),
            Just(HandOff::Orphan)
        ];
        let retired = proptest::collection::vec((0u64..12, 0u64..6), 0..8);
        ((retired, hand_off), (eras(), any::<bool>(), eras(), eras())).prop_map(
            |((retired, hand_off), (primary, quiescent, handover, recheck))| ScanStep {
                retired,
                hand_off,
                primary,
                quiescent,
                handover,
                recheck,
            },
        )
    }

    /// A payload that reports its id when the batch frees it.
    struct Tracked {
        id: usize,
        freed: Rc<RefCell<Vec<usize>>>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            self.freed.borrow_mut().push(self.id);
        }
    }

    /// The parked batch against a reference that rejudges every surviving block
    /// on every pass, from the eras alone (`pinned` is the scheme's safety
    /// condition written out, sharing no code with `scan.rs`): both must free the
    /// same blocks on the same pass, across `take()`/`append` adoption and an
    /// orphan-stack round trip, and an empty final snapshot must free the rest.
    fn check_parked_scan<S: ReservationSet>(
        steps: &[ScanStep],
        snapshot_of: impl Fn(&ScanStep) -> S,
        pinned: impl Fn(&ScanStep, u64, u64) -> bool,
    ) {
        let freed = Rc::new(RefCell::new(Vec::new()));
        let orphans = OrphanStack::new();
        let mut batch = RetiredBatch::new();
        let mut reference: Vec<(usize, u64, u64)> = Vec::new();
        let mut next_id = 0;
        let mut previous: Option<&ScanStep> = None;
        let last = ScanStep {
            retired: Vec::new(),
            hand_off: HandOff::Keep,
            primary: Vec::new(),
            quiescent: true,
            handover: Vec::new(),
            recheck: Vec::new(),
        };
        for step in steps.iter().chain([&last]) {
            let mut retire = |batch: &mut RetiredBatch, alloc_era: u64, retire_era: u64| {
                let id = next_id;
                next_id += 1;
                let block = Linked::alloc(
                    Tracked {
                        id,
                        freed: Rc::clone(&freed),
                    },
                    alloc_era,
                );
                // SAFETY: the block is fresh, owned by this test, pushed on one
                // batch only, and nothing else ever references it.
                batch.push(unsafe { Retired::new(Linked::as_header(block), retire_era) });
                (id, alloc_era, retire_era)
            };
            match step.hand_off {
                HandOff::Keep => {}
                HandOff::Adopt => {
                    // The adopter retired one block of its own and judged it
                    // against the snapshot the batch last saw, so it may already
                    // hold a group with a witness the batch also uses.
                    let mut adopter = RetiredBatch::new();
                    if let Some(previous) = previous {
                        let own = retire(&mut adopter, 3, 8);
                        // SAFETY: single thread — nothing reserves anything the
                        // snapshot does not record.
                        unsafe { adopter.scan_against(&snapshot_of(previous), None) };
                        if freed.borrow_mut().drain(..).next().is_none() {
                            reference.push(own);
                        }
                    }
                    let mut orphaned = batch.take();
                    prop_assert!(batch.is_empty());
                    adopter.append(&mut orphaned);
                    prop_assert!(orphaned.is_empty());
                    batch = adopter;
                }
                HandOff::Orphan => {
                    let len = batch.len();
                    orphans.push(batch.take());
                    prop_assert_eq!(orphans.len(), len);
                    if let Some(popped) = orphans.pop() {
                        batch = popped;
                    }
                    prop_assert_eq!(batch.len(), len, "the orphan stack lost blocks");
                }
            }
            for &(alloc_era, span) in &step.retired {
                reference.push(retire(&mut batch, alloc_era, alloc_era + span));
            }
            prop_assert_eq!(batch.len(), reference.len(), "the hand-off lost blocks");

            // SAFETY: as above — single thread, the snapshot is all there is.
            let tally = unsafe { batch.scan_against(&snapshot_of(step), None) };
            let mut now_freed: Vec<usize> = freed.borrow_mut().drain(..).collect();
            now_freed.sort_unstable();
            let mut expected = Vec::new();
            reference.retain(|&(id, alloc_era, retire_era)| {
                let keep = pinned(step, alloc_era, retire_era);
                if !keep {
                    expected.push(id);
                }
                keep
            });
            prop_assert_eq!(&now_freed, &expected, "freed a different set on this pass");
            prop_assert_eq!(tally.freed, expected.len());
            prop_assert_eq!(batch.len(), reference.len());
            let parked: usize = batch.parked_groups().map(|(_, blocks)| blocks).sum();
            prop_assert!(parked <= batch.len());
            previous = Some(step);
        }
        prop_assert!(batch.is_empty(), "an empty snapshot frees everything");
        prop_assert!(reference.is_empty());
    }

    /// Whether some era of `column` lies in `[alloc_era, retire_era]`.
    fn column_pins(column: &[u64], alloc_era: u64, retire_era: u64) -> bool {
        column
            .iter()
            .any(|era| (alloc_era..=retire_era).contains(era))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn parked_scan_frees_what_a_full_rescan_frees_he(
            steps in proptest::collection::vec(scan_step_strategy(), 1..40)
        ) {
            check_parked_scan(
                &steps,
                |step| step.primary.iter().copied().collect::<EraSnapshot>(),
                |step, alloc_era, retire_era| column_pins(&step.primary, alloc_era, retire_era),
            );
        }

        #[test]
        fn parked_scan_frees_what_a_full_rescan_frees_wfe(
            steps in proptest::collection::vec(scan_step_strategy(), 1..40)
        ) {
            check_parked_scan(
                &steps,
                |step| WfeSnapshot::from_eras(&step.primary, step.quiescent, &step.handover, &step.recheck),
                |step, alloc_era, retire_era| {
                    column_pins(&step.primary, alloc_era, retire_era)
                        || (!step.quiescent
                            && (column_pins(&step.handover, alloc_era, retire_era)
                                || column_pins(&step.recheck, alloc_era, retire_era)))
                },
            );
        }

        #[test]
        fn parked_scan_frees_what_a_full_rescan_frees_ebr(
            steps in proptest::collection::vec(scan_step_strategy(), 1..40)
        ) {
            check_parked_scan(
                &steps,
                |step| {
                    let mut snapshot = EpochSnapshot::new();
                    step.primary.iter().for_each(|&epoch| snapshot.insert(epoch));
                    snapshot
                },
                |step, _alloc_era, retire_era| step.primary.iter().any(|&epoch| epoch <= retire_era),
            );
        }
    }
}
