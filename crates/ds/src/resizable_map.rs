//! Shalev-Herlihy split-ordered resizable lock-free hash map.
//!
//! The production-shaped KV workload: unlike [`MichaelHashMap`]'s fixed
//! bucket array, this map **grows**. It is built from two pieces:
//!
//! * one Harris-Michael sorted list holding *every* node, ordered by the
//!   bit-reversed *split-order key* (`reverse_bits(mix64(key)) | 1` for data
//!   nodes, `reverse_bits(bucket)` for the immortal per-bucket dummy nodes).
//!   Nodes never move when the table grows — doubling the table merely
//!   *splits* each bucket by lacing a new dummy into the middle of its run;
//! * a **bucket directory**: a power-of-two array caching the dummy node of
//!   each bucket, initialised lazily (a bucket's dummy is spliced in after
//!   its parent bucket — the index with the top bit cleared — on first
//!   touch). The directory is itself a reclaimable block: a resize allocates
//!   a doubled copy, publishes it with one CAS, and **retires the superseded
//!   array through the [`Reclaimer`]** — readers still traversing from the
//!   old array are pinned by their [`Shield`], exactly like a reader of an
//!   unlinked list node. Directory blocks ride the same size-class block
//!   cache and batch retirement pipeline as every other block.
//!
//! This is the workload the WFE paper's reclamation schemes exist for but
//! its fixed-size evaluation never exercises: array-sized blocks retired
//! mid-operation while concurrent readers hold them.
//!
//! [`MichaelHashMap`]: crate::MichaelHashMap
//! [`Reclaimer`]: wfe_reclaim::Reclaimer
//! [`Shield`]: wfe_reclaim::Shield

use std::sync::Arc;
use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use wfe_reclaim::{Atomic, Guard, Handle, Linked, Protected, Reclaimer, Shield};
use wfe_sync::CachePadded;

use crate::hash::mix64;
use crate::ordered::{self, Cursor, Start};
use crate::traits::{ConcurrentMap, MapServiceStats};

/// The chain's key, `(split-order key, key)`; its lexicographic order is the
/// total order of the list.
///
/// The split-order key is `reverse_bits(mix64(key)) | 1` for data nodes
/// (odd) and `reverse_bits(bucket)` for dummies (even) — so a bucket's dummy
/// sorts immediately before the bucket's data run and the two kinds never
/// collide. The second component is the user key for data nodes and the
/// bucket index for dummies; it breaks the tie between data keys whose
/// split-order keys are equal.
type SoKey = (u64, u64);

/// A node of the split-ordered list: either a data node (the value is
/// `Some`) or a bucket dummy (`None`, never marked, never retired).
pub type Node<V> = ordered::Node<SoKey, Option<V>>;

/// One map operation's cursor over the split-ordered list.
type ListCursor<'g, V, R> = Cursor<'g, SoKey, Option<V>, <R as Reclaimer>::Handle>;

/// The bucket directory: the retirable array of cached dummy pointers.
///
/// `slots.len()` is the current table size (a power of two); a null slot
/// means the bucket's dummy has not been spliced in (or cached) yet and is
/// initialised lazily from its parent bucket.
pub(crate) struct Directory<V> {
    slots: Box<[Atomic<Node<V>>]>,
}

/// Shalev-Herlihy split-ordered hash map, parameterised by the reclamation
/// scheme. Grows by directory doubling; superseded directories are retired
/// through `R` so pinned readers stay safe.
///
/// # Layout
///
/// `len` — a `fetch_add`/`fetch_sub` on every successful insert or remove —
/// owns a 128-byte line. Everything else is read-mostly and shares the next
/// one: `dir` (the first load of every operation), `head`, `buckets`, the
/// two resize statistics and the domain are written by a resize or never
/// (`resizable_get_contended`).
// LAYOUT: `len` is padded off; the rest is one read-mostly line ("Layout"
// above), written by a resize only.
pub struct ResizableHashMap<V, R: Reclaimer> {
    /// The current bucket directory. Swapped wholesale by `try_resize`; the
    /// superseded array is retired through the domain.
    dir: Atomic<Directory<V>>,
    /// The immortal bucket-0 dummy: the head of the whole split-ordered list
    /// (its split-order key 0 is the global minimum).
    head: Atomic<Node<V>>,
    /// Data nodes currently in the map (dummies excluded): one wrapping
    /// `fetch_add` / `fetch_sub` per successful insert / remove, each after
    /// the operation took effect. A `remove` can therefore count before the
    /// `insert` whose node it removed, so the word is read as signed and
    /// clamped at zero ([`settled`]).
    len: CachePadded<AtomicUsize>,
    /// Mirror of the current directory size, readable without protection
    /// (stats and the resize trigger must not open a bracket).
    buckets: AtomicUsize,
    /// Completed directory doublings.
    resizes: AtomicU64,
    /// Cumulative bucket slots carried from superseded arrays into their
    /// replacements.
    migrated: AtomicU64,
    /// Model-build mutant switch: replaces the publish CAS of `try_resize`
    /// with a de-fenced load/check/store (see `debug_set_racy_publish`).
    #[cfg(wfe_model)]
    racy_publish: wfe_sync::atomic::AtomicBool,
    domain: Arc<R>,
}

// SAFETY: nodes own their `V`s; sending the structure sends those values.
unsafe impl<V: Send, R: Reclaimer> Send for ResizableHashMap<V, R> {}
// SAFETY: concurrent operations hand out `&V` (via `get`/clone), so `V`
// must be `Sync` as well as `Send`; the structure's own synchronisation is
// the lock-free algorithm plus the reclamation protocol.
unsafe impl<V: Send + Sync, R: Reclaimer> Sync for ResizableHashMap<V, R> {}

/// Split-order key of a data node: full-avalanche mix, bit-reversed so the
/// bucket bits (the hash's low bits) become the most significant, with the
/// lowest bit set to keep data keys disjoint from (and ordered after) the
/// even dummy keys.
#[inline]
fn data_so_key(key: u64) -> u64 {
    mix64(key).reverse_bits() | 1
}

/// Split-order key of bucket `bucket`'s dummy.
#[inline]
fn dummy_so_key(bucket: usize) -> u64 {
    (bucket as u64).reverse_bits()
}

/// The bucket whose run bucket `bucket` splits off from: the index with its
/// most significant set bit cleared.
#[inline]
fn parent_bucket(bucket: usize) -> usize {
    debug_assert!(bucket > 0, "bucket 0 has no parent");
    bucket ^ (1usize << (usize::BITS - 1 - bucket.leading_zeros()))
}

/// The entry count a raw `len` word stands for: the word read as signed,
/// clamped at zero. It is transiently negative while removes have counted
/// and the inserts they undid have not.
#[inline]
fn settled(raw_len: usize) -> usize {
    (raw_len as isize).max(0) as usize
}

impl<V, R: Reclaimer> ResizableHashMap<V, R> {
    /// Reservation slots the map needs per thread: one for the bucket
    /// directory plus the hand-over-hand `(prev, curr)` window of the
    /// ordered-chain core.
    pub const REQUIRED_SLOTS: usize = 1 + ordered::REQUIRED_SLOTS;

    /// Initial directory size of [`new`](Self::new): deliberately tiny so
    /// realistic workloads exercise the resize path.
    pub const DEFAULT_INITIAL_BUCKETS: usize = 8;

    /// Hard cap on the directory size (2^22 buckets ≈ 33 MiB of slots), so a
    /// runaway growth loop cannot exhaust memory through doubling alone.
    pub const MAX_BUCKETS: usize = 1 << 22;

    /// Data nodes per bucket that trigger a doubling.
    const RESIZE_AVG: usize = 3;

    /// Creates a map with [`DEFAULT_INITIAL_BUCKETS`](Self::DEFAULT_INITIAL_BUCKETS)
    /// buckets guarded by `domain`.
    pub fn new(domain: Arc<R>) -> Self {
        Self::with_initial_buckets(domain, Self::DEFAULT_INITIAL_BUCKETS)
    }

    /// Creates a map whose directory starts at `buckets` (rounded up to a
    /// power of two) guarded by `domain`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn with_initial_buckets(domain: Arc<R>, buckets: usize) -> Self {
        assert!(buckets > 0, "a hash map needs at least one bucket");
        let buckets = buckets.next_power_of_two().min(Self::MAX_BUCKETS);
        debug_assert!(
            domain.config().slots_per_thread >= Self::REQUIRED_SLOTS,
            "ResizableHashMap needs {} reservation slots per thread, domain provides {}",
            Self::REQUIRED_SLOTS,
            domain.config().slots_per_thread,
        );
        // The bucket-0 dummy is the head of the split-ordered list and lives
        // for the whole map (it is never retired), so era 0 is correct: it
        // predates every reservation.
        let head = Linked::alloc(Node::unlinked((dummy_so_key(0), 0), None), 0);
        let slots: Box<[Atomic<Node<V>>]> = (0..buckets)
            .map(|bucket| {
                if bucket == 0 {
                    Atomic::new(head)
                } else {
                    Atomic::null()
                }
            })
            .collect();
        let dir = Linked::alloc(Directory { slots }, 0);
        Self {
            dir: Atomic::new(dir),
            head: Atomic::new(head),
            len: CachePadded::new(AtomicUsize::new(0)),
            buckets: AtomicUsize::new(buckets),
            resizes: AtomicU64::new(0),
            migrated: AtomicU64::new(0),
            #[cfg(wfe_model)]
            racy_publish: wfe_sync::atomic::AtomicBool::new(false),
            domain,
        }
    }

    /// The reclamation domain guarding this map.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    /// Number of data entries currently in the map (racy, exact at quiescent
    /// points).
    pub fn len(&self) -> usize {
        settled(self.len.load(Ordering::Acquire)) // ORDER: advisory size read; pairs with the AcqRel len updates.
    }

    /// `true` when [`len`](Self::len) is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current directory size (bucket count).
    pub fn buckets(&self) -> usize {
        self.buckets.load(Ordering::Acquire) // ORDER: pairs with the Release store after a directory publish.
    }

    /// Service statistics: current load factor, completed resizes, and
    /// bucket slots migrated into replacement directories.
    pub fn stats(&self) -> MapServiceStats {
        let buckets = self.buckets().max(1);
        MapServiceStats {
            load_factor: self.len() as f64 / buckets as f64,
            resizes: self.resizes.load(Ordering::Relaxed), // ORDER: statistics counter only.
            migrated_buckets: self.migrated.load(Ordering::Relaxed), // ORDER: statistics counter only.
        }
    }

    /// Leases the shield protecting the bucket directory from the
    /// operation's guard.
    fn dir_shield<'g>(guard: &'g Guard<'_, R::Handle>) -> Shield<'g, Directory<V>, R::Handle> {
        guard
            .shield()
            .expect("ResizableHashMap: reservation slots exhausted (the directory needs a Shield)")
    }

    /// Protects and returns the current directory.
    fn current_dir<'g>(
        &'g self,
        guard: &'g Guard<'_, R::Handle>,
        dir_shield: &mut Shield<'_, Directory<V>, R::Handle>,
    ) -> (Protected<'g, Directory<V>>, &'g Directory<V>) {
        let dir = dir_shield.protect(guard, &self.dir, None);
        // SAFETY: `dir_shield` is not re-protected while the reference is in
        // use (an operation protects the directory once), and the directory
        // pointer is never null.
        let dir_ref = unsafe { dir.as_ref() }.expect("directory pointer is never null");
        (dir, dir_ref)
    }

    /// The preamble of every operation on `key`: protects the current
    /// directory, picks the key's bucket under it and returns that bucket's
    /// dummy as the start of the list traversal — the operation goes back to
    /// the same dummy (never the directory, never the global head) whenever
    /// another thread interferes.
    fn bucket_start<'g>(
        &'g self,
        guard: &'g Guard<'_, R::Handle>,
        dir_shield: &mut Shield<'_, Directory<V>, R::Handle>,
        cursor: &mut ListCursor<'g, V, R>,
        key: u64,
    ) -> Start<'g, SoKey, Option<V>> {
        let (_, dir) = self.current_dir(guard, dir_shield);
        let bucket = mix64(key) as usize & (dir.slots.len() - 1);
        let dummy = self.bucket_dummy(cursor, dir, bucket);
        // SAFETY: `bucket_dummy` returns dummies only. A dummy is immortal:
        // `remove` is only ever called with (odd) data keys, so no dummy is
        // marked, and dummies are freed by the map's `Drop` alone, which
        // `'g` — a borrow of the map — cannot outlast.
        unsafe { Start::after(dummy) }
    }

    /// Returns bucket `bucket`'s dummy under `dir`, splicing it into the
    /// list (after its parent bucket's dummy, recursively) and caching it in
    /// the directory slot on first touch.
    ///
    /// The returned pointer is immortal, so it stays valid even if `dir` is
    /// superseded and retired while the caller still traverses from it —
    /// that is exactly the reader-on-the-old-array case the retirement
    /// protocol exists for.
    fn bucket_dummy<'g>(
        &'g self,
        cursor: &mut ListCursor<'g, V, R>,
        dir: &Directory<V>,
        bucket: usize,
    ) -> *mut Linked<Node<V>> {
        let slot = &dir.slots[bucket];
        let cached = slot.load(Ordering::Acquire); // ORDER: pairs with the AcqRel cache fill of this slot.
        if !cached.is_null() {
            return cached;
        }
        let dummy = if bucket == 0 {
            // Slot 0 of a replacement directory could only be null if the
            // copy raced construction, which cannot happen (the head is
            // cached before the map is shared); recover regardless.
            self.head.load(Ordering::Relaxed) // ORDER: the head is fixed at construction; no ordering needed.
        } else {
            let parent = self.bucket_dummy(cursor, dir, parent_bucket(bucket));
            // SAFETY: `parent` is a dummy of this map, immortal as argued in
            // `bucket_start`; the start does not outlive this call.
            let start = unsafe { Start::after(parent) };
            // Ours if the splice linked it; if another thread spliced the
            // dummy in first, adopt that one (the core has discarded ours).
            let (Ok(dummy) | Err(dummy)) =
                cursor.insert(&start, (dummy_so_key(bucket), bucket as u64), None);
            dummy
        };
        // Cache the dummy; a lost race cached the same pointer (exactly one
        // dummy per split-order key is ever in the list).
        let _ = slot.compare_exchange(
            core::ptr::null_mut(),
            dummy,
            Ordering::AcqRel, // ORDER: success caches the dummy; a failure cached the same pointer.
            Ordering::Acquire,
        );
        dummy
    }

    /// Inserts `key → value`; returns `false` (dropping `value`) if the key
    /// is already present. May trigger a directory doubling on the way out.
    pub fn insert(&self, handle: &mut R::Handle, key: u64, value: V) -> bool {
        let inserted = {
            let guard = handle.enter();
            let mut dir_shield = Self::dir_shield(&guard);
            let mut cursor = Cursor::new(&guard);
            let start = self.bucket_start(&guard, &mut dir_shield, &mut cursor, key);
            cursor
                .insert(&start, (data_so_key(key), key), Some(value))
                .is_ok()
        };
        if inserted {
            // ORDER: advisory size counter driving the resize trigger.
            let len = settled(self.len.fetch_add(1, Ordering::AcqRel).wrapping_add(1));
            if len >= self.buckets().saturating_mul(Self::RESIZE_AVG) {
                self.try_resize(handle);
            }
        }
        inserted
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        let guard = handle.enter();
        let mut dir_shield = Self::dir_shield(&guard);
        let mut cursor = Cursor::new(&guard);
        let start = self.bucket_start(&guard, &mut dir_shield, &mut cursor, key);
        let removed = cursor.remove(&start, (data_so_key(key), key));
        if removed {
            self.len.fetch_sub(1, Ordering::AcqRel); // ORDER: advisory size counter (resize trigger and stats).
        }
        removed
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, handle: &mut R::Handle, key: u64) -> bool {
        let guard = handle.enter();
        let mut dir_shield = Self::dir_shield(&guard);
        let mut cursor = Cursor::new(&guard);
        let start = self.bucket_start(&guard, &mut dir_shield, &mut cursor, key);
        cursor.get(&start, (data_so_key(key), key)).is_some()
    }

    /// Doubles the directory now, regardless of load factor. Returns `true`
    /// if this call performed the doubling (`false` when another thread's
    /// resize superseded the directory first, or the size cap is reached).
    pub fn force_resize(&self, handle: &mut R::Handle) -> bool {
        self.try_resize(handle).is_some()
    }

    /// The resize engine: snapshots the current directory under protection,
    /// builds a doubled copy carrying the old bucket caches forward, and
    /// publishes it with a single CAS. The winner retires the superseded
    /// array through the domain; the loser frees its unpublished copy.
    ///
    /// Returns the address of the array this thread retired, for the
    /// retired-exactly-once model schedule.
    fn try_resize(&self, handle: &mut R::Handle) -> Option<usize> {
        let guard = handle.enter();
        let mut dir_shield = Self::dir_shield(&guard);
        let (old, old_ref) = self.current_dir(&guard, &mut dir_shield);
        let old_size = old_ref.slots.len();
        if old_size >= Self::MAX_BUCKETS {
            return None;
        }
        let new_size = old_size * 2;
        // Carry the cached dummy pointers forward; slots initialised in the
        // old array after this copy are re-derived lazily (the dummy is
        // already in the list, so the first touch adopts it). The upper half
        // starts empty: those buckets split lazily on first touch.
        let slots: Box<[Atomic<Node<V>>]> = (0..new_size)
            .map(|bucket| {
                if bucket < old_size {
                    Atomic::new(old_ref.slots[bucket].load(Ordering::Acquire)) // ORDER: pairs with the AcqRel cache fill in the old directory.
                } else {
                    Atomic::null()
                }
            })
            .collect();
        let new_dir = guard.alloc(Directory { slots });
        // MUTANT (model builds only): de-fenced publish — a plain
        // load/check/store instead of one atomic CAS. Two resizers can both
        // pass the check and both believe they unlinked the same array. A
        // "winner" reports the array without retiring it: the model harness
        // asserts on the returned address (a double report == a double
        // retire) without actually double-freeing the block. The bucket
        // mirror and the growth statistics are left alone. A failed check
        // falls through to the CAS below, which fails the same way.
        // ORDER: test-hook flag, set before the map is shared; the missing
        // fence between the load and the store is the defect under test.
        #[cfg(wfe_model)]
        if self.racy_publish.load(Ordering::Relaxed)
            && self.dir.load(Ordering::Acquire) == old.as_raw()
        {
            self.dir.store(new_dir, Ordering::Release); // ORDER: test-mutant path: deliberately a plain store, not a CAS.
            return Some(old.as_raw() as usize);
        }
        if self
            .dir
            .compare_exchange(old.as_raw(), new_dir, Ordering::AcqRel, Ordering::Acquire) // ORDER: success publishes the new directory; failure observes the winner.
            .is_err()
        {
            // SAFETY: our copy never became reachable; discarded exactly once.
            unsafe { guard.discard(new_dir) };
            return None;
        }
        self.buckets.store(new_size, Ordering::Release); // ORDER: pairs with Acquire reads of the bucket count.
        self.resizes.fetch_add(1, Ordering::Relaxed); // ORDER: statistics counter only.
        self.migrated.fetch_add(old_size as u64, Ordering::Relaxed); // ORDER: statistics counter only.

        // SAFETY: we won the publish CAS, so the old array is unreachable
        // from `self.dir` and ours to retire exactly once; the guard brackets
        // a handle of the owning domain.
        unsafe { old.retire_in(&guard) };
        Some(old.as_raw() as usize)
    }

    /// Model-build test hook: replaces the resize publish CAS with a
    /// de-fenced load/check/store, so the deterministic scheduler can
    /// demonstrate the double-retire that the CAS prevents. A "won" mutant
    /// resize leaks the superseded array instead of retiring it (precisely
    /// so the double-retire is observable without corrupting the heap),
    /// which is why the switch does not exist outside `--cfg wfe_model`.
    #[cfg(wfe_model)]
    #[doc(hidden)]
    pub fn debug_set_racy_publish(&self, racy: bool) {
        self.racy_publish.store(racy, Ordering::SeqCst);
    }

    /// Test hook: runs one forced doubling and reports the address of the
    /// array this thread retired (`None` if it lost the publish race). The
    /// retired-exactly-once model schedule asserts these addresses are
    /// distinct across threads.
    #[doc(hidden)]
    pub fn debug_force_resize(&self, handle: &mut R::Handle) -> Option<usize> {
        self.try_resize(handle)
    }
}

impl<V: Clone, R: Reclaimer> ResizableHashMap<V, R> {
    /// Looks up `key`, returning a clone of its value.
    pub fn get(&self, handle: &mut R::Handle, key: u64) -> Option<V> {
        let guard = handle.enter();
        let mut dir_shield = Self::dir_shield(&guard);
        let mut cursor = Cursor::new(&guard);
        let start = self.bucket_start(&guard, &mut dir_shield, &mut cursor, key);
        // A found data node always has `Some` value (dummies have even
        // split-order keys and can never match a data target).
        cursor
            .get(&start, (data_so_key(key), key))
            .and_then(Option::clone)
    }
}

impl<V, R: Reclaimer> Drop for ResizableHashMap<V, R> {
    fn drop(&mut self) {
        // The whole split-ordered list (dummies and data nodes alike), then
        // the current directory. Superseded directories were retired through
        // the domain and are freed by its own teardown.
        // SAFETY: `Drop` has exclusive access, and only this map's cursors
        // have touched the list, so every node still reachable from `head`
        // is valid, never retired, and freed here exactly once.
        unsafe { ordered::free_chain(&self.head) };
        // ORDER: Drop has exclusive access.
        let dir = self.dir.load(Ordering::Relaxed);
        // SAFETY: exclusive access; the current directory is freed once.
        unsafe { Linked::dealloc(dir) };
    }
}

impl<R: Reclaimer> ConcurrentMap<R> for ResizableHashMap<u64, R> {
    fn with_domain(domain: Arc<R>) -> Self {
        Self::new(domain)
    }

    fn insert(&self, handle: &mut R::Handle, key: u64, value: u64) -> bool {
        ResizableHashMap::insert(self, handle, key, value)
    }

    fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        ResizableHashMap::remove(self, handle, key)
    }

    fn get(&self, handle: &mut R::Handle, key: u64) -> Option<u64> {
        ResizableHashMap::get(self, handle, key)
    }

    fn required_slots() -> usize {
        Self::REQUIRED_SLOTS
    }

    fn service_stats(&self) -> MapServiceStats {
        ResizableHashMap::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as StdHashMap;
    use wfe_reclaim::{Ebr, He, Hp, Ibr2Ge, Leak, ReclaimerConfig};

    fn small_config(threads: usize) -> ReclaimerConfig {
        ReclaimerConfig {
            cleanup_freq: 8,
            era_freq: 16,
            ..ReclaimerConfig::with_max_threads(threads)
        }
    }

    #[test]
    fn len_owns_its_line_and_the_read_mostly_fields_share_one() {
        use core::mem::offset_of;
        type Map = ResizableHashMap<u64, He>;
        let read_mostly = [
            ("dir", offset_of!(Map, dir)),
            ("head", offset_of!(Map, head)),
            ("buckets", offset_of!(Map, buckets)),
            ("resizes", offset_of!(Map, resizes)),
            ("migrated", offset_of!(Map, migrated)),
            #[cfg(wfe_model)]
            ("racy_publish", offset_of!(Map, racy_publish)),
            ("domain", offset_of!(Map, domain)),
        ];
        // Two lines in all, one of them `len`'s: the rest share the other.
        crate::layout::assert_own_lines::<Map>(&[("len", offset_of!(Map, len))], &read_mostly);
        assert!(offset_of!(Map, len).abs_diff(offset_of!(Map, dir)) >= crate::layout::LINE);
    }

    fn growth_semantics<R: Reclaimer>() {
        let domain = R::with_config(small_config(1));
        let map = ResizableHashMap::<u64, R>::with_initial_buckets(Arc::clone(&domain), 2);
        let mut handle = domain.register();
        for key in 0..256 {
            assert!(map.insert(&mut handle, key, key * 7));
            assert!(!map.insert(&mut handle, key, 0), "duplicate rejected");
        }
        let stats = map.stats();
        assert!(stats.resizes > 0, "256 inserts from 2 buckets must resize");
        assert!(stats.migrated_buckets > 0);
        assert!(map.buckets() > 2);
        for key in 0..256 {
            assert_eq!(map.get(&mut handle, key), Some(key * 7), "key {key}");
        }
        for key in (0..256).step_by(2) {
            assert!(map.remove(&mut handle, key));
            assert!(!map.remove(&mut handle, key), "double remove rejected");
        }
        for key in 0..256 {
            assert_eq!(map.contains(&mut handle, key), key % 2 == 1);
        }
        assert_eq!(map.len(), 128);
    }

    #[test]
    fn growth_semantics_under_every_scheme() {
        // `Wfe` lives upstream of this crate; the six-scheme matrix
        // (including WFE) runs in `tests/conformance_smoke.rs`.
        growth_semantics::<He>();
        growth_semantics::<Ebr>();
        growth_semantics::<Hp>();
        growth_semantics::<Ibr2Ge>();
        growth_semantics::<Leak>();
    }

    #[test]
    fn matches_a_sequential_model_across_resizes() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let domain = He::with_config(small_config(1));
        let map = ResizableHashMap::<u64, He>::with_initial_buckets(Arc::clone(&domain), 2);
        let mut handle = domain.register();
        let mut model: StdHashMap<u64, u64> = StdHashMap::new();
        for step in 0..8_000u64 {
            let key = rng.gen_range(0..512u64);
            match rng.gen_range(0..4) {
                0 | 1 => {
                    let fresh = !model.contains_key(&key);
                    assert_eq!(map.insert(&mut handle, key, step), fresh);
                    model.entry(key).or_insert(step);
                }
                2 => assert_eq!(map.remove(&mut handle, key), model.remove(&key).is_some()),
                _ => assert_eq!(map.get(&mut handle, key), model.get(&key).copied()),
            }
        }
        assert_eq!(map.len(), model.len());
        assert!(map.stats().resizes > 0, "the workload must grow the table");
    }

    #[test]
    fn concurrent_threads_own_disjoint_keys_through_resizes() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 1_500;
        let domain = He::with_config(small_config(THREADS));
        let map = ResizableHashMap::<u64, He>::with_initial_buckets(Arc::clone(&domain), 2);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let map = &map;
                let domain = Arc::clone(&domain);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 0..PER_THREAD {
                        let key = t * PER_THREAD + i;
                        assert!(map.insert(&mut handle, key, key));
                        assert_eq!(map.get(&mut handle, key), Some(key));
                        if i % 2 == 0 {
                            assert!(map.remove(&mut handle, key));
                        }
                    }
                });
            }
        });
        let mut handle = domain.register();
        for key in 0..THREADS as u64 * PER_THREAD {
            assert_eq!(map.contains(&mut handle, key), key % 2 == 1, "key {key}");
        }
        assert!(map.stats().resizes > 0);
    }

    #[test]
    fn forced_resize_reports_the_superseded_array_once() {
        let domain = He::with_config(small_config(1));
        let map = ResizableHashMap::<u64, He>::with_initial_buckets(Arc::clone(&domain), 4);
        let mut handle = domain.register();
        let first = map.debug_force_resize(&mut handle);
        let second = map.debug_force_resize(&mut handle);
        let (first, second) = (first.expect("uncontended"), second.expect("uncontended"));
        assert_ne!(first, second, "each doubling retires a distinct array");
        assert_eq!(map.buckets(), 16);
        assert_eq!(map.stats().resizes, 2);
        assert_eq!(map.stats().migrated_buckets, 4 + 8);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let domain = He::new_default();
        let _ = ResizableHashMap::<u64, He>::with_initial_buckets(domain, 0);
    }

    #[test]
    fn keys_with_equal_split_order_keys_are_told_apart_by_the_key() {
        // `data_so_key` drops one bit of the mix (`| 1` after the reversal),
        // so two keys whose `mix64` differs only in bit 63 collide on the
        // first component of the list's order; only the second separates
        // them.
        const PAIRS: [(u64, u64); 3] = [
            (0, 14854397320843743578),
            (1, 3971391549380807435),
            (42, 10438001717707011441),
        ];
        let domain = He::with_config(small_config(1));
        let map = ResizableHashMap::<u64, He>::with_initial_buckets(Arc::clone(&domain), 2);
        let mut handle = domain.register();
        for (a, b) in PAIRS {
            assert_ne!(a, b);
            assert_eq!(mix64(a) ^ mix64(b), 1 << 63, "precondition: {a} / {b}");
            assert_eq!(data_so_key(a), data_so_key(b), "precondition: {a} / {b}");
        }
        // Once around before any doubling, and once after one with the
        // pairs the other way round: the later key sorts after the earlier
        // one the first time, before it the second.
        for swapped in [false, true] {
            let pairs = PAIRS.map(|(a, b)| if swapped { (b, a) } else { (a, b) });
            for (a, b) in pairs {
                assert!(map.insert(&mut handle, a, 1));
                assert_eq!(map.get(&mut handle, b), None, "{b} is not {a}");
                assert!(!map.remove(&mut handle, b), "{b} is not {a}");
                assert!(map.insert(&mut handle, b, 2), "{b} fits beside {a}");
                assert!(!map.insert(&mut handle, a, 3), "duplicate rejected");
                assert!(!map.insert(&mut handle, b, 3), "duplicate rejected");
                assert_eq!(map.get(&mut handle, a), Some(1));
                assert_eq!(map.get(&mut handle, b), Some(2));
            }
            assert_eq!(map.len(), 2 * PAIRS.len());
            for (a, b) in pairs {
                assert!(map.remove(&mut handle, a));
                assert_eq!(map.get(&mut handle, a), None);
                assert_eq!(map.get(&mut handle, b), Some(2), "{b} outlives {a}");
                assert!(!map.remove(&mut handle, a), "double remove rejected");
                assert!(map.remove(&mut handle, b));
                assert!(!map.contains(&mut handle, b));
            }
            assert!(map.is_empty());
            assert!(map.force_resize(&mut handle));
        }
    }

    #[test]
    fn split_order_keys_are_disjoint_and_ordered() {
        // Dummy keys are even, data keys odd: the two kinds never collide.
        for bucket in 0..64 {
            assert_eq!(dummy_so_key(bucket) & 1, 0);
        }
        for key in 0..64 {
            assert_eq!(data_so_key(key) & 1, 1);
        }
        // A bucket's dummy precedes every key hashed into it, and the
        // split dummy of the upper half lands inside the parent's run.
        for key in 0..1024u64 {
            let bucket = mix64(key) as usize & 7;
            assert!(dummy_so_key(bucket) < data_so_key(key) || bucket == 0);
            let wide = mix64(key) as usize & 15;
            assert!(dummy_so_key(wide) <= data_so_key(key));
            if wide != bucket {
                assert_eq!(parent_bucket(wide), bucket, "split keeps the parent prefix");
            }
        }
    }
}
