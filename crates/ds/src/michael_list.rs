//! Harris-Michael lock-free sorted linked list.
//!
//! The "Linked List" workload of Figures 6 and 9: a sorted singly-linked list
//! of key-value pairs with lock-free `insert`, `remove` and `get`
//! (Harris's logical-deletion mark combined with Michael's hazard-pointer
//! compatible `find`). A logically deleted node has the low bit of its `next`
//! pointer set; `find` physically unlinks such nodes as it passes them and
//! retires them through the reclamation scheme.

use std::sync::Arc;
use wfe_sync::atomic::Ordering;

use wfe_reclaim::ptr::tag;
use wfe_reclaim::{Atomic, Guard, Handle, Linked, Protected, Reclaimer, Shield};

use crate::traits::ConcurrentMap;

/// Mark bit set on `next` when the owning node is logically deleted.
const MARK: usize = 1;

/// A node of the list.
pub struct Node<V> {
    key: u64,
    value: V,
    next: Atomic<Node<V>>,
}

/// The result of a `find`: the location of the link to `curr` (`prev_src`,
/// the head or the `next` field of the protected predecessor) and the first
/// node with `node.key >= key` (`curr`, null at the end of the list). Both
/// live only as long as the guard they were read under.
struct Window<'g, V> {
    prev_src: &'g Atomic<Node<V>>,
    curr: Protected<'g, Node<V>>,
    found: bool,
}

/// Harris-Michael sorted linked list, parameterised by the reclamation scheme.
pub struct MichaelList<V, R: Reclaimer> {
    head: Atomic<Node<V>>,
    domain: Arc<R>,
}

// SAFETY: nodes own their `V`s; sending the structure sends those values.
unsafe impl<V: Send, R: Reclaimer> Send for MichaelList<V, R> {}
// SAFETY: concurrent operations hand out `&V` (via `get`/clone), so `V`
// must be `Sync` as well as `Send`; the structure's own synchronisation
// is the lock-free algorithm plus the reclamation protocol.
unsafe impl<V: Send + Sync, R: Reclaimer> Sync for MichaelList<V, R> {}

impl<V, R: Reclaimer> MichaelList<V, R> {
    /// Reservation slots the list needs per thread: the hand-over-hand
    /// `(prev, curr)` window.
    pub const REQUIRED_SLOTS: usize = 2;

    /// Leases the two shields of the hand-over-hand window from the
    /// operation's guard. The shields swap roles as the traversal advances,
    /// so a node keeps its shield while it remains part of the window.
    fn window_shields<'g>(guard: &'g Guard<'_, R::Handle>) -> [Shield<'g, Node<V>, R::Handle>; 2] {
        let lease = || {
            guard
                .shield()
                .expect("MichaelList: reservation slots exhausted (find needs two Shields)")
        };
        [lease(), lease()]
    }

    /// Creates an empty list guarded by `domain`.
    pub fn new(domain: Arc<R>) -> Self {
        debug_assert!(
            domain.config().slots_per_thread >= Self::REQUIRED_SLOTS,
            "MichaelList needs {} reservation slots per thread, domain provides {}",
            Self::REQUIRED_SLOTS,
            domain.config().slots_per_thread,
        );
        Self {
            head: Atomic::null(),
            domain,
        }
    }

    /// The reclamation domain guarding this list.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    /// Michael's `find`: positions a window `(prev, curr)` such that `curr` is
    /// the first node with `curr.key >= key`, unlinking any logically deleted
    /// node encountered on the way. Both window nodes are protected (through
    /// the two `shields`) when the function returns.
    fn find<'g>(
        &'g self,
        guard: &'g Guard<'_, R::Handle>,
        shields: &mut [Shield<'_, Node<V>, R::Handle>; 2],
        key: u64,
    ) -> Window<'g, V> {
        'retry: loop {
            let mut prev_src: &Atomic<Node<V>> = &self.head;
            let mut prev: Protected<'g, Node<V>> = Protected::null();
            // Which of the two shields currently protects `curr` (the other
            // protects `prev`); they swap as the window slides.
            let mut shield_curr = 0usize;
            let mut curr = shields[shield_curr].protect(guard, prev_src, Some(prev));
            loop {
                if curr.is_null() {
                    return Window {
                        prev_src,
                        curr: Protected::null(),
                        found: false,
                    };
                }
                if curr.tag() != 0 {
                    // The link we came through is marked, i.e. `prev` itself
                    // is being deleted: restart from the head.
                    continue 'retry;
                }
                // SAFETY: `curr` is protected by `shields[shield_curr]`;
                // that shield is only re-protected after `curr` leaves the
                // window (the other shield covers `prev`), so the reference
                // stays pinned while it is used.
                let curr_ref = unsafe { curr.as_ref() }.expect("non-null protected node");
                let next_raw = curr_ref.next.load(Ordering::Acquire); // ORDER: pairs with the AcqRel link and mark writes on `next`.
                if tag::tag_of(next_raw) == MARK {
                    // `curr` is logically deleted: unlink it and retire it.
                    let next = tag::untagged(next_raw);
                    match prev_src.compare_exchange(
                        curr.as_raw(),
                        next,
                        Ordering::AcqRel, // ORDER: success publishes the unlink; failure observes the winner.
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            // SAFETY: we won the unlink CAS, so `curr` is
                            // unreachable and ours to retire exactly once.
                            unsafe { curr.retire_in(guard) };
                            curr = shields[shield_curr].protect(guard, prev_src, Some(prev));
                            continue;
                        }
                        Err(_) => continue 'retry,
                    }
                }
                let curr_key = curr_ref.key;
                // Validate that `curr` is still linked after we protected it;
                // if not, the key we just read may belong to a node that was
                // removed and the window would be stale.
                // ORDER: window re-validation; pairs with AcqRel link/unlink CASes.
                if prev_src.load(Ordering::Acquire) != curr.as_raw() {
                    continue 'retry;
                }
                if curr_key >= key {
                    return Window {
                        prev_src,
                        curr,
                        found: curr_key == key,
                    };
                }
                // Advance hand-over-hand: `curr` becomes the new `prev` and
                // keeps its shield; `prev`'s shield is recycled for the new
                // `curr`.
                prev = curr;
                prev_src = &curr_ref.next;
                shield_curr = 1 - shield_curr;
                curr = shields[shield_curr].protect(guard, prev_src, Some(prev));
            }
        }
    }

    /// Inserts `key → value`; returns `false` (dropping `value`) if the key
    /// is already present.
    pub fn insert(&self, handle: &mut R::Handle, key: u64, value: V) -> bool {
        let guard = handle.enter();
        let mut shields = Self::window_shields(&guard);
        let node = guard.alloc(Node {
            key,
            value,
            next: Atomic::null(),
        });
        loop {
            let window = self.find(&guard, &mut shields, key);
            if window.found {
                // Key already present: the freshly allocated node was never
                // published, so it goes straight back to the magazine.
                // SAFETY: `node` never became reachable; discarded exactly once.
                unsafe { guard.discard(node) };
                return false;
            }
            // SAFETY: `node` is owned and unpublished until the CAS succeeds.
            unsafe {
                (*node)
                    .value
                    .next
                    .store(window.curr.as_raw(), Ordering::Release) // ORDER: publishes the node's link before the CAS publishes the node.
            };
            if window
                .prev_src
                .compare_exchange(
                    window.curr.as_raw(),
                    node,
                    Ordering::AcqRel, // ORDER: success publishes the node; failure observes the winning link.
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        let guard = handle.enter();
        let mut shields = Self::window_shields(&guard);
        loop {
            let window = self.find(&guard, &mut shields, key);
            if !window.found {
                return false;
            }
            let curr = window.curr;
            // SAFETY: the window's shields are not re-protected between
            // `find` returning and the last use of this reference (the
            // unlink-failure `find` below runs after it).
            let curr_ref = unsafe { curr.as_ref() }.expect("found window has a node");
            let next_raw = curr_ref.next.load(Ordering::Acquire); // ORDER: pairs with the AcqRel mark/link writes on `next`.
            if tag::tag_of(next_raw) == MARK {
                // Another remover got here first; retry to settle who wins.
                continue;
            }
            // Logical deletion: mark the next pointer of `curr`.
            if curr_ref
                .next
                .compare_exchange(
                    next_raw,
                    tag::with_tag(next_raw, MARK),
                    Ordering::AcqRel, // ORDER: success publishes the logical delete; failure observes the winner.
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            // Physical deletion: unlink it ourselves or let a later `find` do it.
            if window
                .prev_src
                .compare_exchange(
                    curr.as_raw(),
                    tag::untagged(next_raw),
                    Ordering::AcqRel, // ORDER: success publishes the unlink; failure defers to a later `find`.
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // SAFETY: we marked and then unlinked `curr`; the winning
                // unlink CAS makes it ours to retire exactly once.
                unsafe { curr.retire_in(&guard) };
            } else {
                let _ = self.find(&guard, &mut shields, key);
            }
            return true;
        }
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, handle: &mut R::Handle, key: u64) -> bool {
        let guard = handle.enter();
        let mut shields = Self::window_shields(&guard);
        self.find(&guard, &mut shields, key).found
    }
}

impl<V: Clone, R: Reclaimer> MichaelList<V, R> {
    /// Looks up `key`, returning a clone of its value.
    pub fn get(&self, handle: &mut R::Handle, key: u64) -> Option<V> {
        let guard = handle.enter();
        let mut shields = Self::window_shields(&guard);
        let window = self.find(&guard, &mut shields, key);
        if window.found {
            // SAFETY: the window's shields are not re-protected after `find`
            // returns, so `curr` stays pinned while the value is cloned.
            unsafe { window.curr.as_ref() }.map(|node| node.value.clone())
        } else {
            None
        }
    }
}

impl<V, R: Reclaimer> Drop for MichaelList<V, R> {
    fn drop(&mut self) {
        // Exclusive access: walk the list and free every node directly.
        let mut cur = tag::untagged(self.head.load(Ordering::Relaxed)); // ORDER: Drop has exclusive access.
        while !cur.is_null() {
            // SAFETY: `Drop` has exclusive access; every reachable node is
            // valid and freed exactly once.
            let next = tag::untagged(unsafe { (*cur).value.next.load(Ordering::Relaxed) }); // ORDER: Drop has exclusive access.
                                                                                            // SAFETY: as above — exclusive access, freed exactly once.
            unsafe { Linked::dealloc(cur) };
            cur = next;
        }
    }
}

impl<R: Reclaimer> ConcurrentMap<R> for MichaelList<u64, R> {
    fn with_domain(domain: Arc<R>) -> Self {
        Self::new(domain)
    }

    fn insert(&self, handle: &mut R::Handle, key: u64, value: u64) -> bool {
        MichaelList::insert(self, handle, key, value)
    }

    fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        MichaelList::remove(self, handle, key)
    }

    fn get(&self, handle: &mut R::Handle, key: u64) -> Option<u64> {
        MichaelList::get(self, handle, key)
    }

    fn required_slots() -> usize {
        Self::REQUIRED_SLOTS
    }

    fn node_bytes() -> usize {
        core::mem::size_of::<wfe_reclaim::Linked<Node<u64>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wfe_reclaim::{Ebr, He, Hp, Ibr2Ge, Leak, ReclaimerConfig};

    fn sequential_semantics<R: Reclaimer>() {
        let domain = R::new_default();
        let list = MichaelList::<u64, R>::new(Arc::clone(&domain));
        let mut handle = domain.register();

        assert!(list.insert(&mut handle, 5, 50));
        assert!(list.insert(&mut handle, 1, 10));
        assert!(list.insert(&mut handle, 3, 30));
        assert!(!list.insert(&mut handle, 3, 31), "duplicate rejected");
        assert_eq!(list.get(&mut handle, 3), Some(30));
        assert_eq!(list.get(&mut handle, 2), None);
        assert!(list.contains(&mut handle, 1));
        assert!(list.remove(&mut handle, 3));
        assert!(!list.remove(&mut handle, 3), "double remove rejected");
        assert_eq!(list.get(&mut handle, 3), None);
        assert!(list.insert(&mut handle, 3, 33), "reinsert after remove");
        assert_eq!(list.get(&mut handle, 3), Some(33));
    }

    #[test]
    fn sequential_semantics_under_every_scheme() {
        sequential_semantics::<He>();
        sequential_semantics::<Ebr>();
        sequential_semantics::<Hp>();
        sequential_semantics::<Ibr2Ge>();
        sequential_semantics::<Leak>();
    }

    #[test]
    fn matches_a_sequential_model() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xDECAF);
        let domain = He::new_default();
        let list = MichaelList::<u64, He>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        let mut model = BTreeSet::new();
        for _ in 0..4_000 {
            let key = rng.gen_range(0..64u64);
            match rng.gen_range(0..3) {
                0 => assert_eq!(list.insert(&mut handle, key, key * 2), model.insert(key)),
                1 => assert_eq!(list.remove(&mut handle, key), model.remove(&key)),
                _ => assert_eq!(list.get(&mut handle, key), model.get(&key).map(|&k| k * 2)),
            }
        }
    }

    fn concurrent_inserts_partition<R: Reclaimer>() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 500;
        let domain = R::with_config(ReclaimerConfig::with_max_threads(THREADS));
        let list = MichaelList::<u64, R>::new(Arc::clone(&domain));
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let list = &list;
                let domain = Arc::clone(&domain);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 0..PER_THREAD {
                        assert!(list.insert(&mut handle, t * PER_THREAD + i, i));
                    }
                });
            }
        });
        let mut handle = domain.register();
        for key in 0..THREADS as u64 * PER_THREAD {
            assert!(list.contains(&mut handle, key), "missing key {key}");
        }
    }

    #[test]
    fn concurrent_inserts_are_all_visible() {
        concurrent_inserts_partition::<He>();
        concurrent_inserts_partition::<Hp>();
    }

    #[test]
    fn concurrent_mixed_workload_stays_consistent() {
        // Threads fight over the same small key range; afterwards the list
        // must contain exactly the keys that a final sweep observes, with no
        // crashes, leaks or double frees along the way (the latter two are
        // caught by the conformance drop counters in the reclaim crate; here
        // we check structural sanity).
        const THREADS: usize = 4;
        let domain = He::with_config(ReclaimerConfig::with_max_threads(THREADS));
        let list = MichaelList::<u64, He>::new(Arc::clone(&domain));
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let list = &list;
                let domain = Arc::clone(&domain);
                scope.spawn(move || {
                    use rand::prelude::*;
                    let mut rng = StdRng::seed_from_u64(t);
                    let mut handle = domain.register();
                    for _ in 0..5_000 {
                        let key = rng.gen_range(0..32u64);
                        if rng.gen_bool(0.5) {
                            list.insert(&mut handle, key, key);
                        } else {
                            list.remove(&mut handle, key);
                        }
                    }
                });
            }
        });
        // The list must still be sorted and duplicate-free.
        let mut handle = domain.register();
        let mut present = Vec::new();
        for key in 0..32u64 {
            if list.contains(&mut handle, key) {
                present.push(key);
            }
        }
        let unique: BTreeSet<u64> = present.iter().copied().collect();
        assert_eq!(unique.len(), present.len());
    }
}
