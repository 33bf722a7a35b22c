//! Harris-Michael lock-free sorted linked list.
//!
//! The "Linked List" workload of Figures 6 and 9: a sorted singly-linked list
//! of key-value pairs with lock-free `insert`, `remove` and `get`. The
//! algorithm — Harris's logical-deletion mark combined with Michael's
//! hazard-pointer compatible `find` — lives in the ordered-chain core
//! (`crate::ordered`); the list is that chain with `u64` keys, started at
//! its head.

use std::sync::Arc;

use wfe_reclaim::{Atomic, Handle, Reclaimer};

use crate::ordered::{self, Cursor, Start};
use crate::traits::ConcurrentMap;

/// A node of the list.
pub type Node<V> = ordered::Node<u64, V>;

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
    /// `(prev, curr)` window of the ordered-chain core.
    pub const REQUIRED_SLOTS: usize = ordered::REQUIRED_SLOTS;

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

    /// Every traversal starts, and restarts, at the head.
    fn start(&self) -> Start<'_, u64, V> {
        Start::root(&self.head)
    }

    /// Inserts `key → value`; returns `false` (dropping `value`) if the key
    /// is already present.
    pub fn insert(&self, handle: &mut R::Handle, key: u64, value: V) -> bool {
        let guard = handle.enter();
        let mut cursor = Cursor::new(&guard);
        cursor.insert(&self.start(), key, value).is_ok()
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        let guard = handle.enter();
        let mut cursor = Cursor::new(&guard);
        cursor.remove(&self.start(), key)
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, handle: &mut R::Handle, key: u64) -> bool {
        let guard = handle.enter();
        let mut cursor = Cursor::new(&guard);
        cursor.get(&self.start(), key).is_some()
    }
}

impl<V: Clone, R: Reclaimer> MichaelList<V, R> {
    /// Looks up `key`, returning a clone of its value.
    pub fn get(&self, handle: &mut R::Handle, key: u64) -> Option<V> {
        let guard = handle.enter();
        let mut cursor = Cursor::new(&guard);
        cursor.get(&self.start(), key).cloned()
    }
}

impl<V, R: Reclaimer> Drop for MichaelList<V, R> {
    fn drop(&mut self) {
        // SAFETY: `Drop` has exclusive access, and only this list's cursors
        // have touched the chain, so every node still reachable from `head`
        // is valid, never retired, and freed here exactly once.
        unsafe { ordered::free_chain(&self.head) };
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
