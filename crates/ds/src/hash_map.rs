//! Michael's lock-free hash map.
//!
//! The "Hash Map" workload of Figures 7 and 10: a fixed-size bucket array in
//! which every bucket is a Harris-Michael sorted linked list. With the key
//! ranges used in the evaluation the per-bucket lists stay short, so the map
//! stresses the constant-factor overhead of the reclamation scheme rather
//! than traversal length (the opposite of the plain linked-list workload).

use std::sync::Arc;

use wfe_reclaim::Reclaimer;

use crate::michael_list::MichaelList;
use crate::traits::ConcurrentMap;

/// Default number of buckets, chosen so the paper's 50 000-element prefill
/// leaves only a handful of keys per bucket.
pub const DEFAULT_BUCKETS: usize = 16 * 1024;

/// Michael's lock-free hash map, parameterised by the reclamation scheme.
// LAYOUT: 16-byte buckets, eight to a line, stay packed: a bucket's head is
// written only when its first node changes, and a line per bucket would make
// every lookup's first load reach into 2 MiB of heads instead of 256 KiB.
pub struct MichaelHashMap<V, R: Reclaimer> {
    buckets: Box<[MichaelList<V, R>]>,
    domain: Arc<R>,
}

impl<V, R: Reclaimer> MichaelHashMap<V, R> {
    /// Reservation slots the map needs per thread: those of one bucket list.
    pub const REQUIRED_SLOTS: usize = MichaelList::<V, R>::REQUIRED_SLOTS;

    /// Creates a map with [`DEFAULT_BUCKETS`] buckets guarded by `domain`.
    pub fn new(domain: Arc<R>) -> Self {
        Self::with_buckets(domain, DEFAULT_BUCKETS)
    }

    /// Creates a map with `buckets` buckets guarded by `domain`.
    pub fn with_buckets(domain: Arc<R>, buckets: usize) -> Self {
        assert!(buckets > 0, "a hash map needs at least one bucket");
        Self {
            buckets: (0..buckets)
                .map(|_| MichaelList::new(Arc::clone(&domain)))
                .collect(),
            domain,
        }
    }

    /// The reclamation domain guarding this map.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.buckets.len()
    }

    #[inline]
    fn bucket(&self, key: u64) -> &MichaelList<V, R> {
        // The shared full-avalanche mixer (`hash::mix64`): every output bit
        // depends on every input bit, so folding the whole word with `%` is
        // uniform for any bucket count. The previous single Fibonacci
        // multiply took `% len` on the high 32 bits only — a silent
        // distribution degradation pinned down by the chi-square test in
        // `crate::hash`.
        let index = crate::hash::mix64(key) as usize % self.buckets.len();
        &self.buckets[index]
    }

    /// Inserts `key → value`; returns `false` if the key is already present.
    pub fn insert(&self, handle: &mut R::Handle, key: u64, value: V) -> bool {
        self.bucket(key).insert(handle, key, value)
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        self.bucket(key).remove(handle, key)
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, handle: &mut R::Handle, key: u64) -> bool {
        self.bucket(key).contains(handle, key)
    }
}

impl<V: Clone, R: Reclaimer> MichaelHashMap<V, R> {
    /// Looks up `key`, returning a clone of its value.
    pub fn get(&self, handle: &mut R::Handle, key: u64) -> Option<V> {
        self.bucket(key).get(handle, key)
    }
}

impl<R: Reclaimer> ConcurrentMap<R> for MichaelHashMap<u64, R> {
    fn with_domain(domain: Arc<R>) -> Self {
        Self::new(domain)
    }

    fn insert(&self, handle: &mut R::Handle, key: u64, value: u64) -> bool {
        MichaelHashMap::insert(self, handle, key, value)
    }

    fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        MichaelHashMap::remove(self, handle, key)
    }

    fn get(&self, handle: &mut R::Handle, key: u64) -> Option<u64> {
        MichaelHashMap::get(self, handle, key)
    }

    fn required_slots() -> usize {
        Self::REQUIRED_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap as StdHashMap;
    use wfe_reclaim::{DomainConfig, He, Hp, Reclaimer};

    #[test]
    fn basic_map_semantics() {
        let domain = He::new_default();
        let map = MichaelHashMap::<u64, He>::with_buckets(Arc::clone(&domain), 8);
        let mut handle = domain.register();
        for key in 0..100 {
            assert!(map.insert(&mut handle, key, key * 10));
        }
        for key in 0..100 {
            assert!(!map.insert(&mut handle, key, 0), "duplicates rejected");
            assert_eq!(map.get(&mut handle, key), Some(key * 10));
        }
        for key in (0..100).step_by(2) {
            assert!(map.remove(&mut handle, key));
        }
        for key in 0..100 {
            assert_eq!(map.contains(&mut handle, key), key % 2 == 1);
        }
    }

    #[test]
    fn matches_a_sequential_model() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let domain = Hp::new_default();
        let map = MichaelHashMap::<u64, Hp>::with_buckets(Arc::clone(&domain), 16);
        let mut handle = domain.register();
        let mut model: StdHashMap<u64, u64> = StdHashMap::new();
        for _ in 0..5_000 {
            let key = rng.gen_range(0..128u64);
            match rng.gen_range(0..3) {
                0 => {
                    let fresh = !model.contains_key(&key);
                    assert_eq!(map.insert(&mut handle, key, key + 1), fresh);
                    model.entry(key).or_insert(key + 1);
                }
                1 => assert_eq!(map.remove(&mut handle, key), model.remove(&key).is_some()),
                _ => assert_eq!(map.get(&mut handle, key), model.get(&key).copied()),
            }
        }
    }

    #[test]
    fn concurrent_threads_own_disjoint_keys() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        let domain = He::with_config(DomainConfig::with_max_threads(THREADS));
        let map = MichaelHashMap::<u64, He>::new(Arc::clone(&domain));
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
            assert_eq!(map.contains(&mut handle, key), key % 2 == 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_rejected() {
        let domain = He::new_default();
        let _ = MichaelHashMap::<u64, He>::with_buckets(domain, 0);
    }
}
