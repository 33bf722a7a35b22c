//! Allocation-balance checks for the block cache: magazines, shard freelists
//! and the chains they exchange.
//!
//! The cache parks freed block memory on per-handle magazines and per-shard
//! freelists; a dropping domain must drain every parked block back to the
//! allocator. In debug builds the block layer keeps a process-wide balance of
//! class allocations minus class deallocations, so the checks are exact — but
//! the counter is global, which is why these tests have a binary of their
//! own and take turns ([`exclusive`]): nothing else may allocate class blocks
//! in this process while one of them counts.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use wfe_suite::wfe_reclaim::cache::outstanding_cached_allocs;
use wfe_suite::wfe_reclaim::BlockCacheConfig;
use wfe_suite::{
    ConcurrentMap, ConcurrentQueue, CrTurnQueue, Ebr, Handle, He, Hp, Ibr2Ge, KoganPetrankQueue,
    Leak, Linked, MichaelHashMap, MichaelList, MichaelScottQueue, RawHandle, Reclaimer,
    ReclaimerConfig, ResizableHashMap, Wfe, WfeHandle,
};

/// One test at a time: the allocation balance is process-wide.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A test that failed while holding the lock has already reported; the
    // next one starts from whatever balance it reads.
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Churns alloc→retire→cleanup→alloc cycles through one scheme with the
/// cache pinned on at a small capacity (so the overflow path runs too), then
/// drops handle and domain. `expect_cache_traffic` is false for `Leak`,
/// which never frees during the run and is deliberately unwired from the
/// cache layer.
fn churn_and_drop<R: Reclaimer>(expect_cache_traffic: bool) {
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 1,
        era_freq: 1,
        block_cache: BlockCacheConfig {
            enabled: true,
            per_class_capacity: 8,
        },
        ..ReclaimerConfig::with_max_threads(2)
    });
    let mut handle = domain.register();
    for round in 0..128u64 {
        let node = handle.alloc(round);
        // SAFETY: never published; retired exactly once.
        unsafe { handle.retire(node) };
        if round % 16 == 0 {
            handle.force_cleanup();
        }
    }
    handle.force_cleanup();
    if expect_cache_traffic {
        let stats = domain.stats();
        assert!(
            stats.cache_hits + stats.cached_bytes > 0,
            "the churn loop must actually exercise the cache"
        );
    }
    drop(handle);
    drop(domain);
}

#[test]
fn domain_drop_returns_every_cached_block_to_the_allocator() {
    let _turn = exclusive();
    churn_and_drop::<Wfe>(true);
    churn_and_drop::<He>(true);
    churn_and_drop::<Hp>(true);
    churn_and_drop::<Ebr>(true);
    churn_and_drop::<Ibr2Ge>(true);
    churn_and_drop::<Leak>(false);
    // Leftover Arcs are gone: every domain (and its caches) has dropped, so
    // the debug-build balance of class allocations must be back to zero.
    // Release builds return `None` (no counter) and the test degrades to the
    // churn itself.
    if let Some(balance) = outstanding_cached_allocs() {
        assert_eq!(
            balance, 0,
            "a dropped domain leaked {balance} class-allocated block(s)"
        );
    }
}

/// `alloc` then `discard` under the environment's cache setting (the
/// `block-cache-matrix` CI legs run this with `WFE_BLOCK_CACHE` on and off):
/// with a magazine the memory stays with the handle and the next `alloc`
/// returns the same address; without one it goes straight back to the
/// allocator. Either way no reclamation counter moves.
fn discard_goes_back_where_alloc_got_it<R: Reclaimer>() {
    let domain = R::with_config(ReclaimerConfig::with_max_threads(1));
    let mut handle = domain.register();
    let cached = handle.block_caches().0.is_some();
    let before = outstanding_cached_allocs();
    let node = handle.alloc(1u64);
    let addr = node as usize;
    // SAFETY: never published; discarded exactly once.
    unsafe { handle.discard(node) };
    if cached {
        assert_eq!(
            outstanding_cached_allocs(),
            before.map(|balance| balance + 1),
            "the magazine keeps the memory"
        );
        let guard = handle.enter();
        let again = guard.alloc(2u64);
        assert_eq!(again as usize, addr, "and the next alloc pops it");
        // SAFETY: never published; discarded exactly once.
        unsafe { guard.discard(again) };
    } else {
        assert_eq!(
            outstanding_cached_allocs(),
            before,
            "no magazine: freed to the allocator"
        );
    }
    let stats = domain.stats();
    assert_eq!(stats.allocated, 1 + cached as u64);
    assert_eq!((stats.retired, stats.freed, stats.unreclaimed), (0, 0, 0));
    drop(handle);
    drop(domain);
    assert_eq!(
        outstanding_cached_allocs(),
        before,
        "nothing outlives the domain"
    );
}

#[test]
fn discard_returns_the_block_to_the_magazine_or_the_allocator() {
    let _turn = exclusive();
    discard_goes_back_where_alloc_got_it::<Wfe>();
    discard_goes_back_where_alloc_got_it::<He>();
    discard_goes_back_where_alloc_got_it::<Hp>();
    discard_goes_back_where_alloc_got_it::<Ebr>();
    discard_goes_back_where_alloc_got_it::<Ibr2Ge>();
    discard_goes_back_where_alloc_got_it::<Leak>();
}

/// Enqueues 40 elements and dequeues 7 on a fresh queue of a fresh two-thread
/// WFE domain, lets `more` add what only this queue can do, and drops both:
/// whatever is left in the queue — elements, the sentinel, request markers,
/// descriptors — its `Drop` must hand back, each block once.
fn queue_drop_frees_every_node<Q: ConcurrentQueue<Wfe>>(
    more: impl FnOnce(&Q, &mut WfeHandle, &mut WfeHandle),
) {
    let before = outstanding_cached_allocs();
    let domain = Wfe::with_config(ReclaimerConfig::with_max_threads(2));
    let queue = Q::with_domain(std::sync::Arc::clone(&domain));
    let (mut first, mut second) = (domain.register(), domain.register());
    for value in 0..40 {
        queue.enqueue(&mut first, value);
    }
    for _ in 0..7 {
        assert!(queue.dequeue(&mut second).is_some());
    }
    more(&queue, &mut first, &mut second);
    drop((first, second));
    if let Some(balance) = outstanding_cached_allocs() {
        assert!(balance > before.unwrap_or(0), "the queue still owns nodes");
    }
    drop(queue);
    drop(domain);
    assert_eq!(
        outstanding_cached_allocs(),
        before,
        "a node outlived its queue"
    );
}

#[test]
fn dropping_a_padded_queue_frees_every_node() {
    let _turn = exclusive();
    // CRTurn: the walk from `head` and the three request arrays name some
    // nodes twice (the sentinel is `deqhelp[tid]` of its dequeuer), a stalled
    // enqueue leaves one that only `enqueuers` names, and after the first
    // dequeue nothing but `first_sentinel` names the node the queue was built
    // around (a leak of one block per queue until this test found it).
    queue_drop_frees_every_node::<CrTurnQueue<u64, Wfe>>(|queue, first, second| {
        assert!(queue.dequeue(first).is_some());
        queue.stall_enqueue_publish(second, 99);
    });
    queue_drop_frees_every_node::<KoganPetrankQueue<u64, Wfe>>(|_, _, _| {});
    queue_drop_frees_every_node::<MichaelScottQueue<u64, Wfe>>(|_, _, _| {});
}

/// Churns 300 keys through a fresh map of a fresh two-thread WFE domain —
/// every key inserted, a third removed by the other handle, a third of those
/// put back — and drops both: what the churn retired goes back through the
/// domain, what is still linked (for the split-ordered map also the bucket
/// dummies and the directory) through the map's `Drop`, each block once.
fn map_drop_frees_every_node<M: ConcurrentMap<Wfe>>() {
    let before = outstanding_cached_allocs();
    let domain = Wfe::with_config(ReclaimerConfig::with_max_threads(2));
    let map = M::with_domain(std::sync::Arc::clone(&domain));
    let (mut first, mut second) = (domain.register(), domain.register());
    for key in 0..300 {
        assert!(map.insert(&mut first, key, key));
    }
    for key in (0..300).step_by(3) {
        assert!(map.remove(&mut second, key));
    }
    for key in (0..300).step_by(9) {
        assert!(map.insert(&mut first, key, key + 1));
    }
    drop((first, second));
    if let Some(balance) = outstanding_cached_allocs() {
        assert!(balance > before.unwrap_or(0), "the map still owns nodes");
    }
    drop(map);
    drop(domain);
    assert_eq!(
        outstanding_cached_allocs(),
        before,
        "a node outlived its map"
    );
}

#[test]
fn dropping_a_map_frees_every_node() {
    let _turn = exclusive();
    // One chain walk (`ordered::free_chain`) under all three: called by the
    // list's `Drop`, by the split-ordered map's (which grows from 8 buckets
    // here, so superseded directories are in flight too), and reached once
    // per bucket through the fixed map's.
    map_drop_frees_every_node::<MichaelList<u64, Wfe>>();
    map_drop_frees_every_node::<MichaelHashMap<u64, Wfe>>();
    map_drop_frees_every_node::<ResizableHashMap<u64, Wfe>>();
}

/// One step of the magazine/shard differential: `handle` is 0 or 1.
#[derive(Debug, Clone)]
enum CacheStep {
    /// `count` allocations: magazine pops, a refill when it runs dry.
    Alloc { handle: usize, count: usize },
    /// Discards up to `count` of the blocks the test holds, newest first:
    /// magazine pushes, a spill when it is full.
    Discard { handle: usize, count: usize },
    /// Drops the handle (its magazine drains to the shard) and registers a
    /// new one.
    Reregister { handle: usize },
}

fn cache_step_strategy() -> impl Strategy<Value = CacheStep> {
    prop_oneof![
        (0..2usize, 1..48usize).prop_map(|(handle, count)| CacheStep::Alloc { handle, count }),
        (0..2usize, 1..48usize).prop_map(|(handle, count)| CacheStep::Discard { handle, count }),
        (0..2usize).prop_map(|handle| CacheStep::Reregister { handle }),
    ]
}

/// What the magazines and the shard must hold, block for block: the exchange
/// is deterministic (LIFO magazines, LIFO chains), so the model predicts the
/// address of every recycled allocation.
/// Mirror of the cache's `LOCAL_MAGAZINE_CAP`.
const MAGAZINE_CAP: usize = 32;
/// The `per_class_capacity` the differential runs under: one chain and a
/// half, so chains are refused.
const SHARD_CAP: usize = 40;

#[derive(Default)]
struct CacheModel {
    magazines: [Vec<usize>; 2],
    /// Parked chains, last pushed last.
    shard: Vec<Vec<usize>>,
    /// Blocks the model says went back to the allocator (refused chains).
    freed: usize,
}

impl CacheModel {
    fn parked(&self) -> usize {
        self.shard.iter().map(Vec::len).sum()
    }

    /// The top `count` blocks of `handle`'s magazine leave as one chain; a
    /// chain that does not fit is freed whole.
    fn spill(&mut self, handle: usize, count: usize) {
        let magazine = &mut self.magazines[handle];
        let chain = magazine.split_off(magazine.len() - count);
        if self.parked() + chain.len() <= SHARD_CAP {
            self.shard.push(chain);
        } else {
            self.freed += chain.len();
        }
    }

    fn push(&mut self, handle: usize, block: usize) {
        if self.magazines[handle].len() == MAGAZINE_CAP {
            self.spill(handle, MAGAZINE_CAP / 2);
        }
        self.magazines[handle].push(block);
    }

    /// The address a recycled allocation must return, `None` for a miss.
    fn pop(&mut self, handle: usize) -> Option<usize> {
        if self.magazines[handle].is_empty() {
            self.magazines[handle] = self.shard.pop().unwrap_or_default();
        }
        self.magazines[handle].pop()
    }

    fn drain(&mut self, handle: usize) {
        while !self.magazines[handle].is_empty() {
            let count = self.magazines[handle].len().min(MAGAZINE_CAP / 2);
            self.spill(handle, count);
        }
    }
}

fn check_cache_against_model(steps: &[CacheStep]) {
    const CLASS_BYTES: u64 = 40; // `Linked<u64>`: a 16-byte header and the payload
    let _turn = exclusive();
    let start = outstanding_cached_allocs();
    let mut model = CacheModel::default();
    let domain = He::with_config(ReclaimerConfig {
        // One shard for both handles, and no pass that could free into it.
        shards: 1,
        cleanup_freq: usize::MAX,
        block_cache: BlockCacheConfig {
            enabled: true,
            per_class_capacity: SHARD_CAP,
        },
        ..ReclaimerConfig::with_max_threads(2)
    });
    let mut handles = [Some(domain.register()), Some(domain.register())];
    let mut held: Vec<*mut Linked<u64>> = Vec::new();
    let mut fresh = 0usize;
    for step in steps {
        match *step {
            CacheStep::Alloc { handle, count } => {
                for _ in 0..count {
                    let block = handles[handle].as_mut().unwrap().alloc(0u64);
                    match model.pop(handle) {
                        Some(expected) => assert_eq!(block as usize, expected, "a recycled block"),
                        None => fresh += 1,
                    }
                    held.push(block);
                }
            }
            CacheStep::Discard { handle, count } => {
                for _ in 0..count {
                    let Some(block) = held.pop() else { break };
                    model.push(handle, block as usize);
                    // SAFETY: never published; discarded exactly once.
                    unsafe { handles[handle].as_mut().unwrap().discard(block) };
                }
            }
            CacheStep::Reregister { handle } => {
                model.drain(handle);
                handles[handle] = None;
                handles[handle] = Some(domain.register());
            }
        }
        // Every block is in exactly one place: held by the test, in a
        // magazine, on the shard, or back with the allocator.
        let mut seen = HashSet::new();
        let cached = model.magazines.iter().chain(&model.shard).flatten();
        assert!(
            held.iter()
                .map(|&block| block as usize)
                .chain(cached.copied())
                .all(|block| seen.insert(block)),
            "a block is in two places"
        );
        assert!(model.parked() <= SHARD_CAP);
        assert_eq!(
            domain.stats().cached_bytes,
            model.parked() as u64 * CLASS_BYTES
        );
        assert_eq!(
            outstanding_cached_allocs(),
            start.map(|balance| balance + (fresh - model.freed) as isize),
            "a refused chain is freed whole, nothing else is freed"
        );
    }
    for block in held {
        // SAFETY: never published; discarded exactly once.
        unsafe { handles[0].as_mut().unwrap().discard(block) };
    }
    drop(handles);
    drop(domain);
    assert_eq!(
        outstanding_cached_allocs(),
        start,
        "every block left exactly once"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn magazines_and_shard_agree_with_a_block_for_block_model(
        steps in proptest::collection::vec(cache_step_strategy(), 1..60)
    ) {
        check_cache_against_model(&steps);
    }
}
