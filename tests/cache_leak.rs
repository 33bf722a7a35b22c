//! Allocation-balance checks for the block cache: magazines, the
//! process-wide pool and the chains they exchange.
//!
//! The cache parks freed block memory on per-handle magazines; a dropping
//! domain must drain every parked block back to the process-wide pool that
//! carved it. The pool counts the class blocks it has
//! handed out and not got back, so the checks are exact — but the count is
//! global, which is why these tests have a binary of their own and take turns
//! ([`alone`]): nothing else may take class blocks in this process while
//! one of them counts.

use std::collections::HashSet;
use std::sync::Mutex;

use proptest::prelude::*;

use wfe_suite::wfe_reclaim::BlockCacheConfig;
use wfe_suite::wfe_reclaim::{carved_blocks, outstanding_cached_allocs};
use wfe_suite::{
    ConcurrentMap, ConcurrentQueue, CrTurnQueue, DomainConfig, Ebr, Handle, He, Hp, Ibr2Ge,
    KoganPetrankQueue, Leak, Linked, MichaelHashMap, MichaelList, MichaelScottQueue, RawHandle,
    Reclaimer, ResizableHashMap, Wfe, WfeHandle,
};

/// Runs `test` alone, on a thread of its own: the allocation balance is
/// process-wide, and a thread's spare magazine (where frees with no handle
/// park) goes back to the pool only when the thread exits, which the join
/// waits for — before the next test starts counting.
fn alone(test: impl FnOnce() + Send + 'static) {
    static TURN: Mutex<()> = Mutex::new(());
    // A test that failed while holding the lock has already reported; the
    // next one starts from whatever balance it reads.
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Err(panic) = std::thread::spawn(test).join() {
        std::panic::resume_unwind(panic);
    }
}

/// Churns alloc→retire→cleanup→alloc cycles through one scheme with the
/// cache pinned on, then drops handle and domain. `expect_cache_traffic` is false for `Leak`,
/// which never frees during the run and is deliberately unwired from the
/// cache layer.
fn churn_and_drop<R: Reclaimer>(expect_cache_traffic: bool) {
    let domain = R::with_config(DomainConfig {
        cleanup_freq: 1,
        era_freq: 1,
        block_cache: BlockCacheConfig {
            enabled: true,
            ..BlockCacheConfig::default()
        },
        ..DomainConfig::with_max_threads(2)
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
fn domain_drop_returns_every_cached_block_to_the_pool() {
    alone(move || {
        let before = outstanding_cached_allocs();
        churn_and_drop::<Wfe>(true);
        churn_and_drop::<He>(true);
        churn_and_drop::<Hp>(true);
        churn_and_drop::<Ebr>(true);
        churn_and_drop::<Ibr2Ge>(true);
        churn_and_drop::<Leak>(false);
        // Leftover Arcs are gone: every domain (and its caches) has dropped, so
        // every class block the churn took is back in the pool.
        let balance = outstanding_cached_allocs() - before;
        assert_eq!(
            balance, 0,
            "a dropped domain kept {balance} class block(s) from the pool"
        );
    })
}

#[test]
fn the_same_domain_built_and_dropped_twice_does_not_grow_the_pool() {
    alone(move || {
        churn_and_drop::<Wfe>(true);
        let carved = carved_blocks();
        churn_and_drop::<Wfe>(true);
        assert_eq!(
            carved_blocks(),
            carved,
            "the second domain ran on the blocks the first gave back"
        );
    })
}

#[test]
fn linked_dealloc_parks_on_the_freeing_threads_spare_magazine() {
    alone(move || {
        let domain = He::with_config(DomainConfig {
            block_cache: BlockCacheConfig {
                enabled: true,
                ..BlockCacheConfig::default()
            },
            ..DomainConfig::with_max_threads(2)
        });
        let mut handle = domain.register();
        let node = handle.alloc(1u64);
        let before = outstanding_cached_allocs();
        // Freed on a thread of its own, the way a structure's `Drop` frees what
        // it still links: no handle, so the block parks on that thread's spare
        // magazine, which drains into the pool when the thread exits.
        let addr = node as usize;
        std::thread::spawn(move || {
            // SAFETY: never published; freed exactly once.
            unsafe { Linked::dealloc(addr as *mut Linked<u64>) };
        })
        .join()
        .unwrap();
        assert_eq!(outstanding_cached_allocs(), before - 1, "back in the pool");
        // A fresh magazine refills with the chain the pool got last.
        let mut other = domain.register();
        let again = other.alloc(2u64);
        assert_eq!(again, node, "the pool hands it out again");
        // SAFETY: never published; discarded exactly once.
        unsafe { other.discard(again) };
    })
}

#[test]
fn a_cache_off_domain_takes_no_slab_block() {
    alone(move || {
        let (outstanding, carved) = (outstanding_cached_allocs(), carved_blocks());
        let domain = Wfe::with_config(DomainConfig {
            cleanup_freq: 1,
            block_cache: BlockCacheConfig {
                enabled: false,
                ..BlockCacheConfig::default()
            },
            ..DomainConfig::with_max_threads(1)
        });
        let mut handle = domain.register();
        assert!(handle.block_cache().is_none(), "no magazine");
        let map = MichaelHashMap::<u64, Wfe>::with_domain(std::sync::Arc::clone(&domain));
        for key in 0..200 {
            map.insert(&mut handle, key, key);
        }
        for key in (0..200).step_by(2) {
            map.remove(&mut handle, key);
        }
        assert_eq!(
            outstanding_cached_allocs(),
            outstanding,
            "every node a `Box`"
        );
        drop((map, handle, domain));
        assert_eq!(
            (outstanding_cached_allocs(), carved_blocks()),
            (outstanding, carved),
            "and every one freed to the allocator"
        );
    })
}

/// `alloc` then `discard` under the environment's cache setting (CI runs
/// this with the cache on in build-and-test and off in `block-cache-off`):
/// with a magazine the memory stays with the handle and the next `alloc`
/// returns the same address; without one the block is a `Box`, freed to the
/// allocator. Either way no reclamation counter moves.
fn discard_goes_back_where_alloc_got_it<R: Reclaimer>() {
    let domain = R::with_config(DomainConfig::with_max_threads(1));
    let mut handle = domain.register();
    let cached = handle.block_cache().is_some();
    let before = outstanding_cached_allocs();
    let node = handle.alloc(1u64);
    let addr = node as usize;
    // SAFETY: never published; discarded exactly once.
    unsafe { handle.discard(node) };
    if cached {
        assert!(
            outstanding_cached_allocs() > before,
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
            "no magazine: a `Box`, freed to the allocator"
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
    alone(move || {
        discard_goes_back_where_alloc_got_it::<Wfe>();
        discard_goes_back_where_alloc_got_it::<He>();
        discard_goes_back_where_alloc_got_it::<Hp>();
        discard_goes_back_where_alloc_got_it::<Ebr>();
        discard_goes_back_where_alloc_got_it::<Ibr2Ge>();
        discard_goes_back_where_alloc_got_it::<Leak>();
    })
}

/// Enqueues 40 elements and dequeues 7 on a fresh queue of a fresh two-thread
/// WFE domain, lets `more` add what only this queue can do, and drops both:
/// whatever is left in the queue — elements, the sentinel, request markers,
/// descriptors — its `Drop` must hand back, each block once.
fn queue_drop_frees_every_node<Q: ConcurrentQueue<Wfe>>(
    more: impl FnOnce(&Q, &mut WfeHandle, &mut WfeHandle),
) {
    let before = outstanding_cached_allocs();
    let domain = Wfe::with_config(DomainConfig::with_max_threads(2));
    let queue = Q::with_domain(std::sync::Arc::clone(&domain));
    let (mut first, mut second) = (domain.register(), domain.register());
    for value in 0..40 {
        queue.enqueue(&mut first, value);
    }
    for _ in 0..7 {
        assert!(queue.dequeue(&mut second).is_some());
    }
    more(&queue, &mut first, &mut second);
    // Without a magazine every node is a `Box` the pool never sees (the
    // sanitizer's cache-off leg checks those).
    let cached = first.block_cache().is_some();
    drop((first, second));
    if cached {
        assert!(
            outstanding_cached_allocs() > before,
            "the queue still owns nodes"
        );
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
    alone(move || {
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
    })
}

/// Churns 300 keys through a fresh map of a fresh two-thread WFE domain —
/// every key inserted, a third removed by the other handle, a third of those
/// put back — and drops both: what the churn retired goes back through the
/// domain, what is still linked (for the split-ordered map also the bucket
/// dummies and the directory) through the map's `Drop`, each block once.
fn map_drop_frees_every_node<M: ConcurrentMap<Wfe>>() {
    let before = outstanding_cached_allocs();
    let domain = Wfe::with_config(DomainConfig::with_max_threads(2));
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
    // Without a magazine every node is a `Box` the pool never sees (the
    // sanitizer's cache-off leg checks those).
    let cached = first.block_cache().is_some();
    drop((first, second));
    if cached {
        assert!(
            outstanding_cached_allocs() > before,
            "the map still owns nodes"
        );
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
    alone(move || {
        // One chain walk (`ordered::free_chain`) under all three: called by the
        // list's `Drop`, by the split-ordered map's (which grows from 8 buckets
        // here, so superseded directories are in flight too), and reached once
        // per bucket through the fixed map's.
        map_drop_frees_every_node::<MichaelList<u64, Wfe>>();
        map_drop_frees_every_node::<MichaelHashMap<u64, Wfe>>();
        map_drop_frees_every_node::<ResizableHashMap<u64, Wfe>>();
    })
}

/// One step of the magazine/pool differential: `handle` is 0 or 1.
#[derive(Debug, Clone)]
enum CacheStep {
    /// `count` allocations: magazine pops, a refill when it runs dry.
    Alloc { handle: usize, count: usize },
    /// Discards up to `count` of the blocks the test holds, newest first:
    /// magazine pushes, a spill when it is full.
    Discard { handle: usize, count: usize },
    /// Drops the handle (its magazine drains to the pool) and registers a
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

/// Mirror of the cache's `LOCAL_MAGAZINE_CAP`.
const MAGAZINE_CAP: usize = 32;
/// Blocks the differential parks in the pool before it starts: more than
/// its steps can ever take out at once (60 × 47), so every refill it
/// predicts comes from a chain it knows.
const SEED_BLOCKS: usize = 3_000;
/// The magazine of the handle that seeds the pool.
const SEEDER: usize = 2;

/// What the magazines and the pool must hold, block for block: the exchange
/// is deterministic (LIFO magazines, a LIFO stack of chains), so the model
/// predicts the address of every allocation.
#[derive(Default)]
struct CacheModel {
    /// Per handle: the blocks its magazine parked, popped last first.
    magazines: [Vec<usize>; 3],
    /// Per handle: the rest of the chain its last refill popped, handed out
    /// in link order once nothing is parked.
    chains: [Vec<usize>; 3],
    /// Chains the model put in the pool, last pushed last; below them lies
    /// whatever the process parked before, which the model never reaches.
    pool: Vec<Vec<usize>>,
}

impl CacheModel {
    /// The top `count` parked blocks of `handle` leave as one chain.
    fn spill(&mut self, handle: usize, count: usize) {
        let magazine = &mut self.magazines[handle];
        let chain = magazine.split_off(magazine.len() - count);
        self.pool.push(chain);
    }

    fn push(&mut self, handle: usize, block: usize) {
        if self.magazines[handle].len() == MAGAZINE_CAP {
            self.spill(handle, MAGAZINE_CAP / 2);
        }
        self.magazines[handle].push(block);
    }

    /// The address the next allocation of `handle` must return: a parked
    /// block, else the next block of the refilled chain; with neither, the
    /// refill pops the top chain, split after half a magazine.
    fn pop(&mut self, handle: usize) -> usize {
        if let Some(block) = self.magazines[handle].pop() {
            return block;
        }
        if self.chains[handle].is_empty() {
            let mut chain = self
                .pool
                .pop()
                .expect("the seeded chains outlast the steps");
            if chain.len() > MAGAZINE_CAP / 2 {
                self.pool.push(chain.split_off(MAGAZINE_CAP / 2));
            }
            self.chains[handle] = chain;
        }
        self.chains[handle].remove(0)
    }

    /// The parked blocks leave as one chain, then the rest of the refilled
    /// one.
    fn drain(&mut self, handle: usize) {
        let count = self.magazines[handle].len();
        if count > 0 {
            self.spill(handle, count);
        }
        let chain = core::mem::take(&mut self.chains[handle]);
        if !chain.is_empty() {
            self.pool.push(chain);
        }
    }

    fn in_magazines(&self) -> usize {
        self.magazines
            .iter()
            .chain(&self.chains)
            .map(Vec::len)
            .sum()
    }
}

fn check_cache_against_model(steps: &[CacheStep]) {
    let steps = steps.to_vec();
    const CLASS_BYTES: u64 = 40; // `Linked<u64>`: a 16-byte header and the payload
    alone(move || {
        let mut model = CacheModel::default();
        let domain = He::with_config(DomainConfig {
            // No pass that could free into a magazine but the ones the checks
            // force (which free nothing: nothing is retired).
            cleanup_freq: usize::MAX,
            block_cache: BlockCacheConfig {
                enabled: true,
                ..BlockCacheConfig::default()
            },
            ..DomainConfig::with_max_threads(3)
        });
        // Seed the pool with chains of blocks the model knows: take them out
        // (emptying the seeder's magazine, whatever its last refill got), then
        // give them back through the seeder's magazine, which the model mirrors.
        let mut seeder = domain.register();
        let mut seed = Vec::new();
        while seed.len() < SEED_BLOCKS || seeder.block_cache().unwrap().cached_bytes() > 0 {
            seed.push(seeder.alloc(0u64));
        }
        for block in seed {
            model.push(SEEDER, block as usize);
            // SAFETY: never published; discarded exactly once.
            unsafe { seeder.discard(block) };
        }
        drop(seeder);
        model.drain(SEEDER);
        let (base, carved) = (outstanding_cached_allocs(), carved_blocks());

        let mut handles = [Some(domain.register()), Some(domain.register())];
        let mut held: Vec<*mut Linked<u64>> = Vec::new();
        for step in steps {
            match step {
                CacheStep::Alloc { handle, count } => {
                    for _ in 0..count {
                        let block = handles[handle].as_mut().unwrap().alloc(0u64);
                        assert_eq!(block as usize, model.pop(handle), "the predicted block");
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
            // magazine, or in the pool.
            let mut seen = HashSet::new();
            let parked = model.magazines.iter().chain(&model.chains);
            let parked = parked.chain(&model.pool).flatten();
            assert!(
                held.iter()
                    .map(|&block| block as usize)
                    .chain(parked.copied())
                    .all(|block| seen.insert(block)),
                "a block is in two places"
            );
            assert_eq!(
                outstanding_cached_allocs(),
                base + (held.len() + model.in_magazines()) as isize,
                "out of the pool: the held blocks and the magazines', nothing else"
            );
            assert_eq!(carved_blocks(), carved, "every refill came from a chain");
            // A pass reports each handle's magazine bytes.
            for handle in handles.iter_mut().flatten() {
                handle.force_cleanup();
            }
            assert_eq!(
                domain.stats().cached_bytes,
                model.in_magazines() as u64 * CLASS_BYTES
            );
        }
        for block in held {
            // SAFETY: never published; discarded exactly once.
            unsafe { handles[0].as_mut().unwrap().discard(block) };
        }
        drop(handles);
        assert_eq!(domain.stats().cached_bytes, 0, "dropped handles drained");
        drop(domain);
        assert_eq!(
            outstanding_cached_allocs(),
            base,
            "every block went back to the pool exactly once"
        );
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn magazines_and_pool_agree_with_a_block_for_block_model(
        steps in proptest::collection::vec(cache_step_strategy(), 1..60)
    ) {
        check_cache_against_model(&steps);
    }
}
