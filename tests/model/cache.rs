//! The block-cache experiment: magazines exchanging whole chains with a
//! [`ShardCache`](wfe_reclaim::ShardCache) under exact interleavings.
//!
//! A shard parks *chains* of dead blocks — linked through their first words —
//! as payloads of a bounded, versioned `TypeStableStack` per size class,
//! with an optimistic length reservation deciding cache-vs-overflow for the
//! chain as a whole. Handles reach it through their magazine only, so that
//! is how this file drives it: a drain pushes the magazine's blocks as one
//! chain, a pop from an empty magazine refills with one chain. The magazine
//! side has no interleaving points (it is thread-private); every point of a
//! schedule is inside the exchange. The properties driven here:
//!
//! 1. **Block conservation** — across any interleaving of spills and
//!    refills, every block is handed out exactly once: by a refill, by the
//!    drain at the end, or — its chain refused at capacity — back to the
//!    pool, and then the whole chain with it. A chain whose links a
//!    second owner could read (the ABA shape, were the freelist unversioned)
//!    or a gauge out of step with the freelist breaks the count.
//! 2. **Boundedness** — once quiesced, the bytes parked never exceed
//!    `per_class_capacity × class size`, even though the length reservation
//!    transiently overshoots while pushes are in flight.
//! 3. **Replay determinism** — a deliberately racy expectation (a refill
//!    that assumes a concurrent spill is already visible) fails under some
//!    schedule, and replaying the reported seed reproduces a byte-identical
//!    failure report.
//!
//! Blocks come from the process-wide pool (`slab::take`), as the block
//! layer's do, so a chain the cache refuses goes back where it came from.
//! The pool is behind a `std` mutex: it adds no interleaving point, and its
//! state — shared with every other test of the process — cannot change a
//! schedule.

use std::sync::Arc;

use wfe_reclaim::{slab, BlockCacheConfig, BlockCaches, LocalBlockCache, SizeClass};
use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::SCHEDULES;

/// One-shard caches with a tiny per-class bound, so short schedules reach
/// the overflow path too.
fn small_caches(per_class_capacity: usize) -> BlockCaches {
    BlockCaches::new(
        &BlockCacheConfig {
            enabled: true,
            per_class_capacity,
        },
        1,
    )
}

/// Blocks per chain in the conservation driver.
const CHAIN: usize = 2;

/// Spills one chain of [`CHAIN`] fresh blocks from `local` to the shard.
fn spill_chain(local: &mut LocalBlockCache, caches: &BlockCaches, class: SizeClass) {
    for _ in 0..CHAIN {
        // SAFETY: freshly taken with this class, pushed exactly once.
        unsafe { local.push(class, slab::take(class), caches.shard(0)) };
    }
    local.drain(caches.shard(0));
}

/// Empties `local`, refilling from the shard until it runs dry; returns how
/// many blocks came out. Each is scribbled over before it is given back: a
/// popped block is the popper's alone, link word included.
fn pop_all(local: &mut LocalBlockCache, caches: &BlockCaches, class: SizeClass) -> usize {
    let mut popped = 0;
    while let Some(block) = local.pop(class, caches.shard(0)) {
        popped += 1;
        // SAFETY: a popped block is exclusively owned class memory, given
        // back exactly once.
        unsafe {
            block.cast::<usize>().write(usize::MAX);
            slab::give(class, block);
        }
    }
    popped
}

/// The conservation driver: two threads interleave chain spills and refills
/// over one shard cache with room for one chain and a half, then the main
/// thread drains what is left.
fn churn_vs_drain() {
    let class = SizeClass::of(48, 8).expect("fits the smallest class");
    const CAPACITY: usize = CHAIN + 1;
    let caches = Arc::new(small_caches(CAPACITY));
    let spilled = Arc::new(AtomicUsize::new(0));
    let handed_out = Arc::new(AtomicUsize::new(0));
    let workers: Vec<_> = (0..2)
        .map(|worker| {
            let caches = Arc::clone(&caches);
            let spilled = Arc::clone(&spilled);
            let handed_out = Arc::clone(&handed_out);
            shuttle::thread::spawn(move || {
                let mut local = LocalBlockCache::new();
                for round in 0..3 {
                    // Thread 0 leads with a spill, thread 1 with a refill, so
                    // the schedules cover spill-vs-spill (one of two chains
                    // must be refused) and refill-vs-drain.
                    if (round + worker) % 2 == 0 {
                        spill_chain(&mut local, &caches, class);
                        spilled.fetch_add(CHAIN, Ordering::SeqCst);
                    } else {
                        let popped = pop_all(&mut local, &caches, class);
                        handed_out.fetch_add(popped, Ordering::SeqCst);
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }

    let cache = caches.shard(0).expect("cache enabled");
    let parked = cache.cached_bytes() as usize / class.size();
    assert!(parked <= CAPACITY, "quiesced cache exceeds its bound");
    let drained = pop_all(&mut LocalBlockCache::new(), &caches, class);
    assert_eq!(drained, parked, "the gauge and the freelist disagree");
    let refused = spilled.load(Ordering::SeqCst) - handed_out.load(Ordering::SeqCst) - drained;
    assert_eq!(
        refused % CHAIN,
        0,
        "block conservation violated: {refused} blocks unaccounted for is not a number of whole chains"
    );
}

/// A deliberately racy driver: the main thread refills while another thread
/// is still mid-spill and asserts the chain must already be visible — false
/// under any schedule that runs the refill first.
fn racy_pop_expectation() {
    let class = SizeClass::of(48, 8).expect("fits the smallest class");
    let caches = Arc::new(small_caches(CHAIN));
    let spiller = {
        let caches = Arc::clone(&caches);
        shuttle::thread::spawn(move || spill_chain(&mut LocalBlockCache::new(), &caches, class))
    };
    let popped = pop_all(&mut LocalBlockCache::new(), &caches, class);
    spiller.join().unwrap();
    // The un-popped case is drained by the caches' drop.
    if popped == 0 {
        panic!("racy expectation: the concurrent spill was not yet visible");
    }
}

#[test]
fn shard_cache_conserves_blocks_under_chain_spill_refill_drain_races() {
    shuttle::check_random(churn_vs_drain, SCHEDULES);
}

#[test]
fn racy_pop_expectation_fails_and_the_seed_replays_identically() {
    let failure = shuttle::search_for_failure(
        shuttle::Config {
            schedules: 10_000,
            ..shuttle::Config::default()
        },
        racy_pop_expectation,
    );
    let (seed, report) = failure.expect("some schedule must run the refill before the spill");
    assert!(
        report.contains("racy expectation"),
        "unexpected failure report: {report}"
    );

    // Determinism: replaying the reported per-schedule seed must reproduce
    // the identical failure, twice, byte for byte.
    let config = shuttle::Config::default();
    let first = shuttle::run_seed(&config, seed, racy_pop_expectation)
        .expect("the reported seed must reproduce the failure");
    let second = shuttle::run_seed(&config, seed, racy_pop_expectation)
        .expect("replaying the seed must fail again");
    assert_eq!(first, second, "replays of one seed must be byte-identical");
}
