//! A small concurrent key-value service built on the Natarajan-Mittal BST and
//! the Michael hash map, showing the same application code running under
//! different reclamation schemes — in the second half, the executor
//! pattern: a sharded registry serving short-lived tasks through a
//! `HandlePool` instead of one long-lived handle per OS thread — and, in the
//! third act, a *growing* service: the split-ordered resizable hash map fed a
//! Zipfian stream with TTL expiry, its superseded bucket arrays retired
//! through the reclamation scheme while readers keep traversing. The last act
//! stalls a reader and asks the worker's handle who is pinning its memory.
//!
//! Run with `cargo run --release --example kv_store`.

use std::sync::Arc;
use std::time::Instant;

use wfe_suite::{
    Atomic, ConcurrentMap, DomainConfig, Handle, HandlePool, He, Linked, MichaelHashMap,
    NatarajanBst, RawHandle, Reclaimer, ResizableHashMap, Wfe,
};

/// Runs a mixed workload against any map type under any reclamation scheme,
/// one long-lived handle per thread (the paper's deployment model).
fn exercise<R: Reclaimer, M: ConcurrentMap<R>>(label: &str) {
    const THREADS: usize = 4;
    const OPS: u64 = 50_000;
    const KEY_RANGE: u64 = 10_000;

    let domain = R::with_config(DomainConfig::with_max_threads(THREADS));
    let map = M::with_domain(Arc::clone(&domain));
    let start = Instant::now();

    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let map = &map;
            let domain = Arc::clone(&domain);
            scope.spawn(move || {
                let mut handle = domain.register();
                // A simple deterministic mixed workload: ~50% reads, ~25%
                // inserts, ~25% removes over a shared key range. The op
                // selector uses the high bits: `x % 4` would be correlated
                // with `key % 4` (4 divides the key range), which partitions
                // inserts and removes onto disjoint keys and starves the
                // remove path.
                let mut x = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEY_RANGE;
                    match (x >> 60) % 4 {
                        0 => {
                            map.insert(&mut handle, key, key * 2);
                        }
                        1 => {
                            map.remove(&mut handle, key);
                        }
                        _ => {
                            if let Some(value) = map.get(&mut handle, key) {
                                assert_eq!(value, key * 2);
                            }
                        }
                    }
                }
            });
        }
    });

    let stats = domain.stats();
    println!(
        "{label:45} {:>9.1} ops/ms   unreclaimed at end: {}   cache hits: {:.1}%",
        (THREADS as u64 * OPS) as f64 / start.elapsed().as_millis().max(1) as f64,
        stats.unreclaimed,
        stats.cache_hit_rate() * 100.0
    );
}

/// The executor pattern: a pool of workers serves a stream of short "tasks",
/// each of which checks a handle out of a shared `HandlePool`, touches the
/// map a few times, and checks it back in — no registry traffic per task.
/// The registry is explicitly sharded, as a NUMA deployment would pin it.
fn pooled_service_demo() {
    const WORKERS: usize = 4;
    const TASKS_PER_WORKER: u64 = 2_000;
    const OPS_PER_TASK: u64 = 32;
    const KEY_RANGE: u64 = 10_000;

    // One domain, four registry shards (0 would auto-size from the host).
    let domain = Wfe::with_config(DomainConfig {
        shards: 4,
        ..DomainConfig::with_max_threads(WORKERS * 2)
    });
    let map = MichaelHashMap::<u64, Wfe>::with_domain(Arc::clone(&domain));
    let pool = HandlePool::new(Arc::clone(&domain));
    let start = Instant::now();

    std::thread::scope(|scope| {
        for t in 0..WORKERS as u64 {
            let map = &map;
            let pool = Arc::clone(&pool);
            scope.spawn(move || {
                let mut x = (t + 1).wrapping_mul(0xD129_0D3B_33F5_7A11) | 1;
                for _ in 0..TASKS_PER_WORKER {
                    // One task: check out, work, check in (drop).
                    let mut handle = pool.check_out().expect("registry sized for the workers");
                    for _ in 0..OPS_PER_TASK {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % KEY_RANGE;
                        match (x >> 60) % 4 {
                            0 => {
                                map.insert(&mut handle, key, key * 2);
                            }
                            1 => {
                                map.remove(&mut handle, key);
                            }
                            _ => {
                                map.get(&mut handle, key);
                            }
                        }
                    }
                }
            });
        }
    });

    let elapsed = start.elapsed();
    let pool_stats = pool.stats();
    let stats = domain.stats();
    let registry = domain.registry();
    println!(
        "{:45} {:>9.1} ops/ms   unreclaimed at end: {}",
        "Michael hash map + WFE + HandlePool",
        (WORKERS as u64 * TASKS_PER_WORKER * OPS_PER_TASK) as f64
            / elapsed.as_millis().max(1) as f64,
        stats.unreclaimed
    );
    println!(
        "  pool: {} check-outs, {:.1}% served from the pool, {} parked now",
        pool_stats.checkouts,
        pool_stats.hit_rate() * 100.0,
        pool_stats.parked
    );
    println!(
        "  block cache: {:.1}% of cacheable allocs recycled ({} hits / {} misses), \
         {} bytes parked now",
        stats.cache_hit_rate() * 100.0,
        stats.cache_hits,
        stats.cache_misses,
        stats.cached_bytes
    );
    let occupancy: Vec<usize> = (0..registry.shard_count())
        .map(|shard| registry.shard_occupancy(shard))
        .collect();
    println!(
        "  registry: {} slots in {} shards, per-shard occupancy {:?} (scans skip idle shards)",
        registry.capacity(),
        registry.shard_count(),
        occupancy
    );
}

/// The growing service: the split-ordered resizable map starts with a tiny
/// directory and is fed a Zipfian-popularity stream with a sliding TTL window
/// — the cache-expiry churn of a real kv service. Every directory doubling
/// retires the superseded bucket array through the reclamation scheme, so the
/// map's growth rides the same retire→scan→free pipeline as node removal.
fn resizable_service_demo<R: Reclaimer>(label: &str) {
    const THREADS: usize = 4;
    const OPS: u64 = 50_000;
    const KEY_RANGE: u64 = 20_000;
    const TTL_WINDOW: u64 = 1_024;

    let domain = R::with_config(DomainConfig::with_max_threads(THREADS));
    // Start deliberately tiny (2 buckets) so the growth path is exercised
    // hard: the first few thousand inserts trigger doubling after doubling.
    let map = ResizableHashMap::<u64, R>::with_initial_buckets(Arc::clone(&domain), 2);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let map = &map;
            let domain = Arc::clone(&domain);
            scope.spawn(move || {
                let mut handle = domain.register();
                // SplitMix64 stream per thread: replayable, and the Zipfian
                // skew comes from squaring the uniform draw — cheap and close
                // enough for a demo (the bench harness has the real
                // inverse-CDF generator).
                let mut x = (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let mut tick = 0u64;
                let fresh_base = (t + 1) << 32;
                for _ in 0..OPS {
                    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = x;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    let uniform = (z >> 11) as f64 / (1u64 << 53) as f64;
                    let popular = ((uniform * uniform) * KEY_RANGE as f64) as u64;
                    match z % 10 {
                        // 20% of ops: TTL churn on this thread's own keys —
                        // insert a fresh key, expire the one that slid out of
                        // the window.
                        0 | 1 => {
                            map.insert(&mut handle, fresh_base + tick, tick);
                            if tick >= TTL_WINDOW {
                                map.remove(&mut handle, fresh_base + tick - TTL_WINDOW);
                            }
                            tick += 1;
                        }
                        // 80% of ops: Zipf-skewed gets over the shared range.
                        _ => {
                            map.get(&mut handle, popular);
                        }
                    }
                }
            });
        }
    });

    let stats = domain.stats();
    let service = map.stats();
    println!(
        "{label:45} {:>9.1} ops/ms   unreclaimed at end: {}",
        (THREADS as u64 * OPS) as f64 / start.elapsed().as_millis().max(1) as f64,
        stats.unreclaimed,
    );
    println!(
        "  growth: {} buckets ({} doublings, {} bucket slots migrated), \
         load factor {:.2}, {} live entries",
        map.buckets(),
        service.resizes,
        service.migrated_buckets,
        service.load_factor,
        map.len()
    );
}

/// A reader stalls in the middle of an operation while a worker deletes every
/// key. WFE keeps the damage bounded — only blocks that were live when the
/// reader reserved stay unreclaimed — and the worker's handle can name the
/// culprit: its cleanup passes parked those blocks under the one era the
/// reader still publishes.
fn stalled_reader_demo() {
    const KEYS: u64 = 50_000;
    let domain = Wfe::with_config(DomainConfig::with_max_threads(2));
    let map = MichaelHashMap::<u64, Wfe>::with_domain(Arc::clone(&domain));
    let mut worker = domain.register();
    for key in 0..KEYS {
        map.insert(&mut worker, key, key);
    }

    let mut stalled = domain.register();
    let anchor_block = worker.alloc(0u64);
    let anchor: Atomic<u64> = Atomic::new(anchor_block);
    stalled.begin_op();
    stalled.protect(&anchor, 0, std::ptr::null_mut()); // ... and never finishes.

    for key in 0..KEYS {
        map.remove(&mut worker, key);
    }
    worker.force_cleanup();
    println!(
        "reader stalled: {} blocks unreclaimed at era {}",
        domain.stats().unreclaimed,
        domain.stats().era
    );
    for (era, blocks) in worker.parked_groups() {
        println!("  {blocks} blocks pinned by era {era}");
    }

    stalled.end_op();
    worker.force_cleanup();
    println!(
        "reader resumed: {} blocks unreclaimed",
        domain.stats().unreclaimed
    );
    // SAFETY: the anchor was never retired and the reader is done with it.
    unsafe { Linked::dealloc(anchor_block) };
}

fn main() {
    println!("key-value store example: 4 threads, mixed workload\n");
    exercise::<Wfe, NatarajanBst<u64, Wfe>>("Natarajan-Mittal BST + WFE");
    exercise::<He, NatarajanBst<u64, He>>("Natarajan-Mittal BST + Hazard Eras");
    exercise::<Wfe, MichaelHashMap<u64, Wfe>>("Michael hash map + WFE");
    exercise::<He, MichaelHashMap<u64, He>>("Michael hash map + Hazard Eras");

    println!("\npooled service: 4 workers x 2000 tasks, handle checked out per task\n");
    pooled_service_demo();

    println!("\ngrowing service: Zipfian gets + TTL churn on the resizable map\n");
    resizable_service_demo::<Wfe>("Resizable hash map + WFE");
    resizable_service_demo::<He>("Resizable hash map + Hazard Eras");

    println!("\nstalled reader: who is pinning memory, since which era\n");
    stalled_reader_demo();
}
