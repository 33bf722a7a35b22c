//! Resize-storm stress: writer threads hammer the split-ordered resizable
//! map while a dedicated thread forces directory doubling after doubling —
//! every superseded bucket array retired mid-traffic. Run in release mode by
//! the CI `resize-stress` leg.
//!
//! The workloads are randomized but replayable: a failure prints the run
//! seed, and `WFE_STRESS_SEED=<seed>` pins the identical workload streams.

use std::collections::BTreeMap;
use std::sync::Arc;

use wfe_suite::{DomainConfig, He, RawHandle, Reclaimer, ResizableHashMap, Wfe};

/// The per-run seed feeding every randomized workload below:
/// `WFE_STRESS_SEED` pins it, otherwise it derives from the clock so
/// successive runs explore different workloads.
fn run_seed() -> u64 {
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("WFE_STRESS_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0)
                    | 1
            })
    })
}

/// Holds the run seed for one test body and, if that body panics, prints the
/// seed on the way out — so a flaky stress failure is replayable with
/// `WFE_STRESS_SEED=<seed>` instead of lost to the next scheduler roll.
struct ReplayableSeed(u64);

impl ReplayableSeed {
    fn for_this_test() -> Self {
        Self(run_seed())
    }

    /// The seed for `thread`'s workload stream (odd, so xorshift never
    /// degenerates to zero).
    fn stream(&self, thread: u64) -> u64 {
        ((thread + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.0) | 1
    }
}

impl Drop for ReplayableSeed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "randomized workload failed; replay it with WFE_STRESS_SEED={}",
                self.0
            );
        }
    }
}

/// The storm: writers own disjoint key namespaces (thread id in the high
/// bits) and check every return value against a thread-local model — exact
/// even under concurrency, because nobody else touches their keys — while a
/// resizer thread forces doublings and readers sample *other* threads'
/// namespaces, checking the value stamp of whatever they find. Afterwards
/// the surviving contents are audited sequentially and the domain must
/// drain to zero once the map and all handles are gone.
fn resize_storm_under<R: Reclaimer>() {
    const THREADS: u64 = 4;
    const STORMS: usize = 24;
    let ops: u64 = if cfg!(debug_assertions) {
        20_000
    } else {
        80_000
    };

    let seed = ReplayableSeed::for_this_test();
    let domain = R::with_config(DomainConfig {
        cleanup_freq: 16,
        era_freq: 32,
        ..DomainConfig::with_max_threads(THREADS as usize + 1)
    });
    // Two buckets: the storm and the organic load-factor trigger both start
    // from the smallest possible directory.
    let map = ResizableHashMap::<u64, R>::with_initial_buckets(Arc::clone(&domain), 2);

    let (storm_wins, models): (u64, Vec<BTreeMap<u64, u64>>) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let map = &map;
                let domain = Arc::clone(&domain);
                let mut x = seed.stream(t);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                    let own_base = t << 48;
                    for _ in 0..ops {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = own_base | (x % 512);
                        match (x >> 60) % 8 {
                            // Mostly writes: churn keeps nodes flowing through
                            // retirement while the arrays do the same.
                            0..=2 => {
                                let expected = !model.contains_key(&key);
                                assert_eq!(
                                    map.insert(&mut handle, key, key * 3),
                                    expected,
                                    "insert of {key} disagreed with the model"
                                );
                                model.entry(key).or_insert(key * 3);
                            }
                            3..=5 => {
                                assert_eq!(
                                    map.remove(&mut handle, key),
                                    model.remove(&key).is_some(),
                                    "remove of {key} disagreed with the model"
                                );
                            }
                            6 => {
                                assert_eq!(
                                    map.get(&mut handle, key),
                                    model.get(&key).copied(),
                                    "get of {key} disagreed with the model"
                                );
                            }
                            // Cross-namespace read: the value may come and go
                            // under our feet, but a present value must carry
                            // its owner's stamp.
                            _ => {
                                let foreign = ((t + 1) % THREADS) << 48 | (x % 512);
                                if let Some(value) = map.get(&mut handle, foreign) {
                                    assert_eq!(value, foreign * 3, "torn value at {foreign}");
                                }
                            }
                        }
                    }
                    model
                })
            })
            .collect();

        let storm = {
            let map = &map;
            let domain = Arc::clone(&domain);
            scope.spawn(move || {
                let mut handle = domain.register();
                // A forced doubling can lose the publish race to an organic
                // (load-factor-triggered) one, or bounce off `MAX_BUCKETS`
                // once the directory is saturated; count what actually won.
                let mut wins = 0u64;
                for _ in 0..STORMS {
                    if map.force_resize(&mut handle) {
                        wins += 1;
                    }
                    std::thread::yield_now();
                }
                wins
            })
        };
        let storm_wins = storm.join().unwrap();
        let models = writers.into_iter().map(|w| w.join().unwrap()).collect();
        (storm_wins, models)
    });

    // Sequential audit: the union of the per-thread models is exactly the
    // map's surviving content.
    let mut handle = domain.register();
    let mut live = 0usize;
    for model in &models {
        live += model.len();
        for (&key, &value) in model {
            assert_eq!(map.get(&mut handle, key), Some(value), "key {key} lost");
        }
    }
    assert_eq!(map.len(), live, "the map holds exactly the surviving keys");
    let service = map.stats();
    assert!(
        service.resizes >= storm_wins.max(1),
        "every winning forced doubling is counted (storm won {storm_wins}, map counted {})",
        service.resizes
    );
    assert!(service.migrated_buckets > 0);
    assert!(map.buckets() > 2, "the storm grew the directory");

    // Teardown: with map and every handle gone, one cleanup pass must drain
    // all retired nodes *and* all superseded bucket arrays.
    drop(map);
    handle.force_cleanup();
    drop(handle);
    let mut sweeper = domain.register();
    sweeper.force_cleanup();
    assert_eq!(
        domain.stats().unreclaimed,
        0,
        "the storm's retired arrays and nodes must all drain"
    );
}

#[test]
fn resize_storm_wfe() {
    resize_storm_under::<Wfe>();
}

#[test]
fn resize_storm_he() {
    resize_storm_under::<He>();
}
