//! Model tests for the split-ordered resizable hash map's growth path: a
//! directory doubling publishes a new bucket array with one CAS and retires
//! the superseded array through the reclamation scheme.
//!
//! Three properties are driven through exact interleavings:
//!
//! 1. **Key conservation** — an insert racing a migration neither loses its
//!    key nor duplicates it: after the dust settles every inserted key is
//!    removable exactly once.
//! 2. **Lookup during a split** — a reader that picked up the old bucket
//!    array keeps traversing safely while the resizer retires it, even with
//!    the most aggressive cleanup cadence (every retirement scans and frees).
//! 3. **Retired exactly once** — every superseded bucket array is reported
//!    by exactly one resize winner; concurrent resizers never retire the
//!    same array twice.
//!
//! A fourth schedule pins the element counter: a `remove` may count before
//! the `insert` whose node it removed, and `len()` must never report the
//! transient `-1` as `usize::MAX`.
//!
//! The mutant hunt de-fences the publish step (`debug_set_racy_publish`
//! swaps the CAS for a load/check/store) and proves the checker catches the
//! resulting double-retire within the PCT budget, with byte-identical seed
//! replay.

// wfe-analyze: allow(raw-atomic): model-test oracle state — deliberately a std
// atomic so the checker never schedules an interleaving point on bookkeeping.
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use wfe_suite::{DomainConfig, He, Leak, RawHandle, Reclaimer, ResizableHashMap};

use crate::SCHEDULES;

#[test]
fn insert_racing_a_migration_neither_loses_nor_duplicates_keys() {
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig::with_max_threads(2));
            let map = Arc::new(ResizableHashMap::<u64, He>::with_initial_buckets(
                Arc::clone(&domain),
                2,
            ));

            let inserter = {
                let domain = Arc::clone(&domain);
                let map = Arc::clone(&map);
                shuttle::thread::spawn(move || {
                    let mut handle = domain.register();
                    for key in 0..4u64 {
                        assert!(map.insert(&mut handle, key, key * 10), "keys are fresh");
                    }
                })
            };

            // The migration: double the directory while the inserts land.
            let mut handle = domain.register();
            map.force_resize(&mut handle);
            inserter.join().unwrap();

            // Conservation: each key is present, removable exactly once, and
            // gone afterwards — a key split onto the wrong bucket chain or
            // linked twice would fail one of these.
            for key in 0..4u64 {
                assert_eq!(map.get(&mut handle, key), Some(key * 10), "key {key} lost");
                assert!(map.remove(&mut handle, key), "key {key} not removable");
                assert!(!map.remove(&mut handle, key), "key {key} linked twice");
            }
            assert_eq!(map.len(), 0);
        },
        SCHEDULES,
    );
}

#[test]
fn lookup_during_a_split_survives_the_old_array_being_retired() {
    // `era_freq`/`cleanup_freq` of 1: every retirement bumps the era and
    // scans, so a superseded bucket array is freed at the first instant no
    // reservation covers it — the reader below is all that keeps it alive.
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig {
                cleanup_freq: 1,
                era_freq: 1,
                ..DomainConfig::with_max_threads(2)
            });
            let map = Arc::new(ResizableHashMap::<u64, He>::with_initial_buckets(
                Arc::clone(&domain),
                2,
            ));
            let mut writer = domain.register();
            assert!(map.insert(&mut writer, 42, 7));

            let reader = {
                let domain = Arc::clone(&domain);
                let map = Arc::clone(&map);
                shuttle::thread::spawn(move || {
                    let mut reader = domain.register();
                    // Two lookups: schedules exist where the first runs on the
                    // old array and the second on the new one, and ones where
                    // a single lookup spans the publish.
                    assert_eq!(map.get(&mut reader, 42), Some(7));
                    assert_eq!(map.get(&mut reader, 42), Some(7));
                })
            };

            // Two doublings back to back, each retiring the array the reader
            // may be standing on.
            assert!(map.force_resize(&mut writer));
            assert!(map.force_resize(&mut writer));
            reader.join().unwrap();

            assert_eq!(map.get(&mut writer, 42), Some(7));
            drop(writer);
            let mut sweeper = domain.register();
            sweeper.force_cleanup();
            assert_eq!(
                domain.stats().unreclaimed,
                0,
                "both superseded arrays must drain once nothing reserves them"
            );
        },
        SCHEDULES,
    );
}

#[test]
fn a_remove_overtaking_its_inserts_count_never_underflows_len() {
    // The inserter links its node and counts it afterwards; between the two
    // a remover can find the node, unlink it and count first. On an empty
    // map the raw counter then passes through -1.
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig::with_max_threads(2));
            let map = Arc::new(ResizableHashMap::<u64, He>::new(Arc::clone(&domain)));

            let remover = {
                let domain = Arc::clone(&domain);
                let map = Arc::clone(&map);
                shuttle::thread::spawn(move || {
                    let mut handle = domain.register();
                    let removed = map.remove(&mut handle, 7);
                    let len = map.len();
                    assert!(len <= 1, "len() reads {len} mid-race");
                    removed
                })
            };

            let mut handle = domain.register();
            assert!(map.insert(&mut handle, 7, 70), "the key is fresh");
            let len = map.len();
            assert!(len <= 1, "len() reads {len} mid-race");
            let removed = remover.join().unwrap();

            assert_eq!(map.len(), usize::from(!removed));
            assert_eq!(map.get(&mut handle, 7), (!removed).then_some(70));
            assert_eq!(
                map.buckets(),
                8,
                "a phantom count must not double the directory"
            );
        },
        SCHEDULES,
    );
}

/// Two racing resizers against one map; each stores the address of the array
/// it retired (0 = lost the publish race) into its slot.
///
/// Under `Leak` nothing is ever freed, so a reported address can never be
/// recycled into a later array — equal addresses mean the same array really
/// was retired twice.
fn racing_resizers(racy_publish: bool) -> (usize, usize, u64) {
    let domain = Leak::with_config(DomainConfig::with_max_threads(2));
    let map = Arc::new(ResizableHashMap::<u64, Leak>::with_initial_buckets(
        Arc::clone(&domain),
        2,
    ));
    map.debug_set_racy_publish(racy_publish);

    let retired = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
    let workers: Vec<_> = (0..2)
        .map(|worker| {
            let domain = Arc::clone(&domain);
            let map = Arc::clone(&map);
            let slot = Arc::clone(&retired[worker]);
            shuttle::thread::spawn(move || {
                let mut handle = domain.register();
                if let Some(address) = map.debug_force_resize(&mut handle) {
                    slot.store(address, SeqCst);
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().unwrap();
    }
    (
        retired[0].load(SeqCst),
        retired[1].load(SeqCst),
        map.stats().resizes,
    )
}

#[test]
fn superseded_bucket_arrays_are_retired_exactly_once() {
    shuttle::check_random(
        || {
            let (first, second, resizes) = racing_resizers(false);
            let winners = [first, second].iter().filter(|&&a| a != 0).count() as u64;
            assert!(winners >= 1, "some resizer must win the publish");
            assert_eq!(
                winners, resizes,
                "every publish winner retires one array, losers retire none"
            );
            if first != 0 && second != 0 {
                assert_ne!(first, second, "one bucket array retired twice");
            }
        },
        SCHEDULES,
    );
}

/// The mutant driver: with the publish de-fenced, both racers can observe
/// the same old array, both "win", and both report it — the double-retire
/// the CAS exists to prevent.
fn de_fenced_publish_driver() {
    let (first, second, _) = racing_resizers(true);
    // A plain panic, not `assert_ne!`: the report must not embed the raw
    // heap addresses, or byte-identical replay comparison would be defeated
    // by allocator nondeterminism between runs.
    if first != 0 && first == second {
        panic!("one bucket array retired twice");
    }
}

#[test]
fn de_fencing_the_publish_is_caught_and_the_seed_replays_identically() {
    let config = shuttle::Config {
        schedules: 10_000,
        pct_depth: Some(3),
        ..shuttle::Config::default()
    };
    let failure = shuttle::search_for_failure(config.clone(), de_fenced_publish_driver);
    let (seed, report) =
        failure.expect("some schedule must make both de-fenced publishes win on the same array");
    assert!(
        report.contains("retired twice"),
        "unexpected failure report: {report}"
    );

    // Determinism: replaying the reported per-schedule seed must reproduce
    // the identical failure, twice, byte for byte. The seed drives the
    // strategy, so replay runs under the same PCT config as the search.
    let first = shuttle::run_seed(&config, seed, de_fenced_publish_driver)
        .expect("the reported seed must reproduce the failure");
    let second = shuttle::run_seed(&config, seed, de_fenced_publish_driver)
        .expect("replaying the seed must fail again");
    assert_eq!(first, second, "replays of one seed must be byte-identical");
}
