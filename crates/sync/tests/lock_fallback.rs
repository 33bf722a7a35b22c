//! Exercises the portable striped-lock WCAS fallback — the path every
//! non-`x86_64` target (and any x86_64 CPU without `cmpxchg16b`) takes.
//!
//! This lives in its own integration-test binary, i.e. its own process: the
//! fallback is forced before any [`AtomicPair`] is touched, because mixing
//! native and lock-based operations on the same pair is not linearizable.
//! Every test in this file re-asserts the forced mode first, so test-ordering
//! and parallelism inside the binary are safe.

use wfe_sync::atomic::{AtomicBool, Ordering};

use wfe_sync::{wcas_is_lock_free, AtomicPair};

fn force_fallback() {
    wfe_sync::force_lock_fallback_for_tests();
    assert!(
        !wcas_is_lock_free(),
        "fallback must report non-lock-free pair operations"
    );
}

#[test]
fn fallback_load_store_roundtrip() {
    force_fallback();
    let pair = AtomicPair::new(1, 2);
    assert_eq!(pair.load(), (1, 2));
    pair.store((3, 4));
    assert_eq!(pair.load(), (3, 4));
    pair.store_first(9, Ordering::SeqCst);
    assert_eq!(pair.load(), (9, 4));
    pair.store_second(11, Ordering::SeqCst);
    assert_eq!(pair.load(), (9, 11));
}

#[test]
fn fallback_compare_exchange_success_and_failure() {
    force_fallback();
    let pair = AtomicPair::new(10, 20);
    assert_eq!(pair.compare_exchange((10, 20), (30, 40)), Ok((10, 20)));
    assert_eq!(pair.load(), (30, 40));
    assert_eq!(pair.compare_exchange((31, 40), (0, 0)), Err((30, 40)));
    assert_eq!(pair.compare_exchange((30, 41), (0, 0)), Err((30, 40)));
    assert_eq!(pair.load(), (30, 40));
}

#[test]
fn fallback_concurrent_paired_increments_stay_consistent() {
    force_fallback();
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 5_000;
    let pair = AtomicPair::new(0, 0);
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                let mut done = 0;
                while done < PER_THREAD {
                    let cur = pair.load();
                    assert_eq!(cur.0, cur.1, "halves must always match");
                    if pair.compare_exchange(cur, (cur.0 + 1, cur.1 + 1)).is_ok() {
                        done += 1;
                    }
                }
            });
        }
    });
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(pair.load(), (total, total));
}

#[test]
fn fallback_half_store_vs_wcas() {
    // The scenario the stripe lock exists for: a fast-path `store_first`
    // racing a pair-wide CAS must never let the CAS observe (or produce) a
    // torn pair.
    force_fallback();
    let pair = AtomicPair::new(0, 0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut era = 1u64;
            while !stop.load(Ordering::SeqCst) {
                pair.store_first(era, Ordering::SeqCst);
                era += 1;
            }
        });
        scope.spawn(|| {
            let mut expected_tag = 0u64;
            for _ in 0..20_000 {
                let cur = pair.load();
                assert_eq!(cur.1, expected_tag, "tag word must never tear");
                if pair.compare_exchange(cur, (cur.0, cur.1 + 1)).is_ok() {
                    expected_tag += 1;
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
    });
    assert!(pair.load().1 > 0);
}

#[test]
fn fallback_store_first_all_leaves_the_second_words() {
    force_fallback();
    let pairs = [
        AtomicPair::new(1, 2),
        AtomicPair::new(3, 4),
        AtomicPair::new(5, 6),
    ];
    AtomicPair::store_first_all(&pairs[..2], 9, Ordering::SeqCst);
    let seen: Vec<_> = pairs.iter().map(AtomicPair::load).collect();
    assert_eq!(seen, [(9, 2), (9, 4), (5, 6)]);
}
