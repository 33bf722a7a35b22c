//! Model tests for the double-width CAS primitive (`AtomicPair`).
//!
//! The native `cmpxchg16b` path announces its own interleaving point (the
//! inline asm bypasses the instrumented atomics), so these schedules exercise
//! the same hardware path production uses. The striped-lock fallback has its
//! own single-test process in `tests/model_fallback.rs` — mixing native and
//! lock-based operations on one pair is not linearizable, so the two paths
//! must never share a process.

use std::sync::Arc;

use wfe_sync::atomic::Ordering;
use wfe_sync::AtomicPair;

use crate::SCHEDULES;

/// One versioned increment: bump the value word and the version word
/// together, as every WCAS user in the suite does.
fn versioned_increment(pair: &AtomicPair) {
    loop {
        let (value, version) = pair.load();
        if pair
            .compare_exchange((value, version), (value + 1, version + 1))
            .is_ok()
        {
            return;
        }
    }
}

#[test]
fn wcas_increments_are_conserved() {
    shuttle::check_random(
        || {
            let pair = Arc::new(AtomicPair::new(0, 0));
            let t = {
                let pair = Arc::clone(&pair);
                shuttle::thread::spawn(move || {
                    versioned_increment(&pair);
                    versioned_increment(&pair);
                })
            };
            versioned_increment(&pair);
            versioned_increment(&pair);
            t.join().unwrap();
            assert_eq!(pair.load(), (4, 4), "an increment was lost");
        },
        SCHEDULES,
    );
}

#[test]
fn half_store_races_wcas_without_tearing() {
    // A single-word publisher racing a full-width CAS bumper: whatever the
    // interleaving, the pair must only ever hold states that some
    // serialization of the two threads produces — the version word counts
    // exactly the successful wide CASes, and the value word is one of the
    // published values.
    shuttle::check_random(
        || {
            let pair = Arc::new(AtomicPair::new(0, 0));
            let t = {
                let pair = Arc::clone(&pair);
                shuttle::thread::spawn(move || {
                    for era in 1..=3 {
                        pair.store_first(era, Ordering::SeqCst);
                    }
                })
            };
            let mut bumps = 0u64;
            while bumps < 2 {
                let (value, version) = pair.load();
                if pair
                    .compare_exchange((value, version), (value, version + 1))
                    .is_ok()
                {
                    bumps += 1;
                }
            }
            t.join().unwrap();
            let (value, version) = pair.load();
            assert_eq!(version, 2, "exactly the successful CASes count");
            assert!(value <= 3, "value word out of the published range: {value}");
        },
        SCHEDULES,
    );
}

#[test]
fn wcas_tiny_core_is_exhaustively_explored() {
    // Two threads, one versioned increment each: small enough for the
    // bounded-exhaustive DFS strategy to enumerate *every* schedule with up
    // to two preemptions, not just sample them.
    let (schedules, complete) = shuttle::explore(
        || {
            let pair = Arc::new(AtomicPair::new(0, 0));
            let t = {
                let pair = Arc::clone(&pair);
                shuttle::thread::spawn(move || versioned_increment(&pair))
            };
            versioned_increment(&pair);
            t.join().unwrap();
            assert_eq!(pair.load(), (2, 2));
        },
        2,
        200_000,
    );
    assert!(complete, "the WCAS core must be fully explorable");
    assert!(schedules > 1, "the exploration found only one interleaving");
}
