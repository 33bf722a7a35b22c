//! Model test for the WCAS striped-lock fallback (`--cfg wfe_model` builds).
//!
//! Lives in its own integration-test binary — and must stay the only test
//! that forces the fallback — because `force_lock_fallback_for_tests` flips
//! a process-global switch: native `cmpxchg16b` operations and lock-based
//! ones on the same pair are not linearizable against each other, so the
//! fallback path needs a process where *every* pair operation takes a lock.
//! (`crates/atomics/tests/lock_fallback.rs` is the same pattern for normal
//! builds.)

#![cfg(wfe_model)]

use std::sync::Arc;

use wfe_sync::{force_lock_fallback_for_tests, wcas_is_lock_free, AtomicPair};

#[test]
fn forced_fallback_conserves_increments_under_the_model() {
    force_lock_fallback_for_tests();
    assert!(!wcas_is_lock_free(), "the fallback must be pinned");
    // The striped spin-lock spins through `wfe_sync::hint::spin_loop`, which
    // under the model is a yield-flavored interleaving point — so a virtual
    // thread parked while holding a stripe cannot livelock its rival; the
    // scheduler always finds the holder runnable.
    shuttle::check_random(
        || {
            let pair = Arc::new(AtomicPair::new(0, 0));
            let t = {
                let pair = Arc::clone(&pair);
                shuttle::thread::spawn(move || {
                    for _ in 0..2 {
                        loop {
                            let (value, version) = pair.load();
                            if pair
                                .compare_exchange((value, version), (value + 1, version + 1))
                                .is_ok()
                            {
                                break;
                            }
                        }
                    }
                })
            };
            for _ in 0..2 {
                loop {
                    let (value, version) = pair.load();
                    if pair
                        .compare_exchange((value, version), (value + 1, version + 1))
                        .is_ok()
                    {
                        break;
                    }
                }
            }
            t.join().unwrap();
            assert_eq!(pair.load(), (4, 4), "an increment was lost");
        },
        2_000,
    );
}
