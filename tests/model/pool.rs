//! Model tests for [`HandlePool`]: check-out / park / revive races between
//! `shuttle` threads, driving `HandlePool::check_out` and `PooledHandle`
//! directly.

// wfe-analyze: allow(raw-atomic): model-test oracle state — deliberately a std
// atomic so the checker never schedules an interleaving point on bookkeeping.
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use wfe_reclaim::{DomainConfig, Handle, HandlePool, He, Protected, RawHandle, Reclaimer};
use wfe_sync::atomic::Ordering;

use crate::SCHEDULES;

#[test]
fn pooled_handles_are_exclusive_on_every_schedule() {
    // Two shuttle threads ping-pong handles through a two-slot pool. Each
    // live `PooledHandle` owns a registry slot exclusively; if any
    // check-out/park interleaving ever revived a handle twice (or handed the
    // same slot to two threads), the per-slot occupancy flag below would
    // observe a second owner.
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig::with_max_threads(2));
            let pool = HandlePool::new(Arc::clone(&domain));
            let in_use: Arc<Vec<StdAtomicUsize>> =
                Arc::new((0..2).map(|_| StdAtomicUsize::new(0)).collect());

            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let pool = Arc::clone(&pool);
                    let in_use = Arc::clone(&in_use);
                    shuttle::thread::spawn(move || {
                        let mut done = 0;
                        while done < 2 {
                            let Some(mut handle) = pool.check_out() else {
                                // Transient exhaustion (a park in flight):
                                // retryable by contract.
                                shuttle::thread::yield_now();
                                continue;
                            };
                            let tid = handle.thread_id();
                            assert_eq!(
                                in_use[tid].fetch_add(1, SeqCst),
                                0,
                                "two live pooled handles share registry slot {tid}"
                            );
                            let node = handle.alloc(7u64);
                            handle.with_guard(|guard| {
                                // SAFETY: never linked anywhere; retired
                                // exactly once.
                                unsafe { Protected::from_unlinked(node).retire_in(&guard) };
                            });
                            assert_eq!(in_use[tid].fetch_sub(1, SeqCst), 1);
                            handle.release();
                            done += 1;
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }

            // Last pool reference: parked handles drop, run their final
            // cleanup, and release their registry slots.
            drop(pool);
            let mut sweeper = domain.register();
            sweeper.force_cleanup();
            assert_eq!(
                domain.stats().unreclaimed,
                0,
                "a retired block survived every handle's teardown"
            );
        },
        SCHEDULES,
    );
}

#[test]
fn parked_handles_pin_nothing_under_concurrent_retire() {
    // A reader protects a block through `with_guard`, then releases its handle
    // back to the pool while a writer concurrently unlinks, retires, and
    // sweeps. `release` parks through `end_op`, so on *every* interleaving
    // the parked handle must leave no reservation behind: the final cleanup
    // must always reach zero unreclaimed blocks.
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig {
                cleanup_freq: 1,
                era_freq: 1,
                ..DomainConfig::with_max_threads(2)
            });
            let pool = HandlePool::new(Arc::clone(&domain));
            let mut writer = domain.register();
            let node = writer.alloc(9u64);
            let root = Arc::new(wfe_reclaim::Atomic::new(node));

            let reader = {
                let pool = Arc::clone(&pool);
                let root = Arc::clone(&root);
                shuttle::thread::spawn(move || {
                    let mut handle = pool.check_out().expect("one registry slot is reserved");
                    let mut shield = handle.shield::<u64>().unwrap();
                    handle.with_guard(|guard| {
                        let p = shield.protect(&guard, &root, None);
                        if !p.is_null() {
                            // SAFETY: `shield` does not re-protect while `p`
                            // is in use.
                            assert_eq!(unsafe { p.as_ref() }, Some(&9));
                        }
                    });
                    handle.release();
                })
            };

            root.store(core::ptr::null_mut(), Ordering::SeqCst);
            {
                let guard = writer.enter();
                // SAFETY: just unlinked from its only root, retired once.
                unsafe { Protected::from_unlinked(node).retire_in(&guard) };
            }
            reader.join().unwrap();
            writer.force_cleanup();
            assert_eq!(
                domain.stats().unreclaimed,
                0,
                "a parked handle pinned a retired block"
            );
        },
        SCHEDULES,
    );
}

/// The racing core for the replay test below: with a single registry slot,
/// observing `parked() > 0` does not yet mean the handle is poppable — the
/// park path publishes the counter *before* pushing the handle onto the
/// freelist, so a check-out landing inside that window sees an exhausted
/// registry and an empty freelist at once.
fn transient_exhaustion_body() {
    let domain = He::with_config(DomainConfig::with_max_threads(1));
    let pool = HandlePool::new(Arc::clone(&domain));
    let parker = {
        let pool = Arc::clone(&pool);
        shuttle::thread::spawn(move || {
            let handle = pool.check_out().expect("the only slot is free at spawn");
            handle.release();
        })
    };
    while pool.parked() == 0 {
        shuttle::thread::yield_now();
    }
    assert!(
        pool.check_out().is_some(),
        "transient exhaustion: the parked counter is ahead of the freelist"
    );
    parker.join().unwrap();
}

#[test]
fn transient_pool_exhaustion_is_findable_and_replays_byte_identically() {
    // This is the race `check_out`'s docs declare retryable. The model
    // checker must (a) find a schedule exhibiting it — proving the window is
    // real, not documentation folklore — and (b) replay the printed seed to
    // a byte-identical failure report, which is what a CI-only interleaving
    // needs to be reproduced locally.
    let config = shuttle::Config {
        schedules: 4096,
        seed: 0x7A5C,
        ..shuttle::Config::default()
    };
    let (seed, report) = shuttle::search_for_failure(config.clone(), transient_exhaustion_body)
        .expect("the counter-before-push park window must be discoverable");
    assert!(
        report.contains("transient exhaustion"),
        "the search tripped a different assertion: {report}"
    );
    let replayed = shuttle::run_seed(&config, seed, transient_exhaustion_body)
        .expect("the reported seed must reproduce the failure");
    assert_eq!(replayed, report, "replay diverged from the original run");
}
