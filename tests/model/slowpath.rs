//! Model tests for the WFE slow path: the announce/help protocol that makes
//! `get_protected` wait-free.
//!
//! With `fast_path_attempts: 1` the *first* protect a handle issues after a
//! `clear` is deterministic: the reservation holds `ERA_INF`, the single
//! fast-path attempt can never observe a stable era, and the handle must
//! announce a slow-path request. Whether that request is then *helped* (by a
//! writer's `increment_era` scanning the state table) or self-cancelled is
//! schedule-dependent — so the slow-path entry is asserted on every
//! schedule, while helping is accumulated across the whole seeded batch.

// wfe-analyze: allow(raw-atomic): model-test oracle state — deliberately a std
// atomic so the checker never schedules an interleaving point on bookkeeping.
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use wfe_reclaim::Wfe;
use wfe_reclaim::{Atomic, DomainConfig, Handle, Protected, RawHandle, Reclaimer};
use wfe_sync::atomic::Ordering;

use crate::SCHEDULES;

#[test]
fn slow_path_engages_deterministically_and_writers_help_pending_requests() {
    let slow_entries = Arc::new(StdAtomicU64::new(0));
    let helps = Arc::new(StdAtomicU64::new(0));
    let slow_acc = Arc::clone(&slow_entries);
    let helps_acc = Arc::clone(&helps);
    shuttle::check_random(
        move || {
            let domain = Wfe::with_config(DomainConfig {
                fast_path_attempts: 1,
                era_freq: 1,
                cleanup_freq: 1,
                ..DomainConfig::with_max_threads(2)
            });
            let mut writer = domain.register();
            let node = writer.alloc(5u64);
            let root = Arc::new(Atomic::new(node));

            let reader = {
                let domain = Arc::clone(&domain);
                let root = Arc::clone(&root);
                shuttle::thread::spawn(move || {
                    let mut reader = domain.register();
                    let mut shield = reader.shield::<u64>().unwrap();
                    // Two bracketed protects: each `enter`/drop pair clears
                    // the reservation back to `ERA_INF`, so *both* protects
                    // must re-enter the slow path — whatever the writer is
                    // doing to the era clock meanwhile.
                    for _ in 0..2 {
                        let guard = reader.enter();
                        let p = shield.protect(&guard, &root, None);
                        if !p.is_null() {
                            // Value integrity: a helped result must point at
                            // the same block a self-cancelled one would.
                            // SAFETY: `shield` does not re-protect while `p`
                            // is in use.
                            assert_eq!(unsafe { p.as_ref() }, Some(&5));
                        }
                    }
                })
            };

            // Era churn: with `era_freq: 1` every allocation runs
            // `increment_era`, which first sweeps the state table and helps
            // any announced request it finds in flight.
            for _ in 0..3 {
                let filler = writer.alloc(0u64);
                let guard = writer.enter();
                // SAFETY: never linked anywhere; retired exactly once.
                unsafe { Protected::from_unlinked(filler).retire_in(&guard) };
            }
            reader.join().unwrap();

            root.store(core::ptr::null_mut(), Ordering::SeqCst);
            {
                let guard = writer.enter();
                // SAFETY: just unlinked from its only root, retired once.
                unsafe { Protected::from_unlinked(node).retire_in(&guard) };
            }
            writer.force_cleanup();
            let stats = domain.stats();
            assert_eq!(stats.unreclaimed, 0);
            assert!(
                stats.slow_path >= 2,
                "fast_path_attempts=1 must funnel every post-clear protect \
                 into the slow path (saw {})",
                stats.slow_path
            );
            slow_acc.fetch_add(stats.slow_path, SeqCst);
            helps_acc.fetch_add(stats.helps, SeqCst);
        },
        SCHEDULES,
    );
    // Helping needs a writer's era bump to land inside the reader's
    // announce window — schedule-dependent, but over the whole seeded batch
    // the wait-free guarantee is vacuous if no request was ever completed by
    // a helper.
    assert!(
        helps.load(SeqCst) > 0,
        "no schedule ever helped an announced request ({} slow-path entries)",
        slow_entries.load(SeqCst)
    );
}

/// One `protect` after registration (the reservation holds `ERA_INF`, so
/// the first fast-path attempt always misses) racing `bumps` era bumps, with
/// `attempts` fast-path attempts; returns the slow-path entries it made.
/// `through_shield` protects through a guard-leased `Shield` (the cell it
/// resolved at lease time) instead of the raw `protect` (a cell per call).
fn protect_against_bumps(attempts: usize, bumps: usize, through_shield: bool) -> u64 {
    let domain = Wfe::with_config(DomainConfig {
        fast_path_attempts: attempts,
        era_freq: usize::MAX,
        cleanup_freq: usize::MAX,
        ..DomainConfig::with_max_threads(2)
    });
    let mut reader = domain.register();
    let node = reader.alloc(9u64);
    let root = Atomic::new(node);
    let bumper = {
        let domain = Arc::clone(&domain);
        shuttle::thread::spawn(move || {
            for _ in 0..bumps {
                domain.era_source().advance(Ordering::SeqCst);
            }
        })
    };
    if through_shield {
        let guard = reader.enter();
        let mut shield = guard.shield::<u64>().unwrap();
        assert_eq!(shield.protect(&guard, &root, None).as_raw(), node);
        bumper.join().unwrap();
    } else {
        assert_eq!(reader.protect(&root, 0, core::ptr::null_mut()), node);
        bumper.join().unwrap();
        reader.clear();
    }
    // SAFETY: never published beyond this thread's root; freed exactly once.
    unsafe { wfe_reclaim::Linked::dealloc(node) };
    domain.stats().slow_path
}

#[test]
fn the_fast_path_makes_exactly_fast_path_attempts_before_asking_for_help() {
    // Each fast-path attempt that misses publishes the era it read, and a
    // miss after the first needs the clock to have moved since the previous
    // read. So with `b` bumps a protect misses at most `b + 1` times in a
    // row: the slow path is reachable with `n - 1` bumps iff the fast path
    // makes at most `n` attempts, and unreachable with `n - 2` iff it makes
    // more than `n - 1`. Both, over every schedule with up to three
    // preemptions, pin the count — the peeled first attempt included — at
    // exactly `fast_path_attempts`: `n` published eras, then one slow path.
    // Attempts 1 and 2 run inline and 3 out of line, through the raw
    // `protect` and through a guard-leased `Shield` alike.
    for (attempts, through_shield) in (1..=3).flat_map(|n| [(n, false), (n, true)]) {
        let most = Arc::new(StdAtomicU64::new(0));
        let seen = Arc::clone(&most);
        let (_, complete) = shuttle::explore(
            move || {
                let slow = protect_against_bumps(attempts, attempts - 1, through_shield);
                assert!(slow <= 1, "one protect enters the slow path at most once");
                seen.fetch_max(slow, SeqCst);
            },
            3,
            500_000,
        );
        assert!(complete);
        assert_eq!(
            most.load(SeqCst),
            1,
            "{attempts} attempts (shield: {through_shield}): a bump before each attempt after \
             the first forces the slow path"
        );
        if attempts >= 2 {
            let (_, complete) = shuttle::explore(
                move || {
                    assert_eq!(
                        protect_against_bumps(attempts, attempts - 2, through_shield),
                        0,
                        "{attempts} attempts (shield: {through_shield}) outlast {} bumps",
                        attempts - 2
                    );
                },
                3,
                500_000,
            );
            assert!(complete);
        }
    }
}

#[test]
fn protect_vs_era_bump_is_exhaustively_explored() {
    // Tiny core for the bounded-exhaustive strategy: one slow-path protect
    // racing one era-bumping retire, every schedule with up to two
    // preemptions. Exhaustive completion here means the announce loop's
    // self-cancel CAS and the helper's result CAS compose correctly in
    // *every* bounded interleaving, not just the sampled ones.
    let (schedules, complete) = shuttle::explore(
        || {
            let domain = Wfe::with_config(DomainConfig {
                fast_path_attempts: 1,
                era_freq: 1,
                cleanup_freq: 1,
                ..DomainConfig::with_max_threads(2)
            });
            let mut writer = domain.register();
            let node = writer.alloc(3u64);
            let root = Arc::new(Atomic::new(node));

            let reader = {
                let domain = Arc::clone(&domain);
                let root = Arc::clone(&root);
                shuttle::thread::spawn(move || {
                    let mut reader = domain.register();
                    let mut shield = reader.shield::<u64>().unwrap();
                    let guard = reader.enter();
                    let p = shield.protect(&guard, &root, None);
                    if !p.is_null() {
                        // SAFETY: `shield` does not re-protect while `p` is
                        // in use.
                        assert_eq!(unsafe { p.as_ref() }, Some(&3));
                    }
                })
            };

            let filler = writer.alloc(0u64);
            {
                let guard = writer.enter();
                // SAFETY: never linked anywhere; retired exactly once.
                unsafe { Protected::from_unlinked(filler).retire_in(&guard) };
            }
            reader.join().unwrap();

            root.store(core::ptr::null_mut(), Ordering::SeqCst);
            {
                let guard = writer.enter();
                // SAFETY: just unlinked from its only root, retired once.
                unsafe { Protected::from_unlinked(node).retire_in(&guard) };
            }
            writer.force_cleanup();
            let stats = domain.stats();
            assert_eq!(stats.unreclaimed, 0);
            assert!(stats.slow_path >= 1);
        },
        2,
        500_000,
    );
    assert!(
        complete,
        "exploration hit the schedule budget after {schedules} schedules"
    );
    assert!(schedules > 0);
}
