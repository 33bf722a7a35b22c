//! Model tests for the guard API's lease table and staleness detection.

// wfe-analyze: allow(raw-atomic): model-test oracle state — deliberately a std
// atomic so the checker never schedules an interleaving point on bookkeeping.
use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use wfe_reclaim::{Atomic, DomainConfig, Handle, He, RawHandle, Reclaimer};

use crate::SCHEDULES;

#[test]
fn shield_lease_and_cross_thread_release_stay_exclusive() {
    // An owned `Shield` can be dropped on a different thread than the one
    // that leased it. The release (a plain store clearing the slot's flag)
    // races the owner thread re-leasing (a load, then a plain store): no
    // interleaving may double-lease a slot (the table's debug assertion
    // would fire) or lose one (the loop below would never obtain a third
    // shield).
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig {
                slots_per_thread: 2,
                ..DomainConfig::with_max_threads(1)
            });
            let handle = domain.register();
            let a = Handle::shield::<u64>(&handle).unwrap();
            let b = Handle::shield::<u64>(&handle).unwrap();
            assert_eq!(
                Handle::shield::<u64>(&handle).unwrap_err().slots,
                2,
                "a full table reports exhaustion instead of stomping"
            );
            let t = shuttle::thread::spawn(move || drop(a));
            let fresh = loop {
                match Handle::shield::<u64>(&handle) {
                    Ok(shield) => break shield,
                    Err(_) => shuttle::thread::yield_now(),
                }
            };
            t.join().unwrap();
            assert_eq!(fresh.slot(), 0, "the released slot is the one re-leased");
            assert_ne!(fresh.slot(), b.slot());
            assert_eq!(handle.shield_slots().leased(), 2);
        },
        SCHEDULES,
    );
}

#[test]
fn shield_lease_table_is_exhaustively_explored() {
    // Tiny core for the bounded-exhaustive strategy: one cross-thread
    // release racing one re-lease, every schedule with up to two
    // preemptions.
    let (schedules, complete) = shuttle::explore(
        || {
            let domain = He::with_config(DomainConfig {
                slots_per_thread: 2,
                ..DomainConfig::with_max_threads(1)
            });
            let handle = domain.register();
            let a = Handle::shield::<u64>(&handle).unwrap();
            // `b` keeps the table full, so the loop below can only succeed
            // by observing the cross-thread release of `a`'s slot.
            let b = Handle::shield::<u64>(&handle).unwrap();
            let t = shuttle::thread::spawn(move || drop(a));
            let fresh = loop {
                match Handle::shield::<u64>(&handle) {
                    Ok(shield) => break shield,
                    Err(_) => shuttle::thread::yield_now(),
                }
            };
            t.join().unwrap();
            assert_eq!(fresh.slot(), 0);
            drop(b);
        },
        2,
        500_000,
    );
    assert!(complete, "the lease-table core must be fully explorable");
    assert!(schedules > 1);
}

/// The single-writer lease protocol under its one cross-thread race: an
/// owned `Shield` is dropped on a second thread while the owner thread leases
/// and releases guard shields in a loop. Leasing is a load followed by a
/// plain store and releasing a plain store, so the schedules that matter put
/// the remote release between the owner's load and its store, or between two
/// of its leases. A per-slot owner counter (oracle state the checker does not
/// schedule) proves no slot is ever handed out twice; after the join the
/// remotely released slot must lease again.
fn remote_release_races_guard_leases(rounds: usize) {
    let domain = He::with_config(DomainConfig {
        slots_per_thread: 2,
        ..DomainConfig::with_max_threads(1)
    });
    let mut handle = domain.register();
    let owners: Arc<[StdAtomicUsize; 2]> =
        Arc::new([StdAtomicUsize::new(0), StdAtomicUsize::new(0)]);
    let claim = |slot: usize| {
        assert_eq!(
            owners[slot].fetch_add(1, SeqCst),
            0,
            "slot {slot} handed out while another shield still owns it"
        );
    };
    let unclaim = |slot: usize| assert_eq!(owners[slot].fetch_sub(1, SeqCst), 1);

    let remote = handle.shield::<u64>().unwrap();
    assert_eq!(remote.slot(), 0);
    claim(0);
    let t = {
        let owners = Arc::clone(&owners);
        shuttle::thread::spawn(move || {
            // Give the slot up in the oracle first: from here on the owner
            // thread may legitimately lease it as soon as the flag clears.
            assert_eq!(owners[remote.slot()].fetch_sub(1, SeqCst), 1);
            drop(remote);
        })
    };
    for _ in 0..rounds {
        let guard = handle.enter();
        let first = guard
            .shield::<u64>()
            .expect("at most one slot is held remotely");
        claim(first.slot());
        match guard.shield::<u64>() {
            Ok(second) => {
                claim(second.slot());
                unclaim(second.slot());
            }
            Err(err) => assert_eq!(err.slots, 2, "exhaustion reports the capacity"),
        }
        unclaim(first.slot());
    }
    t.join().unwrap();
    let guard = handle.enter();
    let low = guard.shield::<u64>().unwrap();
    let high = guard.shield::<u64>().unwrap();
    assert_eq!(
        (low.slot(), high.slot()),
        (0, 1),
        "the remotely released slot is leasable again"
    );
}

#[test]
fn guard_leases_race_a_remote_release_under_pct() {
    shuttle::check_pct(|| remote_release_races_guard_leases(3), SCHEDULES, 3);
}

#[test]
fn guard_leases_race_a_remote_release_exhaustively() {
    let (schedules, complete) =
        shuttle::explore(|| remote_release_races_guard_leases(2), 2, 500_000);
    assert!(complete, "the guard-lease core must be fully explorable");
    assert!(schedules > 1);
}

/// Regression for the PR 5 staleness hazard: a `Shield` re-protects while a
/// `Protected` derived from its previous reservation is still live, with a
/// concurrent writer retiring the block the stale value points at. The
/// debug-mode generation stamp must turn the later `as_ref` into a "stale
/// Protected" panic — on *every* schedule, because staleness is a
/// thread-local property the interleaving cannot mask.
#[cfg(debug_assertions)]
#[test]
fn stale_protected_panics_on_every_schedule() {
    let body = || {
        let domain = He::with_config(DomainConfig {
            cleanup_freq: 1,
            era_freq: 1,
            ..DomainConfig::with_max_threads(2)
        });
        let mut reader = domain.register();
        let mut writer = domain.register();
        let a = writer.alloc(1u64);
        let b = writer.alloc(2u64);
        let root_a = Arc::new(Atomic::new(a));
        let root_b: Atomic<u64> = Atomic::new(b);

        // The reader takes both protections first: `stale` is `a` under the
        // shield's first reservation, then the re-protect of `root_b` ends
        // that reservation while `stale` stays live — the PR 5 hazard.
        let mut shield = reader.shield::<u64>().unwrap();
        let guard = reader.enter();
        let stale = shield.protect(&guard, &root_a, None);
        assert!(!stale.is_null());
        let fresh = shield.protect(&guard, &root_b, None);
        // SAFETY: `fresh` is the shield's current reservation.
        assert_eq!(unsafe { fresh.as_ref() }, Some(&2));

        // The writer now unlinks, retires and (era-freq 1, cleanup-freq 1)
        // actually frees `a` at some point of the schedule — nothing
        // reserves it any more, so the stale dereference below is a real
        // use-after-free unless the generation stamp stops it.
        let t = {
            let root_a = Arc::clone(&root_a);
            // Raw pointers are not `Send`; the address is, and the block it
            // names is owned by the writer from here on.
            let a_addr = a as usize;
            shuttle::thread::spawn(move || {
                let a = a_addr as *mut wfe_reclaim::Linked<u64>;
                root_a.store(core::ptr::null_mut(), wfe_sync::atomic::Ordering::SeqCst);
                let wguard = writer.enter();
                // SAFETY: `a` was just unlinked from its only root and is
                // retired exactly once.
                unsafe { wfe_reclaim::Protected::from_unlinked(a).retire_in(&wguard) };
                drop(wguard);
                writer.force_cleanup();
            })
        };
        t.join().unwrap();
        // SAFETY: deliberately violated contract — the generation stamp must
        // turn this use-after-reprotect into a panic, never a stale read.
        let _ = unsafe { stale.as_ref() };
        unreachable!("the stale dereference returned instead of panicking");
    };

    // Deterministic across schedules: every one of these seeds must fail,
    // and each must fail with the staleness report, not an unrelated one.
    for base_seed in 0..24u64 {
        let config = shuttle::Config {
            schedules: 1,
            seed: base_seed,
            ..shuttle::Config::default()
        };
        let (seed, report) = shuttle::search_for_failure(config.clone(), body)
            .expect("the stale dereference must panic under every schedule");
        assert!(
            report.contains("stale Protected"),
            "schedule {base_seed} failed for another reason: {report}"
        );
        // And the reported seed replays to the identical report.
        let replayed = shuttle::run_seed(&config, seed, body)
            .expect("the reported seed must reproduce the panic");
        assert_eq!(replayed, report, "replay diverged from the original run");
    }
}
