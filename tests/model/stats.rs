//! Model test for the per-slot counter hand-off.
//!
//! A domain keeps no shared counter: each registry slot has a block only its
//! current handle writes (a load and a store per event), and `stats()` sums
//! the blocks up to the registry's high-water mark. The race is a reader
//! summing while the one slot changes owner: one handle allocates, retires,
//! frees and drops, another registers into the same slot — it must carry the
//! totals on, not restart or double them — and a third thread calls `stats()`
//! throughout. No interleaving may show a total going backwards, a total
//! ahead of what has actually happened, or `unreclaimed` clipped; and once
//! everything has joined the totals are exact.

// wfe-analyze: allow(raw-atomic): model-test oracle state — deliberately a std
// atomic so the checker never schedules an interleaving point on bookkeeping.
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use wfe_reclaim::{DomainConfig, Handle, He, RawHandle, Reclaimer, SmrStats};

use crate::SCHEDULES;

/// Blocks each owner of the slot allocates and retires.
const BLOCKS: u64 = 2;

/// What has happened so far, bumped *before* the operation it counts: an
/// upper bound on what any `stats()` call may report.
#[derive(Default)]
struct Oracle {
    allocated: AtomicU64,
    retired: AtomicU64,
}

/// One tenure of the slot: register, allocate and retire, drop.
fn own_the_slot(domain: &Arc<He>, oracle: &Oracle) {
    let mut handle = domain
        .try_register()
        .expect("the previous owner has dropped");
    assert_eq!(handle.thread_id(), 0, "the one slot there is");
    for _ in 0..BLOCKS {
        oracle.allocated.fetch_add(1, SeqCst);
        let node = handle.alloc(0u64);
        oracle.retired.fetch_add(1, SeqCst);
        // SAFETY: never published, so trivially unreachable; retired once.
        unsafe { handle.retire(node) };
    }
}

fn slot_changes_owner_under_a_reader() {
    let domain = He::with_config(DomainConfig {
        // Every retire runs a pass, so `freed` and `scanned` move mid-run.
        cleanup_freq: 1,
        era_freq: 1,
        ..DomainConfig::with_max_threads(1)
    });
    let oracle = Arc::new(Oracle::default());
    let owners = {
        let (domain, oracle) = (Arc::clone(&domain), Arc::clone(&oracle));
        shuttle::thread::spawn(move || {
            own_the_slot(&domain, &oracle);
            // The second owner is another thread: it starts once the first
            // has released the slot.
            shuttle::thread::spawn(move || own_the_slot(&domain, &oracle))
                .join()
                .unwrap();
        })
    };

    let mut previous = SmrStats::default();
    for _ in 0..3 {
        let stats = domain.stats();
        for (name, now, before) in [
            ("allocated", stats.allocated, previous.allocated),
            ("retired", stats.retired, previous.retired),
            ("freed", stats.freed, previous.freed),
            ("scanned", stats.scanned, previous.scanned),
        ] {
            assert!(now >= before, "{name} went backwards: {before} -> {now}");
        }
        assert!(stats.allocated <= oracle.allocated.load(SeqCst));
        assert!(stats.retired <= oracle.retired.load(SeqCst));
        assert!(
            stats.freed <= stats.retired,
            "a free counted before its retire"
        );
        assert_eq!(stats.unreclaimed, stats.retired - stats.freed);
        previous = stats;
        shuttle::thread::yield_now();
    }
    owners.join().unwrap();

    let stats = domain.stats();
    assert_eq!(
        stats.allocated,
        2 * BLOCKS,
        "both tenures, counted once each"
    );
    assert_eq!(stats.retired, 2 * BLOCKS);
    assert_eq!(stats.freed, 2 * BLOCKS);
    assert_eq!(stats.scanned, 2 * BLOCKS);
    assert_eq!(stats.unreclaimed, 0);
}

#[test]
fn slot_counters_survive_a_change_of_owner_under_pct() {
    shuttle::check_pct(slot_changes_owner_under_a_reader, SCHEDULES, 3);
}

#[test]
fn slot_counters_survive_a_change_of_owner_under_bounded_dfs() {
    let (schedules, _complete) = shuttle::explore(slot_changes_owner_under_a_reader, 2, 20_000);
    assert!(
        schedules > 1_000,
        "only {schedules} schedules with two preemptions"
    );
}
