//! Model test for the registry's ordering obligation.
//!
//! A cleanup pass walks the reservation rows below the registry's
//! high-water mark, so the mark must cover a thread's row before that thread
//! publishes anything a pass could need. The race is a thread registering a
//! fresh handle (its slot above the mark) and protecting a block against a
//! thread that unlinks, retires and scans the same block. If the mark were
//! raised after the new slot's first reservation store, or if the scan were
//! bounded by a mark read before the pass's retire, a pass could stop one
//! row short and free the block under the reader.

// wfe-analyze: allow(raw-atomic): model-test oracle state — deliberately a std
// atomic so the checker never schedules an interleaving point on bookkeeping.
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

use wfe_reclaim::{Atomic, DomainConfig, Handle, He, Protected, RawHandle, Reclaimer};
use wfe_sync::atomic::Ordering;

use crate::SCHEDULES;

/// A payload whose drop is observable: a free under a live reservation is
/// caught when the reader looks.
struct Canary(Arc<AtomicBool>);

impl Drop for Canary {
    fn drop(&mut self) {
        self.0.store(true, SeqCst);
    }
}

fn a_fresh_registration_races_a_cleanup_pass() {
    let domain = He::with_config(DomainConfig {
        // Passes run only when forced; one slot per row keeps the walk short.
        cleanup_freq: usize::MAX,
        slots_per_thread: 1,
        ..DomainConfig::with_max_threads(2)
    });
    let freed = Arc::new(AtomicBool::new(false));
    let mut writer = domain.register();
    let node = writer.alloc(Canary(Arc::clone(&freed)));
    let root = Arc::new(Atomic::new(node));
    // The writer's operation is in flight before the reader exists.
    let guard = writer.enter();

    let reader = {
        let (domain, root, freed) = (Arc::clone(&domain), Arc::clone(&root), Arc::clone(&freed));
        shuttle::thread::spawn(move || {
            let mut reader = domain.register();
            assert_eq!(reader.thread_id(), 1, "the writer holds slot 0");
            let mut shield = reader.shield::<Canary>().unwrap();
            let guard = reader.enter();
            if !shield.protect(&guard, &root, None).is_null() {
                shuttle::thread::yield_now();
                assert!(
                    !freed.load(SeqCst),
                    "a pass freed the block under a reservation in the top row"
                );
            }
        })
    };

    root.store(core::ptr::null_mut(), Ordering::SeqCst);
    // SAFETY: just unlinked from its only root, retired once.
    unsafe { Protected::from_unlinked(node).retire_in(&guard) };
    drop(guard);
    writer.force_cleanup();
    reader.join().unwrap();
    writer.force_cleanup();
    assert!(freed.load(SeqCst), "the block outlived every reservation");
}

#[test]
fn a_fresh_slot_is_scanned_before_it_can_pin_under_pct() {
    shuttle::check_pct(a_fresh_registration_races_a_cleanup_pass, SCHEDULES, 3);
}

#[test]
fn a_fresh_slot_is_scanned_before_it_can_pin_under_bounded_dfs() {
    // Every schedule with up to three preemptions (4 584 of them) is run.
    let (schedules, complete) =
        shuttle::explore(a_fresh_registration_races_a_cleanup_pass, 3, 20_000);
    assert!(
        complete,
        "the bound was not exhausted in {schedules} schedules"
    );
    assert!(
        schedules > 1_000,
        "only {schedules} schedules with three preemptions"
    );
}
