//! Model tests for the era clock: protection vs concurrent retire/cleanup,
//! and direct injection through the `EraSource` handle the schemes expose.

// wfe-analyze: allow(raw-atomic): model-test oracle state — deliberately a std
// atomic so the checker never schedules an interleaving point on bookkeeping.
use std::sync::atomic::{AtomicBool, AtomicU64 as StdAtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use wfe_reclaim::Wfe;
use wfe_reclaim::{Atomic, DomainConfig, Handle, He, Protected, RawHandle, Reclaimer};
use wfe_sync::atomic::Ordering;

use crate::SCHEDULES;

/// A payload whose drop is observable, so a schedule that frees a block
/// under a live reservation is caught in the act.
struct Canary {
    value: u64,
    freed: Arc<AtomicBool>,
}

impl Drop for Canary {
    fn drop(&mut self) {
        self.freed.store(true, SeqCst);
    }
}

#[test]
fn protection_pins_the_block_across_every_retire_cleanup_interleaving() {
    // The race from the Hazard Eras correctness argument: a reader's
    // `get_protected` (era reservation) against a writer's unlink → retire →
    // cleanup (which snapshots reservations and frees what nothing covers).
    // With `era_freq`/`cleanup_freq` of 1 every retirement bumps the era and
    // scans, so the snapshot race window is open on every schedule. If the
    // reader's protect returned the block, the block must not be freed until
    // the reader's bracket closes — on any interleaving.
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig {
                cleanup_freq: 1,
                era_freq: 1,
                ..DomainConfig::with_max_threads(2)
            });
            let freed = Arc::new(AtomicBool::new(false));
            let mut writer = domain.register();
            let node = writer.alloc(Canary {
                value: 7,
                freed: Arc::clone(&freed),
            });
            let root = Arc::new(Atomic::new(node));

            let reader = {
                let domain = Arc::clone(&domain);
                let root = Arc::clone(&root);
                let freed = Arc::clone(&freed);
                shuttle::thread::spawn(move || {
                    let mut reader = domain.register();
                    let mut shield = reader.shield::<Canary>().unwrap();
                    let guard = reader.enter();
                    let p = shield.protect(&guard, &root, None);
                    if !p.is_null() {
                        // SAFETY: `shield` does not re-protect while `p` is
                        // in use.
                        let canary = unsafe { p.as_ref() }.unwrap();
                        assert!(
                            !freed.load(SeqCst),
                            "block freed while a reservation covered it"
                        );
                        assert_eq!(canary.value, 7);
                    }
                })
            };

            root.store(core::ptr::null_mut(), Ordering::SeqCst);
            {
                let guard = writer.enter();
                // SAFETY: just unlinked from its only root, retired once.
                unsafe { Protected::from_unlinked(node).retire_in(&guard) };
            }
            writer.force_cleanup();
            reader.join().unwrap();
            // The reader's handle is gone: nothing reserves the block now.
            writer.force_cleanup();
            assert!(freed.load(SeqCst), "the block outlived every reservation");
            assert_eq!(domain.stats().unreclaimed, 0);
        },
        SCHEDULES,
    );
}

#[test]
fn protect_stabilizes_against_injected_era_bumps() {
    // `era_source()` is the injection point the sync layer exposes: bump the
    // global era from another thread while a reader runs `get_protected`.
    // The protect loop re-reads until the era it published equals the era it
    // re-observes, so a bounded burst of concurrent bumps may only delay it,
    // never make it return an unprotected pointer.
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig::with_max_threads(2));
            let before = domain.era_source().load(Ordering::SeqCst);
            let bumper = {
                let domain = Arc::clone(&domain);
                shuttle::thread::spawn(move || {
                    for _ in 0..3 {
                        domain.era_source().advance(Ordering::AcqRel);
                    }
                })
            };

            let mut handle = domain.register();
            let node = handle.alloc(11u64);
            let root: Atomic<u64> = Atomic::new(node);
            let mut shield = handle.shield::<u64>().unwrap();
            let guard = handle.enter();
            let p = shield.protect(&guard, &root, None);
            // SAFETY: `shield` does not re-protect while `p` is in use.
            assert_eq!(unsafe { p.as_ref() }, Some(&11));
            drop(guard);

            bumper.join().unwrap();
            // `>=`: the handle's own allocations may also advance the clock.
            assert!(
                domain.era_source().load(Ordering::SeqCst) >= before + 3,
                "the injected advances must all land on the clock"
            );

            root.store(core::ptr::null_mut(), Ordering::SeqCst);
            {
                let guard = handle.enter();
                // SAFETY: just unlinked, retired once.
                unsafe { Protected::from_unlinked(node).retire_in(&guard) };
            }
            handle.force_cleanup();
            assert_eq!(domain.stats().unreclaimed, 0);
        },
        SCHEDULES,
    );
}

/// Parks the calling virtual thread until the oracle `stage` reaches `at`.
fn wait_for(stage: &StdAtomicU64, at: u64) {
    while stage.load(SeqCst) < at {
        shuttle::thread::yield_now();
    }
}

#[test]
fn a_parked_block_stays_pinned_when_another_thread_republishes_its_witness() {
    // A cleanup pass parks a pinned block under the era that pins it, not
    // under the slot that published it. Between two passes the first reader
    // withdraws that era and a second reader — a different thread, a
    // different reservation row — publishes the very same one (the clock is
    // rewound through the injection hook, so "the same era" is exact). The
    // two race in either order; the second pass must find the witness held
    // and must not even rejudge the block. Once nobody publishes the era the
    // block goes.
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig {
                cleanup_freq: 1,
                era_freq: usize::MAX,
                ..DomainConfig::with_max_threads(3)
            });
            let freed = Arc::new(AtomicBool::new(false));
            let stage = Arc::new(StdAtomicU64::new(0));
            let mut writer = domain.register();
            let node = writer.alloc(Canary {
                value: 7,
                freed: Arc::clone(&freed),
            });
            let root = Arc::new(Atomic::new(node));

            // Stages: 1 = the first reader holds the node, 2 = pass 1 done
            // and the clock rewound, 3 and 4 = the withdrawal and the
            // republication (either order), 5 = pass 2 done.
            let first = {
                let (domain, root) = (Arc::clone(&domain), Arc::clone(&root));
                let (freed, stage) = (Arc::clone(&freed), Arc::clone(&stage));
                shuttle::thread::spawn(move || {
                    let mut reader = domain.register();
                    let mut shield = reader.shield::<Canary>().unwrap();
                    let guard = reader.enter();
                    let p = shield.protect(&guard, &root, None);
                    // SAFETY: `shield` does not re-protect while `p` is in
                    // use.
                    assert_eq!(unsafe { p.as_ref() }.unwrap().value, 7);
                    stage.store(1, SeqCst);
                    wait_for(&stage, 2);
                    assert!(!freed.load(SeqCst), "freed under the first reservation");
                    drop(guard); // withdraws the era
                    stage.fetch_add(1, SeqCst);
                })
            };
            let second = {
                let (domain, root) = (Arc::clone(&domain), Arc::clone(&root));
                let stage = Arc::clone(&stage);
                shuttle::thread::spawn(move || {
                    let mut reader = domain.register();
                    let mut shield = reader.shield::<Canary>().unwrap();
                    wait_for(&stage, 2);
                    let guard = reader.enter();
                    let p = shield.protect(&guard, &root, None); // republishes it
                    assert!(p.is_null(), "the node was unlinked before pass 1");
                    stage.fetch_add(1, SeqCst);
                    wait_for(&stage, 5);
                    drop(guard);
                })
            };

            wait_for(&stage, 1);
            let witness = domain.era_source().load(Ordering::SeqCst);
            root.store(core::ptr::null_mut(), Ordering::SeqCst);
            {
                let guard = writer.enter();
                // SAFETY: just unlinked from its only root, retired once.
                unsafe { Protected::from_unlinked(node).retire_in(&guard) };
            }
            assert_eq!(writer.parked_groups(), [(witness, 1)], "pass 1 parks it");
            domain.era_source().set(witness, Ordering::SeqCst);
            stage.store(2, SeqCst);

            wait_for(&stage, 4);
            let judged = domain.stats().scanned;
            writer.force_cleanup();
            assert!(!freed.load(SeqCst), "the witness is still published");
            assert_eq!(writer.parked_groups(), [(witness, 1)]);
            assert_eq!(domain.stats().scanned, judged, "held: not judged again");
            stage.store(5, SeqCst);

            first.join().unwrap();
            second.join().unwrap();
            writer.force_cleanup();
            assert!(freed.load(SeqCst), "the block outlived every reservation");
            assert_eq!(domain.stats().unreclaimed, 0);
        },
        SCHEDULES / 10,
    );
}

#[test]
fn blocks_parked_mid_slow_path_survive_the_hand_over() {
    // WFE with `fast_path_attempts: 1`: the reader's protect announces a
    // slow-path request and a churning helper completes it. Meanwhile a
    // third thread publishes a *newer* node, unlinks both and retires them,
    // running a cleanup pass per retire and two more. A pass may then find
    // the era that pins a node in the reader's reservation, in a parent pin
    // or — for the newer node, Lemma 5 — only in the helper's hand-over
    // pin; it parks the node under that era, and the next pass has to find
    // the same era again wherever it lives by then. Whichever node the
    // reader ends up with must not be freed while the reader holds it, and
    // both go once it leaves. (The hand-over-pin-only snapshot is staged
    // column by column in `wfe-reclaim`'s `wfe::domain` unit tests; random
    // schedules reach it rarely.)
    let parked_while_helping = Arc::new(StdAtomicU64::new(0));
    let parked_acc = Arc::clone(&parked_while_helping);
    shuttle::check_random(
        move || {
            let domain = Wfe::with_config(DomainConfig {
                fast_path_attempts: 1,
                era_freq: 1,
                cleanup_freq: 1,
                ..DomainConfig::with_max_threads(3)
            });
            let freed = [7, 8].map(|_| Arc::new(AtomicBool::new(false)));
            let passes_done = Arc::new(StdAtomicU64::new(0));
            let protecting = Arc::new(StdAtomicU64::new(0));
            let mut cleaner = domain.register();
            let canary = |value: u64| Canary {
                value,
                freed: Arc::clone(&freed[(value - 7) as usize]),
            };
            let older = cleaner.alloc(canary(7));
            let root = Arc::new(Atomic::new(older));

            let reader = {
                let (domain, root) = (Arc::clone(&domain), Arc::clone(&root));
                let (freed, passes_done) = (freed.clone(), Arc::clone(&passes_done));
                let protecting = Arc::clone(&protecting);
                shuttle::thread::spawn(move || {
                    let mut reader = domain.register();
                    let mut shield = reader.shield::<Canary>().unwrap();
                    let guard = reader.enter();
                    protecting.store(1, SeqCst);
                    let p = shield.protect(&guard, &root, None);
                    // Hold the reservation across the cleaner's passes.
                    wait_for(&passes_done, 1);
                    // SAFETY: `shield` does not re-protect while `p` is in
                    // use.
                    if let Some(canary) = unsafe { p.as_ref() } {
                        let index = (canary.value - 7) as usize;
                        assert!(index < 2, "read a recycled block");
                        assert!(
                            !freed[index].load(SeqCst),
                            "node {} freed under a live reservation",
                            canary.value
                        );
                    }
                })
            };
            let helper = {
                let (domain, protecting) = (Arc::clone(&domain), Arc::clone(&protecting));
                shuttle::thread::spawn(move || {
                    // With `era_freq: 1` every allocation runs
                    // `increment_era`, which helps announced requests first.
                    let mut helper = domain.register();
                    wait_for(&protecting, 1);
                    for _ in 0..2 {
                        let filler = helper.alloc(0u64);
                        let guard = helper.enter();
                        // SAFETY: never linked anywhere; retired exactly once.
                        unsafe { Protected::from_unlinked(filler).retire_in(&guard) };
                    }
                })
            };

            // Start once the reader is about to protect, so its request, the
            // publish, the unlinks, the passes and the hand-over overlap: the
            // clock now moves under the reader until a helper completes its
            // request. (An oracle flag, not `stats().slow_path`: a probe that
            // is itself dozens of interleaving points reacts too late to
            // ever catch the request pending.)
            wait_for(&protecting, 1);
            let newer = cleaner.alloc(canary(8));
            root.store(newer, Ordering::SeqCst);
            root.store(core::ptr::null_mut(), Ordering::SeqCst);
            for node in [older, newer] {
                let guard = cleaner.enter();
                // SAFETY: unlinked from its only root above, retired once.
                unsafe { Protected::from_unlinked(node).retire_in(&guard) };
            }
            for _ in 0..2 {
                cleaner.force_cleanup();
                if !cleaner.parked_groups().is_empty() && domain.stats().helps > 0 {
                    parked_acc.fetch_add(1, SeqCst);
                }
            }
            passes_done.store(1, SeqCst);
            reader.join().unwrap();
            helper.join().unwrap();
            // One pass adopts the helper's orphaned batch, if it left one.
            cleaner.force_cleanup();
            cleaner.force_cleanup();
            assert!(
                freed.iter().all(|flag| flag.load(SeqCst)),
                "a block outlived every reservation"
            );
            assert_eq!(domain.stats().unreclaimed, 0);
        },
        // Three threads and two yield-spins make a schedule ~10x longer
        // than its neighbours'; a quarter of the budget keeps the suite's
        // wall time flat and still parks under a helped request every run.
        SCHEDULES / 4,
    );
    assert!(
        parked_while_helping.load(SeqCst) > 0,
        "no schedule parked a node while a helper was at work"
    );
}
