//! Data-structure conformance under every reclamation scheme (`Ebr`, `Hp`,
//! `He`, `Ibr2Ge`, `Leak`, `Wfe`), through the public `wfe-suite` facade:
//! the shared scheme scenarios, the CRTurn queue, and the resizable map's
//! growth and orphan paths.
//!
//! The scheme scenarios are `wfe-reclaim`'s own
//! (`crates/reclaim/src/conformance/scenarios.rs`), compiled here a second
//! time against the names the facade exports. `wfe-reclaim` runs them as
//! unit tests (`conformance_suite!`, one table of all six schemes); this file
//! pins down that the facade alone is enough to drive them, and keeps a
//! plain `cargo test -q` at the workspace root covering all six schemes
//! uniformly even if those unit tests are filtered out.

use std::sync::Arc;

use wfe_suite::{
    Atomic, BlockCacheConfig, CrTurnQueue, DomainConfig, Ebr, Handle, He, Hp, Ibr2Ge, Leak, Linked,
    RawHandle, Reclaimer, ResizableHashMap, Wfe,
};

// The scenarios name `crate::Atomic`, `crate::DomainConfig`, …: the imports
// above. Those only `wfe-reclaim`'s own table calls are dead here.
#[allow(dead_code)]
#[path = "../crates/reclaim/src/conformance/scenarios.rs"]
mod conformance;

/// Instantiates the conformance battery for one scheme.
///
/// `protection`, `bound`, `adoption` and `parks` are opt-outs: `Leak` never reclaims,
/// so "dropping the protection allows reclamation", the unreclaimed-memory
/// bound and live orphan adoption do not apply to it (its orphans are instead
/// asserted to survive until domain drop); `Ebr`/`Ibr2Ge` get no bound either
/// (epoch advance is batched, so the single-threaded-churn bound is
/// scheme-specific); `parks` is on for the schemes whose reservation names a
/// witness era, so a stalled reader's blocks leave the scan list.
/// `pass_leaves` is what a batch's pass may leave unreclaimed while
/// operations keep running: one block under a clocked scheme, none under
/// `Hp`, the whole batch under `Leak`.
macro_rules! conformance_smoke {
    ($module:ident, $scheme:ty, protection: $protection:expr, bound: $bound:expr,
     adoption: $adoption:expr, parks: $parks:expr, pass_leaves: $left:expr) => {
        mod $module {
            use super::*;

            #[test]
            fn basic_lifecycle() {
                conformance::basic_lifecycle::<$scheme>();
            }

            #[test]
            fn protection_blocks_reclamation() {
                if $protection {
                    conformance::protection_blocks_reclamation::<$scheme>();
                }
            }

            #[test]
            fn all_blocks_freed_on_drop() {
                conformance::all_blocks_freed_on_drop::<$scheme>();
            }

            #[test]
            fn a_pass_frees_what_no_running_operation_holds() {
                conformance::a_pass_frees_what_no_running_operation_holds::<$scheme>($left);
            }

            #[test]
            fn concurrent_stack_stress() {
                conformance::concurrent_stack_stress::<$scheme>(4, 1_000);
            }

            #[test]
            fn unreclaimed_is_bounded() {
                if let Some(bound) = $bound {
                    conformance::unreclaimed_is_bounded::<$scheme>(bound);
                }
            }

            #[test]
            fn orphan_adoption_reclaims_exited_threads_blocks() {
                conformance::orphan_adoption_reclaims_exited_threads_blocks::<$scheme>($adoption);
            }

            #[test]
            fn stalled_reader_costs_passes_nothing() {
                if $parks {
                    conformance::stalled_reader_costs_passes_nothing::<$scheme>();
                }
            }
        }
    };
}

conformance_smoke!(ebr, Ebr, protection: true, bound: None, adoption: true, parks: true, pass_leaves: 0..=1);
conformance_smoke!(hp, Hp, protection: true, bound: Some(2_000), adoption: true, parks: false, pass_leaves: 0..=0);
conformance_smoke!(he, He, protection: true, bound: Some(4_000), adoption: true, parks: true, pass_leaves: 0..=1);
conformance_smoke!(ibr2ge, Ibr2Ge, protection: true, bound: None, adoption: true, parks: false, pass_leaves: 0..=1);
conformance_smoke!(leak, Leak, protection: false, bound: None, adoption: false, parks: false, pass_leaves: 30..=30);
conformance_smoke!(wfe, Wfe, protection: true, bound: Some(4_000), adoption: true, parks: true, pass_leaves: 0..=1);

/// CRTurn-specific conformance: the queue composes with every scheme. A
/// short two-thread producer/consumer run plus a drain must conserve every
/// element under each of the six reclaimers (the figure sweep of Fig. 5c/5d
/// relies on exactly this matrix).
fn crturn_conserves_elements_under<R: Reclaimer>() {
    const PER_THREAD: u64 = 500;
    let domain = R::with_config(DomainConfig {
        cleanup_freq: 8,
        era_freq: 16,
        ..DomainConfig::with_max_threads(3)
    });
    let queue = CrTurnQueue::<u64, R>::new(Arc::clone(&domain));
    let consumed = wfe_sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let queue = &queue;
            let domain = Arc::clone(&domain);
            let consumed = &consumed;
            scope.spawn(move || {
                let mut handle = domain.register();
                for i in 1..=PER_THREAD {
                    queue.enqueue(&mut handle, t * PER_THREAD + i);
                    if i % 2 == 0 {
                        if let Some(v) = queue.dequeue(&mut handle) {
                            consumed.fetch_add(v, wfe_sync::atomic::Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let mut handle = domain.register();
    while let Some(v) = queue.dequeue(&mut handle) {
        consumed.fetch_add(v, wfe_sync::atomic::Ordering::Relaxed);
    }
    let expected: u64 = (1..=2 * PER_THREAD).sum();
    assert_eq!(consumed.load(wfe_sync::atomic::Ordering::Relaxed), expected);
}

macro_rules! crturn_smoke {
    ($($test:ident: $scheme:ty;)*) => {
        mod crturn {
            use super::*;
            $(
                #[test]
                fn $test() {
                    crturn_conserves_elements_under::<$scheme>();
                }
            )*
        }
    };
}

crturn_smoke! {
    under_ebr: Ebr;
    under_hp: Hp;
    under_he: He;
    under_ibr2ge: Ibr2Ge;
    under_leak: Leak;
    under_wfe: Wfe;
}

/// Resizable-map conformance: the split-ordered map's growth path composes
/// with every scheme. Two writer threads insert disjoint key ranges while a
/// third keeps forcing directory doublings; every key must survive every
/// migration under each of the six reclaimers.
fn resizable_map_conserves_elements_under<R: Reclaimer>() {
    const PER_THREAD: u64 = 400;
    let domain = R::with_config(DomainConfig {
        cleanup_freq: 8,
        era_freq: 16,
        ..DomainConfig::with_max_threads(4)
    });
    let map = ResizableHashMap::<u64, R>::with_initial_buckets(Arc::clone(&domain), 2);
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let map = &map;
            let domain = Arc::clone(&domain);
            scope.spawn(move || {
                let mut handle = domain.register();
                for i in 0..PER_THREAD {
                    let key = t * PER_THREAD + i;
                    assert!(map.insert(&mut handle, key, key * 3), "key {key} is fresh");
                }
            });
        }
        let map = &map;
        let domain = Arc::clone(&domain);
        scope.spawn(move || {
            let mut handle = domain.register();
            for _ in 0..6 {
                map.force_resize(&mut handle);
                std::thread::yield_now();
            }
        });
    });
    let mut handle = domain.register();
    for key in 0..2 * PER_THREAD {
        assert_eq!(
            map.get(&mut handle, key),
            Some(key * 3),
            "key {key} lost across migrations"
        );
    }
    assert_eq!(map.len(), 2 * PER_THREAD as usize);
    assert!(
        map.stats().resizes >= 6,
        "the resizer thread's doublings landed"
    );
}

/// The mid-resize handle-drop case: a thread grows the map (the superseded
/// bucket arrays land in *its* retired batches) and exits while another
/// thread's reservation still covers its batch — so the exiting thread's
/// final scan cannot drain it and the arrays are parked on the orphan stack.
/// A later thread's cleanup must adopt and free them (`reclaims: true`);
/// under `Leak` the orphans instead survive until domain drop.
///
/// The reservation is a raw-SPI protect on a sentinel block retired by the
/// doomed handle into the same batches as the arrays (hazard-pointer schemes
/// pin only what is explicitly protected, so the sentinel is what guarantees
/// a non-empty orphan batch under every scheme; era schemes additionally pin
/// the arrays themselves through the open operation's span).
fn resizable_map_orphaned_arrays_adopted_under<R: Reclaimer>(reclaims: bool) {
    let domain = R::with_config(DomainConfig {
        // No organic scans: whatever the doomed handle retires stays in its
        // batches until its drop-time final scan.
        cleanup_freq: usize::MAX,
        era_freq: 1,
        ..DomainConfig::with_max_threads(3)
    });
    let map = ResizableHashMap::<u64, R>::with_initial_buckets(Arc::clone(&domain), 2);
    let mut adopter = domain.register();
    let mut reader = domain.register();
    {
        let mut doomed = domain.register();
        let sentinel = doomed.alloc(0u64);
        let root: Atomic<u64> = Atomic::new(sentinel);
        reader.begin_op();
        let protected = reader.protect(&root, 0, std::ptr::null_mut());
        assert!(!protected.is_null());

        for key in 0..64 {
            assert!(map.insert(&mut doomed, key, key));
        }
        for _ in 0..4 {
            assert!(map.force_resize(&mut doomed));
        }
        // The sentinel is unreachable (its root is this local) but pinned by
        // the reader; it rides the same batches as the superseded arrays.
        // SAFETY: allocated above on this domain, never retired elsewhere.
        unsafe { doomed.retire(sentinel) };
        // `doomed` drops here, mid-growth from the map's point of view: the
        // reader's reservation blocks its final scan from draining the
        // batch, which is pushed onto the orphan stack instead.
    }
    assert!(
        domain.stats().unreclaimed > 0,
        "the reader's reservation must orphan the exiting thread's batch"
    );

    reader.clear();
    reader.end_op();
    adopter.force_cleanup();
    adopter.force_cleanup();

    let stats = domain.stats();
    if reclaims {
        assert_eq!(
            stats.unreclaimed, 0,
            "adoption must free the exited thread's retired bucket arrays"
        );
        assert!(
            stats.adopted_batches > 0,
            "the batch must arrive via the orphan path, not a live scan"
        );
    } else {
        assert!(
            stats.unreclaimed > 0,
            "Leak parks orphans until domain drop"
        );
    }
    // The map itself is untouched by the orphan dance.
    for key in 0..64 {
        assert_eq!(map.get(&mut adopter, key), Some(key));
    }
}

macro_rules! resizable_smoke {
    ($($module:ident: $scheme:ty, adoption: $adoption:expr;)*) => {
        mod resizable {
            use super::*;
            $(
                mod $module {
                    use super::*;

                    #[test]
                    fn conserves_elements_across_resizes() {
                        resizable_map_conserves_elements_under::<$scheme>();
                    }

                    #[test]
                    fn orphaned_bucket_arrays_are_adopted() {
                        resizable_map_orphaned_arrays_adopted_under::<$scheme>($adoption);
                    }
                }
            )*
        }
    };
}

resizable_smoke! {
    under_ebr: Ebr, adoption: true;
    under_hp: Hp, adoption: true;
    under_he: He, adoption: true;
    under_ibr2ge: Ibr2Ge, adoption: true;
    under_leak: Leak, adoption: false;
    under_wfe: Wfe, adoption: true;
}
