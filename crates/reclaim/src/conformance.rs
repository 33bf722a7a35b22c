//! The conformance scenarios every reclamation scheme runs.
//!
//! Every scheme in the suite must behave identically through the
//! `Reclaimer`/`Handle` API. The functions in [`scenarios`] encode the
//! behavioural contract once; `conformance_suite!` turns the table of the six
//! schemes at the bottom of this file into their `#[test]`s.

mod scenarios;

pub use scenarios::*;

/// Turns a table of schemes into their conformance tests: one module per
/// row holding the scenarios every scheme runs, plus the three that apply
/// to some schemes only —
///
/// * `unreclaimed_is_bounded`: the bound, or `no` for schemes whose memory
///   use a stalled thread can inflate without limit,
/// * `stalled_reader_costs_passes_nothing`: `yes` for schemes whose
///   snapshots name a witness to park pinned blocks under,
/// * `orphan_adoption`: `yes` for schemes that reclaim while running; `no`
///   (a scheme that never scans protects nothing and adopts nothing)
///   generates `orphans_wait_for_domain_drop` instead, and tells
///   `handle_drop_order` and `stats_are_exact_across_slot_reuse` to expect
///   no pass;
///
/// `reserves`, the [`Reserves`] variant
/// `each_shield_publishes_into_its_own_slot` expects, and `pass_leaves`,
/// the unreclaimed range `a_pass_frees_what_no_running_operation_holds`
/// accepts after its batch's pass.
///
/// The scheme type must be in scope where the macro is invoked.
macro_rules! conformance_suite {
    ($($module:ident: $scheme:ty {
        name: $name:literal,
        progress: $progress:ident,
        unreclaimed_is_bounded: $bound:tt,
        stalled_reader_costs_passes_nothing: $stalled:tt,
        orphan_adoption: $adoption:tt,
        reserves: $reserves:ident,
        pass_leaves: $left:expr $(,)?
    })+) => {$(
        mod $module {
            #[allow(unused_imports)]
            use super::*;
            use crate::conformance;
            use crate::{DomainConfig, Progress, Reclaimer};

            #[test]
            fn naming_and_progress() {
                assert_eq!(<$scheme>::name(), $name);
                assert_eq!(<$scheme>::progress(), Progress::$progress);
            }

            #[test]
            fn basic_lifecycle() {
                conformance::basic_lifecycle::<$scheme>();
            }

            #[test]
            fn all_blocks_freed_on_drop() {
                conformance::all_blocks_freed_on_drop::<$scheme>();
            }

            #[test]
            fn each_shield_publishes_into_its_own_slot() {
                conformance::each_shield_publishes_into_its_own_slot::<$scheme>(
                    conformance::Reserves::$reserves,
                );
            }

            #[test]
            fn a_pass_frees_what_no_running_operation_holds() {
                conformance::a_pass_frees_what_no_running_operation_holds::<$scheme>($left);
            }

            #[test]
            fn concurrent_stack_stress() {
                conformance::concurrent_stack_stress::<$scheme>(4, 2_000);
            }

            #[test]
            #[should_panic(expected = "era_freq")]
            fn era_freq_zero_is_rejected() {
                <$scheme>::with_config(DomainConfig {
                    era_freq: 0,
                    ..DomainConfig::with_max_threads(1)
                });
            }

            conformance_suite!(@unreclaimed_is_bounded $scheme, $bound);
            conformance_suite!(@stalled_reader $scheme, $stalled);
            conformance_suite!(@orphan_adoption $scheme, $adoption);
        }
    )+};
    (@unreclaimed_is_bounded $scheme:ty, no) => {};
    (@unreclaimed_is_bounded $scheme:ty, $bound:literal) => {
        #[test]
        fn unreclaimed_is_bounded() {
            conformance::unreclaimed_is_bounded::<$scheme>($bound);
        }
    };
    (@stalled_reader $scheme:ty, no) => {};
    (@stalled_reader $scheme:ty, yes) => {
        #[test]
        fn stalled_reader_costs_passes_nothing() {
            conformance::stalled_reader_costs_passes_nothing::<$scheme>();
        }
    };
    (@orphan_adoption $scheme:ty, yes) => {
        #[test]
        fn protection_blocks_reclamation() {
            conformance::protection_blocks_reclamation::<$scheme>();
        }

        #[test]
        fn orphan_adoption() {
            conformance::orphan_adoption_reclaims_exited_threads_blocks::<$scheme>(true);
        }

        #[test]
        fn handle_drop_order() {
            conformance::handle_drop_order::<$scheme>(true);
        }

        #[test]
        fn stats_are_exact_across_slot_reuse() {
            conformance::stats_are_exact_across_slot_reuse::<$scheme>(true);
        }
    };
    (@orphan_adoption $scheme:ty, no) => {
        #[test]
        fn orphans_wait_for_domain_drop() {
            conformance::orphan_adoption_reclaims_exited_threads_blocks::<$scheme>(false);
        }

        #[test]
        fn handle_drop_order() {
            conformance::handle_drop_order::<$scheme>(false);
        }

        #[test]
        fn stats_are_exact_across_slot_reuse() {
            conformance::stats_are_exact_across_slot_reuse::<$scheme>(false);
        }
    };
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use wfe_sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::{Ebr, He, Hp, Ibr2Ge, Leak, Reclaimer, Wfe};

    conformance_suite! {
        wfe: Wfe {
            name: "WFE",
            progress: WaitFree,
            unreclaimed_is_bounded: 4_000,
            stalled_reader_costs_passes_nothing: yes,
            orphan_adoption: yes,
            reserves: Slots,
            pass_leaves: 0..=1,
        }
        he: He {
            name: "HE",
            progress: LockFree,
            unreclaimed_is_bounded: 4_000,
            stalled_reader_costs_passes_nothing: yes,
            orphan_adoption: yes,
            reserves: Slots,
            pass_leaves: 0..=1,
        }
        hp: Hp {
            name: "HP",
            progress: LockFree,
            unreclaimed_is_bounded: 2_000,
            stalled_reader_costs_passes_nothing: no,
            orphan_adoption: yes,
            reserves: Slots,
            pass_leaves: 0..=0,
        }
        ebr: Ebr {
            name: "EBR",
            progress: Blocking,
            unreclaimed_is_bounded: no,
            stalled_reader_costs_passes_nothing: yes,
            orphan_adoption: yes,
            reserves: Brackets,
            pass_leaves: 0..=1,
        }
        ibr: Ibr2Ge {
            name: "2GEIBR",
            progress: LockFree,
            unreclaimed_is_bounded: no,
            stalled_reader_costs_passes_nothing: no,
            orphan_adoption: yes,
            reserves: Brackets,
            pass_leaves: 0..=1,
        }
        leak: Leak {
            name: "Leak",
            progress: None,
            unreclaimed_is_bounded: no,
            stalled_reader_costs_passes_nothing: no,
            orphan_adoption: no,
            reserves: Nothing,
            pass_leaves: 30..=30,
        }
    }

    #[test]
    fn drop_counter_counts() {
        let counter = Arc::new(AtomicUsize::new(0));
        drop(DropCounter::new(&counter));
        drop(DropCounter::new(&counter));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn mini_stack_is_lifo_single_threaded() {
        let domain = crate::He::new_default();
        let mut handle = domain.register();
        let stack = MiniStack::new();
        for i in 0..10 {
            stack.push(&mut handle, i, None);
        }
        for i in (0..10).rev() {
            assert_eq!(stack.pop(&mut handle), Some(i));
        }
        assert_eq!(stack.pop(&mut handle), None);
    }

    #[test]
    fn drain_frees_remaining_nodes() {
        let domain = crate::He::new_default();
        let mut handle = domain.register();
        let stack = MiniStack::new();
        for i in 0..5 {
            stack.push(&mut handle, i, None);
        }
        assert_eq!(stack.drain(), 5);
        assert_eq!(stack.pop(&mut handle), None);
    }
}
