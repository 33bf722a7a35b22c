//! The reservation tables on the portable striped-lock WCAS fallback.
//!
//! Its own test binary, i.e. its own process, for the reason
//! `crates/sync/tests/lock_fallback.rs` gives: the fallback is forced before
//! any pair is touched, because mixing native and lock-based operations on
//! one pair is not linearizable.

use wfe_reclaim::slots::PairSlotArray;
use wfe_sync::atomic::Ordering;
use wfe_sync::wcas_is_lock_free;

/// `slots::tests::pair_slots_hold_independent_pairs`' `fill_first` check,
/// with every pair operation taking its stripe lock.
#[test]
fn fill_first_on_the_fallback_leaves_tags_and_other_rows_untouched() {
    wfe_sync::force_lock_fallback_for_tests();
    assert!(!wcas_is_lock_free(), "the fallback is forced");
    let arr = PairSlotArray::new(3, 4, (u64::MAX, 0));
    let cells = || (0..3).flat_map(|t| (0..4).map(move |s| (t, s)));
    for (thread, slot) in cells() {
        let tag = 10 * thread as u64 + slot as u64;
        arr.get(thread, slot).store((100 + tag, tag));
    }
    arr.fill_first(1, 7, Ordering::Release);
    for (thread, slot) in cells() {
        let tag = 10 * thread as u64 + slot as u64;
        let era = if thread == 1 { 7 } else { 100 + tag };
        assert_eq!(
            arr.get(thread, slot).load(),
            (era, tag),
            "({thread}, {slot})"
        );
    }
}
