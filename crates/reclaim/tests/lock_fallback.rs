//! WFE on the portable striped-lock WCAS fallback.
//!
//! Its own test binary, i.e. its own process, for the reason
//! `crates/sync/tests/lock_fallback.rs` gives: the fallback is forced before
//! any pair is touched, because mixing native and lock-based operations on
//! one pair is not linearizable.

use std::ptr;

use wfe_reclaim::{Atomic, DomainConfig, Handle, RawHandle, Reclaimer, Wfe};
use wfe_sync::atomic::Ordering;
use wfe_sync::wcas_is_lock_free;

/// `clear` withdraws every `(era, tag)` reservation of its own row with one
/// stripe lock per pair, and touches no other row: a block two readers
/// protect in every slot survives the first reader's `clear` and is freed
/// after the second's. (That the tag words survive is the sync layer's
/// `fallback_store_first_all_leaves_the_second_words`.)
#[test]
fn clear_on_the_fallback_withdraws_its_own_row_and_no_other() {
    wfe_sync::force_lock_fallback_for_tests();
    assert!(!wcas_is_lock_free(), "the fallback is forced");
    const SLOTS: usize = 4;
    let domain = Wfe::with_config(DomainConfig {
        slots_per_thread: SLOTS,
        cleanup_freq: 1,
        era_freq: 1,
        ..DomainConfig::with_max_threads(3)
    });
    let mut writer = domain.register();
    let mut readers = [domain.register(), domain.register()];
    let node = writer.alloc(7u64);
    let root: Atomic<u64> = Atomic::new(node);
    for reader in &mut readers {
        for slot in 0..SLOTS {
            assert_eq!(reader.protect(&root, slot, ptr::null_mut()), node);
        }
    }
    root.store(ptr::null_mut(), Ordering::SeqCst);
    // SAFETY: just unlinked from its only root; retired exactly once.
    unsafe { writer.retire(node) };
    writer.force_cleanup();
    assert_eq!(domain.stats().unreclaimed, 1, "both rows protect the block");

    readers[0].clear();
    writer.force_cleanup();
    assert_eq!(
        domain.stats().unreclaimed,
        1,
        "the other row still protects it"
    );

    readers[1].clear();
    writer.force_cleanup();
    assert_eq!(domain.stats().unreclaimed, 0, "no row protects it");
}
