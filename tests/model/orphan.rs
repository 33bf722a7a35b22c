//! Model test for handle teardown: a thread dying with retired-but-unfreed
//! blocks parks them on the domain's orphan stack, and a surviving thread's
//! cleanup adopts them. The race is orphan push (in the dying handle's drop)
//! against adoption (in the survivor's scan) — no interleaving may leak a
//! block or free one twice.

// wfe-analyze: allow(raw-atomic): model-test oracle state — deliberately a std
// atomic so the checker never schedules an interleaving point on bookkeeping.
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use wfe_reclaim::{DomainConfig, Handle, He, Protected, RawHandle, Reclaimer};

use crate::SCHEDULES;

struct DropCounter(Arc<AtomicUsize>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, SeqCst);
    }
}

#[test]
fn orphaned_batches_are_adopted_exactly_once() {
    const BLOCKS: usize = 2;
    shuttle::check_random(
        || {
            let domain = He::with_config(DomainConfig {
                cleanup_freq: 1,
                era_freq: 1,
                ..DomainConfig::with_max_threads(2)
            });
            let drops = Arc::new(AtomicUsize::new(0));

            // The dying thread: retire BLOCKS never-published blocks, then
            // drop the handle mid-race — whatever survived its own cleanups
            // goes to the orphan stack.
            let dying = {
                let domain = Arc::clone(&domain);
                let drops = Arc::clone(&drops);
                shuttle::thread::spawn(move || {
                    let mut handle = domain.register();
                    for _ in 0..BLOCKS {
                        let node = handle.alloc(DropCounter(Arc::clone(&drops)));
                        let guard = handle.enter();
                        // SAFETY: never published anywhere, so it counts as
                        // unlinked; retired exactly once.
                        unsafe { Protected::from_unlinked(node).retire_in(&guard) };
                    }
                })
            };

            // The survivor: scan concurrently, adopting whatever orphan
            // batches are parked at that moment of the schedule.
            let mut survivor = domain.register();
            for _ in 0..3 {
                survivor.force_cleanup();
                shuttle::thread::yield_now();
            }
            dying.join().unwrap();
            survivor.force_cleanup();

            assert_eq!(
                drops.load(SeqCst),
                BLOCKS,
                "every orphaned block must be freed exactly once"
            );
            let stats = domain.stats();
            assert_eq!(stats.unreclaimed, 0, "no block may leak across teardown");
            assert_eq!(stats.freed, BLOCKS as u64);
        },
        SCHEDULES,
    );
}
