//! Forces WFE onto its slow path, the validation the paper describes in §5:
//! "We also tested our algorithm by forcing the slow path to be taken all the
//! time to validate that our implementation still works correctly under
//! stress conditions."
//!
//! The readers get a single fast-path attempt while dedicated "era bumper"
//! threads advance the era clock on every allocation, so a large fraction of
//! `get_protected()` calls must publish a help request and be completed by
//! the helping machinery inside `alloc_block()`/`retire()`.
//!
//! Run with `cargo run --release --example slow_path_stress`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use wfe_suite::{DomainConfig, Handle, MichaelList, Protected, Reclaimer, Wfe};

fn main() {
    const READERS: usize = 3;
    const BUMPERS: usize = 2;
    const OPS_PER_READER: u64 = 200_000;

    let domain = Wfe::with_config(DomainConfig {
        fast_path_attempts: 1, // force the slow path as aggressively as possible
        era_freq: 1,           // every allocation advances the era clock
        cleanup_freq: 8,
        ..DomainConfig::with_max_threads(READERS + BUMPERS)
    });
    let list = MichaelList::<u64, Wfe>::new(Arc::clone(&domain));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Hostile era bumpers: allocate and immediately retire blocks so the
        // global era never stays still.
        for _ in 0..BUMPERS {
            let domain = Arc::clone(&domain);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut handle = domain.register();
                while !stop.load(Ordering::Relaxed) {
                    let guard = handle.enter();
                    let block = guard.alloc(0u64);
                    // SAFETY: the block was never published, so it is
                    // trivially unlinked and retired exactly once.
                    unsafe { Protected::from_unlinked(block).retire_in(&guard) };
                }
            });
        }
        // Readers/writers hammering a shared list through get_protected().
        let readers: Vec<_> = (0..READERS as u64)
            .map(|t| {
                let domain = Arc::clone(&domain);
                let list = &list;
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 0..OPS_PER_READER {
                        let key = (t * OPS_PER_READER + i) % 512;
                        match i % 3 {
                            0 => {
                                list.insert(&mut handle, key, key);
                            }
                            1 => {
                                list.remove(&mut handle, key);
                            }
                            _ => {
                                list.get(&mut handle, key);
                            }
                        }
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let stats = domain.stats();
    println!("operations executed : {}", READERS as u64 * OPS_PER_READER);
    println!("blocks allocated    : {}", stats.allocated);
    println!("blocks retired      : {}", stats.retired);
    println!("blocks freed        : {}", stats.freed);
    println!("still unreclaimed   : {}", stats.unreclaimed);
    println!("slow-path cycles    : {}", stats.slow_path);
    println!("help_thread calls   : {}", stats.helps);
    assert!(
        stats.slow_path > 0,
        "the stress configuration must exercise the slow path"
    );
    println!("\nslow path exercised and all operations completed correctly");
}
