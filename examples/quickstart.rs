//! Quickstart: a Treiber stack (the paper's Figure 2 example) shared by a few
//! threads, guarded by Wait-Free Eras.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use wfe_suite::{Atomic, DomainConfig, Handle, Reclaimer, TreiberStack, Wfe};

fn main() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 100_000;

    // One WFE domain guards the stack; every thread registers a handle.
    let domain = Wfe::with_config(DomainConfig::with_max_threads(THREADS));
    let stack = TreiberStack::<usize, Wfe>::new(Arc::clone(&domain));

    let popped: usize = std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for t in 0..THREADS {
            let stack = &stack;
            let domain = Arc::clone(&domain);
            workers.push(scope.spawn(move || {
                let mut handle = domain.register();
                let mut popped = 0;
                for i in 0..PER_THREAD {
                    stack.push(&mut handle, t * PER_THREAD + i);
                    if i % 2 == 0 && stack.pop(&mut handle).is_some() {
                        popped += 1;
                    }
                }
                popped
            }));
        }
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });

    // The same safe API the stack uses internally, on a raw shared location:
    // enter a Guard bracket, lease a Shield from it, read through the shield.
    let mut handle = domain.register();
    let node = handle.alloc(7u64);
    let root: Atomic<u64> = Atomic::new(node);
    {
        let guard = handle.enter();
        let mut shield = guard.shield::<u64>().expect("slots available");
        let value = shield.protect(&guard, &root, None);
        // SAFETY: `shield` does not re-protect while `value` is in use —
        // the one obligation the typed deref carries.
        let seen = unsafe { value.as_ref() };
        assert_eq!(seen, Some(&7), "one shield, one pointer");
    }
    root.store(core::ptr::null_mut(), std::sync::atomic::Ordering::SeqCst);
    {
        let guard = handle.enter();
        // SAFETY: `node` was just unlinked from `root`; retired exactly once.
        unsafe { wfe_suite::Protected::from_unlinked(node).retire_in(&guard) };
    }
    drop(handle);

    let stats = domain.stats();
    println!("pushed           : {}", THREADS * PER_THREAD);
    println!("popped           : {popped}");
    println!("blocks allocated : {}", stats.allocated);
    println!("blocks retired   : {}", stats.retired);
    println!("blocks freed     : {}", stats.freed);
    println!("still unreclaimed: {}", stats.unreclaimed);
    println!("WFE slow paths   : {}", stats.slow_path);
    println!("WFE helps        : {}", stats.helps);
    assert!(stats.freed <= stats.retired);
}
