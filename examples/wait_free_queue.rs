//! The headline scenario of the paper: a wait-free queue with fully
//! wait-free memory reclamation — wait-free *end to end*.
//!
//! The Ramalhete-Correia CRTurn queue completes every operation in a bounded
//! number of steps, but that guarantee used to stop at the memory manager:
//! with lock-free reclamation (e.g. Hazard Pointers) a single stalled thread
//! can delay `retire` scans indefinitely. Pairing CRTurn with WFE closes the
//! gap — every queue operation *and* every reclamation operation is bounded.
//!
//! This example runs the same producer/consumer workload over three
//! pairings: CRTurn+WFE (wait-free end to end), CRTurn+HP (wait-free queue,
//! lock-free reclamation) and Kogan-Petrank+WFE (the paper's other wait-free
//! queue) for comparison.
//!
//! Run with `cargo run --release --example wait_free_queue`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wfe_suite::{ConcurrentQueue, CrTurnQueue, Hp, KoganPetrankQueue, Reclaimer, Wfe};

const PRODUCERS: usize = 2;
const CONSUMERS: usize = 2;
const PER_PRODUCER: u64 = 50_000;

fn run<R: Reclaimer, Q: ConcurrentQueue<R>>(label: &str) {
    let domain = R::with_config(wfe_suite::DomainConfig::with_max_threads(
        PRODUCERS + CONSUMERS + 1,
    ));
    let queue = Q::with_domain(Arc::clone(&domain));
    let consumed = AtomicU64::new(0);
    let start = Instant::now();

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS as u64 {
            let queue = &queue;
            let domain = Arc::clone(&domain);
            scope.spawn(move || {
                let mut handle = domain.register();
                for i in 0..PER_PRODUCER {
                    queue.enqueue(&mut handle, p * PER_PRODUCER + i);
                }
            });
        }
        for _ in 0..CONSUMERS {
            let queue = &queue;
            let domain = Arc::clone(&domain);
            let consumed = &consumed;
            scope.spawn(move || {
                let mut handle = domain.register();
                let target = (PRODUCERS as u64 * PER_PRODUCER) / CONSUMERS as u64;
                let mut got = 0;
                while got < target {
                    if queue.dequeue(&mut handle).is_some() {
                        got += 1;
                        consumed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let elapsed = start.elapsed();
    let stats = domain.stats();
    println!("--- {label} ---");
    println!("progress guarantee of reclamation: {:?}", R::progress());
    println!("elements consumed : {}", consumed.load(Ordering::Relaxed));
    println!("elapsed           : {elapsed:?}");
    println!("blocks allocated  : {}", stats.allocated);
    println!("blocks retired    : {}", stats.retired);
    println!("blocks freed      : {}", stats.freed);
    println!("still unreclaimed : {}", stats.unreclaimed);
    println!("slow paths / helps: {} / {}", stats.slow_path, stats.helps);
    println!();
}

fn main() {
    run::<Wfe, CrTurnQueue<u64, Wfe>>("CRTurn queue + WFE (wait-free end to end)");
    run::<Hp, CrTurnQueue<u64, Hp>>("CRTurn queue + Hazard Pointers (lock-free reclamation)");
    run::<Wfe, KoganPetrankQueue<u64, Wfe>>("Kogan-Petrank queue + WFE (wait-free end to end)");
}
