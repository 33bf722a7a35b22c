//! Every detector of the output oracle fires on a structure that is broken
//! in exactly the way it watches for — and stays silent on an honest one.
//!
//! The mocks are plain locked collections behind the suite's `ConcurrentMap`
//! / `ConcurrentQueue` traits, driven by the benchmark's own legs
//! (`map_leg`, `queue_leg`): the same worker loops, books, final sweep and
//! release check a real run goes through. `FAULT` selects the defect; a
//! defect strikes on every 100th call so most answers stay right.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wfe_benchmark::workload::{map_leg, queue_leg, spec, Leg, LegParams};
use wfe_suite::{ConcurrentMap, ConcurrentQueue, Handle, Leak, Reclaimer, Wfe};

const HONEST: u8 = 0;
/// `get` answers with a value that is not `key ^ SALT`.
const WRONG_VALUE: u8 = 1;
/// `insert` reports success and stores nothing.
const LOST_INSERT: u8 = 2;
/// `remove` reports success and removes nothing.
const PHANTOM_REMOVE: u8 = 3;
/// `dequeue` hands out the second element before the first.
const REORDER: u8 = 4;
/// `enqueue` drops the element.
const DROP: u8 = 5;
/// `dequeue` hands the same element out twice.
const DUPLICATE: u8 = 6;
/// `dequeue` claims the queue is empty.
const FALSE_EMPTY: u8 = 7;
/// The structure takes every registry slot for itself.
const HOG_REGISTRY: u8 = 8;
/// `remove` retires a block that nothing will ever free.
const NEVER_FREED: u8 = 9;

struct Strikes(AtomicU64);

impl Strikes {
    fn strike(&self, armed: bool) -> bool {
        armed && self.0.fetch_add(1, Ordering::Relaxed) % 100 == 99
    }
}

struct MockMap<const FAULT: u8> {
    entries: Mutex<HashMap<u64, u64>>,
    strikes: Strikes,
}

impl<const FAULT: u8, R: Reclaimer> ConcurrentMap<R> for MockMap<FAULT> {
    fn with_domain(domain: Arc<R>) -> Self {
        if FAULT == HOG_REGISTRY {
            while let Some(handle) = domain.try_register() {
                std::mem::forget(handle);
            }
        }
        Self {
            entries: Mutex::new(HashMap::new()),
            strikes: Strikes(AtomicU64::new(0)),
        }
    }

    fn insert(&self, _: &mut R::Handle, key: u64, value: u64) -> bool {
        if self.strikes.strike(FAULT == LOST_INSERT) {
            return !self.entries.lock().unwrap().contains_key(&key);
        }
        let mut entries = self.entries.lock().unwrap();
        if entries.contains_key(&key) {
            return false;
        }
        entries.insert(key, value);
        true
    }

    fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        if self.strikes.strike(FAULT == PHANTOM_REMOVE) {
            return self.entries.lock().unwrap().contains_key(&key);
        }
        if FAULT == NEVER_FREED {
            let block = handle.alloc(0u64);
            // SAFETY: never published, retired exactly once.
            unsafe { handle.retire(block) };
        }
        self.entries.lock().unwrap().remove(&key).is_some()
    }

    fn get(&self, _: &mut R::Handle, key: u64) -> Option<u64> {
        let value = self.entries.lock().unwrap().get(&key).copied()?;
        Some(value ^ self.strikes.strike(FAULT == WRONG_VALUE) as u64)
    }
}

struct MockQueue<const FAULT: u8> {
    elements: Mutex<VecDeque<u64>>,
    strikes: Strikes,
}

impl<const FAULT: u8> ConcurrentQueue<Leak> for MockQueue<FAULT> {
    fn with_domain(_: Arc<Leak>) -> Self {
        Self {
            elements: Mutex::new(VecDeque::new()),
            strikes: Strikes(AtomicU64::new(0)),
        }
    }

    fn enqueue(&self, _: &mut <Leak as Reclaimer>::Handle, value: u64) {
        if !self.strikes.strike(FAULT == DROP) {
            self.elements.lock().unwrap().push_back(value);
        }
    }

    fn dequeue(&self, _: &mut <Leak as Reclaimer>::Handle) -> Option<u64> {
        let mut elements = self.elements.lock().unwrap();
        if self.strikes.strike(FAULT == FALSE_EMPTY) {
            return None;
        }
        if self.strikes.strike(FAULT == REORDER) && elements.len() > 1 {
            return elements.remove(1);
        }
        if self.strikes.strike(FAULT == DUPLICATE) {
            return elements.front().copied();
        }
        elements.pop_front()
    }
}

/// The shortest leg there is: one warm-up and one measured segment.
fn params() -> LegParams {
    LegParams {
        seed: 42,
        seconds: 0.25,
        trace: false,
        repeat_setup: false,
        check_teardown: true,
    }
}

fn map_run<const FAULT: u8>(workload: &str) -> Leg {
    map_leg::<Wfe, MockMap<FAULT>>(spec(workload).unwrap(), &params(), Instant::now())
}

fn queue_run<const FAULT: u8>() -> Leg {
    queue_leg::<Leak, MockQueue<FAULT>>(spec("queue-pairs").unwrap(), &params(), Instant::now())
}

#[test]
fn honest_structures_pass() {
    for workload in [
        "map-write50",
        "list-read90",
        "kv-zipf-pool",
        "map-write50-stall",
    ] {
        let leg = map_run::<HONEST>(workload);
        assert!(
            leg.attempted > 1_000,
            "{workload} made {} calls",
            leg.attempted
        );
        assert_eq!(leg.failed, 0, "{workload}");
        assert_eq!(leg.teardown_unreclaimed, Some(0), "{workload}");
    }
    let leg = queue_run::<HONEST>();
    assert!(leg.attempted > 1_000);
    assert_eq!(leg.failed, 0);
}

#[test]
fn a_wrong_value_fails_the_get_that_saw_it() {
    let leg = map_run::<WRONG_VALUE>("list-read90");
    assert!(leg.failed > 0);
    // One `get` in a hundred lies, and only a lie about a present key shows.
    assert!(
        leg.failed < leg.attempted / 50,
        "{} of {}",
        leg.failed,
        leg.attempted
    );
}

#[test]
fn the_sweep_finds_lost_inserts_and_phantom_removes() {
    assert!(map_run::<LOST_INSERT>("map-write50").failed > 0);
    assert!(map_run::<PHANTOM_REMOVE>("map-write50").failed > 0);
    // The pooled, skewed workload goes through the same books.
    assert!(map_run::<LOST_INSERT>("kv-zipf-pool").failed > 0);
}

#[test]
fn the_queue_detectors_fire() {
    assert!(queue_run::<REORDER>().failed > 0, "per-producer order");
    assert!(
        queue_run::<DROP>().failed > 0,
        "enqueued = dequeued + drained"
    );
    assert!(
        queue_run::<DUPLICATE>().failed > 0,
        "an element handed out twice"
    );
    assert!(
        queue_run::<FALSE_EMPTY>().failed > 0,
        "None from a queue that cannot be empty"
    );
}

#[test]
fn a_refused_registration_or_checkout_is_a_failed_call() {
    // Unpooled: the workers' registrations are refused during set-up.
    let leg = map_run::<HOG_REGISTRY>("map-write50");
    assert!(leg.failed > 0);
    // Pooled: every check-out of the run is refused, so every call fails.
    let leg = map_run::<HOG_REGISTRY>("kv-zipf-pool");
    assert!(leg.attempted > 0);
    assert!(
        leg.failed >= leg.attempted,
        "{} of {}",
        leg.failed,
        leg.attempted
    );
}

#[test]
fn blocks_left_unreclaimed_after_release_fail_the_run() {
    // Leak never frees, so a structure that retires through it leaves blocks
    // behind once every handle is gone; under WFE the same structure is clean.
    let leaky = map_leg::<Leak, MockMap<NEVER_FREED>>(
        spec("map-write50").unwrap(),
        &params(),
        Instant::now(),
    );
    assert!(leaky.teardown_unreclaimed.unwrap() > 0);
    assert!(leaky.failed > 0);
    let clean = map_run::<NEVER_FREED>("map-write50-stall");
    assert_eq!(
        clean.teardown_unreclaimed,
        Some(0),
        "the stall is released before the check"
    );
    assert_eq!(clean.failed, 0);
}
