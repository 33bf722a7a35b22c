//! Cross-crate integration tests: every data structure under every
//! reclamation scheme, exercised through the public `wfe-suite` API.

use std::sync::Arc;
use wfe_sync::atomic::{AtomicU64, Ordering};

use wfe_suite::{
    Atomic, ConcurrentMap, ConcurrentQueue, CrTurnQueue, DomainConfig, Ebr, Handle, HandlePool, He,
    Hp, Ibr2Ge, KoganPetrankQueue, Leak, MichaelHashMap, MichaelList, MichaelScottQueue,
    NatarajanBst, Progress, RawHandle, Reclaimer, TreiberStack, Wfe,
};

/// The per-run seed feeding every randomized workload below:
/// `WFE_STRESS_SEED` pins it, otherwise it derives from the clock so
/// successive runs explore different workloads.
fn run_seed() -> u64 {
    use std::sync::OnceLock;
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        std::env::var("WFE_STRESS_SEED")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_nanos() as u64)
                    .unwrap_or(0)
                    | 1
            })
    })
}

/// Holds the run seed for one test body and, if that body panics, prints the
/// seed on the way out — so a flaky stress failure is replayable with
/// `WFE_STRESS_SEED=<seed>` instead of lost to the next scheduler roll.
struct ReplayableSeed(u64);

impl ReplayableSeed {
    fn for_this_test() -> Self {
        Self(run_seed())
    }

    /// The seed for `thread`'s workload stream (odd, so xorshift never
    /// degenerates to zero).
    fn stream(&self, thread: u64) -> u64 {
        ((thread + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.0) | 1
    }
}

impl Drop for ReplayableSeed {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "randomized workload failed; replay it with WFE_STRESS_SEED={}",
                self.0
            );
        }
    }
}

/// Exercises one map type under one scheme with a small concurrent workload
/// and then checks the final contents sequentially.
fn exercise_map<R: Reclaimer, M: ConcurrentMap<R>>() {
    const THREADS: usize = 4;
    const OPS: u64 = 3_000;
    const KEY_RANGE: u64 = 64;

    let seed = ReplayableSeed::for_this_test();
    let domain = R::with_config(DomainConfig {
        cleanup_freq: 8,
        era_freq: 16,
        ..DomainConfig::with_max_threads(THREADS)
    });
    let map = M::with_domain(Arc::clone(&domain));
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let map = &map;
            let domain = Arc::clone(&domain);
            let mut x = seed.stream(t);
            scope.spawn(move || {
                let mut handle = domain.register();
                for _ in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEY_RANGE;
                    match x % 3 {
                        0 => {
                            map.insert(&mut handle, key, key + 1);
                        }
                        1 => {
                            map.remove(&mut handle, key);
                        }
                        _ => {
                            if let Some(v) = map.get(&mut handle, key) {
                                assert_eq!(v, key + 1, "value integrity");
                            }
                        }
                    }
                }
            });
        }
    });

    // Sequential sanity sweep: whatever survived behaves like a set.
    let mut handle = domain.register();
    for key in 0..KEY_RANGE {
        let present = map.get(&mut handle, key).is_some();
        assert_eq!(map.remove(&mut handle, key), present);
        assert_eq!(map.get(&mut handle, key), None);
        assert!(map.insert(&mut handle, key, key + 1));
        assert_eq!(map.get(&mut handle, key), Some(key + 1));
    }
    let stats = domain.stats();
    assert!(stats.freed <= stats.retired);
}

/// Exercises one queue type under one scheme and checks element conservation.
fn exercise_queue<R: Reclaimer, Q: ConcurrentQueue<R>>() {
    const THREADS: usize = 4;
    const PER_THREAD: u64 = 2_000;

    let domain = R::with_config(DomainConfig {
        cleanup_freq: 8,
        era_freq: 16,
        ..DomainConfig::with_max_threads(THREADS + 1)
    });
    let queue = Q::with_domain(Arc::clone(&domain));
    let consumed_sum = AtomicU64::new(0);
    let consumed_count = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS as u64 {
            let queue = &queue;
            let domain = Arc::clone(&domain);
            let consumed_sum = &consumed_sum;
            let consumed_count = &consumed_count;
            scope.spawn(move || {
                let mut handle = domain.register();
                for i in 1..=PER_THREAD {
                    queue.enqueue(&mut handle, t * PER_THREAD + i);
                    if i % 2 == 0 {
                        if let Some(v) = queue.dequeue(&mut handle) {
                            consumed_sum.fetch_add(v, Ordering::Relaxed);
                            consumed_count.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let mut handle = domain.register();
    while let Some(v) = queue.dequeue(&mut handle) {
        consumed_sum.fetch_add(v, Ordering::Relaxed);
        consumed_count.fetch_add(1, Ordering::Relaxed);
    }
    let expected: u64 = (0..THREADS as u64)
        .flat_map(|t| (1..=PER_THREAD).map(move |i| t * PER_THREAD + i))
        .sum();
    assert_eq!(
        consumed_count.load(Ordering::Relaxed),
        THREADS as u64 * PER_THREAD
    );
    assert_eq!(consumed_sum.load(Ordering::Relaxed), expected);
}

macro_rules! map_matrix {
    ($($test:ident: $scheme:ty, $map:ident;)*) => {
        $(
            #[test]
            fn $test() {
                exercise_map::<$scheme, $map<u64, $scheme>>();
            }
        )*
    };
}

map_matrix! {
    list_under_wfe: Wfe, MichaelList;
    list_under_he: He, MichaelList;
    list_under_hp: Hp, MichaelList;
    list_under_ebr: Ebr, MichaelList;
    list_under_ibr: Ibr2Ge, MichaelList;
    list_under_leak: Leak, MichaelList;
    hashmap_under_wfe: Wfe, MichaelHashMap;
    hashmap_under_he: He, MichaelHashMap;
    hashmap_under_hp: Hp, MichaelHashMap;
    hashmap_under_ebr: Ebr, MichaelHashMap;
    hashmap_under_ibr: Ibr2Ge, MichaelHashMap;
    hashmap_under_leak: Leak, MichaelHashMap;
    bst_under_wfe: Wfe, NatarajanBst;
    bst_under_he: He, NatarajanBst;
    bst_under_hp: Hp, NatarajanBst;
    bst_under_ebr: Ebr, NatarajanBst;
    bst_under_ibr: Ibr2Ge, NatarajanBst;
    bst_under_leak: Leak, NatarajanBst;
}

macro_rules! queue_matrix {
    ($($test:ident: $scheme:ty, $queue:ident;)*) => {
        $(
            #[test]
            fn $test() {
                exercise_queue::<$scheme, $queue<u64, $scheme>>();
            }
        )*
    };
}

queue_matrix! {
    kp_queue_under_wfe: Wfe, KoganPetrankQueue;
    kp_queue_under_he: He, KoganPetrankQueue;
    kp_queue_under_hp: Hp, KoganPetrankQueue;
    kp_queue_under_ebr: Ebr, KoganPetrankQueue;
    kp_queue_under_ibr: Ibr2Ge, KoganPetrankQueue;
    crturn_queue_under_wfe: Wfe, CrTurnQueue;
    crturn_queue_under_he: He, CrTurnQueue;
    crturn_queue_under_hp: Hp, CrTurnQueue;
    crturn_queue_under_ebr: Ebr, CrTurnQueue;
    crturn_queue_under_ibr: Ibr2Ge, CrTurnQueue;
    crturn_queue_under_leak: Leak, CrTurnQueue;
    ms_queue_under_wfe: Wfe, MichaelScottQueue;
    ms_queue_under_he: He, MichaelScottQueue;
    ms_queue_under_hp: Hp, MichaelScottQueue;
    ms_queue_under_ebr: Ebr, MichaelScottQueue;
    ms_queue_under_ibr: Ibr2Ge, MichaelScottQueue;
}

/// More threads than cores in enqueue + dequeue pairs on a queue that stays a
/// few elements long: a thread is regularly preempted between protecting the
/// tail and protecting the tail's successor, and by the time it runs again
/// that successor has been dequeued, retired and — descriptors and nodes
/// share a size class — recycled as a descriptor. `help_finish_enq` used to
/// read `enq_tid` out of that memory before re-validating the tail: an
/// index-out-of-bounds panic in 9 release runs of 9 (after 0.2 to 14 s; one
/// run in four of this 3-second test) at the commit before the fix, none in
/// 6 × 20 s after it. Probabilistic, and a debug build is ten times slower:
/// what always holds is conservation.
#[test]
fn kp_queue_oversubscribed_pairs_on_a_short_queue() {
    const THREADS: u64 = 6;
    let budget = std::time::Duration::from_secs(3);
    let domain = Wfe::with_config(DomainConfig::with_max_threads(THREADS as usize + 1));
    let queue = KoganPetrankQueue::<u64, Wfe>::new(Arc::clone(&domain));
    // Per thread, (elements, their sum) enqueued minus dequeued, wrapping.
    let balances: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (queue, domain) = (&queue, &domain);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    let (mut sent, mut balance) = (0u64, (0u64, 0u64));
                    let began = std::time::Instant::now();
                    while began.elapsed() < budget {
                        for _ in 0..256 {
                            let value = (t << 40) | sent;
                            sent += 1;
                            queue.enqueue(&mut handle, value);
                            balance = (balance.0 + 1, balance.1.wrapping_add(value));
                            if let Some(value) = queue.dequeue(&mut handle) {
                                balance = (balance.0 - 1, balance.1.wrapping_sub(value));
                            }
                        }
                    }
                    balance
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("a worker panicked"))
            .collect()
    });
    let mut left = balances.iter().fold((0u64, 0u64), |sum, balance| {
        (sum.0.wrapping_add(balance.0), sum.1.wrapping_add(balance.1))
    });
    let mut handle = domain.register();
    while let Some(value) = queue.dequeue(&mut handle) {
        left = (left.0.wrapping_sub(1), left.1.wrapping_sub(value));
    }
    assert_eq!(left, (0, 0), "every element enqueued came out exactly once");
}

#[test]
fn crturn_helping_completes_operations_of_a_stalled_thread() {
    // The observable wait-free property: one thread stalls mid-operation
    // (after publishing its request, before doing any helping) and the other
    // threads still complete a fixed number of enqueues and dequeues — their
    // progress cannot depend on the stalled thread resuming. The stalled
    // requests themselves are finished *by the helpers*.
    const WORKERS: usize = 3;
    const PER_WORKER: u64 = 2_000;
    const STALLED_VALUE: u64 = u64::MAX;

    let domain = Wfe::with_config(DomainConfig {
        cleanup_freq: 8,
        era_freq: 16,
        ..DomainConfig::with_max_threads(WORKERS + 1)
    });
    let queue = CrTurnQueue::<u64, Wfe>::new(Arc::clone(&domain));
    let mut stalled = domain.register();

    // The stalled thread opens an enqueue request and never helps anyone.
    queue.stall_enqueue_publish(&mut stalled, STALLED_VALUE);

    let consumed_count = AtomicU64::new(0);
    let stalled_value_seen = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..WORKERS as u64 {
            let queue = &queue;
            let domain = Arc::clone(&domain);
            let consumed_count = &consumed_count;
            let stalled_value_seen = &stalled_value_seen;
            scope.spawn(move || {
                let mut handle = domain.register();
                for i in 1..=PER_WORKER {
                    // Every worker operation completes in bounded steps even
                    // though one registered thread never moves again.
                    queue.enqueue(&mut handle, t * PER_WORKER + i);
                    if let Some(v) = queue.dequeue(&mut handle) {
                        consumed_count.fetch_add(1, Ordering::Relaxed);
                        if v == STALLED_VALUE {
                            stalled_value_seen.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // Drain: everything the workers enqueued plus the stalled thread's
    // element (appended by helpers) must come out exactly once.
    let mut handle = domain.register();
    let mut drained = 0u64;
    while let Some(v) = queue.dequeue(&mut handle) {
        drained += 1;
        if v == STALLED_VALUE {
            stalled_value_seen.fetch_add(1, Ordering::Relaxed);
        }
    }
    assert_eq!(
        consumed_count.load(Ordering::Relaxed) + drained,
        WORKERS as u64 * PER_WORKER + 1,
        "all worker elements plus the stalled element were consumed"
    );
    assert_eq!(
        stalled_value_seen.load(Ordering::Relaxed),
        1,
        "helpers appended the stalled thread's element exactly once"
    );
}

#[test]
fn crturn_helping_grants_a_stalled_dequeue_under_contention() {
    // Same property on the dequeue side: a thread opens a dequeue request
    // and stalls; concurrent dequeuers grant it a node in turn order while
    // completing their own operations.
    const WORKERS: usize = 2;
    const PER_WORKER: u64 = 1_000;

    let domain = Wfe::with_config(DomainConfig::with_max_threads(WORKERS + 1));
    let queue = CrTurnQueue::<u64, Wfe>::new(Arc::clone(&domain));
    let mut stalled = domain.register();
    let mut total = 0u64;
    {
        let mut handle = domain.register();
        for i in 1..=(WORKERS as u64 * PER_WORKER + 1) {
            queue.enqueue(&mut handle, i);
            total += i;
        }
    }

    let ticket = queue.stall_dequeue_publish(&mut stalled);
    let consumed_sum = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            let queue = &queue;
            let domain = Arc::clone(&domain);
            let consumed_sum = &consumed_sum;
            scope.spawn(move || {
                let mut handle = domain.register();
                for _ in 0..PER_WORKER {
                    let v = queue
                        .dequeue(&mut handle)
                        .expect("enough elements were prefilled");
                    consumed_sum.fetch_add(v, Ordering::Relaxed);
                }
            });
        }
    });

    // The workers' dequeues served the stalled request's turn long ago; the
    // resumed operation just picks up the granted node.
    let granted = queue
        .resume_dequeue(&mut stalled, ticket)
        .expect("helpers granted the stalled request");
    assert_eq!(consumed_sum.load(Ordering::Relaxed) + granted, total);
    assert_eq!(queue.dequeue(&mut stalled), None, "queue fully drained");
}

/// Structures assert at construction (in debug builds) that the domain has
/// at least `required_slots()` reservation slots per thread — catching the
/// misconfiguration at the constructor instead of as a reservation-index
/// panic (or worse, a silent protection failure) deep inside an operation.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "reservation slots per thread")]
fn underprovisioned_domain_is_rejected_at_construction() {
    let domain = Wfe::with_config(DomainConfig {
        slots_per_thread: 2,
        ..DomainConfig::with_max_threads(2)
    });
    // The BST needs 4 slots; a 2-slot domain must be refused.
    let _ = NatarajanBst::<u64, Wfe>::new(domain);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "CrTurnQueue needs 3 reservation slots")]
fn underprovisioned_domain_is_rejected_by_crturn() {
    let domain = Wfe::with_config(DomainConfig {
        slots_per_thread: 2,
        ..DomainConfig::with_max_threads(2)
    });
    let _ = CrTurnQueue::<u64, Wfe>::new(domain);
}

#[test]
fn progress_guarantees_are_reported_correctly() {
    assert_eq!(Wfe::progress(), Progress::WaitFree);
    assert_eq!(He::progress(), Progress::LockFree);
    assert_eq!(Hp::progress(), Progress::LockFree);
    assert_eq!(Ibr2Ge::progress(), Progress::LockFree);
    assert_eq!(Ebr::progress(), Progress::Blocking);
    assert_eq!(Leak::progress(), Progress::None);
}

#[test]
fn stack_shared_between_structures_of_one_domain() {
    // A single domain can guard multiple data structures at once.
    let domain = Wfe::with_config(DomainConfig::with_max_threads(4));
    let stack = TreiberStack::<u64, Wfe>::new(Arc::clone(&domain));
    let list = MichaelList::<u64, Wfe>::new(Arc::clone(&domain));
    let mut handle = domain.register();
    for i in 0..100 {
        stack.push(&mut handle, i);
        list.insert(&mut handle, i, i);
    }
    for i in (0..100).rev() {
        assert_eq!(stack.pop(&mut handle), Some(i));
        assert!(list.remove(&mut handle, i));
    }
    assert!(stack.is_empty());
}

#[test]
fn wfe_under_forced_slow_path_keeps_structures_correct() {
    // End-to-end version of the paper's "force the slow path" validation.
    let domain = Wfe::with_config(DomainConfig {
        fast_path_attempts: 1,
        era_freq: 1,
        cleanup_freq: 4,
        ..DomainConfig::with_max_threads(4)
    });
    let map = MichaelHashMap::<u64, Wfe>::with_buckets(Arc::clone(&domain), 64);
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let map = &map;
            let domain = Arc::clone(&domain);
            scope.spawn(move || {
                let mut handle = domain.register();
                for i in 0..3_000u64 {
                    let key = (t * 3_000 + i) % 256;
                    if i % 2 == 0 {
                        map.insert(&mut handle, key, key);
                    } else {
                        map.remove(&mut handle, key);
                    }
                }
            });
        }
    });
    let stats = domain.stats();
    assert!(stats.freed <= stats.retired);
    // With one fast-path attempt and constant era movement the slow path must
    // have been taken at least once across four threads.
    assert!(stats.slow_path > 0, "slow path exercised: {stats:?}");
}

/// Scan-bound correctness: a reservation in the *highest* registered row —
/// the last row below the registry's high-water mark, with a released row
/// between it and the scanning thread's — pins a block that the thread in
/// row 0 unlinks, retires and scans.
fn exercise_highest_row_protection<R: Reclaimer>() {
    use std::sync::mpsc;

    let domain = R::with_config(DomainConfig {
        // Scans only when forced, so the pin is observable deterministically.
        cleanup_freq: usize::MAX,
        ..DomainConfig::with_max_threads(8)
    });

    let mut writer = domain.register();
    let hole = domain.register();
    assert_eq!((writer.thread_id(), hole.thread_id()), (0, 1));
    let node = writer.alloc(42u64);
    let root: Atomic<u64> = Atomic::new(node);

    let (protected_tx, protected_rx) = mpsc::channel::<usize>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (done_tx, done_rx) = mpsc::channel::<()>();

    std::thread::scope(|scope| {
        {
            let domain = Arc::clone(&domain);
            let root = &root;
            scope.spawn(move || {
                let mut reader = domain.register();
                let mut shield = reader.shield::<u64>().expect("slots available");
                let tid = reader.thread_id();
                {
                    let guard = reader.enter();
                    let seen = shield.protect(&guard, root, None);
                    protected_tx.send(tid).unwrap();
                    assert!(!seen.is_null());
                    release_rx.recv().unwrap();
                } // guard drop withdraws the reservation
                drop(shield);
                drop(reader);
                done_tx.send(()).unwrap();
            });
        }

        let reader_tid = protected_rx.recv().unwrap();
        // Release the row between the two: the scan walks past an empty row
        // to reach the reader's.
        drop(hole);
        let registry = domain.registry();
        assert_eq!(reader_tid, 2, "first fit lands the reader above the hole");
        assert_eq!(
            registry.high_water() - 1,
            reader_tid,
            "the reader's is the top row"
        );
        assert_eq!(registry.registered(), 2);

        // Unlink and retire while the top-row reservation is live: the
        // writer's scan must reach the reader's row and keep the block.
        root.store(core::ptr::null_mut(), Ordering::SeqCst);
        // SAFETY: `node` was unlinked from `root` above and retired once.
        unsafe { writer.retire(node) };
        writer.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            1,
            "a reservation in the highest row pins the block"
        );

        // Withdraw the reservation; the next scan may free the block.
        release_tx.send(()).unwrap();
        done_rx.recv().unwrap();
        writer.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            0,
            "block freed once the top-row reservation is withdrawn"
        );
    });
}

macro_rules! highest_row_matrix {
    ($($test:ident: $scheme:ty;)*) => {
        $(
            #[test]
            fn $test() {
                exercise_highest_row_protection::<$scheme>();
            }
        )*
    };
}

// The test names predate the dense registry (its rows were once split into
// shards); what each checks is `exercise_highest_row_protection`.
highest_row_matrix! {
    cross_shard_protection_under_wfe: Wfe;
    cross_shard_protection_under_he: He;
    cross_shard_protection_under_hp: Hp;
    cross_shard_protection_under_ebr: Ebr;
    cross_shard_protection_under_ibr: Ibr2Ge;
}

#[test]
fn pooled_handles_serve_a_task_churn_workload_across_threads() {
    // The executor pattern end to end: workers check handles out of a shared
    // pool per short task; the map stays consistent, the pool absorbs the
    // churn and the registry never exceeds the worker count.
    const WORKERS: usize = 4;
    const TASKS: usize = 300;
    const OPS_PER_TASK: u64 = 16;

    let domain = Wfe::with_config(DomainConfig {
        cleanup_freq: 8,
        era_freq: 16,
        ..DomainConfig::with_max_threads(WORKERS)
    });
    let map = MichaelHashMap::<u64, Wfe>::with_domain(Arc::clone(&domain));
    let pool = HandlePool::new(Arc::clone(&domain));

    let seed = ReplayableSeed::for_this_test();
    std::thread::scope(|scope| {
        for t in 0..WORKERS as u64 {
            let map = &map;
            let pool = Arc::clone(&pool);
            let mut x = seed.stream(t);
            scope.spawn(move || {
                for _ in 0..TASKS {
                    let mut handle = loop {
                        match pool.check_out() {
                            Some(handle) => break handle,
                            None => std::thread::yield_now(),
                        }
                    };
                    for _ in 0..OPS_PER_TASK {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = x % 128;
                        match x % 3 {
                            0 => {
                                map.insert(&mut handle, key, key + 1);
                            }
                            1 => {
                                map.remove(&mut handle, key);
                            }
                            _ => {
                                if let Some(v) = map.get(&mut handle, key) {
                                    assert_eq!(v, key + 1, "value integrity");
                                }
                            }
                        }
                    }
                }
            });
        }
    });

    let stats = pool.stats();
    assert_eq!(stats.checkouts, (WORKERS * TASKS) as u64);
    assert!(
        stats.hits > stats.checkouts / 2,
        "steady-state churn is served from the pool: {stats:?}"
    );
    assert!(domain.registry().registered() <= WORKERS);
    drop(pool);
    assert_eq!(domain.registry().registered(), 0);
    let smr = domain.stats();
    assert!(smr.freed <= smr.retired);
}

/// A pooled handle that panics inside a live bracket, with a block
/// protected: unwinding closes the bracket and parks the handle, and the
/// block is reclaimed once its owner retires it. EBR is the scheme an
/// unclosed bracket would pin for good.
fn panic_through_a_live_bracket_pins_nothing<R: Reclaimer>() {
    let domain = R::with_config(DomainConfig::with_max_threads(4));
    let pool = HandlePool::new(Arc::clone(&domain));
    let mut owner = domain.register();
    let node = owner.alloc(5u64);
    let root = Atomic::new(node);

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut handle = pool.check_out().expect("the registry has room");
        handle.with_guard(|guard| {
            let mut shield = guard.shield::<u64>().unwrap();
            let value = shield.protect(&guard, &root, None);
            // SAFETY: `shield` does not re-protect while `value` is live.
            assert_eq!(unsafe { value.as_ref() }, Some(&5));
            panic!("unwinding through a live bracket");
        })
    }));
    assert!(unwound.is_err());
    assert_eq!(pool.stats().parked, 1, "the unwound handle parked");

    root.store(core::ptr::null_mut(), Ordering::SeqCst);
    // SAFETY: just unlinked from its only root; retired exactly once.
    unsafe { owner.retire(node) };
    owner.force_cleanup();
    assert_eq!(
        domain.stats().unreclaimed,
        0,
        "the unwound bracket pins nothing"
    );
}

#[test]
fn panic_through_a_live_bracket_pins_nothing_under_wfe() {
    panic_through_a_live_bracket_pins_nothing::<Wfe>();
}

#[test]
fn panic_through_a_live_bracket_pins_nothing_under_ebr() {
    panic_through_a_live_bracket_pins_nothing::<Ebr>();
}
