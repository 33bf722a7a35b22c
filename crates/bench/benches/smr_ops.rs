//! Criterion micro-benchmarks of the raw reclamation operations.
//!
//! These complement the figure runs: they measure the per-call cost of the
//! three hot operations every data structure pays for — `get_protected`
//! (traversal, through the safe `Shield::protect` the structures use),
//! `alloc_block` + `retire` (update) — for each scheme, which is the
//! constant-factor difference the paper attributes the HP slowdown and the
//! small WFE-vs-HE gap to (§5, linked-list discussion). The `guard_overhead`
//! group measures the safe layer itself against the raw SPI sequence, so the
//! zero-cost claim of the guard API is checked, not assumed. The
//! `cleanup_pass` group is the batch-scan rung: one pass over a batch a
//! stalled reader pins (`pinned`), and the pass right after the reader leaves
//! (`released`). `alloc_retire_contended` is the update pair with a second
//! thread in the same loop — whatever `alloc`/`retire` write outside their
//! own thread's cache lines shows there and nowhere else — and
//! `block_cache/spill_refill` one magazine → shard → magazine round trip.
//! `queue_pair_contended` and `resizable_get_contended` are the same idea one
//! rung up, between "one data-structure operation" and the end-to-end mix: a
//! structure operation with a second thread writing the structure's shared
//! roots, so what the roots' layout costs shows there and nowhere else.

use std::cell::RefCell;
use std::ptr;
use std::sync::Arc;
use wfe_sync::atomic::{AtomicBool, Ordering};

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use wfe_core::Wfe;
use wfe_ds::{
    ConcurrentQueue, CrTurnQueue, KoganPetrankQueue, MichaelScottQueue, ResizableHashMap,
};
use wfe_reclaim::{
    slab, Atomic, BlockCacheConfig, BlockCaches, Ebr, Handle, HandlePool, He, Hp, Ibr2Ge, Leak,
    LocalBlockCache, RawHandle, Reclaimer, ReclaimerConfig, SizeClass,
};

/// A config with the per-shard block cache pinned to `enabled`, so the
/// `alloc_retire` rows stay comparable to pre-cache baselines regardless of
/// the `WFE_BLOCK_CACHE` environment.
fn config_with_cache(enabled: bool) -> ReclaimerConfig {
    ReclaimerConfig {
        block_cache: BlockCacheConfig {
            enabled,
            ..BlockCacheConfig::default()
        },
        ..ReclaimerConfig::with_max_threads(4)
    }
}

/// Runs `foreground` on this thread while a second thread repeats the step
/// `background()` builds (on that thread, so it can register its own
/// handle) until `foreground` returns — or unwinds: the flag is raised on
/// the way out either way, so a panicking rung fails instead of hanging.
fn with_background<S: FnMut()>(background: impl FnOnce() -> S + Send, foreground: impl FnOnce()) {
    struct RaiseOnDrop<'a>(&'a AtomicBool);
    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed); // ORDER: benchmark control flag; no data is ordered by it.
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut step = background();
            // ORDER: benchmark control flag; no data is ordered by it.
            while !stop.load(Ordering::Relaxed) {
                step();
            }
        });
        let _raise = RaiseOnDrop(&stop);
        foreground();
    });
}

fn bench_protect<R: Reclaimer>(c: &mut Criterion, name: &str) {
    let domain = R::with_config(ReclaimerConfig::with_max_threads(4));
    let mut handle = domain.register();
    let mut shield = handle.shield::<u64>().expect("slots available");
    let node = handle.alloc(42u64);
    let root: Atomic<u64> = Atomic::new(node);
    c.bench_with_input(
        BenchmarkId::new("get_protected", name),
        &(),
        |bencher, _| {
            bencher.iter(|| {
                let guard = handle.enter();
                let ptr = shield.protect(&guard, &root, None);
                std::hint::black_box(ptr.as_raw())
            })
        },
    );
    drop(shield);
    // SAFETY: bench-owned block, never published for retirement; freed once.
    unsafe { wfe_reclaim::Linked::dealloc(node) };
}

fn bench_alloc_retire<R: Reclaimer>(c: &mut Criterion, name: &str) {
    // Cache off: every free goes back to the global allocator and every
    // alloc comes from it — the pre-cache baseline of the update path.
    let domain = R::with_config(config_with_cache(false));
    let mut handle = domain.register();
    c.bench_with_input(BenchmarkId::new("alloc_retire", name), &(), |bencher, _| {
        bencher.iter(|| {
            let node = handle.alloc(7u64);
            // SAFETY: block just allocated by this handle, never published —
            // this is its only retire.
            unsafe { handle.retire(std::hint::black_box(node)) };
        })
    });
}

fn bench_alloc_retire_cached<R: Reclaimer>(c: &mut Criterion, name: &str) {
    // Same loop with the per-shard block cache on: cleanup passes free
    // retired blocks into the home shard's size-class freelist and the next
    // alloc pops them back out, so the steady state recycles memory without
    // touching the global allocator.
    let domain = R::with_config(config_with_cache(true));
    let mut handle = domain.register();
    c.bench_with_input(
        BenchmarkId::new("alloc_retire_cached", name),
        &(),
        |bencher, _| {
            bencher.iter(|| {
                let node = handle.alloc(7u64);
                // SAFETY: block just allocated by this handle, never published —
                // this is its only retire.
                unsafe { handle.retire(std::hint::black_box(node)) };
            })
        },
    );
}

fn bench_alloc_retire_contended<R: Reclaimer>(c: &mut Criterion, name: &str) {
    // The cached loop again, with a second thread running it on the same
    // domain. The two share no block, no magazine and no reservation, so a
    // pair costs more than `alloc_retire_cached` only by what the hot path
    // writes to lines both threads touch.
    let domain = R::with_config(config_with_cache(true));
    let alloc_retire = |handle: &mut R::Handle| {
        let node = handle.alloc(7u64);
        // SAFETY: block just allocated by this handle, never published —
        // this is its only retire.
        unsafe { handle.retire(std::hint::black_box(node)) };
    };
    with_background(
        || {
            let mut handle = domain.register();
            move || alloc_retire(&mut handle)
        },
        || {
            let mut handle = domain.register();
            c.bench_with_input(
                BenchmarkId::new("alloc_retire_contended", name),
                &(),
                |bencher, _| bencher.iter(|| alloc_retire(&mut handle)),
            );
        },
    );
}

/// The domain the contended structure rungs run on: the repository
/// benchmark's geometry (8 slots in 2 shards), so CRTurn's and KP's
/// per-thread arrays are the size the `queue-pairs` workload walks.
fn structure_domain() -> Arc<Wfe> {
    Wfe::with_config(ReclaimerConfig {
        shards: 2,
        ..ReclaimerConfig::with_max_threads(8)
    })
}

fn bench_queue_pair_contended<Q: ConcurrentQueue<Wfe>>(c: &mut Criterion, name: &str) {
    // An enqueue + dequeue pair on a 1 024-element queue with a second thread
    // in the same loop: one side's tail swings and the other's head swings
    // land on whatever shares a line with the roots.
    let domain = structure_domain();
    let queue = Q::with_domain(Arc::clone(&domain));
    let pair = |handle: &mut <Wfe as Reclaimer>::Handle| {
        queue.enqueue(handle, 7);
        std::hint::black_box(queue.dequeue(handle));
    };
    let mut handle = domain.register();
    for value in 0..1_024 {
        queue.enqueue(&mut handle, value);
    }
    with_background(
        || {
            let mut handle = domain.register();
            move || pair(&mut handle)
        },
        || {
            c.bench_with_input(
                BenchmarkId::new("queue_pair_contended", name),
                &(),
                |bencher, _| bencher.iter(|| pair(&mut handle)),
            );
        },
    );
}

fn bench_resizable_get_contended(c: &mut Criterion) {
    // `get` over a 50 000-key map grown by its prefill, while a second thread
    // inserts and removes keys outside that range: every one of its calls
    // succeeds, i.e. writes `len`, and none touches a chain the reader walks
    // more than any neighbour in a bucket would.
    const KEYS: u64 = 50_000;
    let domain = structure_domain();
    let map = ResizableHashMap::<u64, Wfe>::new(Arc::clone(&domain));
    let mut handle = domain.register();
    for key in 0..KEYS {
        map.insert(&mut handle, key, key);
    }
    with_background(
        || {
            let (map, mut handle, mut key) = (&map, domain.register(), KEYS);
            move || {
                map.insert(&mut handle, key, key);
                map.remove(&mut handle, key);
                key = KEYS + (key + 1) % 1_024;
            }
        },
        || {
            let mut key = 0;
            c.bench_function("resizable_get_contended", |bencher| {
                bencher.iter(|| {
                    // A full-period walk of the key range, cheap next to a lookup.
                    key = (key + 7_919) % KEYS;
                    std::hint::black_box(map.get(&mut handle, key))
                })
            });
        },
    );
}

fn bench_spill_refill(c: &mut Criterion) {
    // One round trip of the magazine/shard exchange: the push that finds the
    // magazine full spills half of it (16 blocks) to the shard, and once the
    // magazine has been popped dry the next pop takes them back. The rest of
    // the cycle's 33 pushes and 33 pops are plain magazine traffic (about a
    // nanosecond each), so the figure is the cost of moving 16 blocks out and
    // 16 back.
    const MAGAZINE: usize = 32;
    let caches = BlockCaches::new(
        &BlockCacheConfig {
            enabled: true,
            per_class_capacity: 64,
        },
        1,
    );
    let shard = caches.shard(0);
    let class = SizeClass::of(56, 8).expect("the smallest class");
    let mut local = LocalBlockCache::new();
    let mut blocks: Vec<*mut u8> = (0..=MAGAZINE).map(|_| slab::take(class)).collect();
    c.bench_function("block_cache/spill_refill", |bencher| {
        bencher.iter(|| {
            for block in blocks.drain(..) {
                // SAFETY: class memory this bench owns, pushed exactly once.
                unsafe { local.push(class, block, shard) };
            }
            // 33 pushes: one spill. 33 pops: 17 from the magazine, then one
            // refill and its 16 blocks.
            blocks.extend((0..=MAGAZINE).map(|_| local.pop(class, shard).expect("parked")));
        })
    });
    for block in blocks {
        // SAFETY: taken above from the pool, popped back, given back once.
        unsafe { slab::give(class, block) };
    }
}

/// Retires `blocks` blocks through `retirer` that `reader`'s reservation
/// pins (the reader reserves after they are allocated and before they are
/// retired), then runs the pass that first judges them.
fn pin_blocks<R: Reclaimer>(
    retirer: &mut R::Handle,
    reader: &mut R::Handle,
    root: &Atomic<u64>,
    blocks: usize,
) {
    let allocated: Vec<_> = (0..blocks).map(|_| retirer.alloc(0u64)).collect();
    reader.begin_op();
    reader.protect(root, 0, ptr::null_mut());
    for block in allocated {
        // SAFETY: never published; this is its only retire.
        unsafe { retirer.retire(block) };
    }
    retirer.force_cleanup();
}

fn bench_cleanup_pass<R: Reclaimer>(c: &mut Criterion, name: &str) {
    // One cleanup pass against a batch a stalled reader pins. `pinned`: the
    // reader is still there — WFE, HE and EBR park the batch under the
    // reader's era and the pass asks one question for the lot; 2GEIBR has no
    // era to park under and judges every block again. `released`: the pass
    // right after the reader leaves, which judges and frees every block —
    // where the work that left the steady state now falls. No pass runs on
    // its own (`cleanup_freq`), so each timed call is exactly one.
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: usize::MAX,
        ..ReclaimerConfig::with_max_threads(4)
    });
    // `(retirer, reader)`, shared by `iter_batched`'s set-up and routine.
    let handles = RefCell::new((domain.register(), domain.register()));
    let anchor = handles.borrow_mut().0.alloc(0u64);
    let root: Atomic<u64> = Atomic::new(anchor);
    let pin = |blocks: usize| {
        let (retirer, reader) = &mut *handles.borrow_mut();
        pin_blocks::<R>(retirer, reader, &root, blocks);
    };
    let release = || handles.borrow_mut().1.end_op();
    let pass = || handles.borrow_mut().0.force_cleanup();
    for (label, blocks) in [("1k", 1 << 10), ("16k", 1 << 14)] {
        pin(blocks);
        c.bench_with_input(
            BenchmarkId::new(format!("cleanup_pass/pinned/{label}"), name),
            &(),
            |bencher, _| bencher.iter(pass),
        );
        release();
        pass();
        assert_eq!(domain.stats().unreclaimed, 0, "the reader left");

        c.bench_with_input(
            BenchmarkId::new(format!("cleanup_pass/released/{label}"), name),
            &(),
            |bencher, _| {
                bencher.iter_batched(
                    || {
                        pin(blocks);
                        release();
                    },
                    |()| pass(),
                    BatchSize::PerIteration,
                )
            },
        );
    }
    drop(handles);
    // SAFETY: bench-owned block, never retired; freed once.
    unsafe { wfe_reclaim::Linked::dealloc(anchor) };
}

fn bench_register_churn<R: Reclaimer>(c: &mut Criterion, name: &str) {
    // The registry acquire/release path at task-churn grain: one full
    // register + handle-teardown cycle per iteration (home-shard probe, slot
    // CAS, occupancy updates, final empty scan, release).
    let domain = R::with_config(ReclaimerConfig::with_max_threads(8));
    c.bench_with_input(
        BenchmarkId::new("register_churn", name),
        &(),
        |bencher, _| {
            bencher.iter(|| {
                let handle = domain.register();
                std::hint::black_box(&handle);
            })
        },
    );
}

fn bench_pool_checkout(c: &mut Criterion) {
    // The same churn served by a HandlePool: check-out + check-in of a
    // parked handle, no registry traffic after the first iteration.
    let domain = He::with_config(ReclaimerConfig::with_max_threads(8));
    let pool = HandlePool::new(Arc::clone(&domain));
    c.bench_function("register_churn/HE-handle-pool", |bencher| {
        bencher.iter(|| {
            let guard = pool.check_out().expect("registry has room");
            std::hint::black_box(&guard);
        })
    });
}

fn bench_guard_overhead<R: Reclaimer>(c: &mut Criterion, name: &str) {
    // Measures the zero-cost claim of the safe API: one guarded read through
    // `Shield::protect` (enter bracket, protect, drop bracket) against the
    // identical raw sequence (`begin_op`, `protect`, `end_op`). The shield is
    // leased once outside the loop so the comparison isolates the per-read
    // overhead; what a lease adds is measured separately by the two variants
    // below: `lease_shield_protect` leases from the guard (a load and two
    // stores — what every data-structure operation pays per shield),
    // `owned_lease_protect` from the handle (the same flag protocol plus an
    // `Arc` clone and drop, i.e. two atomic RMWs, for a lease that may
    // outlive the bracket).
    let domain = R::with_config(ReclaimerConfig::with_max_threads(4));
    let mut handle = domain.register();
    let node = handle.alloc(42u64);
    let root: Atomic<u64> = Atomic::new(node);

    c.bench_with_input(
        BenchmarkId::new("guard_overhead/raw_protect", name),
        &(),
        |bencher, _| {
            bencher.iter(|| {
                handle.begin_op();
                let ptr = handle.protect(&root, 0, ptr::null_mut());
                handle.end_op();
                std::hint::black_box(ptr)
            })
        },
    );

    let mut shield = handle.shield::<u64>().expect("slots available");
    c.bench_with_input(
        BenchmarkId::new("guard_overhead/shield_protect", name),
        &(),
        |bencher, _| {
            bencher.iter(|| {
                let guard = handle.enter();
                let ptr = shield.protect(&guard, &root, None);
                std::hint::black_box(ptr.as_raw())
            })
        },
    );
    drop(shield);

    // The path the data structures actually pay per operation: enter, lease
    // the shield from the guard, protect, and release everything again.
    c.bench_with_input(
        BenchmarkId::new("guard_overhead/lease_shield_protect", name),
        &(),
        |bencher, _| {
            bencher.iter(|| {
                let guard = handle.enter();
                let mut shield = guard.shield::<u64>().expect("slots available");
                let ptr = shield.protect(&guard, &root, None);
                std::hint::black_box(ptr.as_raw())
            })
        },
    );

    // The same with an owned lease from the handle, as taken by code that
    // keeps the shield across brackets or `.await` points.
    c.bench_with_input(
        BenchmarkId::new("guard_overhead/owned_lease_protect", name),
        &(),
        |bencher, _| {
            bencher.iter(|| {
                let mut shield = handle.shield::<u64>().expect("slots available");
                let guard = handle.enter();
                let ptr = shield.protect(&guard, &root, None);
                std::hint::black_box(ptr.as_raw())
            })
        },
    );

    // SAFETY: bench-owned block, never published for retirement; freed once.
    unsafe { wfe_reclaim::Linked::dealloc(node) };
}

fn bench_protect_under_era_pressure(c: &mut Criterion) {
    // The WFE-specific cost: get_protected while another thread keeps
    // advancing the era clock (allocating with era_freq = 1), which is what
    // pushes Hazard Eras into its unbounded loop and WFE onto its slow path.
    let domain = Wfe::with_config(ReclaimerConfig {
        era_freq: 1,
        fast_path_attempts: 16,
        ..ReclaimerConfig::with_max_threads(4)
    });
    let mut handle = domain.register();
    let node = handle.alloc(42u64);
    let root: Atomic<u64> = Atomic::new(node);
    let mut shield = handle.shield::<u64>().expect("slots available");
    with_background(
        || {
            let mut handle = domain.register();
            move || {
                let ptr = handle.alloc(0u64);
                // SAFETY: block just allocated by this handle, never published —
                // this is its only retire.
                unsafe { handle.retire(ptr) };
            }
        },
        || {
            c.bench_function("get_protected/WFE-under-era-pressure", |bencher| {
                bencher.iter(|| {
                    let guard = handle.enter();
                    let ptr = shield.protect(&guard, &root, None);
                    std::hint::black_box(ptr.as_raw())
                })
            });
        },
    );
    drop(shield);
    // SAFETY: bench-owned block, never published for retirement; freed once.
    unsafe { wfe_reclaim::Linked::dealloc(node) };
}

fn smr_ops(c: &mut Criterion) {
    bench_protect::<Wfe>(c, "WFE");
    bench_protect::<He>(c, "HE");
    bench_protect::<Hp>(c, "HP");
    bench_protect::<Ebr>(c, "EBR");
    bench_protect::<Ibr2Ge>(c, "2GEIBR");
    bench_protect::<Leak>(c, "Leak");

    bench_alloc_retire::<Wfe>(c, "WFE");
    bench_alloc_retire::<He>(c, "HE");
    bench_alloc_retire::<Hp>(c, "HP");
    bench_alloc_retire::<Ebr>(c, "EBR");
    bench_alloc_retire::<Ibr2Ge>(c, "2GEIBR");
    bench_alloc_retire::<Leak>(c, "Leak");

    bench_alloc_retire_cached::<Wfe>(c, "WFE");
    bench_alloc_retire_cached::<He>(c, "HE");
    bench_alloc_retire_cached::<Hp>(c, "HP");
    bench_alloc_retire_cached::<Ebr>(c, "EBR");
    bench_alloc_retire_cached::<Ibr2Ge>(c, "2GEIBR");

    bench_alloc_retire_contended::<Wfe>(c, "WFE");
    bench_alloc_retire_contended::<He>(c, "HE");
    bench_alloc_retire_contended::<Hp>(c, "HP");
    bench_alloc_retire_contended::<Ebr>(c, "EBR");

    bench_queue_pair_contended::<CrTurnQueue<u64, Wfe>>(c, "CRTurn");
    bench_queue_pair_contended::<KoganPetrankQueue<u64, Wfe>>(c, "KP");
    bench_queue_pair_contended::<MichaelScottQueue<u64, Wfe>>(c, "MS");
    bench_resizable_get_contended(c);

    bench_spill_refill(c);

    bench_cleanup_pass::<Wfe>(c, "WFE");
    bench_cleanup_pass::<He>(c, "HE");
    bench_cleanup_pass::<Ebr>(c, "EBR");
    bench_cleanup_pass::<Ibr2Ge>(c, "2GEIBR");

    bench_guard_overhead::<Wfe>(c, "WFE");
    bench_guard_overhead::<He>(c, "HE");

    bench_register_churn::<Wfe>(c, "WFE");
    bench_register_churn::<He>(c, "HE");
    bench_pool_checkout(c);

    bench_protect_under_era_pressure(c);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_millis(500)).warm_up_time(std::time::Duration::from_millis(200));
    targets = smr_ops
}
criterion_main!(benches);
