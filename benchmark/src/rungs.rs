//! The layer ladder: single-purpose rungs that each drive one public
//! function of one layer in a loop, from outside.
//!
//! A rung runs *laps* until its time budget is spent (three at least): a lap
//! prepares untimed, then times one batch of calls (one `batch` span under
//! the rung's `rung:<metric>` span) and yields one value, usually nanoseconds
//! per call. The rung's metric is the median lap, the first lap thrown away
//! as warm-up.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wfe_suite::wfe_sync::{AtomicPair, EraSource};
use wfe_suite::{
    Atomic, BlockCacheConfig, DomainConfig, Ebr, Handle, HandlePool, He, Hp, Ibr2Ge,
    KoganPetrankQueue, Leak, Linked, MichaelScottQueue, NatarajanBst, Protected, RawHandle,
    Reclaimer, TaskHandle, TreiberStack, Wfe,
};

use crate::rng::SplitMix64;
use crate::trace::{Names, Recorder, NAME_BATCH};
use crate::workload::{domain_config, median, ratio};

/// Blocks in the batch the cleanup rungs scan.
pub const CLEANUP_BLOCKS: usize = 16_384;
/// `force_cleanup` calls per lap of the pinned-batch rung.
pub const PINNED_PASSES: usize = 32;
/// Rungs run by [`run_all`]; divides the time the ladder may take.
pub const RUNG_COUNT: u32 = 51;

/// Clock, span buffer and results shared by the rungs.
pub struct Ladder<'a> {
    /// Time each rung may take.
    pub budget: Duration,
    /// The main thread's span buffer.
    pub recorder: &'a mut Recorder,
    /// Span names.
    pub names: &'a mut Names,
    /// The span the rungs hang under.
    pub parent: u64,
    /// `(metric, value)` in the order measured.
    pub metrics: Vec<(String, f64)>,
    /// Calls that failed (refused registration, lease or check-out) and
    /// counter checks that did not hold.
    pub failed: u64,
    /// Calls made, as far as the rungs count them.
    pub attempted: u64,
}

/// One lap's stopwatch.
pub struct Lap<'r> {
    recorder: &'r mut Recorder,
    parent: u64,
}

impl Lap<'_> {
    /// Times `batch` as one `batch` span; returns its nanoseconds.
    pub fn time(&mut self, batch: impl FnOnce()) -> f64 {
        let start = self.recorder.now();
        batch();
        let end = self.recorder.now();
        self.recorder.push(self.parent, NAME_BATCH, start, end);
        (end - start) as f64
    }
}

impl Ladder<'_> {
    /// Runs laps of `lap` within the budget and records their median as
    /// `metric`; returns the laps run.
    pub fn rung(&mut self, metric: &str, mut lap: impl FnMut(&mut Lap<'_>) -> f64) -> u64 {
        let name = self.names.intern(&format!("rung:{metric}"));
        let start = self.recorder.now();
        // Reserve the rung's id first so its laps can name it as parent.
        let id = self.recorder.push(self.parent, name, start, start);
        let slot = self.recorder.spans.len() - 1;
        let began = Instant::now();
        let mut values = Vec::new();
        while values.len() < 3 || began.elapsed() < self.budget {
            let mut stopwatch = Lap {
                recorder: &mut *self.recorder,
                parent: id,
            };
            values.push(lap(&mut stopwatch));
        }
        let end = self.recorder.now();
        if let Some(span) = self.recorder.spans.get_mut(slot).filter(|s| s.id == id) {
            span.end_ns = end;
        }
        let value = median(&mut values[1..]);
        self.metrics.push((metric.to_string(), value));
        values.len() as u64
    }

    /// A rung whose lap is `calls` back-to-back invocations of `call`;
    /// the metric is nanoseconds per call.
    pub fn per_call(&mut self, metric: &str, calls: usize, mut call: impl FnMut()) {
        let laps = self.rung(metric, |lap| {
            lap.time(|| (0..calls).for_each(|_| call())) / calls as f64
        });
        self.attempted += laps * calls as u64;
    }

    /// Records a value that is not a timing.
    pub fn value(&mut self, metric: &str, value: f64) {
        self.metrics.push((metric.to_string(), value));
    }

    /// Unwraps a registration, lease or check-out; a refusal is a failure
    /// and the rungs that needed it are skipped (their metrics then read 0 in
    /// the result, see `single::in_catalogue_order`).
    fn granted<T>(&mut self, what: Option<T>) -> Option<T> {
        self.failed += what.is_none() as u64;
        what
    }
}

/// One alloc + retire under one bracket, the way the structures do it.
#[inline]
fn alloc_retire<H: RawHandle>(handle: &mut H) {
    let guard = handle.enter();
    let block = guard.alloc(0u64);
    // SAFETY: the block was never published, so it is unreachable, and it is
    // retired exactly once.
    unsafe { Protected::from_unlinked(block).retire_in(&guard) };
}

/// A domain with the benchmark configuration and one block to protect.
struct Fixture<R: Reclaimer> {
    domain: Arc<R>,
    handle: R::Handle,
    node: *mut Linked<u64>,
    root: Atomic<u64>,
}

impl<R: Reclaimer> Fixture<R> {
    fn new(config: DomainConfig) -> Option<Self> {
        let domain = R::with_config(config);
        let mut handle = domain.try_register()?;
        let node = handle.alloc(7u64);
        Some(Self {
            domain,
            handle,
            node,
            root: Atomic::new(node),
        })
    }
}

impl<R: Reclaimer> Drop for Fixture<R> {
    fn drop(&mut self) {
        // SAFETY: `node` came from this handle's `alloc`, `root` (its only
        // link) dies with this struct, and it is retired exactly once.
        unsafe { self.handle.retire(self.node) };
    }
}

fn no_cleanup() -> DomainConfig {
    DomainConfig {
        cleanup_freq: usize::MAX,
        ..domain_config()
    }
}

/// The rungs every scheme has: `<s>.protect_ns`, `<s>.alloc_retire_ns`,
/// `<s>.alloc_retire_nocache_ns`, `<s>.cleanup_idle_ns`,
/// `<s>.cleanup_free_ns_per_block`, `<s>.register_ns`.
fn scheme_rungs<R: Reclaimer>(ladder: &mut Ladder<'_>, s: &str) {
    let fixture = Fixture::<R>::new(domain_config());
    if let Some(mut fx) = ladder.granted(fixture) {
        let lease = fx.handle.shield::<u64>().ok();
        if let Some(mut shield) = ladder.granted(lease) {
            let (handle, root) = (&mut fx.handle, &fx.root);
            ladder.per_call(&format!("{s}.protect_ns"), 1024, || {
                let guard = handle.enter();
                black_box(shield.protect(&guard, root, None).as_raw());
            });
        }
        let handle = &mut fx.handle;
        ladder.per_call(&format!("{s}.alloc_retire_ns"), 1024, || {
            alloc_retire(handle)
        });
    }

    let uncached = Fixture::<R>::new(DomainConfig {
        block_cache: BlockCacheConfig {
            enabled: false,
            per_class_capacity: 0,
        },
        ..domain_config()
    });
    if let Some(mut fx) = ladder.granted(uncached) {
        let handle = &mut fx.handle;
        ladder.per_call(&format!("{s}.alloc_retire_nocache_ns"), 1024, || {
            alloc_retire(handle)
        });
    }

    // Snapshot fill: every slot of the registry is taken, the batch is empty.
    let domain = R::with_config(domain_config());
    let mut handles: Vec<R::Handle> = (0..domain.config().max_threads)
        .filter_map(|_| domain.try_register())
        .collect();
    ladder.failed += (domain.config().max_threads - handles.len()) as u64;
    if let Some(handle) = handles.first_mut() {
        ladder.per_call(&format!("{s}.cleanup_idle_ns"), 256, || {
            handle.force_cleanup()
        });
    }
    drop(handles);

    // One pass over a batch nothing pins.
    if let Some(mut fx) = ladder.granted(Fixture::<R>::new(no_cleanup())) {
        let (domain, handle) = (&fx.domain, &mut fx.handle);
        ladder.rung(&format!("{s}.cleanup_free_ns_per_block"), |lap| {
            (0..CLEANUP_BLOCKS).for_each(|_| alloc_retire(handle));
            let before = domain.stats().freed;
            let ns = lap.time(|| handle.force_cleanup());
            ns / (domain.stats().freed - before).max(1) as f64
        });
    }

    let domain = R::with_config(domain_config());
    let mut refused = 0;
    ladder.per_call(&format!("{s}.register_ns"), 64, || {
        refused += black_box(domain.try_register()).is_none() as u64;
    });
    ladder.failed += refused;
}

/// `<s>.cleanup_pinned_ns_per_block`: A allocates the batch, B reserves, A
/// retires, then A's passes rescan a batch they may not free.
fn pinned_rung<R: Reclaimer>(ladder: &mut Ladder<'_>, s: &str) {
    let Some(mut a) = ladder.granted(Fixture::<R>::new(no_cleanup())) else {
        return;
    };
    let Some(mut b) = ladder.granted(a.domain.try_register()) else {
        return;
    };
    let mut freed_while_pinned = 0;
    ladder.rung(&format!("{s}.cleanup_pinned_ns_per_block"), |lap| {
        let blocks: Vec<_> = (0..CLEANUP_BLOCKS).map(|_| a.handle.alloc(0u64)).collect();
        b.begin_op();
        b.protect(&a.root, 0, core::ptr::null_mut());
        for block in blocks {
            // SAFETY: never published, retired exactly once.
            unsafe { a.handle.retire(block) };
        }
        let before = a.domain.stats().freed;
        let ns = lap.time(|| (0..PINNED_PASSES).for_each(|_| a.handle.force_cleanup()));
        freed_while_pinned += a.domain.stats().freed - before;
        b.end_op();
        a.handle.force_cleanup();
        ns / (PINNED_PASSES * CLEANUP_BLOCKS) as f64
    });
    // B's reservation covers every block's lifetime: a pass that frees one is wrong.
    ladder.failed += freed_while_pinned;
}

fn sync_rungs(ladder: &mut Ladder<'_>) {
    let pair = AtomicPair::new(0, 0);
    let mut current = (0, 0);
    ladder.per_call("sync.wcas_ok_ns", 4096, || {
        let next = (current.0 + 1, current.1);
        current = match pair.compare_exchange(current, next) {
            Ok(_) => next,
            Err(seen) => seen,
        };
    });
    ladder.per_call("sync.pair_load_ns", 4096, || {
        black_box(pair.load());
    });
    let era = EraSource::new(1);
    ladder.per_call("sync.era_advance_ns", 4096, || {
        black_box(era.advance(Ordering::AcqRel));
    });

    // Two threads on one pair: the other increments the second word until told
    // to stop, this one the first.
    let stop = AtomicBool::new(false);
    let (mut attempts, mut fails) = (0u64, 0u64);
    std::thread::scope(|scope| {
        let rival = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let seen = pair.load();
                let _ = pair.compare_exchange(seen, (seen.0, seen.1 + 1));
            }
        });
        ladder.per_call("sync.wcas_contended_ns", 4096, || {
            let seen = pair.load();
            attempts += 1;
            fails += pair.compare_exchange(seen, (seen.0 + 1, seen.1)).is_err() as u64;
        });
        stop.store(true, Ordering::Relaxed);
        rival.join().expect("the rival thread panicked");
    });
    ladder.value("sync.wcas_fail_ratio", ratio(fails as f64, attempts as f64));
}

fn wfe_slow_rungs(ladder: &mut Ladder<'_>) {
    // One fast-path attempt and a clock that moves before every call: each
    // protect must take the slow path, exactly once.
    let forced = Fixture::<Wfe>::new(DomainConfig {
        fast_path_attempts: 1,
        ..domain_config()
    });
    if let Some(mut fx) = ladder.granted(forced) {
        let lease = fx.handle.shield::<u64>().ok();
        if let Some(mut shield) = ladder.granted(lease) {
            let (domain, handle, root) = (&fx.domain, &mut fx.handle, &fx.root);
            let before = domain.stats().slow_path;
            let mut calls = 0u64;
            ladder.per_call("wfe.protect_slow_ns", 1024, || {
                domain.era_source().advance(Ordering::SeqCst);
                let guard = handle.enter();
                black_box(shield.protect(&guard, root, None).as_raw());
                calls += 1;
            });
            ladder.failed += (domain.stats().slow_path - before).abs_diff(calls);
        }
    }

    // A reader re-protecting inside one bracket (a traversal) while another
    // thread allocates with `era_freq = 1`, so the clock moves under it. One
    // fast-path attempt again: with the paper's 16 the reader never needs
    // help at this pressure and the helping path would go unmeasured.
    let pressed = Fixture::<Wfe>::new(DomainConfig {
        era_freq: 1,
        fast_path_attempts: 1,
        ..domain_config()
    });
    let Some(mut fx) = ladder.granted(pressed) else {
        return;
    };
    let Some(mut shield) = ladder.granted(fx.handle.shield::<u64>().ok()) else {
        return;
    };
    let Some(mut allocator) = ladder.granted(fx.domain.try_register()) else {
        return;
    };
    let (domain, handle, root) = (&fx.domain, &mut fx.handle, &fx.root);
    let stop = AtomicBool::new(false);
    let before = domain.stats();
    let mut protects = 0u64;
    std::thread::scope(|scope| {
        let rival = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                alloc_retire(&mut allocator);
            }
        });
        ladder.rung("wfe.protect_pressure_ns", |lap| {
            const BRACKETS: usize = 64;
            const PER_BRACKET: usize = 64;
            protects += (BRACKETS * PER_BRACKET) as u64;
            let ns = lap.time(|| {
                for _ in 0..BRACKETS {
                    let guard = handle.enter();
                    for _ in 0..PER_BRACKET {
                        black_box(shield.protect(&guard, root, None).as_raw());
                    }
                }
            });
            ns / (BRACKETS * PER_BRACKET) as f64
        });
        stop.store(true, Ordering::Relaxed);
        rival.join().expect("the allocator thread panicked");
    });
    ladder.attempted += protects;
    let after = domain.stats();
    let slow = after.slow_path - before.slow_path;
    ladder.value(
        "wfe.pressure_slow_ratio",
        ratio(slow as f64, protects as f64),
    );
    ladder.value(
        "wfe.pressure_helps_per_slow",
        ratio((after.helps - before.helps) as f64, slow as f64),
    );
}

fn guard_pool_task_rungs(ladder: &mut Ladder<'_>) {
    let Some(mut fx) = ladder.granted(Fixture::<Wfe>::new(domain_config())) else {
        return;
    };
    let mut refused = 0;
    {
        let handle = &fx.handle;
        ladder.per_call("guard.shield_lease_ns", 1024, || {
            refused += black_box(handle.shield::<u64>()).is_err() as u64;
        });
    }
    {
        let handle = &mut fx.handle;
        ladder.per_call("guard.enter_exit_ns", 1024, || {
            black_box(handle.enter());
        });
    }
    let pool = HandlePool::new(Arc::clone(&fx.domain));
    ladder.per_call("pool.checkout_ns", 1024, || {
        refused += black_box(pool.check_out()).is_none() as u64;
    });
    ladder.per_call(
        "task.checkout_release_ns",
        1024,
        || match TaskHandle::check_out(&pool) {
            Some(task) => task.release(),
            None => refused += 1,
        },
    );
    if let Some(mut task) = ladder.granted(TaskHandle::check_out(&pool)) {
        if let Some(mut shield) = ladder.granted(task.shield::<u64>().ok()) {
            let root = &fx.root;
            ladder.per_call("task.with_guard_ns", 1024, || {
                black_box(task.with_guard(|guard| shield.protect(&guard, root, None).as_raw()));
            });
        }
    }
    ladder.failed += refused;
}

/// Structures no workload covers, single thread, WFE; a *pair* is one
/// insert-side call plus one remove-side call.
fn ds_rungs(ladder: &mut Ladder<'_>) {
    const PREFILL: u64 = 1_024;
    let domain = Wfe::with_config(domain_config());
    let Some(mut handle) = ladder.granted(domain.try_register()) else {
        return;
    };
    let mut lost = 0;

    let kp = KoganPetrankQueue::<u64, Wfe>::new(Arc::clone(&domain));
    (0..PREFILL).for_each(|v| kp.enqueue(&mut handle, v));
    ladder.per_call("ds.kp_queue_pair_ns", 256, || {
        kp.enqueue(&mut handle, 1);
        lost += kp.dequeue(&mut handle).is_none() as u64;
    });
    drop(kp);

    let ms = MichaelScottQueue::<u64, Wfe>::new(Arc::clone(&domain));
    (0..PREFILL).for_each(|v| ms.enqueue(&mut handle, v));
    ladder.per_call("ds.ms_queue_pair_ns", 1024, || {
        ms.enqueue(&mut handle, 1);
        lost += ms.dequeue(&mut handle).is_none() as u64;
    });
    drop(ms);

    let stack = TreiberStack::<u64, Wfe>::new(Arc::clone(&domain));
    (0..PREFILL).for_each(|v| stack.push(&mut handle, v));
    ladder.per_call("ds.treiber_pair_ns", 1024, || {
        stack.push(&mut handle, 1);
        lost += stack.pop(&mut handle).is_none() as u64;
    });
    drop(stack);

    // Same shape as map-write50: 100 000 keys, half present, 50 % insert.
    let bst = NatarajanBst::<u64, Wfe>::new(Arc::clone(&domain));
    let mut rng = SplitMix64::new(1);
    let mut present = 0;
    while present < 50_000 {
        present += bst.insert(&mut handle, rng.below(100_000), 0) as u64;
    }
    ladder.per_call("ds.bst_write50_ns", 1024, || {
        let draw = rng.next();
        let key = ((draw & 0xFFFF_FFFF) * 100_000) >> 32;
        if draw >> 63 == 0 {
            black_box(bst.insert(&mut handle, key, 0));
        } else {
            black_box(bst.remove(&mut handle, key));
        }
    });
    ladder.failed += lost;
}

/// Runs the whole ladder; results land in `ladder.metrics`.
pub fn run_all(ladder: &mut Ladder<'_>) {
    sync_rungs(ladder);
    scheme_rungs::<Wfe>(ladder, "wfe");
    scheme_rungs::<He>(ladder, "he");
    scheme_rungs::<Hp>(ladder, "hp");
    scheme_rungs::<Ebr>(ladder, "ebr");
    scheme_rungs::<Ibr2Ge>(ladder, "ibr");
    pinned_rung::<Wfe>(ladder, "wfe");
    pinned_rung::<He>(ladder, "he");
    pinned_rung::<Ebr>(ladder, "ebr");
    pinned_rung::<Ibr2Ge>(ladder, "ibr");

    // The floor: a scheme that never frees. A fresh domain per lap, dropped
    // after it, so the leaked blocks do not pile up over the rung.
    if let Some(mut fx) = ladder.granted(Fixture::<Leak>::new(domain_config())) {
        if let Some(mut shield) = ladder.granted(fx.handle.shield::<u64>().ok()) {
            let (handle, root) = (&mut fx.handle, &fx.root);
            ladder.per_call("leak.protect_ns", 1024, || {
                let guard = handle.enter();
                black_box(shield.protect(&guard, root, None).as_raw());
            });
        }
    }
    let mut refused = 0;
    ladder.rung("leak.alloc_retire_ns", |lap| {
        const CALLS: usize = 4096;
        let domain = Leak::with_config(domain_config());
        match domain.try_register() {
            Some(mut handle) => {
                lap.time(|| (0..CALLS).for_each(|_| alloc_retire(&mut handle))) / CALLS as f64
            }
            None => {
                refused += 1;
                0.0
            }
        }
    });
    ladder.failed += refused;

    wfe_slow_rungs(ladder);
    guard_pool_task_rungs(ladder);
    ds_rungs(ladder);
}
