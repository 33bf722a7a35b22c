//! Reusable conformance scenarios for reclamation schemes.
//!
//! Every scheme in the suite (the baselines here and WFE in `wfe-core`) must
//! behave identically through the [`Reclaimer`]/[`Handle`] API. The functions
//! in this module encode the behavioural contract once;
//! [`conformance_suite!`](crate::conformance_suite) turns a table of schemes
//! into their `#[test]`s, and the integration tests instantiate them
//! directly. They are compiled into the library (not `#[cfg(test)]`)
//! precisely so that dependent crates can reuse them.

use core::ptr;
use std::sync::Arc;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use crate::api::{Handle, RawHandle, Reclaimer, ReclaimerConfig};
use crate::block::Linked;
use crate::cache::BlockCacheConfig;
use crate::ptr::Atomic;

/// A payload that counts its drops, used to prove blocks are really freed.
pub struct DropCounter {
    counter: Arc<AtomicUsize>,
}

impl DropCounter {
    /// Creates a counter handle; `counter` is incremented on drop.
    pub fn new(counter: &Arc<AtomicUsize>) -> Self {
        Self {
            counter: Arc::clone(counter),
        }
    }
}

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.counter.fetch_add(1, Ordering::SeqCst);
    }
}

/// Node of the miniature Treiber stack used by the stress scenarios.
pub struct StackNode {
    next: *mut Linked<StackNode>,
    value: usize,
    _drops: Option<DropCounter>,
}

/// A miniature Treiber stack written directly against the raw SMR API.
///
/// This is intentionally the same shape as Figure 2 of the paper (the usage
/// example for Hazard Eras): `pop` protects the head with reservation index 0,
/// unlinks it with CAS and retires it.
pub struct MiniStack {
    head: Atomic<StackNode>,
}

impl MiniStack {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Self {
            head: Atomic::null(),
        }
    }

    /// Pushes `value` using `handle` for allocation.
    pub fn push<H: RawHandle>(&self, handle: &mut H, value: usize, drops: Option<DropCounter>) {
        let node = handle.alloc(StackNode {
            next: ptr::null_mut(),
            value,
            _drops: drops,
        });
        loop {
            // ORDER: pairs with the AcqRel push/pop CASes on `head`.
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: `node` is owned and unpublished until the CAS succeeds.
            unsafe { (*node).value.next = head };
            if self
                .head
                .compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire) // ORDER: success publishes the node (and its `next` write); failure observes the winner.
                .is_ok()
            {
                return;
            }
        }
    }

    /// Pops the top element, if any.
    pub fn pop<H: RawHandle>(&self, handle: &mut H) -> Option<usize> {
        handle.begin_op();
        let result = loop {
            let node = handle.protect(&self.head, 0, ptr::null_mut());
            if node.is_null() {
                break None;
            }
            // SAFETY: `node` is protected by reservation slot 0, so the read is valid.
            let next = unsafe { (*node).value.next };
            if self
                .head
                .compare_exchange(node, next, Ordering::AcqRel, Ordering::Acquire) // ORDER: success publishes the unlink; failure observes the winning pop/push.
                .is_ok()
            {
                // SAFETY: we won the unlink CAS; the node stays valid until retired readers
                // finish, and its value is ours.
                let value = unsafe { (*node).value.value };
                // SAFETY: the same CAS unlinked the node; it is retired exactly once.
                unsafe { handle.retire(node) };
                break Some(value);
            }
        };
        handle.end_op();
        result
    }

    /// Frees every node still in the stack (no concurrency allowed).
    pub fn drain(&self) -> usize {
        let mut count = 0;
        let mut cur = self.head.load(Ordering::Acquire); // ORDER: `drain` requires no concurrency; Acquire is more than enough.
        self.head.store(ptr::null_mut(), Ordering::Release); // ORDER: `drain` requires no concurrency; Release is more than enough.
        while !cur.is_null() {
            // SAFETY: `drain` requires no concurrency; every node is exclusively owned.
            let next = unsafe { (*cur).value.next };
            // SAFETY: as above — exclusive access, freed exactly once.
            unsafe { Linked::dealloc(cur) };
            cur = next;
            count += 1;
        }
        count
    }
}

impl Default for MiniStack {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for MiniStack {
    fn drop(&mut self) {
        self.drain();
    }
}

/// A freshly created domain hands out distinct thread ids, allocates blocks
/// stamped with its era clock, and reclaims a retired block once nothing
/// protects it.
pub fn basic_lifecycle<R: Reclaimer>() {
    let domain = R::with_config(ReclaimerConfig::with_max_threads(4));
    let mut h1 = domain.register();
    let mut h2 = domain.register();
    assert_ne!(h1.thread_id(), h2.thread_id());
    assert!(h1.slots() >= 2);

    let node = h1.alloc(123u64);
    assert!(!node.is_null());
    // SAFETY: the block was just allocated and is owned by this thread.
    unsafe {
        assert_eq!((*node).value, 123);
    }
    let stats = domain.stats();
    assert_eq!(stats.allocated, 1);
    assert_eq!(stats.retired, 0);

    // SAFETY: the block was never published; it is trivially unreachable and
    // retired exactly once.
    unsafe { h1.retire(node) };
    assert_eq!(domain.stats().retired, 1);

    // Give bounded schemes every chance to reclaim; Leak legitimately won't.
    for _ in 0..4 {
        h1.force_cleanup();
        h2.force_cleanup();
    }
    let stats = domain.stats();
    assert!(stats.freed <= stats.retired);
    drop(h1);
    drop(h2);
}

/// While a reservation (or operation bracket) covers a block, a cleanup by the
/// retiring thread must not free it; dropping the protection releases it.
///
/// Skipped automatically for schemes that never reclaim (`Leak`).
pub fn protection_blocks_reclamation<R: Reclaimer>() {
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 1,
        era_freq: 1,
        ..ReclaimerConfig::with_max_threads(2)
    });
    let mut reader = domain.register();
    let mut writer = domain.register();

    let stack = MiniStack::new();
    stack.push(&mut writer, 1, None);

    // Reader protects the head node mid-operation and then stalls.
    reader.begin_op();
    let protected = reader.protect(&stack.head, 0, ptr::null_mut());
    assert!(!protected.is_null());

    // Writer pops (and thereby retires) that same node, then tries hard to
    // reclaim it.
    let popped = stack.pop(&mut writer);
    assert_eq!(popped, Some(1));
    for _ in 0..4 {
        writer.force_cleanup();
    }
    assert_eq!(
        domain.stats().unreclaimed,
        1,
        "a protected block must survive cleanup"
    );
    // The block is still readable.
    // SAFETY: the reader's reservation from slot 0 still pins the block.
    unsafe {
        assert_eq!((*protected).value.value, 1);
    }

    // Dropping the protection allows reclamation.
    reader.clear();
    reader.end_op();
    for _ in 0..4 {
        writer.force_cleanup();
    }
    assert_eq!(
        domain.stats().unreclaimed,
        0,
        "unprotected block is reclaimed"
    );
}

/// A stalled reader costs the other threads' cleanup passes nothing: the
/// blocks it pins are parked under the era (epoch) it publishes, so each
/// pass judges only what was retired since the previous one — counted by
/// [`SmrStats::scanned`](crate::SmrStats::scanned), not timed — and the first
/// pass after the reader leaves frees every one of them.
///
/// For the schemes whose reservations name a witness (`Wfe`, `He`, `Ebr`).
pub fn stalled_reader_costs_passes_nothing<R: Reclaimer>() {
    const PINNED: u64 = 2_000;
    const CLEANUP_FREQ: u64 = 10;
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: CLEANUP_FREQ as usize,
        era_freq: 1,
        ..ReclaimerConfig::with_max_threads(2)
    });
    let mut reader = domain.register();
    let mut writer = domain.register();
    let stack = MiniStack::new();
    for i in 0..PINNED {
        stack.push(&mut writer, i as usize, None);
    }
    // The reader reserves after every node was allocated and then stalls:
    // its era lies in the lifespan of each of them.
    reader.begin_op();
    assert!(!reader.protect(&stack.head, 0, ptr::null_mut()).is_null());

    /// Blocks the cleanup passes inside `step` judged.
    fn judged_by<R: Reclaimer>(domain: &R, step: impl FnOnce()) -> u64 {
        let before = domain.stats().scanned;
        step();
        domain.stats().scanned - before
    }
    let mut judged = 0;
    for _ in 0..PINNED {
        let by_this_pop = judged_by(&*domain, || {
            stack.pop(&mut writer);
        });
        assert!(
            by_this_pop <= CLEANUP_FREQ,
            "a pass judged {by_this_pop} blocks with {} pinned: it rescanned parked blocks",
            domain.stats().unreclaimed
        );
        judged += by_this_pop;
    }
    assert_eq!(domain.stats().unreclaimed, PINNED, "all of them are pinned");
    assert_eq!(judged, PINNED, "each pinned block was judged exactly once");
    let parked = writer.parked_groups();
    assert_eq!(parked.len(), 1, "one reader, one witness: {parked:?}");
    assert_eq!(parked[0].1 as u64, PINNED);

    // More passes and more traffic while the reader stalls: a pass judges
    // the newly retired blocks, plus the few the previous pass parked under
    // the writer's own era of the moment — never the reader's.
    assert_eq!(judged_by(&*domain, || writer.force_cleanup()), 0);
    for i in 0..10 * CLEANUP_FREQ {
        let by_this_pair = judged_by(&*domain, || {
            stack.push(&mut writer, i as usize, None);
            stack.pop(&mut writer);
        });
        assert!(by_this_pair <= 2 * CLEANUP_FREQ, "judged {by_this_pair}");
    }
    assert!(domain.stats().unreclaimed >= PINNED);

    // The reader leaves: one pass judges the released group and frees it.
    reader.clear();
    reader.end_op();
    let released = judged_by(&*domain, || writer.force_cleanup());
    assert!(released >= PINNED, "the released group is judged again");
    assert_eq!(
        domain.stats().unreclaimed,
        0,
        "everything is freed by the first pass after the reader leaves"
    );
    assert!(writer.parked_groups().is_empty());
}

/// Every allocated block is eventually dropped exactly once: either reclaimed
/// during the run, freed by the stack's `Drop`, or released when the domain
/// is destroyed (orphans).
pub fn all_blocks_freed_on_drop<R: Reclaimer>() {
    const NODES: usize = 500;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let domain = R::with_config(ReclaimerConfig::with_max_threads(2));
        let mut handle = domain.register();
        let stack = MiniStack::new();
        for i in 0..NODES {
            stack.push(&mut handle, i, Some(DropCounter::new(&drops)));
        }
        // Pop half of them (these go through retire), leave the rest in the
        // stack (these are freed by MiniStack::drop).
        for _ in 0..NODES / 2 {
            stack.pop(&mut handle);
        }
        drop(stack);
        drop(handle);
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        NODES,
        "every node dropped exactly once"
    );
}

/// Multi-threaded push/pop stress; checks value conservation and that no node
/// is dropped twice or leaked (drop counter equals allocation count).
pub fn concurrent_stack_stress<R: Reclaimer>(threads: usize, ops_per_thread: usize) {
    let drops = Arc::new(AtomicUsize::new(0));
    let pushed_sum = Arc::new(AtomicUsize::new(0));
    let popped_sum = Arc::new(AtomicUsize::new(0));
    let allocated = Arc::new(AtomicUsize::new(0));
    {
        let domain = R::with_config(ReclaimerConfig {
            cleanup_freq: 8,
            era_freq: 4,
            ..ReclaimerConfig::with_max_threads(threads)
        });
        let stack = MiniStack::new();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let domain = Arc::clone(&domain);
                let stack = &stack;
                let drops = Arc::clone(&drops);
                let pushed_sum = Arc::clone(&pushed_sum);
                let popped_sum = Arc::clone(&popped_sum);
                let allocated = Arc::clone(&allocated);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 0..ops_per_thread {
                        let value = t * ops_per_thread + i + 1;
                        if i % 2 == 0 {
                            stack.push(&mut handle, value, Some(DropCounter::new(&drops)));
                            pushed_sum.fetch_add(value, Ordering::Relaxed); // ORDER: oracle counter, checked after the threads join.
                            allocated.fetch_add(1, Ordering::Relaxed); // ORDER: oracle counter, checked after the threads join.
                        } else if let Some(v) = stack.pop(&mut handle) {
                            popped_sum.fetch_add(v, Ordering::Relaxed); // ORDER: oracle counter, checked after the threads join.
                        }
                    }
                });
            }
        });
        let in_stack: usize = {
            // Count and sum what's left before dropping everything.
            let mut sum = 0usize;
            let mut cur = stack.head.load(Ordering::Acquire); // ORDER: all workers joined; the stack is exclusively owned here.
            while !cur.is_null() {
                // SAFETY: all workers have joined; the stack is exclusively owned here.
                sum += unsafe { (*cur).value.value };
                // SAFETY: as above.
                cur = unsafe { (*cur).value.next };
            }
            sum
        };
        assert_eq!(
            pushed_sum.load(Ordering::Relaxed), // ORDER: oracle counter, checked after the threads join.
            popped_sum.load(Ordering::Relaxed) + in_stack, // ORDER: oracle counter, checked after the threads join.
            "every pushed value is either popped or still in the stack"
        );
        drop(stack);
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        allocated.load(Ordering::SeqCst),
        "every allocated node dropped exactly once, none leaked, none double-freed"
    );
}

/// Orphan adoption: a handle dropped with pending retirements parks them on
/// the domain's orphan stack, and a *surviving* thread's next cleanup pass
/// adopts and frees them — before the domain is dropped.
///
/// `reclaims` is `false` for schemes that never run cleanup passes (`Leak`):
/// for those the scenario instead asserts the orphans survive untouched until
/// domain teardown.
pub fn orphan_adoption_reclaims_exited_threads_blocks<R: Reclaimer>(reclaims: bool) {
    const NODES: usize = 40;
    let drops = Arc::new(AtomicUsize::new(0));
    {
        let domain = R::with_config(ReclaimerConfig {
            // No automatic cleanup during the retire burst: the exiting
            // thread must leave with a non-empty batch.
            cleanup_freq: usize::MAX,
            era_freq: 1,
            ..ReclaimerConfig::with_max_threads(3)
        });
        let mut survivor = domain.register();
        let mut reader = domain.register();
        let stack = MiniStack::new();
        {
            let mut exiting = domain.register();
            for i in 0..NODES {
                stack.push(&mut exiting, i, Some(DropCounter::new(&drops)));
            }
            // The reader pins the head (era/epoch schemes thereby pin every
            // block retired from here on; HP pins at least the head block).
            reader.begin_op();
            let protected = reader.protect(&stack.head, 0, ptr::null_mut());
            assert!(!protected.is_null());
            while stack.pop(&mut exiting).is_some() {}
            // The exiting thread's final cleanup cannot free the protected
            // block(s); the leftover batch is pushed onto the orphan stack.
            drop(exiting);
        }
        assert!(
            drops.load(Ordering::SeqCst) < NODES,
            "the reader's protection must orphan at least one block"
        );

        // Protection released: the surviving thread's cleanup pass must now
        // adopt the orphaned batch and free it.
        reader.clear();
        reader.end_op();
        survivor.force_cleanup();
        survivor.force_cleanup();

        let stats = domain.stats();
        if reclaims {
            assert!(
                stats.adopted_batches >= 1,
                "the survivor adopted the orphaned batch"
            );
            assert!(
                stats.freed_via_adoption >= 1,
                "adoption freed at least one orphaned block"
            );
            assert_eq!(
                drops.load(Ordering::SeqCst),
                NODES,
                "every retired block freed before domain drop"
            );
        } else {
            assert_eq!(
                stats.freed, 0,
                "a leaking scheme frees nothing while running"
            );
            assert_eq!(stats.adopted_batches, 0);
        }
        drop(stack);
        drop(reader);
        drop(survivor);
        drop(domain);
    }
    assert_eq!(
        drops.load(Ordering::SeqCst),
        NODES,
        "every node dropped exactly once"
    );
}

/// For schemes with bounded memory usage, the number of unreclaimed blocks
/// after a long single-threaded churn must stay below `bound`.
pub fn unreclaimed_is_bounded<R: Reclaimer>(bound: u64) {
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 16,
        era_freq: 8,
        ..ReclaimerConfig::with_max_threads(2)
    });
    let mut handle = domain.register();
    let stack = MiniStack::new();
    for i in 0..20_000 {
        stack.push(&mut handle, i, None);
        stack.pop(&mut handle);
    }
    let stats = domain.stats();
    assert!(
        stats.unreclaimed <= bound,
        "unreclaimed {} exceeds bound {}",
        stats.unreclaimed,
        bound
    );
    drop(stack);
    drop(handle);
}

/// What a dropping handle does, in the order it must do it: withdraw its
/// reservations, run a final cleanup pass, drain its magazines into the
/// pool, park the survivors on the orphan stack, release its registry slot.
///
/// `reclaims` is `false` for schemes that never run cleanup passes (`Leak`):
/// those skip the pass and have no magazine, but still park and release.
pub fn handle_drop_order<R: Reclaimer>(reclaims: bool) {
    let domain = R::with_config(ReclaimerConfig {
        // Only the drop's own final pass scans.
        cleanup_freq: usize::MAX,
        era_freq: 1,
        block_cache: BlockCacheConfig {
            enabled: true,
            ..BlockCacheConfig::default()
        },
        ..ReclaimerConfig::with_max_threads(2)
    });

    // A handle drops inside a bracket, still protecting the block it retired.
    let mut exiting = domain.register();
    let node = exiting.alloc(7u64);
    let root: Atomic<u64> = Atomic::new(node);
    exiting.begin_op();
    assert_eq!(exiting.protect(&root, 0, ptr::null_mut()), node);
    root.store(ptr::null_mut(), Ordering::SeqCst);
    // SAFETY: `node` was just unlinked from `root`; retired exactly once.
    unsafe { exiting.retire(node) };
    drop(exiting);
    let stats = domain.stats();
    if reclaims {
        assert_eq!(
            stats.freed, 1,
            "reservations are withdrawn before the final pass, so it frees the block"
        );
        assert_eq!(
            stats.cached_bytes, 0,
            "the final pass frees into the magazine before the drain empties it: \
             nothing stays parked with a handle that is gone"
        );
    } else {
        assert_eq!((stats.freed, stats.cached_bytes), (0, 0));
    }
    assert_eq!(domain.registry().registered(), 0, "the slot is released");

    // A handle drops with a block another thread still protects.
    let mut reader = domain.register();
    let mut exiting = domain.register();
    let node = exiting.alloc(8u64);
    let root: Atomic<u64> = Atomic::new(node);
    reader.begin_op();
    assert_eq!(reader.protect(&root, 0, ptr::null_mut()), node);
    root.store(ptr::null_mut(), Ordering::SeqCst);
    let unreclaimed = domain.stats().unreclaimed;
    // SAFETY: `node` was just unlinked from `root`; retired exactly once.
    unsafe { exiting.retire(node) };
    drop(exiting);
    assert_eq!(
        domain.stats().unreclaimed,
        unreclaimed + 1,
        "the final pass cannot free it"
    );
    assert_eq!(domain.registry().registered(), 1);
    reader.clear();
    reader.end_op();
    reader.force_cleanup();
    let stats = domain.stats();
    if reclaims {
        assert_eq!(
            stats.adopted_batches, 1,
            "the survivor was parked on the orphan stack, where the next pass finds it"
        );
        assert_eq!(stats.unreclaimed, 0);
    } else {
        assert_eq!(stats.adopted_batches, 0);
    }
}

/// The counters are per registry slot and a slot outlives its handles: more
/// threads than slots register, allocate, retire, discard and drop in a loop,
/// so every slot changes owner many times, and at quiescence the domain's
/// totals equal what the threads themselves tallied — nothing lost at a
/// hand-over, nothing counted twice. That includes the block-cache tallies,
/// which a handle folds into its slot's block once per pass: every
/// allocation here is cacheable, so it is exactly one hit or one miss.
///
/// `reclaims` is `false` for schemes that never run cleanup passes (`Leak`):
/// for those nothing is scanned or freed and every retired block stays
/// unreclaimed.
pub fn stats_are_exact_across_slot_reuse<R: Reclaimer>(reclaims: bool) {
    const THREADS: usize = 4;
    const SLOTS: usize = 2;
    const ROUNDS: usize = 60;
    let domain = R::with_config(ReclaimerConfig {
        cleanup_freq: 4,
        era_freq: 2,
        ..ReclaimerConfig::with_max_threads(SLOTS)
    });
    let (allocated, retired) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|thread| {
                let domain = &domain;
                scope.spawn(move || {
                    let (mut allocated, mut retired) = (0u64, 0u64);
                    for round in 0..ROUNDS {
                        let mut handle = loop {
                            match domain.try_register() {
                                Some(handle) => break handle,
                                None => std::thread::yield_now(),
                            }
                        };
                        for block in 0..(thread + round) % 7 + 1 {
                            let node = handle.alloc(block);
                            allocated += 1;
                            if block % 4 == 3 {
                                // SAFETY: never published; discarded once.
                                unsafe { handle.discard(node) };
                            } else {
                                // SAFETY: never published, so trivially
                                // unreachable; retired exactly once.
                                unsafe { handle.retire(node) };
                                retired += 1;
                            }
                        }
                        // Nothing protects anything: the drop's final pass
                        // frees what the handle retired.
                    }
                    (allocated, retired)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("a worker panicked"))
            .fold((0, 0), |sum, tally| (sum.0 + tally.0, sum.1 + tally.1))
    });
    assert_eq!(domain.registry().registered(), 0);
    assert!(domain.registry().high_water() <= SLOTS);
    let stats = domain.stats();
    assert_eq!(stats.allocated, allocated);
    assert_eq!(stats.retired, retired);
    let (scanned, freed, unreclaimed) = if reclaims {
        // Each block is judged once, by the pass that frees it.
        (retired, retired, 0)
    } else {
        (0, 0, retired)
    };
    assert_eq!(stats.scanned, scanned);
    assert_eq!(stats.freed, freed);
    assert_eq!(stats.unreclaimed, unreclaimed);
    assert_eq!((stats.adopted_batches, stats.freed_via_adoption), (0, 0));
    // No magazines, nothing tallied: a scheme that never
    // reclaims, or the layer switched off (`WFE_BLOCK_CACHE=0`).
    let cached = reclaims && domain.config().block_cache.enabled;
    assert_eq!(
        stats.cache_hits + stats.cache_misses,
        if cached { allocated } else { 0 },
        "{} hits, {} misses",
        stats.cache_hits,
        stats.cache_misses
    );
}

/// Turns a table of schemes into their conformance tests: one module per
/// row holding the scenarios every scheme runs, plus the three that apply
/// to some schemes only —
///
/// * `unreclaimed_is_bounded`: the bound, or `no` for schemes whose memory
///   use a stalled thread can inflate without limit,
/// * `stalled_reader_costs_passes_nothing`: `yes` for schemes whose
///   snapshots name a witness to park pinned blocks under,
/// * `orphan_adoption`: `yes` for schemes that reclaim while running; `no`
///   (a scheme that never scans protects nothing and adopts nothing)
///   generates `orphans_wait_for_domain_drop` instead, and tells
///   `handle_drop_order` and `stats_are_exact_across_slot_reuse` to expect
///   no pass.
///
/// The scheme type must be in scope where the macro is invoked.
#[macro_export]
macro_rules! conformance_suite {
    ($($module:ident: $scheme:ty {
        name: $name:literal,
        progress: $progress:ident,
        unreclaimed_is_bounded: $bound:tt,
        stalled_reader_costs_passes_nothing: $stalled:tt,
        orphan_adoption: $adoption:tt $(,)?
    })+) => {$(
        mod $module {
            #[allow(unused_imports)]
            use super::*;
            use $crate::conformance;
            use $crate::{DomainConfig, Progress, Reclaimer};

            #[test]
            fn naming_and_progress() {
                assert_eq!(<$scheme>::name(), $name);
                assert_eq!(<$scheme>::progress(), Progress::$progress);
            }

            #[test]
            fn basic_lifecycle() {
                conformance::basic_lifecycle::<$scheme>();
            }

            #[test]
            fn all_blocks_freed_on_drop() {
                conformance::all_blocks_freed_on_drop::<$scheme>();
            }

            #[test]
            fn concurrent_stack_stress() {
                conformance::concurrent_stack_stress::<$scheme>(4, 2_000);
            }

            #[test]
            #[should_panic(expected = "era_freq")]
            fn era_freq_zero_is_rejected() {
                <$scheme>::with_config(DomainConfig {
                    era_freq: 0,
                    ..DomainConfig::with_max_threads(1)
                });
            }

            $crate::conformance_suite!(@unreclaimed_is_bounded $scheme, $bound);
            $crate::conformance_suite!(@stalled_reader $scheme, $stalled);
            $crate::conformance_suite!(@orphan_adoption $scheme, $adoption);
        }
    )+};
    (@unreclaimed_is_bounded $scheme:ty, no) => {};
    (@unreclaimed_is_bounded $scheme:ty, $bound:literal) => {
        #[test]
        fn unreclaimed_is_bounded() {
            conformance::unreclaimed_is_bounded::<$scheme>($bound);
        }
    };
    (@stalled_reader $scheme:ty, no) => {};
    (@stalled_reader $scheme:ty, yes) => {
        #[test]
        fn stalled_reader_costs_passes_nothing() {
            conformance::stalled_reader_costs_passes_nothing::<$scheme>();
        }
    };
    (@orphan_adoption $scheme:ty, yes) => {
        #[test]
        fn protection_blocks_reclamation() {
            conformance::protection_blocks_reclamation::<$scheme>();
        }

        #[test]
        fn orphan_adoption() {
            conformance::orphan_adoption_reclaims_exited_threads_blocks::<$scheme>(true);
        }

        #[test]
        fn handle_drop_order() {
            conformance::handle_drop_order::<$scheme>(true);
        }

        #[test]
        fn stats_are_exact_across_slot_reuse() {
            conformance::stats_are_exact_across_slot_reuse::<$scheme>(true);
        }
    };
    (@orphan_adoption $scheme:ty, no) => {
        #[test]
        fn orphans_wait_for_domain_drop() {
            conformance::orphan_adoption_reclaims_exited_threads_blocks::<$scheme>(false);
        }

        #[test]
        fn handle_drop_order() {
            conformance::handle_drop_order::<$scheme>(false);
        }

        #[test]
        fn stats_are_exact_across_slot_reuse() {
            conformance::stats_are_exact_across_slot_reuse::<$scheme>(false);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ebr, He, Hp, Ibr2Ge, Leak};

    crate::conformance_suite! {
        he: He {
            name: "HE",
            progress: LockFree,
            unreclaimed_is_bounded: 4_000,
            stalled_reader_costs_passes_nothing: yes,
            orphan_adoption: yes,
        }
        hp: Hp {
            name: "HP",
            progress: LockFree,
            unreclaimed_is_bounded: 2_000,
            stalled_reader_costs_passes_nothing: no,
            orphan_adoption: yes,
        }
        ebr: Ebr {
            name: "EBR",
            progress: Blocking,
            unreclaimed_is_bounded: no,
            stalled_reader_costs_passes_nothing: yes,
            orphan_adoption: yes,
        }
        ibr: Ibr2Ge {
            name: "2GEIBR",
            progress: LockFree,
            unreclaimed_is_bounded: no,
            stalled_reader_costs_passes_nothing: no,
            orphan_adoption: yes,
        }
        leak: Leak {
            name: "Leak",
            progress: None,
            unreclaimed_is_bounded: no,
            stalled_reader_costs_passes_nothing: no,
            orphan_adoption: no,
        }
    }

    #[test]
    fn drop_counter_counts() {
        let counter = Arc::new(AtomicUsize::new(0));
        drop(DropCounter::new(&counter));
        drop(DropCounter::new(&counter));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn mini_stack_is_lifo_single_threaded() {
        let domain = crate::He::new_default();
        let mut handle = domain.register();
        let stack = MiniStack::new();
        for i in 0..10 {
            stack.push(&mut handle, i, None);
        }
        for i in (0..10).rev() {
            assert_eq!(stack.pop(&mut handle), Some(i));
        }
        assert_eq!(stack.pop(&mut handle), None);
    }

    #[test]
    fn drain_frees_remaining_nodes() {
        let domain = crate::He::new_default();
        let mut handle = domain.register();
        let stack = MiniStack::new();
        for i in 0..5 {
            stack.push(&mut handle, i, None);
        }
        assert_eq!(stack.drain(), 5);
        assert_eq!(stack.pop(&mut handle), None);
    }
}
