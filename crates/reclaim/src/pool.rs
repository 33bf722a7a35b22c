//! Pooled handles for thread pools and short-lived tasks.
//!
//! The paper assumes one long-lived handle per OS thread. Task-style
//! callers break that assumption: a short-lived task that registered its own
//! handle would pay a registry acquire, a final cleanup scan, an orphan-stack
//! push and a registry release *per task*. [`HandlePool`] amortises all of
//! that: dropping a [`PooledHandle`] parks the underlying scheme handle on a
//! lock-free freelist instead of tearing it down, and the next
//! [`check_out`](HandlePool::check_out) revives it in O(1) — no registry
//! traffic, no reservation-table churn, batch and slot carried over.
//!
//! The freelist is a `TypeStableStack` — the same versioned-wide-CAS
//! Treiber stack with recycled nodes that backs
//! [`crate::retired::OrphanStack`] — so check-out/check-in are lock-free and
//! ABA-safe. When the pool itself is dropped, every parked handle is dropped
//! the ordinary way — its final cleanup pass runs and whatever survives is
//! parked on the domain's orphan stack for live threads to adopt, exactly as
//! if the thread had exited.

use core::mem::ManuallyDrop;
use core::ops::{Deref, DerefMut};
use std::sync::Arc;
use wfe_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::api::{Handle, RawHandle, Reclaimer};
use crate::guard::Guard;
use crate::treiber::TypeStableStack;

/// Point-in-time counters of a pool's activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Successful [`check_out`](HandlePool::check_out) calls.
    pub checkouts: u64,
    /// Check-outs served from a parked handle (no registry traffic).
    pub hits: u64,
    /// Check-outs that had to register a fresh handle.
    pub misses: u64,
    /// Check-outs that failed because the registry was exhausted.
    pub exhausted: u64,
    /// Handles currently parked on the freelist.
    pub parked: u64,
}

impl PoolStats {
    /// Fraction of successful check-outs served from the pool, in `0.0..=1.0`
    /// (`0.0` before the first check-out).
    pub fn hit_rate(&self) -> f64 {
        if self.checkouts == 0 {
            0.0
        } else {
            self.hits as f64 / self.checkouts as f64
        }
    }
}

/// A lock-free pool of parked scheme handles on top of one domain.
///
/// Works with every [`Reclaimer`] in the suite. Handles keep their registry
/// slot (and their pending retired batch) while parked, so a shard stays
/// *occupied* as long as handles are parked in it — trading a little scan
/// width for O(1) task-grain check-out/check-in.
///
/// ```
/// use std::sync::Arc;
/// use wfe_reclaim::{DomainConfig, Handle, HandlePool, He, Reclaimer};
///
/// let domain = He::with_config(DomainConfig::with_max_threads(4));
/// let pool = HandlePool::new(Arc::clone(&domain));
///
/// {
///     // First check-out registers a fresh handle (a pool "miss")...
///     let mut task_handle = pool.check_out().expect("registry has room");
///     let block = task_handle.alloc(7u64);
///     unsafe { task_handle.retire(block) };
/// } // ...and dropping the guard *parks* the handle instead of releasing it.
///
/// assert_eq!(pool.stats().parked, 1);
/// let again = pool.check_out().expect("served from the pool");
/// assert_eq!(pool.stats().hits, 1);
/// drop(again);
/// drop(pool); // parked handles tear down normally (orphan parking included)
/// assert_eq!(domain.registry().registered(), 0);
/// ```
// LAYOUT: a check-out or check-in writes the stack head, the `parked` gauge
// and its counters in one burst from one thread, and nothing reads one of
// them without being about to write the others: one line is one transfer per
// burst, a line each would be three.
pub struct HandlePool<R: Reclaimer> {
    domain: Arc<R>,
    /// Parked handles (the lock-free freelist).
    stack: TypeStableStack<R::Handle>,
    parked: AtomicUsize,
    checkouts: AtomicU64,
    hits: AtomicU64,
    exhausted: AtomicU64,
}

impl<R: Reclaimer> HandlePool<R> {
    /// Creates an empty pool over `domain`.
    pub fn new(domain: Arc<R>) -> Arc<Self> {
        Arc::new(Self {
            domain,
            stack: TypeStableStack::new(),
            parked: AtomicUsize::new(0),
            checkouts: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        })
    }

    /// The domain this pool registers handles with.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    /// Checks a handle out: revives a parked handle in O(1) if one is
    /// available, otherwise registers a fresh one. Returns `None` when the
    /// pool is empty *and* the domain's registry is exhausted — which can
    /// happen transiently while a concurrent check-in is mid-park (the
    /// handle still owns its registry slot but is not yet poppable), so
    /// callers running at full registry occupancy should treat `None` as
    /// retryable rather than fatal.
    pub fn check_out(self: &Arc<Self>) -> Option<PooledHandle<R>> {
        let handle = match self.take_parked(true) {
            Some(handle) => {
                self.hits.fetch_add(1, Ordering::Relaxed); // ORDER: pool statistics counter only.
                handle
            }
            None => match self.domain.try_register() {
                Some(handle) => handle,
                // The registry may be exhausted precisely because handles
                // are parked in the pool; re-check the freelist without the
                // opportunistic counter gate before giving up.
                None => match self.take_parked(false) {
                    Some(handle) => {
                        self.hits.fetch_add(1, Ordering::Relaxed); // ORDER: pool statistics counter only.
                        handle
                    }
                    None => {
                        self.exhausted.fetch_add(1, Ordering::Relaxed); // ORDER: pool statistics counter only.
                        return None;
                    }
                },
            },
        };
        self.checkouts.fetch_add(1, Ordering::Relaxed); // ORDER: pool statistics counter only.
        Some(PooledHandle {
            handle: ManuallyDrop::new(handle),
            pool: Arc::clone(self),
        })
    }

    /// Registers and parks fresh handles until `target` handles are parked
    /// (or the registry runs out of slots). Returns the number parked.
    ///
    /// Warming the pool before a run moves registration cost out of the
    /// measured/latency-sensitive window: with `target` at least the peak
    /// handle concurrency, every subsequent check-out is a pool hit. Pair
    /// with [`reset_stats`](Self::reset_stats) to report steady-state
    /// [`hit_rate`](PoolStats::hit_rate).
    pub fn prewarm(&self, target: usize) -> usize {
        while self.parked() < target {
            match self.domain.try_register() {
                Some(handle) => self.park(handle),
                None => break,
            }
        }
        self.parked()
    }

    /// Zeroes the activity counters (`checkouts`/`hits`/`exhausted`) so a
    /// following [`stats`](Self::stats) snapshot reflects only steady-state
    /// traffic — e.g. after a [`prewarm`](Self::prewarm) or warm-up phase.
    /// The `parked` gauge is live state and is not touched.
    pub fn reset_stats(&self) {
        self.checkouts.store(0, Ordering::Relaxed); // ORDER: pool statistics counter only.
        self.hits.store(0, Ordering::Relaxed); // ORDER: pool statistics counter only.
        self.exhausted.store(0, Ordering::Relaxed); // ORDER: pool statistics counter only.
    }

    /// Number of handles currently parked.
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::Acquire) // ORDER: gauge read; pairs with the AcqRel park/unpark updates.
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> PoolStats {
        let checkouts = self.checkouts.load(Ordering::Relaxed); // ORDER: pool statistics counter only.
        let hits = self.hits.load(Ordering::Relaxed); // ORDER: pool statistics counter only.
        PoolStats {
            checkouts,
            hits,
            misses: checkouts.saturating_sub(hits),
            exhausted: self.exhausted.load(Ordering::Relaxed), // ORDER: pool statistics counter only.
            parked: self.parked() as u64,
        }
    }

    /// Pops one parked handle, if any. With `gate`, an opportunistic counter
    /// check skips the wide-CAS on the common empty-pool path (a handle
    /// whose park is in flight may be missed).
    fn take_parked(&self, gate: bool) -> Option<R::Handle> {
        // ORDER: opportunistic empty-pool gate; a stale zero only skips the pop attempt.
        if gate && self.parked.load(Ordering::Acquire) == 0 {
            return None;
        }
        let handle = self.stack.pop()?;
        self.parked.fetch_sub(1, Ordering::AcqRel); // ORDER: keeps the gauge ordered with the stack pop it mirrors.
        Some(handle)
    }

    /// Parks `handle` for the next check-out (called by `PooledHandle::drop`).
    fn park(&self, mut handle: R::Handle) {
        // Return the handle to a quiescent state so a parked handle can never
        // pin memory: `end_op` drops every protection in every scheme
        // (era/interval withdrawal for EBR/2GEIBR, row clear for the rest).
        handle.end_op();
        self.parked.fetch_add(1, Ordering::AcqRel); // ORDER: keeps the gauge ordered with the stack push it mirrors.
        self.stack.push(handle);
    }
}

impl<R: Reclaimer> Drop for HandlePool<R> {
    fn drop(&mut self) {
        // Drop every parked handle the ordinary way: final cleanup pass,
        // orphan-stack parking of the survivors, registry release. (The
        // inner stack would drop them too; doing it explicitly keeps the
        // teardown order obvious.)
        while let Some(handle) = self.stack.pop() {
            drop(handle);
        }
    }
}

impl<R: Reclaimer> core::fmt::Debug for HandlePool<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HandlePool")
            .field("stats", &self.stats())
            .finish()
    }
}

/// A scheme handle checked out of a [`HandlePool`].
///
/// Dereferences to the underlying [`Reclaimer::Handle`]; dropping it returns
/// the handle to the pool instead of tearing it down. It is `Send` for every
/// scheme (`_auto_trait_facts_generic` in the crate root): a task may check
/// it out on one thread and finish with it on another. A [`Guard`] entered
/// on it is `!Send`, so a bracket never moves.
pub struct PooledHandle<R: Reclaimer> {
    handle: ManuallyDrop<R::Handle>,
    pool: Arc<HandlePool<R>>,
}

impl<R: Reclaimer> PooledHandle<R> {
    /// The pool this handle returns to on drop.
    pub fn pool(&self) -> &Arc<HandlePool<R>> {
        &self.pool
    }

    /// [`HandlePool::check_out`], under the name the `task.*` rungs of
    /// `benchmark/` call through the facade's `TaskHandle` alias.
    pub fn check_out(pool: &Arc<HandlePool<R>>) -> Option<Self> {
        pool.check_out()
    }

    /// Runs `f` inside one operation bracket (`f(self.enter())`), for the
    /// `task.with_guard_ns` rung of `benchmark/`.
    pub fn with_guard<T>(&mut self, f: impl FnOnce(Guard<'_, R::Handle>) -> T) -> T {
        f(self.enter())
    }

    /// Parks the handle now (the same as dropping it), for the
    /// `task.checkout_release_ns` rung of `benchmark/`.
    pub fn release(self) {}
}

impl<R: Reclaimer> Deref for PooledHandle<R> {
    type Target = R::Handle;

    fn deref(&self) -> &R::Handle {
        &self.handle
    }
}

impl<R: Reclaimer> DerefMut for PooledHandle<R> {
    fn deref_mut(&mut self) -> &mut R::Handle {
        &mut self.handle
    }
}

impl<R: Reclaimer> Drop for PooledHandle<R> {
    fn drop(&mut self) {
        // SAFETY: `handle` is never touched again after being taken here.
        let handle = unsafe { ManuallyDrop::take(&mut self.handle) };
        self.pool.park(handle);
    }
}

impl<R: Reclaimer> core::fmt::Debug for PooledHandle<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PooledHandle")
            .field("thread_id", &self.handle.thread_id())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::DomainConfig;
    use crate::block::Linked;
    use crate::conformance::DropCounter;
    use crate::guard::Protected;
    use crate::he::He;
    use crate::ptr::Atomic;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};
    // Through the sync layer so the tests compile under `--cfg wfe_model`.
    use wfe_sync::atomic::AtomicUsize as StdAtomicUsize;
    use wfe_sync::atomic::Ordering::SeqCst;

    #[test]
    fn checkin_parks_and_checkout_revives_the_same_slot() {
        let domain = He::with_config(DomainConfig::with_max_threads(4));
        let pool = HandlePool::new(Arc::clone(&domain));
        let first = pool.check_out().unwrap();
        let tid = first.thread_id();
        drop(first);
        assert_eq!(pool.parked(), 1);
        assert_eq!(domain.registry().registered(), 1, "slot kept while parked");
        let second = pool.check_out().unwrap();
        assert_eq!(second.thread_id(), tid, "parked handle revived");
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn check_out_returns_none_only_when_pool_and_registry_are_empty() {
        let domain = He::with_config(DomainConfig::with_max_threads(1));
        let pool = HandlePool::new(Arc::clone(&domain));
        let only = pool.check_out().unwrap();
        assert!(
            pool.check_out().is_none(),
            "registry exhausted, none parked"
        );
        assert_eq!(pool.stats().exhausted, 1);
        drop(only);
        assert!(pool.check_out().is_some(), "served from the pool");
    }

    #[test]
    fn parked_handles_never_pin_memory() {
        // A handle that protected a block and was then checked in must not
        // keep the block alive: parking withdraws every reservation.
        let domain = He::with_config(DomainConfig::with_max_threads(4));
        let pool = HandlePool::new(Arc::clone(&domain));
        let mut owner = domain.register();
        let node = owner.alloc(3u64);
        let root: Atomic<u64> = Atomic::new(node);

        let mut reader = pool.check_out().unwrap();
        let seen = reader.protect(&root, 0, core::ptr::null_mut());
        assert_eq!(seen, node);
        drop(reader); // parked: reservation withdrawn

        root.store(core::ptr::null_mut(), SeqCst);
        // SAFETY: `node` was just unlinked from `root`; retired exactly once.
        unsafe { owner.retire(node) };
        owner.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0, "parked handle pins nothing");
    }

    #[test]
    fn pool_drop_with_parked_handles_releases_slots_and_frees_blocks() {
        let drops = Arc::new(StdAtomicUsize::new(0));
        let domain = He::with_config(DomainConfig {
            // No automatic scans: the parked handles keep non-empty batches.
            cleanup_freq: usize::MAX,
            ..DomainConfig::with_max_threads(4)
        });
        let pool = HandlePool::new(Arc::clone(&domain));
        for _ in 0..3 {
            let mut guard = pool.check_out().unwrap();
            let block = guard.alloc(DropCounter::new(&drops));
            // SAFETY: the block was never published; retired exactly once.
            unsafe { guard.retire(block) };
        }
        assert_eq!(pool.parked(), 1, "single-threaded churn reuses one handle");
        drop(pool);
        assert_eq!(
            domain.registry().registered(),
            0,
            "pool drop releases every slot"
        );
        drop(domain);
        assert_eq!(
            drops.load(SeqCst),
            3,
            "every retired block freed exactly once"
        );
    }

    #[test]
    fn prewarm_fills_the_pool_and_reset_stats_gives_steady_state_rates() {
        let domain = He::with_config(DomainConfig::with_max_threads(4));
        let pool = HandlePool::new(Arc::clone(&domain));
        assert_eq!(pool.prewarm(3), 3);
        assert_eq!(pool.parked(), 3);
        assert_eq!(pool.prewarm(16), 4, "clamped to registry capacity");

        let held = pool.check_out().unwrap();
        drop(held);
        pool.reset_stats();
        let again = pool.check_out().unwrap();
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 1);
        assert!(
            (stats.hit_rate() - 1.0).abs() < 1e-9,
            "all hits after warm-up"
        );
        drop(again);
    }

    #[test]
    fn concurrent_check_out_in_stress() {
        const THREADS: usize = 8;
        const TASKS: usize = 500;
        let domain = He::with_config(DomainConfig::with_max_threads(THREADS));
        let pool = HandlePool::new(Arc::clone(&domain));
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..TASKS {
                        let mut guard = loop {
                            match pool.check_out() {
                                Some(guard) => break guard,
                                None => std::thread::yield_now(),
                            }
                        };
                        let block = guard.alloc(1u64);
                        // SAFETY: the block was never published; retired exactly once.
                        unsafe { guard.retire(block) };
                    }
                });
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.checkouts, (THREADS * TASKS) as u64);
        assert!(
            stats.hits > stats.checkouts / 2,
            "steady-state churn is served from the pool (hits = {}, checkouts = {})",
            stats.hits,
            stats.checkouts
        );
        drop(pool);
        assert_eq!(domain.registry().registered(), 0);
    }

    #[test]
    fn a_shield_leased_on_a_pooled_handle_protects_after_a_park_and_a_check_out_elsewhere() {
        // The shield's cell names the handle's row in the domain, not the
        // handle's own bytes: parking moves the handle into the pool, and a
        // check-out on another thread revives it with the same row.
        let domain = He::with_config(DomainConfig::with_max_threads(2));
        let pool = HandlePool::new(Arc::clone(&domain));
        let handle = pool.check_out().unwrap();
        let tid = handle.thread_id();
        let mut shield = handle.shield::<u64>().unwrap();
        drop(handle);
        assert_eq!(pool.parked(), 1);
        let mut writer = domain.register();
        let node = writer.alloc(7u64);
        let root = Atomic::new(node);
        let node = node as usize;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut handle = pool.check_out().unwrap();
                assert_eq!(handle.thread_id(), tid, "the parked handle was revived");
                handle.with_guard(|guard| {
                    let p = shield.protect(&guard, &root, None);
                    root.store(core::ptr::null_mut(), SeqCst);
                    // SAFETY: just unlinked from its only root; retired once.
                    unsafe { writer.retire(node as *mut Linked<u64>) };
                    writer.force_cleanup();
                    assert_eq!(domain.stats().unreclaimed, 1, "the shield pins the block");
                    // SAFETY: `shield` does not re-protect while `p` is in use.
                    assert_eq!(unsafe { p.as_ref() }, Some(&7));
                });
                drop(shield);
            });
        });
        writer.force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
    }

    #[test]
    fn checked_out_handles_move_between_threads() {
        // Four threads in a ring: each checks a handle out, allocates under
        // it, and sends handle and block to its neighbour, which retires the
        // block under that same handle and drops (parks) it there.
        const THREADS: usize = 4;
        const CHECKOUTS: usize = 2_000;
        type Moved = (PooledHandle<He>, usize);
        let domain = He::with_config(DomainConfig::with_max_threads(8));
        let pool = HandlePool::new(Arc::clone(&domain));
        let deadline = Instant::now() + Duration::from_secs(30);
        let (senders, inboxes): (Vec<_>, Vec<_>) =
            (0..THREADS).map(|_| mpsc::channel::<Moved>()).unzip();

        std::thread::scope(|scope| {
            for (thread, inbox) in inboxes.into_iter().enumerate() {
                let (pool, next) = (&pool, senders[(thread + 1) % THREADS].clone());
                scope.spawn(move || {
                    let mut received = 0;
                    let finish = |(mut handle, node): Moved| {
                        handle.with_guard(|guard| {
                            let node = node as *mut Linked<u64>;
                            // SAFETY: never published; retired exactly once,
                            // by the thread the block was sent to.
                            unsafe { Protected::from_unlinked(node).retire_in(&guard) };
                        });
                    };
                    for i in 0..CHECKOUTS / THREADS {
                        let mut handle = loop {
                            if let Some(handle) = pool.check_out() {
                                break handle;
                            }
                            // The registry may be short of exactly the
                            // handles waiting in this thread's inbox.
                            while let Ok(moved) = inbox.try_recv() {
                                finish(moved);
                                received += 1;
                            }
                            let stats = pool.stats();
                            assert!(Instant::now() < deadline, "check-out starved: {stats:?}");
                            std::thread::yield_now();
                        };
                        let node = handle.with_guard(|guard| guard.alloc(i as u64));
                        next.send((handle, node as usize)).unwrap();
                    }
                    while received < CHECKOUTS / THREADS {
                        let left = deadline.saturating_duration_since(Instant::now());
                        match inbox.recv_timeout(left) {
                            Ok(moved) => {
                                finish(moved);
                                received += 1;
                            }
                            Err(_) => panic!("handle never arrived: {:?}", pool.stats()),
                        }
                    }
                });
            }
        });

        let stats = pool.stats();
        assert_eq!(stats.checkouts, CHECKOUTS as u64);
        assert!(
            stats.hits > stats.checkouts / 2,
            "moved handles park and are served again (hits = {}, checkouts = {})",
            stats.hits,
            stats.checkouts
        );
        drop(pool);
        assert_eq!(domain.registry().registered(), 0);
    }
}
