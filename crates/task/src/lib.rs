//! Async-native reclamation: the task-grain layer over [`HandlePool`].
//!
//! The paper's deployment model is one long-lived handle per OS thread. An
//! async runtime breaks that twice over: a *task* is the unit of work, it
//! migrates between worker threads at every `.await`, and it can stay parked
//! at a suspension point for arbitrarily long. The ingredients below close
//! the gap:
//!
//! * [`TaskHandle`] — a **`Send`-able** handle a task owns for its whole
//!   life, checked out of a [`HandlePool`] in O(1) and parked back on drop.
//!   It moves with the task across worker threads, and its pending retired
//!   batch, registry slot and leased [`Shield`]s move with it.
//! * [`AsyncGuard`] — the operation bracket, **scoped to one poll**. It is
//!   deliberately `!Send`, so holding it across an `.await` makes the task
//!   future `!Send` and executor spawns reject it *at compile time* (see the
//!   `compile_fail` test below). Between polls the task holds no
//!   protection — which is exactly why a parked task cannot stall
//!   reclamation the way a parked EBR thread does.
//! * [`TaskHandle::with_guard`] — the poll-bracket API: runs a synchronous
//!   closure under a fresh guard. The closure shape makes the
//!   bracket-per-poll discipline the path of least resistance; state that
//!   must survive the poll travels in owned [`Shield`] leases and in values
//!   copied out of [`Protected`](wfe_reclaim::Protected) pointers.
//!
//! ```
//! use std::sync::Arc;
//! use wfe_reclaim::{Atomic, HandlePool, He, Reclaimer, ReclaimerConfig};
//! use wfe_task::TaskHandle;
//!
//! let domain = He::with_config(ReclaimerConfig::with_max_threads(4));
//! let pool = HandlePool::new(Arc::clone(&domain));
//! let rt = mini_rt::Runtime::new(2);
//!
//! let task = {
//!     let pool = Arc::clone(&pool);
//!     rt.spawn(async move {
//!         let mut task = TaskHandle::acquire(&pool).await;
//!         let node = task.with_guard(|guard| guard.alloc(7u64));
//!         let root: Atomic<u64> = Atomic::new(node);
//!         let mut shield = task.shield::<u64>().unwrap(); // survives awaits
//!         mini_rt::yield_now().await; // no protection held across this
//!         task.with_guard(|guard| {
//!             let value = shield.protect(&guard, &root, None);
//!             // SAFETY: `shield` does not re-protect while `value` is live.
//!             assert_eq!(unsafe { value.as_ref() }, Some(&7));
//!         });
//!         drop(shield);
//!     }) // dropping the TaskHandle parks the scheme handle for the next task
//! };
//! rt.block_on(task);
//! assert_eq!(pool.stats().parked, 1);
//! ```
//!
//! # Why `AsyncGuard` is `!Send` (and what that buys)
//!
//! An operation bracket pins scheme state: EBR pins its epoch for the whole
//! bracket, WFE/HE publish era reservations. If a bracket could span an
//! `.await`, a task parked indefinitely would stall reclamation — the exact
//! pathology the paper's stalled-thread analysis is about, reintroduced at
//! task grain. `AsyncGuard` wraps the suite's [`Guard`], which carries a raw
//! pointer to the handle and is therefore `!Send`; a future holding one
//! across a suspension point is `!Send` too, and a work-stealing executor's
//! `spawn` (e.g. `mini_rt::Runtime::spawn`) rejects it:
//!
//! ```compile_fail
//! use std::sync::Arc;
//! use wfe_reclaim::{HandlePool, He, Reclaimer, ReclaimerConfig};
//! use wfe_task::TaskHandle;
//!
//! let domain = He::with_config(ReclaimerConfig::with_max_threads(4));
//! let pool = HandlePool::new(Arc::clone(&domain));
//! let rt = mini_rt::Runtime::new(2);
//! rt.spawn(async move {
//!     let mut task = TaskHandle::check_out(&pool).unwrap();
//!     let guard = task.enter(); // `AsyncGuard` is `!Send`...
//!     mini_rt::yield_now().await; // ERROR: ...so this future is `!Send`
//!     drop(guard);
//! });
//! ```
//!
//! The same holds for a [`Protected`](wfe_reclaim::Protected) pointer — it
//! borrows the guard, so it cannot cross the `.await` either:
//!
//! ```compile_fail
//! use std::sync::Arc;
//! use wfe_reclaim::{Atomic, HandlePool, He, Reclaimer, ReclaimerConfig};
//! use wfe_task::TaskHandle;
//!
//! let domain = He::with_config(ReclaimerConfig::with_max_threads(4));
//! let pool = HandlePool::new(Arc::clone(&domain));
//! let rt = mini_rt::Runtime::new(2);
//! rt.spawn(async move {
//!     let mut task = TaskHandle::check_out(&pool).unwrap();
//!     let mut shield = task.shield::<u64>().unwrap();
//!     let root: Atomic<u64> = Atomic::default();
//!     let guard = task.enter();
//!     let value = shield.protect(&guard, &root, None);
//!     mini_rt::yield_now().await; // ERROR: `value` borrows the `!Send` guard
//!     let _ = value;
//! });
//! ```
//!
//! What *does* cross `.await` safely: the [`TaskHandle`] itself (`Send`
//! whenever the scheme handle is, which the [`Reclaimer`] contract
//! requires), owned [`Shield`] leases (`Send + Sync`), and plain values read
//! under a past bracket.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use core::future::Future;
use core::ops::Deref;
use core::pin::Pin;
use core::task::{Context, Poll};
use std::sync::Arc;

use wfe_reclaim::{
    Guard, Handle, HandlePool, PooledHandle, RawHandle, Reclaimer, Shield, ShieldError,
};

/// A `Send`-able per-task reclamation handle, checked out of a
/// [`HandlePool`] and parked back when dropped.
///
/// The handle is owned by the task for its entire life, so it travels with
/// the task across worker threads and across `.await` points; protection is
/// only ever taken through a poll-scoped [`AsyncGuard`] (see
/// [`with_guard`](Self::with_guard) / [`enter`](Self::enter)).
///
/// Dropping the `TaskHandle` checks the scheme handle back into the pool;
/// parking runs `end_op`, so a parked handle never pins memory. [`Shield`]s
/// leased from the handle are owned values — drop them before releasing the
/// handle, or their slots stay leased for the next task that revives it.
pub struct TaskHandle<R: Reclaimer> {
    handle: PooledHandle<R>,
}

// Compile-time facts, stated as the `static_assertions` idiom (const fns,
// no dependency): a `TaskHandle` is `Send` for every scheme — this is the
// property the whole crate exists to provide — because `Reclaimer::Handle`
// is `Send` by contract and parking/reviving moves the handle wholesale.
const fn _assert_send<T: Send>() {}
#[allow(dead_code)] // instantiated implicitly: the bound must hold for all R
const fn _task_handle_is_send_for_every_scheme<R: Reclaimer>() {
    _assert_send::<TaskHandle<R>>();
}

impl<R: Reclaimer> TaskHandle<R> {
    /// Checks a handle out of `pool` without waiting. Returns `None` when
    /// the pool is empty and the registry is exhausted — transient while a
    /// concurrent check-in is mid-park, so async callers should prefer
    /// [`acquire`](Self::acquire).
    pub fn check_out(pool: &Arc<HandlePool<R>>) -> Option<Self> {
        pool.check_out().map(|handle| Self { handle })
    }

    /// Checks a handle out of `pool`, cooperatively yielding (one
    /// self-wake per attempt, executor-agnostic) while the pool and registry
    /// are exhausted. At full registry occupancy this resolves as soon as a
    /// concurrent task parks its handle.
    pub async fn acquire(pool: &Arc<HandlePool<R>>) -> Self {
        loop {
            if let Some(task) = Self::check_out(pool) {
                return task;
            }
            YieldOnce { yielded: false }.await;
        }
    }

    /// Opens a poll-scoped operation bracket. The returned [`AsyncGuard`] is
    /// `!Send`: it must be dropped before the next `.await`, and the
    /// compiler enforces it for any future an executor requires to be
    /// `Send` (see the [module docs](self)).
    ///
    /// Prefer [`with_guard`](Self::with_guard), which scopes the bracket
    /// syntactically.
    pub fn enter(&mut self) -> AsyncGuard<'_, R> {
        AsyncGuard {
            guard: self.handle.enter(),
        }
    }

    /// The poll-bracket API: runs `f` under a fresh [`AsyncGuard`], closing
    /// the bracket when the closure returns. The closure is synchronous by
    /// construction — there is no way to `.await` inside it — so protection
    /// taken here is provably poll-scoped.
    ///
    /// State that must survive the poll leaves the closure as the return
    /// value (copied out of protected blocks) or lives in owned [`Shield`]
    /// leases taken with [`shield`](Self::shield) before the bracket.
    pub fn with_guard<T>(&mut self, f: impl for<'g> FnOnce(AsyncGuard<'g, R>) -> T) -> T {
        f(self.enter())
    }

    /// Leases an owned reservation slot from the underlying handle.
    ///
    /// The [`Shield`] is `Send + Sync` and independent of any guard, so it
    /// carries reservation *capacity* (not protection — that is always
    /// poll-scoped) across `.await` points. A shield needed within one poll
    /// only is cheaper leased from the bracket itself
    /// ([`Guard::shield`] through the [`AsyncGuard`]'s deref).
    pub fn shield<T>(&self) -> Result<Shield<'static, T, R::Handle>, ShieldError> {
        Handle::shield(&*self.handle)
    }

    /// Dense thread-slot id of the underlying scheme handle.
    pub fn thread_id(&self) -> usize {
        self.handle.thread_id()
    }

    /// The pool this handle parks into on drop.
    pub fn pool(&self) -> &Arc<HandlePool<R>> {
        self.handle.pool()
    }

    /// Escape hatch to the underlying scheme handle, for driving the suite's
    /// synchronous data-structure operations (`map.insert(task.raw(), ..)`):
    /// each such operation opens and closes its own bracket internally.
    ///
    /// The borrow is synchronous; any [`Guard`] entered through it is `!Send`
    /// exactly like an [`AsyncGuard`]. Only the bracket-less raw SPI calls
    /// (`begin_op` without `end_op`) can leak protection across an `.await`
    /// from here — the `kv-async` figure injects precisely that misuse to
    /// show what a stalled bracket costs each scheme.
    pub fn raw(&mut self) -> &mut R::Handle {
        &mut self.handle
    }

    /// Checks the handle back into its pool now (identical to dropping it).
    pub fn release(self) {
        drop(self);
    }
}

impl<R: Reclaimer> core::fmt::Debug for TaskHandle<R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TaskHandle")
            .field("thread_id", &self.thread_id())
            .finish()
    }
}

/// A poll-scoped operation bracket: [`Guard`] semantics (begin_op on entry,
/// end_op on drop) with the additional guarantee that it cannot be held
/// across an `.await` in any `Send`-spawned task, because it is `!Send`.
///
/// Dereferences to the underlying [`Guard`], so
/// [`Shield::protect`] and the rest of the guard API apply unchanged:
/// `shield.protect(&guard, &src, None)`.
pub struct AsyncGuard<'h, R: Reclaimer> {
    /// The wrapped bracket. `Guard` holds a raw pointer to the handle, which
    /// is what makes it — and therefore this wrapper — `!Send`/`!Sync`.
    guard: Guard<'h, R::Handle>,
}

impl<'h, R: Reclaimer> Deref for AsyncGuard<'h, R> {
    type Target = Guard<'h, R::Handle>;

    fn deref(&self) -> &Guard<'h, R::Handle> {
        &self.guard
    }
}

impl<R: Reclaimer> core::fmt::Debug for AsyncGuard<'_, R> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AsyncGuard")
            .field("thread_id", &self.guard.thread_id())
            .finish()
    }
}

/// Executor-agnostic single yield: wakes itself and returns `Pending` once,
/// so the task re-queues behind its siblings. Used by [`TaskHandle::acquire`]
/// to wait for pool capacity without blocking a worker thread.
struct YieldOnce {
    yielded: bool,
}

impl Future for YieldOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfe_core::Wfe;
    use wfe_reclaim::{Atomic, He, ReclaimerConfig};

    #[test]
    fn check_out_park_revive_round_trip() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(4));
        let pool = HandlePool::new(Arc::clone(&domain));
        let task = TaskHandle::check_out(&pool).unwrap();
        let tid = task.thread_id();
        task.release();
        assert_eq!(pool.stats().parked, 1);
        let revived = TaskHandle::check_out(&pool).unwrap();
        assert_eq!(revived.thread_id(), tid, "parked handle revived in O(1)");
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn with_guard_brackets_protect_and_retire() {
        let domain = Wfe::with_config(ReclaimerConfig::with_max_threads(2));
        let pool = HandlePool::new(Arc::clone(&domain));
        let mut task = TaskHandle::check_out(&pool).unwrap();
        let mut shield = task.shield::<u64>().unwrap();

        let node = task.with_guard(|guard| guard.alloc(11u64));
        let root: Atomic<u64> = Atomic::new(node);
        let copied = task.with_guard(|guard| {
            let value = shield.protect(&guard, &root, None);
            // SAFETY: `shield` does not re-protect while `value` is live.
            unsafe { value.as_ref() }.copied()
        });
        assert_eq!(copied, Some(11));

        root.store(core::ptr::null_mut(), wfe_sync_ordering());
        task.with_guard(|guard| {
            // SAFETY: `node` was just unlinked from `root`; retired once.
            unsafe { wfe_reclaim::Protected::from_unlinked(node).retire_in(&guard) };
        });
        drop(shield);
        task.raw().force_cleanup();
        assert_eq!(domain.stats().unreclaimed, 0);
    }

    // The shipped crate stays ordering-agnostic (orderings come from the
    // caller), so only the tests pull in wfe-sync — as a dev-dependency —
    // to source their orderings from the interposition layer like every
    // other atomic in the workspace.
    fn wfe_sync_ordering() -> wfe_sync::atomic::Ordering {
        wfe_sync::atomic::Ordering::SeqCst
    }

    #[test]
    fn shields_and_values_survive_parking_but_protection_does_not() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(4));
        let pool = HandlePool::new(Arc::clone(&domain));
        let mut owner = domain.register();
        let node = owner.alloc(3u64);
        let root: Atomic<u64> = Atomic::new(node);

        let mut task = TaskHandle::check_out(&pool).unwrap();
        let mut shield = task.shield::<u64>().unwrap();
        let seen = task.with_guard(|guard| {
            let value = shield.protect(&guard, &root, None);
            // SAFETY: `shield` does not re-protect while `value` is live.
            unsafe { value.as_ref() }.copied()
        });
        assert_eq!(seen, Some(3));
        task.release(); // parks: end_op, reservation withdrawn

        root.store(core::ptr::null_mut(), wfe_sync_ordering());
        // SAFETY: just unlinked; retired exactly once.
        unsafe { owner.retire(node) };
        owner.force_cleanup();
        assert_eq!(
            domain.stats().unreclaimed,
            0,
            "a parked task handle pins nothing"
        );
        drop(shield); // the owned lease outlived the park — by design
    }

    #[test]
    fn acquire_yields_until_a_handle_parks() {
        let domain = He::with_config(ReclaimerConfig::with_max_threads(1));
        let pool = HandlePool::new(Arc::clone(&domain));
        let rt = mini_rt::Runtime::new(2);
        let only = TaskHandle::check_out(&pool).unwrap();
        assert!(TaskHandle::check_out(&pool).is_none(), "registry exhausted");

        let waiter = {
            let pool = Arc::clone(&pool);
            rt.spawn(async move {
                let task = TaskHandle::acquire(&pool).await;
                task.thread_id()
            })
        };
        // Park the only handle from this thread; the waiter's yield loop
        // picks it up.
        let tid = only.thread_id();
        drop(only);
        assert_eq!(rt.block_on(waiter), tid);
    }

    #[test]
    fn task_handles_migrate_across_workers_with_the_task() {
        const TASKS: usize = 2_000;
        let domain = Wfe::with_config(ReclaimerConfig::with_max_threads(8));
        let pool = HandlePool::new(Arc::clone(&domain));
        let rt = mini_rt::Runtime::new(4);
        let handles: Vec<_> = (0..TASKS)
            .map(|i| {
                let pool = Arc::clone(&pool);
                rt.spawn(async move {
                    let mut task = TaskHandle::acquire(&pool).await;
                    // Raw pointers are `!Send`; a block owned exclusively by
                    // this task crosses the suspension point as an address.
                    let node = task.with_guard(|guard| guard.alloc(i as u64)) as usize;
                    mini_rt::yield_now().await; // may hop workers here
                    task.with_guard(|guard| {
                        let node = node as *mut wfe_reclaim::Linked<u64>;
                        // SAFETY: never published; retired exactly once.
                        unsafe { wfe_reclaim::Protected::from_unlinked(node).retire_in(&guard) };
                    });
                })
            })
            .collect();
        rt.block_on(async {
            for handle in handles {
                handle.await;
            }
        });
        let stats = pool.stats();
        assert_eq!(stats.checkouts, TASKS as u64);
        assert!(
            stats.hits > stats.checkouts / 2,
            "steady-state churn is served from the pool (hits = {}/{})",
            stats.hits,
            stats.checkouts
        );
        drop(pool);
        assert_eq!(domain.registry().registered(), 0);
    }
}
