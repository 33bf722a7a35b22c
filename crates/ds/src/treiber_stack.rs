//! Treiber's lock-free stack (Figure 2 of the paper).
//!
//! The stack is the paper's running example for the reclamation API: `push`
//! allocates a node through `alloc_block`, `pop` protects the top through a
//! [`Shield`] inside a [`Guard`] bracket, unlinks it with
//! CAS and retires it.

use core::mem::ManuallyDrop;
use core::ptr;
use std::sync::Arc;
use wfe_sync::atomic::Ordering;

use wfe_reclaim::{Atomic, Guard, Handle, Linked, Reclaimer, Shield};
use wfe_sync::Backoff;

/// A node of the stack.
pub struct Node<T> {
    next: *mut Linked<Node<T>>,
    value: ManuallyDrop<T>,
}

/// Treiber's lock-free stack, parameterised by the reclamation scheme `R`.
///
/// Every method takes the calling thread's reclamation handle; handles are
/// obtained from the same domain that was passed to [`TreiberStack::new`].
// LAYOUT: one writer-hot word — `head`, which every push and pop both reads
// and CASes — beside an `Arc` nobody writes: nothing to separate.
pub struct TreiberStack<T, R: Reclaimer> {
    head: Atomic<Node<T>>,
    domain: Arc<R>,
}

// SAFETY: nodes hold `T` by value; all shared-pointer access goes through the reclamation protocol, so sending the
// structure is sending the `T`s it owns.
unsafe impl<T: Send, R: Reclaimer> Send for TreiberStack<T, R> {}
// SAFETY: every `&self` method is lock-free-safe by construction (the
// algorithm's own synchronisation); `T: Send` suffices because values
// are moved in/out, never shared by reference across threads.
unsafe impl<T: Send, R: Reclaimer> Sync for TreiberStack<T, R> {}

impl<T, R: Reclaimer> TreiberStack<T, R> {
    /// Reservation slots the stack needs per thread: only the top node.
    pub const REQUIRED_SLOTS: usize = 1;

    /// Leases the one shield `pop` needs from its guard.
    fn top_shield<'g>(guard: &'g Guard<'_, R::Handle>) -> Shield<'g, Node<T>, R::Handle> {
        guard
            .shield()
            .expect("TreiberStack: reservation slots exhausted (pop needs one Shield)")
    }

    /// Creates an empty stack guarded by `domain`.
    pub fn new(domain: Arc<R>) -> Self {
        debug_assert!(
            domain.config().slots_per_thread >= Self::REQUIRED_SLOTS,
            "TreiberStack needs {} reservation slots per thread, domain provides {}",
            Self::REQUIRED_SLOTS,
            domain.config().slots_per_thread,
        );
        Self {
            head: Atomic::null(),
            domain,
        }
    }

    /// The reclamation domain guarding this stack.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    /// Pushes `value` (the paper's `enqueue`, Figure 2 lines 24-31).
    pub fn push(&self, handle: &mut R::Handle, value: T) {
        let node = handle.alloc(Node {
            next: ptr::null_mut(),
            value: ManuallyDrop::new(value),
        });
        let mut backoff = Backoff::new();
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
            backoff.spin();
        }
    }

    /// Pops the most recently pushed value (the paper's `dequeue`, Figure 2
    /// lines 9-22).
    pub fn pop(&self, handle: &mut R::Handle) -> Option<T> {
        let guard = handle.enter();
        let mut top = Self::top_shield(&guard);
        let mut backoff = Backoff::new();
        loop {
            let node = top.protect(&guard, &self.head, None);
            // SAFETY: `top` protects `node` and is only re-protected at the
            // top of the next loop iteration, after this reference's last use.
            let node_ref = unsafe { node.as_ref() }?; // empty stack
            let next = node_ref.next;
            if self
                .head
                .compare_exchange(node.as_raw(), next, Ordering::AcqRel, Ordering::Acquire) // ORDER: success publishes the unlink; failure observes the winning pop/push.
                .is_ok()
            {
                // We won the CAS, so we own the value; the node itself stays
                // alive until every in-flight reader is done.
                // SAFETY: the unlink CAS transferred ownership of the value
                // to us; nobody else reads it out.
                let value = unsafe { ptr::read(&*node_ref.value) };
                // SAFETY: the same CAS unlinked the node; it is retired once.
                unsafe { node.retire_in(&guard) };
                return Some(value);
            }
            backoff.spin();
        }
    }

    /// Returns `true` if the stack appeared empty at the moment of the call.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire).is_null() // ORDER: emptiness snapshot; pairs with the AcqRel head CASes.
    }
}

impl<T, R: Reclaimer> Drop for TreiberStack<T, R> {
    fn drop(&mut self) {
        // Exclusive access: free the remaining nodes directly, dropping the
        // values they still own.
        let mut cur = self.head.load(Ordering::Relaxed); // ORDER: Drop has exclusive access.
        while !cur.is_null() {
            // SAFETY: `Drop` has exclusive access; every remaining node is
            // freed exactly once and still owns its value.
            unsafe {
                let next = (*cur).value.next;
                ManuallyDrop::drop(&mut (*cur).value.value);
                Linked::dealloc(cur);
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfe_reclaim::{DomainConfig, Ebr, He, Hp, Ibr2Ge, Leak};
    use wfe_sync::atomic::{AtomicUsize, Ordering::SeqCst};

    fn lifo_single_threaded<R: Reclaimer>() {
        let domain = R::new_default();
        let stack = TreiberStack::<u64, R>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        assert!(stack.is_empty());
        for i in 0..100 {
            stack.push(&mut handle, i);
        }
        assert!(!stack.is_empty());
        for i in (0..100).rev() {
            assert_eq!(stack.pop(&mut handle), Some(i));
        }
        assert_eq!(stack.pop(&mut handle), None);
    }

    #[test]
    fn lifo_order_under_every_scheme() {
        lifo_single_threaded::<He>();
        lifo_single_threaded::<Ebr>();
        lifo_single_threaded::<Hp>();
        lifo_single_threaded::<Ibr2Ge>();
        lifo_single_threaded::<Leak>();
    }

    #[test]
    fn values_are_dropped_exactly_once() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        {
            let domain = He::new_default();
            let stack = TreiberStack::<Counted, He>::new(Arc::clone(&domain));
            let mut handle = domain.register();
            for _ in 0..10 {
                stack.push(&mut handle, Counted(Arc::clone(&drops)));
            }
            // Pop half; their values are dropped by the caller right away.
            for _ in 0..5 {
                drop(stack.pop(&mut handle));
            }
            assert_eq!(drops.load(SeqCst), 5);
            // The rest are dropped by the stack's Drop.
        }
        assert_eq!(drops.load(SeqCst), 10);
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 5_000;
        let domain = He::with_config(DomainConfig::with_max_threads(THREADS));
        let stack = TreiberStack::<u64, He>::new(Arc::clone(&domain));
        let popped_sum = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let stack = &stack;
                let domain = Arc::clone(&domain);
                let popped_sum = &popped_sum;
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 0..PER_THREAD {
                        stack.push(&mut handle, t * PER_THREAD + i);
                        if let Some(v) = stack.pop(&mut handle) {
                            popped_sum.fetch_add(v as usize, SeqCst);
                        }
                    }
                });
            }
        });
        // Everything pushed was popped (each thread pops right after pushing,
        // and the stack never runs dry overall), so the sums must match.
        let mut handle = domain.register();
        let mut rest = 0usize;
        while let Some(v) = stack.pop(&mut handle) {
            rest += v as usize;
        }
        let expected: usize = (0..(THREADS as u64 * PER_THREAD)).map(|v| v as usize).sum();
        assert_eq!(popped_sum.load(SeqCst) + rest, expected);
    }
}
