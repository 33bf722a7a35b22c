//! Michael-Scott lock-free FIFO queue.
//!
//! Not part of the paper's figures, but included as the canonical lock-free
//! queue baseline: it exercises the same two-slot protection pattern
//! (head + next) that the wait-free queues need, with far simpler logic, and
//! it is what the CRTurn queue degenerates to when helping is never needed.

use core::mem::ManuallyDrop;
use core::ptr;
use std::sync::Arc;
use wfe_sync::atomic::Ordering;

use wfe_reclaim::{Atomic, Guard, Handle, Linked, Reclaimer, Shield};
use wfe_sync::{Backoff, CachePadded};

use crate::traits::ConcurrentQueue;

/// A queue node; the value lives in the node *after* the sentinel.
pub struct Node<T> {
    value: Option<ManuallyDrop<T>>,
    next: Atomic<Node<T>>,
}

/// Michael-Scott lock-free queue, parameterised by the reclamation scheme.
///
/// # Layout
///
/// `head` and `tail` each own a 128-byte line: a dequeue's head swing no
/// longer invalidates the line an enqueuer reads `tail` from, nor the
/// reverse (`queue_pair_contended/MS`).
pub struct MichaelScottQueue<T, R: Reclaimer> {
    head: CachePadded<Atomic<Node<T>>>,
    tail: CachePadded<Atomic<Node<T>>>,
    domain: Arc<R>,
}

// SAFETY: nodes hold `T` by value; all shared-pointer access goes through the reclamation protocol, so sending the
// structure is sending the `T`s it owns.
unsafe impl<T: Send, R: Reclaimer> Send for MichaelScottQueue<T, R> {}
// SAFETY: every `&self` method is lock-free-safe by construction (the
// algorithm's own synchronisation); `T: Send` suffices because values
// are moved in/out, never shared by reference across threads.
unsafe impl<T: Send, R: Reclaimer> Sync for MichaelScottQueue<T, R> {}

impl<T, R: Reclaimer> MichaelScottQueue<T, R> {
    /// Reservation slots the queue needs per thread: the head (or tail)
    /// snapshot and its successor.
    pub const REQUIRED_SLOTS: usize = 2;

    /// Leases one shield from the operation's guard (enqueue protects only
    /// the tail snapshot).
    fn one_shield<'g>(guard: &'g Guard<'_, R::Handle>) -> Shield<'g, Node<T>, R::Handle> {
        guard
            .shield()
            .expect("MichaelScottQueue: reservation slots exhausted")
    }

    /// Creates an empty queue guarded by `domain`.
    pub fn new(domain: Arc<R>) -> Self {
        debug_assert!(
            domain.config().slots_per_thread >= Self::REQUIRED_SLOTS,
            "MichaelScottQueue needs {} reservation slots per thread, domain provides {}",
            Self::REQUIRED_SLOTS,
            domain.config().slots_per_thread,
        );
        let mut handle = domain.register();
        let sentinel = handle.alloc(Node {
            value: None,
            next: Atomic::null(),
        });
        drop(handle);
        Self {
            head: CachePadded::new(Atomic::new(sentinel)),
            tail: CachePadded::new(Atomic::new(sentinel)),
            domain,
        }
    }

    /// The reclamation domain guarding this queue.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    /// Appends `value` at the tail.
    pub fn enqueue(&self, handle: &mut R::Handle, value: T) {
        let guard = handle.enter();
        let mut tail_shield = Self::one_shield(&guard);
        let node = guard.alloc(Node {
            value: Some(ManuallyDrop::new(value)),
            next: Atomic::null(),
        });
        let mut backoff = Backoff::new();
        loop {
            let tail = tail_shield.protect(&guard, &self.tail, None);
            // SAFETY: `tail_shield` protects `tail` and is only re-protected
            // at the top of the next loop iteration, after this reference's
            // last use.
            let tail_ref = unsafe { tail.as_ref() }.expect("the tail is never null");
            let next = tail_ref.next.load(Ordering::Acquire); // ORDER: pairs with the AcqRel append of the successor.
            if next.is_null() {
                if tail_ref
                    .next
                    .compare_exchange(ptr::null_mut(), node, Ordering::AcqRel, Ordering::Acquire) // ORDER: success publishes the appended node; failure observes the winning append.
                    .is_ok()
                {
                    // Swing the tail; failure means someone already did it.
                    let _ = self.tail.compare_exchange(
                        tail.as_raw(),
                        node,
                        Ordering::AcqRel, // ORDER: success publishes the new tail; failure means someone already swung it.
                        Ordering::Acquire,
                    );
                    break;
                }
            } else {
                // Help a lagging enqueuer move the tail forward.
                let _ = self.tail.compare_exchange(
                    tail.as_raw(),
                    next,
                    Ordering::AcqRel, // ORDER: helping CAS; success publishes the tail, failure observes the winner.
                    Ordering::Acquire,
                );
            }
            backoff.spin();
        }
    }

    /// Removes the element at the head, if any.
    pub fn dequeue(&self, handle: &mut R::Handle) -> Option<T> {
        let guard = handle.enter();
        let mut head_shield = Self::one_shield(&guard);
        let mut next_shield = Self::one_shield(&guard);
        let mut backoff = Backoff::new();
        loop {
            let head = head_shield.protect(&guard, &self.head, None);
            // SAFETY: `head` and `next` each have their own shield
            // (head_shield / next_shield), re-protected only at the top of
            // the next iteration — after the last use of both references.
            let head_ref = unsafe { head.as_ref() }.expect("the head is never null");
            let tail = self.tail.load(Ordering::Acquire); // ORDER: snapshot for the lag check; pairs with the AcqRel tail swing.
            let next = next_shield.protect(&guard, &head_ref.next, Some(head));
            // ORDER: head re-validation; pairs with the AcqRel head swing.
            if head.as_raw() != self.head.load(Ordering::Acquire) {
                backoff.spin();
                continue;
            }
            // SAFETY: as above — `next_shield` protects `next` until the
            // next loop iteration.
            let Some(next_ref) = (unsafe { next.as_ref() }) else {
                return None; // empty queue
            };
            if head.as_raw() == tail {
                // Tail is lagging behind; help it before touching the head.
                let _ = self.tail.compare_exchange(
                    tail,
                    next.as_raw(),
                    Ordering::AcqRel, // ORDER: helping CAS; success publishes the tail, failure observes the winner.
                    Ordering::Acquire,
                );
                continue;
            }
            if self
                .head
                .compare_exchange(
                    head.as_raw(),
                    next.as_raw(),
                    Ordering::AcqRel, // ORDER: success publishes the new head; failure observes the winning swing.
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // `next` is the new sentinel; we own its value.
                // SAFETY: the head CAS transferred ownership of `next`'s
                // value to us; nobody else reads it out.
                let value = next_ref.value.as_ref().map(|v| unsafe { ptr::read(&**v) });
                // SAFETY: the same CAS unlinked the old sentinel `head`; it
                // is retired exactly once.
                unsafe { head.retire_in(&guard) };
                return value;
            }
            backoff.spin();
        }
    }

    /// Returns `true` if the queue appeared empty at the moment of the call.
    ///
    /// Takes the calling thread's handle because answering requires reading
    /// the head sentinel's `next` field, and the sentinel may be retired by a
    /// concurrent dequeue — the read must be protected like any other.
    pub fn is_empty(&self, handle: &mut R::Handle) -> bool {
        let guard = handle.enter();
        let mut head_shield = Self::one_shield(&guard);
        let head = head_shield.protect(&guard, &self.head, None);
        // SAFETY: `head_shield` is not re-protected for the rest of this
        // function.
        unsafe { head.as_ref() }
            .expect("the head is never null")
            .next
            .load(Ordering::Acquire) // ORDER: pairs with the AcqRel append of the successor.
            .is_null()
    }
}

impl<T, R: Reclaimer> Drop for MichaelScottQueue<T, R> {
    fn drop(&mut self) {
        // Exclusive access: free the sentinel and every queued node, dropping
        // the values still owned by the queue.
        let mut cur = self.head.load(Ordering::Relaxed); // ORDER: Drop has exclusive access.
        while !cur.is_null() {
            // SAFETY: `Drop` has exclusive access; every reachable node is
            // freed exactly once, dropping any value it still owns.
            unsafe {
                let next = (*cur).value.next.load(Ordering::Relaxed); // ORDER: Drop has exclusive access.
                if let Some(value) = (*cur).value.value.as_mut() {
                    ManuallyDrop::drop(value);
                }
                Linked::dealloc(cur);
                cur = next;
            }
        }
    }
}

impl<R: Reclaimer> ConcurrentQueue<R> for MichaelScottQueue<u64, R> {
    fn with_domain(domain: Arc<R>) -> Self {
        Self::new(domain)
    }

    fn enqueue(&self, handle: &mut R::Handle, value: u64) {
        MichaelScottQueue::enqueue(self, handle, value)
    }

    fn dequeue(&self, handle: &mut R::Handle) -> Option<u64> {
        MichaelScottQueue::dequeue(self, handle)
    }

    fn required_slots() -> usize {
        Self::REQUIRED_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfe_reclaim::{DomainConfig, Ebr, He, Hp, Ibr2Ge};
    use wfe_sync::atomic::{AtomicU64, Ordering::SeqCst};

    #[test]
    fn head_and_tail_own_their_lines() {
        use core::mem::offset_of;
        type Queue = MichaelScottQueue<u64, He>;
        crate::layout::assert_own_lines::<Queue>(
            &[
                ("head", offset_of!(Queue, head)),
                ("tail", offset_of!(Queue, tail)),
            ],
            &[("domain", offset_of!(Queue, domain))],
        );
    }

    fn fifo_single_threaded<R: Reclaimer>() {
        let domain = R::new_default();
        let queue = MichaelScottQueue::<u64, R>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        assert!(queue.is_empty(&mut handle));
        assert_eq!(queue.dequeue(&mut handle), None);
        for i in 0..100 {
            queue.enqueue(&mut handle, i);
        }
        for i in 0..100 {
            assert_eq!(queue.dequeue(&mut handle), Some(i));
        }
        assert_eq!(queue.dequeue(&mut handle), None);
        assert!(queue.is_empty(&mut handle));
    }

    #[test]
    fn fifo_order_under_every_scheme() {
        fifo_single_threaded::<He>();
        fifo_single_threaded::<Ebr>();
        fifo_single_threaded::<Hp>();
        fifo_single_threaded::<Ibr2Ge>();
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_sum() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 5_000;
        let domain = He::with_config(DomainConfig::with_max_threads(THREADS + 1));
        let queue = MichaelScottQueue::<u64, He>::new(Arc::clone(&domain));
        let consumed = AtomicU64::new(0);
        let consumed_count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let queue = &queue;
                let domain = Arc::clone(&domain);
                let consumed = &consumed;
                let consumed_count = &consumed_count;
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 1..=PER_THREAD {
                        queue.enqueue(&mut handle, t * PER_THREAD + i);
                        if let Some(v) = queue.dequeue(&mut handle) {
                            consumed.fetch_add(v, SeqCst);
                            consumed_count.fetch_add(1, SeqCst);
                        }
                    }
                });
            }
        });
        let mut handle = domain.register();
        while let Some(v) = queue.dequeue(&mut handle) {
            consumed.fetch_add(v, SeqCst);
            consumed_count.fetch_add(1, SeqCst);
        }
        let total: u64 = (0..THREADS as u64)
            .flat_map(|t| (1..=PER_THREAD).map(move |i| t * PER_THREAD + i))
            .sum();
        assert_eq!(consumed_count.load(SeqCst), THREADS as u64 * PER_THREAD);
        assert_eq!(consumed.load(SeqCst), total);
    }
}
