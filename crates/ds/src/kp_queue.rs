//! Kogan-Petrank wait-free MPMC queue (PPoPP 2011).
//!
//! The "KP" workload of Figures 5a/5b and the headline client of the paper:
//! the original algorithm assumes a garbage collector, so — as the paper
//! points out — it could never before be run with *fully* wait-free manual
//! reclamation. Paired with WFE every operation of the queue is wait-free;
//! paired with the other schemes it keeps their (weaker) progress guarantee,
//! which is exactly the comparison Figure 5 makes.
//!
//! The algorithm uses *phase-based helping*: every operation publishes an
//! operation descriptor ([`OpDesc`]) with a monotonically increasing phase
//! number in a per-thread `state` slot; every operation first helps all
//! pending operations with a smaller-or-equal phase before returning.
//!
//! Two adaptations versus the GC-based original, both required for manual
//! reclamation (and used by the existing hazard-pointer ports):
//!
//! * descriptors are allocated through the reclamation scheme and retired by
//!   whichever thread replaces them in the `state` array;
//! * when a dequeue is finalised, the helper copies the dequeued **value**
//!   into the final descriptor, so the owner never dereferences the successor
//!   node after its operation completed (the successor may be retired by a
//!   faster dequeuer at any time).

use core::ptr;
use std::sync::Arc;
use wfe_sync::atomic::{AtomicI64, Ordering};

use wfe_reclaim::{Atomic, Guard, Handle, Linked, Protected, Reclaimer, Shield};
use wfe_sync::CachePadded;

use crate::traits::ConcurrentQueue;

/// A queue node.
// LAYOUT: one 56-byte block, unpadded, as `crturn_queue::Node` (whose
// padded form measured no faster): `next` and `deq_tid` are each written
// once (the append, the claim), by a helper that reads the rest of the node.
pub struct Node<T> {
    value: Option<T>,
    next: Atomic<Node<T>>,
    /// Thread id of the enqueuer (used by helpers to finalise its descriptor).
    enq_tid: usize,
    /// Thread id of the dequeuer that claimed this node's successor, or -1.
    deq_tid: AtomicI64,
}

/// An operation descriptor published in the per-thread `state` array.
pub struct OpDesc<T> {
    /// Phase number of the operation (helping priority).
    phase: u64,
    /// Whether the operation is still in progress.
    pending: bool,
    /// `true` for enqueue, `false` for dequeue.
    enqueue: bool,
    /// Enqueue: the node to append. Dequeue: the sentinel node that was
    /// dequeued past (null while pending / when the queue was empty).
    node: *mut Linked<Node<T>>,
    /// Dequeue only: the value handed to the owner by the finalising helper.
    value: Option<T>,
}

/// Kogan-Petrank wait-free queue, parameterised by the reclamation scheme.
///
/// # Layout
///
/// `head` and `tail` each own a 128-byte line: dequeues swing one, enqueues
/// the other, and every operation reads the `state` pointer, which nobody
/// writes and which now shares a line with the domain `Arc` only. On two
/// cores `queue_pair_contended/KP` stays inside its spread either way — the
/// descriptor array, which every operation scans twice and CASes twice,
/// dominates — and padding that array per entry read no better.
// LAYOUT: the roots are padded apart ("Layout" above); the `state` pointer is
// never written.
pub struct KoganPetrankQueue<T, R: Reclaimer> {
    head: CachePadded<Atomic<Node<T>>>,
    tail: CachePadded<Atomic<Node<T>>>,
    /// One descriptor slot per thread id (`max_threads` of the domain).
    state: Box<[Atomic<OpDesc<T>>]>,
    domain: Arc<R>,
}

// SAFETY: nodes and descriptors hold `T` by value; all shared-pointer access goes through the reclamation protocol, so sending the
// structure is sending the `T`s it owns.
unsafe impl<T: Send, R: Reclaimer> Send for KoganPetrankQueue<T, R> {}
// SAFETY: every `&self` method is lock-free-safe by construction (the
// algorithm's own synchronisation); `T: Send` suffices because values
// are moved in/out, never shared by reference across threads.
unsafe impl<T: Send, R: Reclaimer> Sync for KoganPetrankQueue<T, R> {}

/// The four shields one operation (and all the helping it performs) needs:
/// the head/tail snapshot, its successor, the descriptor being examined and a
/// separate shield for descriptor re-checks (`is_still_pending`), which must
/// not displace the descriptor the caller is still reading.
struct KpShields<'g, T, H: wfe_reclaim::RawHandle> {
    first: Shield<'g, Node<T>, H>,
    next: Shield<'g, Node<T>, H>,
    desc: Shield<'g, OpDesc<T>, H>,
    desc_aux: Shield<'g, OpDesc<T>, H>,
}

impl<T: Copy, R: Reclaimer> KoganPetrankQueue<T, R> {
    /// Reservation slots the queue needs per thread: the four shield roles
    /// (head/tail snapshot, successor, descriptor, descriptor re-checks).
    pub const REQUIRED_SLOTS: usize = 4;

    /// Leases the four shields of one operation from its guard.
    fn shields<'g>(guard: &'g Guard<'_, R::Handle>) -> KpShields<'g, T, R::Handle> {
        let exhausted = "KoganPetrankQueue: reservation slots exhausted (needs four Shields)";
        KpShields {
            first: guard.shield().expect(exhausted),
            next: guard.shield().expect(exhausted),
            desc: guard.shield().expect(exhausted),
            desc_aux: guard.shield().expect(exhausted),
        }
    }

    /// Creates an empty queue guarded by `domain`. The queue supports thread
    /// ids up to the domain's `max_threads`.
    pub fn new(domain: Arc<R>) -> Self {
        debug_assert!(
            domain.config().slots_per_thread >= Self::REQUIRED_SLOTS,
            "KoganPetrankQueue needs {} reservation slots per thread, domain provides {}",
            Self::REQUIRED_SLOTS,
            domain.config().slots_per_thread,
        );
        let max_threads = domain.config().max_threads;
        let mut handle = domain.register();
        let sentinel = handle.alloc(Node {
            value: None,
            next: Atomic::null(),
            enq_tid: 0,
            deq_tid: AtomicI64::new(-1),
        });
        let state = (0..max_threads)
            .map(|_| {
                Atomic::new(handle.alloc(OpDesc {
                    phase: 0,
                    pending: false,
                    enqueue: true,
                    node: ptr::null_mut(),
                    value: None,
                }))
            })
            .collect();
        drop(handle);
        Self {
            head: CachePadded::new(Atomic::new(sentinel)),
            tail: CachePadded::new(Atomic::new(sentinel)),
            state,
            domain,
        }
    }

    /// The reclamation domain guarding this queue.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    /// Largest phase currently published, plus one.
    fn next_phase(
        &self,
        guard: &Guard<'_, R::Handle>,
        sh: &mut KpShields<'_, T, R::Handle>,
    ) -> u64 {
        let mut max = 0;
        for slot in self.state.iter() {
            let desc = sh.desc_aux.protect(guard, slot, None);
            // SAFETY: `desc_aux` protects `desc`; it is re-protected only on
            // the next loop iteration, after this read.
            let phase = unsafe { desc.as_ref() }
                .expect("descriptors are never null")
                .phase;
            max = max.max(phase);
        }
        max + 1
    }

    /// Replaces `state[tid]`'s current descriptor `old` with `new`, retiring
    /// `old` on success and discarding `new` on failure. Returns whether the
    /// exchange happened.
    fn swap_desc(
        &self,
        guard: &Guard<'_, R::Handle>,
        tid: usize,
        old: Protected<'_, OpDesc<T>>,
        new: *mut Linked<OpDesc<T>>,
    ) -> bool {
        match self.state[tid].compare_exchange(
            old.as_raw(),
            new,
            Ordering::AcqRel, // ORDER: success publishes the descriptor swap; failure observes the winner.
            Ordering::Acquire,
        ) {
            Ok(_) => {
                // SAFETY: the CAS unlinked `old` from the only place that
                // publishes it, so it is unreachable and retired exactly once
                // (every replacement goes through this method).
                unsafe { old.retire_in(guard) };
                true
            }
            Err(_) => {
                // SAFETY: `new` was never published; discarded exactly once.
                unsafe { guard.discard(new) };
                false
            }
        }
    }

    fn is_still_pending(
        &self,
        guard: &Guard<'_, R::Handle>,
        sh: &mut KpShields<'_, T, R::Handle>,
        tid: usize,
        phase: u64,
    ) -> bool {
        let desc = sh.desc_aux.protect(guard, &self.state[tid], None);
        // SAFETY: `desc_aux` protects `desc` and is not re-protected for the
        // rest of this function.
        let desc = unsafe { desc.as_ref() }.expect("descriptors are never null");
        desc.pending && desc.phase <= phase
    }

    /// Helps every pending operation whose phase is at most `phase`.
    fn help(&self, guard: &Guard<'_, R::Handle>, sh: &mut KpShields<'_, T, R::Handle>, phase: u64) {
        for tid in 0..self.state.len() {
            let desc = sh.desc.protect(guard, &self.state[tid], None);
            let (pending, desc_phase, enqueue) = {
                // SAFETY: `sh.desc` protects `desc`; the helpers below only
                // re-protect it after this scope has copied the fields out.
                let desc = unsafe { desc.as_ref() }.expect("descriptors are never null");
                (desc.pending, desc.phase, desc.enqueue)
            };
            if pending && desc_phase <= phase {
                if enqueue {
                    self.help_enq(guard, sh, tid, phase);
                } else {
                    self.help_deq(guard, sh, tid, phase);
                }
            }
        }
    }

    fn help_enq(
        &self,
        guard: &Guard<'_, R::Handle>,
        sh: &mut KpShields<'_, T, R::Handle>,
        tid: usize,
        phase: u64,
    ) {
        while self.is_still_pending(guard, sh, tid, phase) {
            let last = sh.first.protect(guard, &self.tail, None);
            // SAFETY: `sh.first` protects `last`; the descriptor reads below
            // go through `sh.desc`/`sh.desc_aux`, so `last_ref` stays pinned
            // until the next loop iteration.
            let last_ref = unsafe { last.as_ref() }.expect("the tail is never null");
            // ORDER: pairs with the AcqRel append of the successor.
            let next = last_ref.next.load(Ordering::Acquire);
            // ORDER: tail re-validation; pairs with the AcqRel tail swing.
            if last.as_raw() != self.tail.load(Ordering::Acquire) {
                continue;
            }
            if next.is_null() {
                if self.is_still_pending(guard, sh, tid, phase) {
                    // Re-read the descriptor to fetch the node to append.
                    let desc = sh.desc.protect(guard, &self.state[tid], None);
                    // SAFETY: `sh.desc` protects `desc` and is not
                    // re-protected before this read.
                    let node = unsafe { desc.as_ref() }
                        .expect("descriptors are never null")
                        .node;
                    if node.is_null() {
                        continue;
                    }
                    if last_ref
                        .next
                        .compare_exchange(
                            ptr::null_mut(),
                            node,
                            Ordering::AcqRel, // ORDER: success publishes the appended node; failure observes the winning append.
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        self.help_finish_enq(guard, sh);
                        return;
                    }
                }
            } else {
                self.help_finish_enq(guard, sh);
            }
        }
    }

    fn help_finish_enq(&self, guard: &Guard<'_, R::Handle>, sh: &mut KpShields<'_, T, R::Handle>) {
        let last = sh.first.protect(guard, &self.tail, None);
        // SAFETY: `last` and `next` each have their own shield (`sh.first` /
        // `sh.next`), neither re-protected for the rest of this function.
        let last_ref = unsafe { last.as_ref() }.expect("the tail is never null");
        let next = sh.next.protect(guard, &last_ref.next, Some(last));
        // A reservation covers a block that was still reachable when it was
        // published, and `last` may have left the queue since the first
        // protect: then its link names a node that was dequeued, retired and
        // possibly recycled before `sh.next` reserved anything. While `last`
        // is the tail its successor cannot have been dequeued, so only past
        // this check may `next` be dereferenced (the hazard-pointer ports of
        // the queue validate in the same place).
        // ORDER: tail re-validation; pairs with the AcqRel tail swing.
        if last.as_raw() != self.tail.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: as above — `sh.next` protects `next`, which the check just
        // made shows was the tail's live successor when it was reserved.
        let Some(next_ref) = (unsafe { next.as_ref() }) else {
            return;
        };
        let enq_tid = next_ref.enq_tid;
        let cur_desc = sh.desc.protect(guard, &self.state[enq_tid], None);
        // ORDER: tail re-validation; pairs with the AcqRel tail swing.
        if last.as_raw() != self.tail.load(Ordering::Acquire) {
            return;
        }
        let (cur_phase, cur_node, cur_pending, cur_enqueue) = {
            // SAFETY: `sh.desc` protects `cur_desc`; it is not re-protected
            // before this scope copies the fields out.
            let desc = unsafe { cur_desc.as_ref() }.expect("descriptors are never null");
            (desc.phase, desc.node, desc.pending, desc.enqueue)
        };
        if cur_pending && cur_enqueue && cur_node == next.as_raw() {
            let new_desc = guard.alloc(OpDesc {
                phase: cur_phase,
                pending: false,
                enqueue: true,
                node: next.as_raw(),
                value: None,
            });
            self.swap_desc(guard, enq_tid, cur_desc, new_desc);
        }
        let _ = self.tail.compare_exchange(
            last.as_raw(),
            next.as_raw(),
            Ordering::AcqRel, // ORDER: success publishes the new tail; failure observes the winning swing.
            Ordering::Acquire,
        );
    }

    fn help_deq(
        &self,
        guard: &Guard<'_, R::Handle>,
        sh: &mut KpShields<'_, T, R::Handle>,
        tid: usize,
        phase: u64,
    ) {
        while self.is_still_pending(guard, sh, tid, phase) {
            let first = sh.first.protect(guard, &self.head, None);
            // SAFETY: `sh.first` protects `first`; every later protect in
            // this iteration goes through `sh.desc`/`sh.desc_aux`/`sh.next`,
            // and the helpers that do re-protect `sh.first`
            // (`help_finish_enq`/`help_finish_deq`) run after `first_ref`'s
            // last use.
            let first_ref = unsafe { first.as_ref() }.expect("the head is never null");
            let last = self.tail.load(Ordering::Acquire); // ORDER: pairs with the AcqRel tail swing.
            let next = sh.next.protect(guard, &first_ref.next, Some(first));
            // ORDER: head re-validation; pairs with the AcqRel head swing.
            if first.as_raw() != self.head.load(Ordering::Acquire) {
                continue;
            }
            if first.as_raw() == last {
                if next.is_null() {
                    // Queue looks empty: finalise with an empty result.
                    let cur_desc = sh.desc.protect(guard, &self.state[tid], None);
                    // ORDER: tail re-check; pairs with the AcqRel tail swing.
                    if last != self.tail.load(Ordering::Acquire) {
                        continue;
                    }
                    if self.is_still_pending(guard, sh, tid, phase) {
                        // SAFETY: `sh.desc` protects `cur_desc` and is not
                        // re-protected before this read.
                        let cur_phase = unsafe { cur_desc.as_ref() }
                            .expect("descriptors are never null")
                            .phase;
                        let new_desc = guard.alloc(OpDesc {
                            phase: cur_phase,
                            pending: false,
                            enqueue: false,
                            node: ptr::null_mut(),
                            value: None,
                        });
                        self.swap_desc(guard, tid, cur_desc, new_desc);
                    }
                } else {
                    // Tail is lagging; finish the in-flight enqueue first.
                    self.help_finish_enq(guard, sh);
                }
            } else {
                let cur_desc = sh.desc.protect(guard, &self.state[tid], None);
                let (cur_phase, cur_node, cur_pending) = {
                    // SAFETY: `sh.desc` protects `cur_desc`; it is not
                    // re-protected before this scope copies the fields out.
                    let desc = unsafe { cur_desc.as_ref() }.expect("descriptors are never null");
                    (desc.phase, desc.node, desc.pending)
                };
                if !(cur_pending && cur_phase <= phase) {
                    break;
                }
                // ORDER: head re-validation; pairs with the AcqRel head swing.
                if first.as_raw() != self.head.load(Ordering::Acquire) {
                    continue;
                }
                if cur_node != first.as_raw() {
                    // Announce which sentinel this dequeue is working on.
                    let new_desc = guard.alloc(OpDesc {
                        phase: cur_phase,
                        pending: true,
                        enqueue: false,
                        node: first.as_raw(),
                        value: None,
                    });
                    if !self.swap_desc(guard, tid, cur_desc, new_desc) {
                        continue;
                    }
                }
                // Claim the sentinel for thread `tid` and finish the dequeue.
                let _ = first_ref.deq_tid.compare_exchange(
                    -1,
                    tid as i64,
                    Ordering::AcqRel, // ORDER: success publishes the claim; failure observes the winning claim.
                    Ordering::Acquire,
                );
                self.help_finish_deq(guard, sh);
            }
        }
    }

    fn help_finish_deq(&self, guard: &Guard<'_, R::Handle>, sh: &mut KpShields<'_, T, R::Handle>) {
        let first = sh.first.protect(guard, &self.head, None);
        // SAFETY: `first` and `next` each have their own shield (`sh.first` /
        // `sh.next`), neither re-protected for the rest of this function.
        let first_ref = unsafe { first.as_ref() }.expect("the head is never null");
        let next = sh.next.protect(guard, &first_ref.next, Some(first));
        let deq_tid = first_ref.deq_tid.load(Ordering::Acquire); // ORDER: pairs with the AcqRel claim CAS on `deq_tid`.
        if deq_tid < 0 {
            return;
        }
        let tid = deq_tid as usize;
        let cur_desc = sh.desc.protect(guard, &self.state[tid], None);
        // ORDER: head re-validation; pairs with the AcqRel head swing.
        if first.as_raw() != self.head.load(Ordering::Acquire) {
            return;
        }
        // SAFETY: as above — `sh.next` protects `next`.
        let Some(next_ref) = (unsafe { next.as_ref() }) else {
            return;
        };
        let (cur_phase, cur_node, cur_pending, cur_enqueue) = {
            // SAFETY: `sh.desc` protects `cur_desc`; it is not re-protected
            // before this scope copies the fields out.
            let desc = unsafe { cur_desc.as_ref() }.expect("descriptors are never null");
            (desc.phase, desc.node, desc.pending, desc.enqueue)
        };
        if cur_pending && !cur_enqueue && cur_node == first.as_raw() {
            // Hand the dequeued value to the owner inside the descriptor so it
            // never has to touch `next` after the operation completes.
            let value = next_ref.value;
            let new_desc = guard.alloc(OpDesc {
                phase: cur_phase,
                pending: false,
                enqueue: false,
                node: first.as_raw(),
                value,
            });
            self.swap_desc(guard, tid, cur_desc, new_desc);
        }
        let _ = self.head.compare_exchange(
            first.as_raw(),
            next.as_raw(),
            Ordering::AcqRel, // ORDER: success publishes the new head; failure observes the winning swing.
            Ordering::Acquire,
        );
    }

    /// Appends `value` at the tail. Wait-free when the reclamation scheme is
    /// wait-free.
    pub fn enqueue(&self, handle: &mut R::Handle, value: T) {
        let guard = handle.enter();
        let mut sh = Self::shields(&guard);
        let tid = guard.thread_id();
        let phase = self.next_phase(&guard, &mut sh);
        let node = guard.alloc(Node {
            value: Some(value),
            next: Atomic::null(),
            enq_tid: tid,
            deq_tid: AtomicI64::new(-1),
        });
        let desc = guard.alloc(OpDesc {
            phase,
            pending: true,
            enqueue: true,
            node,
            value: None,
        });
        self.publish_own_desc(&guard, &mut sh, tid, desc);
        self.help(&guard, &mut sh, phase);
        self.help_finish_enq(&guard, &mut sh);
    }

    /// Removes the element at the head, if any. Wait-free when the reclamation
    /// scheme is wait-free.
    pub fn dequeue(&self, handle: &mut R::Handle) -> Option<T> {
        let guard = handle.enter();
        let mut sh = Self::shields(&guard);
        let tid = guard.thread_id();
        let phase = self.next_phase(&guard, &mut sh);
        let desc = guard.alloc(OpDesc {
            phase,
            pending: true,
            enqueue: false,
            node: ptr::null_mut(),
            value: None,
        });
        self.publish_own_desc(&guard, &mut sh, tid, desc);
        self.help(&guard, &mut sh, phase);
        self.help_finish_deq(&guard, &mut sh);

        // Our operation is finalised; read the outcome from our descriptor.
        let final_desc = sh.desc.protect(&guard, &self.state[tid], None);
        // SAFETY: `sh.desc` protects `final_desc` and is not re-protected
        // for the rest of this function.
        let final_ref = unsafe { final_desc.as_ref() }.expect("descriptors are never null");
        let (node, value) = (final_ref.node, final_ref.value);
        if node.is_null() {
            // Queue was empty.
            None
        } else {
            // The old sentinel is ours to retire: helpers only ever read it.
            // SAFETY: the finalised descriptor names the sentinel our dequeue
            // consumed; only the owning thread retires it, exactly once.
            unsafe { Protected::from_unlinked(node).retire_in(&guard) };
            value
        }
    }

    /// Installs the descriptor for this thread's own new operation, retiring
    /// the previous one. A concurrent helper may finalise the *previous*
    /// operation at the same time, so at most one retry is needed.
    fn publish_own_desc(
        &self,
        guard: &Guard<'_, R::Handle>,
        sh: &mut KpShields<'_, T, R::Handle>,
        tid: usize,
        desc: *mut Linked<OpDesc<T>>,
    ) {
        loop {
            let old = sh.desc.protect(guard, &self.state[tid], None);
            if self.state[tid]
                .compare_exchange(old.as_raw(), desc, Ordering::AcqRel, Ordering::Acquire) // ORDER: success publishes the descriptor; failure retries against the current one.
                .is_ok()
            {
                // SAFETY: our CAS unlinked `old` from the descriptor slot; it
                // is retired exactly once (all replacements CAS this slot).
                unsafe { old.retire_in(guard) };
                return;
            }
        }
    }

    /// Returns `true` if the queue appeared empty at the moment of the call.
    ///
    /// Takes the calling thread's handle because answering requires reading
    /// the head sentinel's `next` field, and the sentinel may be retired by a
    /// concurrent dequeue — the read must be protected like any other.
    pub fn is_empty(&self, handle: &mut R::Handle) -> bool {
        let guard = handle.enter();
        let mut head_shield: Shield<'_, Node<T>, R::Handle> = guard
            .shield()
            .expect("KoganPetrankQueue: reservation slots exhausted");
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

impl<T, R: Reclaimer> Drop for KoganPetrankQueue<T, R> {
    fn drop(&mut self) {
        // Exclusive access: free the nodes still in the queue and the final
        // descriptor of every thread slot.
        let mut cur = self.head.load(Ordering::Relaxed); // ORDER: Drop has exclusive access.
        while !cur.is_null() {
            // ORDER: Drop has exclusive access.
            // SAFETY: `Drop` has exclusive access; every queued node is
            // valid and freed exactly once.
            let next = unsafe { (*cur).value.next.load(Ordering::Relaxed) };
            // SAFETY: as above — exclusive access, freed exactly once.
            unsafe { Linked::dealloc(cur) };
            cur = next;
        }
        for slot in self.state.iter() {
            let desc = slot.load(Ordering::Relaxed); // ORDER: Drop has exclusive access.
            if !desc.is_null() {
                // SAFETY: the final descriptor of each slot is owned by the
                // queue alone once no operation is in flight.
                unsafe { Linked::dealloc(desc) };
            }
        }
    }
}

impl<R: Reclaimer> ConcurrentQueue<R> for KoganPetrankQueue<u64, R> {
    fn with_domain(domain: Arc<R>) -> Self {
        Self::new(domain)
    }

    fn enqueue(&self, handle: &mut R::Handle, value: u64) {
        KoganPetrankQueue::enqueue(self, handle, value)
    }

    fn dequeue(&self, handle: &mut R::Handle) -> Option<u64> {
        KoganPetrankQueue::dequeue(self, handle)
    }

    fn required_slots() -> usize {
        Self::REQUIRED_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfe_reclaim::{Ebr, He, Hp, Ibr2Ge, ReclaimerConfig};
    use wfe_sync::atomic::{AtomicU64, Ordering::SeqCst};

    fn small_config(threads: usize) -> ReclaimerConfig {
        ReclaimerConfig {
            max_threads: threads,
            ..ReclaimerConfig::default()
        }
    }

    #[test]
    fn head_and_tail_own_their_lines() {
        use core::mem::offset_of;
        type Queue = KoganPetrankQueue<u64, He>;
        crate::layout::assert_own_lines::<Queue>(
            &[
                ("head", offset_of!(Queue, head)),
                ("tail", offset_of!(Queue, tail)),
            ],
            &[
                ("state", offset_of!(Queue, state)),
                ("domain", offset_of!(Queue, domain)),
            ],
        );
    }

    fn fifo_single_threaded<R: Reclaimer>() {
        let domain = R::with_config(small_config(4));
        let queue = KoganPetrankQueue::<u64, R>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        assert!(queue.is_empty(&mut handle));
        assert_eq!(queue.dequeue(&mut handle), None);
        for i in 0..200 {
            queue.enqueue(&mut handle, i);
        }
        assert!(!queue.is_empty(&mut handle));
        for i in 0..200 {
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
    fn interleaved_enqueue_dequeue_preserves_order() {
        let domain = He::with_config(small_config(2));
        let queue = KoganPetrankQueue::<u64, He>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        let mut expected_front = 0u64;
        let mut next_value = 0u64;
        for round in 0..500u64 {
            queue.enqueue(&mut handle, next_value);
            next_value += 1;
            if round % 3 == 0 {
                assert_eq!(queue.dequeue(&mut handle), Some(expected_front));
                expected_front += 1;
            }
        }
        while let Some(v) = queue.dequeue(&mut handle) {
            assert_eq!(v, expected_front);
            expected_front += 1;
        }
        assert_eq!(expected_front, next_value);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_every_element() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 2_000;
        let domain = He::with_config(small_config(THREADS + 1));
        let queue = KoganPetrankQueue::<u64, He>::new(Arc::clone(&domain));
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
                                consumed_sum.fetch_add(v, SeqCst);
                                consumed_count.fetch_add(1, SeqCst);
                            }
                        }
                    }
                });
            }
        });
        let mut handle = domain.register();
        while let Some(v) = queue.dequeue(&mut handle) {
            consumed_sum.fetch_add(v, SeqCst);
            consumed_count.fetch_add(1, SeqCst);
        }
        let expected_sum: u64 = (0..THREADS as u64)
            .flat_map(|t| (1..=PER_THREAD).map(move |i| t * PER_THREAD + i))
            .sum();
        assert_eq!(consumed_count.load(SeqCst), THREADS as u64 * PER_THREAD);
        assert_eq!(consumed_sum.load(SeqCst), expected_sum);
    }

    #[test]
    fn per_thread_fifo_order_is_respected() {
        // Elements enqueued by the same thread must be dequeued in order.
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 1_500;
        let domain = He::with_config(small_config(THREADS + 1));
        let queue = KoganPetrankQueue::<u64, He>::new(Arc::clone(&domain));
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let queue = &queue;
                let domain = Arc::clone(&domain);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 0..PER_THREAD {
                        queue.enqueue(&mut handle, (t << 32) | i);
                    }
                });
            }
        });
        let mut handle = domain.register();
        let mut last_seen = [None::<u64>; THREADS];
        while let Some(v) = queue.dequeue(&mut handle) {
            let t = (v >> 32) as usize;
            let seq = v & 0xFFFF_FFFF;
            if let Some(prev) = last_seen[t] {
                assert!(seq > prev, "thread {t} out of order: {seq} after {prev}");
            }
            last_seen[t] = Some(seq);
        }
        for (t, seen) in last_seen.iter().enumerate() {
            assert_eq!(seen.unwrap(), PER_THREAD - 1, "thread {t} lost elements");
        }
    }
}
