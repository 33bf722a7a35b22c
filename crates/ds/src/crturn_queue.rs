//! Ramalhete-Correia CRTurn wait-free MPMC queue.
//!
//! The second wait-free queue of the paper's evaluation (Figures 5c/5d) and,
//! together with [`KoganPetrankQueue`](crate::KoganPetrankQueue), one half of
//! the paper's headline claim: pairing a wait-free data structure with WFE's
//! wait-free reclamation yields the first queue that is wait-free *end to
//! end*, memory management included. Unlike the Kogan-Petrank queue — whose
//! original formulation assumes a garbage collector — CRTurn was designed
//! from the start for manual reclamation with a bounded number of hazardous
//! reservations, which is why the paper uses it as the second queue workload.
//!
//! # Algorithm
//!
//! CRTurn replaces Kogan-Petrank's phase-numbered descriptors with three
//! fixed-size per-thread request arrays and a *turn* taken from the node at
//! the boundary of the operation:
//!
//! * `enqueuers[tid]` holds the node thread `tid` wants to append (null when
//!   no enqueue is pending). The node that currently is the tail names the
//!   thread whose request it satisfied (`enq_tid`); helpers serve the *next*
//!   pending enqueuer after that index in circular order, so every pending
//!   enqueue is appended after at most `max_threads` tail advances.
//! * `deqself[tid]`/`deqhelp[tid]` encode dequeue requests: a request is
//!   *open* while both hold the same node. Helpers claim the node after the
//!   head for the open request whose turn it is (the index stored in the
//!   departing head's `deq_tid` decides whose turn comes next), publish it in
//!   `deqhelp[tid]`, and only then swing the head.
//!
//! Every operation helps the request whose turn it is before (re)trying its
//! own, so each operation completes within a bounded number of steps
//! regardless of the behaviour of other threads — the textbook wait-free
//! guarantee, with no unbounded phase counter.
//!
//! # Reclamation
//!
//! Nodes are allocated and retired through the [`Reclaimer`] API, so the
//! queue composes with all six schemes of the evaluation. The retirement
//! protocol is the one from the original paper, adapted to the suite's
//! reservation-slot interface:
//!
//! * a dequeued node is handed to its requester through `deqhelp[tid]` and
//!   doubles as the queue's sentinel; it is retired by that same thread at
//!   the start of its *next* successful dequeue (`pr_req` below), when it can
//!   no longer be the sentinel or be read by helpers on behalf of `tid`;
//! * helpers therefore only ever dereference nodes they protect with one of
//!   the three reservation slots ([`CrTurnQueue::REQUIRED_SLOTS`]).

use core::ptr;
use std::sync::Arc;
use wfe_sync::atomic::{AtomicI64, Ordering};

use wfe_reclaim::{Atomic, Guard, Handle, Linked, Protected, RawHandle, Reclaimer, Shield};
use wfe_sync::CachePadded;

use crate::traits::ConcurrentQueue;

/// `deq_tid` value of a node not (yet) claimed by any dequeue request.
const IDX_NONE: i64 = -1;

/// A queue node. The value lives in the node *after* the sentinel, exactly as
/// in the Michael-Scott queue.
// LAYOUT: one 56-byte block, unpadded: `next` and `deq_tid` are each written
// once (the append, the claim), by a helper that reads the rest of the node.
// In 64-byte chunks neighbours share lines; padding each block into a
// 128-byte chunk measured no faster on `queue-pairs` (10 of 16 alternating
// pairs faster packed, equal medians) and cost 0.3 MiB of peak RSS. An
// 80-byte chunk (a 72-byte class) measured about 6 % slower in 6 of 6 pairs.
pub struct Node<T> {
    value: Option<T>,
    next: Atomic<Node<T>>,
    /// Thread id of the enqueuer whose request this node satisfied; helpers
    /// use it as the turn marker for serving the next pending enqueue.
    enq_tid: usize,
    /// Thread id of the dequeue request this node was claimed for, or
    /// [`IDX_NONE`]. Written once by CAS; the departing head's value decides
    /// whose turn the next dequeue is.
    deq_tid: AtomicI64,
}

impl<T> Node<T> {
    fn new(value: Option<T>, enq_tid: usize) -> Self {
        Self {
            value,
            next: Atomic::null(),
            enq_tid,
            deq_tid: AtomicI64::new(IDX_NONE),
        }
    }
}

/// An opened-but-unfinished dequeue, as returned by the stall test hook
/// [`CrTurnQueue::stall_dequeue_publish`]. Must be passed back to
/// [`CrTurnQueue::resume_dequeue`]: abandoning the ticket strands the
/// thread's previous request marker, which is then reachable from neither
/// the queue nor the request arrays and leaks when the queue is dropped.
#[doc(hidden)]
#[derive(Debug)]
#[must_use = "abandoning the ticket leaks the previous request marker; pass it to resume_dequeue"]
pub struct DequeueTicket<T> {
    pr_req: *mut Linked<Node<T>>,
    my_req: *mut Linked<Node<T>>,
}

/// CRTurn wait-free queue, parameterised by the reclamation scheme.
///
/// Thread ids up to the domain's `max_threads` are supported; every slot of
/// the request arrays is sized at construction (the fixed-capacity
/// registration pattern shared with [`KoganPetrankQueue`]).
///
///
/// # Layout
///
/// `head` and `tail` each own a 128-byte line, as in the reference
/// implementation (`alignas(128)`): dequeuers swing one, enqueuers the other,
/// and each side reads its own root — and the pointers to the request arrays
/// and the domain, which nobody writes — on every operation. Packed into one
/// line, every tail swing invalidated what a dequeuer needs for `head` and
/// for `deqself`, and vice versa (`queue_pair_contended/CRTurn`). The three
/// array pointers, `first_sentinel` and the `Arc` share the line after them.
/// The arrays themselves stay compact, 8 bytes per thread: padding their
/// entries, or giving each array lines of its own, measured no better.
///
/// [`KoganPetrankQueue`]: crate::KoganPetrankQueue
// LAYOUT: the roots are padded apart and the request arrays compact on
// purpose ("Layout" above); the array pointers are never written.
pub struct CrTurnQueue<T, R: Reclaimer> {
    head: CachePadded<Atomic<Node<T>>>,
    tail: CachePadded<Atomic<Node<T>>>,
    /// Pending enqueue request (the node to append) per thread id, or null.
    enqueuers: Box<[Atomic<Node<T>>]>,
    /// Request marker a thread published for its in-flight dequeue.
    deqself: Box<[Atomic<Node<T>>]>,
    /// Node granted to a thread's dequeue request; equal to `deqself[tid]`
    /// exactly while the request is open.
    deqhelp: Box<[Atomic<Node<T>>]>,
    /// The sentinel the queue was built with. Every later sentinel is the
    /// `deqhelp` grant of the dequeue that made it one and is retired as that
    /// thread's request marker; this one no array ever names, so once the
    /// first dequeue swings `head` past it only `Drop` can free it (the
    /// reference implementation's destructor does the same).
    first_sentinel: *mut Linked<Node<T>>,
    domain: Arc<R>,
}

// SAFETY: nodes and request arrays hold `T` by value; all shared-pointer access goes through the reclamation protocol, so sending the
// structure is sending the `T`s it owns.
unsafe impl<T: Send, R: Reclaimer> Send for CrTurnQueue<T, R> {}
// SAFETY: every `&self` method is lock-free-safe by construction (the
// algorithm's own synchronisation); `T: Send` suffices because values
// are moved in/out, never shared by reference across threads.
unsafe impl<T: Send, R: Reclaimer> Sync for CrTurnQueue<T, R> {}

/// The three shields one operation needs: the head/tail snapshot, the node
/// after the protected head, and the helped dequeuer's `deqhelp` entry while
/// a helper fulfils that thread's request on its behalf.
struct CrShields<'g, T, H: RawHandle> {
    first: Shield<'g, Node<T>, H>,
    next: Shield<'g, Node<T>, H>,
    deq: Shield<'g, Node<T>, H>,
}

impl<T: Copy, R: Reclaimer> CrTurnQueue<T, R> {
    /// Reservation slots the queue needs per thread: the head/tail snapshot
    /// and its successor (as in every queue), plus one extra induced by
    /// helping — a helper must pin the *helped* thread's `deqhelp` node while
    /// fulfilling that request on its behalf.
    pub const REQUIRED_SLOTS: usize = 3;

    /// Leases the three shields of one operation from its guard.
    fn shields<'g>(guard: &'g Guard<'_, R::Handle>) -> CrShields<'g, T, R::Handle> {
        let exhausted = "CrTurnQueue: reservation slots exhausted (needs three Shields)";
        CrShields {
            first: guard.shield().expect(exhausted),
            next: guard.shield().expect(exhausted),
            deq: guard.shield().expect(exhausted),
        }
    }

    /// Creates an empty queue guarded by `domain`. The queue supports thread
    /// ids up to the domain's `max_threads`.
    pub fn new(domain: Arc<R>) -> Self {
        debug_assert!(
            domain.config().slots_per_thread >= Self::REQUIRED_SLOTS,
            "CrTurnQueue needs {} reservation slots per thread, domain provides {}",
            Self::REQUIRED_SLOTS,
            domain.config().slots_per_thread,
        );
        let max_threads = domain.config().max_threads;
        let mut handle = domain.register();
        let sentinel = handle.alloc(Node::new(None, 0));
        let enqueuers = (0..max_threads).map(|_| Atomic::null()).collect();
        // Distinct dummy nodes per thread so every request starts *closed*
        // (`deqself[tid] != deqhelp[tid]`); the dummies are retired like any
        // other request marker once the thread dequeues.
        let deqself = (0..max_threads)
            .map(|_| Atomic::new(handle.alloc(Node::new(None, 0))))
            .collect();
        let deqhelp = (0..max_threads)
            .map(|_| Atomic::new(handle.alloc(Node::new(None, 0))))
            .collect();
        drop(handle);
        Self {
            head: CachePadded::new(Atomic::new(sentinel)),
            tail: CachePadded::new(Atomic::new(sentinel)),
            enqueuers,
            deqself,
            deqhelp,
            first_sentinel: sentinel,
            domain,
        }
    }

    /// The reclamation domain guarding this queue.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    fn max_threads(&self) -> usize {
        self.enqueuers.len()
    }

    /// Appends `value` at the tail. Wait-free: completes within
    /// `max_threads` turn-serving rounds regardless of other threads.
    pub fn enqueue(&self, handle: &mut R::Handle, value: T) {
        // Enqueue only ever pins the tail snapshot; dequeue needs all three.
        let guard = handle.enter();
        let mut tail_shield: Shield<'_, Node<T>, R::Handle> = guard
            .shield()
            .expect("CrTurnQueue: reservation slots exhausted (enqueue needs one Shield)");
        let tid = self.publish_enqueue_request(&guard, value);
        self.complete_enqueue(&guard, &mut tail_shield, tid);
    }

    /// Step 1 of an enqueue: publish the node in `enqueuers[tid]` where any
    /// thread can (and eventually will) append it on our behalf.
    fn publish_enqueue_request(&self, guard: &Guard<'_, R::Handle>, value: T) -> usize {
        let tid = guard.thread_id();
        let node = guard.alloc(Node::new(Some(value), tid));
        self.enqueuers[tid].store(node, Ordering::SeqCst);
        tid
    }

    /// Steps 2-4 of an enqueue: serve requests in turn order until ours has
    /// been appended (at most `max_threads` tail advances away).
    fn complete_enqueue(
        &self,
        guard: &Guard<'_, R::Handle>,
        tail_shield: &mut Shield<'_, Node<T>, R::Handle>,
        tid: usize,
    ) {
        let max_threads = self.max_threads();
        for _ in 0..max_threads {
            // ORDER: null means a helper closed our request; pairs with that AcqRel/Release close.
            if self.enqueuers[tid].load(Ordering::Acquire).is_null() {
                break; // Some thread appended our node for us.
            }
            let ltail = tail_shield.protect(guard, &self.tail, None);
            // ORDER: tail re-validation; pairs with the AcqRel tail swing.
            if ltail.as_raw() != self.tail.load(Ordering::Acquire) {
                continue; // Tail advanced: one more request was served.
            }
            // SAFETY: `tail_shield` protects `ltail`; it is re-protected
            // only on the next loop iteration, after this reference's last
            // use.
            let ltail_ref = unsafe { ltail.as_ref() }.expect("the tail is never null");
            // Step 4 for the previous enqueue: the node that became the tail
            // satisfied `enq_tid`'s request; close that request.
            let ltail_enq_tid = ltail_ref.enq_tid;
            // ORDER: pairs with the SeqCst publish of the enqueue request.
            if self.enqueuers[ltail_enq_tid].load(Ordering::Acquire) == ltail.as_raw() {
                let _ = self.enqueuers[ltail_enq_tid].compare_exchange(
                    ltail.as_raw(),
                    ptr::null_mut(),
                    Ordering::AcqRel, // ORDER: success publishes the served request's close; failure observes a concurrent close.
                    Ordering::Acquire,
                );
            }
            // Step 2: append the node of the next pending enqueuer in turn
            // order (circularly after the tail's own enqueuer).
            for j in 1..=max_threads {
                let node_to_help =
                    self.enqueuers[(j + ltail_enq_tid) % max_threads].load(Ordering::Acquire); // ORDER: pairs with the SeqCst publish of the pending request.
                if node_to_help.is_null() {
                    continue;
                }
                let _ = ltail_ref.next.compare_exchange(
                    ptr::null_mut(),
                    node_to_help,
                    Ordering::AcqRel, // ORDER: success publishes the appended node; failure observes the winning append.
                    Ordering::Acquire,
                );
                break;
            }
            // Step 3: swing the tail over whatever got appended.
            let lnext = ltail_ref.next.load(Ordering::Acquire); // ORDER: pairs with the AcqRel append of the successor.
            if !lnext.is_null() {
                let _ = self.tail.compare_exchange(
                    ltail.as_raw(),
                    lnext,
                    Ordering::AcqRel, // ORDER: success publishes the new tail; failure observes the winning swing.
                    Ordering::Acquire,
                );
            }
        }
        // After `max_threads` tail advances our request must have been served;
        // close it ourselves in case no helper got to step 4 yet.
        self.enqueuers[tid].store(ptr::null_mut(), Ordering::Release); // ORDER: closes our own request; pairs with helpers' Acquire reads.
    }

    /// Removes the element at the head, if any. Wait-free: the request is
    /// granted within `max_threads` head advances.
    pub fn dequeue(&self, handle: &mut R::Handle) -> Option<T> {
        let guard = handle.enter();
        let mut sh = Self::shields(&guard);
        let tid = guard.thread_id();
        let (pr_req, my_req) = self.publish_dequeue_request(tid);
        self.complete_dequeue(&guard, &mut sh, tid, pr_req, my_req)
    }

    /// Step 1 of a dequeue: open this thread's request by making `deqself`
    /// and `deqhelp` agree on the current request marker.
    fn publish_dequeue_request(&self, tid: usize) -> (*mut Linked<Node<T>>, *mut Linked<Node<T>>) {
        let pr_req = self.deqself[tid].load(Ordering::Acquire); // ORDER: the marker it names was granted by a helper's AcqRel CAS; pairs with that.
        let my_req = self.deqhelp[tid].load(Ordering::Acquire); // ORDER: pairs with helpers' AcqRel grant of our previous request.
        self.deqself[tid].store(my_req, Ordering::SeqCst);
        (pr_req, my_req)
    }

    /// Steps 2-3 of a dequeue: serve open requests in turn order until ours
    /// is granted (or the queue is seen empty), then read the granted node.
    fn complete_dequeue(
        &self,
        guard: &Guard<'_, R::Handle>,
        sh: &mut CrShields<'_, T, R::Handle>,
        tid: usize,
        pr_req: *mut Linked<Node<T>>,
        my_req: *mut Linked<Node<T>>,
    ) -> Option<T> {
        for _ in 0..self.max_threads() {
            // ORDER: a change means a helper granted our request; pairs with that AcqRel CAS.
            if self.deqhelp[tid].load(Ordering::Acquire) != my_req {
                break; // Our request has been granted.
            }
            let lhead = sh.first.protect(guard, &self.head, None);
            // ORDER: empty check; pairs with the AcqRel tail swing.
            if lhead.as_raw() == self.tail.load(Ordering::Acquire) {
                // The queue is empty. Close the request, then resolve the
                // race with helpers that read it while it was still open.
                self.deqself[tid].store(pr_req, Ordering::SeqCst);
                self.give_up(guard, sh, my_req, tid);
                // ORDER: re-check after close; pairs with a helper's AcqRel grant.
                if self.deqhelp[tid].load(Ordering::Acquire) != my_req {
                    // A helper granted us a node anyway; take it below.
                    self.deqself[tid].store(my_req, Ordering::Relaxed); // ORDER: own slot (single writer); the grant itself was read with Acquire above.
                    break;
                }
                return None;
            }
            // SAFETY: `sh.first` protects `lhead`; the protects below go
            // through `sh.next`/`sh.deq`, so the reference stays pinned
            // until the next loop iteration.
            let lhead_ref = unsafe { lhead.as_ref() }.expect("the head is never null");
            let lnext = sh.next.protect(guard, &lhead_ref.next, Some(lhead));
            // ORDER: head re-validation; pairs with the AcqRel head swing.
            if lhead.as_raw() != self.head.load(Ordering::Acquire) {
                continue;
            }
            // `head != tail` implies a successor (the head never overtakes
            // the tail); the check is purely defensive, as in `give_up`.
            if lnext.is_null() {
                continue;
            }
            if self.search_next(lhead, lnext) != IDX_NONE {
                self.cas_deq_and_head(guard, sh, lhead, lnext, tid);
            }
        }
        // Our request is granted: `deqhelp[tid]` holds the node with our
        // value. Only we will ever retire it (as `pr_req` of our next
        // dequeue), so reading it without a reservation is safe.
        // SAFETY: ownership argument above — the granted node can only be
        // retired by this thread, at the start of its *next* dequeue.
        let my_node =
            unsafe { Protected::from_unlinked(self.deqhelp[tid].load(Ordering::Acquire)) }; // ORDER: pairs with the helper's AcqRel grant that closed our request.
        debug_assert!(
            my_node.as_raw() != my_req,
            "request still open after bounded help"
        );
        // Finish step 3 on behalf of the helper that granted us `my_node` but
        // has not swung the head yet.
        let lhead = sh.first.protect(guard, &self.head, None);
        // SAFETY: `sh.first` protects `lhead` and is not re-protected for
        // the rest of this function.
        let lhead_next = unsafe { lhead.as_ref() }
            .expect("the head is never null")
            .next
            .load(Ordering::Acquire); // ORDER: pairs with the AcqRel append of the successor.
                                      // ORDER: head re-validation; pairs with the AcqRel head swing.
        if lhead.as_raw() == self.head.load(Ordering::Acquire) && my_node.as_raw() == lhead_next {
            let _ = self.head.compare_exchange(
                lhead.as_raw(),
                my_node.as_raw(),
                Ordering::AcqRel, // ORDER: success publishes the new head; failure observes the winning swing.
                Ordering::Acquire,
            );
        }
        // SAFETY: `my_node` was built with `from_unlinked` under the
        // ownership argument above — only this thread can retire it, and it
        // does so no earlier than its next dequeue.
        let value = unsafe { my_node.as_ref() }
            .expect("granted node is never null")
            .value;
        // The marker of our *previous* request can no longer be the sentinel
        // or be named by any in-flight helper on our behalf: retire it.
        // SAFETY: exactly the argument above — only this thread retires its
        // previous request marker, and it does so once.
        unsafe { Protected::from_unlinked(pr_req).retire_in(guard) };
        value
    }

    /// Decides which open dequeue request the node `lnext` serves: the first
    /// open request circularly after the departing head's `deq_tid`. Returns
    /// the claimed thread id, or [`IDX_NONE`] if no request is open.
    fn search_next(&self, lhead: Protected<'_, Node<T>>, lnext: Protected<'_, Node<T>>) -> i64 {
        let max_threads = self.max_threads();
        // SAFETY: the caller protects `lhead` through `sh.first` and does
        // not re-protect it while this call runs.
        let turn = unsafe { lhead.as_ref() }
            .expect("the head is never null")
            .deq_tid
            .load(Ordering::Acquire); // ORDER: pairs with the AcqRel claim recorded in the departing head.
                                      // SAFETY: the caller protects `lnext` through `sh.next` and does not
                                      // re-protect it while this call runs.
        let lnext_ref = unsafe { lnext.as_ref() }.expect("caller checked lnext is non-null");
        for idx in (turn + 1)..(turn + 1 + max_threads as i64) {
            let id_deq = idx as usize % max_threads;
            if self.deqself[id_deq].load(Ordering::Acquire) // ORDER: open-request check; pairs with the SeqCst open and AcqRel grants.
                != self.deqhelp[id_deq].load(Ordering::Acquire)
            {
                continue; // Closed request.
            }
            // ORDER: claim check; pairs with the AcqRel claim CAS.
            if lnext_ref.deq_tid.load(Ordering::Acquire) == IDX_NONE {
                let _ = lnext_ref.deq_tid.compare_exchange(
                    IDX_NONE,
                    id_deq as i64,
                    Ordering::AcqRel, // ORDER: success publishes the claim; failure observes the winning claim.
                    Ordering::Acquire,
                );
            }
            break;
        }
        lnext_ref.deq_tid.load(Ordering::Acquire) // ORDER: returns the claim; pairs with the AcqRel claim CAS.
    }

    /// Grants `lnext` to the request it was claimed for, then swings the
    /// head. `lhead` and `lnext` must be protected by the caller.
    fn cas_deq_and_head(
        &self,
        guard: &Guard<'_, R::Handle>,
        sh: &mut CrShields<'_, T, R::Handle>,
        lhead: Protected<'_, Node<T>>,
        lnext: Protected<'_, Node<T>>,
        tid: usize,
    ) {
        // SAFETY: the caller protects `lnext` through `sh.next`; the only
        // protect below goes through `sh.deq`.
        let ldeq_tid = unsafe { lnext.as_ref() }
            .expect("caller checked lnext is non-null")
            .deq_tid
            .load(Ordering::Acquire); // ORDER: pairs with the AcqRel claim of `lnext`.
        debug_assert!(ldeq_tid >= 0, "granting an unclaimed node");
        let ldeq_tid = ldeq_tid as usize;
        if ldeq_tid == tid {
            // Our own request: no other thread stores anything else here.
            self.deqhelp[ldeq_tid].store(lnext.as_raw(), Ordering::Release); // ORDER: publishes the grant; pairs with Acquire reads of `deqhelp`.
        } else {
            // Helping another thread: pin its current marker so the CAS
            // cannot ABA over a recycled node, and re-validate the head.
            let ldeqhelp = sh.deq.protect(guard, &self.deqhelp[ldeq_tid], None);
            if ldeqhelp.as_raw() != lnext.as_raw()
                // ORDER: head re-validation; pairs with the AcqRel head swing.
                && lhead.as_raw() == self.head.load(Ordering::Acquire)
            {
                let _ = self.deqhelp[ldeq_tid].compare_exchange(
                    ldeqhelp.as_raw(),
                    lnext.as_raw(),
                    Ordering::AcqRel, // ORDER: success publishes the grant; failure observes the winning grant.
                    Ordering::Acquire,
                );
            }
        }
        let _ = self.head.compare_exchange(
            lhead.as_raw(),
            lnext.as_raw(),
            Ordering::AcqRel, // ORDER: success publishes the new head; failure observes the winning swing.
            Ordering::Acquire,
        );
    }

    /// Called after closing a request on the empty path: if the queue turned
    /// non-empty in the meantime, decisively claim the node after the head —
    /// for whichever request is open, or for ourselves — so that no helper
    /// that still saw our request open can grant us a node *after* we report
    /// the queue empty.
    fn give_up(
        &self,
        guard: &Guard<'_, R::Handle>,
        sh: &mut CrShields<'_, T, R::Handle>,
        my_req: *mut Linked<Node<T>>,
        tid: usize,
    ) {
        let lhead = sh.first.protect(guard, &self.head, None);
        if self.deqhelp[tid].load(Ordering::Acquire) != my_req // ORDER: pairs with a helper's AcqRel grant.
            || lhead.as_raw() == self.tail.load(Ordering::Acquire)
        // ORDER: empty re-check; pairs with the AcqRel tail swing.
        {
            return;
        }
        // SAFETY: `sh.first` protects `lhead`; only `sh.next` and `sh.deq`
        // are re-protected below.
        let lhead_ref = unsafe { lhead.as_ref() }.expect("the head is never null");
        let lnext = sh.next.protect(guard, &lhead_ref.next, Some(lhead));
        // ORDER: head re-validation; pairs with the AcqRel head swing.
        if lhead.as_raw() != self.head.load(Ordering::Acquire) || lnext.is_null() {
            return;
        }
        if self.search_next(lhead, lnext) == IDX_NONE {
            // SAFETY: `sh.next` protects `lnext` and is not re-protected for
            // the rest of this function.
            let _ = unsafe { lnext.as_ref() }
                .expect("checked non-null above")
                .deq_tid
                // ORDER: success publishes the claim; failure observes the winner.
                .compare_exchange(IDX_NONE, tid as i64, Ordering::AcqRel, Ordering::Acquire);
        }
        self.cas_deq_and_head(guard, sh, lhead, lnext, tid);
    }

    /// Returns `true` if the queue appeared empty at the moment of the call.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire) == self.tail.load(Ordering::Acquire) // ORDER: emptiness snapshot; pairs with the AcqRel head/tail swings.
    }

    /// Test hook: publishes an enqueue request and returns *without helping*,
    /// emulating a thread that stalls mid-operation. Helpers append the node
    /// on the stalled thread's behalf; the element is fully enqueued once any
    /// other thread runs its own operation past this request's turn.
    #[doc(hidden)]
    pub fn stall_enqueue_publish(&self, handle: &mut R::Handle, value: T) {
        let guard = handle.enter();
        self.publish_enqueue_request(&guard, value);
    }

    /// Test hook: opens a dequeue request and returns without helping,
    /// emulating a thread that stalls mid-operation. Pass the ticket to
    /// [`CrTurnQueue::resume_dequeue`] to finish the operation later.
    #[doc(hidden)]
    pub fn stall_dequeue_publish(&self, handle: &mut R::Handle) -> DequeueTicket<T> {
        let guard = handle.enter();
        let (pr_req, my_req) = self.publish_dequeue_request(guard.thread_id());
        DequeueTicket { pr_req, my_req }
    }

    /// Test hook: finishes a dequeue opened by
    /// [`CrTurnQueue::stall_dequeue_publish`]. Must be called on the same
    /// thread (same handle) that opened the ticket.
    #[doc(hidden)]
    pub fn resume_dequeue(&self, handle: &mut R::Handle, ticket: DequeueTicket<T>) -> Option<T> {
        let guard = handle.enter();
        let mut sh = Self::shields(&guard);
        let tid = guard.thread_id();
        self.complete_dequeue(&guard, &mut sh, tid, ticket.pr_req, ticket.my_req)
    }
}

impl<T, R: Reclaimer> Drop for CrTurnQueue<T, R> {
    fn drop(&mut self) {
        // Exclusive access. Free every node still reachable, deduplicating:
        // the current sentinel (and, after an abandoned stalled enqueue, a
        // node parked in `enqueuers`) can also be named by a request array,
        // and the first sentinel is still the head if nothing was dequeued.
        let mut freed = std::collections::HashSet::new();
        let mut cur = self.head.load(Ordering::Relaxed); // ORDER: Drop has exclusive access.
        while !cur.is_null() {
            // SAFETY: `Drop` has exclusive access; every reachable node is
            // valid until deallocated below.
            let next = unsafe { (*cur).value.next.load(Ordering::Relaxed) }; // ORDER: Drop has exclusive access.
            if freed.insert(cur) {
                // SAFETY: the `freed` set guarantees each node (the sentinel
                // may be named twice) is freed exactly once.
                unsafe { Linked::dealloc(cur) };
            }
            cur = next;
        }
        for array in [&self.enqueuers, &self.deqself, &self.deqhelp] {
            for slot in array.iter() {
                let node = slot.load(Ordering::Relaxed); // ORDER: Drop has exclusive access.
                if !node.is_null() && freed.insert(node) {
                    // SAFETY: as above — deduplicated, exclusive access.
                    unsafe { Linked::dealloc(node) };
                }
            }
        }
        if freed.insert(self.first_sentinel) {
            // SAFETY: as above; no operation ever retires the first sentinel.
            unsafe { Linked::dealloc(self.first_sentinel) };
        }
    }
}

impl<R: Reclaimer> ConcurrentQueue<R> for CrTurnQueue<u64, R> {
    fn with_domain(domain: Arc<R>) -> Self {
        Self::new(domain)
    }

    fn enqueue(&self, handle: &mut R::Handle, value: u64) {
        CrTurnQueue::enqueue(self, handle, value)
    }

    fn dequeue(&self, handle: &mut R::Handle) -> Option<u64> {
        CrTurnQueue::dequeue(self, handle)
    }

    fn required_slots() -> usize {
        Self::REQUIRED_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfe_reclaim::{Ebr, He, Hp, Ibr2Ge, Leak, ReclaimerConfig};
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
        type Queue = CrTurnQueue<u64, He>;
        crate::layout::assert_own_lines::<Queue>(
            &[
                ("head", offset_of!(Queue, head)),
                ("tail", offset_of!(Queue, tail)),
            ],
            &[
                ("enqueuers", offset_of!(Queue, enqueuers)),
                ("deqself", offset_of!(Queue, deqself)),
                ("deqhelp", offset_of!(Queue, deqhelp)),
                ("first_sentinel", offset_of!(Queue, first_sentinel)),
                ("domain", offset_of!(Queue, domain)),
            ],
        );
    }

    fn fifo_single_threaded<R: Reclaimer>() {
        let domain = R::with_config(small_config(4));
        let queue = CrTurnQueue::<u64, R>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        assert!(queue.is_empty());
        assert_eq!(queue.dequeue(&mut handle), None);
        for i in 0..200 {
            queue.enqueue(&mut handle, i);
        }
        assert!(!queue.is_empty());
        for i in 0..200 {
            assert_eq!(queue.dequeue(&mut handle), Some(i));
        }
        assert_eq!(queue.dequeue(&mut handle), None);
        assert!(queue.is_empty());
    }

    #[test]
    fn fifo_order_under_every_scheme() {
        fifo_single_threaded::<He>();
        fifo_single_threaded::<Ebr>();
        fifo_single_threaded::<Hp>();
        fifo_single_threaded::<Ibr2Ge>();
        fifo_single_threaded::<Leak>();
    }

    #[test]
    fn interleaved_enqueue_dequeue_preserves_order() {
        let domain = He::with_config(small_config(2));
        let queue = CrTurnQueue::<u64, He>::new(Arc::clone(&domain));
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
        let queue = CrTurnQueue::<u64, He>::new(Arc::clone(&domain));
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
        const THREADS: usize = 3;
        const PER_THREAD: u64 = 1_500;
        let domain = He::with_config(small_config(THREADS + 1));
        let queue = CrTurnQueue::<u64, He>::new(Arc::clone(&domain));
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

    #[test]
    fn empty_dequeues_interleaved_with_concurrent_enqueues() {
        // Hammers the give-up path: consumers repeatedly observe an empty
        // queue while a producer races to refill it; no element may be lost
        // or duplicated.
        const ROUNDS: u64 = 2_000;
        let domain = He::with_config(small_config(3));
        let queue = CrTurnQueue::<u64, He>::new(Arc::clone(&domain));
        let consumed_sum = AtomicU64::new(0);
        let consumed_count = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let producer_domain = Arc::clone(&domain);
            let producer_queue = &queue;
            scope.spawn(move || {
                let mut handle = producer_domain.register();
                for i in 1..=ROUNDS {
                    producer_queue.enqueue(&mut handle, i);
                }
            });
            for _ in 0..2 {
                let queue = &queue;
                let domain = Arc::clone(&domain);
                let consumed_sum = &consumed_sum;
                let consumed_count = &consumed_count;
                scope.spawn(move || {
                    let mut handle = domain.register();
                    while consumed_count.load(SeqCst) < ROUNDS {
                        if let Some(v) = queue.dequeue(&mut handle) {
                            consumed_sum.fetch_add(v, SeqCst);
                            consumed_count.fetch_add(1, SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(consumed_count.load(SeqCst), ROUNDS);
        assert_eq!(consumed_sum.load(SeqCst), ROUNDS * (ROUNDS + 1) / 2);
    }

    #[test]
    fn helpers_complete_a_stalled_enqueue() {
        // A thread publishes an enqueue request and stalls forever; the next
        // operation by any other thread appends its node.
        let domain = He::with_config(small_config(3));
        let queue = CrTurnQueue::<u64, He>::new(Arc::clone(&domain));
        let mut stalled = domain.register();
        let mut worker = domain.register();
        queue.stall_enqueue_publish(&mut stalled, 41);
        assert!(queue.is_empty(), "stalled request is not yet linked");
        queue.enqueue(&mut worker, 42);
        // Both elements are now present: the worker's helping pass appended
        // the stalled node on its way to (or right after) its own. Their
        // relative order is the turn order, which depends on thread ids, so
        // assert on the set.
        let mut got = vec![
            queue.dequeue(&mut worker).unwrap(),
            queue.dequeue(&mut worker).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![41, 42]);
        assert_eq!(queue.dequeue(&mut worker), None);
    }

    #[test]
    fn helpers_grant_a_stalled_dequeue() {
        // A thread opens a dequeue request and stalls; another dequeuer's
        // turn-serving pass grants the stalled request *first* (it holds the
        // earlier turn), and the resumed operation just picks up the node.
        let domain = He::with_config(small_config(3));
        let queue = CrTurnQueue::<u64, He>::new(Arc::clone(&domain));
        let mut stalled = domain.register();
        let mut worker = domain.register();
        for i in 0..4 {
            queue.enqueue(&mut worker, i);
        }
        let ticket = queue.stall_dequeue_publish(&mut stalled);
        // The worker dequeues twice; its helping serves the stalled request's
        // turn as well, so between the stalled thread and the worker the
        // first three elements are consumed exactly once.
        let mut got = vec![
            queue.dequeue(&mut worker).unwrap(),
            queue.dequeue(&mut worker).unwrap(),
            queue.resume_dequeue(&mut stalled, ticket).unwrap(),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2]);
        assert_eq!(queue.dequeue(&mut worker), Some(3));
        assert_eq!(queue.dequeue(&mut worker), None);
    }
}
