//! The Harris-Michael ordered chain: the one traversal under the sorted list
//! and both hash maps.
//!
//! Harris's logical-deletion mark (DISC 2001) combined with Michael's
//! hazard-pointer compatible `find` (SPAA 2002): a singly-linked chain of
//! nodes sorted by key, in which a logically deleted node has the low bit of
//! its `next` pointer set; `find` physically unlinks such nodes as it passes
//! them and retires them through the reclamation scheme.
//!
//! The chain is generic over the key *type*, and the key's `Ord` is the
//! chain's order:
//!
//! * [`MichaelList`](crate::MichaelList) — and through it every bucket of
//!   [`MichaelHashMap`](crate::MichaelHashMap) — keeps `K = u64`;
//! * [`ResizableHashMap`](crate::ResizableHashMap) keeps
//!   `K = (split-order key, key)`, whose lexicographic order is the
//!   split-ordered list's total order, and `V = Option<V>` (`None` in a
//!   bucket's dummy node).
//!
//! Every operation takes a [`Start`]: the link it begins at and goes back to
//! when another thread interferes. A start is either a *root* — a link
//! outside any node, such as the list's head — or the `next` link of an
//! *immortal* node, one that is never marked and never retired, such as a
//! bucket's dummy. Either way nothing has to protect the link's owner, which
//! is why a traversal from the middle of a chain needs no third reservation.
//! One operation's two reservations — the hand-over-hand `(prev, curr)`
//! window — are leased by its [`Cursor`].

use wfe_sync::atomic::Ordering;

use wfe_reclaim::tag;
use wfe_reclaim::{Atomic, Guard, Linked, Protected, RawHandle, Shield};

/// Mark bit set on `next` when the owning node is logically deleted.
const MARK: usize = 1;

/// Reservation slots one chain operation needs per thread: the hand-over-hand
/// `(prev, curr)` window its [`Cursor`] leases.
pub(crate) const REQUIRED_SLOTS: usize = 2;

/// A node of an ordered chain.
///
/// `key` and `next` come first and in that order: they are the two words
/// every `find` step reads, and behind the 16-byte block header they fill
/// bytes 16..32 of a list node — one line in seven nodes of eight at the
/// 40-byte stride the nodes are carved at.
#[repr(C)]
pub struct Node<K, V> {
    key: K,
    next: Atomic<Node<K, V>>,
    value: V,
}

impl<K, V> Node<K, V> {
    /// An unlinked node.
    pub(crate) fn unlinked(key: K, value: V) -> Self {
        Self {
            key,
            next: Atomic::null(),
            value,
        }
    }
}

/// A raw, untagged pointer to a chain node's block.
pub(crate) type NodePtr<K, V> = *mut Linked<Node<K, V>>;

/// Where a traversal starts, and restarts on interference: a link that is
/// never marked, inside an owner that is never reclaimed while the chain is
/// shared.
pub(crate) struct Start<'g, K, V> {
    link: &'g Atomic<Node<K, V>>,
    /// The node `link` is the `next` field of; null for a root.
    owner: Protected<'g, Node<K, V>>,
}

impl<'g, K, V> Start<'g, K, V> {
    /// Starts at a root: a link that is part of no node, so nothing can mark
    /// it and the borrow keeps it alive.
    pub(crate) fn root(link: &'g Atomic<Node<K, V>>) -> Self {
        Self {
            link,
            owner: Protected::null(),
        }
    }

    /// Starts at the `next` link of `node`, with a caller-chosen lifetime.
    ///
    /// # Safety
    ///
    /// `node` must be an immortal node of the chain: never marked (no
    /// `remove` is ever called with its key) and not retired or freed before
    /// `'g` ends.
    pub(crate) unsafe fn after(node: NodePtr<K, V>) -> Self {
        // SAFETY: forwarded contract — the node is immortal, so the reference
        // cannot dangle within `'g` and the node may serve as the window's
        // parent without a reservation (the sentinel case of `from_unlinked`).
        unsafe {
            Self {
                link: &(*node).value.next,
                owner: Protected::from_unlinked(node),
            }
        }
    }
}

/// The result of a `find`: the location of the link to `curr` (`prev_src`,
/// the start link or the `next` field of the protected predecessor) and the
/// first node with `node.key >= key` (`curr`, null at the end of the chain).
/// Both live only as long as the guard they were read under.
struct Window<'g, K, V> {
    prev_src: &'g Atomic<Node<K, V>>,
    curr: Protected<'g, Node<K, V>>,
    found: bool,
}

/// Where a `find` walk stands: the link to the next node, and the node that
/// link belongs to (the last node passed, or the start's owner).
struct At<'g, K, V> {
    prev_src: &'g Atomic<Node<K, V>>,
    prev: Protected<'g, Node<K, V>>,
}

impl<K, V> Clone for At<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V> Copy for At<'_, K, V> {}

/// One operation's view of a chain: its guard and the two shields of the
/// hand-over-hand window, leased from that guard. The shields swap roles as
/// a traversal advances, so a node keeps its shield while it remains part of
/// the window.
///
/// As with every structure's operations, the guard must bracket a handle of
/// the domain the chain's nodes are allocated in.
pub(crate) struct Cursor<'g, K, V, H: RawHandle> {
    guard: &'g Guard<'g, H>,
    shields: [Shield<'g, Node<K, V>, H>; 2],
}

impl<'g, K: Copy + Ord, V, H: RawHandle> Cursor<'g, K, V, H> {
    /// Leases the window's two shields from the operation's guard.
    pub(crate) fn new(guard: &'g Guard<'g, H>) -> Self {
        let lease = || {
            guard
                .shield()
                .expect("ordered chain: reservation slots exhausted (find needs two Shields)")
        };
        Self {
            guard,
            shields: [lease(), lease()],
        }
    }

    /// Michael's `find`: positions a window `(prev, curr)` such that `curr` is
    /// the first node after `start` with `curr.key >= key`, unlinking and
    /// retiring any logically deleted node encountered on the way. Both
    /// window nodes are protected (through the two shields) when the function
    /// returns. Restarting on interference goes back to `start`, which is
    /// always valid: its link is never marked and its owner never reclaimed.
    ///
    /// The walk alternates the two shields in two written-out steps rather
    /// than through an index, so each step's shield is a fixed field of the
    /// cursor: the traversal keeps one pointer to the pair live, not two.
    fn find(&mut self, start: &Start<'g, K, V>, key: K) -> Window<'g, K, V> {
        let guard = self.guard;
        let [first, second] = &mut self.shields;
        'retry: loop {
            let mut at = At {
                prev_src: start.link,
                prev: start.owner,
            };
            let outcome = loop {
                if let Err(outcome) = Self::step(guard, first, &mut at, key) {
                    break outcome;
                }
                if let Err(outcome) = Self::step(guard, second, &mut at, key) {
                    break outcome;
                }
            };
            match outcome {
                Some(window) => return window,
                None => continue 'retry,
            }
        }
    }

    /// One node of [`find`](Self::find): protects the node at `at.prev_src`
    /// through `here` (the other shield covers `at.prev`) and unlinks and
    /// retires it while it is logically deleted, re-protecting its successor
    /// through `here`. Then either ends the walk — `Err(Some(window))` — or
    /// advances hand-over-hand: the node becomes `prev` and keeps `here`,
    /// and the next step protects its successor through the other shield —
    /// `Ok(())`. `Err(None)` asks for a restart from `start`.
    #[inline(always)]
    fn step(
        guard: &'g Guard<'g, H>,
        here: &mut Shield<'g, Node<K, V>, H>,
        at: &mut At<'g, K, V>,
        key: K,
    ) -> Result<(), Option<Window<'g, K, V>>> {
        let mut curr = here.protect(guard, at.prev_src, Some(at.prev));
        loop {
            if curr.is_null() {
                return Err(Some(Window {
                    prev_src: at.prev_src,
                    curr: Protected::null(),
                    found: false,
                }));
            }
            if curr.tag() != 0 {
                // The link we came through is marked, i.e. `prev` itself is
                // being deleted: restart from `start`.
                return Err(None);
            }
            // SAFETY: `curr` is protected by `here`, which is re-protected
            // only after `curr` leaves the window (the other shield covers
            // `prev`), so the reference stays pinned while it is used. It is
            // non-null and its tag is zero (both checked above), so the step
            // to the node is one load off the protected value itself.
            let curr_ref = unsafe { curr.as_clean_ref() };
            // ORDER: pairs with the AcqRel link and mark writes on `next`.
            let next_raw = curr_ref.next.load(Ordering::Acquire);
            if tag::tag_of(next_raw) == MARK {
                // `curr` is logically deleted: unlink it and retire it.
                let next = tag::untagged(next_raw);
                match at.prev_src.compare_exchange(
                    curr.as_raw(),
                    next,
                    Ordering::AcqRel, // ORDER: success publishes the unlink; failure observes the winner.
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        // SAFETY: we won the unlink CAS, so `curr` is
                        // unreachable and ours to retire exactly once.
                        curr = unsafe { Self::retire_unlinked(guard, here, *at, curr) };
                        continue;
                    }
                    Err(_) => return Err(None),
                }
            }
            let curr_key = curr_ref.key;
            // Validate that `curr` is still linked after we protected it; if
            // not, the key we just read may belong to a node that was removed
            // and the window would be stale.
            // ORDER: window re-validation; pairs with AcqRel link/unlink CASes.
            if at.prev_src.load(Ordering::Acquire) != curr.as_raw() {
                return Err(None);
            }
            if curr_key >= key {
                return Err(Some(Window {
                    prev_src: at.prev_src,
                    curr,
                    found: curr_key == key,
                }));
            }
            // Advance hand-over-hand: `curr` becomes the new `prev` and keeps
            // its shield; `prev`'s shield is recycled for the new `curr`.
            at.prev = curr;
            at.prev_src = &curr_ref.next;
            return Ok(());
        }
    }

    /// Retires `unlinked`, which a step just cut out after `at.prev`, and
    /// protects its successor through `here`: the rare branch of the walk,
    /// kept out of line and cold so the values the walk keeps live stay in
    /// registers across it instead of on the stack.
    ///
    /// # Safety
    ///
    /// As [`Protected::retire_in`]'s, for `unlinked`.
    #[cold]
    #[inline(never)]
    unsafe fn retire_unlinked(
        guard: &'g Guard<'g, H>,
        here: &mut Shield<'g, Node<K, V>, H>,
        at: At<'g, K, V>,
        unlinked: Protected<'g, Node<K, V>>,
    ) -> Protected<'g, Node<K, V>> {
        // SAFETY: forwarded contract.
        unsafe { unlinked.retire_in(guard) };
        here.protect(guard, at.prev_src, Some(at.prev))
    }

    /// Links a new `key → value` node into the chain after `start` and
    /// returns it, or — when `key` is already present — returns the node that
    /// holds it as the error (dropping `value`). Either pointer is protected
    /// only until this cursor's next call.
    ///
    /// The node is allocated before the first `find`, so an insert costs one
    /// allocation whether or not the key turns out to be present.
    pub(crate) fn insert(
        &mut self,
        start: &Start<'g, K, V>,
        key: K,
        value: V,
    ) -> Result<NodePtr<K, V>, NodePtr<K, V>> {
        let node = self.guard.alloc(Node::unlinked(key, value));
        loop {
            let window = self.find(start, key);
            if window.found {
                // Key already present: the freshly allocated node was never
                // published, so it goes straight back to the magazine.
                // SAFETY: `node` never became reachable; discarded exactly once.
                unsafe { self.guard.discard(node) };
                return Err(window.curr.as_raw());
            }
            // SAFETY: `node` is owned and unpublished until the CAS succeeds.
            unsafe {
                (*node)
                    .value
                    .next
                    .store(window.curr.as_raw(), Ordering::Release) // ORDER: publishes the node's link before the CAS publishes the node.
            };
            if window
                .prev_src
                .compare_exchange(
                    window.curr.as_raw(),
                    node,
                    Ordering::AcqRel, // ORDER: success publishes the node; failure observes the winning link.
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return Ok(node);
            }
        }
    }

    /// Removes `key` from the chain after `start`; returns `true` if it was
    /// present.
    pub(crate) fn remove(&mut self, start: &Start<'g, K, V>, key: K) -> bool {
        loop {
            let window = self.find(start, key);
            if !window.found {
                return false;
            }
            let curr = window.curr;
            // SAFETY: the window's shields are not re-protected between
            // `find` returning and the last use of this reference (the
            // unlink-failure `find` below runs after it).
            let curr_ref = unsafe { curr.as_ref() }.expect("found window has a node");
            // ORDER: pairs with the AcqRel mark/link writes on `next`.
            let next_raw = curr_ref.next.load(Ordering::Acquire);
            if tag::tag_of(next_raw) == MARK {
                // Another remover got here first; retry to settle who wins.
                continue;
            }
            // Logical deletion: mark the next pointer of `curr`.
            if curr_ref
                .next
                .compare_exchange(
                    next_raw,
                    tag::with_tag(next_raw, MARK),
                    Ordering::AcqRel, // ORDER: success publishes the logical delete; failure observes the winner.
                    Ordering::Acquire,
                )
                .is_err()
            {
                continue;
            }
            // Physical deletion: unlink it ourselves or let a later `find` do it.
            if window
                .prev_src
                .compare_exchange(
                    curr.as_raw(),
                    tag::untagged(next_raw),
                    Ordering::AcqRel, // ORDER: success publishes the unlink; failure defers to a later `find`.
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // SAFETY: we marked and then unlinked `curr`; the winning
                // unlink CAS makes it ours to retire exactly once.
                unsafe { curr.retire_in(self.guard) };
            } else {
                let _ = self.find(start, key);
            }
            return true;
        }
    }

    /// Looks up `key` in the chain after `start`. The value stays pinned by
    /// the window for as long as it is borrowed: the borrow keeps this cursor
    /// from traversing again.
    pub(crate) fn get(&mut self, start: &Start<'g, K, V>, key: K) -> Option<&V> {
        let window = self.find(start, key);
        if !window.found {
            return None;
        }
        // SAFETY: the window's shields are re-protected only by this
        // cursor's `&mut self` methods, which the returned borrow rules out,
        // so `curr` stays pinned while the value is in use.
        unsafe { window.curr.as_ref() }.map(|node| &node.value)
    }
}

/// Frees every node reachable from `first`, marked or not: the walk of an
/// owning structure's `Drop`.
///
/// # Safety
///
/// The caller must have exclusive access to the chain (no operation is or
/// will be running on it), and every node still reachable must be valid and
/// not retired — which holds for a chain only [`Cursor`]s have modified: a
/// node is retired only by the winner of its unlink.
pub(crate) unsafe fn free_chain<K, V>(first: &Atomic<Node<K, V>>) {
    let mut cur = tag::untagged(first.load(Ordering::Relaxed)); // ORDER: exclusive access (the caller's contract).
    while !cur.is_null() {
        // ORDER: exclusive access (the caller's contract).
        // SAFETY: exclusive access; every reachable node is valid.
        let next = tag::untagged(unsafe { (*cur).value.next.load(Ordering::Relaxed) });
        // SAFETY: as above — exclusive access, and the walk never returns to
        // `cur`, so it is freed exactly once.
        unsafe { Linked::dealloc(cur) };
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::fmt::Debug;
    use std::sync::Arc;

    use rand::prelude::*;
    use wfe_reclaim::{DomainConfig, Handle, He, Reclaimer};

    /// A bare chain: a root link and the walk that frees it.
    struct Chain<K, V>(Atomic<Node<K, V>>);

    impl<K, V> Drop for Chain<K, V> {
        fn drop(&mut self) {
            // SAFETY: the test is done with the chain; only cursors built it.
            unsafe { free_chain(&self.0) };
        }
    }

    /// A one-thread domain that bumps the era and scans every few
    /// retirements, so an unlinked node is really freed while the test still
    /// runs (and Miri would see a traversal touch it).
    fn eager_domain() -> Arc<He> {
        He::with_config(DomainConfig {
            cleanup_freq: 4,
            era_freq: 2,
            ..DomainConfig::with_max_threads(1)
        })
    }

    /// Random inserts, removes and lookups over `keys` from the root, each
    /// answer compared with a `BTreeMap`'s.
    fn check_against_a_model<K: Copy + Ord + Debug>(keys: &[K], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let domain = eager_domain();
        let mut handle = domain.register();
        let chain = Chain(Atomic::null());
        let mut model = BTreeMap::new();
        for step in 0..600u64 {
            let key = keys[rng.gen_range(0..keys.len())];
            let guard = handle.enter();
            let mut cursor = Cursor::new(&guard);
            let start = Start::root(&chain.0);
            match rng.gen_range(0..3) {
                0 => {
                    let fresh = !model.contains_key(&key);
                    assert_eq!(cursor.insert(&start, key, step).is_ok(), fresh, "{key:?}");
                    model.entry(key).or_insert(step);
                }
                1 => assert_eq!(
                    cursor.remove(&start, key),
                    model.remove(&key).is_some(),
                    "{key:?}"
                ),
                _ => assert_eq!(cursor.get(&start, key), model.get(&key), "{key:?}"),
            }
        }
        // What is left is the model's content, in the model's order.
        let guard = handle.enter();
        let mut cursor = Cursor::new(&guard);
        for &key in keys {
            assert_eq!(cursor.get(&Start::root(&chain.0), key), model.get(&key));
        }
        assert!(domain.stats().freed > 0, "the run must recycle nodes");
    }

    #[test]
    fn plain_keys_match_a_sequential_model() {
        let keys: Vec<u64> = (0..24).collect();
        check_against_a_model(&keys, 0xC0FFEE);
    }

    #[test]
    fn tuple_keys_match_a_sequential_model_by_both_components() {
        // Four first components, six second ones each: most comparisons are
        // decided by the second component.
        let keys: Vec<(u64, u64)> = (0..24).map(|i| (i / 6, (i * 7) % 6)).collect();
        check_against_a_model(&keys, 0xBADC0DE);
    }

    #[test]
    fn a_traversal_from_an_immortal_node_never_sees_the_keys_before_it() {
        let domain = eager_domain();
        let mut handle = domain.register();
        let chain = Chain(Atomic::null());
        let guard = handle.enter();
        let mut cursor = Cursor::new(&guard);
        let root = Start::root(&chain.0);
        // (1, 0..6), (2, 0..6), (3, 0..6); the node (2, 3) is never removed.
        let mut anchor = core::ptr::null_mut();
        for first in 1..4u64 {
            for second in 0..6u64 {
                let node = cursor
                    .insert(&root, (first, second), first * 10 + second)
                    .expect("fresh key");
                if (first, second) == (2, 3) {
                    anchor = node;
                }
            }
        }
        // SAFETY: nothing below removes (2, 3), and the chain outlives the
        // cursor.
        let mid = unsafe { Start::after(anchor) };
        for first in 1..4u64 {
            for second in 0..6u64 {
                let key = (first, second);
                let after_anchor = key > (2, 3);
                let seen = cursor.get(&mid, key).copied();
                assert_eq!(seen, after_anchor.then_some(first * 10 + second), "{key:?}");
                // A key before the start is not there to remove either; one
                // after it is found, and held, whichever way one arrives.
                if !after_anchor {
                    assert!(!cursor.remove(&mid, key), "{key:?}");
                    assert!(cursor.get(&root, key).is_some(), "{key:?} survives");
                } else {
                    let holder = cursor.insert(&mid, key, 0).expect_err("present");
                    assert_eq!(cursor.insert(&root, key, 0), Err(holder), "{key:?}");
                }
            }
        }
        // Updates made from the middle are the chain's: visible from the root.
        assert!(cursor.remove(&mid, (2, 5)));
        assert_eq!(cursor.get(&root, (2, 5)), None);
        assert!(cursor.insert(&mid, (2, 4), 99).is_err());
        assert!(cursor.insert(&mid, (2, 9), 29).is_ok());
        assert_eq!(cursor.get(&root, (2, 9)), Some(&29));
        assert!(cursor.remove(&root, (2, 9)));
        assert_eq!(cursor.get(&mid, (2, 9)), None);
    }

    #[test]
    fn a_find_step_reads_key_and_next_across_a_line_in_one_node_of_eight() {
        // `find` reads `key`, then `next`, of every node it passes. Behind
        // the 16-byte header they sit at block offsets 16..32. List nodes
        // are carved 40 bytes apart from 64-aligned slabs, so block k starts
        // 40k bytes past a line; of eight consecutive nodes exactly one (the
        // second) has the span cross a line, and its find step reads two
        // lines where the other seven read one.
        use core::mem::offset_of;
        type ListNode = Linked<Node<u64, u64>>;
        let node = offset_of!(ListNode, value);
        assert_eq!(node, 16, "the payload follows a 16-byte header");
        assert_eq!(node + offset_of!(Node<u64, u64>, key), 16);
        assert_eq!(node + offset_of!(Node<u64, u64>, next), 24);
        let stride = core::mem::size_of::<ListNode>();
        assert_eq!(stride, 40);
        let across: Vec<usize> = (0..8)
            .filter(|k| {
                let (first, last) = (stride * k + 16, stride * k + 31);
                first / 64 != last / 64
            })
            .collect();
        assert_eq!(across, [1], "one node in eight");
        assert_eq!(
            offset_of!(Node<u64, u64>, value),
            16,
            "the value comes last"
        );
        // The split-ordered node keeps the same order: its two-word key, then
        // the link.
        type SoNode = Node<(u64, u64), Option<u64>>;
        assert_eq!(offset_of!(SoNode, key), 0);
        assert_eq!(offset_of!(SoNode, next), 16);
        assert_eq!(offset_of!(SoNode, value), 24);
    }
}
