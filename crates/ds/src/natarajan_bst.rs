//! Natarajan-Mittal lock-free external binary search tree (PPoPP 2014).
//!
//! The "Natarajan BST" workload of Figures 8 and 11. The tree is *external*
//! (leaf-oriented): internal nodes only route, every key lives in a leaf.
//! Deletion marks **edges** rather than nodes: the edge to the leaf being
//! deleted is *flagged*, the edge to its sibling is *tagged* (frozen), and the
//! sibling is then promoted into the grandparent with a single CAS, detaching
//! the parent and the flagged leaf.
//!
//! Reservation usage: `seek` protects its window — the ancestor, parent and
//! leaf it hands back and the node currently being examined —
//! hand-over-hand while descending, with four reservation slots that rotate
//! as the window slides down the tree. It steps only through clean edges
//! (neither flagged nor tagged): behind a marked edge the child may already
//! be retired, so the seek helps that removal and starts over (see
//! `NatarajanBst::seek`). The ancestor is therefore always the leaf's
//! grandparent, and the promotion CAS swings the edge into the parent.

use std::sync::Arc;
use wfe_sync::atomic::Ordering;

use wfe_reclaim::tag;
use wfe_reclaim::{Atomic, Guard, Handle, Linked, Protected, Reclaimer, Shield};

use crate::traits::ConcurrentMap;

/// Edge bit: the node below this edge is being deleted.
const FLAG: usize = 1;
/// Edge bit: this edge is frozen and must not be modified.
const TAG: usize = 2;

/// Sentinel key ∞₁ (greater than every user key).
const KEY_INF1: u64 = u64::MAX - 1;
/// Sentinel key ∞₂ (greater than ∞₁).
const KEY_INF2: u64 = u64::MAX;

/// A tree node. Internal nodes have both children non-null and `value ==
/// None`; leaves have null children and carry the value.
// LAYOUT: a node's two edges share its line with its key: whoever CASes an
// edge has just compared that key, and a line per edge would triple the tree.
pub struct Node<V> {
    key: u64,
    value: Option<V>,
    left: Atomic<Node<V>>,
    right: Atomic<Node<V>>,
}

impl<V> Node<V> {
    fn leaf(key: u64, value: Option<V>) -> Self {
        Self {
            key,
            value,
            left: Atomic::null(),
            right: Atomic::null(),
        }
    }
}

/// The window returned by `seek`. Every role is a [`Protected`] tied to the
/// operation's guard, shielded, and reached through a clean edge.
struct SeekRecord<'g, V> {
    /// Parent of `parent`; the promotion CAS swings its edge into `parent`.
    ancestor: Protected<'g, Node<V>>,
    /// Parent of `leaf`.
    parent: Protected<'g, Node<V>>,
    /// The leaf the search ended at.
    leaf: Protected<'g, Node<V>>,
}

/// Natarajan-Mittal lock-free external BST, parameterised by the reclamation
/// scheme. User keys must be smaller than `u64::MAX - 1` (the two largest
/// values are reserved for the sentinels).
pub struct NatarajanBst<V, R: Reclaimer> {
    /// Super-root with key ∞₂; its left subtree holds all data.
    root: *mut Linked<Node<V>>,
    domain: Arc<R>,
}

// SAFETY: nodes own their `V`s; sending the structure sends those values.
unsafe impl<V: Send, R: Reclaimer> Send for NatarajanBst<V, R> {}
// SAFETY: concurrent operations hand out `&V` (via `get`/clone), so `V`
// must be `Sync` as well as `Send`; the structure's own synchronisation
// is the lock-free algorithm plus the reclamation protocol.
unsafe impl<V: Send + Sync, R: Reclaimer> Sync for NatarajanBst<V, R> {}

impl<V, R: Reclaimer> NatarajanBst<V, R> {
    /// Reservation slots the tree needs per thread: the rotating
    /// ancestor/parent/leaf/current window of `seek`.
    pub const REQUIRED_SLOTS: usize = 4;

    /// Leases the four shields of the rotating `seek` window from the
    /// operation's guard.
    fn seek_shields<'g>(guard: &'g Guard<'_, R::Handle>) -> [Shield<'g, Node<V>, R::Handle>; 4] {
        let lease = || {
            guard
                .shield()
                .expect("NatarajanBst: reservation slots exhausted (seek needs four Shields)")
        };
        [lease(), lease(), lease(), lease()]
    }

    /// Creates an empty tree guarded by `domain`.
    pub fn new(domain: Arc<R>) -> Self {
        debug_assert!(
            domain.config().slots_per_thread >= Self::REQUIRED_SLOTS,
            "NatarajanBst needs {} reservation slots per thread, domain provides {}",
            Self::REQUIRED_SLOTS,
            domain.config().slots_per_thread,
        );
        let mut handle = domain.register();
        // Sentinel structure: R(∞₂) → { S(∞₁) → { leaf(∞₁), leaf(∞₂) }, leaf(∞₂) }.
        let leaf_inf1 = handle.alloc(Node::leaf(KEY_INF1, None));
        let leaf_inf2a = handle.alloc(Node::leaf(KEY_INF2, None));
        let leaf_inf2b = handle.alloc(Node::leaf(KEY_INF2, None));
        let s = handle.alloc(Node {
            key: KEY_INF1,
            value: None,
            left: Atomic::new(leaf_inf1),
            right: Atomic::new(leaf_inf2a),
        });
        let root = handle.alloc(Node {
            key: KEY_INF2,
            value: None,
            left: Atomic::new(s),
            right: Atomic::new(leaf_inf2b),
        });
        drop(handle);
        Self { root, domain }
    }

    /// The reclamation domain guarding this tree.
    pub fn domain(&self) -> &Arc<R> {
        &self.domain
    }

    #[inline]
    fn child_edge(node: &Node<V>, key: u64) -> &Atomic<Node<V>> {
        if key < node.key {
            &node.left
        } else {
            &node.right
        }
    }

    /// Descends from the root to the leaf where `key` belongs, recording the
    /// (ancestor, parent, leaf) window, each protected by one of the four
    /// rotating shields.
    ///
    /// A node is dereferenced only if the edge `protect` read it through was
    /// clean. A removed internal node has both edges marked before it is
    /// detached, and marks are permanent, so a clean edge out of a node
    /// proves the node — hence the child — still linked when the protecting
    /// read happened: the reservation covers a child that was not yet
    /// retired. Through a marked edge the child may be retired and freed
    /// already (the edge is frozen and keeps pointing at it); the seek then
    /// helps the pending removal and starts over from the root. Helping is
    /// what keeps the restart lock-free: every restart completes a removal.
    fn seek<'g>(
        &self,
        guard: &'g Guard<'_, R::Handle>,
        shields: &mut [Shield<'_, Node<V>, R::Handle>; 4],
        key: u64,
    ) -> SeekRecord<'g, V> {
        loop {
            if let Some(record) = self.try_seek(guard, shields, key) {
                return record;
            }
        }
    }

    /// One descent of [`seek`](Self::seek): `None` once it has helped the
    /// removal whose marked edge it met.
    fn try_seek<'g>(
        &self,
        guard: &'g Guard<'_, R::Handle>,
        shields: &mut [Shield<'_, Node<V>, R::Handle>; 4],
        key: u64,
    ) -> Option<SeekRecord<'g, V>> {
        // SAFETY: the super-root R is an immortal sentinel — it is never
        // retired (only `Drop` frees it, with exclusive access).
        let root: Protected<'g, Node<V>> = unsafe { Protected::from_unlinked(self.root) };
        // SAFETY: the super-root is immortal (see above), so the reference
        // can never dangle.
        let root_ref = unsafe { root.as_ref() }.expect("the super-root always exists");
        // SAFETY: S, the sentinel below R, is likewise never retired.
        let s: Protected<'g, Node<V>> = unsafe {
            // ORDER: pairs with the AcqRel edge CASes below S (sentinel edges).
            Protected::from_unlinked(tag::untagged(root_ref.left.load(Ordering::Acquire)))
        };
        // SAFETY: S is immortal (see above).
        let s_ref = unsafe { s.as_ref() }.expect("the S sentinel always exists");

        // Shield indices of the window roles. They rotate as the window
        // slides down, so a node keeps its shield while it stays in the
        // window and only the role that leaves it is re-protected.
        let [mut shield_ancestor, mut shield_parent, mut shield_leaf, mut shield_current] =
            [0usize, 1, 2, 3];
        let mut ancestor = root;
        let mut parent = s;
        // The sentinels R and S are never retired, and no removal marks an
        // edge of S: its children are an internal node and the ∞₂ leaf.
        let mut leaf = shields[shield_leaf].protect(guard, Self::child_edge(s_ref, key), Some(s));
        loop {
            // SAFETY: `leaf` is pinned by `shields[shield_leaf]`, and the
            // edge that pin was published for was clean (S's, or checked
            // below), so the pin covers it.
            let leaf_ref = unsafe { leaf.as_ref() }.expect("internal nodes have children");
            let current =
                shields[shield_current].protect(guard, Self::child_edge(leaf_ref, key), Some(leaf));
            if current.tag() != 0 {
                // `leaf` is being removed and `current` may be freed: finish
                // the removal with the window one level down (`cleanup`
                // dereferences only the ancestor and the parent, both
                // shielded) and look again.
                let record = SeekRecord {
                    ancestor: parent,
                    parent: leaf,
                    leaf: current,
                };
                self.cleanup(guard, key, &record);
                return None;
            }
            if current.is_null() {
                return Some(SeekRecord {
                    ancestor,
                    parent,
                    leaf,
                });
            }
            // Slide the window down one level; the departing ancestor's
            // shield takes the next current.
            (shield_ancestor, shield_parent, shield_leaf, shield_current) =
                (shield_parent, shield_leaf, shield_current, shield_ancestor);
            (ancestor, parent, leaf) = (parent, leaf, current);
        }
    }

    /// Detaches the flagged leaf under `record.parent` by promoting its
    /// sibling into `record.ancestor`. Returns `true` when this call performed
    /// the promotion (and retired the detached parent and leaf).
    fn cleanup(&self, guard: &Guard<'_, R::Handle>, key: u64, record: &SeekRecord<'_, V>) -> bool {
        let parent = record.parent;
        // SAFETY: the record's roles each hold their own shield and no
        // shield is re-protected between `seek` returning and the last use
        // of this reference.
        let parent_ref = unsafe { parent.as_ref() }.expect("parent role is protected");

        let (child_edge, sibling_edge) = if key < parent_ref.key {
            (&parent_ref.left, &parent_ref.right)
        } else {
            (&parent_ref.right, &parent_ref.left)
        };
        // ORDER: pairs with the AcqRel flag/tag edge CASes.
        let child_val = child_edge.load(Ordering::Acquire);
        // The flagged edge points to the leaf being deleted. If it is not the
        // edge on our search path, we are helping a deletion of the sibling.
        let (flagged_edge, promote_edge) = if tag::tag_of(child_val) & FLAG != 0 {
            (child_edge, sibling_edge)
        } else {
            (sibling_edge, child_edge)
        };

        // Freeze the edge that will be promoted so no insert can slip below it.
        promote_edge.fetch_or_tag(TAG, Ordering::AcqRel); // ORDER: freezes the edge; publishes the tag and observes the current child.
        let promote_val = promote_edge.load(Ordering::Acquire); // ORDER: re-read after the freeze; pairs with the AcqRel tag RMW above.
        let flagged_val = flagged_edge.load(Ordering::Acquire); // ORDER: pairs with the AcqRel flag CAS that started this deletion.

        // Promote the sibling subtree into the ancestor, preserving a FLAG the
        // sibling edge may itself carry (a pending deletion of the sibling).
        let promoted = tag::with_tag(tag::untagged(promote_val), tag::tag_of(promote_val) & FLAG);
        // SAFETY: as above — the ancestor role keeps its shield while the
        // record is in use.
        let ancestor_ref = unsafe { record.ancestor.as_ref() }.expect("ancestor role is protected");
        let swapped = Self::child_edge(ancestor_ref, key)
            .compare_exchange(
                record.parent.as_raw(),
                promoted,
                Ordering::AcqRel, // ORDER: success publishes the promotion; failure means another helper won.
                Ordering::Acquire,
            )
            .is_ok();
        if swapped {
            // The parent and the flagged leaf are now unreachable.
            // SAFETY: the promotion CAS we just won detached exactly these
            // two nodes; the FLAG/TAG protocol guarantees no other helper's
            // CAS succeeded, so they are retired exactly once.
            unsafe {
                parent.retire_in(guard);
                Protected::from_unlinked(tag::untagged(flagged_val)).retire_in(guard);
            }
        }
        swapped
    }

    /// Inserts `key → value`; returns `false` (dropping `value`) if the key is
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics if `key >= u64::MAX - 1` (reserved sentinel keys).
    pub fn insert(&self, handle: &mut R::Handle, key: u64, value: V) -> bool {
        assert!(key < KEY_INF1, "keys >= u64::MAX - 1 are reserved");
        let guard = handle.enter();
        let mut shields = Self::seek_shields(&guard);
        let mut value = Some(value);
        loop {
            let record = self.seek(&guard, &mut shields, key);
            let leaf = record.leaf;
            // SAFETY: the record's roles each hold their own shield; the
            // next `seek` (which re-protects them) only runs after the last
            // use of this reference.
            let leaf_key = unsafe { leaf.as_ref() }.expect("seek ends at a leaf").key;
            if leaf_key == key {
                return false;
            }
            // Build the replacement subtree: a new internal node whose
            // children are the existing leaf and a new leaf for `key`.
            let new_leaf = guard.alloc(Node::leaf(key, value.take()));
            let (internal_key, left, right) = if key < leaf_key {
                (leaf_key, new_leaf, leaf.as_raw())
            } else {
                (key, leaf.as_raw(), new_leaf)
            };
            let new_internal = guard.alloc(Node {
                key: internal_key,
                value: None,
                left: Atomic::new(left),
                right: Atomic::new(right),
            });

            // SAFETY: as above — the parent role keeps its shield until the
            // next `seek`.
            let parent_ref = unsafe { record.parent.as_ref() }.expect("parent role is protected");
            let parent_edge = Self::child_edge(parent_ref, key);
            match parent_edge.compare_exchange(
                leaf.as_raw(),
                new_internal,
                Ordering::AcqRel, // ORDER: success publishes the new internal node; failure observes the winner.
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(observed) => {
                    // Neither node was published; take the value back and
                    // hand them back before retrying.
                    // SAFETY: the CAS failed, so both nodes are still owned
                    // by us and unreachable; each is discarded exactly once.
                    unsafe {
                        value = (*new_leaf).value.value.take();
                        guard.discard(new_internal);
                        guard.discard(new_leaf);
                    }
                    // If the edge still leads to our leaf but is flagged or
                    // tagged, help the pending deletion along before retrying.
                    if tag::untagged(observed) == leaf.as_raw() && tag::tag_of(observed) != 0 {
                        self.cleanup(&guard, key, &record);
                    }
                }
            }
        }
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        let guard = handle.enter();
        let mut shields = Self::seek_shields(&guard);
        let mut injected = false;
        let mut target_leaf: *mut Linked<Node<V>> = core::ptr::null_mut();
        loop {
            let record = self.seek(&guard, &mut shields, key);
            if !injected {
                // Injection phase: flag the edge to the leaf we want gone.
                let leaf = record.leaf;
                // SAFETY: the record's roles each hold their own shield; the
                // next `seek` only runs after this reference's last use.
                if unsafe { leaf.as_ref() }.expect("seek ends at a leaf").key != key {
                    return false;
                }
                // SAFETY: as above — the parent role keeps its shield until
                // the next `seek`.
                let parent_ref =
                    unsafe { record.parent.as_ref() }.expect("parent role is protected");
                let parent_edge = Self::child_edge(parent_ref, key);
                match parent_edge.compare_exchange(
                    leaf.as_raw(),
                    leaf.with_tag(FLAG).as_raw(),
                    Ordering::AcqRel, // ORDER: success publishes the deletion flag; failure observes the competing edit.
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        injected = true;
                        target_leaf = leaf.as_raw();
                        if self.cleanup(&guard, key, &record) {
                            return true;
                        }
                    }
                    Err(observed) => {
                        // Someone else is operating on this edge; help if it
                        // is a deletion of the same leaf, then retry.
                        if tag::untagged(observed) == leaf.as_raw() && tag::tag_of(observed) != 0 {
                            self.cleanup(&guard, key, &record);
                        }
                    }
                }
            } else {
                // Cleanup phase: keep helping until our leaf is detached.
                if record.leaf.as_raw() != target_leaf {
                    // Another thread finished the physical removal for us.
                    return true;
                }
                if self.cleanup(&guard, key, &record) {
                    return true;
                }
            }
        }
    }

    /// Returns `true` if `key` is present.
    pub fn contains(&self, handle: &mut R::Handle, key: u64) -> bool {
        let guard = handle.enter();
        let mut shields = Self::seek_shields(&guard);
        let record = self.seek(&guard, &mut shields, key);
        // SAFETY: the leaf role keeps its shield after `seek` returns.
        unsafe { record.leaf.as_ref() }
            .expect("seek ends at a leaf")
            .key
            == key
    }
}

impl<V: Clone, R: Reclaimer> NatarajanBst<V, R> {
    /// Looks up `key`, returning a clone of its value.
    pub fn get(&self, handle: &mut R::Handle, key: u64) -> Option<V> {
        let guard = handle.enter();
        let mut shields = Self::seek_shields(&guard);
        let record = self.seek(&guard, &mut shields, key);
        // SAFETY: the leaf role keeps its shield after `seek` returns, so
        // the reference stays pinned while the value is cloned.
        let leaf = unsafe { record.leaf.as_ref() }.expect("seek ends at a leaf");
        if leaf.key == key {
            leaf.value.clone()
        } else {
            None
        }
    }
}

impl<V, R: Reclaimer> Drop for NatarajanBst<V, R> {
    fn drop(&mut self) {
        // Exclusive access: free the whole tree iteratively.
        let mut stack = vec![self.root];
        while let Some(node) = stack.pop() {
            let node = tag::untagged(node);
            if node.is_null() {
                continue;
            }
            // SAFETY: `Drop` has exclusive access; every reachable node is
            // visited and freed exactly once.
            unsafe {
                stack.push((*node).value.left.load(Ordering::Relaxed)); // ORDER: Drop has exclusive access.
                stack.push((*node).value.right.load(Ordering::Relaxed)); // ORDER: Drop has exclusive access.
                Linked::dealloc(node);
            }
        }
    }
}

impl<R: Reclaimer> ConcurrentMap<R> for NatarajanBst<u64, R> {
    fn with_domain(domain: Arc<R>) -> Self {
        Self::new(domain)
    }

    fn insert(&self, handle: &mut R::Handle, key: u64, value: u64) -> bool {
        NatarajanBst::insert(self, handle, key, value)
    }

    fn remove(&self, handle: &mut R::Handle, key: u64) -> bool {
        NatarajanBst::remove(self, handle, key)
    }

    fn get(&self, handle: &mut R::Handle, key: u64) -> Option<u64> {
        NatarajanBst::get(self, handle, key)
    }

    fn required_slots() -> usize {
        Self::REQUIRED_SLOTS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use wfe_reclaim::{DomainConfig, Ebr, He, Hp, Ibr2Ge, Reclaimer};

    fn sequential_semantics<R: Reclaimer>() {
        let domain = R::new_default();
        let tree = NatarajanBst::<u64, R>::new(Arc::clone(&domain));
        let mut handle = domain.register();

        assert_eq!(tree.get(&mut handle, 10), None);
        assert!(tree.insert(&mut handle, 10, 100));
        assert!(tree.insert(&mut handle, 5, 50));
        assert!(tree.insert(&mut handle, 20, 200));
        assert!(!tree.insert(&mut handle, 10, 0), "duplicate rejected");
        assert_eq!(tree.get(&mut handle, 5), Some(50));
        assert_eq!(tree.get(&mut handle, 20), Some(200));
        assert!(tree.remove(&mut handle, 10));
        assert!(!tree.remove(&mut handle, 10), "double remove rejected");
        assert_eq!(tree.get(&mut handle, 10), None);
        assert!(tree.contains(&mut handle, 5));
        assert!(tree.insert(&mut handle, 10, 101));
        assert_eq!(tree.get(&mut handle, 10), Some(101));
        // Empty the tree completely and refill it.
        for key in [5, 10, 20] {
            assert!(tree.remove(&mut handle, key));
        }
        for key in [5, 10, 20] {
            assert!(!tree.contains(&mut handle, key));
            assert!(tree.insert(&mut handle, key, key));
        }
    }

    #[test]
    fn sequential_semantics_under_every_scheme() {
        sequential_semantics::<He>();
        sequential_semantics::<Ebr>();
        sequential_semantics::<Hp>();
        sequential_semantics::<Ibr2Ge>();
    }

    #[test]
    fn matches_a_sequential_model() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let domain = He::new_default();
        let tree = NatarajanBst::<u64, He>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..8_000 {
            let key = rng.gen_range(0..256u64);
            match rng.gen_range(0..3) {
                0 => {
                    let fresh = !model.contains_key(&key);
                    assert_eq!(tree.insert(&mut handle, key, key * 3), fresh);
                    model.entry(key).or_insert(key * 3);
                }
                1 => assert_eq!(tree.remove(&mut handle, key), model.remove(&key).is_some()),
                _ => assert_eq!(tree.get(&mut handle, key), model.get(&key).copied()),
            }
        }
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn sentinel_keys_are_rejected() {
        let domain = He::new_default();
        let tree = NatarajanBst::<u64, He>::new(Arc::clone(&domain));
        let mut handle = domain.register();
        tree.insert(&mut handle, u64::MAX, 0);
    }

    fn concurrent_disjoint_inserts<R: Reclaimer>() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 1_000;
        let domain = R::with_config(DomainConfig::with_max_threads(THREADS));
        let tree = NatarajanBst::<u64, R>::new(Arc::clone(&domain));
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let tree = &tree;
                let domain = Arc::clone(&domain);
                scope.spawn(move || {
                    let mut handle = domain.register();
                    for i in 0..PER_THREAD {
                        let key = i * THREADS as u64 + t; // interleaved keys
                        assert!(tree.insert(&mut handle, key, key));
                    }
                    for i in 0..PER_THREAD {
                        let key = i * THREADS as u64 + t;
                        if i % 2 == 0 {
                            assert!(tree.remove(&mut handle, key), "missing own key {key}");
                        }
                    }
                });
            }
        });
        let mut handle = domain.register();
        for t in 0..THREADS as u64 {
            for i in 0..PER_THREAD {
                let key = i * THREADS as u64 + t;
                assert_eq!(tree.contains(&mut handle, key), i % 2 == 1);
            }
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_and_removes() {
        concurrent_disjoint_inserts::<He>();
        concurrent_disjoint_inserts::<Hp>();
    }

    #[test]
    fn concurrent_contended_workload_is_structurally_sound() {
        const THREADS: usize = 4;
        let domain = He::with_config(DomainConfig::with_max_threads(THREADS));
        let tree = NatarajanBst::<u64, He>::new(Arc::clone(&domain));
        std::thread::scope(|scope| {
            for t in 0..THREADS as u64 {
                let tree = &tree;
                let domain = Arc::clone(&domain);
                scope.spawn(move || {
                    use rand::prelude::*;
                    let mut rng = StdRng::seed_from_u64(t + 1000);
                    let mut handle = domain.register();
                    for _ in 0..5_000 {
                        let key = rng.gen_range(0..64u64);
                        match rng.gen_range(0..3) {
                            0 => {
                                tree.insert(&mut handle, key, key);
                            }
                            1 => {
                                tree.remove(&mut handle, key);
                            }
                            _ => {
                                tree.get(&mut handle, key);
                            }
                        }
                    }
                });
            }
        });
        // After the dust settles a single thread must see a consistent set:
        // repeated lookups agree with remove/insert results.
        let mut handle = domain.register();
        for key in 0..64u64 {
            let present = tree.contains(&mut handle, key);
            if present {
                assert!(tree.remove(&mut handle, key));
                assert!(!tree.contains(&mut handle, key));
            } else {
                assert!(tree.insert(&mut handle, key, key));
                assert!(tree.contains(&mut handle, key));
            }
        }
    }
}
