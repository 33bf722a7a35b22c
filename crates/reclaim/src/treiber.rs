//! A lock-free Treiber stack with type-stable, recycled nodes — the shared
//! substrate of [`crate::retired::OrphanStack`] (parked retired batches),
//! [`crate::pool::HandlePool`] (parked scheme handles) and the block pool
//! ([`crate::slab`], parked chains of free blocks).
//!
//! Both ends are a versioned wide-CAS (`AtomicPair`), so the stack is
//! lock-free and ABA-safe. Nodes are *type-stable*: once allocated they are
//! recycled through a spare freelist and only deallocated when the stack
//! itself is dropped, so a racing `pop` may always dereference a node it
//! read from `head` (the versioned CAS then rejects stale observations).

use core::marker::PhantomData;
use wfe_sync::atomic::{AtomicUsize, Ordering};

use wfe_sync::AtomicPair;

/// One node: the parked payload plus the intrusive `next` link.
struct Node<T> {
    payload: Option<T>,
    /// `*mut Node<T>` as `usize`; atomic because a slow `pop` may read it
    /// while the node is concurrently recycled for a new `push`.
    next: AtomicUsize,
}

/// A lock-free stack of `T` with type-stable nodes.
///
/// Exported for the deterministic model suite (`tests/model/aba.rs`), which
/// drives the real implementation — and a de-versioned mutant of it —
/// through exact interleavings in a process of its own; the crate uses it
/// for its orphan batches, parked handles and pooled blocks.
// LAYOUT: a push pops `spares` and pushes `head`, a pop the reverse: every
// operation writes both, so one line is one transfer where two would be two.
pub struct TypeStableStack<T> {
    /// `(node ptr, version)` — the version counter makes the CAS ABA-safe.
    head: AtomicPair,
    /// Freelist of spare nodes, same encoding. Keeps nodes type-stable.
    spares: AtomicPair,
    _owns: PhantomData<Box<Node<T>>>,
}

impl<T> core::fmt::Debug for TypeStableStack<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TypeStableStack").finish_non_exhaustive()
    }
}

// SAFETY: the raw node pointers are owned by the stack; payloads are handed
// across threads only through the versioned-CAS head, so `T: Send` is the
// exact requirement.
unsafe impl<T: Send> Send for TypeStableStack<T> {}
// SAFETY: all shared state is accessed through atomics and the versioned
// CAS; `T: Send` is enough because payloads move, they are never shared.
unsafe impl<T: Send> Sync for TypeStableStack<T> {}

impl<T> TypeStableStack<T> {
    /// Creates an empty stack (`const`, so a `static` can hold one).
    pub const fn new() -> Self {
        Self {
            head: AtomicPair::new(0, 0),
            spares: AtomicPair::new(0, 0),
            _owns: PhantomData,
        }
    }

    /// Pops one node off `list` (either the payload stack or the spare
    /// freelist). The versioned CAS makes this ABA-safe even though nodes
    /// are recycled, and the type-stable allocation makes the racy `next`
    /// read sound.
    fn pop_node(list: &AtomicPair) -> Option<*mut Node<T>> {
        loop {
            let (head, version) = list.load();
            if head == 0 {
                return None;
            }
            let node = head as *mut Node<T>;
            // SAFETY: nodes are never deallocated while the stack lives, so
            // the read is sound even if `node` was concurrently popped; the
            // versioned CAS below fails in that case and we retry.
            let next = unsafe { (*node).next.load(Ordering::Relaxed) }; // ORDER: the versioned WCAS below carries all ordering; a stale read just retries.
            if list
                .compare_exchange((head, version), (next as u64, version + 1))
                .is_ok()
            {
                return Some(node);
            }
        }
    }

    /// Pushes `node` onto `list`.
    fn push_node(list: &AtomicPair, node: *mut Node<T>) {
        loop {
            let (head, version) = list.load();
            // SAFETY: type-stable nodes are never deallocated while the stack lives;
            // the store is atomic, so racing readers see either value.
            unsafe { (*node).next.store(head as usize, Ordering::Relaxed) }; // ORDER: the node is unpublished until the versioned WCAS below succeeds and orders it.
            if list
                .compare_exchange((head, version), (node as u64, version + 1))
                .is_ok()
            {
                return;
            }
        }
    }

    /// Parks `payload` on the stack, recycling a spare node if one exists.
    pub fn push(&self, payload: T) {
        let node = Self::pop_node(&self.spares).unwrap_or_else(|| {
            Box::into_raw(Box::new(Node {
                payload: None,
                next: AtomicUsize::new(0),
            }))
        });
        // SAFETY: the node was just popped off a list (or freshly allocated), so
        // this thread has exclusive access to its payload.
        unsafe { (*node).payload = Some(payload) };
        Self::push_node(&self.head, node);
    }

    /// Pops one parked payload, if any; the emptied node goes back to the
    /// spare freelist.
    pub fn pop(&self) -> Option<T> {
        let node = Self::pop_node(&self.head)?;
        // SAFETY: the pop above transferred exclusive ownership of the node (and
        // its payload) to this thread.
        let payload = unsafe { (*node).payload.take() };
        Self::push_node(&self.spares, node);
        debug_assert!(payload.is_some(), "parked node always carries a payload");
        payload
    }
}

impl<T> Default for TypeStableStack<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for TypeStableStack<T> {
    fn drop(&mut self) {
        // Deallocate the type-stable nodes of both lists; dropping a node
        // drops any payload still parked in it.
        for list in [&self.head, &self.spares] {
            while let Some(node) = Self::pop_node(list) {
                // SAFETY: `Drop` has exclusive access; every node was allocated by this
                // stack and is freed exactly once.
                drop(unsafe { Box::from_raw(node) });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wfe_sync::atomic::AtomicUsize as SyncAtomicUsize;
    use wfe_sync::atomic::Ordering::SeqCst;

    #[test]
    fn push_pop_is_lifo_and_recycles_nodes() {
        let stack = TypeStableStack::new();
        assert_eq!(stack.pop(), None);
        stack.push(1u64);
        stack.push(2u64);
        assert_eq!(stack.pop(), Some(2));
        stack.push(3u64); // recycles the spare node of the pop above
        assert_eq!(stack.pop(), Some(3));
        assert_eq!(stack.pop(), Some(1));
        assert_eq!(stack.pop(), None);
    }

    #[test]
    fn a_static_stack_needs_no_initializer() {
        static STACK: TypeStableStack<u64> = TypeStableStack::new();
        STACK.push(7);
        assert_eq!(STACK.pop(), Some(7));
        assert_eq!(STACK.pop(), None);
    }

    #[test]
    fn dropping_the_stack_drops_parked_payloads() {
        struct Canary(Arc<SyncAtomicUsize>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, SeqCst);
            }
        }
        let drops = Arc::new(SyncAtomicUsize::new(0));
        {
            let stack = TypeStableStack::new();
            stack.push(Canary(Arc::clone(&drops)));
            stack.push(Canary(Arc::clone(&drops)));
            drop(stack.pop());
            assert_eq!(drops.load(SeqCst), 1);
        }
        assert_eq!(drops.load(SeqCst), 2, "parked payload dropped with stack");
    }

    #[test]
    fn concurrent_push_pop_conserves_payloads() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 2_000;
        let stack = Arc::new(TypeStableStack::new());
        let popped = Arc::new(SyncAtomicUsize::new(0));
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let stack = Arc::clone(&stack);
                let popped = Arc::clone(&popped);
                scope.spawn(move || {
                    for i in 0..ROUNDS {
                        stack.push(t * ROUNDS + i);
                        if i % 2 == 0 && stack.pop().is_some() {
                            popped.fetch_add(1, SeqCst);
                        }
                    }
                });
            }
        });
        let mut rest = 0;
        while stack.pop().is_some() {
            rest += 1;
        }
        assert_eq!(popped.load(SeqCst) + rest, THREADS * ROUNDS);
    }
}
