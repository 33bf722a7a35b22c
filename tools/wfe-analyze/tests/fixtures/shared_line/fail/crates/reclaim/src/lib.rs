//! Atomic fields packed together with nobody saying why.

use wfe_sync::atomic::{AtomicU64, AtomicUsize};
use wfe_sync::CachePadded;

pub struct Queue<T> {
    head: Atomic<Node<T>>,
    tail: Atomic<Node<T>>,
    domain: Arc<Domain>,
}

/// Padding one field does not excuse the others.
#[derive(Debug)]
pub struct Map<V, F>
where
    F: Fn(u64) -> usize,
{
    len: CachePadded<AtomicUsize>,
    // LAYOUT: read-mostly.
    dir: Atomic<Directory<V>>,

    resizes: AtomicU64,
    requests: Box<[Atomic<Node<V>>]>,
    hash: F,
}

pub struct Pair(pub AtomicU64, AtomicPair);
