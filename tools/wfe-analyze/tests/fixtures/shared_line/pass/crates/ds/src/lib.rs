//! Every way a struct with several atomic fields satisfies the rule.

use wfe_sync::atomic::{AtomicU64, AtomicUsize};
use wfe_sync::CachePadded;

/// Every writer-hot word on a line of its own: nothing to justify.
pub struct Queue {
    head: CachePadded<Atomic<Node>>,
    tail: CachePadded<Atomic<Node>>,
    capacity: usize,
}

/// One justification on the struct covers all of its fields.
// LAYOUT: both counters are written by the one thread that owns the record.
pub struct Tally {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
}

/// One per field covers the fields left outside the padding.
pub struct Map {
    len: CachePadded<AtomicUsize>,
    // LAYOUT: read-mostly; a resize writes it, and then everyone reloads anyway.
    dir: Atomic<Directory>,
    /// Completed doublings.
    // LAYOUT: a statistic written by the same resize.
    resizes: AtomicU64,
}

/// A single atomic field shares its line with nothing another thread writes.
pub struct Stack {
    head: Atomic<Node>,
    domain: Arc<Domain>,
}

// wfe-analyze: allow(shared-line): mirrors a C layout; the marker itself is under test.
pub struct Mirror(AtomicU64, AtomicU64);

#[cfg(test)]
mod tests {
    use super::*;

    struct Oracle {
        seen: AtomicU64,
        lost: AtomicU64,
    }
}
