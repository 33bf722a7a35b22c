//! Every weak ordering carries a justification, one per attachment style:
//! trailing comment, comment above, and walk-up within a split statement.

use wfe_sync::atomic::{AtomicUsize, Ordering};

pub fn publish(flag: &AtomicUsize) {
    flag.store(1, Ordering::Release); // ORDER: pairs with the Acquire load in `consume`.
}

pub fn consume(flag: &AtomicUsize) -> bool {
    // ORDER: pairs with the Release store in `publish`.
    flag.load(Ordering::Acquire) == 1
}

pub fn try_claim(flag: &AtomicUsize) -> bool {
    flag.compare_exchange(
        0,
        1,
        Ordering::AcqRel, // ORDER: success publishes the claim; failure observes the winner.
        Ordering::Acquire,
    )
    .is_ok()
}

pub fn count(counter: &AtomicUsize, seen: &[usize]) -> bool {
    counter
        .compare_exchange(seen.len(), seen.len() + 1, Ordering::AcqRel, Ordering::Acquire) // ORDER: the ordering parameterizes the CAS, not the `len` calls in its arguments.
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_orderings_in_tests_are_not_ledger_rows() {
        let flag = AtomicUsize::new(0);
        flag.store(1, Ordering::Relaxed);
        assert_eq!(flag.load(Ordering::Relaxed), 1);
    }
}
