//! Exponential backoff for contended retry loops.

use crate::{hint, thread};

/// Exponential backoff used by retry loops in the data-structure crate.
///
/// Backoff never appears on any path that the paper requires to be wait-free
/// (it would not endanger wait-freedom — the number of spins is bounded — but
/// the reclamation hot paths are already bounded by construction). It is used
/// by the benchmark data structures to reduce CAS contention, which is the
/// same role `std::hint::spin_loop` plays in the original C++ harness.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Maximum exponent: at most `2^MAX_SPIN_EXP` spin-loop hints per call.
    const MAX_SPIN_EXP: u32 = 6;
    /// Exponent past which [`Backoff::snooze`] yields to the OS scheduler.
    const MAX_YIELD_EXP: u32 = 10;

    /// Creates a fresh backoff counter.
    pub const fn new() -> Self {
        Self { step: 0 }
    }

    /// Resets the counter, e.g. after a successful CAS.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Spins for a short, exponentially growing number of iterations.
    pub fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(Self::MAX_SPIN_EXP) {
            hint::spin_loop();
        }
        if self.step <= Self::MAX_SPIN_EXP {
            self.step += 1;
        }
    }

    /// Spins like [`Backoff::spin`], but once the exponent saturates it yields
    /// the current thread, which is friendlier when threads oversubscribe the
    /// available cores (the paper's 120-thread runs on 96 cores do exactly
    /// that).
    pub fn snooze(&mut self) {
        if self.step <= Self::MAX_SPIN_EXP {
            self.spin();
        } else {
            thread::yield_now();
            if self.step <= Self::MAX_YIELD_EXP {
                self.step += 1;
            }
        }
    }

    /// Returns `true` once spinning has saturated and the caller may want to
    /// park or switch strategies.
    pub fn is_completed(&self) -> bool {
        self.step > Self::MAX_YIELD_EXP
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_saturates() {
        let mut b = Backoff::new();
        for _ in 0..100 {
            b.spin();
        }
        assert_eq!(b.step, Backoff::MAX_SPIN_EXP + 1);
        b.reset();
        assert_eq!(b.step, 0);
    }

    #[test]
    fn snooze_eventually_completes() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..1000 {
            b.snooze();
        }
        assert!(b.is_completed());
    }
}
