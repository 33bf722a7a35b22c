//! Swappable synchronization layer for the WFE suite.
//!
//! Every shared-memory primitive the suite uses comes from this crate:
//!
//! * [`atomic`] — `AtomicUsize`/`AtomicU64`/`AtomicU8`/`AtomicI64`/
//!   `AtomicBool`/`AtomicPtr` + `fence` + `Ordering`,
//! * [`hint::spin_loop`] and [`thread::yield_now`] — the two scheduling
//!   hints contended loops use,
//! * [`AtomicPair`] — the project's 128-bit WCAS (`lock cmpxchg16b` with a
//!   striped-lock fallback),
//! * [`EraSource`] — the injectable era/epoch clock of the era-based
//!   schemes,
//! * [`CachePadded`] — cache-line isolation for per-thread records,
//! * [`Backoff`] — exponential backoff for contended retry loops (policy
//!   rather than primitive; only the data structures use it).
//!
//! The layer has exactly two personalities:
//!
//! * **Normal builds** re-export `core::sync::atomic` and `core::hint`
//!   directly — zero cost by construction, verified empirically by the
//!   `per_layer` rungs of `benchmark/`.
//! * **`--cfg wfe_model`** (set via `RUSTFLAGS="--cfg wfe_model"`) swaps in
//!   `#[repr(transparent)]` wrappers that announce an interleaving point to
//!   the vendored deterministic scheduler (`vendor/shuttle`) before every
//!   operation. Under a model schedule (`shuttle::check_random` etc.) the
//!   scheduler then enumerates or samples thread interleavings *per atomic
//!   step*, deterministically and replayably from a seed. Outside a schedule
//!   the points are no-ops and the wrappers behave like the real atomics.
//!
//! The result: the same source text is production code and model-checkable
//! code, and the model checks the *shipped* implementation, not a
//! transliteration of it.
//!
//! # WCAS portability
//!
//! WFE assumes two hardware capabilities beyond ordinary lock-free code:
//! wait-free fetch-and-add (native on `x86_64` and AArch64 ≥ v8.1) and a
//! *wide* compare-and-swap over two adjacent 64-bit words. On `x86_64` the
//! pair operations use `cmpxchg16b` through inline assembly (runtime-detected
//! once). On other architectures, or an x86_64 CPU without `cmpxchg16b`,
//! they fall back to a striped spin-lock: *correct* but no longer lock-free,
//! mirroring the paper's remark that platforms without WCAS forfeit
//! wait-freedom.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod atomic;
mod backoff;
mod era;
pub mod hint;
mod pad;
pub mod thread;
mod wcas;

pub use backoff::Backoff;
pub use era::EraSource;
pub use pad::CachePadded;
#[doc(hidden)]
pub use wcas::force_lock_fallback_for_tests;
pub use wcas::{wcas_is_lock_free, AtomicPair, Pair};

/// An explicit interleaving point.
///
/// Code whose shared-memory effects do not go through [`atomic`] (e.g. the
/// `cmpxchg16b` inline assembly inside [`AtomicPair`]) calls this before the
/// effect. Normal builds compile it to nothing; under `--cfg wfe_model` it
/// hands the virtual scheduler a switch opportunity (and is a no-op when the
/// calling thread is not part of a model schedule).
#[inline]
pub fn point() {
    #[cfg(wfe_model)]
    shuttle::point();
}

/// Runs `f` as one indivisible step of a model schedule.
///
/// Under `--cfg wfe_model` every [`point`] — hence every [`atomic`]
/// operation and every [`AtomicPair`] operation — inside `f` is a no-op on
/// the calling thread, so process-wide state that outlives schedules (the
/// block pool) adds no interleaving points whose number would depend on what
/// earlier schedules left in it. Spins ([`hint::spin_loop`]) still yield, so
/// `f` waiting on a WCAS stripe another virtual thread holds cannot hang the
/// schedule. Normal builds compile this to `f()`.
#[inline]
pub fn unobserved<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(wfe_model)]
    return shuttle::unobserved(f);
    #[cfg(not(wfe_model))]
    f()
}

#[cfg(test)]
mod tests {
    #[test]
    fn unobserved_runs_its_closure_once_and_returns_its_value() {
        let mut runs = 0;
        assert_eq!(
            super::unobserved(|| {
                runs += 1;
                7
            }),
            7
        );
        assert_eq!(runs, 1);
    }
}
