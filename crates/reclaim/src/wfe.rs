//! Wait-Free Eras (WFE) — universal wait-free memory reclamation.
//!
//! This module implements the contribution of *"Universal Wait-Free Memory
//! Reclamation"* (Nikolaev & Ravindran, PPoPP 2020): a safe-memory-reclamation
//! scheme whose **every** operation — including `get_protected()` — completes
//! in a bounded number of steps, so wait-free data structures built on top of
//! it keep their progress guarantee.
//!
//! # How it works
//!
//! [`Wfe`] is the crate's scheme core, [`Domain<P>`](crate::domain::Domain),
//! running [`WfePolicy`](domain::WfePolicy): registration, batches, caches,
//! cleanup cadence and teardown are the core's, and this module holds only
//! what the paper adds on top of Hazard Eras ([`He`](crate::He)). In Hazard Eras the only
//! non-wait-free operation is `get_protected()`: it retries while the global
//! era clock keeps moving underneath it, and the clock is moved by concurrent
//! `alloc_block()` / `retire()` calls. WFE closes the loop with the
//! fast-path-slow-path idea:
//!
//! * the **fast path** is plain Hazard Eras, bounded to
//!   [`DomainConfig::fast_path_attempts`](crate::DomainConfig::fast_path_attempts)
//!   iterations (the paper uses 16);
//! * on the **slow path** the thread publishes a help request — the address of
//!   the pointer it is trying to read, the `alloc_era` of the *parent* block
//!   containing that address, and a `(invptr, tag)` marker WCASed into its
//!   per-slot `result` record — and bumps a global `counter_start`;
//! * threads about to increment the global era (from `alloc_block()` or
//!   `retire()`) first scan for pending requests and **help** them: they pin
//!   the parent block and the read target with two internal reservations,
//!   read the pointer under a stable era, and WCAS the result (and the
//!   requester's reservation) on the requester's behalf;
//! * a per-reservation **tag**, carried in the second word of the reservation
//!   pair and advanced after every slow-path cycle, stops delayed helpers
//!   from clobbering a later cycle;
//! * the modified [`cleanup` scan order](Wfe) (normal reservations,
//!   parent pin, then — only if a slow path might be in flight — the hand-over
//!   pin followed by a re-scan) preserves reclamation safety (Lemmas 4 and 5
//!   of the paper).
//!
//! The result: `get_protected` is bounded by `fast_path_attempts` plus at most
//! `n` slow-path iterations (Lemma 1), and `alloc_block`/`retire` are bounded
//! because each helping pass is bounded (Lemmas 2 and 3).
//!
//! # Example
//!
//! ```
//! use wfe_reclaim::{Atomic, DomainConfig, Handle, Protected, Reclaimer, Wfe};
//!
//! // One domain per data structure (or group of data structures).
//! let domain = Wfe::with_config(DomainConfig::with_max_threads(8));
//! let mut handle = domain.register();
//!
//! // Allocate a block through the domain so it gets an allocation era.
//! let node = handle.alloc(42u64);
//! let root: Atomic<u64> = Atomic::new(node);
//!
//! // Readers protect the pointer inside a guard bracket, through a
//! // reservation slot leased from the guard; the reservation pins the block
//! // for the bracket, so the deref carries one obligation.
//! {
//!     let guard = handle.enter();
//!     let mut shield = guard.shield::<u64>().expect("slots available");
//!     let value = shield.protect(&guard, &root, None);
//!     // SAFETY: `shield` does not re-protect while `value` is in use.
//!     assert_eq!(unsafe { value.as_ref() }, Some(&42));
//! }
//!
//! // After unlinking the block, retire it; WFE frees it once it is safe.
//! root.store(core::ptr::null_mut(), core::sync::atomic::Ordering::SeqCst);
//! let guard = handle.enter();
//! // SAFETY: `node` was just unlinked from `root` and is retired once.
//! unsafe { Protected::from_unlinked(node).retire_in(&guard) };
//! ```

mod domain;
mod slow_path;
mod state;

pub use domain::{Wfe, WfeHandle};
#[cfg(test)]
pub(crate) use state::State;
