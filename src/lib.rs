//! # wfe-suite
//!
//! A from-scratch Rust reproduction of *"Universal Wait-Free Memory
//! Reclamation"* (Nikolaev & Ravindran, PPoPP 2020).
//!
//! The paper contributes **Wait-Free Eras (WFE)**: the first universal
//! safe-memory-reclamation scheme in which *every* operation — including the
//! pointer-protection read `get_protected()` — completes in a bounded number
//! of steps, so wait-free data structures finally keep their progress
//! guarantee end to end.
//!
//! This workspace contains everything the paper's evaluation needs, built from
//! scratch:
//!
//! * [`wfe_core`] — the WFE scheme itself (fast path, slow path, helping,
//!   tagged reservations, the modified cleanup scan);
//! * [`wfe_reclaim`] — the common reclamation API plus the baselines the paper
//!   compares against: EBR, Hazard Pointers, Hazard Eras, 2GEIBR and a
//!   leak-memory baseline;
//! * [`wfe_ds`] — the workloads: Treiber stack, Harris-Michael list, Michael
//!   hash map, the Shalev-Herlihy split-ordered *resizable* hash map (bucket
//!   arrays retired through the reclaimer), Natarajan-Mittal BST, the
//!   Kogan-Petrank and CRTurn wait-free queues and a Michael-Scott queue;
//! * [`wfe_sync`] — the swappable sync layer every crate draws its atomics
//!   from, the 128-bit wide-CAS WFE requires included: std-backed
//!   (zero-cost) normally, instrumented for the deterministic model checker
//!   under `--cfg wfe_model`;
//! * `wfe-bench` — the harness regenerating Figures 5–11.
//!
//! ## Quick start
//!
//! ```
//! use wfe_suite::{DomainConfig, Reclaimer, TreiberStack, Wfe};
//! use std::sync::Arc;
//!
//! // One reclamation domain guards one (or more) data structures.
//! let domain = Wfe::with_config(DomainConfig::with_max_threads(8));
//! let stack = TreiberStack::<String, Wfe>::new(Arc::clone(&domain));
//!
//! // Each thread registers once and passes its handle to every operation.
//! let mut handle = domain.register();
//! stack.push(&mut handle, "hello".to_string());
//! assert_eq!(stack.pop(&mut handle), Some("hello".to_string()));
//! assert_eq!(stack.pop(&mut handle), None);
//! ```
//!
//! Custom data structures use the same typed protection layer the built-in
//! ones are written against: [`Handle::enter`] opens a [`Guard`] bracket,
//! [`Guard::shield`] leases a reservation slot as a [`Shield`] for the
//! operation ([`Handle::shield`] for a lease that outlives brackets), and
//! [`Shield::protect`] returns a borrow-checked [`Protected`] pointer whose
//! `as_ref()` carries a single `unsafe` obligation — the shield has not
//! re-protected while the reference is live — that debug builds verify at
//! runtime. See the README quickstart and `docs/ARCHITECTURE.md` ("Safe
//! API") for the full tour, including the raw→guard migration table.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use wfe_core;
pub use wfe_ds;
pub use wfe_reclaim;
pub use wfe_sync;

pub use wfe_core::{Wfe, WfeHandle};
pub use wfe_ds::{
    ConcurrentMap, ConcurrentQueue, CrTurnQueue, KoganPetrankQueue, MapServiceStats,
    MichaelHashMap, MichaelList, MichaelScottQueue, NatarajanBst, ResizableHashMap, TreiberStack,
};
pub use wfe_reclaim::{
    Atomic, BlockCacheConfig, DomainConfig, Ebr, Guard, Handle, HandlePool, He, Hp, Ibr2Ge, Leak,
    Linked, PoolStats, PooledHandle, Progress, Protected, RawHandle, Reclaimer, ReclaimerConfig,
    Shield, ShieldError, ShieldSlots, SmrStats, ThreadRegistry,
};

/// The name the `task.*` rungs of `benchmark/` check handles out under: a
/// [`PooledHandle`] is the handle a task owns ([`Guard`] is `!Send`, so its
/// brackets already stay on one thread). Kept only until those rungs use
/// [`PooledHandle`] directly.
pub type TaskHandle<R> = PooledHandle<R>;

// Compile the fenced Rust examples of the prose documentation as doc-tests
// (`cargo test --doc`), so the guides cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

#[cfg(doctest)]
#[doc = include_str!("../docs/ARCHITECTURE.md")]
mod architecture_doctests {}
