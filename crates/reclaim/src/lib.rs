//! Safe memory reclamation (SMR): Wait-Free Eras, the paper's contribution,
//! and the baseline schemes its evaluation compares it against.
//!
//! This crate provides:
//!
//! * the **common API** every scheme implements ([`Reclaimer`], [`RawHandle`],
//!   [`Handle`]) — a Rust rendering of the Hazard-Pointers-compatible
//!   interface the paper describes (`get_protected` / `retire` / `clear` /
//!   `alloc_block`), matching the harness of Wen et al.'s IBR benchmark that
//!   the evaluation reuses; `RawHandle` is the raw, slot-indexed interface;
//! * the **safe guard layer** application code uses instead of raw slot
//!   indices: [`Guard`] operation brackets, [`Shield`] reservation leases
//!   and borrow-checked [`Protected`] pointers;
//! * the 16-byte intrusive allocation header ([`BlockHeader`], [`Linked`])
//!   that keeps a block's allocation era (its retire era waits in the
//!   retiring thread's batch);
//! * **one scheme core**: a generic domain and its per-thread handle own
//!   registration, counters, block caches, retired batches, orphan
//!   adoption, the cleanup and era-advance cadence and both `Drop`s; a
//!   crate-private policy supplies what a scheme publishes, which snapshot a
//!   pass fills and when the clock moves;
//! * the six schemes, each a type alias over that core: [`Wfe`] (Wait-Free
//!   Eras: Hazard Eras plus a bounded slow path and helping, Figure 4 of
//!   the paper), [`Ebr`] (epoch-based reclamation), [`Hp`] (hazard
//!   pointers), [`He`] (hazard eras, Figure 1), [`Ibr2Ge`] (the 2GEIBR
//!   variant of interval-based reclamation) and [`Leak`] (no reclamation);
//! * the [`HandlePool`] of parked handles for executor-style task churn.
//!
//! Data structures in `wfe-ds` are generic over `R: Reclaimer`, so every
//! workload of the evaluation can be paired with every scheme, exactly as in
//! the paper. The crate root is the whole public surface; the modules are
//! private.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod api;
mod block;
mod cache;
#[cfg(test)]
mod conformance;
mod domain;
mod ebr;
mod guard;
mod he;
mod hp;
mod ibr;
mod leak;
mod pool;
mod ptr;
mod registry;
mod retired;
mod scan;
mod slab;
mod slots;
mod stats;
mod treiber;
mod wfe;

pub use api::{DomainConfig, Handle, Progress, RawHandle, Reclaimer};
pub use block::{BlockHeader, Linked};
pub use cache::{BlockCacheConfig, SizeClass, CLASS_ALIGN};
pub use ebr::Ebr;
pub use guard::{Guard, Protected, Shield, ShieldError, ShieldSlots};
pub use he::He;
pub use hp::Hp;
pub use ibr::Ibr2Ge;
pub use leak::Leak;
pub use pool::{HandlePool, PoolStats, PooledHandle};
pub use ptr::{tag, Atomic};
pub use slab::{carved_blocks, outstanding_cached_allocs};
pub use stats::SmrStats;
pub use treiber::TypeStableStack;
pub use wfe::{Wfe, WfeHandle};

// Compile-time auto-trait facts, stated as the `static_assertions` idiom
// (const fns, no dependency). Each line is a load-bearing API property: a
// private field change that breaks one of these would silently break every
// consumer that shares domains across threads or moves handles between
// executor workers. `Guard` and `Protected` are deliberately absent — they
// are `!Send` by design (raw-pointer fields), and their docs carry
// `compile_fail` tests proving it.
const fn _assert_send<T: Send>() {}
const fn _assert_send_sync<T: Send + Sync>() {}
#[allow(dead_code)] // checked at definition, never called
const fn _auto_trait_facts() {
    // Domains live behind `Arc` and are hammered from every thread.
    _assert_send_sync::<Ebr>();
    _assert_send_sync::<He>();
    _assert_send_sync::<Hp>();
    _assert_send_sync::<Ibr2Ge>();
    _assert_send_sync::<Leak>();
    _assert_send_sync::<Wfe>();
    _assert_send_sync::<registry::ThreadRegistry>();
    // `Atomic` is a shared-memory link by definition.
    _assert_send_sync::<Atomic<u64>>();
    // Stats snapshots travel to sampler/reporter threads.
    _assert_send_sync::<SmrStats>();
    // A handle's magazines move with the handle.
    _assert_send::<cache::LocalBlockCache>();
    // A WFE handle migrates between executor workers through the pool.
    _assert_send::<WfeHandle>();
}
#[allow(dead_code)] // the bounds must hold for *all* R / T / H
const fn _auto_trait_facts_generic<R: Reclaimer, T, H: RawHandle>() {
    // The pool is the cross-thread hand-off point for handles, and a
    // checked-out handle migrates with whatever task owns it.
    _assert_send_sync::<HandlePool<R>>();
    _assert_send::<PooledHandle<R>>();
    // An owned shield is a lease meant to be held across operations, so it
    // is `Send + Sync` for *any* `T` (its type parameters are
    // variance-only markers; no `T` is ever stored).
    _assert_send_sync::<Shield<'static, T, H>>();
}
