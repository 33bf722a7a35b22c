//! Generic safe-memory-reclamation (SMR) framework plus the baseline schemes
//! used by the WFE paper's evaluation.
//!
//! The paper compares its contribution, Wait-Free Eras (implemented in the
//! `wfe-core` crate), against five existing reclamation approaches. This crate
//! provides:
//!
//! * the **common API** every scheme implements ([`Reclaimer`], [`RawHandle`],
//!   [`Handle`]) — a Rust rendering of the Hazard-Pointers-compatible
//!   interface the paper describes (`get_protected` / `retire` / `clear` /
//!   `alloc_block`), matching the harness of Wen et al.'s IBR benchmark that
//!   the evaluation reuses; `RawHandle` is the raw, slot-indexed interface;
//! * the **safe guard layer** application code uses instead of raw slot
//!   indices: [`Guard`] operation brackets, [`Shield`] reservation leases
//!   and borrow-checked [`Protected`] pointers (see [`guard`]);
//! * the 16-byte intrusive allocation header ([`BlockHeader`], [`Linked`])
//!   that keeps a block's allocation era (its retire era waits in the
//!   retiring thread's batch, [`retired::Retired`]);
//! * the **one scheme core** ([`domain`]): a generic [`Domain<P>`] and its
//!   per-thread [`DomainHandle<P>`] own registration, counters, block caches,
//!   retired batches, orphan adoption, the cleanup and era-advance cadence
//!   and both `Drop`s, and carry the only `impl Reclaimer` and the only
//!   `unsafe impl RawHandle`; a [`Policy`] supplies what a scheme publishes,
//!   which snapshot a pass fills and when the clock moves;
//! * the baseline policies, each a type alias over that core:
//!   [`Ebr`] (epoch-based reclamation), [`Hp`] (hazard pointers),
//!   [`He`] (hazard eras, Figure 1 of the paper), [`Ibr2Ge`] (the 2GEIBR
//!   variant of interval-based reclamation) and [`Leak`] (no reclamation);
//! * the scale-out layers beyond the paper: the sharded
//!   [`ThreadRegistry`] (NUMA-friendly slot management whose idle shards are
//!   skipped by cleanup scans) and the [`HandlePool`] of parked handles for
//!   executor-style task churn.
//!
//! Data structures in `wfe-ds` are generic over `R: Reclaimer`, so every
//! workload of the evaluation can be paired with every scheme, exactly as in
//! the paper.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod block;
pub mod cache;
pub mod conformance;
pub mod domain;
pub mod ebr;
pub mod guard;
pub mod he;
pub mod hp;
pub mod ibr;
pub mod leak;
pub mod pool;
pub mod ptr;
pub mod registry;
pub mod retired;
pub mod scan;
pub mod slab;
pub mod slots;
pub mod stats;
mod treiber;

pub use api::{
    DomainConfig, DomainConfigBuilder, Handle, Progress, RawHandle, Reclaimer, ReclaimerConfig,
};
pub use block::{BlockHeader, Linked, ERA_INF, INVPTR};
pub use cache::{BlockCacheConfig, BlockCaches, LocalBlockCache, ShardCache, SizeClass};
pub use domain::{Domain, DomainHandle, Policy};
pub use ebr::Ebr;
pub use guard::{Guard, Protected, Shield, ShieldError, ShieldSlots};
pub use he::He;
pub use hp::Hp;
pub use ibr::Ibr2Ge;
pub use leak::Leak;
pub use pool::{HandlePool, PoolStats, PooledHandle};
pub use ptr::Atomic;
pub use registry::ThreadRegistry;
pub use stats::SmrStats;
#[doc(hidden)]
pub use treiber::TypeStableStack;

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
    _assert_send_sync::<ThreadRegistry>();
    // `Atomic` is a shared-memory link by definition.
    _assert_send_sync::<Atomic<u64>>();
    // Stats snapshots travel to sampler/reporter threads.
    _assert_send_sync::<SmrStats>();
    // The block caches hang off domains, so they must share the same facts.
    _assert_send_sync::<BlockCaches>();
    _assert_send_sync::<ShardCache>();
}
#[allow(dead_code)] // the bounds must hold for *all* R / T / H
const fn _auto_trait_facts_generic<R: Reclaimer, T, H: RawHandle>() {
    // The pool is the cross-thread hand-off point for handles, and a
    // checked-out handle migrates with whatever task owns it.
    _assert_send_sync::<HandlePool<R>>();
    _assert_send::<PooledHandle<R>>();
    // An owned shield is a lease meant to be held across suspension points,
    // so it is `Send + Sync` for *any* `T` (its type parameters are
    // variance-only markers; no `T` is ever stored).
    _assert_send_sync::<Shield<'static, T, H>>();
}
