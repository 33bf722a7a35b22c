//! Deterministic-interleaving model tests (`--cfg wfe_model` builds only).
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg wfe_model" cargo test --test model
//! ```
//!
//! Under that cfg every `wfe_sync` atomic routes through the vendored
//! `shuttle` scheduler: the tests below drive small cores — WCAS, the
//! type-stable stack, the shield lease table, the magazine/shard chain
//! exchange, the per-slot counter hand-off, Hazard Eras protect/retire —
//! through seeded, replayable schedules. A failing schedule panics with the
//! seed that reproduces it; `WFE_MODEL_SEED=<seed>` replays exactly that
//! schedule, and `WFE_MODEL_SCHEDULES=<n>` rescales every batch (e.g. for a
//! quick local run).
//!
//! In a normal build (no `wfe_model`) this whole target compiles to an empty
//! crate, so plain `cargo test` is unaffected.

#![cfg(wfe_model)]

mod aba;
mod cache;
mod era;
mod orphan;
mod resize;
mod shield;
mod slowpath;
mod stats;
mod task;
mod wcas;

/// Schedules per model test: the acceptance bar is that the real
/// implementations survive at least this many distinct interleavings.
/// `WFE_MODEL_SCHEDULES` overrides it at run time.
pub(crate) const SCHEDULES: usize = 10_000;
