//! Benchmark harness reproducing the evaluation of the WFE paper (§5).
//!
//! The paper's evaluation drives six reclamation schemes (WFE, EBR, HE, HP,
//! 2GEIBR, Leak) through five data structures (Kogan-Petrank queue, CRTurn
//! queue, Harris-Michael linked list, Michael hash map, Natarajan-Mittal BST)
//! under two workloads (50% insert / 50% delete and 90% get / 10% put) and
//! reports two metrics per configuration: throughput in Mops/s and the
//! average number of unreclaimed objects.
//!
//! This crate provides:
//!
//! * [`params::BenchParams`] — the methodology knobs (prefill, key range, run
//!   duration, repeats, thread counts), defaulting to a scaled-down version of
//!   the paper's settings and restoring them exactly with
//!   [`params::BenchParams::paper`];
//! * [`workload`] — the operation mixes and the one per-thread generator
//!   that draws them;
//! * [`runner`] — the closed-loop driver every figure is measured with,
//!   producing [`runner::DataPoint`]s (scheme, threads, Mops/s, average
//!   unreclaimed, ...);
//! * [`figures`] — one entry per figure of the paper (5a-5d, 6-11) plus the
//!   ablations and the runs beyond the paper, each of which regenerates the
//!   corresponding series as CSV rows;
//! * [`baseline`] — JSON baseline snapshots (`figures --baseline-json`) for
//!   tracking the performance trajectory across commits;
//! * the `figures` binary (`cargo run -p wfe-bench --release --bin figures`),
//!   the one entry point that drives them.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod figures;
pub mod params;
pub mod runner;
pub mod workload;
