//! The repository benchmark (see `../README.md` and `../../BENCHMARK.json`).
//!
//! Everything here measures the suite from outside, through the public items
//! of the `wfe-suite` facade: the workloads and their driver
//! ([`workload`]), the single-purpose layer rungs ([`rungs`]), the output
//! oracle ([`oracle`]), spans ([`trace`]), the metric catalogue
//! ([`catalogue`]), one run ([`single`]) and whole sets of runs ([`sets`]).

#![warn(missing_docs)]

pub mod catalogue;
pub mod hist;
pub mod json;
pub mod oracle;
pub mod rng;
pub mod rungs;
pub mod sets;
pub mod single;
pub mod trace;
pub mod workload;
