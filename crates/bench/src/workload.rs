//! Workload definitions (paper §5).
//!
//! Two map workloads are used throughout the paper's evaluation:
//!
//! * **write-dominated** — 50% `insert`, 50% `delete` (Figures 5-8);
//! * **read-mostly** — 90% `get`, 10% `put` (Figures 9-11).
//!
//! Queues only support `enqueue`/`dequeue`, so they always run the
//! write-dominated mix (Figure 5). Keys are drawn uniformly from
//! `0..key_range` by one per-thread [`OpGenerator`], so every stream replays
//! from `(seed, thread)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The operation mix applied to key-value structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapWorkload {
    /// 50% `insert`, 50% `delete`.
    WriteDominated,
    /// 90% `get`, 10% `put` (insert).
    ReadMostly,
}

impl MapWorkload {
    /// Human-readable label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            MapWorkload::WriteDominated => "write50",
            MapWorkload::ReadMostly => "read90",
        }
    }
}

/// A single key-value operation to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapOp {
    /// Insert `key`.
    Insert(u64),
    /// Remove `key`.
    Remove(u64),
    /// Look up `key`.
    Get(u64),
}

/// Per-thread deterministic operation generator for every [`MapWorkload`].
#[derive(Debug)]
pub struct OpGenerator {
    rng: StdRng,
    workload: MapWorkload,
    key_range: u64,
}

impl OpGenerator {
    /// Creates a generator seeded from `(seed, thread)` so runs are
    /// reproducible yet threads do not correlate.
    pub fn new(workload: MapWorkload, key_range: u64, seed: u64, thread: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(
                seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            workload,
            key_range,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> MapOp {
        let key = self.next_key();
        match self.workload {
            MapWorkload::WriteDominated => {
                if self.rng.gen_bool(0.5) {
                    MapOp::Insert(key)
                } else {
                    MapOp::Remove(key)
                }
            }
            MapWorkload::ReadMostly => {
                if self.rng.gen_bool(0.9) {
                    MapOp::Get(key)
                } else {
                    MapOp::Insert(key)
                }
            }
        }
    }

    /// Draws a uniformly random key (used by queue workloads for values and by
    /// the prefill phase).
    pub fn next_key(&mut self) -> u64 {
        self.rng.gen_range(0..self.key_range)
    }

    /// Draws a fair coin (used by queue workloads to pick enqueue/dequeue).
    pub fn next_bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [MapWorkload; 2] = [MapWorkload::WriteDominated, MapWorkload::ReadMostly];

    fn ops(workload: MapWorkload, key_range: u64, seed: u64, thread: usize) -> Vec<MapOp> {
        let mut generator = OpGenerator::new(workload, key_range, seed, thread);
        (0..10_000).map(|_| generator.next_op()).collect()
    }

    #[test]
    fn every_leg_replays_from_its_seed_and_keeps_its_mix() {
        for workload in ALL {
            let stream = ops(workload, 1_000, 7, 0);
            assert_eq!(stream, ops(workload, 1_000, 7, 0), "{workload:?} replays");
            assert_ne!(
                stream,
                ops(workload, 1_000, 7, 1),
                "{workload:?} per thread"
            );
            assert_ne!(stream, ops(workload, 1_000, 8, 0), "{workload:?} per seed");
            // Shares of get / insert / remove, each within five points.
            let (get, insert, remove) = match workload {
                MapWorkload::WriteDominated => (0.0, 0.5, 0.5),
                MapWorkload::ReadMostly => (0.9, 0.1, 0.0),
            };
            let share = |pick: fn(&MapOp) -> bool| {
                stream.iter().filter(|op| pick(op)).count() as f64 / stream.len() as f64
            };
            let observed = [
                share(|op| matches!(op, MapOp::Get(_))),
                share(|op| matches!(op, MapOp::Insert(_))),
                share(|op| matches!(op, MapOp::Remove(_))),
            ];
            for (observed, expected) in observed.into_iter().zip([get, insert, remove]) {
                if expected == 0.0 {
                    assert_eq!(observed, 0.0, "{workload:?} never draws this op");
                } else {
                    assert!(
                        (observed - expected).abs() < 0.05,
                        "{workload:?}: share {observed} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn labels_name_the_csv_workloads() {
        assert_eq!(MapWorkload::WriteDominated.label(), "write50");
        assert_eq!(MapWorkload::ReadMostly.label(), "read90");
    }

    #[test]
    fn the_queue_coin_is_fair_and_replays() {
        let flips = |seed, thread| {
            let mut generator = OpGenerator::new(MapWorkload::WriteDominated, 10, seed, thread);
            (0..10_000)
                .map(|_| generator.next_bool())
                .collect::<Vec<_>>()
        };
        let stream = flips(5, 1);
        assert_eq!(stream, flips(5, 1));
        assert_ne!(stream, flips(5, 2));
        let heads = stream.iter().filter(|&&b| b).count() as f64 / stream.len() as f64;
        assert!((heads - 0.5).abs() < 0.05, "share of heads {heads}");
    }

    #[test]
    fn keys_stay_in_range() {
        for workload in ALL {
            let mut generator = OpGenerator::new(workload, 64, 3, 0);
            for _ in 0..1_000 {
                assert!(generator.next_key() < 64);
                let key = match generator.next_op() {
                    MapOp::Insert(k) | MapOp::Remove(k) | MapOp::Get(k) => k,
                };
                assert!(key < 64, "{workload:?} drew {key}");
            }
        }
    }
}
