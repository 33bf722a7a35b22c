//! Workload definitions (paper §5) plus the kv-service mixes.
//!
//! Two map workloads are used throughout the paper's evaluation:
//!
//! * **write-dominated** — 50% `insert`, 50% `delete` (Figures 5-8);
//! * **read-mostly** — 90% `get`, 10% `put` (Figures 9-11).
//!
//! Queues only support `enqueue`/`dequeue`, so they always run the
//! write-dominated mix (Figure 5). Keys are drawn uniformly from
//! `0..key_range` using a per-thread PRNG.
//!
//! The **kv-service** figure adds four legs beyond the paper's uniform
//! draws: a service-shaped key popularity (Zipfian) under a read-mostly and
//! a write-heavy mix, a TTL sweep (every entry is removed a fixed number of
//! ticks after insertion, the classic cache-expiry churn), and a
//! resize-storm leg of monotonically fresh keys that forces the resizable
//! map through directory doubling after doubling. All six legs are one
//! [`MapWorkload`] drawn by one [`OpGenerator`], so every stream replays
//! from `(seed, thread)`.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use wfe_ds::hash::mix64;

/// The operation mix applied to key-value structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapWorkload {
    /// 50% `insert`, 50% `delete`.
    WriteDominated,
    /// 90% `get`, 10% `put` (insert).
    ReadMostly,
    /// Zipf-popular keys, 90% `get` / 5% `insert` / 5% `remove`.
    ZipfReadMostly,
    /// Zipf-popular keys, 50% `insert` / 50% `remove`.
    ZipfWriteHeavy,
    /// TTL expiry sweep: every tick inserts a fresh key and removes the key
    /// whose TTL just elapsed, so the live set is a sliding window of
    /// [`TTL_WINDOW`](Self::TTL_WINDOW) entries per thread.
    TtlExpiry,
    /// Resize storm: monotonically fresh keys, insert-only — the live set
    /// grows without bound and drives the resizable map through doubling
    /// after doubling.
    ResizeStorm,
}

impl MapWorkload {
    /// Ticks an entry lives in the TTL sweep before it is expired.
    pub const TTL_WINDOW: u64 = 512;

    /// The kv-service figure's legs, in CSV emission order.
    pub const SERVICE: [MapWorkload; 4] = [
        MapWorkload::ZipfReadMostly,
        MapWorkload::ZipfWriteHeavy,
        MapWorkload::TtlExpiry,
        MapWorkload::ResizeStorm,
    ];

    /// Human-readable label used in CSV output.
    pub fn label(self) -> &'static str {
        match self {
            MapWorkload::WriteDominated => "write50",
            MapWorkload::ReadMostly => "read90",
            MapWorkload::ZipfReadMostly => "kv-zipf-read90",
            MapWorkload::ZipfWriteHeavy => "kv-zipf-write50",
            MapWorkload::TtlExpiry => "kv-ttl",
            MapWorkload::ResizeStorm => "kv-resize-storm",
        }
    }

    /// Whether the leg starts from a prefilled table; the TTL and storm legs
    /// build their own live set from an empty one.
    pub fn prefills(self) -> bool {
        !matches!(self, MapWorkload::TtlExpiry | MapWorkload::ResizeStorm)
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
    /// The Zipf sampler of the two Zipf legs.
    zipf: Option<ZipfKeys>,
    /// Thread-disjoint namespace for the fresh keys of the TTL and storm
    /// legs (top bits carry the thread id, so threads never collide).
    fresh_base: u64,
    /// Fresh keys handed out so far (the TTL leg's clock).
    tick: u64,
    /// TTL leg bookkeeping: the next call expires instead of inserting.
    expire_next: bool,
}

impl OpGenerator {
    /// Creates a generator seeded from `(seed, thread)` so runs are
    /// reproducible yet threads do not correlate.
    pub fn new(workload: MapWorkload, key_range: u64, seed: u64, thread: usize) -> Self {
        let zipf = matches!(
            workload,
            MapWorkload::ZipfReadMostly | MapWorkload::ZipfWriteHeavy
        )
        .then(|| ZipfKeys::new(key_range));
        Self {
            rng: StdRng::seed_from_u64(
                seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            workload,
            key_range,
            zipf,
            fresh_base: (thread as u64 + 1) << 48,
            tick: 0,
            expire_next: false,
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> MapOp {
        match self.workload {
            MapWorkload::WriteDominated => {
                let key = self.next_key();
                if self.rng.gen_bool(0.5) {
                    MapOp::Insert(key)
                } else {
                    MapOp::Remove(key)
                }
            }
            MapWorkload::ReadMostly => {
                let key = self.next_key();
                if self.rng.gen_bool(0.9) {
                    MapOp::Get(key)
                } else {
                    MapOp::Insert(key)
                }
            }
            MapWorkload::ZipfReadMostly => {
                let key = self.next_zipf_key();
                let p = unit(&mut self.rng);
                if p < 0.90 {
                    MapOp::Get(key)
                } else if p < 0.95 {
                    MapOp::Insert(key)
                } else {
                    MapOp::Remove(key)
                }
            }
            MapWorkload::ZipfWriteHeavy => {
                let key = self.next_zipf_key();
                if self.rng.gen_bool(0.5) {
                    MapOp::Insert(key)
                } else {
                    MapOp::Remove(key)
                }
            }
            MapWorkload::TtlExpiry => {
                if self.expire_next && self.tick >= MapWorkload::TTL_WINDOW {
                    self.expire_next = false;
                    MapOp::Remove(self.fresh_base + (self.tick - MapWorkload::TTL_WINDOW))
                } else {
                    self.expire_next = true;
                    MapOp::Insert(self.next_fresh_key())
                }
            }
            MapWorkload::ResizeStorm => MapOp::Insert(self.next_fresh_key()),
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

    fn next_zipf_key(&mut self) -> u64 {
        let zipf = self.zipf.as_ref().expect("a zipf leg");
        zipf.next_key(&mut self.rng)
    }

    fn next_fresh_key(&mut self) -> u64 {
        self.tick += 1;
        self.fresh_base + self.tick - 1
    }
}

/// A uniform draw from `[0, 1)` (53 mantissa bits).
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Zipfian rank sampler (YCSB's rejection-free inverse-CDF construction)
/// with the standard skew θ = 0.99: rank 0 is the hottest, popularity decays
/// as `1 / rank^θ`. Ranks are scrambled through the avalanche mixer before
/// use so the hot set is spread across the key space (and across the
/// resizable map's buckets) instead of clustering at 0.
#[derive(Debug, Clone)]
pub struct ZipfKeys {
    key_range: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl ZipfKeys {
    /// The YCSB-standard skew.
    pub const THETA: f64 = 0.99;

    /// Builds the sampler for keys `0..key_range` (θ fixed at
    /// [`THETA`](Self::THETA)). The ζ(n, θ) sum is computed once here.
    pub fn new(key_range: u64) -> Self {
        let key_range = key_range.max(2);
        let theta = Self::THETA;
        let zetan: f64 = (1..=key_range).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let eta = (1.0 - (2.0 / key_range as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Self {
            key_range,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            zeta2,
        }
    }

    /// Draws a Zipf-distributed *rank* in `0..key_range` from `rng`.
    pub fn next_rank(&self, rng: &mut StdRng) -> u64 {
        let u = unit(rng);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.zeta2 {
            return 1;
        }
        let rank =
            (self.key_range as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.key_range - 1)
    }

    /// Draws a Zipf-popular *key*: the rank scrambled over the key space by
    /// the data-structure layer's own hash mixer, so hot keys do not cluster
    /// in one bucket run.
    pub fn next_key(&self, rng: &mut StdRng) -> u64 {
        mix64(self.next_rank(rng)) % self.key_range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const ALL: [MapWorkload; 6] = [
        MapWorkload::WriteDominated,
        MapWorkload::ReadMostly,
        MapWorkload::ZipfReadMostly,
        MapWorkload::ZipfWriteHeavy,
        MapWorkload::TtlExpiry,
        MapWorkload::ResizeStorm,
    ];

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
            if workload.prefills() {
                // The fresh-key legs draw nothing from the seed.
                assert_ne!(stream, ops(workload, 1_000, 8, 0), "{workload:?} per seed");
            }
            // Shares of get / insert / remove, each within five points.
            let (get, insert, remove) = match workload {
                MapWorkload::WriteDominated | MapWorkload::ZipfWriteHeavy => (0.0, 0.5, 0.5),
                MapWorkload::ReadMostly => (0.9, 0.1, 0.0),
                MapWorkload::ZipfReadMostly => (0.9, 0.05, 0.05),
                MapWorkload::TtlExpiry => (0.0, 0.5, 0.5),
                MapWorkload::ResizeStorm => (0.0, 1.0, 0.0),
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
    fn keys_stay_in_range() {
        for workload in ALL.into_iter().filter(|w| w.prefills()) {
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

    #[test]
    fn zipf_ranks_are_skewed_and_in_range() {
        const RANGE: u64 = 10_000;
        let zipf = ZipfKeys::new(RANGE);
        let mut rng = StdRng::seed_from_u64(42);
        let mut head = 0usize;
        for _ in 0..20_000 {
            let rank = zipf.next_rank(&mut rng);
            assert!(rank < RANGE);
            if rank < 10 {
                head += 1;
            }
        }
        // θ = 0.99 puts far more than a uniform 0.1% of draws on the top-10
        // ranks; empirically ≈ 25%. Assert the order of magnitude.
        assert!(head > 2_000, "zipf head too cold: {head} of 20000");
    }

    #[test]
    fn ttl_leg_slides_a_window() {
        // Replaying the stream against a set model: the live set stays
        // pinned at the TTL window (every expired key was really present).
        let mut live = BTreeSet::new();
        for op in ops(MapWorkload::TtlExpiry, 1_000, 9, 2)
            .into_iter()
            .take(4_000)
        {
            match op {
                MapOp::Insert(k) => assert!(live.insert(k), "fresh keys never repeat"),
                MapOp::Remove(k) => assert!(live.remove(&k), "expiry targets a live key"),
                MapOp::Get(_) => {}
            }
            assert!(live.len() as u64 <= MapWorkload::TTL_WINDOW + 1);
        }
        let settled = live.len() as u64;
        assert!(
            (MapWorkload::TTL_WINDOW - 1..=MapWorkload::TTL_WINDOW + 1).contains(&settled),
            "TTL live set must settle at the window, got {settled}"
        );
    }

    #[test]
    fn storm_keys_are_fresh_and_thread_disjoint() {
        let mut a = OpGenerator::new(MapWorkload::ResizeStorm, 1000, 5, 0);
        let mut b = OpGenerator::new(MapWorkload::ResizeStorm, 1000, 5, 1);
        let mut seen = BTreeSet::new();
        for _ in 0..1_000 {
            for g in [&mut a, &mut b] {
                match g.next_op() {
                    MapOp::Insert(k) => assert!(seen.insert(k), "storm keys never repeat"),
                    other => panic!("storm is insert-only, got {other:?}"),
                }
            }
        }
    }
}
