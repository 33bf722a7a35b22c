//! The output oracle: every data-structure call the benchmark makes is
//! checked, and a wrong answer counts as a failed call.
//!
//! * Maps store `key ^ SALT`, so a `get` that returns any other value is
//!   wrong on sight; each worker keeps its net successful inserts, and after
//!   the run a single-threaded sweep must find exactly `prefill + Σ net` keys.
//! * Queues carry `(producer << 48) | seq`; a consumer must see each
//!   producer's sequence numbers strictly increasing, and at the end
//!   `enqueued = dequeued + drained`.

/// Map values are the key xor this constant.
pub const SALT: u64 = 0x5EED_CAFE_F00D_D00D;

/// The value the benchmark stores under `key`.
#[inline]
pub fn value_of(key: u64) -> u64 {
    key ^ SALT
}

/// Per-worker map bookkeeping.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MapOracle {
    /// Successful inserts minus successful removes.
    pub net_inserts: i64,
    /// Calls whose answer was wrong.
    pub failed: u64,
    /// Calls that found or changed something.
    pub useful: u64,
}

impl MapOracle {
    /// Checks the answer of `get(key)`.
    #[inline]
    pub fn on_get(&mut self, key: u64, got: Option<u64>) {
        match got {
            Some(value) if value == value_of(key) => self.useful += 1,
            Some(_) => self.failed += 1,
            None => {}
        }
    }

    /// Books the answer of `insert(key, value_of(key))`.
    #[inline]
    pub fn on_insert(&mut self, inserted: bool) {
        self.net_inserts += inserted as i64;
        self.useful += inserted as u64;
    }

    /// Books the answer of `remove(key)`.
    #[inline]
    pub fn on_remove(&mut self, removed: bool) {
        self.net_inserts -= removed as i64;
        self.useful += removed as u64;
    }
}

/// Failures shown by the final sweep: every key the sweep found with a wrong
/// value, plus every key missing or in excess against the workers' books.
pub fn sweep_failures(prefill: u64, net_inserts: i64, swept_keys: u64, wrong_values: u64) -> u64 {
    let expected = prefill as i64 + net_inserts;
    wrong_values + (expected - swept_keys as i64).unsigned_abs()
}

/// Bits of a queue value below the producer id.
pub const SEQ_BITS: u32 = 48;

/// The value producer `producer` enqueues as its `seq`-th (1-based) element.
#[inline]
pub fn queue_value(producer: usize, seq: u64) -> u64 {
    ((producer as u64) << SEQ_BITS) | seq
}

/// Per-consumer queue bookkeeping for up to `producers` producer ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueOracle {
    last_seen: Vec<u64>,
    /// Elements this worker enqueued.
    pub enqueued: u64,
    /// Elements this worker dequeued.
    pub dequeued: u64,
    /// Calls whose answer was wrong.
    pub failed: u64,
}

impl QueueOracle {
    /// Books for a consumer that may see `producers` distinct producer ids.
    pub fn new(producers: usize) -> Self {
        Self {
            last_seen: vec![0; producers],
            enqueued: 0,
            dequeued: 0,
            failed: 0,
        }
    }

    /// The next value producer `producer` (this worker) enqueues.
    #[inline]
    pub fn next_value(&mut self, producer: usize) -> u64 {
        self.enqueued += 1;
        queue_value(producer, self.enqueued)
    }

    /// Checks the answer of a `dequeue` on a queue that cannot be empty:
    /// `None`, an unknown producer or a sequence number that does not
    /// increase is a failed call.
    #[inline]
    pub fn on_dequeue(&mut self, got: Option<u64>) {
        let Some(value) = got else {
            self.failed += 1;
            return;
        };
        self.dequeued += 1;
        let seq = value & ((1 << SEQ_BITS) - 1);
        match self.last_seen.get_mut((value >> SEQ_BITS) as usize) {
            Some(last) if seq > *last => *last = seq,
            _ => self.failed += 1,
        }
    }
}

/// Failures shown by the final drain: elements lost or duplicated overall.
pub fn drain_failures(enqueued: u64, dequeued: u64, drained: u64) -> u64 {
    enqueued.abs_diff(dequeued + drained)
}
