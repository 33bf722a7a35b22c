//! The five workloads and the one driver that runs any of them under any
//! reclamation scheme.
//!
//! Run shape (fixed; see README.md): closed loop, [`WORKERS`] worker threads,
//! the main thread blocked in `join`, no sampler thread — each worker times
//! about one call in 64 (chosen by the workload's own random draw), and uses
//! those clock reads to cut its run into [`SEGMENT`]-long segments. A leg of
//! `seconds` has `4 × seconds` measured segments after `0.8 × seconds`
//! warm-up segments that are thrown away.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use wfe_suite::{
    Atomic, BlockCacheConfig, ConcurrentMap, ConcurrentQueue, CrTurnQueue, DomainConfig, Handle,
    HandlePool, Linked, MapServiceStats, MichaelHashMap, MichaelList, PoolStats, PooledHandle,
    RawHandle, Reclaimer, ResizableHashMap, SmrStats,
};

use crate::hist::Hist;
use crate::oracle::{self, MapOracle, QueueOracle};
use crate::rng::{zipf_tape, SplitMix64, TAPE_LEN};
use crate::trace::{segment_span_id, Recorder, Span, NAME_OP0, SLOW_SPAN_NS, SPAN_CAP};

/// Worker threads of every workload (the box has two cores).
pub const WORKERS: usize = 2;
/// Length of one segment.
pub const SEGMENT: Duration = Duration::from_millis(250);
/// Calls a pooled worker makes per checked-out handle.
pub const TASK_OPS: u64 = 64;
/// A call is timed when the top six bits of its random draw are zero (1 in 64).
const SAMPLE_SHIFT: u32 = 58;
/// `stats().unreclaimed` is read at every this-many-th timed sample.
const UNRECLAIMED_EVERY: u64 = 16;
/// Zipf exponent of `kv-zipf-pool`.
pub const ZIPF_THETA: f64 = 0.99;

/// Call types, indexing the per-type histograms.
pub const OP_NAMES: [&str; 5] = ["get", "insert", "remove", "enqueue", "dequeue"];
const GET: usize = 0;
const INSERT: usize = 1;
const REMOVE: usize = 2;
const ENQUEUE: usize = 3;
const DEQUEUE: usize = 4;

/// The structure a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// `MichaelHashMap`
    HashMap,
    /// `MichaelList`
    List,
    /// `ResizableHashMap`, grown from its default directory
    Resizable,
    /// `CrTurnQueue`
    CrTurn,
}

/// One workload: what is built, how it is filled and what the workers call.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, in one line.
    pub why: &'static str,
    /// Structure under test.
    pub structure: Structure,
    /// Elements inserted (enqueued) during set-up.
    pub prefill: u64,
    /// Keys are drawn from `0..keys` (unused by the queue).
    pub keys: u64,
    /// Per cent of calls that are `get`.
    pub get_pct: u64,
    /// Per cent of calls that are `insert`; the rest are `remove`.
    pub insert_pct: u64,
    /// Keys come from the Zipf tape instead of a uniform draw.
    pub zipf: bool,
    /// Workers check a handle out of one shared pool per [`TASK_OPS`] calls.
    pub pooled: bool,
    /// One extra handle holds a reservation for the whole run.
    pub stall: bool,
}

/// The workloads, in the order a set runs them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "map-write50",
        why: "Hash map, 50% insert / 50% remove on short chains: alloc, retire, cleanup and the block cache do the work, protect little",
        structure: Structure::HashMap,
        prefill: 50_000,
        keys: 100_000,
        get_pct: 0,
        insert_pct: 50,
        zipf: false,
        pooled: false,
        stall: false,
    },
    Spec {
        name: "map-write50-stall",
        why: "Same with one reader stalled since before the clock: every cleanup pass rescans ~25k pinned blocks, the paper's robustness axis; bypass partner of map-write50",
        structure: Structure::HashMap,
        prefill: 50_000,
        keys: 100_000,
        get_pct: 0,
        insert_pct: 50,
        zipf: false,
        pooled: false,
        stall: true,
    },
    Spec {
        name: "list-read90",
        why: "Sorted list, 90% get: ~500 protect calls per op and almost no retires, so the get_protected fast path does the work and the update path is bypassed",
        structure: Structure::List,
        prefill: 1_024,
        keys: 2_048,
        get_pct: 90,
        insert_pct: 5,
        zipf: false,
        pooled: false,
        stall: false,
    },
    Spec {
        name: "queue-pairs",
        why: "CRTurn wait-free queue, enqueue/dequeue pairs: every op allocates or retires, three shields with parent pointers, helping arrays; catches a map-read gain paid for by queue writes",
        structure: Structure::CrTurn,
        prefill: 1_024,
        keys: 0,
        get_pct: 0,
        insert_pct: 0,
        zipf: false,
        pooled: false,
        stall: false,
    },
    Spec {
        name: "kv-zipf-pool",
        why: "Resizable split-ordered map grown by its prefill, Zipf 0.99 keys, 90% get, a pooled handle per 64-op task: the only path through pool.rs, resizing and hot-key contention",
        structure: Structure::Resizable,
        prefill: 50_000,
        keys: 100_000,
        get_pct: 90,
        insert_pct: 5,
        zipf: true,
        pooled: true,
        stall: false,
    },
];

/// The workload called `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The configuration of every benchmark domain: 8 slots in 2 shards, block
/// cache switched on explicitly (so the environment cannot switch it off),
/// the paper's defaults otherwise.
pub fn domain_config() -> DomainConfig {
    DomainConfig {
        max_threads: 8,
        shards: 2,
        block_cache: BlockCacheConfig {
            enabled: true,
            per_class_capacity: 64,
        },
        ..DomainConfig::default()
    }
}

/// How one leg is run.
#[derive(Debug, Clone, Copy)]
pub struct LegParams {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds (warm-up comes on top).
    pub seconds: f64,
    /// Time every call and keep raw spans.
    pub trace: bool,
    /// Repeat the set-up and report each repetition's time.
    pub repeat_setup: bool,
    /// After the run, release everything and require `unreclaimed == 0`.
    pub check_teardown: bool,
}

/// Counters read by worker 0 at a segment boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Boundary {
    /// When, in nanoseconds since the clock origin.
    pub at_ns: u64,
    /// The domain's counters.
    pub stats: SmrStats,
    /// The pool's counters (zero without a pool).
    pub pool: PoolStats,
}

/// One measured segment of one thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentRecord {
    /// Worker thread.
    pub thread: u16,
    /// Segment number, 0 = first measured.
    pub index: usize,
    /// Nominal start, nanoseconds since the clock origin; a segment lasts
    /// [`SEGMENT`].
    pub start_ns: u64,
    /// Calls completed.
    pub ops: u64,
    /// Nanoseconds spent inside timed calls.
    pub op_ns: u64,
}

/// What one leg measured.
pub struct Leg {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Calls per second of each measured segment, all threads together.
    pub seg_ops_per_s: Vec<f64>,
    /// Latency of timed calls, per call type.
    pub hists: [Hist; 5],
    /// Sum of timed latencies, per call type.
    pub op_ns: [u64; 5],
    /// `stats().unreclaimed` samples, sorted.
    pub unreclaimed: Vec<u64>,
    /// Calls made (warm-up included: every call is checked).
    pub attempted: u64,
    /// Calls that failed or answered wrongly, plus what the final sweep shows.
    pub failed: u64,
    /// Calls that found or changed something.
    pub useful: u64,
    /// Calls completed in measured segments.
    pub measured_ops: u64,
    /// Worker 0's counters at each measured segment boundary (first = start
    /// of measurement, last = end).
    pub boundaries: Vec<Boundary>,
    /// Map geometry after the run (zero for queues).
    pub service: MapServiceStats,
    /// `unreclaimed` after everything was released, when asked for.
    pub teardown_unreclaimed: Option<u64>,
    /// Measured segments, per thread.
    pub segments: Vec<SegmentRecord>,
    /// Raw spans of timed calls.
    pub spans: Vec<Span>,
    /// Clock reads bracketing the threads' run.
    pub started_ns: u64,
    /// See `started_ns`.
    pub ended_ns: u64,
}

impl Leg {
    /// All call types merged.
    pub fn all_ops(&self) -> Hist {
        let mut all = Hist::new();
        self.hists.iter().for_each(|h| all.merge(h));
        all
    }

    /// Counter movement over the measured window.
    pub fn window(&self) -> (Boundary, Boundary) {
        match (self.boundaries.first(), self.boundaries.last()) {
            (Some(first), Some(last)) => (*first, *last),
            _ => Default::default(),
        }
    }
}

/// Median of `values` (the mean of the middle two for an even count; 0 when
/// empty). Sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    quantile_sorted(sort(values), 0.5)
}

/// Sorts ascending and hands the slice back.
pub fn sort(values: &mut [f64]) -> &[f64] {
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// Linear-interpolated quantile of a sorted slice; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let at = q * (sorted.len() - 1) as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

/// `part ÷ whole`, 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

// ---------------------------------------------------------------------------
// Per-worker metering
// ---------------------------------------------------------------------------

struct WorkerOut {
    /// When the worker left the start barrier.
    start_ns: u64,
    /// Calls per segment, warm-up segments first.
    seg_ops: Vec<u64>,
    /// Timed nanoseconds per segment.
    seg_op_ns: Vec<u64>,
    hists: [Hist; 5],
    op_ns: [u64; 5],
    unreclaimed: Vec<u64>,
    calls: u64,
    failed: u64,
    useful: u64,
    boundaries: Vec<Boundary>,
    spans: Vec<Span>,
}

/// Cuts one worker's run into segments and books its timed calls.
struct Meter<'a, R: Reclaimer> {
    domain: &'a R,
    pool: Option<&'a HandlePool<R>>,
    recorder: Recorder,
    thread: u16,
    trace: bool,
    start_ns: u64,
    warm: usize,
    total: usize,
    current: usize,
    calls_at_boundary: u64,
    samples: u64,
    out: WorkerOut,
}

impl<'a, R: Reclaimer> Meter<'a, R> {
    fn new(ctx: &'a Shared<R>, thread: usize) -> Self {
        let total = ctx.warm + ctx.measured;
        let recorder = Recorder::new(ctx.origin, thread as u16, SPAN_CAP / WORKERS);
        Self {
            domain: &ctx.domain,
            pool: ctx.pool.as_deref(),
            start_ns: recorder.now(),
            recorder,
            thread: thread as u16,
            trace: ctx.trace,
            warm: ctx.warm,
            total,
            current: 0,
            calls_at_boundary: 0,
            samples: 0,
            out: WorkerOut {
                start_ns: 0,
                seg_ops: vec![0; total],
                seg_op_ns: vec![0; total],
                hists: Default::default(),
                op_ns: [0; 5],
                unreclaimed: Vec::new(),
                calls: 0,
                failed: 0,
                useful: 0,
                boundaries: Vec::new(),
                spans: Vec::new(),
            },
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        self.recorder.now()
    }

    /// Books a call timed from `t0` to `t1`; `false` once the leg is over.
    #[inline]
    fn timed(&mut self, op: usize, sampled: bool, t0: u64, t1: u64) -> bool {
        if self.current >= self.warm {
            let duration = t1 - t0;
            self.out.hists[op].record(duration);
            self.out.op_ns[op] += duration;
            self.out.seg_op_ns[self.current] += duration;
            if self.trace && (sampled || duration >= SLOW_SPAN_NS) {
                let parent = segment_span_id(self.thread, self.current - self.warm);
                self.recorder.push(parent, NAME_OP0 + op as u16, t0, t1);
            }
            if sampled {
                self.samples += 1;
                if self.samples.is_multiple_of(UNRECLAIMED_EVERY) {
                    self.out.unreclaimed.push(self.domain.stats().unreclaimed);
                }
            }
        }
        self.tick(t1)
    }

    /// Moves to the segment `now` falls in; `false` once the leg is over.
    fn tick(&mut self, now: u64) -> bool {
        let segment = ((now - self.start_ns) / SEGMENT.as_nanos() as u64) as usize;
        if segment != self.current {
            self.out.seg_ops[self.current] = self.out.calls - self.calls_at_boundary;
            self.calls_at_boundary = self.out.calls;
            self.current = segment;
            if self.thread == 0 && segment >= self.warm {
                self.out.boundaries.push(Boundary {
                    at_ns: now,
                    stats: self.domain.stats(),
                    pool: self.pool.map(|p| p.stats()).unwrap_or_default(),
                });
            }
        }
        self.current < self.total
    }

    fn finish(mut self) -> WorkerOut {
        self.out.start_ns = self.start_ns;
        self.out.spans = self.recorder.spans;
        self.out
    }
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A reader that reserved before the clock started and never finishes: one
/// registered handle, `begin_op` + `protect`, held until dropped.
struct Stall<R: Reclaimer> {
    handle: R::Handle,
    node: *mut Linked<u64>,
    // Boxed so the protected location keeps its address while the reservation
    // is outstanding.
    _root: Box<Atomic<u64>>,
}

impl<R: Reclaimer> Stall<R> {
    fn new(domain: &Arc<R>) -> Option<Self> {
        let mut handle = domain.try_register()?;
        let node = handle.alloc(0u64);
        let root = Box::new(Atomic::new(node));
        handle.begin_op();
        handle.protect(&root, 0, core::ptr::null_mut());
        Some(Self {
            handle,
            node,
            _root: root,
        })
    }
}

impl<R: Reclaimer> Drop for Stall<R> {
    fn drop(&mut self) {
        self.handle.end_op();
        // SAFETY: `node` came from this handle's `alloc`, was only ever
        // reachable through `_root` (private to this struct, abandoned here)
        // and is retired exactly once.
        unsafe { self.handle.retire(self.node) };
    }
}

/// Everything a leg's workers share.
struct Shared<R: Reclaimer> {
    domain: Arc<R>,
    pool: Option<Arc<HandlePool<R>>>,
    origin: Instant,
    trace: bool,
    warm: usize,
    measured: usize,
}

/// Where a worker's handle comes from.
enum Lease<R: Reclaimer> {
    /// Registered once, kept for the run.
    Owned(R::Handle),
    /// Checked out of the shared pool for [`TASK_OPS`] calls at a time.
    Pooled(Arc<HandlePool<R>>, Option<PooledHandle<R>>),
}

impl<R: Reclaimer> Lease<R> {
    /// The handle for call number `calls`; `None` when the pool refused.
    #[inline]
    fn handle(&mut self, calls: u64) -> Option<&mut R::Handle> {
        match self {
            Lease::Owned(handle) => Some(handle),
            Lease::Pooled(pool, slot) => {
                if calls.is_multiple_of(TASK_OPS) {
                    // Park the old handle before asking for the next, as a
                    // finished task would.
                    *slot = None;
                    *slot = pool.check_out();
                }
                slot.as_deref_mut()
            }
        }
    }
}

/// A built domain and structure, filled and with every handle registered —
/// the state at the start barrier. Building one is what `setup_s` times.
struct Built<R: Reclaimer, S> {
    domain: Arc<R>,
    structure: S,
    pool: Option<Arc<HandlePool<R>>>,
    leases: Vec<Lease<R>>,
    stall: Option<Stall<R>>,
    /// Registrations or check-outs that were refused.
    refused: u64,
}

fn build<R: Reclaimer, S>(
    spec: &Spec,
    make: impl FnOnce(Arc<R>) -> S,
    fill: impl Fn(&S, &mut R::Handle),
) -> Built<R, S> {
    let domain = R::with_config(domain_config());
    let structure = make(Arc::clone(&domain));
    let pool = spec.pooled.then(|| HandlePool::new(Arc::clone(&domain)));
    let mut refused = 0;
    // The prefill runs on a handle that is then parked (pooled) or dropped.
    let mut filler = match &pool {
        Some(pool) => Some(Lease::Pooled(Arc::clone(pool), None)),
        None => domain.try_register().map(Lease::Owned),
    };
    match filler.as_mut().and_then(|lease| lease.handle(0)) {
        Some(handle) => fill(&structure, handle),
        None => refused += 1,
    }
    drop(filler);
    let mut leases = Vec::with_capacity(WORKERS);
    for _ in 0..WORKERS {
        match &pool {
            Some(pool) => leases.push(Lease::Pooled(Arc::clone(pool), None)),
            None => match domain.try_register() {
                Some(handle) => leases.push(Lease::Owned(handle)),
                None => refused += 1,
            },
        }
    }
    let stall = if spec.stall {
        let stall = Stall::new(&domain);
        refused += stall.is_none() as u64;
        stall
    } else {
        None
    };
    Built {
        domain,
        structure,
        pool,
        leases,
        stall,
        refused,
    }
}

/// Builds the state once, or — with `repeat` — again and again for about
/// half a second (9 to 101 times), keeping the last; returns every build's
/// time.
fn build_timed<T>(repeat: bool, mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let began = Instant::now();
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let built = build();
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= 9 && began.elapsed() >= Duration::from_millis(500);
        if !repeat || enough || times.len() >= 101 {
            return (built, times);
        }
        drop(built);
    }
}

// ---------------------------------------------------------------------------
// Worker loops
// ---------------------------------------------------------------------------

/// The keys a map worker draws.
enum Keys<'a> {
    /// Uniform in `0..n`, from the worker's own draw.
    Uniform(u64),
    /// Successive entries of the pre-generated tape, from a cursor.
    Tape(&'a [u32], usize),
}

/// One map worker's closed loop: draw, call, check, until the meter says the
/// leg is over. Returns the worker's books and the check-outs refused.
fn map_calls<R: Reclaimer, M: ConcurrentMap<R>>(
    map: &M,
    spec: &Spec,
    mut rng: SplitMix64,
    mut keys: Keys<'_>,
    lease: &mut Lease<R>,
    meter: &mut Meter<'_, R>,
) -> (MapOracle, u64) {
    let mut oracle = MapOracle::default();
    let mut refused = 0u64;
    loop {
        let draw = rng.next();
        let sampled = draw >> SAMPLE_SHIFT == 0;
        let key = match &mut keys {
            Keys::Uniform(n) => ((draw & 0xFFFF_FFFF) * *n) >> 32,
            Keys::Tape(tape, cursor) => {
                *cursor = (*cursor + 1) & (TAPE_LEN - 1);
                tape[*cursor] as u64
            }
        };
        let choice = (((draw >> 40) & 0xFFFF) * 100) >> 16;
        let op = if choice < spec.get_pct {
            GET
        } else if choice < spec.get_pct + spec.insert_pct {
            INSERT
        } else {
            REMOVE
        };
        let Some(handle) = lease.handle(meter.out.calls) else {
            // A refused check-out fails the call it was for.
            refused += 1;
            meter.out.calls += 1;
            let now = meter.now();
            if !meter.tick(now) {
                break;
            }
            continue;
        };
        let timed = sampled || meter.trace;
        let t0 = if timed { meter.now() } else { 0 };
        match op {
            GET => oracle.on_get(key, map.get(handle, key)),
            INSERT => oracle.on_insert(map.insert(handle, key, oracle::value_of(key))),
            _ => oracle.on_remove(map.remove(handle, key)),
        }
        meter.out.calls += 1;
        if timed && !meter.timed(op, sampled, t0, meter.now()) {
            break;
        }
    }
    (oracle, refused)
}

/// One queue worker's closed loop: enqueue, dequeue, check, until the meter
/// says the leg is over.
fn queue_calls<R: Reclaimer, Q: ConcurrentQueue<R>>(
    queue: &Q,
    producer: usize,
    mut rng: SplitMix64,
    handle: &mut R::Handle,
    meter: &mut Meter<'_, R>,
) -> QueueOracle {
    let mut oracle = QueueOracle::new(PRODUCERS);
    loop {
        let op = if meter.out.calls.is_multiple_of(2) {
            ENQUEUE
        } else {
            DEQUEUE
        };
        let sampled = rng.next() >> SAMPLE_SHIFT == 0;
        let timed = sampled || meter.trace;
        let t0 = if timed { meter.now() } else { 0 };
        if op == ENQUEUE {
            queue.enqueue(handle, oracle.next_value(producer));
        } else {
            oracle.on_dequeue(queue.dequeue(handle));
        }
        meter.out.calls += 1;
        if timed && !meter.timed(op, sampled, t0, meter.now()) {
            break;
        }
    }
    oracle
}

// ---------------------------------------------------------------------------
// Legs
// ---------------------------------------------------------------------------

/// Runs `spec` under scheme `R`.
pub fn run_leg<R: Reclaimer>(spec: &Spec, params: &LegParams, origin: Instant) -> Leg {
    match spec.structure {
        Structure::HashMap => map_leg::<R, MichaelHashMap<u64, R>>(spec, params, origin),
        Structure::List => map_leg::<R, MichaelList<u64, R>>(spec, params, origin),
        Structure::Resizable => map_leg::<R, ResizableHashMap<u64, R>>(spec, params, origin),
        Structure::CrTurn => queue_leg::<R, CrTurnQueue<u64, R>>(spec, params, origin),
    }
}

/// `(warm-up, measured)` segments of a leg of `seconds`.
pub fn segment_counts(seconds: f64) -> (usize, usize) {
    let per_second = 1.0 / SEGMENT.as_secs_f64();
    let measured = (seconds * per_second).round().max(1.0) as usize;
    let warm = (seconds * per_second * 0.2).round().max(1.0) as usize;
    (warm, measured)
}

/// Starts one thread per lease behind a barrier, runs `work` on each with a
/// fresh meter and joins them; the main thread sleeps in `join` meanwhile.
/// `work` returns its books plus `(failed, useful)` call counts.
fn drive<R: Reclaimer, S: Sync, B: Send>(
    shared: &Shared<R>,
    structure: &S,
    leases: Vec<Lease<R>>,
    work: impl Fn(&S, usize, &mut Lease<R>, &mut Meter<'_, R>) -> (B, u64, u64) + Sync,
) -> Vec<(WorkerOut, B)> {
    let barrier = Barrier::new(leases.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = leases
            .into_iter()
            .enumerate()
            .map(|(thread, mut lease)| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    let mut meter = Meter::new(shared, thread);
                    let (books, failed, useful) = work(structure, thread, &mut lease, &mut meter);
                    let mut out = meter.finish();
                    out.failed = failed;
                    out.useful = useful;
                    (out, books)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a worker thread panicked"))
            .collect()
    })
}

/// The one leg every workload runs through: build (timed), drive the
/// workers, check the structure's final state on a fresh handle (`verify`
/// returns the failures it shows and the map geometry), release, fold.
fn leg<R: Reclaimer, S: Sync, B: Send>(
    spec: &Spec,
    params: &LegParams,
    origin: Instant,
    make: fn(Arc<R>) -> S,
    fill: impl Fn(&S, &mut R::Handle),
    work: impl Fn(&S, usize, &mut Lease<R>, &mut Meter<'_, R>) -> (B, u64, u64) + Sync,
    verify: impl FnOnce(&S, &mut R::Handle, &[B]) -> (u64, MapServiceStats),
) -> Leg {
    let (built, setup_s) = build_timed(params.repeat_setup, || build::<R, S>(spec, make, &fill));
    let (warm, measured) = segment_counts(params.seconds);
    let mut shared = Shared {
        domain: built.domain,
        pool: built.pool,
        origin,
        trace: params.trace,
        warm,
        measured,
    };
    let started_ns = origin.elapsed().as_nanos() as u64;
    let (outs, books): (Vec<_>, Vec<_>) = drive(&shared, &built.structure, built.leases, work)
        .into_iter()
        .unzip();
    let ended_ns = origin.elapsed().as_nanos() as u64;

    let mut failed = built.refused;
    let mut service = MapServiceStats::default();
    match shared.domain.try_register() {
        Some(mut handle) => {
            let (shown, geometry) = verify(&built.structure, &mut handle, &books);
            failed += shown;
            service = geometry;
        }
        None => failed += 1,
    }
    let teardown_unreclaimed = params.check_teardown.then(|| {
        drop(built.structure);
        release(shared.pool.take(), built.stall, &shared.domain)
    });
    failed += teardown_unreclaimed.unwrap_or(0);

    let mut leg = Leg {
        setup_s,
        seg_ops_per_s: Vec::new(),
        hists: Default::default(),
        op_ns: [0; 5],
        unreclaimed: Vec::new(),
        attempted: 0,
        failed,
        useful: 0,
        measured_ops: 0,
        boundaries: Vec::new(),
        service,
        teardown_unreclaimed,
        segments: Vec::new(),
        spans: Vec::new(),
        started_ns,
        ended_ns,
    };
    let mut per_segment = vec![0u64; measured];
    for (thread, mut out) in outs.into_iter().enumerate() {
        for (index, total) in per_segment.iter_mut().enumerate() {
            let ops = out.seg_ops[warm + index];
            *total += ops;
            leg.segments.push(SegmentRecord {
                thread: thread as u16,
                index,
                start_ns: out.start_ns + ((warm + index) as u64) * SEGMENT.as_nanos() as u64,
                ops,
                op_ns: out.seg_op_ns[warm + index],
            });
        }
        for (mine, theirs) in leg.hists.iter_mut().zip(&out.hists) {
            mine.merge(theirs);
        }
        for (mine, theirs) in leg.op_ns.iter_mut().zip(out.op_ns) {
            *mine += theirs;
        }
        leg.unreclaimed.append(&mut out.unreclaimed);
        leg.attempted += out.calls;
        leg.failed += out.failed;
        leg.useful += out.useful;
        leg.spans.append(&mut out.spans);
        if thread == 0 {
            leg.boundaries = std::mem::take(&mut out.boundaries);
        }
    }
    leg.unreclaimed.sort_unstable();
    leg.measured_ops = per_segment.iter().sum();
    leg.seg_ops_per_s = per_segment
        .iter()
        .map(|&ops| ops as f64 / SEGMENT.as_secs_f64())
        .collect();
    leg
}

/// Runs a map workload on structure `M` under scheme `R`.
pub fn map_leg<R: Reclaimer, M: ConcurrentMap<R>>(
    spec: &Spec,
    params: &LegParams,
    origin: Instant,
) -> Leg {
    let tape = spec
        .zipf
        .then(|| zipf_tape(params.seed, spec.keys, ZIPF_THETA));
    leg::<R, M, MapOracle>(
        spec,
        params,
        origin,
        M::with_domain,
        |map, handle| {
            let mut rng = SplitMix64::new(params.seed ^ 0xF111);
            let mut inserted = 0;
            while inserted < spec.prefill {
                let key = rng.below(spec.keys);
                inserted += map.insert(handle, key, oracle::value_of(key)) as u64;
            }
        },
        |map, thread, lease, meter| {
            let rng = SplitMix64::new(params.seed.wrapping_add(1 + thread as u64));
            let keys = match &tape {
                Some(tape) => Keys::Tape(tape, thread * TAPE_LEN / WORKERS),
                None => Keys::Uniform(spec.keys),
            };
            let (oracle, refused) = map_calls::<R, M>(map, spec, rng, keys, lease, meter);
            (oracle, oracle.failed + refused, oracle.useful)
        },
        // The sweep: what is in the map must be what the workers' books say.
        |map, handle, books| {
            let net_inserts = books.iter().map(|b| b.net_inserts).sum();
            let (mut found, mut wrong) = (0, 0);
            for key in 0..spec.keys {
                if let Some(value) = map.get(handle, key) {
                    found += 1;
                    wrong += (value != oracle::value_of(key)) as u64;
                }
            }
            let shown = oracle::sweep_failures(spec.prefill, net_inserts, found, wrong);
            (shown, map.service_stats())
        },
    )
}

/// Producer ids a queue consumer may see: one per worker, one for the prefill.
const PRODUCERS: usize = WORKERS + 1;

/// Runs the queue workload on structure `Q` under scheme `R`.
pub fn queue_leg<R: Reclaimer, Q: ConcurrentQueue<R>>(
    spec: &Spec,
    params: &LegParams,
    origin: Instant,
) -> Leg {
    leg::<R, Q, QueueOracle>(
        spec,
        params,
        origin,
        Q::with_domain,
        |queue, handle| {
            for seq in 1..=spec.prefill {
                queue.enqueue(handle, oracle::queue_value(WORKERS, seq));
            }
        },
        |queue, thread, lease, meter| {
            let rng = SplitMix64::new(params.seed.wrapping_add(1 + thread as u64));
            let Some(handle) = lease.handle(0) else {
                return (QueueOracle::new(PRODUCERS), 1, 0);
            };
            let oracle = queue_calls::<R, Q>(queue, thread, rng, handle, meter);
            let (failed, useful) = (oracle.failed, oracle.enqueued + oracle.dequeued);
            (oracle, failed, useful)
        },
        // The drain: in order, and nothing lost or duplicated overall.
        |queue, handle, books| {
            let enqueued = spec.prefill + books.iter().map(|b| b.enqueued).sum::<u64>();
            let dequeued = books.iter().map(|b| b.dequeued).sum::<u64>();
            let mut drain = QueueOracle::new(PRODUCERS);
            while let Some(value) = queue.dequeue(handle) {
                drain.on_dequeue(Some(value));
            }
            let lost = oracle::drain_failures(enqueued, dequeued, drain.dequeued);
            (drain.failed + lost, MapServiceStats::default())
        },
    )
}

/// Releases the pool and the stalled reader, then runs cleanup passes on a
/// fresh handle until every orphaned batch has been adopted and scanned.
/// Returns what is still unreclaimed: with no reservation left, it must be 0.
fn release<R: Reclaimer>(
    pool: Option<Arc<HandlePool<R>>>,
    stall: Option<Stall<R>>,
    domain: &Arc<R>,
) -> u64 {
    drop(pool);
    drop(stall);
    if let Some(mut handle) = domain.try_register() {
        // One pass adopts one orphaned batch; every handle left at most one.
        for _ in 0..=domain.config().max_threads {
            handle.force_cleanup();
        }
    }
    domain.stats().unreclaimed
}
