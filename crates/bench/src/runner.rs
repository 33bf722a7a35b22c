//! The closed-loop driver every figure is measured with.
//!
//! One data point = one (scheme, structure, workload, thread-count)
//! combination, measured for `BenchParams::duration` and repeated
//! `BenchParams::repeats` times. `measure` is the whole harness: it
//! starts one worker thread per requested thread, lets them run a warm-up,
//! opens the measured window, samples the domain's gauges until the window
//! closes, stops the workers and sums their completed operations. What a
//! worker does is a closure the caller hands in — one map operation
//! ([`run_map`]: the paper's Figures 6-11, the ablations, `kv-service` and
//! `cross-shard-churn`), one queue operation ([`run_queue`]: Figure 5 and
//! `queue-baseline`), or one pooled task of [`POOL_TASK_OPS`] map operations
//! between a [`HandlePool`] check-out and check-in ([`run_pooled_map`]:
//! `kv-pool`).
//!
//! Throughput is the total number of completed operations divided by the
//! measured window (reported in Mops/s, as in the paper); the reclamation
//! metric is the time-average of the number of retired-but-not-yet-freed
//! blocks, sampled every few milliseconds while the run is in flight. The
//! sampler also records how many registry shards are occupied at each tick —
//! the scan width after shard-skip.
//!
//! Every runner's repeats collapse into one [`DataPoint`] in one averaging
//! step.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wfe_sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wfe_reclaim::{BlockCacheConfig, HandlePool, He, Reclaimer, ReclaimerConfig, SmrStats};

use crate::params::BenchParams;
use crate::workload::{MapOp, MapWorkload, OpGenerator};
use wfe_ds::{ConcurrentMap, ConcurrentQueue, MapServiceStats, MichaelHashMap};

/// How often the sampler reads the unreclaimed-object counter.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(5);

/// Operations one pooled "task" performs between check-out and check-in of
/// its handle (the task-churn grain of the `kv-pool` figure).
pub const POOL_TASK_OPS: usize = 64;

/// Seed of a point's first repeat; repeat `n` runs on `SEED + n`.
const SEED: u64 = 0xC0FFEE;

/// Warm-up time before the measured window: a fraction of the run duration,
/// capped so short smoke runs stay short.
fn warmup_duration(params: &BenchParams) -> Duration {
    (params.duration / 5)
        .min(Duration::from_millis(200))
        .max(Duration::from_millis(20))
}

/// One-time process warm-up: a throwaway write-dominated hash-map run on
/// every core (up to 8), so the first measured configuration is not
/// penalised by CPU frequency ramp-up and cold allocator arenas (with short
/// run durations that penalty is large enough to distort the first series of
/// a sweep).
fn process_warm_up() {
    static WARM: std::sync::Once = std::sync::Once::new();
    WARM.call_once(|| {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let params = BenchParams {
            duration: Duration::from_millis(600),
            ..BenchParams::default()
        };
        let workload = MapWorkload::WriteDominated;
        map_run::<He, MichaelHashMap<u64, He>>(workload, cores.min(8), &params, SEED);
    });
}

/// One measured point of a figure.
#[derive(Debug, Clone)]
pub struct DataPoint {
    /// Scheme name as used in the paper's legends.
    pub scheme: &'static str,
    /// Data-structure name.
    pub structure: &'static str,
    /// Workload label (`write50`, `read90`, `queue50`, `pool-churn`, ...).
    pub workload: &'static str,
    /// Number of worker threads.
    pub threads: usize,
    /// Millions of completed operations per second.
    pub mops: f64,
    /// Time-averaged number of retired-but-unreclaimed blocks.
    pub avg_unreclaimed: f64,
    /// Orphaned batches adopted from exited threads (end-of-run total,
    /// averaged over repeats).
    pub adopted_batches: f64,
    /// Blocks freed by scanning adopted batches (end-of-run total, averaged
    /// over repeats) — the observable for the bounded-unreclaimed claim when
    /// threads come and go.
    pub freed_via_adoption: f64,
    /// Number of shards the domain's slot registry was split into.
    pub shards: usize,
    /// Time-averaged number of *occupied* shards (the scan width after
    /// shard-skip; `shards - avg_occupied_shards` shards were skipped by an
    /// average cleanup pass).
    pub avg_occupied_shards: f64,
    /// Fraction of handle check-outs served from the pool (`kv-pool` figure
    /// only; 0 for per-thread runners, which never touch a pool).
    pub pool_hit_rate: f64,
    /// Allocations served from a handle's magazine without a refill
    /// (end-of-run total, averaged over repeats; 0 when the cache is
    /// disabled).
    pub cache_hits: f64,
    /// Cacheable allocations that refilled a magazine from the process-wide
    /// pool (end-of-run total, averaged over repeats).
    pub cache_misses: f64,
    /// Bytes parked in the handles' magazines as each last reported when the
    /// run ended (averaged over repeats; 0 once every handle has dropped and
    /// drained).
    pub cached_bytes: f64,
    /// End-of-run elements-per-bucket ratio of a resizable map
    /// (`kv-service` figure; 0 for fixed-capacity structures).
    pub load_factor: f64,
    /// Bucket-array doublings the resizable map performed during the run
    /// (end-of-run total, averaged over repeats; 0 elsewhere).
    pub resizes: f64,
    /// Buckets whose cached dummy pointers were carried into a new directory
    /// by those resizes (end-of-run total, averaged over repeats).
    pub migrated_buckets: f64,
}

impl DataPoint {
    /// CSV header matching [`DataPoint::to_csv_row`].
    pub const CSV_HEADER: &'static str =
        "structure,workload,scheme,threads,mops,avg_unreclaimed,adopted_batches,\
         freed_via_adoption,shards,avg_occupied_shards,pool_hit_rate,\
         cache_hits,cache_misses,cached_bytes,load_factor,resizes,migrated_buckets";

    /// Renders the point as one CSV row.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:.4},{:.1},{:.1},{:.1},{},{:.2},{:.3},{:.1},{:.1},{:.0},{:.3},{:.1},\
             {:.1}",
            self.structure,
            self.workload,
            self.scheme,
            self.threads,
            self.mops,
            self.avg_unreclaimed,
            self.adopted_batches,
            self.freed_via_adoption,
            self.shards,
            self.avg_occupied_shards,
            self.pool_hit_rate,
            self.cache_hits,
            self.cache_misses,
            self.cached_bytes,
            self.load_factor,
            self.resizes,
            self.migrated_buckets
        )
    }
}

/// What one measured run of one point produced.
struct Run {
    ops: u64,
    elapsed: Duration,
    /// Time-averaged unreclaimed blocks and occupied shards.
    gauges: (f64, f64),
    shards: usize,
    /// End-of-run domain counters.
    stats: SmrStats,
    /// `kv-pool` runs only; 0 elsewhere.
    pool_hit_rate: f64,
    /// End-of-run resizable-map stats (zeros for fixed-capacity structures,
    /// which keep the trait's default impl).
    service: MapServiceStats,
}

impl Run {
    /// A run of `ops` operations in `elapsed`, with the domain's end-of-run
    /// counters; the caller adds what its structure or pool reports.
    fn new<R: Reclaimer>(domain: &R, ops: u64, elapsed: Duration, gauges: (f64, f64)) -> Self {
        Self {
            ops,
            elapsed,
            gauges,
            shards: domain.registry().shard_count(),
            stats: domain.stats(),
            pool_hit_rate: 0.0,
            service: MapServiceStats::default(),
        }
    }
}

fn domain_config(threads: usize, required_slots: usize, params: &BenchParams) -> ReclaimerConfig {
    let mut block_cache = BlockCacheConfig::default();
    if let Some(enabled) = params.block_cache {
        block_cache.enabled = enabled;
    }
    ReclaimerConfig {
        max_threads: threads,
        slots_per_thread: required_slots.max(2),
        era_freq: params.era_freq,
        cleanup_freq: params.cleanup_freq,
        fast_path_attempts: params.fast_path_attempts,
        shards: params.shards,
        block_cache,
    }
}

/// Samples the domain's gauges every [`SAMPLE_INTERVAL`] while `running()`
/// holds and returns their time-averages: (unreclaimed blocks, occupied
/// shards).
fn sample_gauges<R: Reclaimer>(domain: &R, mut running: impl FnMut() -> bool) -> (f64, f64) {
    let (mut unreclaimed, mut occupied, mut samples) = (0.0, 0.0, 0u32);
    while running() {
        std::thread::sleep(SAMPLE_INTERVAL);
        unreclaimed += domain.stats().unreclaimed as f64;
        occupied += domain.registry().occupied_shards() as f64;
        samples += 1;
    }
    let samples = f64::from(samples.max(1));
    (unreclaimed / samples, occupied / samples)
}

/// The closed-loop driver: runs `threads` workers against `domain` for one
/// warm-up plus one measured window and returns what they completed in the
/// window.
///
/// `worker(thread)` is called on each worker thread before the start
/// barrier (register handles and seed generators there) and returns the
/// step the thread repeats until the window closes; a step reports how many
/// operations it completed. Operations completed before the window opens
/// are discarded.
fn measure<R, W, S>(domain: &R, threads: usize, params: &BenchParams, worker: W) -> Run
where
    R: Reclaimer,
    W: Fn(usize) -> S + Sync,
    S: FnMut() -> u64,
{
    let stop = AtomicBool::new(false);
    let measuring = AtomicBool::new(false);
    let total_ops = AtomicU64::new(0);
    let barrier = Barrier::new(threads + 1);
    let (elapsed, gauges) = std::thread::scope(|scope| {
        for thread in 0..threads {
            let (worker, stop, measuring) = (&worker, &stop, &measuring);
            let (total_ops, barrier) = (&total_ops, &barrier);
            scope.spawn(move || {
                let mut step = worker(thread);
                barrier.wait();
                let mut ops = 0u64;
                // ORDER: benchmark control flag; no data is ordered by it.
                while !stop.load(Ordering::Relaxed) {
                    // ORDER: benchmark control flag; no data is ordered by it.
                    if !measuring.load(Ordering::Relaxed) {
                        ops = 0;
                    }
                    ops += step();
                }
                total_ops.fetch_add(ops, Ordering::Relaxed); // ORDER: throughput counter, aggregated after the threads join.
            });
        }
        barrier.wait();
        // Warm-up: let the workers fault in the working set and ramp the CPU
        // before the measured window opens (the first scheme measured in a
        // process would otherwise be penalised).
        std::thread::sleep(warmup_duration(params));
        measuring.store(true, Ordering::SeqCst);
        let start = Instant::now();
        let gauges = sample_gauges(domain, || start.elapsed() < params.duration);
        stop.store(true, Ordering::Relaxed); // ORDER: benchmark control flag; no data is ordered by it.
        (start.elapsed(), gauges)
    });
    Run::new(domain, total_ops.into_inner(), elapsed, gauges)
}

/// Runs `run` once per repeat (seeded `SEED + repeat`) and averages the runs
/// into one data point.
fn average(
    scheme: &'static str,
    structure: &'static str,
    workload: &'static str,
    threads: usize,
    params: &BenchParams,
    run: impl FnMut(u64) -> Run,
) -> DataPoint {
    process_warm_up();
    let runs: Vec<Run> = (SEED..SEED + params.repeats.max(1) as u64)
        .map(run)
        .collect();
    let mean = |field: fn(&Run) -> f64| runs.iter().map(field).sum::<f64>() / runs.len() as f64;
    DataPoint {
        scheme,
        structure,
        workload,
        threads,
        mops: mean(|r| r.ops as f64 / r.elapsed.as_secs_f64() / 1e6),
        avg_unreclaimed: mean(|r| r.gauges.0),
        adopted_batches: mean(|r| r.stats.adopted_batches as f64),
        freed_via_adoption: mean(|r| r.stats.freed_via_adoption as f64),
        shards: runs.last().map_or(0, |r| r.shards),
        avg_occupied_shards: mean(|r| r.gauges.1),
        pool_hit_rate: mean(|r| r.pool_hit_rate),
        cache_hits: mean(|r| r.stats.cache_hits as f64),
        cache_misses: mean(|r| r.stats.cache_misses as f64),
        cached_bytes: mean(|r| r.stats.cached_bytes as f64),
        load_factor: mean(|r| r.service.load_factor),
        resizes: mean(|r| r.service.resizes as f64),
        migrated_buckets: mean(|r| r.service.migrated_buckets as f64),
    }
}

/// Registers a handle and calls `put` with fresh uniform keys until it has
/// succeeded `count` times (the prefill before the measured window).
fn prefill<R: Reclaimer>(
    domain: &Arc<R>,
    count: usize,
    params: &BenchParams,
    seed: u64,
    mut put: impl FnMut(&mut R::Handle, u64) -> bool,
) {
    let mut handle = domain.register();
    let mut keys = OpGenerator::new(
        MapWorkload::WriteDominated,
        params.key_range,
        seed,
        usize::MAX >> 1,
    );
    let mut done = 0;
    while done < count {
        done += usize::from(put(&mut handle, keys.next_key()));
    }
}

/// Builds a domain sized for `threads` handles and a map on it, prefilled
/// unless the workload builds its own live set.
fn map_on<R, M>(
    threads: usize,
    workload: MapWorkload,
    params: &BenchParams,
    seed: u64,
) -> (Arc<R>, M)
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    let domain = R::with_config(domain_config(threads, M::required_slots(), params));
    let map = M::with_domain(Arc::clone(&domain));
    if workload.prefills() {
        let count = params.prefill.min(params.key_range as usize);
        prefill(&domain, count, params, seed, |h, key| map.insert(h, key, 0));
    }
    (domain, map)
}

/// Applies the generator's next operation to `map`.
#[inline]
fn apply_map_op<R, M>(map: &M, handle: &mut R::Handle, generator: &mut OpGenerator)
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    match generator.next_op() {
        MapOp::Insert(key) => {
            map.insert(handle, key, key);
        }
        MapOp::Remove(key) => {
            map.remove(handle, key);
        }
        MapOp::Get(key) => {
            map.get(handle, key);
        }
    }
}

/// One run of a map workload, one registered handle per worker.
fn map_run<R, M>(workload: MapWorkload, threads: usize, params: &BenchParams, seed: u64) -> Run
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    let (domain, map) = map_on::<R, M>(threads, workload, params, seed);
    let run = measure(&*domain, threads, params, |thread| {
        let (map, mut handle) = (&map, domain.register());
        let mut generator = OpGenerator::new(workload, params.key_range, seed, thread);
        move || {
            apply_map_op(map, &mut handle, &mut generator);
            1
        }
    });
    Run {
        service: map.service_stats(),
        ..run
    }
}

/// Measures one map data point (averaged over `params.repeats` runs): any
/// [`MapWorkload`] on any map, one registered handle per worker thread.
pub fn run_map<R, M>(
    scheme: &'static str,
    structure: &'static str,
    workload: MapWorkload,
    threads: usize,
    params: &BenchParams,
) -> DataPoint
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    average(
        scheme,
        structure,
        workload.label(),
        threads,
        params,
        |seed| map_run::<R, M>(workload, threads, params, seed),
    )
}

/// Measures one pooled-handle map data point (the `kv-pool` figure; averaged
/// over `params.repeats` runs): each worker step checks a handle out of the
/// shared [`HandlePool`], performs [`POOL_TASK_OPS`] operations and checks
/// it back in.
pub fn run_pooled_map<R, M>(
    scheme: &'static str,
    structure: &'static str,
    workload: MapWorkload,
    threads: usize,
    params: &BenchParams,
) -> DataPoint
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    average(scheme, structure, "pool-churn", threads, params, |seed| {
        let (domain, map) = map_on::<R, M>(threads, workload, params, seed);
        let pool = HandlePool::new(Arc::clone(&domain));
        let run = measure(&*domain, threads, params, |thread| {
            let (map, pool) = (&map, &pool);
            let mut generator = OpGenerator::new(workload, params.key_range, seed, thread);
            move || {
                // One "task": check out, work, check in.
                let mut handle = loop {
                    match pool.check_out() {
                        Some(handle) => break handle,
                        None => std::thread::yield_now(),
                    }
                };
                for _ in 0..POOL_TASK_OPS {
                    apply_map_op(map, &mut handle, &mut generator);
                }
                POOL_TASK_OPS as u64
            }
        });
        Run {
            pool_hit_rate: pool.stats().hit_rate(),
            service: map.service_stats(),
            ..run
        }
    })
}

/// Measures one queue data point (50% enqueue / 50% dequeue; averaged over
/// `params.repeats` runs).
pub fn run_queue<R, Q>(
    scheme: &'static str,
    structure: &'static str,
    threads: usize,
    params: &BenchParams,
) -> DataPoint
where
    R: Reclaimer,
    Q: ConcurrentQueue<R>,
{
    average(scheme, structure, "queue50", threads, params, |seed| {
        let domain = R::with_config(domain_config(threads, Q::required_slots(), params));
        let queue = Q::with_domain(Arc::clone(&domain));
        prefill(&domain, params.prefill, params, seed, |h, value| {
            queue.enqueue(h, value);
            true
        });
        measure(&*domain, threads, params, |thread| {
            let (queue, mut handle) = (&queue, domain.register());
            let workload = MapWorkload::WriteDominated;
            let mut generator = OpGenerator::new(workload, params.key_range, seed, thread);
            move || {
                if generator.next_bool() {
                    queue.enqueue(&mut handle, generator.next_key());
                } else {
                    queue.dequeue(&mut handle);
                }
                1
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfe_core::Wfe;
    use wfe_ds::{MichaelScottQueue, ResizableHashMap};

    #[test]
    fn map_runner_produces_sane_numbers() {
        let params = BenchParams::smoke();
        let point = run_map::<Wfe, MichaelHashMap<u64, Wfe>>(
            "WFE",
            "hashmap",
            MapWorkload::WriteDominated,
            2,
            &params,
        );
        assert_eq!(point.threads, 2);
        assert!(point.mops > 0.0, "some operations completed");
        assert!(point.avg_unreclaimed >= 0.0);
        assert!(point.shards >= 1);
        assert!(point.avg_occupied_shards <= point.shards as f64);
        assert_eq!(point.pool_hit_rate, 0.0, "no pool in the per-thread runner");
        assert!(point.to_csv_row().starts_with("hashmap,write50,WFE,2,"));
    }

    #[test]
    fn kv_service_runner_reports_resize_stats() {
        let params = BenchParams::smoke();
        let point = run_map::<Wfe, ResizableHashMap<u64, Wfe>>(
            "WFE",
            "resizable",
            MapWorkload::ResizeStorm,
            2,
            &params,
        );
        assert_eq!(point.workload, "kv-resize-storm");
        assert!(point.mops > 0.0, "some operations completed");
        assert!(
            point.resizes > 0.0,
            "a storm of fresh keys must double the directory (resizes {})",
            point.resizes
        );
        assert!(point.migrated_buckets > 0.0);
        assert!(point.load_factor > 0.0);
        let row = point.to_csv_row();
        assert_eq!(
            row.matches(',').count(),
            DataPoint::CSV_HEADER.matches(',').count(),
            "row column count matches the header: {row}"
        );
    }

    #[test]
    fn fixed_capacity_runner_reports_zero_service_stats() {
        let params = BenchParams::smoke();
        let point = run_map::<He, MichaelHashMap<u64, He>>(
            "HE",
            "hashmap",
            MapWorkload::WriteDominated,
            1,
            &params,
        );
        assert_eq!(point.load_factor, 0.0);
        assert_eq!(point.resizes, 0.0);
        assert_eq!(point.migrated_buckets, 0.0);
    }

    #[test]
    fn queue_runner_produces_sane_numbers() {
        let params = BenchParams::smoke();
        let point = run_queue::<He, MichaelScottQueue<u64, He>>("HE", "msqueue", 2, &params);
        assert!(point.mops > 0.0);
        assert_eq!(point.workload, "queue50");
    }

    #[test]
    fn churn_runner_reports_cache_counters() {
        let mut params = BenchParams::smoke();
        params.block_cache = Some(true);
        params.shards = 2;
        let point = run_map::<Wfe, MichaelHashMap<u64, Wfe>>(
            "WFE",
            "hashmap",
            MapWorkload::WriteDominated,
            2,
            &params,
        );
        assert!(point.mops > 0.0);
        assert!(
            point.cache_hits + point.cache_misses > 0.0,
            "churn produces cacheable allocation traffic"
        );
        let row = point.to_csv_row();
        assert_eq!(
            row.matches(',').count(),
            DataPoint::CSV_HEADER.matches(',').count(),
            "row column count matches the header: {row}"
        );
    }

    #[test]
    fn pooled_runner_reports_hit_rate_and_occupancy() {
        let params = BenchParams::smoke();
        let point = run_pooled_map::<He, MichaelHashMap<u64, He>>(
            "HE",
            "hashmap",
            MapWorkload::WriteDominated,
            2,
            &params,
        );
        assert_eq!(point.workload, "pool-churn");
        assert!(point.mops > 0.0, "tasks completed through the pool");
        assert!(
            point.pool_hit_rate > 0.5,
            "steady-state churn is served from the pool (hit rate {})",
            point.pool_hit_rate
        );
        assert!(point.avg_occupied_shards >= 0.0);
        let row = point.to_csv_row();
        assert!(row.starts_with("hashmap,pool-churn,HE,2,"), "row: {row}");
    }
}
