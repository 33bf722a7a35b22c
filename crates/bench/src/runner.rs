//! The closed-loop driver every figure is measured with.
//!
//! One data point = one (scheme, structure, workload, thread-count)
//! combination, measured for `BenchParams::duration` and repeated
//! `BenchParams::repeats` times. `measure` is the whole harness: it
//! starts one worker thread per requested thread, lets them run a warm-up,
//! opens the measured window, samples the unreclaimed count until the
//! window closes, stops the workers and sums their completed operations.
//! What a worker does is a closure the caller hands in — one map operation
//! ([`run_map`]: the paper's Figures 6-11 and the ablations) or one queue
//! operation ([`run_queue`]: Figure 5 and `queue-baseline`).
//!
//! Throughput is the total number of completed operations divided by the
//! measured window (reported in Mops/s, as in the paper); the reclamation
//! metric is the time-average of the number of retired-but-not-yet-freed
//! blocks, sampled every few milliseconds while the run is in flight.
//!
//! Every runner's repeats collapse into one [`DataPoint`] in one averaging
//! step.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wfe_sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wfe_reclaim::{DomainConfig, He, Reclaimer, SmrStats};

use crate::params::BenchParams;
use crate::workload::{MapOp, MapWorkload, OpGenerator};
use wfe_ds::{ConcurrentMap, ConcurrentQueue, MichaelHashMap};

/// How often the sampler reads the unreclaimed-object counter.
const SAMPLE_INTERVAL: Duration = Duration::from_millis(5);

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
    /// Workload label (`write50`, `read90` or `queue50`).
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
}

impl DataPoint {
    /// CSV header matching [`DataPoint::to_csv_row`].
    pub const CSV_HEADER: &'static str =
        "structure,workload,scheme,threads,mops,avg_unreclaimed,adopted_batches,\
         freed_via_adoption";

    /// Renders the point as one CSV row.
    pub fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{:.4},{:.1},{:.1},{:.1}",
            self.structure,
            self.workload,
            self.scheme,
            self.threads,
            self.mops,
            self.avg_unreclaimed,
            self.adopted_batches,
            self.freed_via_adoption
        )
    }
}

/// What one measured run of one point produced.
struct Run {
    ops: u64,
    elapsed: Duration,
    /// Time-averaged unreclaimed blocks.
    avg_unreclaimed: f64,
    /// End-of-run domain counters.
    stats: SmrStats,
}

fn domain_config(threads: usize, required_slots: usize, params: &BenchParams) -> DomainConfig {
    DomainConfig {
        max_threads: threads,
        slots_per_thread: required_slots.max(2),
        era_freq: params.era_freq,
        cleanup_freq: params.cleanup_freq,
        fast_path_attempts: params.fast_path_attempts,
        ..DomainConfig::default()
    }
}

/// Samples the domain's unreclaimed count every [`SAMPLE_INTERVAL`] while
/// `running()` holds and returns its time-average.
fn sample_unreclaimed<R: Reclaimer>(domain: &R, mut running: impl FnMut() -> bool) -> f64 {
    let (mut unreclaimed, mut samples) = (0.0, 0u32);
    while running() {
        std::thread::sleep(SAMPLE_INTERVAL);
        unreclaimed += domain.stats().unreclaimed as f64;
        samples += 1;
    }
    unreclaimed / f64::from(samples.max(1))
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
    let (elapsed, avg_unreclaimed) = std::thread::scope(|scope| {
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
        let avg_unreclaimed = sample_unreclaimed(domain, || start.elapsed() < params.duration);
        stop.store(true, Ordering::Relaxed); // ORDER: benchmark control flag; no data is ordered by it.
        (start.elapsed(), avg_unreclaimed)
    });
    Run {
        ops: total_ops.into_inner(),
        elapsed,
        avg_unreclaimed,
        stats: domain.stats(),
    }
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
        avg_unreclaimed: mean(|r| r.avg_unreclaimed),
        adopted_batches: mean(|r| r.stats.adopted_batches as f64),
        freed_via_adoption: mean(|r| r.stats.freed_via_adoption as f64),
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

/// One run of a map workload, one registered handle per worker.
fn map_run<R, M>(workload: MapWorkload, threads: usize, params: &BenchParams, seed: u64) -> Run
where
    R: Reclaimer,
    M: ConcurrentMap<R>,
{
    let domain = R::with_config(domain_config(threads, M::required_slots(), params));
    let map = M::with_domain(Arc::clone(&domain));
    let count = params.prefill.min(params.key_range as usize);
    prefill(&domain, count, params, seed, |h, key| map.insert(h, key, 0));
    measure(&*domain, threads, params, |thread| {
        let (map, mut handle) = (&map, domain.register());
        let mut generator = OpGenerator::new(workload, params.key_range, seed, thread);
        move || {
            match generator.next_op() {
                MapOp::Insert(key) => {
                    map.insert(&mut handle, key, key);
                }
                MapOp::Remove(key) => {
                    map.remove(&mut handle, key);
                }
                MapOp::Get(key) => {
                    map.get(&mut handle, key);
                }
            }
            1
        }
    })
}

/// Measures one map data point (averaged over `params.repeats` runs): either
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
    use wfe_ds::MichaelScottQueue;
    use wfe_reclaim::{Handle, Wfe};

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
        let row = point.to_csv_row();
        assert!(row.starts_with("hashmap,write50,WFE,2,"), "row: {row}");
        assert_eq!(
            row.matches(',').count(),
            DataPoint::CSV_HEADER.matches(',').count(),
            "row column count matches the header: {row}"
        );
    }

    #[test]
    fn csv_row_renders_every_column_in_header_order() {
        let point = DataPoint {
            scheme: "HP",
            structure: "bst",
            workload: "read90",
            threads: 3,
            mops: 1.23456,
            avg_unreclaimed: 7.26,
            adopted_batches: 2.0,
            freed_via_adoption: 5.5,
        };
        assert_eq!(DataPoint::CSV_HEADER.split(',').count(), 8);
        assert!(DataPoint::CSV_HEADER.starts_with("structure,workload,scheme,threads,mops,"));
        assert_eq!(point.to_csv_row(), "bst,read90,HP,3,1.2346,7.3,2.0,5.5");
    }

    #[test]
    fn warmup_is_a_fifth_of_the_window_within_its_bounds() {
        let warmup = |ms| {
            warmup_duration(&BenchParams {
                duration: Duration::from_millis(ms),
                ..BenchParams::smoke()
            })
        };
        assert_eq!(warmup(50), Duration::from_millis(20), "floor");
        assert_eq!(warmup(500), Duration::from_millis(100), "a fifth");
        assert_eq!(warmup(10_000), Duration::from_millis(200), "cap");
    }

    #[test]
    fn domain_config_carries_the_params_and_at_least_two_slots() {
        let params = BenchParams {
            era_freq: 11,
            cleanup_freq: 13,
            fast_path_attempts: 3,
            ..BenchParams::smoke()
        };
        let config = domain_config(5, 1, &params);
        assert_eq!(config.max_threads, 5);
        assert_eq!(config.slots_per_thread, 2, "padded up to two");
        assert_eq!(config.era_freq, 11);
        assert_eq!(config.cleanup_freq, 13);
        assert_eq!(config.fast_path_attempts, 3);
        assert_eq!(domain_config(5, 4, &params).slots_per_thread, 4);
    }

    #[test]
    fn gauges_average_their_samples_and_an_empty_window_reads_zero() {
        let domain = He::with_config(domain_config(2, 2, &BenchParams::smoke()));
        let mut handle = domain.register();
        let mut ticks = 3;
        let unreclaimed = sample_unreclaimed(&*domain, || {
            if ticks == 2 {
                // Retired with a pass far off: one block stays unreclaimed
                // for the last two of three samples.
                let node = handle.alloc(0u64);
                // SAFETY: never published, retired exactly once.
                unsafe { handle.retire(node) };
            }
            ticks -= 1;
            ticks >= 0
        });
        assert_eq!(unreclaimed, 2.0 / 3.0, "the mean of 0, 1 and 1");
        assert_eq!(sample_unreclaimed(&*domain, || false), 0.0, "no NaN");
    }

    #[test]
    fn prefill_stops_after_count_successful_puts() {
        let domain = He::with_config(domain_config(1, 2, &BenchParams::smoke()));
        let params = BenchParams {
            key_range: 50,
            ..BenchParams::smoke()
        };
        let mut seen = std::collections::HashSet::new();
        prefill(&domain, 40, &params, SEED, |_, key| {
            assert!(key < 50, "key {key} out of range");
            seen.insert(key)
        });
        assert_eq!(seen.len(), 40, "duplicates are retried, not counted");
    }

    #[test]
    fn repeats_run_on_consecutive_seeds_and_average_into_one_point() {
        let params = BenchParams {
            repeats: 3,
            ..BenchParams::smoke()
        };
        let mut seeds = Vec::new();
        let point = average("WFE", "list", "write50", 2, &params, |seed| {
            seeds.push(seed);
            let n = (seed - SEED) as f64;
            Run {
                ops: 1_000_000 * (seed - SEED + 1),
                elapsed: Duration::from_secs(1),
                avg_unreclaimed: 10.0 * n,
                stats: SmrStats {
                    adopted_batches: seed - SEED,
                    freed_via_adoption: 3,
                    ..SmrStats::default()
                },
            }
        });
        assert_eq!(seeds, [SEED, SEED + 1, SEED + 2]);
        assert_eq!(point.mops, 2.0);
        assert_eq!(point.avg_unreclaimed, 10.0);
        assert_eq!(point.adopted_batches, 1.0);
        assert_eq!(point.freed_via_adoption, 3.0);
        assert_eq!(
            (point.scheme, point.structure, point.workload),
            ("WFE", "list", "write50")
        );
    }

    #[test]
    fn queue_runner_produces_sane_numbers() {
        let params = BenchParams::smoke();
        let point = run_queue::<He, MichaelScottQueue<u64, He>>("HE", "msqueue", 2, &params);
        assert!(point.mops > 0.0);
        assert_eq!(point.workload, "queue50");
    }
}
