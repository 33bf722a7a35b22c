//! One entry per figure of the paper's evaluation.
//!
//! | Figure | Structure | Workload | Metric(s) |
//! |--------|-----------|----------|-----------|
//! | 5a/5b  | Kogan-Petrank queue | 50% enq / 50% deq | Mops/s, unreclaimed |
//! | 5c/5d  | CRTurn queue | 50/50 | Mops/s, unreclaimed |
//! | 6      | Harris-Michael list | 50% insert / 50% delete | both |
//! | 7      | Michael hash map | 50/50 | both |
//! | 8      | Natarajan-Mittal BST | 50/50 | both |
//! | 9      | Harris-Michael list | 90% get / 10% put | both |
//! | 10     | Michael hash map | 90/10 | both |
//! | 11     | Natarajan-Mittal BST | 90/10 | both |
//!
//! A figure is a sweep: [`Figure::run`] walks its thread counts (or task
//! counts) and schemes and measures one row per combination with the
//! closed-loop driver of [`crate::runner`]. Every row carries *both*
//! metrics, so the throughput figure and its companion unreclaimed-objects
//! figure come from the same rows (exactly as in the paper, where each
//! experiment produces both plots). The scheme of a row becomes a type in
//! exactly one place, `Case::run`; everything below it is generic over the
//! [`Reclaimer`].
//!
//! Beyond the paper: two WFE ablations on the hash map (`ablation-slowpath`
//! forces the slow path, `ablation-attempts` sweeps the fast-path attempt
//! budget); a Michael-Scott lock-free queue baseline (`queue-baseline`);
//! the hash map through a `HandlePool` at task churn (`kv-pool`, rows carry
//! per-shard occupancy and the pool hit rate); the hash map driven by async
//! tasks on a `mini-rt` executor with one stalled raw-SPI reader injected
//! (`kv-async`, swept by task count — EBR's unreclaimed memory grows with
//! the task count while WFE/HE stay bounded); the hash map on a sharded
//! registry with the per-shard block cache on and off (`cross-shard-churn`,
//! rows carry the cache counters; pin one mode with `--block-cache on|off`);
//! and the split-ordered resizable map as a kv service (`kv-service`: Zipf
//! read-mostly and write-heavy, TTL expiry, resize storm; rows carry
//! `load_factor`, `resizes` and `migrated_buckets`).

use wfe_core::Wfe;
use wfe_ds::{
    CrTurnQueue, KoganPetrankQueue, MichaelHashMap, MichaelList, MichaelScottQueue, NatarajanBst,
    ResizableHashMap,
};
use wfe_reclaim::{Ebr, He, Hp, Ibr2Ge, Leak, Reclaimer};

use crate::params::BenchParams;
use crate::runner::{run_async_kv, run_map, run_pooled_map, run_queue, DataPoint};
use crate::workload::MapWorkload;

/// The reclamation schemes compared in every figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Wait-Free Eras (this paper).
    Wfe,
    /// Epoch-based reclamation.
    Ebr,
    /// Hazard Eras.
    He,
    /// Hazard Pointers.
    Hp,
    /// Interval-based reclamation (2GEIBR).
    Ibr,
    /// No reclamation.
    Leak,
}

impl Scheme {
    /// Every scheme, in the order the paper lists them.
    pub const ALL: [Scheme; 6] = [
        Scheme::Wfe,
        Scheme::Ebr,
        Scheme::He,
        Scheme::Hp,
        Scheme::Ibr,
        Scheme::Leak,
    ];

    /// Legend name used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Wfe => "WFE",
            Scheme::Ebr => "EBR",
            Scheme::He => "HE",
            Scheme::Hp => "HP",
            Scheme::Ibr => "2GEIBR",
            Scheme::Leak => "Leak",
        }
    }

    /// Parses a legend name.
    pub fn parse(name: &str) -> Option<Scheme> {
        Self::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
    }
}

/// The key-value structures of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    /// Harris-Michael sorted linked list.
    List,
    /// Michael hash map.
    HashMap,
    /// Natarajan-Mittal BST.
    Bst,
    /// Split-ordered resizable hash map (the `kv-service` figure).
    Resizable,
}

impl MapKind {
    fn name(self) -> &'static str {
        match self {
            MapKind::List => "list",
            MapKind::HashMap => "hashmap",
            MapKind::Bst => "bst",
            MapKind::Resizable => "resizable",
        }
    }
}

/// The queue structures of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// Kogan-Petrank wait-free queue (Figure 5a/5b).
    KoganPetrank,
    /// Ramalhete-Correia CRTurn wait-free queue (Figure 5c/5d).
    CrTurn,
    /// Michael-Scott lock-free queue (baseline beyond the paper).
    MsQueue,
}

impl QueueKind {
    fn name(self) -> &'static str {
        match self {
            QueueKind::KoganPetrank => "kp-queue",
            QueueKind::CrTurn => "crturn",
            QueueKind::MsQueue => "msqueue",
        }
    }
}

/// What one row of a figure measures, short of the scheme and the width.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// A map workload, one registered handle per worker thread.
    Map(MapKind, MapWorkload),
    /// The write-dominated hash map through a `HandlePool` (`kv-pool`).
    Pooled,
    /// A queue, 50% enqueue / 50% dequeue.
    Queue(QueueKind),
    /// This many async tasks on the hash map (`kv-async`).
    Async(usize),
}

impl Case {
    /// Measures this case under `scheme` with `threads` workers — the one
    /// place a scheme becomes a type.
    fn run(self, scheme: Scheme, threads: usize, params: &BenchParams) -> DataPoint {
        let name = scheme.name();
        match scheme {
            Scheme::Wfe => self.run_as::<Wfe>(name, threads, params),
            Scheme::Ebr => self.run_as::<Ebr>(name, threads, params),
            Scheme::He => self.run_as::<He>(name, threads, params),
            Scheme::Hp => self.run_as::<Hp>(name, threads, params),
            Scheme::Ibr => self.run_as::<Ibr2Ge>(name, threads, params),
            Scheme::Leak => self.run_as::<Leak>(name, threads, params),
        }
    }

    /// Measures this case under `R`, labelling the row `scheme`.
    fn run_as<R: Reclaimer>(
        self,
        scheme: &'static str,
        threads: usize,
        params: &BenchParams,
    ) -> DataPoint {
        match self {
            Case::Map(map, workload) => {
                let run = match map {
                    MapKind::List => run_map::<R, MichaelList<u64, R>>,
                    MapKind::HashMap => run_map::<R, MichaelHashMap<u64, R>>,
                    MapKind::Bst => run_map::<R, NatarajanBst<u64, R>>,
                    MapKind::Resizable => run_map::<R, ResizableHashMap<u64, R>>,
                };
                run(scheme, map.name(), workload, threads, params)
            }
            Case::Pooled => run_pooled_map::<R, MichaelHashMap<u64, R>>(
                scheme,
                MapKind::HashMap.name(),
                MapWorkload::WriteDominated,
                threads,
                params,
            ),
            Case::Queue(queue) => {
                let run = match queue {
                    QueueKind::KoganPetrank => run_queue::<R, KoganPetrankQueue<u64, R>>,
                    QueueKind::CrTurn => run_queue::<R, CrTurnQueue<u64, R>>,
                    QueueKind::MsQueue => run_queue::<R, MichaelScottQueue<u64, R>>,
                };
                run(scheme, queue.name(), threads, params)
            }
            Case::Async(tasks) => {
                let structure = MapKind::HashMap.name();
                run_async_kv::<R, MichaelHashMap<u64, R>>(scheme, structure, tasks, params)
            }
        }
    }
}

/// A figure (or ablation) of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// KP queue, 50/50 (Figure 5a throughput, 5b unreclaimed).
    Fig5ab,
    /// CRTurn queue, 50/50 (Figure 5c throughput, 5d unreclaimed).
    Fig5cd,
    /// Linked list, 50/50 (Figure 6).
    Fig6,
    /// Hash map, 50/50 (Figure 7).
    Fig7,
    /// BST, 50/50 (Figure 8).
    Fig8,
    /// Linked list, 90/10 (Figure 9).
    Fig9,
    /// Hash map, 90/10 (Figure 10).
    Fig10,
    /// BST, 90/10 (Figure 11).
    Fig11,
    /// Ablation: WFE with the slow path forced (1 fast-path attempt) vs the
    /// default 16 attempts, on the hash map.
    AblationSlowPath,
    /// Ablation: sweep of WFE fast-path attempts {1, 4, 16, 64} on the hash map.
    AblationAttempts,
    /// Beyond the paper: Michael-Scott lock-free queue, 50/50, as a baseline
    /// for the wait-free queues in the same sweep.
    QueueBaseline,
    /// Beyond the paper: Michael hash map 50/50 driven through a
    /// [`wfe_reclaim::HandlePool`] at task-churn grain (executor pattern);
    /// rows carry per-shard occupancy and the pool hit rate.
    KvPool,
    /// Beyond the paper: Michael hash map 50/50 driven by async tasks on a
    /// `mini-rt` executor through `Send`-able `wfe-task` handles, with one
    /// stalled raw-SPI reader injected for the whole run. Sweeps
    /// `BenchParams::task_counts` (not threads); rows carry the pool hit
    /// rate and the unreclaimed gauge in bytes.
    KvAsync,
    /// Beyond the paper: Michael hash map 50/50 on a sharded registry, run
    /// once with the per-shard block cache enabled and once disabled (or a
    /// single pinned mode when `BenchParams::block_cache` is `Some`) — the
    /// retire→free→alloc recycling A/B. Rows carry the cache hit/miss
    /// counters and the bytes left parked in the caches.
    CrossShardChurn,
    /// Beyond the paper: the split-ordered *resizable* hash map as a kv
    /// service — Zipfian read-mostly and write-heavy mixes, a TTL expiry
    /// sweep and a resize storm, all seed-replayable. Rows carry the map's
    /// `load_factor`, `resizes` and `migrated_buckets` columns, showing
    /// superseded bucket arrays flowing through the reclamation scheme
    /// while readers stay pinned.
    KvService,
}

impl Figure {
    /// Every figure, in paper order, followed by the ablations and the
    /// extra baselines.
    pub const ALL: [Figure; 15] = [
        Figure::Fig5ab,
        Figure::Fig5cd,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
        Figure::Fig9,
        Figure::Fig10,
        Figure::Fig11,
        Figure::AblationSlowPath,
        Figure::AblationAttempts,
        Figure::QueueBaseline,
        Figure::KvPool,
        Figure::KvAsync,
        Figure::CrossShardChurn,
        Figure::KvService,
    ];

    /// CLI name of the figure.
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig5ab => "fig5ab",
            Figure::Fig5cd => "fig5cd",
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
            Figure::Fig9 => "fig9",
            Figure::Fig10 => "fig10",
            Figure::Fig11 => "fig11",
            Figure::AblationSlowPath => "ablation-slowpath",
            Figure::AblationAttempts => "ablation-attempts",
            Figure::QueueBaseline => "queue-baseline",
            Figure::KvPool => "kv-pool",
            Figure::KvAsync => "kv-async",
            Figure::CrossShardChurn => "cross-shard-churn",
            Figure::KvService => "kv-service",
        }
    }

    /// Parses a CLI name (accepts `fig5a`..`fig5d` as aliases of the combined
    /// runs).
    pub fn parse(name: &str) -> Option<Figure> {
        let name = name.to_ascii_lowercase();
        match name.as_str() {
            "fig5a" | "fig5b" => return Some(Figure::Fig5ab),
            "fig5c" | "fig5d" => return Some(Figure::Fig5cd),
            _ => {}
        }
        Self::ALL.into_iter().find(|f| f.name() == name)
    }

    /// Human-readable description shown in the CSV preamble.
    pub fn description(self) -> &'static str {
        match self {
            Figure::Fig5ab => "Kogan-Petrank wait-free queue, 50% enqueue / 50% dequeue",
            Figure::Fig5cd => "Ramalhete-Correia CRTurn wait-free queue, 50% enqueue / 50% dequeue",
            Figure::Fig6 => "Harris-Michael linked list, 50% insert / 50% delete",
            Figure::Fig7 => "Michael hash map, 50% insert / 50% delete",
            Figure::Fig8 => "Natarajan-Mittal BST, 50% insert / 50% delete",
            Figure::Fig9 => "Harris-Michael linked list, 90% get / 10% put",
            Figure::Fig10 => "Michael hash map, 90% get / 10% put",
            Figure::Fig11 => "Natarajan-Mittal BST, 90% get / 10% put",
            Figure::AblationSlowPath => "WFE slow path forced vs default, Michael hash map 50/50",
            Figure::AblationAttempts => "WFE fast-path attempt sweep, Michael hash map 50/50",
            Figure::QueueBaseline => {
                "Michael-Scott lock-free queue baseline (beyond the paper), 50/50"
            }
            Figure::KvPool => {
                "Michael hash map 50/50 through a HandlePool at task churn (beyond the paper)"
            }
            Figure::KvAsync => {
                "Michael hash map 50/50 via async tasks and Send-able task handles, \
                 one stalled raw-SPI reader injected (beyond the paper)"
            }
            Figure::CrossShardChurn => {
                "Michael hash map 50/50 on a sharded registry, per-shard block \
                 cache on vs off (beyond the paper)"
            }
            Figure::KvService => {
                "Split-ordered resizable hash map as a kv service: Zipfian \
                 read-mostly/write-heavy, TTL expiry and resize storm \
                 (beyond the paper)"
            }
        }
    }

    /// Runs the figure for every scheme and thread count in `params`.
    pub fn run(self, params: &BenchParams, schemes: &[Scheme]) -> Vec<DataPoint> {
        // Every thread count, and under it every scheme: one row each.
        let sweep = |case: Case| -> Vec<DataPoint> {
            params
                .threads
                .iter()
                .flat_map(|&threads| {
                    schemes
                        .iter()
                        .map(move |&scheme| case.run(scheme, threads, params))
                })
                .collect()
        };
        let list = |workload| Case::Map(MapKind::List, workload);
        let hashmap = |workload| Case::Map(MapKind::HashMap, workload);
        let bst = |workload| Case::Map(MapKind::Bst, workload);
        let (write50, read90) = (MapWorkload::WriteDominated, MapWorkload::ReadMostly);
        match self {
            Figure::Fig5ab => sweep(Case::Queue(QueueKind::KoganPetrank)),
            Figure::Fig5cd => sweep(Case::Queue(QueueKind::CrTurn)),
            Figure::QueueBaseline => sweep(Case::Queue(QueueKind::MsQueue)),
            Figure::Fig6 => sweep(list(write50)),
            Figure::Fig7 => sweep(hashmap(write50)),
            Figure::Fig8 => sweep(bst(write50)),
            Figure::Fig9 => sweep(list(read90)),
            Figure::Fig10 => sweep(hashmap(read90)),
            Figure::Fig11 => sweep(bst(read90)),
            Figure::KvPool => sweep(Case::Pooled),
            Figure::KvService => MapWorkload::SERVICE
                .into_iter()
                .flat_map(|workload| sweep(Case::Map(MapKind::Resizable, workload)))
                .collect(),
            Figure::KvAsync => params
                .task_counts
                .iter()
                .flat_map(|&tasks| {
                    schemes
                        .iter()
                        .map(move |&scheme| Case::Async(tasks).run(scheme, 0, params))
                })
                .collect(),
            Figure::CrossShardChurn => {
                // Churn is only "cross-shard" when the registry actually
                // splits: resolve auto-sizing (0) to the host's parallelism
                // and force at least two shards either way. The registry
                // still clamps to `max_threads`, so single-thread points stay
                // single-shard baselines.
                let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
                let shards = if params.shards == 0 {
                    auto
                } else {
                    params.shards
                }
                .max(2);
                let modes: &[(bool, &'static str)] = match params.block_cache {
                    Some(true) => &[(true, "churn-cache-on")],
                    Some(false) => &[(false, "churn-cache-off")],
                    None => &[(true, "churn-cache-on"), (false, "churn-cache-off")],
                };
                let mut points = Vec::new();
                for &threads in &params.threads {
                    for &scheme in schemes {
                        for &(enabled, label) in modes {
                            let params = BenchParams {
                                shards,
                                block_cache: Some(enabled),
                                ..params.clone()
                            };
                            let point = hashmap(write50).run(scheme, threads, &params);
                            points.push(DataPoint {
                                workload: label,
                                ..point
                            });
                        }
                    }
                }
                points
            }
            Figure::AblationSlowPath | Figure::AblationAttempts => {
                let arms: &[(&'static str, usize)] = if self == Figure::AblationSlowPath {
                    &[("WFE", 16), ("WFE-forced-slow", 1)]
                } else {
                    &[
                        ("WFE-attempts-1", 1),
                        ("WFE-attempts-4", 4),
                        ("WFE-attempts-16", 16),
                        ("WFE-attempts-64", 64),
                    ]
                };
                params
                    .threads
                    .iter()
                    .flat_map(|&threads| {
                        arms.iter().map(move |&(label, fast_path_attempts)| {
                            let params = BenchParams {
                                fast_path_attempts,
                                ..params.clone()
                            };
                            hashmap(write50).run_as::<Wfe>(label, threads, &params)
                        })
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_names_roundtrip() {
        for figure in Figure::ALL {
            assert_eq!(Figure::parse(figure.name()), Some(figure));
        }
        assert_eq!(Figure::parse("fig5a"), Some(Figure::Fig5ab));
        assert_eq!(Figure::parse("fig5d"), Some(Figure::Fig5cd));
        assert_eq!(Figure::parse("nonsense"), None);
    }

    #[test]
    fn scheme_names_roundtrip() {
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::parse(scheme.name()), Some(scheme));
        }
        assert_eq!(Scheme::parse("wfe"), Some(Scheme::Wfe));
        assert_eq!(Scheme::parse("unknown"), None);
    }

    #[test]
    fn smoke_run_of_a_map_figure_produces_all_series() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe, Scheme::He];
        let points = Figure::Fig7.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len() * schemes.len());
        assert!(points.iter().all(|p| p.mops > 0.0));
    }

    #[test]
    fn smoke_run_of_the_queue_figure_produces_all_series() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe];
        let points = Figure::Fig5ab.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len());
        assert!(points.iter().all(|p| p.structure == "kp-queue"));
    }

    #[test]
    fn fig5cd_runs_the_real_crturn_queue() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe];
        let points = Figure::Fig5cd.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len());
        assert!(points.iter().all(|p| p.structure == "crturn"));
        assert!(points.iter().all(|p| p.mops > 0.0));
    }

    #[test]
    fn queue_baseline_keeps_msqueue_in_the_sweep() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::He];
        let points = Figure::QueueBaseline.run(&params, &schemes);
        assert!(points.iter().all(|p| p.structure == "msqueue"));
    }

    #[test]
    fn kv_async_sweeps_tasks_and_stalled_reader_pins_ebr_but_not_wfe() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe, Scheme::Ebr];
        let points = Figure::KvAsync.run(&params, &schemes);
        assert_eq!(points.len(), params.task_counts.len() * schemes.len());
        assert!(points.iter().all(|p| p.workload == "async-tasks"));
        assert!(points.iter().all(|p| p.threads == params.async_workers));
        assert!(
            points.iter().all(|p| p.pool_hit_rate > 0.999),
            "prewarmed pool serves every check-out"
        );
        for (index, &tasks) in params.task_counts.iter().enumerate() {
            let wfe = &points[index * schemes.len()];
            let ebr = &points[index * schemes.len() + 1];
            assert_eq!(wfe.tasks, tasks as u64);
            assert_eq!(ebr.tasks, tasks as u64);
            // The stalled bracket pins EBR's epoch, so everything retired
            // during the run stays unreclaimed; WFE's era reservation pins
            // only lifetime-overlapping blocks.
            assert!(
                ebr.avg_unreclaimed > wfe.avg_unreclaimed,
                "stalled reader must pin EBR harder than WFE at {tasks} tasks \
                 (EBR {:.1} vs WFE {:.1})",
                ebr.avg_unreclaimed,
                wfe.avg_unreclaimed
            );
            assert!(ebr.unreclaimed_bytes > wfe.unreclaimed_bytes);
        }
    }

    #[test]
    fn cross_shard_churn_sweeps_both_cache_modes_and_counts_cache_traffic() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe];
        let points = Figure::CrossShardChurn.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len() * 2, "on + off per point");
        assert!(points.iter().all(|p| p.mops > 0.0));
        let on: Vec<_> = points
            .iter()
            .filter(|p| p.workload == "churn-cache-on")
            .collect();
        let off: Vec<_> = points
            .iter()
            .filter(|p| p.workload == "churn-cache-off")
            .collect();
        assert_eq!(on.len(), params.threads.len());
        assert_eq!(off.len(), params.threads.len());
        assert!(
            on.iter().any(|p| p.cache_hits > 0.0),
            "cache-on churn recycles blocks through the shard cache"
        );
        assert!(
            off.iter()
                .all(|p| p.cache_hits == 0.0 && p.cached_bytes == 0.0),
            "cache-off rows must not report cache traffic"
        );
    }

    #[test]
    fn cross_shard_churn_honors_a_pinned_cache_mode() {
        let mut params = BenchParams::smoke();
        params.threads = vec![1];
        params.block_cache = Some(false);
        let points = Figure::CrossShardChurn.run(&params, &[Scheme::He]);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].workload, "churn-cache-off");
    }

    #[test]
    fn kv_service_sweeps_all_legs_and_the_storm_resizes() {
        let mut params = BenchParams::smoke();
        params.threads = vec![2];
        let schemes = [Scheme::Wfe];
        let points = Figure::KvService.run(&params, &schemes);
        assert_eq!(points.len(), MapWorkload::SERVICE.len());
        assert!(points.iter().all(|p| p.structure == "resizable"));
        assert!(points.iter().all(|p| p.mops > 0.0));
        let labels: Vec<_> = points.iter().map(|p| p.workload).collect();
        assert_eq!(
            labels,
            vec![
                "kv-zipf-read90",
                "kv-zipf-write50",
                "kv-ttl",
                "kv-resize-storm"
            ]
        );
        let storm = points
            .iter()
            .find(|p| p.workload == "kv-resize-storm")
            .unwrap();
        assert!(
            storm.resizes > 0.0 && storm.migrated_buckets > 0.0,
            "the storm leg must force directory doublings (resizes {})",
            storm.resizes
        );
    }

    #[test]
    fn kv_pool_reports_pool_and_shard_stats() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Wfe];
        let points = Figure::KvPool.run(&params, &schemes);
        assert_eq!(points.len(), params.threads.len());
        assert!(points.iter().all(|p| p.workload == "pool-churn"));
        assert!(points.iter().all(|p| p.shards >= 1));
        assert!(
            points.iter().all(|p| p.pool_hit_rate > 0.0),
            "task churn is served from the pool"
        );
    }
}
