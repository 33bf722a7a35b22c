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
//! A figure is a sweep: [`Figure::run`] walks its thread counts and schemes
//! and measures one row per combination with the closed-loop driver of
//! [`crate::runner`]. Every row carries *both*
//! metrics, so the throughput figure and its companion unreclaimed-objects
//! figure come from the same rows (exactly as in the paper, where each
//! experiment produces both plots). The scheme of a row becomes a type in
//! exactly one place, `Case::run`; everything below it is generic over the
//! [`Reclaimer`].
//!
//! Beyond the paper: two WFE ablations on the hash map (`ablation-slowpath`
//! forces the slow path, `ablation-attempts` sweeps the fast-path attempt
//! budget) and a Michael-Scott lock-free queue baseline (`queue-baseline`).
//! Pooled handles, the block cache and the resizable map are measured by the
//! repository benchmark (`benchmark/`), not here.

use wfe_ds::{
    CrTurnQueue, KoganPetrankQueue, MichaelHashMap, MichaelList, MichaelScottQueue, NatarajanBst,
};
use wfe_reclaim::Wfe;
use wfe_reclaim::{Ebr, He, Hp, Ibr2Ge, Leak, Reclaimer};

use crate::params::BenchParams;
use crate::runner::{run_map, run_queue, DataPoint};
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
}

impl MapKind {
    fn name(self) -> &'static str {
        match self {
            MapKind::List => "list",
            MapKind::HashMap => "hashmap",
            MapKind::Bst => "bst",
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
    /// A queue, 50% enqueue / 50% dequeue.
    Queue(QueueKind),
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
                };
                run(scheme, map.name(), workload, threads, params)
            }
            Case::Queue(queue) => {
                let run = match queue {
                    QueueKind::KoganPetrank => run_queue::<R, KoganPetrankQueue<u64, R>>,
                    QueueKind::CrTurn => run_queue::<R, CrTurnQueue<u64, R>>,
                    QueueKind::MsQueue => run_queue::<R, MichaelScottQueue<u64, R>>,
                };
                run(scheme, queue.name(), threads, params)
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
}

impl Figure {
    /// Every figure, in paper order, followed by the ablations and the
    /// extra baselines.
    pub const ALL: [Figure; 11] = [
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
    fn figure_names_are_distinct_lowercase_and_described() {
        let mut names: Vec<_> = Figure::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Figure::ALL.len());
        for figure in Figure::ALL {
            assert_eq!(figure.name(), figure.name().to_ascii_lowercase());
            assert_eq!(
                Figure::parse(&figure.name().to_ascii_uppercase()),
                Some(figure)
            );
            assert!(!figure.description().is_empty(), "{figure:?}");
        }
        assert_eq!(Figure::parse("fig5b"), Some(Figure::Fig5ab));
        assert_eq!(Figure::parse("fig5c"), Some(Figure::Fig5cd));
    }

    #[test]
    fn map_figures_run_their_structure_and_workload() {
        let params = BenchParams {
            threads: vec![1],
            ..BenchParams::smoke()
        };
        let expected = [
            (Figure::Fig6, "list", "write50"),
            (Figure::Fig7, "hashmap", "write50"),
            (Figure::Fig8, "bst", "write50"),
            (Figure::Fig9, "list", "read90"),
            (Figure::Fig10, "hashmap", "read90"),
            (Figure::Fig11, "bst", "read90"),
        ];
        for (figure, structure, workload) in expected {
            let points = figure.run(&params, &[Scheme::Leak]);
            assert_eq!(points.len(), 1, "{figure:?}");
            let point = &points[0];
            assert_eq!((point.structure, point.workload), (structure, workload));
            assert_eq!((point.scheme, point.threads), ("Leak", 1));
        }
    }

    #[test]
    fn sweep_rows_go_by_thread_count_then_scheme() {
        let params = BenchParams::smoke();
        let schemes = [Scheme::Ebr, Scheme::Ibr];
        let points = Figure::Fig6.run(&params, &schemes);
        let order: Vec<_> = points.iter().map(|p| (p.threads, p.scheme)).collect();
        assert_eq!(
            order,
            [(1, "EBR"), (1, "2GEIBR"), (2, "EBR"), (2, "2GEIBR")]
        );
    }

    #[test]
    fn ablation_slowpath_pits_forced_slow_against_the_default() {
        let params = BenchParams {
            threads: vec![2],
            ..BenchParams::smoke()
        };
        // The ablations always run WFE, whatever schemes are asked for.
        let points = Figure::AblationSlowPath.run(&params, &[Scheme::Leak]);
        let labels: Vec<_> = points.iter().map(|p| p.scheme).collect();
        assert_eq!(labels, ["WFE", "WFE-forced-slow"]);
        assert!(points
            .iter()
            .all(|p| p.structure == "hashmap" && p.workload == "write50" && p.mops > 0.0));
    }

    #[test]
    fn ablation_attempts_sweeps_four_budgets_per_thread_count() {
        let params = BenchParams::smoke();
        let points = Figure::AblationAttempts.run(&params, &[]);
        assert_eq!(points.len(), 4 * params.threads.len());
        let labels: Vec<_> = points.iter().take(4).map(|p| p.scheme).collect();
        assert_eq!(
            labels,
            [
                "WFE-attempts-1",
                "WFE-attempts-4",
                "WFE-attempts-16",
                "WFE-attempts-64"
            ]
        );
        assert!(points.iter().all(|p| p.structure == "hashmap"));
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
}
