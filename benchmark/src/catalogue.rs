//! The metric catalogue: every name the benchmark prints, with its unit and
//! which direction is better. `BENCHMARK.json` at the repository root is
//! [`manifest`] written out; `tests/schema.rs` holds the two together.

use crate::json::Json;
use crate::workload::WORKLOADS;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Amount, in the metric's unit, by which it may always get worse: the
    /// floor under `bound` for values near zero (a batch of 30 retires on 55
    /// unreclaimed blocks, microseconds on a 0.14 ms set-up). `compare`
    /// applies it; `BENCHMARK.json` has no key for it.
    pub slack: f64,
}

/// The end-to-end metrics, reported for every workload with tracing off.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.25,
        slack: 0.0,
    },
    EndToEnd {
        name: "unreclaimed_p50",
        unit: "blocks",
        better: "lower",
        bound: 0.10,
        slack: 32.0,
    },
    EndToEnd {
        name: "rss_peak_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
        slack: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        slack: 0.05,
    },
];

/// Schemes with rungs of their own, by metric prefix.
pub const SCHEMES: [&str; 5] = ["wfe", "he", "hp", "ebr", "ibr"];
/// Schemes whose reservations cover an interval, so a batch can be pinned.
pub const PINNABLE: [&str; 4] = ["wfe", "he", "ebr", "ibr"];
/// Reference legs: the workload under another scheme.
pub const REFERENCES: [&str; 5] = ["he", "leak", "ebr", "hp", "ibr"];

/// The per-layer metrics, reported by the traced run: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut all: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| all.push((name.to_string(), unit, better));

    add("sync.wcas_ok_ns", "ns", "lower");
    add("sync.wcas_contended_ns", "ns", "lower");
    add("sync.wcas_fail_ratio", "ratio", "lower");
    add("sync.pair_load_ns", "ns", "lower");
    add("sync.era_advance_ns", "ns", "lower");
    for s in SCHEMES {
        add(&format!("{s}.protect_ns"), "ns", "lower");
        add(&format!("{s}.alloc_retire_ns"), "ns", "lower");
        add(&format!("{s}.alloc_retire_nocache_ns"), "ns", "lower");
        add(&format!("{s}.cleanup_idle_ns"), "ns", "lower");
        add(
            &format!("{s}.cleanup_free_ns_per_block"),
            "ns/block",
            "lower",
        );
        add(&format!("{s}.register_ns"), "ns", "lower");
    }
    for s in PINNABLE {
        add(
            &format!("{s}.cleanup_pinned_ns_per_block"),
            "ns/block",
            "lower",
        );
    }
    add("leak.protect_ns", "ns", "lower");
    add("leak.alloc_retire_ns", "ns", "lower");
    add("wfe.protect_slow_ns", "ns", "lower");
    add("wfe.protect_pressure_ns", "ns", "lower");
    add("wfe.pressure_slow_ratio", "ratio", "lower");
    add("wfe.pressure_helps_per_slow", "ratio", "lower");
    add("guard.shield_lease_ns", "ns", "lower");
    add("guard.enter_exit_ns", "ns", "lower");
    add("pool.checkout_ns", "ns", "lower");
    add("task.checkout_release_ns", "ns", "lower");
    add("task.with_guard_ns", "ns", "lower");
    add("ds.kp_queue_pair_ns", "ns", "lower");
    add("ds.ms_queue_pair_ns", "ns", "lower");
    add("ds.treiber_pair_ns", "ns", "lower");
    add("ds.bst_write50_ns", "ns", "lower");

    // From the traced leg of the workload itself.
    add("ds.get_ns", "ns", "lower");
    add("ds.insert_ns", "ns", "lower");
    add("ds.remove_ns", "ns", "lower");
    add("ds.enqueue_ns", "ns", "lower");
    add("ds.dequeue_ns", "ns", "lower");
    add("ds.op_p50_ns", "ns", "lower");
    add("ds.op_p99_ns", "ns", "lower");
    add("ds.op_p999_ns", "ns", "lower");
    add("ds.useful_ratio", "ratio", "higher");
    add("ds.resizes", "count", "lower");
    add("ds.load_factor", "ratio", "lower");
    add("reclaim.retired_per_op", "ratio", "lower");
    add("reclaim.freed_ratio", "ratio", "higher");
    add("reclaim.eras_per_kop", "1/kop", "lower");
    add("reclaim.unreclaimed_mean", "blocks", "lower");
    add("reclaim.unreclaimed_max", "blocks", "lower");
    add("reclaim.adopted_batches", "count", "lower");
    add("cache.hit_ratio", "ratio", "higher");
    add("cache.cached_kib", "KiB", "lower");
    add("wfe.slow_path_per_mop", "1/Mop", "lower");
    add("wfe.helps_per_mop", "1/Mop", "lower");
    add("pool.hit_ratio", "ratio", "higher");
    add("trace.overhead_ratio", "ratio", "higher");
    add("trace.spans", "count", "higher");
    add("failed_ratio", "ratio", "lower");

    for s in REFERENCES {
        add(&format!("ref.{s}.ops_per_s"), "ops/s", "higher");
    }
    add("ref.ebr.unreclaimed_growth_per_s", "blocks/s", "lower");
    all
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::obj([
                            ("name", Json::Str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.name.to_string()));
        names.extend(WORKLOADS.iter().map(|w| w.name.to_string()));
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
    }

    #[test]
    fn stays_inside_the_contract_limits() {
        assert!((1..=128).contains(&per_layer().len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        for (_, unit, better) in per_layer() {
            assert!(unit.len() <= 16 && ["higher", "lower"].contains(&better));
        }
        assert!(manifest().to_pretty().len() < 64 * 1024);
    }
}
