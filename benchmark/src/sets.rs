//! Whole sets of runs: `all` (every workload, several rounds, each round a
//! fresh process, interleaved A B C D E, A B C D E, …), `aa` (two sets of the
//! same build, compared) and `compare` (two result files against the bounds).

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::catalogue::{END_TO_END, RUN_SECONDS};
use crate::json::Json;
use crate::single::results_dir;
use crate::workload::{median, segment_counts, SEGMENT, WORKERS, WORKLOADS};

/// How a set is run.
#[derive(Debug, Clone)]
pub struct SetArgs {
    /// Workload seed of round 0; round `r` uses `seed + r`.
    pub seed: u64,
    /// Seconds each run measures.
    pub seconds: f64,
    /// Plain runs per workload.
    pub rounds: u64,
    /// Whether to add the traced pass (one traced run per workload).
    pub traced: bool,
    /// Prefix of the result files' names (`quick-` keeps a quick set from
    /// overwriting the committed files).
    pub prefix: &'static str,
}

impl SetArgs {
    /// The full set: 3 rounds of [`RUN_SECONDS`] plus the traced pass.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            seconds: RUN_SECONDS as f64,
            rounds: 3,
            traced: true,
            prefix: "",
        }
    }

    /// Where result file `name` of this set goes.
    fn file(&self, name: &str) -> PathBuf {
        results_dir().join(format!("{}{name}.json", self.prefix))
    }

    /// The quick set: 1 round of 1 s (4 segments, rungs at a tenth).
    pub fn quick(seed: u64) -> Self {
        Self {
            seconds: 1.0,
            rounds: 1,
            prefix: "quick-",
            ..Self::full(seed)
        }
    }
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Where and how the numbers were taken.
fn environment(args: &SetArgs) -> Json {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    let (warm, measured) = segment_counts(args.seconds);
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu", Json::Str(cpu)),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"], here).unwrap_or_else(unknown)),
        ),
        (
            "git_sha",
            Json::Str(command_line("git", &["rev-parse", "HEAD"], here).unwrap_or_else(unknown)),
        ),
        (
            "git_dirty",
            match command_line("git", &["status", "--porcelain"], here) {
                Some(status) => Json::Bool(!status.is_empty()),
                None => Json::Null,
            },
        ),
        ("seed", Json::Num(args.seed as f64)),
        (
            "shape",
            Json::obj([
                ("loop", Json::str("closed")),
                ("scheme", Json::str("WFE")),
                ("worker_threads", Json::Num(WORKERS as f64)),
                ("rounds", Json::Num(args.rounds as f64)),
                ("fresh_process_per_round", Json::Bool(true)),
                ("segment_ms", Json::Num(SEGMENT.as_millis() as f64)),
                ("warmup_segments", Json::Num(warm as f64)),
                ("measured_segments", Json::Num(measured as f64)),
                ("domain", Json::str("max_threads 8, shards 2, block cache on (64 per class), paper defaults otherwise")),
            ]),
        ),
    ])
}

/// One child run: this executable again, in a fresh process. Its lines are
/// passed through; its last line is the result.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    lines.iter().for_each(|line| println!("{line}"));
    if !output.status.success() {
        return Err(format!(
            "run of {workload} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Json::parse(last)
}

/// Median, minimum and maximum over the rounds of each metric.
fn fold(rounds: &[Json]) -> Json {
    let Some(first) = rounds.first().and_then(|r| r.get("metrics")) else {
        return Json::obj::<String>([]);
    };
    Json::obj(first.members().iter().map(|(name, entry)| {
        let mut values: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        let folded = Json::obj([
            ("unit", entry.get("unit").cloned().unwrap_or(Json::Null)),
            ("median", Json::Num(median(&mut values))),
            ("min", Json::Num(values.first().copied().unwrap_or(0.0))),
            ("max", Json::Num(values.last().copied().unwrap_or(0.0))),
            (
                "rounds",
                Json::Arr(values.into_iter().map(Json::Num).collect()),
            ),
        ]);
        (name.clone(), folded)
    }))
}

fn total(rounds: &[Json], key: &str) -> f64 {
    rounds.iter().filter_map(|r| r.get(key)?.as_f64()).sum()
}

/// Runs a set, prints every metric of every workload and writes
/// `<prefix>latest.json` and `<prefix>trace-summary.json`. `Ok(true)` when
/// every run was correct.
pub fn all(args: &SetArgs) -> Result<bool, String> {
    run_set(args, "latest")
}

fn run_set(args: &SetArgs, name: &str) -> Result<bool, String> {
    let mut plain: Vec<Vec<Json>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..args.rounds {
        for (runs, workload) in plain.iter_mut().zip(&WORKLOADS) {
            runs.push(child(
                workload.name,
                args.seed + round,
                args.seconds,
                false,
            )?);
        }
    }
    let mut traced = Vec::new();
    let mut summaries = Vec::new();
    if args.traced {
        for workload in &WORKLOADS {
            traced.push(child(workload.name, args.seed, args.seconds, true)?);
            let path = results_dir().join(format!("trace-{}.summary.json", workload.name));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            summaries.push(Json::parse(&text)?);
        }
    }

    let mut correct = true;
    let mut workloads = Vec::new();
    for (index, workload) in WORKLOADS.iter().enumerate() {
        let mut runs = plain[index].clone();
        let mut entry = vec![
            ("why".to_string(), Json::str(workload.why)),
            ("end_to_end".to_string(), fold(&runs)),
        ];
        if let Some(traced) = traced.get(index) {
            entry.push(("per_layer".to_string(), fold(std::slice::from_ref(traced))));
            runs.push(traced.clone());
        }
        let (attempted, failed) = (total(&runs, "attempted"), total(&runs, "failed"));
        correct &= failed == 0.0;
        entry.push(("attempted".to_string(), Json::Num(attempted)));
        entry.push(("failed".to_string(), Json::Num(failed)));
        entry.push((
            "failed_ratio".to_string(),
            Json::Num(failed / attempted.max(1.0)),
        ));
        workloads.push((workload.name.to_string(), Json::Obj(entry)));
    }
    let env = environment(args);
    let result = Json::obj([
        ("kind", Json::str("result")),
        ("env", env.clone()),
        ("workloads", Json::Obj(workloads)),
    ]);
    print_set(&result);
    write(&args.file(name), &result)?;
    if args.traced {
        let file = Json::obj([
            ("kind", Json::str("trace-summary")),
            ("env", env),
            ("workloads", Json::Arr(summaries)),
        ]);
        write(&args.file("trace-summary"), &file)?;
    }
    Ok(correct)
}

fn write(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn print_set(result: &Json) {
    for (workload, entry) in result.get("workloads").map_or(&[][..], Json::members) {
        println!("== {workload}");
        for section in ["end_to_end", "per_layer"] {
            for (name, folded) in entry.get(section).map_or(&[][..], Json::members) {
                let number = |key: &str| folded.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                println!(
                    "  {name:<34} {:>16.4} {:<9} [{:.4} .. {:.4}]",
                    number("median"),
                    folded.get("unit").and_then(Json::as_str).unwrap_or(""),
                    number("min"),
                    number("max"),
                );
            }
        }
        let number = |key: &str| entry.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        println!(
            "  attempted {} failed {}",
            number("attempted"),
            number("failed")
        );
    }
}

/// Runs two plain sets of this build and compares them: the A/A check.
pub fn aa(args: &SetArgs) -> Result<bool, String> {
    let plain = SetArgs {
        traced: false,
        ..args.clone()
    };
    let correct = run_set(&plain, "aa-1")? & run_set(&plain, "aa-2")?;
    Ok(compare(&plain.file("aa-1"), &plain.file("aa-2"))? && correct)
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Prints, per end-to-end metric × workload, both medians, how much worse the
/// new one is and the bound. `Ok(false)` when a bound is exceeded, more calls
/// failed, or either file lacks a workload or a metric.
pub fn compare(old: &Path, new: &Path) -> Result<bool, String> {
    Ok(compare_results(&read(old)?, &read(new)?))
}

/// [`compare`] on parsed result files. The bounds are the catalogue's, which
/// `tests/schema.rs` holds equal to `BENCHMARK.json`; a metric is within its
/// bound when it got worse by no more than `bound` × the old median or by no
/// more than its `slack`.
pub fn compare_results(old: &Json, new: &Json) -> bool {
    let mut within = true;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "old", "new", "worse", "bound"
    );
    // Every workload of the catalogue, not of either file: a set that was cut
    // short must not pass for lack of rows.
    for workload in WORKLOADS.iter().map(|w| w.name) {
        let entry = |of: &Json| of.get("workloads")?.get(workload).cloned();
        let (Some(before), Some(after)) = (entry(old), entry(new)) else {
            println!("{workload:<20} missing from a file");
            within = false;
            continue;
        };
        for metric in &END_TO_END {
            let value = |of: &Json| {
                of.get("end_to_end")?
                    .get(metric.name)?
                    .get("median")?
                    .as_f64()
            };
            let (Some(a), Some(b)) = (value(&before), value(&after)) else {
                println!("{workload:<20} {:<16} missing", metric.name);
                within = false;
                continue;
            };
            let worse = if metric.better == "higher" {
                a - b
            } else {
                b - a
            };
            // Against `bound * a`, not `worse / a`: a median of 0 then has a
            // bound of 0 and no NaN to compare with.
            let ok = worse <= metric.slack || worse <= metric.bound * a.abs();
            within &= ok;
            let share = if worse == 0.0 { 0.0 } else { worse / a.abs() };
            println!(
                "{workload:<20} {:<16} {a:>14.4} {b:>14.4} {:>7.1}% {:>5.0}%{}",
                metric.name,
                share * 100.0,
                metric.bound * 100.0,
                if ok { "" } else { "  EXCEEDED" }
            );
        }
        let failed = |of: &Json| of.get("failed").and_then(Json::as_f64);
        match (failed(&before), failed(&after)) {
            (Some(was), Some(is)) if is <= was => {}
            (was, is) => {
                println!("{workload:<20} failed calls went from {was:?} to {is:?}");
                within = false;
            }
        }
    }
    println!(
        "{}",
        if within {
            "within bounds"
        } else {
            "BOUND EXCEEDED"
        }
    );
    within
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result file where every workload reads `value(workload, metric)` and
    /// `failed` calls failed.
    fn set(value: impl Fn(&str, &str) -> f64, failed: f64) -> Json {
        let workloads = WORKLOADS.iter().map(|w| {
            let metrics = END_TO_END.iter().map(|m| {
                let median = Json::obj([("median", Json::Num(value(w.name, m.name)))]);
                (m.name, median)
            });
            let entry = Json::obj([
                ("end_to_end", Json::obj(metrics)),
                ("failed", Json::Num(failed)),
            ]);
            (w.name, entry)
        });
        Json::obj([("workloads", Json::obj(workloads))])
    }

    fn without(workload: &str) -> Json {
        let full = set(|_, _| 100.0, 0.0);
        let kept = full.get("workloads").unwrap().members().iter();
        let kept = kept.filter(|(name, _)| name != workload).cloned();
        Json::obj([("workloads", Json::Obj(kept.collect()))])
    }

    #[test]
    fn equal_sets_are_within_bounds() {
        let same = set(|_, _| 100.0, 0.0);
        assert!(compare_results(&same, &same));
    }

    #[test]
    fn a_bound_exceeded_on_one_workload_fails() {
        let old = set(|_, _| 100.0, 0.0);
        let slower = |w: &str, m: &str| match (w, m) {
            ("list-read90", "ops_per_s") => 70.0,
            _ => 100.0,
        };
        assert!(!compare_results(&old, &set(slower, 0.0)));
        // The same distance in the better direction is no regression.
        assert!(compare_results(&set(slower, 0.0), &old));
        let within = |w: &str, m: &str| match (w, m) {
            ("list-read90", "ops_per_s") => 80.0,
            _ => 100.0,
        };
        assert!(compare_results(&old, &set(within, 0.0)));
    }

    #[test]
    fn a_workload_missing_from_either_file_fails() {
        let full = set(|_, _| 100.0, 0.0);
        assert!(!compare_results(&full, &without("queue-pairs")));
        assert!(!compare_results(&without("queue-pairs"), &full));
        assert!(!compare_results(&full, &Json::obj::<String>([])));
    }

    #[test]
    fn more_failed_calls_fail() {
        let old = set(|_, _| 100.0, 0.0);
        assert!(!compare_results(&old, &set(|_, _| 100.0, 1.0)));
        assert!(compare_results(&set(|_, _| 100.0, 1.0), &old));
    }

    #[test]
    fn slack_covers_small_values_and_a_zero_baseline() {
        let blocks = |unreclaimed: f64| {
            set(
                move |_, m| match m {
                    "unreclaimed_p50" => unreclaimed,
                    _ => 100.0,
                },
                0.0,
            )
        };
        // One more batch of 30 retires on 55 blocks is 55 %, inside the slack.
        assert!(compare_results(&blocks(55.0), &blocks(85.0)));
        assert!(!compare_results(&blocks(55.0), &blocks(95.0)));
        // Under the stall the share decides: 10 % of 50 000.
        assert!(compare_results(&blocks(50_000.0), &blocks(54_000.0)));
        assert!(!compare_results(&blocks(50_000.0), &blocks(56_000.0)));
        let zero = set(|_, _| 0.0, 0.0);
        assert!(compare_results(&zero, &zero));
        assert!(!compare_results(&zero, &set(|_, _| 1.0, 0.0)));
    }
}
