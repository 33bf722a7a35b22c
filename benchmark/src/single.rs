//! One run of one workload in this process: the unit the driver invokes
//! (`--workload W --seed N --seconds S --trace 0|1`) and a set is made of.
//!
//! With tracing off the run measures the end-to-end metrics. With tracing on
//! it splits its seconds over the traced leg of the workload (35 %), a short
//! untraced leg for the overhead ratio (15 %), the reference legs under the
//! other schemes (5 × 5 %) and the layer ladder (25 %), and reports every
//! per-layer metric.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use wfe_suite::wfe_sync::wcas_is_lock_free;
use wfe_suite::{Ebr, He, Hp, Ibr2Ge, Leak, Wfe};

use crate::catalogue::{per_layer, END_TO_END};
use crate::json::Json;
use crate::rungs::{self, Ladder};
use crate::trace::{
    segment_span_id, spans_json, summarize, Names, Recorder, Span, MAIN_THREAD, NAME_OP0,
    NAME_SEGMENT, NAME_SETUP, NAME_WORKLOAD, RUN_SPAN, SLOW_SPAN_NS, SPAN_CAP,
};
use crate::workload::{
    median, quantile_sorted, ratio, run_leg, sort, Leg, LegParams, Spec, OP_NAMES, SEGMENT, WORKERS,
};

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub spec: &'static Spec,
    /// Workload seed.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or plain run (end-to-end metrics).
    pub trace: bool,
}

/// What one run found.
pub struct RunOutput {
    /// Calls made and checked.
    pub attempted: u64,
    /// Calls that failed or answered wrongly.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl RunOutput {
    /// The contract's result line.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    let entry =
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
                    (name.clone(), entry)
                })),
            ),
        ])
    }
}

/// The directory result files go to: `results/` beside this package's
/// manifest, which is where `run.sh` built it.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Refuses to measure anything but the shipped configuration: native
/// `cmpxchg16b`, the block cache not overridden from the environment, and a
/// core per worker.
pub fn check_environment() -> Result<(), String> {
    if !wcas_is_lock_free() {
        return Err(
            "WCAS is not lock-free here: the numbers would describe the lock fallback".into(),
        );
    }
    if std::env::var_os("WFE_BLOCK_CACHE").is_some() {
        return Err(
            "WFE_BLOCK_CACHE is set: unset it, the benchmark fixes the block cache itself".into(),
        );
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < WORKERS {
        return Err(format!("{cores} core(s) for {WORKERS} worker threads"));
    }
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    let sorted = sort(values);
    (
        quantile_sorted(sorted, 0.25),
        quantile_sorted(sorted, 0.5),
        quantile_sorted(sorted, 0.75),
    )
}

/// Runs the workload once and prints each metric on a line of its own.
pub fn run(args: &RunArgs) -> RunOutput {
    println!(
        "workload {} seed {} seconds {} trace {} ({} workers, {} ms segments)",
        args.spec.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        WORKERS,
        SEGMENT.as_millis()
    );
    let output = if args.trace {
        traced(args)
    } else {
        plain(args)
    };
    for (name, value, unit) in &output.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    println!(
        "  attempted {} failed {} -> {}",
        output.attempted,
        output.failed,
        if output.failed == 0 {
            "correct"
        } else {
            "WRONG"
        }
    );
    output
}

fn plain(args: &RunArgs) -> RunOutput {
    let origin = Instant::now();
    let params = LegParams {
        seed: args.seed,
        seconds: args.seconds,
        trace: false,
        repeat_setup: true,
        check_teardown: true,
    };
    let mut leg = run_leg::<Wfe>(args.spec, &params, origin);
    let calls = leg.all_ops();
    let series: Vec<String> = leg
        .seg_ops_per_s
        .iter()
        .map(|ops| format!("{:.2}", ops / 1e6))
        .collect();
    println!("  Mops/s by segment: {}", series.join(" "));
    let (q1, ops_per_s, q3) = quartiles(&mut leg.seg_ops_per_s);
    println!(
        "  {} segments: ops_per_s quartiles {q1:.0} / {ops_per_s:.0} / {q3:.0}; {} timed calls, \
         p50 {:.0} ns, p99 {:.0} ns; {} unreclaimed samples; {} set-ups; unreclaimed after \
         release {:?}",
        leg.seg_ops_per_s.len(),
        calls.count(),
        calls.quantile(0.5),
        calls.supported_quantile(0.99),
        leg.unreclaimed.len(),
        leg.setup_s.len(),
        leg.teardown_unreclaimed,
    );
    let unreclaimed: Vec<f64> = leg.unreclaimed.iter().map(|&u| u as f64).collect();
    let values = [
        ops_per_s,
        quantile_sorted(&unreclaimed, 0.5),
        rss_peak_mib(),
        median(&mut leg.setup_s),
    ];
    RunOutput {
        attempted: leg.attempted,
        failed: leg.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(metric, value)| (metric.name.to_string(), value, metric.unit))
            .collect(),
    }
}

fn traced(args: &RunArgs) -> RunOutput {
    let origin = Instant::now();
    let mut names = Names::default();
    let mut recorder = Recorder::new(origin, MAIN_THREAD, SPAN_CAP);
    let leg_params = |seconds: f64, trace: bool| LegParams {
        seed: args.seed,
        seconds,
        trace,
        repeat_setup: false,
        check_teardown: trace,
    };
    let mut values: Vec<(String, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);

    // The workload itself, every call timed.
    let mut leg = run_leg::<Wfe>(args.spec, &leg_params(args.seconds * 0.35, true), origin);
    let traced_ops_per_s = median(&mut leg.seg_ops_per_s);
    attempted += leg.attempted;
    failed += leg.failed;

    // The same, untimed, for what the timing itself costs.
    let start = recorder.now();
    let mut bare = run_leg::<Wfe>(args.spec, &leg_params(args.seconds * 0.15, false), origin);
    let name = names.intern("ref:wfe-untraced");
    recorder.push(RUN_SPAN, name, start, recorder.now());
    attempted += bare.attempted;
    failed += bare.failed;
    let bare_ops_per_s = median(&mut bare.seg_ops_per_s);

    // Reference legs: same driver, other schemes.
    let reference = args.seconds * 0.05;
    let mut run_reference = |scheme: &str, run: &dyn Fn(&LegParams) -> Leg| {
        let start = recorder.now();
        let mut leg = run(&leg_params(reference, false));
        let name = names.intern(&format!("ref:{scheme}"));
        recorder.push(RUN_SPAN, name, start, recorder.now());
        attempted += leg.attempted;
        failed += leg.failed;
        values.push((
            format!("ref.{scheme}.ops_per_s"),
            median(&mut leg.seg_ops_per_s),
        ));
        leg
    };
    run_reference("he", &|p| run_leg::<He>(args.spec, p, origin));
    run_reference("leak", &|p| run_leg::<Leak>(args.spec, p, origin));
    let ebr = run_reference("ebr", &|p| run_leg::<Ebr>(args.spec, p, origin));
    run_reference("hp", &|p| run_leg::<Hp>(args.spec, p, origin));
    run_reference("ibr", &|p| run_leg::<Ibr2Ge>(args.spec, p, origin));
    let (first, last) = ebr.window();
    values.push((
        "ref.ebr.unreclaimed_growth_per_s".into(),
        ratio(
            last.stats.unreclaimed as f64 - first.stats.unreclaimed as f64,
            (last.at_ns - first.at_ns) as f64 / 1e9,
        ),
    ));

    // The ladder.
    let start = recorder.now();
    let ladder_name = names.intern("ladder");
    let ladder_span = recorder.push(RUN_SPAN, ladder_name, start, start);
    let ladder_slot = recorder.spans.len() - 1;
    let mut ladder = Ladder {
        budget: Duration::from_secs_f64(args.seconds * 0.25 / rungs::RUNG_COUNT as f64),
        recorder: &mut recorder,
        names: &mut names,
        parent: ladder_span,
        metrics: Vec::new(),
        failed: 0,
        attempted: 0,
    };
    rungs::run_all(&mut ladder);
    values.append(&mut ladder.metrics);
    attempted += ladder.attempted;
    failed += ladder.failed;
    recorder.spans[ladder_slot].end_ns = recorder.now();

    // Per-layer numbers of the traced leg.
    let calls = leg.all_ops();
    for (op, hist) in OP_NAMES.iter().zip(&leg.hists) {
        values.push((format!("ds.{op}_ns"), hist.quantile(0.5)));
    }
    let (first, last) = leg.window();
    let ops = leg.measured_ops as f64;
    let moved =
        |pick: fn(&wfe_suite::SmrStats) -> u64| (pick(&last.stats) - pick(&first.stats)) as f64;
    let unreclaimed: Vec<f64> = leg.unreclaimed.iter().map(|&u| u as f64).collect();
    let hits = moved(|s| s.cache_hits);
    values.extend([
        ("ds.op_p50_ns".into(), calls.quantile(0.5)),
        ("ds.op_p99_ns".into(), calls.supported_quantile(0.99)),
        ("ds.op_p999_ns".into(), calls.supported_quantile(0.999)),
        (
            "ds.useful_ratio".into(),
            ratio(leg.useful as f64, leg.attempted as f64),
        ),
        ("ds.resizes".into(), leg.service.resizes as f64),
        ("ds.load_factor".into(), leg.service.load_factor),
        (
            "reclaim.retired_per_op".into(),
            ratio(moved(|s| s.retired), ops),
        ),
        (
            "reclaim.freed_ratio".into(),
            ratio(moved(|s| s.freed), moved(|s| s.retired)),
        ),
        (
            "reclaim.eras_per_kop".into(),
            ratio(moved(|s| s.era), ops / 1e3),
        ),
        (
            "reclaim.unreclaimed_mean".into(),
            ratio(unreclaimed.iter().sum(), unreclaimed.len() as f64),
        ),
        (
            "reclaim.unreclaimed_max".into(),
            unreclaimed.last().copied().unwrap_or(0.0),
        ),
        (
            "reclaim.adopted_batches".into(),
            moved(|s| s.adopted_batches),
        ),
        (
            "cache.hit_ratio".into(),
            ratio(hits, hits + moved(|s| s.cache_misses)),
        ),
        (
            "cache.cached_kib".into(),
            last.stats.cached_bytes as f64 / 1024.0,
        ),
        (
            "wfe.slow_path_per_mop".into(),
            ratio(moved(|s| s.slow_path), ops / 1e6),
        ),
        (
            "wfe.helps_per_mop".into(),
            ratio(moved(|s| s.helps), ops / 1e6),
        ),
        (
            "pool.hit_ratio".into(),
            ratio(
                (last.pool.hits - first.pool.hits) as f64,
                (last.pool.checkouts - first.pool.checkouts) as f64,
            ),
        ),
        (
            "trace.overhead_ratio".into(),
            ratio(traced_ops_per_s, bare_ops_per_s),
        ),
        ("trace.spans".into(), leg.spans.len() as f64),
    ]);

    let end = recorder.now();
    write_trace(args, &leg, recorder.spans, &names, end);

    let (mut metrics, unmeasured) = in_catalogue_order(&values);
    failed += unmeasured;
    let failed_ratio = ratio(failed as f64, attempted as f64);
    for (_, value, _) in metrics.iter_mut().filter(|m| m.0 == "failed_ratio") {
        *value = failed_ratio;
    }
    RunOutput {
        attempted,
        failed,
        metrics,
    }
}

/// Every per-layer metric with its unit, in the catalogue's order, and how
/// many of them `values` lacks. A metric the run could not measure — its rung
/// was skipped because a registration, lease or check-out was refused — reads
/// 0 and counts as one failure, so the run still ends with its result line
/// and `correct: false`. `failed_ratio` is the caller's to fill in.
fn in_catalogue_order(values: &[(String, f64)]) -> (Vec<(String, f64, &'static str)>, u64) {
    let mut unmeasured = 0;
    let metrics = per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let value = values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            unmeasured += (value.is_none() && name != "failed_ratio") as u64;
            (name, value.unwrap_or(0.0), unit)
        })
        .collect();
    (metrics, unmeasured)
}

/// Writes `results/trace-<workload>.json` (every raw span) and
/// `results/trace-<workload>.summary.json` (totals per span name and the
/// counters at the segment boundaries). See README.md for the layout.
fn write_trace(args: &RunArgs, leg: &Leg, mut spans: Vec<Span>, names: &Names, end_ns: u64) {
    spans.push(Span {
        id: RUN_SPAN,
        parent: 0,
        thread: MAIN_THREAD,
        name: crate::trace::NAME_RUN,
        start_ns: 0,
        end_ns,
    });
    let workload_span = RUN_SPAN + 1;
    spans.push(Span {
        id: workload_span,
        parent: RUN_SPAN,
        thread: MAIN_THREAD,
        name: NAME_WORKLOAD,
        start_ns: leg.started_ns,
        end_ns: leg.ended_ns,
    });
    spans.push(Span {
        id: RUN_SPAN + 2,
        parent: RUN_SPAN,
        thread: MAIN_THREAD,
        name: NAME_SETUP,
        start_ns: 0,
        end_ns: leg.started_ns,
    });
    for segment in &leg.segments {
        spans.push(Span {
            id: segment_span_id(segment.thread, segment.index),
            parent: workload_span,
            thread: segment.thread,
            name: NAME_SEGMENT,
            start_ns: segment.start_ns,
            end_ns: segment.start_ns + SEGMENT.as_nanos() as u64,
        });
    }
    spans.extend_from_slice(&leg.spans);

    // Totals per name. Raw call spans are a sample, so `op:<type>` rows come
    // from the books every timed call went through, and a segment's self time
    // is its length minus the time inside its calls.
    let totals = summarize(&spans, names.all().len());
    let mut slow = vec![0u64; names.all().len()];
    for span in spans
        .iter()
        .filter(|s| s.end_ns - s.start_ns >= SLOW_SPAN_NS)
    {
        slow[span.name as usize] += 1;
    }
    let in_calls: u64 = leg.segments.iter().map(|s| s.op_ns).sum();
    let summary: Vec<Json> = names
        .all()
        .iter()
        .zip(totals)
        .enumerate()
        .filter(|(_, (_, (count, _, _)))| *count > 0)
        .map(|(index, (name, (count, total_ns, self_ns)))| {
            let op = (index as u16)
                .checked_sub(NAME_OP0)
                .filter(|op| (*op as usize) < OP_NAMES.len());
            let (count, total_ns, self_ns, raw) = match op {
                Some(op) => {
                    let (calls, ns) = (leg.hists[op as usize].count(), leg.op_ns[op as usize]);
                    (calls, ns, ns, count)
                }
                None if index as u16 == NAME_SEGMENT => {
                    (count, total_ns, total_ns - in_calls.min(total_ns), count)
                }
                None => (count, total_ns, self_ns, count),
            };
            let mut row = vec![
                ("name", Json::str(name.as_str())),
                ("count", Json::Num(count as f64)),
                ("total_ns", Json::Num(total_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
                ("raw_spans", Json::Num(raw as f64)),
                ("raw_spans_50us_or_more", Json::Num(slow[index] as f64)),
            ];
            if let Some(op) = op {
                let hist = &leg.hists[op as usize];
                row.extend([
                    ("p50_ns", Json::Num(hist.quantile(0.5))),
                    ("p99_ns", Json::Num(hist.supported_quantile(0.99))),
                    ("p999_ns", Json::Num(hist.supported_quantile(0.999))),
                    ("max_ns", Json::Num(hist.max() as f64)),
                ]);
            }
            Json::obj(row)
        })
        .collect();
    let boundaries: Vec<Json> = leg
        .boundaries
        .iter()
        .map(|b| {
            Json::obj([
                ("at_ns", Json::Num(b.at_ns as f64)),
                ("allocated", Json::Num(b.stats.allocated as f64)),
                ("retired", Json::Num(b.stats.retired as f64)),
                ("freed", Json::Num(b.stats.freed as f64)),
                ("unreclaimed", Json::Num(b.stats.unreclaimed as f64)),
                ("era", Json::Num(b.stats.era as f64)),
                ("slow_path", Json::Num(b.stats.slow_path as f64)),
                ("helps", Json::Num(b.stats.helps as f64)),
                ("cache_hits", Json::Num(b.stats.cache_hits as f64)),
                ("cache_misses", Json::Num(b.stats.cache_misses as f64)),
                ("cached_bytes", Json::Num(b.stats.cached_bytes as f64)),
                ("pool_checkouts", Json::Num(b.pool.checkouts as f64)),
                ("pool_hits", Json::Num(b.pool.hits as f64)),
            ])
        })
        .collect();
    let segments: Vec<Json> = leg
        .segments
        .iter()
        .map(|s| {
            Json::obj([
                ("span", Json::Num(segment_span_id(s.thread, s.index) as f64)),
                ("thread", Json::Num(s.thread as f64)),
                ("index", Json::Num(s.index as f64)),
                ("ops", Json::Num(s.ops as f64)),
                ("in_calls_ns", Json::Num(s.op_ns as f64)),
            ])
        })
        .collect();
    let head = |kind: &str| {
        vec![
            ("kind".to_string(), Json::str(kind)),
            ("workload".to_string(), Json::str(args.spec.name)),
            ("seed".to_string(), Json::Num(args.seed as f64)),
            ("seconds".to_string(), Json::Num(args.seconds)),
            (
                "clock".to_string(),
                Json::str("nanoseconds since process start"),
            ),
        ]
    };
    let mut summary_file = head("trace-summary");
    summary_file.extend([
        (
            "calls_per_raw_span".to_string(),
            Json::str("1 in 64, plus every call of 50 us or more"),
        ),
        ("summary".to_string(), Json::Arr(summary)),
        ("segments".to_string(), Json::Arr(segments)),
        ("boundaries_thread0".to_string(), Json::Arr(boundaries)),
    ]);
    let mut trace_file = head("trace");
    trace_file.extend([
        (
            "names".to_string(),
            Json::Arr(names.all().iter().map(Json::str).collect()),
        ),
        (
            "span_fields".to_string(),
            Json::Arr(
                ["id", "parent", "thread", "name", "start_ns", "end_ns"]
                    .map(Json::str)
                    .to_vec(),
            ),
        ),
        ("spans".to_string(), spans_json(&spans)),
    ]);
    let dir = results_dir();
    let write = |file: String, value: Json| {
        let path = dir.join(file);
        if let Err(error) =
            std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, value.to_pretty()))
        {
            eprintln!("could not write {}: {error}", path.display());
        } else {
            println!("  wrote {}", path.display());
        }
    };
    write(
        format!("trace-{}.summary.json", args.spec.name),
        Json::Obj(summary_file),
    );
    write(
        format!("trace-{}.json", args.spec.name),
        Json::Obj(trace_file),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unmeasured_metric_reads_zero_and_is_counted() {
        let measured = vec![("wfe.protect_ns".to_string(), 13.5)];
        let (metrics, unmeasured) = in_catalogue_order(&measured);
        assert_eq!(metrics.len(), per_layer().len());
        // Everything but the one measured and `failed_ratio`.
        assert_eq!(unmeasured as usize, per_layer().len() - 2);
        for (name, value, _) in metrics {
            let expected = if name == "wfe.protect_ns" { 13.5 } else { 0.0 };
            assert_eq!(value, expected, "{name}");
        }
    }
}
