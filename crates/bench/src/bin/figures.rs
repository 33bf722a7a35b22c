//! Figure runner: regenerates the series of every figure in the paper.
//!
//! ```text
//! figures [FIGURE ...] [--paper | --smoke] [--threads 1,2,4] [--duration-ms 500]
//!         [--repeats N] [--prefill N] [--schemes WFE,HE,...] [--shards N]
//!         [--tasks 500,2000] [--block-cache on|off] [--baseline-json PATH]
//! ```
//!
//! With no figure argument every figure (and both ablations) is run. Output
//! is CSV on stdout, one row per measured point:
//! `figure,structure,workload,scheme,threads,mops,avg_unreclaimed,`
//! `adopted_batches,freed_via_adoption,shards,avg_occupied_shards,`
//! `pool_hit_rate,tasks,unreclaimed_bytes,cache_hits,cache_misses,`
//! `cached_bytes,load_factor,resizes,migrated_buckets`
//! (`tasks`/`unreclaimed_bytes` are filled by the `kv-async` figure, whose
//! swept axis is the task count; the cache counters are live wherever the
//! per-shard block cache is enabled; the last three columns are filled by
//! the `kv-service` figure's resizable map and are 0 for fixed-capacity
//! structures).
//!
//! `--block-cache on|off` pins the per-shard block cache for every domain the
//! sweep builds; without it, domains use the library default and the
//! `cross-shard-churn` figure sweeps both modes.
//!
//! `--paper` and `--smoke` pick the starting parameters; every other flag
//! overrides them, whichever side of the preset it is written on.
//!
//! `--baseline-json PATH` additionally writes the sweep as a JSON baseline
//! document (see [`wfe_bench::baseline`]); the committed `BENCH_smr_ops.json`
//! at the repo root is a `--smoke` sweep written this way.

use std::process::ExitCode;
use std::time::Duration;

use wfe_bench::baseline;
use wfe_bench::figures::{Figure, Scheme};
use wfe_bench::params::BenchParams;
use wfe_bench::runner::DataPoint;

fn print_usage() {
    eprintln!(
        "usage: figures [FIGURE ...] [options]\n\
         \n\
         figures: {}  (default: all)\n\
         options:\n\
           --paper           full paper methodology (10 s x 5 runs, 50k prefill, up to 120 threads)\n\
           --smoke           tiny smoke-test parameters\n\
           --threads LIST    comma-separated thread counts (default: powers of two up to the core count)\n\
           --duration-ms N   run duration per point in milliseconds\n\
           --repeats N       repetitions per point\n\
           --prefill N       elements pre-inserted before measuring\n\
           --schemes LIST    comma-separated subset of WFE,EBR,HE,HP,2GEIBR,Leak\n\
           --shards N        registry shard count (default: auto from the host)\n\
           --tasks LIST      comma-separated task counts for the kv-async figure\n\
           --block-cache on|off  pin the per-shard block cache (default: library default;\n\
                             cross-shard-churn sweeps both modes when unset)\n\
           --baseline-json PATH  also write the sweep as a JSON baseline snapshot\n",
        Figure::ALL
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(" ")
    );
}

struct Cli {
    figures: Vec<Figure>,
    params: BenchParams,
    schemes: Vec<Scheme>,
    baseline_json: Option<String>,
}

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut figures = Vec::new();
    // A preset replaces the defaults, not the flags around it: it is applied
    // first wherever it stands, and the last one named wins.
    let preset = args
        .iter()
        .rev()
        .find(|arg| *arg == "--paper" || *arg == "--smoke");
    let mut params = match preset.map(String::as_str) {
        Some("--paper") => BenchParams::paper(),
        Some(_) => BenchParams::smoke(),
        None => BenchParams::default(),
    };
    let mut schemes: Vec<Scheme> = Scheme::ALL.to_vec();
    let mut baseline_json = None;
    let mut args = args.into_iter();

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--paper" | "--smoke" => {}
            "--threads" => {
                let value = args.next().ok_or("--threads needs a value")?;
                params.threads = value
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                if params.threads.is_empty() || params.threads.contains(&0) {
                    return Err("--threads needs positive values".into());
                }
            }
            "--duration-ms" => {
                let value = args.next().ok_or("--duration-ms needs a value")?;
                params.duration =
                    Duration::from_millis(value.parse::<u64>().map_err(|e| e.to_string())?);
            }
            "--repeats" => {
                let value = args.next().ok_or("--repeats needs a value")?;
                params.repeats = value.parse::<usize>().map_err(|e| e.to_string())?;
            }
            "--prefill" => {
                let value = args.next().ok_or("--prefill needs a value")?;
                params.prefill = value.parse::<usize>().map_err(|e| e.to_string())?;
            }
            "--shards" => {
                let value = args.next().ok_or("--shards needs a value")?;
                params.shards = value.parse::<usize>().map_err(|e| e.to_string())?;
            }
            "--tasks" => {
                let value = args.next().ok_or("--tasks needs a value")?;
                params.task_counts = value
                    .split(',')
                    .map(|t| t.trim().parse::<usize>().map_err(|e| e.to_string()))
                    .collect::<Result<Vec<_>, _>>()?;
                if params.task_counts.is_empty() || params.task_counts.contains(&0) {
                    return Err("--tasks needs positive values".into());
                }
            }
            "--block-cache" => {
                let value = args.next().ok_or("--block-cache needs on|off")?;
                params.block_cache = match value.to_ascii_lowercase().as_str() {
                    "on" | "true" | "1" => Some(true),
                    "off" | "false" | "0" => Some(false),
                    other => return Err(format!("--block-cache needs on|off, got {other}")),
                };
            }
            "--baseline-json" => {
                baseline_json = Some(args.next().ok_or("--baseline-json needs a path")?);
            }
            "--schemes" => {
                let value = args.next().ok_or("--schemes needs a value")?;
                schemes = value
                    .split(',')
                    .map(|s| Scheme::parse(s.trim()).ok_or_else(|| format!("unknown scheme {s}")))
                    .collect::<Result<Vec<_>, _>>()?;
            }
            other => {
                let figure = Figure::parse(other)
                    .ok_or_else(|| format!("unknown figure or option {other}"))?;
                figures.push(figure);
            }
        }
    }
    if figures.is_empty() {
        figures = Figure::ALL.to_vec();
    }
    Ok(Cli {
        figures,
        params,
        schemes,
        baseline_json,
    })
}

fn main() -> ExitCode {
    let cli = match parse_args(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}\n");
            }
            print_usage();
            return ExitCode::from(2);
        }
    };
    let (figures, params, schemes) = (cli.figures, cli.params, cli.schemes);

    eprintln!(
        "# threads={:?} duration={:?} repeats={} prefill={} key_range={}",
        params.threads, params.duration, params.repeats, params.prefill, params.key_range
    );
    println!("figure,{}", DataPoint::CSV_HEADER);
    let mut series: Vec<baseline::FigurePoint> = Vec::new();
    for figure in figures {
        eprintln!("# {}: {}", figure.name(), figure.description());
        for point in figure.run(&params, &schemes) {
            println!("{},{}", figure.name(), point.to_csv_row());
            if cli.baseline_json.is_some() {
                series.push((figure.name(), point));
            }
        }
    }
    if let Some(path) = &cli.baseline_json {
        let doc = baseline::render("smr_ops", &params, &series);
        if let Err(error) = std::fs::write(path, doc) {
            eprintln!("error: writing {path}: {error}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "# baseline written to {path} ({} series rows)",
            series.len()
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> BenchParams {
        let args = line.split_whitespace().map(String::from).collect();
        parse_args(args).expect("valid command line").params
    }

    #[test]
    fn presets_keep_the_flags_on_either_side() {
        for line in ["--threads 4 --smoke", "--smoke --threads 4"] {
            let params = parse(line);
            assert_eq!(params.threads, vec![4], "{line}");
            assert_eq!(params.duration, BenchParams::smoke().duration, "{line}");
        }
        for line in ["--block-cache off --smoke", "--smoke --block-cache off"] {
            assert_eq!(parse(line).block_cache, Some(false), "{line}");
        }
        for line in [
            "--shards 3 --prefill 7 --paper",
            "--paper --shards 3 --prefill 7",
        ] {
            let params = parse(line);
            assert_eq!((params.shards, params.prefill), (3, 7), "{line}");
            assert_eq!(params.repeats, BenchParams::paper().repeats, "{line}");
        }
    }
}
