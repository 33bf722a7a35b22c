//! Command line of the repository benchmark; see `README.md`.

use std::path::Path;
use std::process::ExitCode;

use wfe_benchmark::catalogue::{manifest, RUN_SECONDS};
use wfe_benchmark::sets::{aa, all, compare, SetArgs};
use wfe_benchmark::single::{check_environment, run, RunArgs};
use wfe_benchmark::workload::{spec, WORKLOADS};

const USAGE: &str = "usage:
  run.sh [all] [--seed N] [--quick]                               every workload, 3 rounds + the traced pass -> results/latest.json
  run.sh aa    [--seed N] [--quick]                               two plain sets of this build, compared -> results/aa-{1,2}.json
  run.sh compare OLD.json NEW.json                                two result files against the bounds in BENCHMARK.json
  run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run in this process; last line is the result as JSON
  run.sh manifest                                                 print BENCHMARK.json";

/// The value following `flag`, parsed.
fn option<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(at) => args
            .get(at + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// A set has two shapes and no other: the full one and `--quick`.
fn set_args(args: &[String]) -> Result<SetArgs, String> {
    let known = |(at, arg): (usize, &String)| match arg.as_str() {
        "all" | "aa" => at == 0,
        "--quick" | "--seed" => true,
        _ => at > 0 && args[at - 1] == "--seed",
    };
    if !args.iter().enumerate().all(known) {
        return Err(USAGE.into());
    }
    let seed = option(args, "--seed")?.unwrap_or(1);
    Ok(if args.iter().any(|a| a == "--quick") {
        SetArgs::quick(seed)
    } else {
        SetArgs::full(seed)
    })
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        Some("compare") => match args {
            [_, old, new] => compare(Path::new(old), Path::new(new)),
            _ => Err(USAGE.into()),
        },
        Some("aa") => {
            check_environment()?;
            aa(&set_args(args)?)
        }
        Some(first) if first != "all" && !first.starts_with("--") => Err(USAGE.into()),
        _ if !args.iter().any(|a| a == "--workload") => {
            check_environment()?;
            all(&set_args(args)?)
        }
        _ => {
            let name: String = option(args, "--workload")?.ok_or(USAGE)?;
            let spec = spec(&name).ok_or_else(|| {
                let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; known: {}", known.join(", "))
            })?;
            let seconds = option(args, "--seconds")?.unwrap_or(RUN_SECONDS as f64);
            if !(seconds > 0.0 && seconds <= 60.0) {
                return Err("--seconds must be in (0, 60]".into());
            }
            let trace = match option::<u8>(args, "--trace")?.unwrap_or(0) {
                0 => false,
                1 => true,
                _ => return Err("--trace takes 0 or 1".into()),
            };
            check_environment()?;
            let output = run(&RunArgs {
                spec,
                seed: option(args, "--seed")?.unwrap_or(1),
                seconds,
                trace,
            });
            // The contract's result line: last on stdout, printed whether or
            // not the outputs were correct (`correct` says which).
            println!("{}", output.to_json().to_line());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
