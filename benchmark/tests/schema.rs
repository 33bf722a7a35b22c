//! `BENCHMARK.json` and what the benchmark prints are the same catalogue.

use std::path::Path;
use std::process::Command;

use wfe_benchmark::catalogue::manifest;
use wfe_benchmark::json::Json;

fn committed_manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn the_committed_manifest_is_the_catalogue() {
    assert_eq!(
        committed_manifest(),
        manifest(),
        "regenerate with `benchmark/run.sh manifest > BENCHMARK.json`"
    );
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every workload, plain and traced, in the quick shape (1 s: four segments,
/// rungs at a tenth): the result line declares exactly the metrics the
/// manifest lists for that kind of run, each with its unit, and nothing else.
#[test]
fn a_quick_run_prints_what_the_manifest_declares() {
    let manifest = committed_manifest();
    for workload in manifest.get("workloads").unwrap().items() {
        let workload = workload.get("name").unwrap().as_str().unwrap();
        assert!(name_ok(workload));
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_wfe-benchmark"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("the benchmark binary runs");
            assert!(
                output.status.success(),
                "{workload} --trace {trace}: {output:?}"
            );
            let stdout = String::from_utf8(output.stdout).unwrap();
            assert!(stdout.contains(&format!("workload {workload} ")));
            let result =
                Json::parse(stdout.lines().last().unwrap()).expect("the last line is JSON");

            let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} {stdout}"
            );
            assert_eq!(result.get("failed").unwrap().as_f64(), Some(0.0));
            assert!(result.get("attempted").unwrap().as_f64().unwrap() >= 1.0);

            let declared = manifest.get(section).unwrap().items();
            let printed = result.get("metrics").unwrap().members();
            assert_eq!(printed.len(), declared.len(), "{workload} --trace {trace}");
            for (metric, (name, entry)) in declared.iter().zip(printed) {
                assert!(name_ok(name));
                assert_eq!(metric.get("name").unwrap().as_str(), Some(name.as_str()));
                assert_eq!(metric.get("unit"), entry.get("unit"), "{name}");
                let value = entry.get("value").unwrap().as_f64().expect("a number");
                assert!(value.is_finite(), "{name} = {value}");
                if section == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} must never read 0");
                }
                // The same name, with its unit, on a line of its own.
                let line = stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name.as_str()))
                    .unwrap_or_else(|| panic!("{name} is not printed"));
                let unit = entry.get("unit").unwrap().as_str().unwrap();
                assert_eq!(line.split_whitespace().last(), Some(unit));
            }
        }
    }
}
