#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it; see README.md.
#   run.sh                      the whole set -> results/latest.json, results/trace-summary.json
#   run.sh --workload W ...     one run; the last line of stdout is the result as JSON
#   run.sh aa | compare A B | manifest | --quick
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/wfe-benchmark" "$@"
