#!/usr/bin/env bash
# The one command. With no arguments it runs all six workloads (seed 1), each
# in its own process, untraced then traced, and writes benchmark/out/report.json.
# With `--workload NAME --seed N --seconds S --trace 0|1` it runs one pass of one
# workload and prints the result object as its last line.
set -euo pipefail
cd "$(dirname "$0")/.."
# (The binary pins itself to one rayon thread; see src/main.rs.)
exec cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
