#!/usr/bin/env bash
# Build the benchmark and run it. Arguments go to the binary unchanged:
#
#   benchmark/run.sh                                   every workload, seed 42
#   benchmark/run.sh --seed 7 --trace 1                every workload, traced
#   benchmark/run.sh --workload scan_250k --seed 7 --seconds 12 --trace 0
#
# With --workload the last line of stdout is the result object that
# BENCHMARK.json's contract describes. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# No --locked and no committed lock file: every dependency is a path into
# this repo, and a later change that adds a crate must not have to edit
# the benchmark to keep it building.
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/engine-benchmark" "$@"
