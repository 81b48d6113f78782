#!/usr/bin/env bash
# The repo benchmark's one entry command (see README.md here):
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S]
#                    [--trace [0|1]] [--quick]
#
# Builds the harness (a nested workspace: the root Cargo.toml is untouched),
# runs each workload in a fresh process, prints `workload metric value unit`
# lines and, last, one JSON result line; writes benchmark/out/results.json
# (benchmark/out/layers.json and trace-<workload>.json with --trace).
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$dir/target}"

# Build output goes to stderr: stdout ends with the result line.
cargo build --release --offline --manifest-path "$dir/Cargo.toml" \
    --target-dir "$target" >&2

NEUTRAL_BENCH_DIR="$dir" exec "$target/release/neutral-benchmark" "$@"
