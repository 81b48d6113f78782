#!/usr/bin/env bash
# Run the full set twice on the same tree — the end-to-end pass and the
# traced pass — and compare: every end-to-end metric within its bound, every
# exact count identical. Exits non-zero on a miss. If a metric misses, raise
# the repetitions or the problem size, never the bound.
#
#   benchmark/repeat.sh [--seed N] [--seconds S]
set -euo pipefail

dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$dir/target}"
out="$dir/out"
mkdir -p "$out"

for pass in first second; do
    "$dir/run.sh" "$@" | tee "$out/run.$pass.log"
    mv "$out/results.json" "$out/results.$pass.json"
    "$dir/run.sh" --trace "$@" | tee "$out/trace.$pass.log"
    mv "$out/layers.json" "$out/layers.$pass.json"
done

status=0
bin="$target/release/neutral-benchmark"
"$bin" compare "$out/results.first.json" "$out/results.second.json" || status=1
"$bin" compare "$out/layers.first.json" "$out/layers.second.json" || status=1
exit $status
