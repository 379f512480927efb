#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run; the JSON result is the last line
#   run.sh [--seed N] [--seconds S] [--smoke]               all five workloads, untraced then traced
#   run.sh --aa [--smoke]                                   two full sets of the same build, compared
#   run.sh compare A.json B.json | gate <roster key> | describe | metrics
#
# Works from any directory; the build lands in $CARGO_TARGET_DIR (as given,
# relative to the caller's directory) or in benchmark/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/benchmark" "$@"
