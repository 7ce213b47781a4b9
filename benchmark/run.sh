#!/usr/bin/env bash
# The one command of the GSWITCH-RS benchmark: build it from source, then
# hand it the arguments. Everything it prints before the result goes to
# standard error or above the last line of standard output.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1   one run
#   benchmark/run.sh [--seed N] [--workload NAME] [--quick] [--runs R]  all workloads, timed then traced
#   benchmark/run.sh --compare a.json b.json                            compare two records
#   benchmark/run.sh --manifest                                         print BENCHMARK.json
set -euo pipefail

# Paths in the benchmark (model file, trace output) are relative to the
# root of the checkout, one level above this script.
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# glibc gives threads malloc arenas of their own as they contend, and the
# crates spawn threads on every parallel kernel call: how many arenas a run
# ends up with moved peak_rss_mb on serve-mixed between 15 and 22 MB from
# run to run. One arena makes it repeat (14.8-15.6 MB); pass walls did not
# move measurably.
export MALLOC_ARENA_MAX=1

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/gswitch-benchmark" "$@"
