#!/bin/sh
# Two back-to-back sets of N untraced runs per workload on the same build,
# each run on another seed: per metric the two medians, their difference in
# the worsening direction, each set's quartile spread, PASS/FAIL against the
# bound in BENCHMARK.json.  Usage: benchmark/repeat.sh [N] [more proxybench
# arguments, e.g. --workload relay-small --seconds 20]
set -eu
runs="${1:-3}"
[ "$#" -gt 0 ] && shift
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- --repeat "$runs" "$@"
