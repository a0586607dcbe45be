#!/usr/bin/env bash
# Build the benchmark (release, offline) and run one workload, or all
# four when no --workload is given. Every other argument goes to the
# harness unchanged:
#
#   bench/run.sh --workload track_doall --seed 1 --seconds 20 --trace 0
#   bench/run.sh --quick                 # < 30 s smoke of all four
#   bench/run.sh --workload serve_mix --repeat-check
#
# The last line of each run is one JSON object (see README.md).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-bench/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path bench/Cargo.toml
bin="$target/release/rlrpd-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
for w in track_doall nlfilt_partial spice_durable_fleet serve_mix; do
    "$bin" --workload "$w" "$@"
done
