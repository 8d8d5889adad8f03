#!/usr/bin/env bash
# Builds the benchmark (release, offline, against benchmark/Cargo.lock) and
# hands it the arguments. From anywhere:
#
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#       one run of one workload — the command BENCHMARK.json names
#   benchmark/run.sh --repeats N [--seed N] [--seconds S]
#       all four workloads N times each plus one traced run each; prints
#       the metric table, writes a host-stamped result set to benchmark/out/
#   benchmark/run.sh compare <base.json> <change.json>
#       two result sets against the bounds in BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
case "${1:-}" in
  --workload | compare | suite) ;;
  *) set -- suite "$@" ;;
esac
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/sofya-benchmark" "$@"
