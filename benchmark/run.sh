#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it from the repository
# root. Reuses the root `target/` unless CARGO_TARGET_DIR says otherwise.
#
#   benchmark/run.sh                          all four workloads, traced
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke | --calibrate
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/gbda-benchmark" "$@"
