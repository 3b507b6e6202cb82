#!/usr/bin/env bash
# Builds the figure binaries and the benchmark from source (offline,
# release), then runs the benchmark with every argument passed through:
#
#   bash bench/benchmark/run.sh --workload combine-hot --seed 1 --seconds 12 --trace 0
#   bash bench/benchmark/run.sh suite --runs 10 --traced --out runs.json
#   bash bench/benchmark/run.sh compare before.json after.json
#
# Both builds share one target directory ($CARGO_TARGET_DIR, else target/),
# where the benchmark looks for the figure binaries. The benchmark runs as a
# child rather than replacing this shell: a process keeps the resource usage
# of children it waited for across exec, and the compilers' peak memory must
# not count as the figure binaries'.
set -euo pipefail
cd "$(dirname "$0")/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p sa-bench --bins
cargo build --release --offline --quiet --manifest-path bench/benchmark/Cargo.toml
"$CARGO_TARGET_DIR/release/benchmark" "$@"
