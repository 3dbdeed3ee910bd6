#!/usr/bin/env bash
# Benchmark harness: runs the kernel and cluster benchmarks with
# profiling enabled, writes machine-readable artifacts, and validates
# them. (The serving path's load generator is perfbench/.)
#
#   scripts/bench.sh           # full run: BENCH_kernels + BENCH_cluster
#   scripts/bench.sh --smoke   # small sizes, same artifacts — the CI lane
#
# Artifacts land in the repo root (override with BENCH_DIR). Every file
# is one `implant-bench/1` record — bench name, config, a flat metrics
# map, the per-stage table and the run's gates — and `bench_validate`
# checks them all with one generic pass: non-finite numbers, an empty
# stage table, a malformed gate or a gate that does not hold fails the
# run. Each benchmark also exits non-zero on its own failing gate.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
# The stage breakdowns are the point of the artifacts; force obs on even
# if the caller's environment disabled it.
export IMPLANT_OBS=1

BENCH_DIR="${BENCH_DIR:-.}"
KERNELS_JSON="$BENCH_DIR/BENCH_kernels.json"
CLUSTER_JSON="$BENCH_DIR/BENCH_cluster.json"

KERNEL_ARGS=()
# --warm adds the post-kill repeat-read comparison (no store vs shared
# store + hedged reads) to BENCH_cluster.json's `warm` object.
CLUSTER_ARGS=(--connections 4 --requests 30 --mc-trials 150 --warm)
if [[ "${1:-}" == "--smoke" ]]; then
    KERNEL_ARGS=(--smoke)
    CLUSTER_ARGS=(--smoke --warm)
fi

echo "==> building benchmark binaries"
cargo build --release -p bench

echo "==> kernel benchmark -> $KERNELS_JSON"
./target/release/bench_kernels "${KERNEL_ARGS[@]}" --profile --json "$KERNELS_JSON"

echo "==> cluster benchmark -> $CLUSTER_JSON"
./target/release/bench_cluster "${CLUSTER_ARGS[@]}" --json "$CLUSTER_JSON"

echo "==> validating artifacts"
./target/release/bench_validate "$KERNELS_JSON" "$CLUSTER_JSON"

echo "bench: OK ($KERNELS_JSON, $CLUSTER_JSON)"
