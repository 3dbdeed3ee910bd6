#!/usr/bin/env bash
# Tier-1 verification, runnable with no network access.
#
#   scripts/verify.sh          # build + test + clippy + cluster + testkit + scenario + kernels + perfbench
#   scripts/verify.sh --fuzz   # additionally run the property-test suites
#
# Everything resolves from in-tree path dependencies (crates/proptest
# stands in for its crates.io namesake), so the offline flag below is a
# guarantee, not an inconvenience.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# The workspace currently runs 826 tests; a sharp drop means suites
# silently fell out of the build (feature gate, dead test file, a
# `#[cfg]` typo), which a plain exit code would never catch.
MIN_TESTS=826

TEST_LOG="$(mktemp)"
trap 'rm -f "$TEST_LOG"' EXIT

# lane <name> <cmd...>: run one verification lane, timing it.
lane() {
    local name="$1"
    shift
    echo "==> [$name] $*"
    local t0=$SECONDS
    "$@"
    echo "    [$name] ok in $((SECONDS - t0))s"
}

lane build   cargo build --release --workspace
lane test    bash -c "set -o pipefail; cargo test -q --workspace 2>&1 | tee '$TEST_LOG'"
lane clippy  cargo clippy --all-targets --workspace -- -D warnings

# Minimum-test-count gate over the workspace lane's captured output.
passed=$(awk '/^test result:/ {s += $4} END {print s + 0}' "$TEST_LOG")
if (( passed < MIN_TESTS )); then
    echo "verify: FAIL — only $passed tests passed (minimum $MIN_TESTS)" >&2
    exit 1
fi
echo "==> [gate] $passed tests passed (minimum $MIN_TESTS)"

# Cluster smoke lane: bench_cluster spawns replica sets, probes health
# to convergence, kills one replica of three under load, and asserts
# zero lost in-deadline requests and an even key split across replicas
# (the N=2 throughput check is enforced only with ≥ 3 hardware threads,
# one per replica plus the load generator). A non-zero exit fails the
# gate.
lane cluster ./target/release/bench_cluster --smoke

# Store lane: the shared artifact tier end-to-end over real disk and
# sockets — replicas write through, a kill orphans keys, hedged reads
# answer them from the store, and the victim rejoins via catch-up. The
# run asserts the post-kill p99 shrinks vs the no-store baseline.
lane store ./target/release/bench_cluster --smoke --warm

# Testkit lane: the fault-injection campaign must be bit-identical
# whatever the worker count, so run the conformance suite at both ends
# of the supported range.
lane testkit-w1 env IMPLANT_WORKERS=1 cargo test -q -p implant-testkit
lane testkit-w8 env IMPLANT_WORKERS=8 cargo test -q -p implant-testkit

# Scenario lane: seeded patient-day and cohort traces must be
# bit-identical whatever the worker count — the cluster's shard-merge
# guarantee rests on it — so run the scenario suite at both ends of the
# supported range.
lane scenario-w1 env IMPLANT_WORKERS=1 cargo test -q -p implant-scenario
lane scenario-w8 env IMPLANT_WORKERS=8 cargo test -q -p implant-scenario

# Kernels lane: the compiled analog engine. The equivalence suite pits
# the compiled engine against the dense reference on random RLC+diode
# netlists and the golden circuits; the bench smoke then times the
# fig11 transient on all three engines (dense reference, compiled
# monolithic, partitioned cosim) and exits non-zero when a gate fails:
# `compiled.fig11_speedup` ≥ 5, `compiled.cosim_speedup` ≥ 3,
# `compiled.fullchain_warm_speedup` > 1. The gate lane then recomputes
# every gate from the artifact with the generic bench_validate.
lane kernels-equiv cargo test -q -p analog --features fuzz --test equivalence
KERNELS_JSON="$(mktemp -d)/BENCH_kernels.json"
lane kernels-bench env IMPLANT_OBS=1 \
    ./target/release/bench_kernels --smoke --profile --json "$KERNELS_JSON"
lane kernels-gate ./target/release/bench_validate "$KERNELS_JSON"

# Bench lane: the profiling harness must produce valid machine-readable
# artifacts — scripts/bench.sh runs the kernel and cluster benchmarks at smoke sizes
# and bench_validate rejects non-finite numbers, a foreign schema, empty
# stage breakdowns, and malformed or failing gates.
lane bench env BENCH_DIR="$(mktemp -d)" ./scripts/bench.sh --smoke

# Perfbench lane: the end-to-end benchmark (its own workspace under
# perfbench/, built against the crates by path) must build, pass its own
# tests, and run every workload with every answer checked; the traced
# run also replays each answer through `Router::handle_typed` and fails
# on any byte difference. `interactive` runs the full BENCHMARK.json
# window (20 s): only that grows its store to thousands of objects, so
# hot points the FIFO cache evicted are read back through the store
# (journal appends, reads racing writes) and bit-checked.
PERFBENCH=(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --)
lane perfbench-test cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
lane perfbench-interactive "${PERFBENCH[@]}" --workload interactive --seed 1 --seconds 20 --trace 0
for workload in transient cosim; do
    lane "perfbench-$workload" "${PERFBENCH[@]}" --workload "$workload" --seed 1 --seconds 2 --trace 0
done
lane perfbench-traced "${PERFBENCH[@]}" --workload interactive --seed 1 --seconds 2 --trace 1
# Seed 4's full window reaches a fresh full-chain calibration at
# 8.1573 mm (request 1039) that the 2 s lanes never send; it once failed
# with a transient step underflow in the shorted staircase probe.
lane perfbench-cosim-seed4 "${PERFBENCH[@]}" --workload cosim --seed 4 --seconds 20 --trace 0

if [[ "${1:-}" == "--fuzz" ]]; then
    for crate in analog biosensor coils comms patch pmu implant-cosim; do
        lane "fuzz-$crate" cargo test -q -p "$crate" --features fuzz
    done
    # Calibration reuse: over random loads, horizons, cycle counts and
    # bit patterns on fixed identities, a warm-table cosim run must be
    # the cold run bit for bit.
    lane fuzz-cosim-cache cargo test -q -p implant-testkit --features fuzz --test cosim
fi

echo "verify: OK"
