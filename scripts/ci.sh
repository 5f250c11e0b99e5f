#!/usr/bin/env bash
# CI gate for the workspace: release build, the tier-1 test suite, every
# crate's tests under three schedules, the release serving suites, the
# ld-perfbench smoke run at default threads and on one core (kernel
# equivalence asserts + bench schema check + regression gate),
# the full serve replay's and the seeded chaos soak's response digests
# against the committed BENCH_serve.json and BENCH_resilience.json at
# default threads and on one core, the benchmark's own tests, the ld-lint
# static-analysis gate (report left in
# target/lint-report.json), and a warning-free clippy pass over every
# target, tests included. Run from the repository root:
#
#     ./scripts/ci.sh
#
# Set CI_SKIP_BUILD=1 to reuse an existing release build.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${CI_SKIP_BUILD:-0}" != "1" ]; then
    echo "=== cargo build --release ==="
    cargo build --release
fi

echo "=== cargo test -q ==="
cargo test -q

echo "=== cargo test --workspace at default threads, one test thread, and one core ==="
# Every crate's tests, under three schedules: no test may depend on
# process-global state another test changes, nor on the core count.
cargo test -q --workspace
cargo test -q --workspace -- --test-threads=1
if command -v taskset > /dev/null; then
    taskset -c 0 cargo test -q --workspace
fi

echo "=== serving suites in release (pipeline equivalence, properties, fault isolation) ==="
cargo test -q --release -p ld-serve

echo "=== ld-perfbench --smoke (kernel equivalence + bench schema + regression gate) ==="
# Tolerance 1.8: every row times its before/after legs interleaved
# round-by-round, so host frequency drift cancels out of the ratio and
# the remaining run-to-run noise is leg-local jitter. The widest swing
# observed across repeated smoke runs vs the committed full baseline is
# ~1.5x (lstm-bptt); 1.8 leaves margin while still failing on any real
# kernel regression. The gate runs at the host's default thread count and
# again pinned to one core, so it holds at both. On a 2-vCPU Xeon the
# lstm-bptt and train-epoch rows (per-sample oracle against lane blocks)
# measured 2.67-3.55x and 2.23-2.62x at 2 cores, 2.94-3.28x and
# 2.58-2.63x pinned (committed full-mode rows: 2.14x and 1.82x).
cargo run -q --release -p ld-perfbench -- --smoke --compare BENCH_perf.json --tolerance 1.8
if command -v taskset > /dev/null; then
    taskset -c 0 cargo run -q --release -p ld-perfbench -- --smoke --compare BENCH_perf.json --tolerance 1.8
fi

echo "=== ld-loadgen --smoke (serve replay: equivalence, determinism, shed, cache, metrics) ==="
mkdir -p target
rm -f target/ci-metrics.json target/ci-metrics.json.prom
LD_METRICS=target/ci-metrics.json cargo run -q --release -p ld-serve --bin ld-loadgen -- --smoke
cargo run -q --release --bin ld-cli -- metrics-validate target/ci-metrics.json target/ci-metrics.json.prom
cargo run -q --release -p ld-serve --bin ld-loadgen -- --check BENCH_serve.json

echo "=== ld-loadgen full replay: response digest == BENCH_serve.json at default threads and one core ==="
# `--check` above validates only the artifact's schema. The full replay
# regenerates the digest; it must equal the committed one whatever the
# core count, because training and the batched tick are bitwise identical
# on any number of cores.
digest_of() {
    sed -n 's/.*"response_digest": *"\([0-9a-f]*\)".*/\1/p' "$1" | head -n 1
}
digest_legs="default"
if command -v taskset > /dev/null; then
    digest_legs="default pinned"
fi
# check_digest ARTIFACT [LOADGEN ARGS...]: reruns ld-loadgen with the given
# arguments at default threads and pinned to one core, and fails unless
# both runs print the response digest committed in ARTIFACT.
check_digest() {
    local artifact=$1
    shift
    local committed got leg
    committed=$(digest_of "$artifact")
    if [ -z "$committed" ]; then
        echo "ci.sh: $artifact carries no response_digest" >&2
        exit 1
    fi
    for leg in $digest_legs; do
        rm -f target/ci-digest.json target/ci-digest.json.manifest.json
        if [ "$leg" = pinned ]; then
            taskset -c 0 cargo run -q --release -p ld-serve --bin ld-loadgen -- "$@" --out target/ci-digest.json > /dev/null
        else
            cargo run -q --release -p ld-serve --bin ld-loadgen -- "$@" --out target/ci-digest.json > /dev/null
        fi
        got=$(digest_of target/ci-digest.json)
        if [ "$got" != "$committed" ]; then
            echo "ci.sh: $artifact digest ($leg) is '$got', committed '$committed'" >&2
            exit 1
        fi
        echo "$artifact digest ($leg): $got"
    done
}
check_digest BENCH_serve.json

echo "=== ldbench unit tests (the benchmark is a workspace of its own) ==="
cargo test --release -q --manifest-path ldbench/Cargo.toml

echo "=== ld-loadgen --chaos --smoke (chaos soak: availability, isolation, determinism) ==="
mkdir -p target
cargo run -q --release -p ld-serve --bin ld-loadgen -- --chaos --smoke --out target/ci-resilience.json
cargo run -q --release -p ld-serve --bin ld-loadgen -- --check-resilience target/ci-resilience.json
cargo run -q --release -p ld-serve --bin ld-loadgen -- --check-resilience BENCH_resilience.json

echo "=== ld-loadgen --chaos full soak: response digest == BENCH_resilience.json at default threads and one core ==="
# `--check-resilience` validates only the schema. The full soak at the
# committed chaos seed regenerates the digest, like the serve step above.
chaos_seed=$(sed -n 's/.*"chaos_seed": *\([0-9]*\).*/\1/p' BENCH_resilience.json | head -n 1)
if [ -z "$chaos_seed" ]; then
    echo "ci.sh: BENCH_resilience.json carries no chaos_seed" >&2
    exit 1
fi
check_digest BENCH_resilience.json --chaos --chaos-seed "$chaos_seed"

echo "=== traced fig6 smoke run (span tracing + run-manifest validation) ==="
mkdir -p target
rm -f target/ci-trace.json target/ci-trace.json.folded target/ci-trace.json.manifest.json
LD_FAST=1 LD_TRACE=target/ci-trace.json cargo run -q --release -p ld-bench --bin fig6_workflow > /dev/null
cargo run -q --release --bin ld-cli -- trace-validate target/ci-trace.json target/ci-trace.json.manifest.json

echo "=== ld-lint --deny (static analysis gate, schema_version 3) ==="
mkdir -p target
cargo run -q -p ld-lint -- --deny --format json > target/lint-report.json
cargo run -q -p ld-lint -- --check-report target/lint-report.json

echo "=== ld-lint --fix --dry-run (clean tree proposes zero edits) ==="
fix_out=$(cargo run -q -p ld-lint -- --fix --dry-run 2>&1)
echo "$fix_out"
case "$fix_out" in
    *"0 fix(es) available"*) ;;
    *) echo "ci.sh: --fix --dry-run proposed edits on a supposedly clean tree" >&2; exit 1 ;;
esac

echo "=== cargo clippy --workspace --all-targets -- -D warnings ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "ci.sh: all green"
