#!/usr/bin/env bash
# Tier-1 CI gate: hermetic (offline, empty-registry) build + full test
# suite + the timing binaries' smoke floors. Mirrors ROADMAP.md's verify
# step; run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build (offline) =="
cargo build --release --offline --workspace

echo "== tier-1: tests (offline) =="
cargo test -q --offline --workspace

echo "== rustdoc (offline; warnings are errors, so no doc link names a missing item) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

echo "== clippy (offline; warnings are errors) =="
cargo clippy -q --offline --workspace --all-targets -- -D warnings

echo "== serve soak (offline, fixed seed, 64 tenants) =="
cargo test -q -p annolight-serve --release --offline -- soak

echo "== stream crate in isolation (offline) =="
cargo test -q -p annolight-stream --offline

echo "== codec crate in isolation (offline; annolight-core is not in its dependency graph) =="
cargo test -q -p annolight-codec --offline

echo "== wire decoders in release too (integer overflow panics in debug, wraps in release) =="
cargo test -q --release --offline --test robustness
cargo test -q --release --offline -p annolight-codec --lib

echo "== renderer and RNG units in release too (their oracle properties cover the sums release wraps) =="
cargo test -q --release --offline -p annolight-video --lib
cargo test -q --release --offline -p annolight-support --lib

# double_run NAME LOG_VAR [ENV=VALUE ...] -- CARGO_TEST_ARGS...
#
# Runs `cargo test -q --release --offline CARGO_TEST_ARGS` twice with
# LOG_VAR pointing at a fresh file each time (plus the given environment,
# e.g. a fixed ANNOLIGHT_CHECK_SEED), checks the first log was written,
# and `cmp`s the two: identical builds must write identical bytes.
LOG_DIR="$(mktemp -d)"
trap 'rm -rf "$LOG_DIR"' EXIT
double_run() {
  local name="$1" log_var="$2"
  shift 2
  local vars=()
  while [ "$1" != "--" ]; do
    vars+=("$1")
    shift
  done
  shift
  local run
  for run in a b; do
    env "${vars[@]}" "$log_var=$LOG_DIR/$name.$run" \
      cargo test -q --release --offline "$@"
  done
  test -s "$LOG_DIR/$name.a" || { echo "$name log was not written"; exit 1; }
  cmp "$LOG_DIR/$name.a" "$LOG_DIR/$name.b" \
    || { echo "$name logs diverged between identical runs"; exit 1; }
}

echo "== fault-injection determinism guard (same seed twice, diff logs) =="
double_run fault ANNOLIGHT_FAULT_LOG ANNOLIGHT_CHECK_SEED=0xA110 -- --test fault_injection

echo "== parallel-identity determinism guard (same seed twice, diff digest logs) =="
# Single test thread so the digest log's line order is stable; the
# digests themselves are scheduling-independent by construction.
double_run parallel-identity ANNOLIGHT_IDENTITY_LOG ANNOLIGHT_CHECK_SEED=0xBA61 -- \
  --test parallel_identity -- --test-threads=1

echo "== codec fast-path identity guard (same seed twice, diff digest logs) =="
# Single test thread so the digest log's line order is stable; the
# digests cover both the bitstream bytes and the decoded YUV planes.
double_run codec ANNOLIGHT_CODEC_LOG ANNOLIGHT_CHECK_SEED=0xC0DE -- \
  -p annolight-codec --test fastpath_identity -- --test-threads=1

echo "== codec kernel-tier guard (scalar tier must write the default tier's digest log) =="
# The transform, quantiser and search kernels are chosen by
# ANNOLIGHT_KERNEL_TIER; every tier must emit the same bytes and planes.
env ANNOLIGHT_CHECK_SEED=0xC0DE ANNOLIGHT_KERNEL_TIER=scalar \
  ANNOLIGHT_CODEC_LOG="$LOG_DIR/codec.scalar" \
  cargo test -q --release --offline -p annolight-codec --test fastpath_identity -- --test-threads=1
cmp "$LOG_DIR/codec.a" "$LOG_DIR/codec.scalar" \
  || { echo "codec digest log differs between the scalar and default kernel tiers"; exit 1; }

echo "== workload SLO determinism guard (same seed twice, diff summary logs) =="
double_run workload-slo ANNOLIGHT_SLO_LOG -- --test workload_slo

echo "== reactor determinism guard (same seed twice, diff schedule logs) =="
double_run reactor ANNOLIGHT_REACTOR_LOG -- --test reactor_determinism

echo "== governor budget-conformance guard (same seed twice, diff decision logs) =="
double_run governor ANNOLIGHT_GOVERNOR_LOG -- --test governor_budget

echo "== policy conformance guard (same matrix twice, diff plan-digest logs) =="
double_run policy ANNOLIGHT_POLICY_LOG -- --test policy_conformance

echo "== pipeline-identity conformance guard (SIMD tiers + batched scheduling, same seed twice, diff digest logs) =="
# Single test thread so the digest log's line order is stable; the
# digests cover every kernel tier, the batched proxy scheduler, and the
# randomized ragged-geometry properties.
double_run pipeline ANNOLIGHT_PIPELINE_LOG ANNOLIGHT_CHECK_SEED=0x51BD -- \
  --test pipeline_identity -- --test-threads=1

echo "== allocation-regression guard (0 allocations/frame warm steady state) =="
cargo test -q --release --offline --test alloc_steady

echo "== goldens on the inline path (one CPU: the server's GOP fan-out and the profile memo's start no thread) =="
# Both fan-outs take their worker count from the host's available
# parallelism, which `taskset -c 0` makes 1, so this run checks that the
# inline path serves the same bytes as the fanned-out one above.
if command -v taskset >/dev/null 2>&1; then
  taskset -c 0 cargo test -q --offline --test session_golden --test end_to_end
else
  echo "taskset not found: skipped the one-CPU golden run"
fi

echo "== annobench tests (its own package; smoke-runs every workload against golden.json) =="
cargo test -q --offline --manifest-path annobench/Cargo.toml

echo "== policy tournament smoke (--test mode, 27 cells, double-run deterministic) =="
cargo run -q --release --offline -p annolight-bench --bin tab_policies -- --test

echo "== governor budget smoke (--test mode, within-budget, double-run deterministic) =="
cargo run -q --release --offline -p annolight-bench --bin ext_governor -- --test

echo "== reactor scale smoke (--test mode, >=100k sessions within a 256 MiB peak RSS, double-run deterministic) =="
cargo run -q --release --offline -p annolight-bench --bin reactor_scale -- --test

echo "== fleet SLO smoke (--test mode, double-run deterministic) =="
cargo run -q --release --offline -p annolight-bench --bin serve_slo -- --test

echo "== pipeline throughput smoke (--test mode, >=2x best-SIMD-row floor vs scalar LUT) =="
cargo run -q --release --offline -p annolight-bench --bin pipeline_throughput -- --test

echo "== codec throughput smoke (--test mode, >=3x inline encode and >=4.25x inline decode floors; §4.3 client work under 1 % of a decoded frame and under per-frame histogram analysis) =="
cargo run -q --release --offline -p annolight-bench --bin codec_throughput -- --test

echo "== non-test lines per crate (informational, not a gate) =="
scripts/loc.sh

echo "CI green."
