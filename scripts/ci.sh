#!/usr/bin/env bash
# Tier-1 CI gate: hermetic (offline, empty-registry) build + full test
# suite + bench compilation. Mirrors ROADMAP.md's verify step; run from
# anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build (offline) =="
cargo build --release --offline --workspace

echo "== tier-1: tests (offline) =="
cargo test -q --offline --workspace

echo "== benches compile (offline) =="
cargo bench --offline --workspace --no-run

echo "== serve soak (offline, fixed seed, 64 tenants) =="
cargo test -q -p annolight-serve --release --offline -- soak

echo "== stream crate in isolation (offline) =="
cargo test -q -p annolight-stream --offline

echo "== fault-injection determinism guard (same seed twice, diff logs) =="
FAULT_LOG_A="$(mktemp)"
FAULT_LOG_B="$(mktemp)"
IDENT_LOG_A="$(mktemp)"
IDENT_LOG_B="$(mktemp)"
CODEC_LOG_A="$(mktemp)"
CODEC_LOG_B="$(mktemp)"
SLO_LOG_A="$(mktemp)"
SLO_LOG_B="$(mktemp)"
REACTOR_LOG_A="$(mktemp)"
REACTOR_LOG_B="$(mktemp)"
GOVERNOR_LOG_A="$(mktemp)"
GOVERNOR_LOG_B="$(mktemp)"
POLICY_LOG_A="$(mktemp)"
POLICY_LOG_B="$(mktemp)"
PIPELINE_LOG_A="$(mktemp)"
PIPELINE_LOG_B="$(mktemp)"
trap 'rm -f "$FAULT_LOG_A" "$FAULT_LOG_B" "$IDENT_LOG_A" "$IDENT_LOG_B" "$CODEC_LOG_A" "$CODEC_LOG_B" "$SLO_LOG_A" "$SLO_LOG_B" "$REACTOR_LOG_A" "$REACTOR_LOG_B" "$GOVERNOR_LOG_A" "$GOVERNOR_LOG_B" "$POLICY_LOG_A" "$POLICY_LOG_B" "$PIPELINE_LOG_A" "$PIPELINE_LOG_B"' EXIT
ANNOLIGHT_CHECK_SEED=0xA110 ANNOLIGHT_FAULT_LOG="$FAULT_LOG_A" \
  cargo test -q --release --offline --test fault_injection
ANNOLIGHT_CHECK_SEED=0xA110 ANNOLIGHT_FAULT_LOG="$FAULT_LOG_B" \
  cargo test -q --release --offline --test fault_injection
test -s "$FAULT_LOG_A" || { echo "fault event log was not written"; exit 1; }
cmp "$FAULT_LOG_A" "$FAULT_LOG_B" \
  || { echo "fault event logs diverged between identical runs"; exit 1; }

echo "== parallel-identity determinism guard (same seed twice, diff digest logs) =="
# Single test thread so the digest log's line order is stable; the
# digests themselves are scheduling-independent by construction.
ANNOLIGHT_CHECK_SEED=0xBA61 ANNOLIGHT_IDENTITY_LOG="$IDENT_LOG_A" \
  cargo test -q --release --offline --test parallel_identity -- --test-threads=1
ANNOLIGHT_CHECK_SEED=0xBA61 ANNOLIGHT_IDENTITY_LOG="$IDENT_LOG_B" \
  cargo test -q --release --offline --test parallel_identity -- --test-threads=1
test -s "$IDENT_LOG_A" || { echo "parallel-identity digest log was not written"; exit 1; }
cmp "$IDENT_LOG_A" "$IDENT_LOG_B" \
  || { echo "parallel-identity digest logs diverged between identical runs"; exit 1; }

echo "== codec fast-path identity guard (same seed twice, diff digest logs) =="
# Single test thread so the digest log's line order is stable; the
# digests cover both the bitstream bytes and the decoded YUV planes.
ANNOLIGHT_CHECK_SEED=0xC0DE ANNOLIGHT_CODEC_LOG="$CODEC_LOG_A" \
  cargo test -q --release --offline -p annolight-codec --test fastpath_identity -- --test-threads=1
ANNOLIGHT_CHECK_SEED=0xC0DE ANNOLIGHT_CODEC_LOG="$CODEC_LOG_B" \
  cargo test -q --release --offline -p annolight-codec --test fastpath_identity -- --test-threads=1
test -s "$CODEC_LOG_A" || { echo "codec digest log was not written"; exit 1; }
cmp "$CODEC_LOG_A" "$CODEC_LOG_B" \
  || { echo "codec digest logs diverged between identical runs"; exit 1; }

echo "== workload SLO determinism guard (same seed twice, diff summary logs) =="
ANNOLIGHT_SLO_LOG="$SLO_LOG_A" \
  cargo test -q --release --offline --test workload_slo
ANNOLIGHT_SLO_LOG="$SLO_LOG_B" \
  cargo test -q --release --offline --test workload_slo
test -s "$SLO_LOG_A" || { echo "workload SLO summary log was not written"; exit 1; }
cmp "$SLO_LOG_A" "$SLO_LOG_B" \
  || { echo "workload SLO summaries diverged between identical runs"; exit 1; }

echo "== reactor determinism guard (same seed twice, diff schedule logs) =="
ANNOLIGHT_REACTOR_LOG="$REACTOR_LOG_A" \
  cargo test -q --release --offline --test reactor_determinism
ANNOLIGHT_REACTOR_LOG="$REACTOR_LOG_B" \
  cargo test -q --release --offline --test reactor_determinism
test -s "$REACTOR_LOG_A" || { echo "reactor schedule log was not written"; exit 1; }
cmp "$REACTOR_LOG_A" "$REACTOR_LOG_B" \
  || { echo "reactor schedule logs diverged between identical runs"; exit 1; }

echo "== governor budget-conformance guard (same seed twice, diff decision logs) =="
ANNOLIGHT_GOVERNOR_LOG="$GOVERNOR_LOG_A" \
  cargo test -q --release --offline --test governor_budget
ANNOLIGHT_GOVERNOR_LOG="$GOVERNOR_LOG_B" \
  cargo test -q --release --offline --test governor_budget
test -s "$GOVERNOR_LOG_A" || { echo "governor decision log was not written"; exit 1; }
cmp "$GOVERNOR_LOG_A" "$GOVERNOR_LOG_B" \
  || { echo "governor decision logs diverged between identical runs"; exit 1; }

echo "== policy conformance guard (same matrix twice, diff plan-digest logs) =="
ANNOLIGHT_POLICY_LOG="$POLICY_LOG_A" \
  cargo test -q --release --offline --test policy_conformance
ANNOLIGHT_POLICY_LOG="$POLICY_LOG_B" \
  cargo test -q --release --offline --test policy_conformance
test -s "$POLICY_LOG_A" || { echo "policy plan-digest log was not written"; exit 1; }
cmp "$POLICY_LOG_A" "$POLICY_LOG_B" \
  || { echo "policy plan digests diverged between identical runs"; exit 1; }

echo "== pipeline-identity conformance guard (SIMD tiers + batched scheduling, same seed twice, diff digest logs) =="
# Single test thread so the digest log's line order is stable; the
# digests cover every kernel tier, the batched proxy scheduler, and the
# randomized ragged-geometry properties.
ANNOLIGHT_CHECK_SEED=0x51BD ANNOLIGHT_PIPELINE_LOG="$PIPELINE_LOG_A" \
  cargo test -q --release --offline --test pipeline_identity -- --test-threads=1
ANNOLIGHT_CHECK_SEED=0x51BD ANNOLIGHT_PIPELINE_LOG="$PIPELINE_LOG_B" \
  cargo test -q --release --offline --test pipeline_identity -- --test-threads=1
test -s "$PIPELINE_LOG_A" || { echo "pipeline digest log was not written"; exit 1; }
cmp "$PIPELINE_LOG_A" "$PIPELINE_LOG_B" \
  || { echo "pipeline digest logs diverged between identical runs"; exit 1; }

echo "== allocation-regression guard (0 allocations/frame warm steady state) =="
cargo test -q --release --offline --test alloc_steady

echo "== annobench tests (its own package; smoke-runs every workload against golden.json) =="
cargo test -q --offline --manifest-path annobench/Cargo.toml

echo "== policy tournament smoke (--test mode, 27 cells, double-run deterministic) =="
cargo run -q --release --offline -p annolight-bench --bin tab_policies -- --test

echo "== governor budget smoke (--test mode, within-budget, double-run deterministic) =="
cargo run -q --release --offline -p annolight-bench --bin ext_governor -- --test

echo "== reactor scale smoke (--test mode, >=100k sessions, double-run deterministic) =="
cargo run -q --release --offline -p annolight-bench --bin reactor_scale -- --test

echo "== fleet SLO smoke (--test mode, double-run deterministic) =="
cargo run -q --release --offline -p annolight-bench --bin serve_slo -- --test

echo "== pipeline throughput smoke (--test mode, >=2x best-SIMD-row floor vs scalar LUT) =="
cargo run -q --release --offline -p annolight-bench --bin pipeline_throughput -- --test

echo "== codec throughput smoke (--test mode, >=3x inline encode floor) =="
cargo run -q --release --offline -p annolight-bench --bin codec_throughput -- --test

echo "CI green."
