#!/usr/bin/env bash
# Full CI pass: build, test, lint, and every experiment's shape rows.
#
# Everything runs offline against the vendored shim crates — CI machines
# need the Rust toolchain and nothing else. There are no knobs: every gate
# below is exact on any machine.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== tests =="
# Includes tests/integration_host_cost.rs, the host-cost gate: the exact
# heap allocations per warm op on every path into the dispatcher.
cargo test --workspace --offline --quiet

echo "== perfbench determinism self-test =="
# Per-layer counts must reproduce run to run and move with the seed: the
# check that a host-only change left the simulated model alone.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== clippy (warnings are errors) =="
cargo clippy --all-targets --offline -- -D warnings

echo "== every experiment and ablation (E1-E7, A1-A15) =="
# `all` exits non-zero when any shape row reads DIFF. Host-timed rows are
# printed as a trend but not gated. It runs in a scratch directory so the
# committed bench_report.json is not rewritten.
work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT
(cd "${work}" && "${root}/target/release/all")

echo "CI pass complete."
