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
# --locked: a manifest change shipped without its Cargo.lock update fails
# here instead of being resolved silently.
cargo build --release --workspace --offline --locked

echo "== tests =="
# Includes tests/integration_host_cost.rs, the host-cost gate: the exact
# heap allocations per warm op on every path into the dispatcher.
cargo test --workspace --offline --locked --quiet

echo "== perfbench determinism self-test =="
# Per-layer counts must reproduce run to run and move with the seed: the
# check that a host-only change left the simulated model alone.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== clippy (warnings are errors) =="
cargo clippy --all-targets --offline --locked -- -D warnings

echo "== rustdoc (warnings are errors) =="
# Catches doc links left stale by a rename or a deletion.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --locked

echo "== every experiment and ablation (E1-E7, A1-A15) =="
# `all` exits non-zero when any shape row reads DIFF. Host-timed rows are
# printed as a trend but not gated. It runs in a scratch directory so the
# committed bench_report.json is not rewritten.
work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT
(cd "${work}" && "${root}/target/release/all")

echo "== workspace .rs line count (trend, not gated) =="
# The figure the ROADMAP's quality goal tracks. perfbench is its own
# workspace and is not counted.
find crates shims tests examples -name '*.rs' -not -path '*/target/*' -exec cat {} + | wc -l

echo "CI pass complete."
