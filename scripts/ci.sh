#!/usr/bin/env bash
# Full CI pass: build, test, lint, and a quick benchmark smoke run.
#
# Everything runs offline against the vendored shim crates — CI machines
# need the Rust toolchain and nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== tests =="
cargo test --workspace --offline --quiet

echo "== perfbench determinism self-test =="
# Per-layer counts must reproduce run to run and move with the seed: the
# check that a host-only change left the simulated model alone.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "== clippy (warnings are errors) =="
cargo clippy --all-targets --offline -- -D warnings

echo "== bench smoke: bytecode VM + translation cache =="
./target/release/a7_bytecode --quick

echo "== bench smoke: KGCC fs module (E7) + check elimination (A2) =="
# Gate: every paper-shape row E7 and A2 print must read OK; one DIFF row
# fails the pass. Both report simulated cycles and check counts only, so
# the rows are exact on any machine.
for bin in e7_kgcc a2_kgcc_ablate; do
    out=$(./target/release/"${bin}")
    rows=$(echo "${out}" | grep -E '^[AE][0-9]+ .* (OK|DIFF)$' || true)
    echo "${rows}"
    if [ -z "${rows}" ] || echo "${rows}" | grep -q ' DIFF$'; then
        echo "${bin}: missing or DIFF shape rows" >&2
        exit 1
    fi
done

echo "== bench smoke: fault sweep (runs twice; trace must reproduce) =="
./target/release/a8_faultsweep --quick
h1=$(./target/release/a8_faultsweep --quick | grep '^TRACE_HASH')
h2=$(./target/release/a8_faultsweep --quick | grep '^TRACE_HASH')
if [ "$h1" != "$h2" ]; then
    echo "fault sweep is not deterministic: '$h1' vs '$h2'" >&2
    exit 1
fi
echo "fault sweep deterministic: $h1"

echo "== bench smoke: knet web server connection sweep =="
./target/release/a9_netserve --quick

echo "== bench smoke: kuring batched-syscall rings =="
./target/release/a10_uring --quick

echo "== bench smoke: host substrate throughput =="
# Gate: the sustained simulated-syscalls/sec must not regress more than
# 25% against the baseline recorded in bench_report.json (written by the
# last full `bench --bin all` run on this machine — host wall-clock rates
# do not transfer between machines, and single runs swing ±15-25%; see
# the A11 notes in EXPERIMENTS.md). Override with THROUGHPUT_MIN=<sps>,
# or set THROUGHPUT_MIN=0 to skip (e.g. on shared/throttled runners).
sps=$(./target/release/a11_throughput --quick | grep '^THROUGHPUT_SPS=' | cut -d= -f2)
echo "sustained: ${sps} simulated syscalls/sec"
if [ -z "${THROUGHPUT_MIN:-}" ] && [ -f bench_report.json ]; then
    baseline=$(grep -A3 '"metric": *"THROUGHPUT_SPS"' bench_report.json \
        | grep -o '"measured": *"[0-9]*"' | grep -o '[0-9]*' || true)
    if [ -n "${baseline}" ]; then
        THROUGHPUT_MIN=$((baseline * 75 / 100))
        echo "baseline ${baseline} sps from bench_report.json (floor: ${THROUGHPUT_MIN})"
    fi
fi
if [ -n "${THROUGHPUT_MIN:-}" ] && [ "${THROUGHPUT_MIN}" -gt 0 ]; then
    if [ "${sps}" -lt "${THROUGHPUT_MIN}" ]; then
        echo "throughput regression: ${sps} < ${THROUGHPUT_MIN} sps" >&2
        exit 1
    fi
else
    echo "no baseline recorded; skipping the regression gate"
fi

echo "== bench smoke: SMP scaling sweep =="
# Gate: 8-CPU uring req/sec must reach at least SMP_MIN x the 1-CPU rate.
# Both rates are simulated (critical-path cycles), so unlike the wall-clock
# throughput gate this transfers between machines. Override the factor with
# SMP_MIN=<x>, or set SMP_MIN=0 to skip.
SMP_MIN=${SMP_MIN:-3}
smp_out=$(./target/release/a12_smp --quick)
echo "${smp_out}" | grep -E '^(SMP_RPS_|SMP_SPS=)' || true
u1=$(echo "${smp_out}" | grep '^SMP_RPS_URING_1=' | cut -d= -f2)
u8=$(echo "${smp_out}" | grep '^SMP_RPS_URING_8=' | cut -d= -f2)
if [ "${SMP_MIN}" -gt 0 ]; then
    if [ -z "${u1}" ] || [ -z "${u8}" ] || [ "${u1}" -eq 0 ]; then
        echo "SMP sweep produced no uring rates" >&2
        exit 1
    fi
    if [ "${u8}" -lt $((u1 * SMP_MIN)) ]; then
        echo "SMP scaling regression: uring 8-CPU ${u8} < ${SMP_MIN}x 1-CPU ${u1}" >&2
        exit 1
    fi
    echo "SMP scaling ok: uring ${u1} -> ${u8} req/sec (>= ${SMP_MIN}x)"
else
    echo "SMP_MIN=0; skipping the SMP scaling gate"
fi

echo "== bench smoke: power-cut crash sweep (runs twice; must reproduce) =="
# Gate: every kill point of every sweep — the 50-op workload under all
# three journal modes plus the multi-block-directory workload, clean-cut
# AND torn-write — must recover with zero invariant violations; the
# guarded-write total must match the recorded count (a silent change in
# kill coverage is a harness regression); and two whole runs must reduce
# to the same TRACE_HASH word (the sweep is deterministic by design).
# Override the count with A13_POINTS=<n>, or A13_POINTS=0 to skip.
A13_POINTS=${A13_POINTS:-578}
c1=$(./target/release/a13_crashsweep)
echo "${c1}" | grep -E '^(50-op mix|dir extents)' || true
if echo "${c1}" | grep -E '^(50-op mix|dir extents)' \
    | awk '{v=$(NF-1)} v+0 > 0 {bad=1} END {exit bad}'; then :; else
    echo "crash sweep found invariant violations" >&2
    exit 1
fi
points=$(echo "${c1}" | grep '^A13_SWEEP_POINTS' | awk '{print $2}')
if [ "${A13_POINTS}" -gt 0 ] && [ "${points:-0}" -ne "${A13_POINTS}" ]; then
    echo "crash sweep kill-point total drifted: ${points:-none} != ${A13_POINTS}" >&2
    exit 1
fi
h1=$(echo "${c1}" | grep '^TRACE_HASH')
h2=$(./target/release/a13_crashsweep | grep '^TRACE_HASH')
if [ "$h1" != "$h2" ]; then
    echo "crash sweep is not deterministic: '$h1' vs '$h2'" >&2
    exit 1
fi
echo "crash sweep deterministic: ${points} kill points, $h1"

# ratio_gate VAR MIN BIN LINE WHAT OK_FORMAT: run BIN --quick, read the
# x100 ratio on its LINE machine line, and fail unless it reaches MIN
# (VAR=0 skips the gate). OK_FORMAT prints the passing ratio.
ratio_gate() {
    local var=$1 min=$2 bin=$3 line=$4 what=$5 ok=$6 out ratio
    out=$(./target/release/"${bin}" --quick)
    echo "${out}" | grep "^${line}" || true
    ratio=$(echo "${out}" | grep "^${line}" | awk '{print $2}')
    if [ "${min}" -gt 0 ]; then
        if [ -z "${ratio}" ]; then
            echo "${what} produced no ratio" >&2
            exit 1
        fi
        if [ "${ratio}" -lt "${min}" ]; then
            echo "${what} regression: ratio ${ratio} < ${min} (x100)" >&2
            exit 1
        fi
        # shellcheck disable=SC2059
        printf "${ok}\n" $((ratio / 100)) $((ratio % 100))
    else
        echo "${var}=0; skipping the ${what} gate"
    fi
}

echo "== bench smoke: kprog verified CQE programs =="
# Gate: the kernel-walked pointer chase must beat the user-space
# drain/resubmit loop by at least KPROG_MIN/100 x in cycles per hop.
# Both sides are simulated cycles, so the ratio transfers between
# machines. Override with KPROG_MIN=<ratio x100>, or KPROG_MIN=0 to skip.
ratio_gate KPROG_MIN "${KPROG_MIN:-200}" a14_kprog A14_CHASE_RATIO_X100 "kprog chase" \
    'kprog chase ok: kernel walk is %d.%02dx the user loop'

echo "== bench smoke: pipelined journal + group commit =="
# Gate: on the 8-thread fsync convoy, group commit must beat the
# single-live-transaction journal by at least JOURNAL_MIN/100 x in
# cycles per op. Both sides are simulated cycles, so the ratio transfers
# between machines. Override with JOURNAL_MIN=<ratio x100>, or
# JOURNAL_MIN=0 to skip.
ratio_gate JOURNAL_MIN "${JOURNAL_MIN:-150}" a15_journal A15_JOURNAL_RATIO_X100 \
    "journal convoy" 'journal convoy ok: group commit is %d.%02dx the single-txn journal'

echo "CI pass complete."
