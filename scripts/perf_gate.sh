#!/usr/bin/env bash
# CI performance gate: run the wmh-perf quick suite (release build) and
# compare per-workload medians against the checked-in baseline,
# results/BENCH_baseline.json. A workload that slows by more than the
# tolerance — or disappears from the suite — fails the gate. Workloads
# over tolerance are re-measured individually (a scheduler burst on a
# shared machine slows one sample batch, not every retry; a genuine
# regression reproduces on all of them).
#
# Environment:
#   WMH_SKIP_PERF=1    skip the gate entirely (shared/noisy machines).
#   WMH_PERF_TOL       regression tolerance as a fraction (default 0.25,
#                      i.e. fail on a >25% median slowdown).
#   WMH_PERF_RETRIES   targeted re-measurements per suspect workload
#                      (default 2).
#
# The baseline is machine-dependent. After an intentional perf change (or
# on a new machine), refresh it and commit the result:
#   cargo run --release -p wmh-perf -- run --profile quick \
#     --out results/BENCH_baseline.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${WMH_SKIP_PERF:-0}" == "1" ]]; then
  echo "==> skipping perf gate (WMH_SKIP_PERF=1)"
  exit 0
fi

cargo build --release -q -p wmh-perf
./target/release/wmh-perf gate \
  --profile quick \
  --baseline results/BENCH_baseline.json \
  --out target/perf/BENCH_current.json \
  --tolerance "${WMH_PERF_TOL:-0.25}" \
  --retries "${WMH_PERF_RETRIES:-2}"

