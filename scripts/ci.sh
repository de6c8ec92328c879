#!/usr/bin/env bash
# Pre-PR gate: build, test, format, lint. Everything here is offline-safe —
# the workspace has no registry dependencies.
#
# Usage: scripts/ci.sh [--quick] [--only STEP] [--list]
#
# --quick is the inner-loop mode (see CONTRIBUTING.md): debug builds and
# scaled-down statistical suites, so it finishes in a few minutes. It
# skips the `ab` benchmark comparison, which takes about half an hour.
# The full (default) mode is the merge gate.
#
# --only STEP runs a single named step (combine with --quick for a fast
# debug-build iteration on one gate); --list prints the step names with
# one-line descriptions and exits.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() { echo "usage: scripts/ci.sh [--quick] [--only STEP] [--list]" >&2; }

QUICK=0
ONLY=""
LIST=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --only)
      [[ $# -ge 2 ]] || { usage; exit 2; }
      ONLY="$2"
      shift
      ;;
    --list) LIST=1 ;;
    *)
      usage
      exit 2
      ;;
  esac
  shift
done

FULL_CHECK_CASES=6
FULL_CHAOS_CASES=100000
if [[ "$QUICK" == "1" ]]; then
  RELEASE=()
  CHECK_CASES_DEFAULT=2
  CHAOS_CASES_DEFAULT=5000
else
  RELEASE=(--release)
  CHECK_CASES_DEFAULT=$FULL_CHECK_CASES
  CHAOS_CASES_DEFAULT=$FULL_CHAOS_CASES
fi

# Effective suite-scaling env, exported once so EVERY cargo invocation
# below sees the same values — including the plain `--workspace` test run,
# which executes the conformance/chaos binaries too. (Before this export
# the scaled counts were set inline on the dedicated steps only, so the
# workspace run silently used the in-code defaults: 24 conformance reps
# even under --quick. The env-scaling step asserts this plumbing.)
USER_CHECK_CASES="${WMH_CHECK_CASES:-}"
USER_CHAOS_CASES="${WMH_CHAOS_CASES:-}"
export WMH_CHECK_CASES="${WMH_CHECK_CASES:-$CHECK_CASES_DEFAULT}"
export WMH_CHAOS_CASES="${WMH_CHAOS_CASES:-$CHAOS_CASES_DEFAULT}"
export WMH_FAULT_SEED="${WMH_FAULT_SEED:-0xC1A05}"

run() {
  echo "==> $*"
  "$@"
}

# --- step registry -----------------------------------------------------
# Each step is a function step_<name> (dashes become underscores); the
# registry drives --list, --only validation, and the default full order.
STEP_NAMES=()
STEP_DESCS=()
register() {
  STEP_NAMES+=("$1")
  STEP_DESCS+=("$2")
}

register env-scaling "assert the exported WMH_*_CASES plumbing and --quick scaling"
register build "cargo build across the workspace"
register test "cargo test across the workspace, parallel and --test-threads=1"
register conformance "estimator-conformance suite (WMH_CHECK_CASES scales it)"
register catalog "CLI catalog-count pin (expect 15 algorithms)"
register panic-gate "static no-panic gate over the sketching core"
register chaos "adversarial chaos suite (WMH_CHAOS_CASES scales it)"
register determinism "1-vs-N-thread byte-identity for the parallel sweep"
register failpoints "wmh-fault scenario suite with failpoints on"
register chaos-soak "Figure-8 sweep under randomized transient fault schedules"
register serve-soak "wmh-serve quarantine/recovery chaos soak"
register mutation-soak "WAL kill-resume byte-identity at every commit failpoint"
register snapshot-soak "durability-lifecycle kill-resume soak"
register scrub-gate "flipped-bit detection/quarantine/heal, called out by name"
register schema-check "every checked-in results/*.json matches its schema"
register bench-check "test and smoke-run the repository benchmark (its own workspace)"
register ab "same-host benchmark A/B against the merge base with main (full mode only)"
register fmt "cargo fmt --check (advisory if rustfmt missing)"
register clippy "cargo clippy -D warnings (advisory if clippy missing)"
register doc "cargo doc with RUSTDOCFLAGS=-D warnings: the docs stay warning-free"

step_env_scaling() {
  # A child process must observe the exported effective values (this is
  # what the workspace test run sees), and --quick must scale strictly
  # below the full-mode counts unless the caller overrode them.
  local seen_check seen_chaos
  seen_check="$(bash -c 'printf %s "${WMH_CHECK_CASES:-unset}"')"
  seen_chaos="$(bash -c 'printf %s "${WMH_CHAOS_CASES:-unset}"')"
  if [[ "$seen_check" != "$WMH_CHECK_CASES" || "$seen_chaos" != "$WMH_CHAOS_CASES" ]]; then
    echo "env plumbing broken: child saw WMH_CHECK_CASES=$seen_check" \
      "WMH_CHAOS_CASES=$seen_chaos (wanted $WMH_CHECK_CASES / $WMH_CHAOS_CASES)" >&2
    return 1
  fi
  if [[ "$QUICK" == "1" && -z "$USER_CHECK_CASES" ]] \
    && ((WMH_CHECK_CASES >= FULL_CHECK_CASES)); then
    echo "--quick did not scale WMH_CHECK_CASES ($WMH_CHECK_CASES >= $FULL_CHECK_CASES)" >&2
    return 1
  fi
  if [[ "$QUICK" == "1" && -z "$USER_CHAOS_CASES" ]] \
    && ((WMH_CHAOS_CASES >= FULL_CHAOS_CASES)); then
    echo "--quick did not scale WMH_CHAOS_CASES ($WMH_CHAOS_CASES >= $FULL_CHAOS_CASES)" >&2
    return 1
  fi
  echo "    effective WMH_CHECK_CASES=$WMH_CHECK_CASES" \
    "WMH_CHAOS_CASES=$WMH_CHAOS_CASES WMH_FAULT_SEED=$WMH_FAULT_SEED (quick=$QUICK)"
}

step_build() {
  run cargo build "${RELEASE[@]}" --workspace
}

# Every red binary is reported (--no-fail-fast), in parallel and serially.
step_test() {
  run cargo test "${RELEASE[@]}" --workspace --no-fail-fast -q
  run cargo test "${RELEASE[@]}" --workspace --no-fail-fast -q -- --test-threads=1
}

# Estimator-conformance suite. WMH_CHECK_CASES scales it (the CLT bound
# tightens as repetitions grow, so a nightly run with a larger count is a
# stricter gate, not just a longer one).
step_conformance() {
  run cargo test "${RELEASE[@]}" -p wmh-core --test conformance -q
}

# Catalog-count pin: the CLI must list exactly the 15 registered algorithms
# (the paper's 13 + DartMinHash/BagMinHash). A silently unregistered
# sketcher would shrink every ALL-driven suite without failing any test —
# this step (and conformance's catalog_pins_fifteen_algorithms) makes that
# loud.
step_catalog() {
  echo "==> catalog count pin (expect 15 algorithms)"
  local algo_count
  algo_count="$(cargo run "${RELEASE[@]}" -q --bin wmh -- algorithms | wc -l)"
  if [[ "$algo_count" != "15" ]]; then
    echo "catalog lists $algo_count algorithms, expected 15" >&2
    return 1
  fi
}

# Static no-panic gate: non-test code in the sketching core must not
# unwrap/expect/panic outside the checked-in allowlist
# (scripts/panic_allowlist.txt).
step_panic_gate() {
  run scripts/panic_gate.sh
}

# Adversarial chaos suite: hostile weights and index layouts against all
# 15 algorithms — no panic, no hang, typed errors or full-length
# deterministic sketches only. WMH_CHAOS_CASES scales it.
step_chaos() {
  run cargo test "${RELEASE[@]}" -p wmh-core --test chaos -q
}

# 1-vs-N-thread determinism: the parallel sweep must return byte-identical
# results at every thread count, and the committer must never interleave
# partial checkpoint lines.
step_determinism() {
  run cargo test "${RELEASE[@]}" -p wmh-eval --test determinism -q
}

# Failpoint machinery: the wmh-fault crate's own scenario suite
# (points compile to no-ops without the feature, so it must be explicit).
step_failpoints() {
  run cargo test "${RELEASE[@]}" -p wmh-fault --features failpoints -q
}

# Chaos soak: the Figure 8 sweep under randomized transient fault schedules
# must finish byte-identical to a fault-free run at 1 and 8 threads, and
# timed-out / quarantined cells must stay terminal across resume. The soak
# runs its built-in seeds plus the pinned WMH_FAULT_SEED exported above;
# override the pin to probe new schedules (determinism holds for any seed,
# so a failure under a fresh seed is a real bug, not flakiness).
step_chaos_soak() {
  run cargo test "${RELEASE[@]}" -p wmh-eval --features wmh-fault/failpoints \
    --test chaos_soak --test supervision -q
}

# Serving chaos soak: quarantine/recovery byte-identity, typed outcomes
# under injected shard/admission faults, and supervised ingest retry — the
# wmh-serve robustness envelope under the same pinned seed.
step_serve_soak() {
  run cargo test "${RELEASE[@]}" -p wmh-serve --features wmh-fault/failpoints \
    --test chaos_soak -q
}

# Mutation chaos soak: kill-resume recovery over the write-ahead log must
# replay byte-identical with faults injected at every commit-path failpoint
# (serve::wal_append, serve::wal_fsync, serve::apply, serve::reshard) at
# 1/2/8 shards; torn tails discard, exhausted appends flip read-only, and
# re-shards converge byte-identical to from-scratch partitions.
step_mutation_soak() {
  run cargo test "${RELEASE[@]}" -p wmh-serve --features wmh-fault/failpoints \
    --test mutation_soak -q
}

# Durability-lifecycle soak: kill-resume byte-identity with faults at every
# lifecycle failpoint (serve::snapshot_write/fsync/rename, serve::wal_rotate,
# serve::scrub) at 1/2/8 shards; compaction-bounded replay pinned by the
# serve::wal_replay hit counter; one-generation fallback from a flipped bit;
# ENOSPC-style snapshot aborts; half-open write-gate recovery.
step_snapshot_soak() {
  run cargo test "${RELEASE[@]}" -p wmh-serve --features wmh-fault/failpoints \
    --test snapshot_soak -q
}

# Scrub gate, called out by name: a flipped bit in a snapshot AND a sealed
# WAL segment must be detected, quarantined to *.bad, and healed with a
# fresh snapshot under the pinned seed — query bytes unchanged.
step_scrub_gate() {
  run cargo test "${RELEASE[@]}" -p wmh-serve --features wmh-fault/failpoints \
    --test snapshot_soak scrub_detects_flipped_bits_and_heals -q
}

# Every checked-in results/*.json must match its registered schema
# (crates/eval/src/schemas.rs); an unregistered file name is a failure.
# Called out by name, like scrub-gate.
step_schema_check() {
  run cargo test "${RELEASE[@]}" -p wmh-eval --lib every_checked_in_result_file_validates -q
}

# The repository benchmark (benchmark/) is its own workspace with path
# dependencies on the serve crate, so the workspace build above does not
# compile it: a serve API change could break it unnoticed. Test it, then
# run every workload once at smoke scale.
step_bench_check() {
  run cargo test --offline --manifest-path benchmark/Cargo.toml
  run cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload all --smoke
}

# Performance gate: the repository benchmark, this tree against the merge
# base with main, in interleaved same-host pairs (scripts/ab.sh). On main
# itself that compares the parent with itself, which must pass.
step_ab() {
  if [[ "$QUICK" == "1" ]]; then
    echo "==> skipping ab (--quick: the benchmark takes about half an hour)"
  else
    run scripts/ab.sh "$(git merge-base HEAD main)"
  fi
}

# Formatting and lints are advisory if the components are not installed
# (minimal toolchains ship without rustfmt/clippy).
step_fmt() {
  if cargo fmt --version >/dev/null 2>&1; then
    run cargo fmt --all -- --check
  else
    echo "==> skipping cargo fmt (rustfmt not installed)"
  fi
}

step_clippy() {
  if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --workspace --all-targets -- -D warnings
  else
    echo "==> skipping cargo clippy (clippy not installed)"
  fi
}

# Rustdoc warnings (broken or private intra-doc links, ambiguous names)
# fail the gate: CONTRIBUTING requires warning-free docs.
step_doc() {
  RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps -q
}

# --- driver ------------------------------------------------------------

if [[ "$LIST" == "1" ]]; then
  for i in "${!STEP_NAMES[@]}"; do
    printf '%-16s %s\n' "${STEP_NAMES[$i]}" "${STEP_DESCS[$i]}"
  done
  exit 0
fi

run_step() {
  local fn="step_${1//-/_}"
  "$fn"
}

if [[ -n "$ONLY" ]]; then
  found=0
  for name in "${STEP_NAMES[@]}"; do
    [[ "$name" == "$ONLY" ]] && found=1
  done
  if [[ "$found" != "1" ]]; then
    echo "unknown step '$ONLY' (scripts/ci.sh --list shows the names)" >&2
    exit 2
  fi
  run_step "$ONLY"
  echo "CI step '$ONLY' passed."
  exit 0
fi

for name in "${STEP_NAMES[@]}"; do
  run_step "$name"
done

echo "CI gate passed."
