#!/usr/bin/env bash
# Same-host A/B of the repository benchmark: the working tree (the change)
# against REV (the base).
#
# REV is checked out in a git worktree under target/ab/ (removed on exit).
# The benchmark is built for each side from that side's own tree root, so
# each side uses its own .cargo/config.toml, into its own target directory
# under .bench_build/. The command, run length and workloads come from
# BENCHMARK.json. Each workload runs 10 pairs; both sides of a pair use
# the same seed, and the side that runs first alternates between pairs.
# Every run's log and its env and result lines are kept in target/ab/.
# Leave the working tree's sources alone while it runs: the command is
# `cargo run`, which would rebuild the change side mid-comparison.
#
# It refuses to compare when the two sides' env blocks differ in anything
# but git_rev, git_dirty and seed (another host, toolchain, codegen or
# benchmark version). For each workload and end-to-end metric it prints
# both medians, each side's spread (interquartile range over median), how
# much worse the change's median is and the bound; a metric whose spread
# exceeds its bound is labelled UNRESOLVED. It exits nonzero when a run
# fails, when a run reports correct=false or more failed operations than
# the base, or when a median is worse than the base's by more than the
# metric's bound.
#
# usage: scripts/ab.sh REV      (e.g. scripts/ab.sh "$(git merge-base HEAD main)")
set -euo pipefail

if [[ $# -ne 1 ]]; then
    echo "usage: scripts/ab.sh REV" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "ab: '$1' is not a commit" >&2
    exit 2
}

pairs=10
ab=$root/target/ab
worktree=$ab/base
runs=$ab/runs.jsonl
mkdir -p "$ab"
git worktree remove --force "$worktree" 2> /dev/null || true
git worktree prune
git worktree add --quiet --detach "$worktree" "$rev"
trap 'git worktree remove --force "$worktree"' EXIT

# The command, workloads and run length, as the spec file states them.
mapfile -t spec < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(" ".join(b["command"]))
print(b["run_seconds"])
print(" ".join(w["name"] for w in b["workloads"]))
')
read -r -a command <<< "${spec[0]}"
seconds=${spec[1]}
read -r -a workloads <<< "${spec[2]}"

declare -A tree=([base]=$worktree [change]=$root)
declare -A target=([base]=$root/.bench_build/ab-base [change]=$root/.bench_build/ab-change)
for side in base change; do
    echo "ab: building the $side side" >&2
    (cd "${tree[$side]}" && CARGO_TARGET_DIR=${target[$side]} \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

# Run one side of a pair and append its env and result lines to $runs.
run_side() {
    local side=$1 workload=$2 seed=$3
    local log=$ab/$workload-$seed-$side.log
    if ! (cd "${tree[$side]}" && CARGO_TARGET_DIR=${target[$side]} \
        "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) \
        > "$log" 2>&1; then
        echo "ab: FAIL: the $side run of $workload seed $seed failed (log: $log)" >&2
        tail -n 20 "$log" >&2
        exit 1
    fi
    python3 - "$log" "$side" "$workload" "$seed" >> "$runs" << 'PY'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
result = json.loads(lines[-1])
print(json.dumps({"side": sys.argv[2], "workload": sys.argv[3], "seed": int(sys.argv[4]),
                  "env": env, "result": result}))
PY
}

# Refuse to compare the last pair when the two env blocks name different
# hosts, toolchains, codegen or benchmark versions.
check_hosts() {
    python3 - "$runs" << 'PY'
import json, sys
a, b = [json.loads(l) for l in open(sys.argv[1]).read().splitlines()[-2:]]
skip = {"git_rev", "git_dirty", "seed"}
diff = sorted(k for k in a["env"].keys() | b["env"].keys()
              if k not in skip and a["env"].get(k) != b["env"].get(k))
if diff:
    for k in diff:
        print(f"ab: env differs in {k}: {a['side']} {a['env'].get(k)!r}, "
              f"{b['side']} {b['env'].get(k)!r}", file=sys.stderr)
    sys.exit("ab: FAIL: the two sides did not run under the same conditions; not comparing")
PY
}

: > "$runs"
for workload in "${workloads[@]}"; do
    for seed in $(seq 1 "$pairs"); do
        if ((seed % 2)); then order=(base change); else order=(change base); fi
        for side in "${order[@]}"; do
            run_side "$side" "$workload" "$seed"
        done
        check_hosts
        echo "ab: $workload pair $seed/$pairs done (${order[0]} first)" >&2
    done
done

echo "ab: base $rev, change $(git rev-parse HEAD) + working tree"
python3 - "$runs" << 'PY'
import json, statistics, sys
bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
breaches = []


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else 0.0


print(f"{'workload':12} {'metric':28} {'base':>12} {'change':>12} {'spread b':>8} "
      f"{'spread c':>8} {'worse':>7} {'bound':>6}")
for w in bench["workloads"]:
    mine = [r for r in rows if r["workload"] == w["name"]]
    side = {s: [r["result"] for r in mine if r["side"] == s] for s in ("base", "change")}
    if not all(r["correct"] for r in side["change"]):
        breaches.append(f"{w['name']}: a change run reported correct=false")
    failed = {s: sum(r["failed"] for r in side[s]) for s in side}
    if failed["change"] > failed["base"]:
        breaches.append(f"{w['name']}: {failed['change']} failed operations against "
                        f"{failed['base']} at the base")
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        vals = {s: [r["metrics"][name]["value"] for r in side[s]] for s in side}
        base, change = (statistics.median(vals[s]) for s in ("base", "change"))
        worse = ((change - base) if lower else (base - change)) / base if base else 0.0
        sb, sc = spread(vals["base"]), spread(vals["change"])
        flag = ""
        if worse > bound:
            flag = " WORSE"
            breaches.append(f"{w['name']} {name}: {worse:+.3f} worse, bound {bound}")
        if max(sb, sc) > bound:
            flag += " UNRESOLVED"
        print(f"{w['name']:12} {name:28} {base:12.5g} {change:12.5g} {sb:8.3f} {sc:8.3f} "
              f"{worse:+7.3f} {bound:6.3f}{flag}")
if breaches:
    print("ab: FAIL:\n  " + "\n  ".join(breaches))
    sys.exit(1)
print("ab: PASS: no median worse than its bound, every run correct")
PY
