#!/usr/bin/env bash
# Run the full benchmark as SETS sets of RUNS runs per workload, each run
# with its own seed, exactly as BENCHMARK.json describes it (same command,
# same --seconds, --trace 0). Every run's env block and result line is kept
# in benchmark/results/set-<k>.jsonl. For each end-to-end metric the script
# prints, per workload, each set's median, quartiles and spread
# (interquartile range over median) and how much worse its median is than
# the first set's, then the same over all runs. It exits nonzero when a
# run fails, when the spread over all runs exceeds the metric's bound
# (setup_s exempt), or when a set's median is worse than the first set's
# by more than the bound.
#
# usage: benchmark/repeat.sh SETS RUNS      (from anywhere; e.g. 2 5)
set -euo pipefail

sets=${1:?usage: repeat.sh SETS RUNS}
runs=${2:?usage: repeat.sh SETS RUNS}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
results=benchmark/results
log=benchmark/out/repeat-run.log
mkdir -p "$results" benchmark/out

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

for set in $(seq 1 "$sets"); do
    out="$results/set-$set.jsonl"
    : > "$out"
    for run in $(seq 1 "$runs"); do
        seed=$((1000 * set + run))
        for workload in "${workloads[@]}"; do
            if ! "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$log"; then
                echo "run failed: set $set workload $workload seed $seed" >&2
                cat "$log" >&2
                exit 1
            fi
            python3 - "$log" "$workload" "$seed" "$set" >> "$out" <<'PY'
import json, sys
lines = open(sys.argv[1]).read().splitlines()
env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
result = json.loads(lines[-1])
print(json.dumps({"set": int(sys.argv[4]), "workload": sys.argv[2], "seed": int(sys.argv[3]),
                  "env": env, "result": result}))
PY
            echo "set $set run $run $workload seed $seed done" >&2
        done
    done
done

python3 - "$results" "$sets" <<'PY'
import json, statistics, sys
results, sets = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for k in range(1, sets + 1) for l in open(f"{results}/set-{k}.jsonl")]
breaches = []
if not all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in rows):
    breaches.append("a run reported correct=false or failed operations")


def stats(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


print(f"{'workload':12} {'metric':28} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
      f"{'spread':>7} {'worse':>7} {'bound':>6}")
for w in bench["workloads"]:
    for m in bench["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"

        def values(k):
            return [r["result"]["metrics"][name]["value"] for r in rows
                    if r["workload"] == w["name"] and k in (None, r["set"])]

        first = statistics.median(values(1))
        for k in [*range(1, sets + 1), None]:
            med, q1, q3, spread = stats(values(k))
            flag, worse = "", ""
            if k is None:
                if spread > bound and name != "setup_s":
                    flag = " SPREAD"
            else:
                change = ((med - first) if lower else (first - med)) / first if first else 0.0
                worse = f"{change:+7.3f}"
                if change > bound:
                    flag = " WORSE"
            label = "all" if k is None else str(k)
            if flag:
                breaches.append(f"{w['name']} {name} set {label}:{flag}")
            print(f"{w['name']:12} {name:28} {label:>3} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{spread:7.3f} {worse:>7} {bound:6.3f}{flag}")
if breaches:
    print("BREACH:\n  " + "\n  ".join(breaches))
    sys.exit(1)
print("all spreads and between-set differences within their bounds")
PY
