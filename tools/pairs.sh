#!/usr/bin/env bash
# Alternating paired runs of the benchmark in two checkouts — the table a
# claimed gain is judged by (choosing-metrics §8), assembled from the one
# ruler's own output. It times nothing itself and judges nothing: no
# thresholds, no baseline file.
#
#   tools/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS=10] [SECONDS=30] [SEED=42]
#
# Each pair runs `benchmark/run.sh --workload W --seed SEED --seconds S
# --trace 0` once in each checkout (which side goes first flips every
# pair) and keeps the last stdout line of each; a held-out seed is the
# sixth argument. Per end-to-end metric it prints both medians, both
# quartile pairs and in how many pairs the change read better, then the
# failed operations of each side.
set -euo pipefail
if [ $# -lt 3 ]; then
    sed -n '2,14p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-30}
seed=${6:-42}

one_run() {
    bash "$1/benchmark/run.sh" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | tail -n 1 || true
}

lines=""
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "pair $((i + 1))/$pairs: $side" >&2
        lines+="$side $(one_run "${!side}")"$'\n'
    done
done

printf '%s' "$lines" | python3 -c '
import json, statistics, sys

better = {m["name"]: m["better"] for m in json.load(open(sys.argv[1]))["end_to_end"]}
runs = {"parent": [], "change": []}
for line in sys.stdin:
    side, _, result = line.partition(" ")
    runs[side].append(json.loads(result))

def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"

row = "{:28} {:38} {:38} {}"
print(f"{sys.argv[2]} (seed {sys.argv[3]}):", len(runs["parent"]), "alternating pairs; median [q1, q3]")
print(row.format("metric", "parent", "change", "change better in"))
for name in runs["parent"][0]["metrics"]:
    p, c = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change"))
    sign = 1 if better[name] == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
    ties = sum(a == b for a, b in zip(p, c))
    print(row.format(name, spread(p), spread(c), f"{wins} / {len(p)} ({ties} ties)"))
for side in ("parent", "change"):
    failed, attempted = (sum(r[k] for r in runs[side]) for k in ("failed", "attempted"))
    print(f"failed ({side}): {failed} of {attempted} operations")
' "$change/BENCHMARK.json" "$workload" "$seed"
