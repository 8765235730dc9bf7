#!/usr/bin/env bash
# Alternating A/B pairs of the repository benchmark between two commits.
#
#   scripts/ab_pairs.sh <ref-a> <ref-b> <workload>[,<workload>...] [pairs=10]
#
# Checks each ref out into a directory of its own (`git archive`: the
# committed files only, nothing registered in .git), builds each once by
# running its BENCHMARK.json command for one second, then runs <pairs>
# pairs of that command per workload for BENCHMARK.json's run_seconds: pair
# i uses seed 1 + i on both sides, and which side goes first flips every
# pair. Prints every run, then per end-to-end metric each side's median
# and quartiles, the pairs each side won and a verdict: a side is better
# when it wins at least nine tenths of the pairs (ties count for neither)
# and the medians differ by more than the distance between ref-a's
# quartiles; anything else is "unresolved" ("identical" when every pair
# read the same value on both sides).
#
# ref-a is the parent, ref-b the change. An uncommitted change can be
# passed as "$(git stash create)". Checkouts, builds and the raw result
# lines (<workload>.jsonl) go to a fresh directory under ${TMPDIR:-/tmp}, which
# is printed and left in place.
set -euo pipefail

if [[ $# -lt 3 || $# -gt 4 ]]; then
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
    exit 2
fi
ref_a=$1 ref_b=$2 workloads=${3//,/ } pairs=${4:-10}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive integer, got '$pairs'" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/ab_pairs.XXXXXX")
echo "work directory: $work"

checkout() { # <side> <ref>
    local sha
    sha=$(git -C "$root" rev-parse --verify "$2^{commit}")
    mkdir "$work/$1"
    git -C "$root" archive "$sha" | tar -x -C "$work/$1"
    echo "$1 = $2 ($sha)"
}
checkout a "$ref_a"
checkout b "$ref_b"

# bench <side> <workload> <seed> <seconds>: the side's own BENCHMARK.json
# command, verbatim, from the root of its checkout; prints the result line.
bench() {
    (
        cd "$work/$1"
        mapfile -t cmd < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
        "${cmd[@]}" --workload "$2" --seed "$3" --seconds "$4" | tail -n 1
    )
}
seconds=$(python3 -c 'import json, sys; print(json.load(sys.stdin)["run_seconds"])' <"$work/a/BENCHMARK.json")

for side in a b; do
    echo "building $side ..."
    bench "$side" "${workloads%% *}" 1 1 >/dev/null
done

for workload in $workloads; do
    : >"$work/$workload.jsonl"
    for ((pair = 1; pair <= pairs; pair++)); do
        seed=$((1 + pair))
        if ((pair % 2)); then order="a b"; else order="b a"; fi
        for side in $order; do
            line=$(bench "$side" "$workload" "$seed" "$seconds")
            echo "{\"pair\": $pair, \"side\": \"$side\", \"seed\": $seed, \"result\": $line}" |
                tee -a "$work/$workload.jsonl"
        done
    done

    python3 - "$work/a/BENCHMARK.json" "$work/$workload.jsonl" "$workload" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
pairs = max(r["pair"] for r in runs)
side = lambda s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"])
a, b = side("a"), side("b")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3

print(f"\n{sys.argv[3]}: {pairs} pairs, a = parent, b = change")
for s, rs in (("a", a), ("b", b)):
    failed = sum(r["result"]["failed"] for r in rs)
    attempted = sum(r["result"]["attempted"] for r in rs)
    wrong = sum(not r["result"]["correct"] for r in rs)
    print(f"  {s}: failed {failed} of {attempted} attempted, {wrong} runs with correct=false")
print(f"  {'metric':<16}{'a q1 / median / q3':>40}{'b q1 / median / q3':>40}  won a/b  b vs a   verdict")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    va = [r["result"]["metrics"][name]["value"] for r in a]
    vb = [r["result"]["metrics"][name]["value"] for r in b]
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    won_a = sum(better(x, y) for x, y in zip(va, vb))
    won_b = sum(better(y, x) for x, y in zip(va, vb))
    (a1, a2, a3), (b1, b2, b3) = quartiles(va), quartiles(vb)
    resolved = abs(b2 - a2) > a3 - a1
    if va == vb:
        verdict = "identical"
    elif won_b >= 0.9 * pairs and better(b2, a2) and resolved:
        verdict = "b better"
    elif won_a >= 0.9 * pairs and better(a2, b2) and resolved:
        verdict = "a better"
    else:
        verdict = "unresolved"
    ratio = f"{b2 / a2:.3f}x" if a2 else "n/a"
    fmt = lambda q: " / ".join(f"{x:.6g}" for x in q)
    print(f"  {name:<16}{fmt((a1, a2, a3)):>40}{fmt((b1, b2, b3)):>40}  {won_a:>2}/{won_b:<2}   {ratio:>8}  {verdict}")
PY
done
