#!/usr/bin/env bash
# Alternating A/B pairs of the repository benchmark between two commits.
#
#   scripts/ab_pairs.sh [--layouts L] <ref-a> <ref-b> <workload>[,<workload>...] [pairs=10]
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
# --layouts L (default 1: one default build per side, the output above)
# builds each side L times, with RUSTFLAGS="-C llvm-args=-align-all-
# functions=k" for k = 4 ... 3 + L, each in its own CARGO_TARGET_DIR, and
# runs the pairs round-robin over the layouts (pair i on layout
# (i - 1) mod L, both sides). Function alignment moves code layout without
# changing logic, so each metric is judged per layout by the rule above
# and called better only when every layout's verdict has that sign. Beside
# each metric it prints ref-a's across-layout spread: the largest minus the
# smallest per-layout median, as a share of ref-a's overall median.
#
# ref-a is the parent, ref-b the change. An uncommitted change can be
# passed as "$(git stash create)". Checkouts, builds and the raw result
# lines (<workload>.jsonl) go to a fresh directory under ${TMPDIR:-/tmp}, which
# is printed and left in place.
set -euo pipefail

layouts=1
if [[ ${1:-} == --layouts ]]; then
    layouts=${2:-}
    shift 2 || true
fi
if [[ $# -lt 3 || $# -gt 4 ]]; then
    sed -n '2,/^set -euo/{/^set -euo/d;s/^# \{0,1\}//;p}' "$0" >&2
    exit 2
fi
ref_a=$1 ref_b=$2 workloads=${3//,/ } pairs=${4:-10}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive integer, got '$pairs'" >&2; exit 2; }
[[ $layouts =~ ^[1-9][0-9]*$ ]] || { echo "layouts must be a positive integer, got '$layouts'" >&2; exit 2; }

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

# bench <side> <layout> <workload> <seed> <seconds>: the side's own
# BENCHMARK.json command, verbatim, from the root of its checkout, built
# for <layout> (0 = the default build; k = functions aligned to 2^k
# bytes); prints the result line.
bench() {
    (
        cd "$work/$1"
        if (($2)); then
            export RUSTFLAGS="-C llvm-args=-align-all-functions=$2"
            export CARGO_TARGET_DIR="$work/$1-align$2"
        fi
        mapfile -t cmd < <(python3 -c 'import json; print(*json.load(open("BENCHMARK.json"))["command"], sep="\n")')
        "${cmd[@]}" --workload "$3" --seed "$4" --seconds "$5" | tail -n 1
    )
}
seconds=$(python3 -c 'import json, sys; print(json.load(sys.stdin)["run_seconds"])' <"$work/a/BENCHMARK.json")
# Pair i runs layout_of[(i - 1) % layouts] on both sides.
if ((layouts == 1)); then layout_of=(0); else layout_of=($(seq 4 $((3 + layouts)))); fi

for layout in "${layout_of[@]}"; do
    for side in a b; do
        if ((layout)); then what="$side (align $layout)"; else what=$side; fi
        echo "building $what ..."
        bench "$side" "$layout" "${workloads%% *}" 1 1 >/dev/null
    done
done

for workload in $workloads; do
    : >"$work/$workload.jsonl"
    for ((pair = 1; pair <= pairs; pair++)); do
        seed=$((1 + pair))
        layout=${layout_of[(pair - 1) % layouts]}
        if ((pair % 2)); then order="a b"; else order="b a"; fi
        tag=""
        if ((layout)); then tag=", \"layout\": $layout"; fi
        for side in $order; do
            line=$(bench "$side" "$layout" "$workload" "$seed" "$seconds")
            echo "{\"pair\": $pair, \"side\": \"$side\", \"seed\": $seed$tag, \"result\": $line}" |
                tee -a "$work/$workload.jsonl"
        done
    done

    python3 - "$work/a/BENCHMARK.json" "$work/$workload.jsonl" "$workload" <<'PY'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
pairs = max(r["pair"] for r in runs)
for r in runs:
    r.setdefault("layout", 0)
layouts = sorted({r["layout"] for r in runs})
side = lambda s, rs=runs: sorted((r for r in rs if r["side"] == s), key=lambda r: r["pair"])
a, b = side("a"), side("b")

def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3

def judge(a, b, name, better):
    """The verdict on `name` over the pairs of `a` and `b`, and the pairs each side won."""
    va = [r["result"]["metrics"][name]["value"] for r in a]
    vb = [r["result"]["metrics"][name]["value"] for r in b]
    won_a = sum(better(x, y) for x, y in zip(va, vb))
    won_b = sum(better(y, x) for x, y in zip(va, vb))
    (a1, a2, a3), (b1, b2, b3) = quartiles(va), quartiles(vb)
    resolved = abs(b2 - a2) > a3 - a1
    if va == vb:
        verdict = "identical"
    elif won_b >= 0.9 * len(va) and better(b2, a2) and resolved:
        verdict = "b better"
    elif won_a >= 0.9 * len(va) and better(a2, b2) and resolved:
        verdict = "a better"
    else:
        verdict = "unresolved"
    return verdict, won_a, won_b, (a1, a2, a3), (b1, b2, b3)

label = "" if layouts == [0] else f" over layouts {', '.join(f'align {k}' for k in layouts)}"
print(f"\n{sys.argv[3]}: {pairs} pairs{label}, a = parent, b = change")
for s, rs in (("a", a), ("b", b)):
    failed = sum(r["result"]["failed"] for r in rs)
    attempted = sum(r["result"]["attempted"] for r in rs)
    wrong = sum(not r["result"]["correct"] for r in rs)
    print(f"  {s}: failed {failed} of {attempted} attempted, {wrong} runs with correct=false")
extra = "" if len(layouts) == 1 else "  a spread  per layout"
print(f"  {'metric':<16}{'a q1 / median / q3':>40}{'b q1 / median / q3':>40}  won a/b  b vs a   verdict{extra}")
for m in spec["end_to_end"]:
    name, lower = m["name"], m["better"] == "lower"
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    verdict, won_a, won_b, (a1, a2, a3), (b1, b2, b3) = judge(a, b, name, better)
    ratio = f"{b2 / a2:.3f}x" if a2 else "n/a"
    fmt = lambda q: " / ".join(f"{x:.6g}" for x in q)
    if len(layouts) > 1:
        per = [judge(side("a", ls), side("b", ls), name, better)
               for ls in ([r for r in runs if r["layout"] == k] for k in layouts)]
        if verdict != "identical":
            signs = {v for v, *_ in per}
            verdict = signs.pop() if len(signs) == 1 and signs <= {"a better", "b better"} else "unresolved"
        medians = [q[1] for _, _, _, q, _ in per]
        spread = f"{(max(medians) - min(medians)) / a2:.1%}" if a2 else "n/a"
        verdict = f"{verdict:<10}  {spread:>8}  {' | '.join(v for v, *_ in per)}"
    print(f"  {name:<16}{fmt((a1, a2, a3)):>40}{fmt((b1, b2, b3)):>40}  {won_a:>2}/{won_b:<2}   {ratio:>8}  {verdict}")
PY
done
