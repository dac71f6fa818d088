#!/usr/bin/env bash
# A/B benchmark pairs: the repository benchmark (perfbench) built at a
# git ref against the same benchmark built from the working tree.
#
#   scripts/bench-pairs.sh REF [workload...]
#
# REF is built in a temporary git worktree under .bench_build/pairs
# (removed again on exit); the working tree is built in place. Both
# binaries then run PAIRS alternating pairs per workload (the side
# that runs first alternates), with the same --seconds and --seed.
# For every end-to-end metric in BENCHMARK.json it prints each side's
# median and quartiles and the share of pairs the working tree wins;
# it also prints each side's median steal_frac (hypervisor steal, a
# sign that the host, not the code, moved). Workloads default to all
# of stencil, gather and sweep.
#
# Environment: PAIRS (default 10), SECONDS_PER_RUN (default 30),
# SEED (default 1). Run it from the repository root.
set -euo pipefail
if [ $# -lt 1 ]; then
	echo "usage: scripts/bench-pairs.sh REF [workload...]" >&2
	exit 2
fi
ref=$1
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(stencil gather sweep)
pairs=${PAIRS:-10}
secs=${SECONDS_PER_RUN:-30}
seed=${SEED:-1}

root=$(pwd)
out="$root/.bench_build/pairs"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

wt="$out/ref-src"
cleanup() { git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || true; }
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach "$wt" "$ref" >/dev/null
(cd "$wt/perfbench" && go build -o "$out/perfbench-ref" .)
(cd "$root/perfbench" && go build -o "$out/perfbench-new" .)
cleanup

for w in "${workloads[@]}"; do
	res="$out/$w.jsonl"
	: >"$res"
	for ((i = 0; i < pairs; i++)); do
		sides=(ref new)
		((i % 2 == 0)) || sides=(new ref)
		for side in "${sides[@]}"; do
			"$out/perfbench-$side" --workload "$w" --seconds "$secs" --seed "$seed" --trace 0 >"$out/run.txt"
			# The last two lines are the full record and the result.
			tail -n 2 "$out/run.txt" | jq -c --arg side "$side" --argjson pair "$i" -s \
				'{side: $side, pair: $pair, steal: .[0].steal_frac, correct: .[1].correct, metrics: (.[1].metrics | map_values(.value))}' >>"$res"
		done
		echo "$w: pair $((i + 1))/$pairs done" >&2
	done
	python3 - "$root/BENCHMARK.json" "$res" "$w" "$ref" <<'EOF'
import json, statistics, sys

bench, res, workload, ref = sys.argv[1:]
spec = json.load(open(bench))["end_to_end"]
runs = [json.loads(l) for l in open(res)]
side = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["pair"]) for s in ("ref", "new")}

def quart(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"== {workload}: {len(side['ref'])} pairs, ref {ref} vs working tree")
print(f"{'metric':<14}{'ref median [q1, q3]':>32}{'new median [q1, q3]':>32}{'new wins':>10}")
for m in spec:
    name, lower = m["name"], m["better"] == "lower"
    a = [r["metrics"].get(name) for r in side["ref"]]
    b = [r["metrics"].get(name) for r in side["new"]]
    if None in a or None in b:
        continue
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    fa, fb = quart(a), quart(b)
    fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
    print(f"{name:<14}{fmt(fa):>32}{fmt(fb):>32}{f'{wins}/{len(a)}':>10}")
for s in ("ref", "new"):
    steal = statistics.median(r["steal"] for r in side[s])
    bad = sum(not r["correct"] for r in side[s])
    print(f"{s}: median steal_frac {steal:.4f}, incorrect runs {bad}")
EOF
done
