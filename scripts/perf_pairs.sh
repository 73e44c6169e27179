#!/usr/bin/env bash
# Compare perfbench between a git revision and the working tree, in
# alternating pairs of runs.  From anywhere inside the repository:
#
#   scripts/perf_pairs.sh REV [--workload W] [--seed N] [--pairs K] [--seconds S]
#
# Defaults: --workload multicast --seed 0 --pairs 10 --seconds 10.  REV is
# any commit-ish (e.g. HEAD for the last commit, HEAD~1 for its parent).
#
# REV is exported with `git archive` into a temporary directory (removed
# on exit), and each side is built by perfbench's own run.sh.  The script
# runs `perfbench/run.sh --trace 0` K times on each side, REV first in odd
# pairs and the working tree first in even ones, so a swing in host load
# falls on both sides alike.  For each end-to-end metric (all are better
# lower) it prints every pair, each side's median and quartiles, how many
# pairs the working tree won (ties count for neither), and whether the gap
# between the medians is larger than REV's interquartile range.  Claim a
# gain only when the working tree wins at least nine pairs in ten and the
# gap exceeds that range.  It also prints the relative change of the
# working tree's median against REV's next to the metric's regression
# bound from the working tree's BENCHMARK.json (read only), with "within
# bound" or "worse than bound": the no-regression check a change that
# claims no gain must pass.  Exit status: 0 when the comparison ran, 1 when
# a run failed or reported itself incorrect, 2 on bad arguments.
set -euo pipefail

usage() {
  echo "usage: $0 REV [--workload W] [--seed N] [--pairs K] [--seconds S]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
workload=multicast seed=0 pairs=10 seconds=10
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case $1 in
    --workload) workload=$2 ;;
    --seed) seed=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    *) usage ;;
  esac
  shift 2
done
case $pairs in '' | *[!0-9]* | 0) usage ;; esac

cd "$(git rev-parse --show-toplevel)"
tree=$PWD
sha=$(git rev-parse --verify --quiet "$rev^{commit}") || {
  echo "$0: $rev: not a commit" >&2
  exit 2
}

base=$(mktemp -d "${TMPDIR:-/tmp}/perf_pairs.XXXXXX")
trap 'rm -rf "$base" "$base.log" "$base.runs"' EXIT
git archive "$sha" | tar -x -C "$base"

# One benchmark run of side $1 (REV or tree) in directory $2: its JSON
# line, tagged with the side, goes to the runs file.  Build output and
# perfbench's progress lines go to a log, shown on failure.
run() {
  local json
  if ! json=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace 0 2>>"$base.log" | tail -n 1); then
    tail -n 20 "$base.log" >&2
    exit 1
  fi
  echo "$1 $json" >>"$base.runs"
}

echo "# workload $workload, seed $seed, $pairs pairs of ${seconds}s runs"
echo "# REV ${sha:0:12} against the working tree of $tree"
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run REV "$base"
    run tree "$tree"
  else
    run tree "$tree"
    run REV "$base"
  fi
done

python3 - "$base.runs" "$tree/BENCHMARK.json" <<'EOF'
import json, os, statistics, sys

bounds = {}
if os.path.exists(sys.argv[2]):
    bounds = {m["name"]: m for m in json.load(open(sys.argv[2])).get("end_to_end", [])}

runs = {"REV": [], "tree": []}
for line in open(sys.argv[1]):
    side, js = line.split(" ", 1)
    r = json.loads(js)
    if not r["correct"] or r["failed"] != 0:
        sys.exit(f"{side} run incorrect or failed: {js.strip()}")
    runs[side].append({k: v["value"] for k, v in r["metrics"].items()})

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))

for metric in runs["REV"][0]:
    before = [r[metric] for r in runs["REV"]]
    after = [r[metric] for r in runs["tree"]]
    print(f"## {metric}")
    for i, (b, a) in enumerate(zip(before, after), 1):
        print(f"pair {i}: REV {b:.4f}  tree {a:.4f}")
    for name, xs in (("REV", before), ("tree", after)):
        q1, q2, q3 = quartiles(xs)
        print(f"{name:4}  median {q2:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  iqr {q3 - q1:.4f}")
    wins = sum(1 for b, a in zip(before, after) if a < b)
    q1, q2, q3 = quartiles(before)
    gap = q2 - statistics.median(after)
    print(f"tree better in {wins} of {len(before)} pairs")
    verdict = "exceeds" if gap > q3 - q1 else "does not exceed"
    print(f"median gap {gap:+.4f} vs REV iqr {q3 - q1:.4f}: {verdict}")
    rel = (statistics.median(after) - q2) / q2 if q2 else 0.0
    spec = bounds.get(metric)
    if spec is None:
        print(f"relative change {rel:+.2%} (no bound in BENCHMARK.json)")
    else:
        worse = rel > spec["bound"] if spec.get("better", "lower") == "lower" else -rel > spec["bound"]
        status = "worse than bound" if worse else "within bound"
        print(f"relative change {rel:+.2%} vs bound {spec['bound']:.0%}: {status}")
EOF
