#!/usr/bin/env bash
# Check which simulator seeds leave every part of the benchmark's
# workloads oracle-clean, the test behind Suite.zap_seeds and
# Suite.chaos_seeds (whose seeds must also imply 16 link notifications:
# static.link_changes in a traced run).  From the repository root:
#
#   bash perfbench/vet_seeds.sh FROM TO
#
# Prints one line per seed: the seed, then the oracle problem lines of
# zap-2000n, zap-200n and zap-100n-baselines and the exit code of
# chaos-500n-pimsm (0 = clean).  A seed belongs in the pool only if all
# four numbers are 0.  Takes about 9 s per seed.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/pimsim.exe
P=./_build/default/bin/pimsim.exe
problems() { "$P" workload --model zap "$@" | grep -c problem || true; }
for s in $(seq "$1" "$2"); do
  a=$(problems --nodes 2000 --groups 32 --scale 300 --duration 20 --seed "$s")
  b=$(problems --nodes 200 --groups 32 --scale 2000 --duration 60 --seed "$s")
  d=0
  for p in PIM-DM CBT MOSPF; do
    x=$(problems --nodes 100 --groups 16 --scale 200 --duration 60 --protocol "$p" --seed "$s")
    d=$((d + x))
  done
  c=0
  "$P" chaos --topology transit-stub --nodes 500 --protocols PIM-SM --seed "$s" >/dev/null || c=$?
  echo "$s $a $b $d $c"
done
