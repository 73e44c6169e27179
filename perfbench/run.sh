#!/usr/bin/env bash
# Build the benchmark from source, then run it.  From the repository root:
#
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# Build output goes to stderr; the benchmark's report (last line: one JSON
# object) goes to stdout.  See perfbench/README.md.
set -euo pipefail

if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env)"
fi

# Keep every build product inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
