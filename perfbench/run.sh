#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result.  Everything it writes stays inside the checkout (_build/ and
# _perfbench/).
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
