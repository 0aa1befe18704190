#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Must be started from the repository root.  Build output goes to stderr;
# the benchmark's last stdout line is its JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f lib/runtime/dune ] || [ ! -f perfbench/main.ml ]; then
  echo "perfbench: run from the repository root (lepower sources not found)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
# The shared dune cache lives outside the checkout; keep every write inside it.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
