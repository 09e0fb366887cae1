#!/bin/sh
# enginelint: the executor seam must stay a seam. Each analysis is
# written once over engine.Executor, and exactly one place — the engine
# table in internal/jobs — turns an engine name into an engine. Three
# checks over non-test Go files keep it that way:
#
#   1. internal/psa and internal/leaflet import none of the closure
#      engines (rdd, dask, mpi): an analysis that needs to know which
#      engine it runs on belongs in that engine's executor instead.
#   2. At most one package outside those three engines imports all of
#      them: a second such package is a second dispatch table.
#   3. internal/psa, internal/leaflet and internal/stage do not import
#      mdtask/internal/obs: task bodies get their cancellation, metrics
#      and instrumentation only through engine.Env, which the jobs
#      layer builds once per run.
#
# Run via `make enginelint`; CI gates on it. See docs/engines.md.
set -eu
cd "$(dirname "$0")/.."

engines='rdd dask mpi'
status=0

# imports DIR ENGINE: does any non-test file of the package in DIR
# import mdtask/internal/ENGINE?
imports() {
  for f in "$1"/*.go; do
    case "$f" in *_test.go) continue ;; esac
    [ -e "$f" ] || continue
    if grep -q "\"mdtask/internal/$2\"" "$f"; then
      return 0
    fi
  done
  return 1
}

for pkg in internal/psa internal/leaflet; do
  for e in $engines; do
    if imports "$pkg" "$e"; then
      echo "enginelint: $pkg imports mdtask/internal/$e — analyses run on engine.Executor, not on an engine" >&2
      status=1
    fi
  done
done

for pkg in internal/psa internal/leaflet internal/stage; do
  if imports "$pkg" obs; then
    echo "enginelint: $pkg imports mdtask/internal/obs — task bodies are instrumented through engine.Env" >&2
    status=1
  fi
done

tables=""
for dir in $(find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' -exec dirname {} \; | sort -u); do
  case "$dir" in ./internal/rdd | ./internal/dask | ./internal/mpi) continue ;; esac
  all=1
  for e in $engines; do
    imports "$dir" "$e" || all=0
  done
  [ "$all" -eq 1 ] && tables="$tables $dir"
done
set -- $tables
if [ "$#" -gt 1 ]; then
  echo "enginelint: $# packages import all of rdd, dask and mpi ($*) — the engine table in internal/jobs must be the only dispatch point" >&2
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "enginelint: OK — analyses import no engine or obs; one engine table (${1:-none})"
fi
exit $status
