#!/usr/bin/env bash
# Builds cmd/mdserver and the benchmark from source into .bench_build/
# (the build cache, the go command's own config and telemetry files and
# every temporary file too: nothing is written outside the checkout), then
# runs the benchmark with the arguments given. The build is not part of
# any metric; setup_s starts at the server's exec.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mdserver" ]; then
  echo "benchmark/run.sh: $root holds no mdtask source (go.mod, cmd/mdserver): nothing to measure" >&2
  exit 1
fi
mkdir -p "$build/bin" "$build/tmp" "$build/config/go/telemetry"
# The go command would otherwise start a detached telemetry child that can
# outlive this script; the mode file is the only switch it honours.
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/bin/mdserver" ./cmd/mdserver)
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -root "$root" "$@"
