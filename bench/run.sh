#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source
# into the checkout's .bench_build directory and runs it from the
# repository root. The driver's contract has the benchmark read and write
# only inside its checkout, so the Go caches and the go command's own
# configuration directory are put there too. Exits non-zero without a
# result when the repository it measures is not there to build.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its env file and telemetry counters
export GOTOOLCHAIN=local

if [ $# -eq 0 ]; then
	# The full run checks the harness first: being a module of its own, the
	# repository's go vet ./... and go test ./... do not descend into it.
	(cd "$root/bench" && go vet . && go test .)
fi
(cd "$root/bench" && go build -o "$build/bin/bench" .)
cd "$root"
exec "$build/bin/bench" "$@"
