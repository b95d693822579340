#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload; every argument
# passes through to the benchmark:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. The build cache, the Go config
# directory, temporary files and the binary all live under .bench_build
# there, so the run writes nothing outside the checkout. The benchmark is
# a module of its own that takes the repository's packages from the
# parent directory; without them the build, and so the run, fails.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -trimpath -o "$out/rmqbench" .)
exec "$out/rmqbench" "$@"
