#!/usr/bin/env bash
# Builds mpg-perf from the sources of this checkout and runs it with the
# given flags. Run it from the repository root, for example:
#
#   bash cmd/mpg-perf/bench.sh --workload timeline-cg --seed 3 --seconds 25 --trace 0
#
# The Go build cache, the binary and everything the benchmark writes
# stay under .bench_build/ in the repository root.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/bin"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local

# VCS stamping records the git revision in the results; a tree whose
# version control cannot be queried builds without it.
go build -o "$out/bin/mpg-perf" ./cmd/mpg-perf ||
	go build -buildvcs=false -o "$out/bin/mpg-perf" ./cmd/mpg-perf
exec "$out/bin/mpg-perf" "$@"
