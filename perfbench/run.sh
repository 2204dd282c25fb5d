#!/bin/sh
# Builds perfbench from this checkout and runs it with the given flags.
# Run it from the root of the repository:
#
#   sh perfbench/run.sh --workload analyze-hit --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, Go's temporary files and its user
# configuration (telemetry counters) stay under .bench_build/ in the
# working directory; nothing is fetched.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
