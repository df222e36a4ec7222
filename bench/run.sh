#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout, then runs it with the driver's
# arguments. Everything the Go toolchain writes (build cache, temporary
# files, its own config) is kept inside the checkout. In a directory without
# the repo's go.mod the build fails and so does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false
# With a fresh config directory the go command takes this for its first run of
# the day and starts a detached telemetry child that outlives it, even when the
# build fails. Telemetry mode "off" stops that: no process is left behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off' >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/corp-bench" ./bench
exec "$build/corp-bench" "$@"
