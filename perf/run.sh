#!/usr/bin/env bash
# Builds the benchmark from source and runs it, touching nothing outside the
# checkout: Go's build cache, temp files, module cache and telemetry counters
# all live under .bench_build/. This is BENCHMARK.json's command;
# `go run ./perf` is the same program for interactive use.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/go-mod" GOPATH="$build/go"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
# With telemetry on (the default in a fresh HOME) the go command detaches an
# upload sidecar that outlives the build; the benchmark may leave no process.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/perf" ./perf
exec "$build/perf" "$@"
