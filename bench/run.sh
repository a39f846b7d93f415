#!/usr/bin/env bash
# BENCHMARK.json's command: build ./bench from source into .bench_build/
# at the root of the checkout (a no-op when nothing changed), then run
# it from that root with the arguments given. Everything the Go
# toolchain writes — build cache, link scratch, its own counters — is
# kept under .bench_build/ too, so a run touches nothing outside the
# checkout; that is what a bare `go run ./bench` would not do.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off
# The go command's telemetry, in its default "local" mode, forks a
# sidecar that outlives the command (at once, when the build fails);
# with the mode file saying off it starts none and writes no counters.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
cd "$root"
go build -buildvcs=false -o "$out/bench" ./bench
exec "$out/bench" "$@"
