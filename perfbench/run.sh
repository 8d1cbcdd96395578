#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build artifact, Go cache and scratch
# file stays under .bench_build/perfbench in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
