#!/usr/bin/env bash
# Builds the benchmark and the mnpuserved daemon it drives from source,
# then runs the benchmark with the given arguments. Run it from the root
# of the repository:
#
#   bash bench/run.sh --workload sweep-dual --seed 1 --seconds 20 --trace 0
#
# Every build product and Go cache lands in .bench_build/ at the root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/mnpuserved" ./cmd/mnpuserved
(cd "$root/bench" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
