#!/usr/bin/env bash
# Builds the benchmark and the pas2pd daemon from the checkout's sources
# and runs one benchmark workload:
#
#   bash perfbench/run.sh --workload predict|analyze|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
export CGO_ENABLED=0

cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/pas2pd" pas2p/cmd/pas2pd
cd "$root"
exec "$out/perfbench" -pas2pd "$out/pas2pd" -work "$out/work" "$@"
