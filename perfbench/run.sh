#!/usr/bin/env bash
# Builds the lonviz benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload lan_burst --seed 1 --seconds 12 --trace 0
#
# Every build artifact and Go cache stays under .bench_build/ in the
# current directory; reports and span files go to .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
