#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository
# root:
#
#   bash perfbench/run.sh --workload cold-batch --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary go to .bench_build, generated data
# and span files to .bench_data, both under the current directory.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
