#!/usr/bin/env bash
# Builds the benchmark and the diosserve binary it drives, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#
# Binaries, the Go build cache, temporary files and the Go tool's own state
# all stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/go-build" GOPATH="$out/go" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
mkdir -p "$out/bin" "$out/tmp"
(cd benchmark && go build -o "$out/bin/benchmark" .)
go build -o "$out/bin/diosserve" ./cmd/diosserve
exec "$out/bin/benchmark" --serve-bin "$out/bin/diosserve" "$@"
