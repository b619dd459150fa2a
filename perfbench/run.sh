#!/usr/bin/env bash
# Builds the benchmark and egs-serve from the sources of this checkout,
# then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --selfcheck
#
# Binaries, the Go build cache, span files and reports all go under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout. Build
# output goes to stderr; the last line of stdout is the result object.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
root="$(pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off \
	CGO_ENABLED=0

(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
go build -o "$out/bin/egs-serve" ./cmd/egs-serve >&2

exec "$out/bin/perfbench" -root "$root" -out "$out" -serve-bin "$out/bin/egs-serve" "$@"
