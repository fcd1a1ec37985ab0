#!/usr/bin/env bash
# Builds dwmserved, dwmbench and the dwmperf program from this checkout,
# then runs one benchmark workload. Arguments go to dwmperf:
#
#   bash dwmperf/run.sh --workload serve-hot --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under the checkout, in
# $CARGO_TARGET_DIR (default .bench_build): binaries, the Go build cache,
# and per-run scratch such as daemon journals.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR" "$out/bin" "$out/run"

go build -o "$out/bin/" ./cmd/dwmserved ./cmd/dwmbench
(cd dwmperf && go build -o "$out/bin/dwmperf" .)

exec "$out/bin/dwmperf" -bin "$out/bin" -work "$out/run" -repo "$root" "$@"
