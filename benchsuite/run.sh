#!/usr/bin/env bash
# Builds the benchmark suite from source and runs it with the given flags:
#
#   bash benchsuite/run.sh --workload traj-scan --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files and the binary live in .bench_build at the
# repository root, so nothing is written outside the checkout. The suite is
# its own Go module that imports the repository module through a replace
# directive; outside a full checkout (no go.mod one level up) the build fails
# and the script exits non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files inside
# the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C "$root/benchsuite" -buildvcs=false -o "$out/benchsuite" .
exec "$out/benchsuite" "$@"
