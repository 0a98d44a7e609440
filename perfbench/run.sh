#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload parked --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the checkout. Every file the Go toolchain
# writes (build cache, temporary files, telemetry) stays under
# .bench_build, and no module is fetched.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -records "$out/records" "$@"
