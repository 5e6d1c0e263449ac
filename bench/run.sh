#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it
# from the checkout root. All arguments go to the benchmark binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $root is not a schedsearch checkout (no go.mod / internal)" >&2
	exit 2
fi
# Everything the go command writes stays inside the checkout: its build
# cache, its scratch directory, and (through the user configuration
# directory) its telemetry counters.
mkdir -p .bench_build/gotmp
(
	export GOCACHE="$root/.bench_build/gocache"
	export GOTMPDIR="$root/.bench_build/gotmp"
	export GOMODCACHE="$root/.bench_build/gomodcache"
	export XDG_CONFIG_HOME="$root/.bench_build/config"
	export GOTOOLCHAIN=local
	cd bench && go build -o "$root/.bench_build/schedbench" .
) >&2
exec "$root/.bench_build/schedbench" "$@"
