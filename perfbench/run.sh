#!/usr/bin/env bash
# Builds heterosim, heterosimd and the benchmark from the source tree in
# the working directory, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build/. The binaries
# are rebuilt only when the tree's contents differ from the last build,
# so later runs neither link nor write binaries while the machine is
# about to be measured.
set -euo pipefail

out=.bench_build
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOMODCACHE="$PWD/$out/gomodcache" GOTMPDIR="$PWD/$out/tmp"
export GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config" # keeps go's telemetry counters here too
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off CGO_ENABLED=0

stamp=$(find . \( -path "./$out" -o -path ./.git \) -prune -o -type f -print0 \
	| LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)
if [[ "$(cat "$out/bin/stamp" 2>/dev/null)" != "$stamp" ]]; then
	rm -f "$out/bin/stamp"
	go build -o "$out/bin/" ./cmd/heterosim ./cmd/heterosimd >&2
	(cd perfbench && go build -o "../$out/bin/perfbench" .) >&2
	echo "$stamp" > "$out/bin/stamp"
fi
exec "$out/bin/perfbench" "$@"
