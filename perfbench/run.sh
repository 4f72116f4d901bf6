#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload scale10k --seed 1 --seconds 12 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ in that directory (Go build cache included), and it never
# reaches the network: the module has no dependencies outside the repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The go command also keeps telemetry counters under the user config
# directory, so that moves into the build directory too.
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
rev=unknown
if [ -d "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/perfbench" && go build -buildvcs=false -trimpath \
	-ldflags "-X main.gitRevision=$rev" -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
