#!/usr/bin/env bash
# Builds sirod and the benchmark from this checkout's sources, then runs
# one benchmark invocation with the given flags, e.g.
#
#   bash bench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#
# Run it from anywhere; it works from the checkout root. The Go build
# cache, the binaries, run reports and spans all go to .bench_build/ in
# the checkout, and nothing is downloaded. The last line of standard
# output is the benchmark's JSON result; build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
  GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# With telemetry on (the default "local" mode), every go command may fork a
# detached sidecar that outlives this script. "go telemetry off" is the one
# go command that never forks it, and it turns the sidecar off for the
# builds below, whose config directory is under .bench_build/. Go before
# 1.23 has neither the command nor the sidecar.
go telemetry off >&2 || true

commit=unknown
if [ -d .git ]; then
  commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
fi

go build -o "$out/bin/sirod" ./cmd/sirod >&2
(cd bench && go build -o "$out/bin/bench" .) >&2
exec "$out/bin/bench" -sirod "$out/bin/sirod" -outdir "$out/results" -commit "$commit" "$@"
