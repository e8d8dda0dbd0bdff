#!/usr/bin/env bash
# Builds odcfpd and the perfbench program from the checkout it is run in
# (the repository root), then runs perfbench with the given arguments.
# Build outputs, the Go build cache and the daemon's stores all stay under
# .bench_build/ in that checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/odcfpd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root: go.mod, cmd/odcfpd and perfbench/ are needed" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
go build -o "$out/odcfpd" ./cmd/odcfpd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --daemon "$out/odcfpd" --work "$out/work" "$@"
