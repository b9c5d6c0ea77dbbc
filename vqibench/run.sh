#!/usr/bin/env bash
# Builds vqiserve and the vqibench program from this checkout, then runs
# one workload. Arguments are passed to vqibench:
#
#   bash vqibench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout. The last stdout line is the
# JSON result.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/vqiserve" ]; then
	echo "vqibench: no vqiserve source under $root (go.mod, cmd/vqiserve)" >&2
	exit 1
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp" "$out/gocache" "$out/gopath" "$out/run" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
# Telemetry mode lives in the config dir, not the environment; with it on,
# every go command may start a detached upload process that outlives it.
go telemetry off
(cd "$root" && go build -o "$out/bin/vqiserve" ./cmd/vqiserve) >&2
(cd "$here" && go build -o "$out/bin/vqibench" .) >&2
cd "$root"
exec "$out/bin/vqibench" -vqiserve "$out/bin/vqiserve" -work "$out/run" "$@"
