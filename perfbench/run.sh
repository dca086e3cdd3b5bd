#!/usr/bin/env bash
# Builds the perfbench binary and the elfd server from this checkout's
# sources, then runs perfbench with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload grid-frontend --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ at
# the root of the checkout (the Go build cache included), and nothing is
# fetched from the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/elfd" ]; then
	echo "run.sh: no elfetch module at $root (go.mod and cmd/elfd are missing)" >&2
	exit 1
fi
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# The toolchain's cache, module path and telemetry settings live in the
# checkout too, so the build touches nothing outside it. Telemetry is off:
# otherwise the go command starts a detached upload process that outlives
# the build.
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
(cd "$root" && go build -o "$out/elfd" ./cmd/elfd) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -elfd "$out/elfd" -work "$out" "$@"
