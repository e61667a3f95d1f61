#!/usr/bin/env bash
# Builds wukongsd and the benchmark program from the checkout, then runs the
# program with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload cq-window --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout. The last line of standard output is the result JSON.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/wukongsd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root (go.mod, cmd/wukongsd and perfbench/ must exist)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off CGO_ENABLED=0

go build -o "$out/bin/wukongsd" ./cmd/wukongsd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin/wukongsd" -workdir "$out" "$@"
