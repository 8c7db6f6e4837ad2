#!/usr/bin/env bash
# run.sh — build ppserve and the perfbench load generator from this checkout, then
# run one end-to-end benchmark against the freshly built ppserve.
#
# Usage (from the repository root):
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, both binaries, each run's scratch
# directory (removed when the run ends) and, with --trace 1, the last
# traced run's spans in spans.jsonl. The last line on stdout is the JSON
# result; build output and diagnostics go to stderr.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ppserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ppserve and perfbench/ must exist)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/ppserve" ./cmd/ppserve >&2
go -C perfbench build -o "$out/perfbench" . >&2
# Pin the load generator to one CPU, the last this process may use; ppserve
# inherits the mask. The client and the server take turns (closed loop, one
# Go thread each), so one CPU serves both, and a run does not depend on
# which CPU the scheduler hands each side or on the other CPU's load.
cpus=$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)
cpu=${cpus##*[,-]}
pin=()
if command -v taskset >/dev/null && [[ $cpu =~ ^[0-9]+$ ]]; then
	pin=(taskset -c "$cpu")
fi
exec ${pin[@]+"${pin[@]}"} "$out/perfbench" -ppserve "$out/ppserve" -workdir "$out/run" -trace-out "$out/spans.jsonl" "$@"
