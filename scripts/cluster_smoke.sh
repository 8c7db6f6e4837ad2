#!/usr/bin/env bash
# cluster_smoke.sh — multi-process cluster equivalence check.
#
# Boots a real coordinator and two real worker ppserve processes on
# loopback TCP, waits for heartbeat membership to form, then runs the same
# sweep spec twice with ppsweep: once in-process and once through the
# coordinator (which fans cell ranges out across both workers by protocol
# content hash). The two -canonical NDJSON streams must be byte-identical —
# the cluster acceptance criterion — and the workers must have served the
# whole grid between them (no silent local fallback).
#
# Usage: scripts/cluster_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/ppserve" ./cmd/ppserve
go build -o "$workdir/ppsweep" ./cmd/ppsweep

# The dispatcher routes every protocol by its own content hash, so the
# twelve protocols below (three templates × four params) are twelve
# rendezvous groups spread over worker IDs w1/w2.
# 3 templates × 4 params × (2 simulate sizes + 2 verify sizes + 1 stable)
# = 60 cells.
spec="$workdir/spec.json"
cat > "$spec" <<'EOF'
{
  "name": "cluster-smoke",
  "protocols": [{"spec": "flock:{N}"}, {"spec": "binary:{N}"}, {"spec": "mod:{N}:0"}],
  "params": [{"from": 3, "to": 6}],
  "kinds": ["simulate", "verify", "stable"],
  "sizes": [6, 7],
  "options": {"seed": 11, "exactOracle": true}
}
EOF
want_cells=60

# wait_listen <logfile>: print the host:port the daemon bound (the OS picks
# the port — -addr 127.0.0.1:0 — so parallel CI jobs cannot collide).
wait_listen() {
  local log="$1" addr=""
  for _ in $(seq 1 100); do
    addr="$(sed -n 's/^ppserve: listening on //p' "$log" | head -n 1)"
    if [ -n "$addr" ]; then
      echo "$addr"
      return 0
    fi
    sleep 0.1
  done
  echo "ppserve never came up; log:" >&2
  cat "$log" >&2
  return 1
}

"$workdir/ppserve" -coordinator -addr 127.0.0.1:0 -range-cells 3 -log-requests \
  > "$workdir/coord.log" 2>&1 &
pids+=($!)
coord="http://$(wait_listen "$workdir/coord.log")"

for i in 1 2; do
  "$workdir/ppserve" -worker -join "$coord" -worker-id "w$i" -addr 127.0.0.1:0 \
    > "$workdir/worker$i.log" 2>&1 &
  pids+=($!)
  wait_listen "$workdir/worker$i.log" > /dev/null
done

# Membership forms asynchronously (register + heartbeat); wait for both.
member_count() { grep -o '"id"' <<< "$1" | wc -l; }
members=""
for _ in $(seq 1 100); do
  members="$(curl -sf "$coord/v1/cluster/members" || true)"
  if [ "$(member_count "$members")" -ge 2 ]; then
    break
  fi
  sleep 0.1
done
if [ "$(member_count "$members")" -lt 2 ]; then
  echo "workers never registered; members: $members" >&2
  cat "$workdir"/worker*.log >&2
  exit 1
fi

"$workdir/ppsweep" -spec "$spec" -canonical -quiet > "$workdir/local.ndjson"
"$workdir/ppsweep" -spec "$spec" -cluster "$coord" -canonical -quiet > "$workdir/cluster.ndjson"

if ! diff -u "$workdir/local.ndjson" "$workdir/cluster.ndjson"; then
  echo "FAIL: cluster NDJSON diverges from the single-process run" >&2
  exit 1
fi

# The grid really ran on the workers: their served-cell counts sum to the
# whole grid (the coordinator executes locally only when no worker is live).
served="$(curl -sf "$coord/v1/cluster/members" \
  | grep -o '"cellsServed":[0-9]*' | cut -d: -f2 | awk '{s += $1} END {print s + 0}')"
if [ "${served:-0}" -ne "$want_cells" ]; then
  echo "FAIL: workers served $served cells, want $want_cells" >&2
  curl -sf "$coord/v1/cluster/members" >&2
  exit 1
fi

# The coordinator's Prometheus exposition agrees: the per-worker
# cells-served counters sum to the grid size. (Retries re-dispatch whole
# ranges but each cell is recorded exactly once, so the sum is exact.)
metrics="$(curl -sf "$coord/metrics")"
scraped="$(grep '^pp_cluster_cells_served_total{' <<< "$metrics" \
  | awk '{s += $2} END {print s + 0}')"
if [ "${scraped:-0}" -ne "$want_cells" ]; then
  echo "FAIL: /metrics cells-served counters sum to $scraped, want $want_cells" >&2
  grep '^pp_cluster' <<< "$metrics" >&2 || true
  exit 1
fi
# Both workers appear in the routing distribution — the hash router
# actually spread the grid instead of pinning everything to one worker.
for w in w1 w2; do
  if ! grep -q "^pp_cluster_cells_routed_total{worker=\"$w\"}" <<< "$metrics"; then
    echo "FAIL: /metrics routing distribution misses worker $w" >&2
    grep '^pp_cluster' <<< "$metrics" >&2 || true
    exit 1
  fi
done
# And a healthy run retries nothing: every range succeeds on the worker
# it was routed to.
retried="$(awk '/^pp_cluster_ranges_retried_total{/ {s += $2} END {print s + 0}' <<< "$metrics")"
if [ "${retried%.*}" -ne 0 ]; then
  echo "FAIL: $retried ranges retried on a healthy cluster run" >&2
  grep '^pp_cluster_ranges' <<< "$metrics" >&2 || true
  exit 1
fi

rows="$(wc -l < "$workdir/local.ndjson")"
echo "cluster smoke OK: $rows canonical rows byte-identical across 1 coordinator + 2 workers ($served cells served remotely, /metrics agrees)"
