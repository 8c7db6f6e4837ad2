#!/usr/bin/env bash
# crash_smoke.sh — kill -9 crash-recovery equivalence check.
#
# Boots a real journaled ppserve coordinator (-journal-dir, -artifact-dir)
# on loopback TCP, streams a sweep into it, SIGKILLs the process after a
# handful of cells have been journaled, restarts it over the same
# directories, and reruns the identical spec. The restarted run must:
#
#   1. produce a canonical NDJSON stream byte-identical to a never-crashed
#      baseline run (replayed cells verbatim + resumed remainder), and
#   2. report the recovery on /metrics (pp_journal_recoveries_total,
#      replayed cells, and disk-store artifact hits for the protocols the
#      crashed run already computed), and
#   3. append only cell and done records, the two types replay reads.
#
# Two more phases follow: a sweep under an artifact-store budget, and two
# sweeps under a journal budget that retires the first one's WAL.
#
# Usage: scripts/crash_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="$(mktemp -d)"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/ppserve" ./cmd/ppserve
go build -o "$workdir/ppsweep" ./cmd/ppsweep

# A grid slow enough to reliably catch mid-flight (~0.25s per simulate
# cell: 4000 seeded runs at population 400), with seed-driven randomness
# so byte-equality across the crash is a real claim: 8 protocols ×
# (2 simulate sizes + 1 stable) = 24 cells, several seconds end to end.
spec="$workdir/spec.json"
cat > "$spec" <<'EOF'
{
  "name": "crash-smoke",
  "protocols": [{"spec": "flock:{N}"}],
  "params": [{"from": 3, "to": 10}],
  "kinds": ["simulate", "stable"],
  "sizes": [400, 401],
  "options": {"seed": 23, "runs": 4000}
}
EOF
total_cells=24

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

# Baseline: the same spec through a journaled server that never crashes
# (fresh directories), canonicalized for byte comparison.
"$workdir/ppserve" -coordinator -addr 127.0.0.1:0 \
  -journal-dir "$workdir/journal-base" -artifact-dir "$workdir/artifacts-base" \
  > "$workdir/base.log" 2>&1 &
base_pid=$!
pids+=($base_pid)
base="http://$(wait_listen "$workdir/base.log")"
"$workdir/ppsweep" -spec "$spec" -cluster "$base" -canonical -quiet > "$workdir/baseline.ndjson"
kill "$base_pid" 2>/dev/null || true

# Crash run: stream the sweep, SIGKILL the server once a few cells are
# durably journaled. curl streams to a file so we can watch progress.
"$workdir/ppserve" -coordinator -addr 127.0.0.1:0 -log-requests \
  -journal-dir "$workdir/journal" -artifact-dir "$workdir/artifacts" \
  > "$workdir/run1.log" 2>&1 &
srv_pid=$!
pids+=($srv_pid)
url="http://$(wait_listen "$workdir/run1.log")"
curl -sN -X POST --data-binary @"$spec" "$url/v1/sweep" \
  > "$workdir/partial.ndjson" 2>/dev/null &
curl_pid=$!
pids+=($curl_pid)

rows=0
for _ in $(seq 1 600); do
  rows="$(grep -c '"type":"cell"' "$workdir/partial.ndjson" 2>/dev/null || true)"
  if [ "${rows:-0}" -ge 5 ]; then
    break
  fi
  sleep 0.02
done
if [ "${rows:-0}" -lt 5 ]; then
  echo "FAIL: sweep never streamed 5 cells before the kill window" >&2
  cat "$workdir/run1.log" >&2
  exit 1
fi
kill -9 "$srv_pid"
wait "$curl_pid" 2>/dev/null || true
if [ "$rows" -ge "$total_cells" ]; then
  echo "FAIL: sweep finished ($rows/$total_cells cells) before the kill — not a mid-flight crash" >&2
  exit 1
fi
echo "crash smoke: SIGKILLed coordinator after $rows/$total_cells streamed cells"

if ! ls "$workdir/journal/"*.wal > /dev/null 2>&1; then
  echo "FAIL: no journal file survived the crash" >&2
  exit 1
fi

# Restart over the same journal + artifact directories and rerun.
"$workdir/ppserve" -coordinator -addr 127.0.0.1:0 -log-requests \
  -journal-dir "$workdir/journal" -artifact-dir "$workdir/artifacts" \
  > "$workdir/run2.log" 2>&1 &
pids+=($!)
url2="http://$(wait_listen "$workdir/run2.log")"
"$workdir/ppsweep" -spec "$spec" -cluster "$url2" -canonical -quiet > "$workdir/resumed.ndjson"

if ! diff -u "$workdir/baseline.ndjson" "$workdir/resumed.ndjson"; then
  echo "FAIL: resumed canonical NDJSON diverges from the never-crashed run" >&2
  exit 1
fi

# Warm-restart assertion: flock:3's stable analysis ran before the crash,
# so this repeated-protocol request against the restarted (cold-memory)
# engine must be served from the disk artifact store, not recomputed.
curl -sf -X POST -d '{"kind":"stable","protocol":{"spec":"flock:3"}}' \
  "$url2/v1/analyze" > /dev/null

metrics="$(curl -sf "$url2/metrics")"
recoveries="$(awk '/^pp_journal_recoveries_total/ {print $2}' <<< "$metrics")"
recoveries="${recoveries:-0}"
if [ "${recoveries%.*}" -lt 1 ]; then
  echo "FAIL: restarted server reported no journal recovery" >&2
  grep '^pp_journal' <<< "$metrics" >&2 || true
  exit 1
fi
replayed="$(awk '/^pp_journal_replayed_cells_total/ {print $2}' <<< "$metrics")"
replayed="${replayed:-0}"
if [ "${replayed%.*}" -lt "$rows" ]; then
  echo "FAIL: journal replayed ${replayed%.*} cells, streamed $rows before the kill" >&2
  exit 1
fi
# The journal writes only what replay reads back: every
# pp_journal_appends_total series is type="cell" or type="done", and the
# completed resume sealed its journal.
append_types="$(sed -n 's/^pp_journal_appends_total{type="\([^"]*\)"}.*/\1/p' <<< "$metrics" | sort | tr '\n' ' ')"
if [ -z "$append_types" ] || grep -qvE '^(cell )?done $' <<< "$append_types"; then
  echo "FAIL: pp_journal_appends_total has series [${append_types}], want only cell and done" >&2
  grep '^pp_journal_appends_total' <<< "$metrics" >&2 || true
  exit 1
fi
store_hits="$(awk '/^pp_store_reads_total\{result="hit"\}/ {print $2}' <<< "$metrics")"
if [ -z "$store_hits" ] || [ "${store_hits%.*}" -lt 1 ]; then
  echo "FAIL: restarted engine never hit the disk artifact store" >&2
  grep '^pp_store' <<< "$metrics" >&2 || true
  exit 1
fi

total_rows="$(wc -l < "$workdir/baseline.ndjson")"
echo "crash smoke OK: kill -9 after $rows cells, resume replayed ${replayed%.*} and produced $total_rows byte-identical canonical rows (journal recoveries=${recoveries%.*}, store hits=${store_hits%.*})"

# Disk-pressure phase: the same journaled sweep under an artifact budget
# well below the working set (the flock 3..10 stable artifacts alone are
# ~6.5KB). The GC must evict under pressure while the sweep completes to
# the same canonical bytes — governance degrades cache hits, never
# correctness. Eviction runs inside the write that crosses the budget, so
# the tracked size must never read above it.
budget=2048
"$workdir/ppserve" -coordinator -addr 127.0.0.1:0 \
  -journal-dir "$workdir/journal-gc" -artifact-dir "$workdir/artifacts-gc" \
  -artifact-max-bytes "$budget" \
  > "$workdir/gc.log" 2>&1 &
pids+=($!)
gcurl="http://$(wait_listen "$workdir/gc.log")"
"$workdir/ppsweep" -spec "$spec" -cluster "$gcurl" -canonical -quiet > "$workdir/pressured.ndjson"

if ! diff -u "$workdir/baseline.ndjson" "$workdir/pressured.ndjson"; then
  echo "FAIL: canonical NDJSON diverges under artifact-store GC pressure" >&2
  exit 1
fi
gcmetrics="$(curl -sf "$gcurl/metrics")"
evictions="$(awk '/^pp_store_gc_evictions_total/ {print $2}' <<< "$gcmetrics")"
evictions="${evictions:-0}"
if [ "${evictions%.*}" -lt 1 ]; then
  echo "FAIL: artifact budget below working set but pp_store_gc_evictions_total=${evictions}" >&2
  grep '^pp_store' <<< "$gcmetrics" >&2 || true
  exit 1
fi
gc_bytes="$(awk '/^pp_store_gc_bytes/ {print $2}' <<< "$gcmetrics")"
if [ -z "$gc_bytes" ] || ! awk -v b="$gc_bytes" -v max="$budget" 'BEGIN { exit !(b <= max) }'; then
  echo "FAIL: pp_store_gc_bytes=${gc_bytes:-missing} exceeds the ${budget}-byte artifact budget" >&2
  grep '^pp_store' <<< "$gcmetrics" >&2 || true
  exit 1
fi
echo "disk-pressure smoke OK: sweep byte-identical under a ${budget}-byte artifact budget (evictions=${evictions%.*}, tracked bytes=${gc_bytes:-?})"

# Journal-budget phase: a -journal-max-bytes budget above one sealed WAL
# but below two. Two specs of the crash grid's shape (different seeds, so
# different hashes) complete in turn; sealing the second retires the
# first, and the second keeps its cells, so resubmitting it replays
# entirely from disk with no new cell appends.
base_wals=("$workdir/journal-base/"*.wal)
wal_bytes="$(wc -c < "${base_wals[0]}")"
jbudget=$((wal_bytes + wal_bytes / 2))
for seed in 5 6; do
  cat > "$workdir/budget-$seed.json" <<SPEC
{
  "name": "budget-smoke",
  "protocols": [{"spec": "flock:{N}"}],
  "params": [{"from": 3, "to": 10}],
  "kinds": ["simulate", "stable"],
  "sizes": [400, 401],
  "options": {"seed": $seed, "runs": 40}
}
SPEC
done
"$workdir/ppserve" -coordinator -addr 127.0.0.1:0 \
  -journal-dir "$workdir/journal-budget" -artifact-dir "$workdir/artifacts-base" \
  -journal-max-bytes "$jbudget" \
  > "$workdir/budget.log" 2>&1 &
pids+=($!)
burl="http://$(wait_listen "$workdir/budget.log")"
"$workdir/ppsweep" -spec "$workdir/budget-5.json" -cluster "$burl" -canonical -quiet > /dev/null
first_wal="$(ls "$workdir/journal-budget")"
"$workdir/ppsweep" -spec "$workdir/budget-6.json" -cluster "$burl" -canonical -quiet > "$workdir/budget1.ndjson"
left="$(ls "$workdir/journal-budget")"
if [ "$(wc -w <<< "$left")" -ne 1 ] || [ "$left" = "$first_wal" ]; then
  echo "FAIL: journal holds [${left//$'\n'/ }] under a ${jbudget}-byte budget, want only the second spec's WAL (first was $first_wal)" >&2
  exit 1
fi
jmetrics="$(curl -sf "$burl/metrics")"
retired="$(awk '/^pp_journal_retired_total/ {print $2}' <<< "$jmetrics")"
retired="${retired:-0}"
if [ "${retired%.*}" -lt 1 ]; then
  echo "FAIL: two sealed WALs over a ${jbudget}-byte budget but pp_journal_retired_total=${retired}" >&2
  grep '^pp_journal' <<< "$jmetrics" >&2 || true
  exit 1
fi
cells_before="$(awk '/^pp_journal_appends_total\{type="cell"\}/ {print $2}' <<< "$jmetrics")"
"$workdir/ppsweep" -spec "$workdir/budget-6.json" -cluster "$burl" -canonical -quiet > "$workdir/budget2.ndjson"
if ! diff -u "$workdir/budget1.ndjson" "$workdir/budget2.ndjson"; then
  echo "FAIL: resubmitted spec's canonical NDJSON diverges from its first run" >&2
  exit 1
fi
cells_after="$(curl -sf "$burl/metrics" | awk '/^pp_journal_appends_total\{type="cell"\}/ {print $2}')"
if [ -z "$cells_before" ] || [ "$cells_after" != "$cells_before" ]; then
  echo "FAIL: resubmitting a retained sealed spec appended cells (${cells_before} → ${cells_after}); it should replay from disk" >&2
  exit 1
fi
echo "journal-budget smoke OK: ${jbudget}-byte budget retired ${retired%.*} WAL(s), kept $left, and its resubmission replayed $(wc -l < "$workdir/budget2.ndjson") byte-identical rows with no new cell appends"
