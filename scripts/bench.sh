#!/usr/bin/env bash
# bench.sh — run the pinned benchmark suites and record the numbers.
#
# Four suites, one JSON file each:
#
#   reach   BenchmarkExplore*/BenchmarkCover*/BenchmarkMaxCover*/
#           BenchmarkVerify* in internal/reach (includes the retained
#           pre-arena core as the "before" side), five samples per
#           benchmark, recorded as median and min/max → BENCH_reach.json
#   sim     BenchmarkSimStep*/BenchmarkRunReplicas* in internal/sim
#           (includes the retained linear-scan core as the "before" side),
#           five samples per benchmark, recorded as median and min/max
#                                                   → BENCH_sim.json
#   stable  BenchmarkStableAnalyze* in internal/stable (includes the
#           retained seed fixpoint as the "before" side; expect the Naive
#           benchmark to take minutes per iteration)  → BENCH_stable.json
#   sweep   BenchmarkSweepStoreHit/BenchmarkSweepCold in internal/sweep —
#           the binary:{40..70} stable grid on a fresh engine over a
#           filled artifact store vs with no store; always one grid per
#           sample (-benchtime 1x), five samples, recorded as median and
#           min/max                                   → BENCH_sweep.json
#
# Usage:
#   scripts/bench.sh                   # all suites, full run
#   scripts/bench.sh sim               # one suite
#   BENCHTIME=1x scripts/bench.sh      # smoke run (CI)
#   OUT_SIM=/tmp/s.json scripts/bench.sh sim   # alternate output path
set -euo pipefail
cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-2s}"
suites="${1:-all}"

# Temp files are cleaned up on any exit, including a failing `go test`
# under `set -e`.
tmpfiles=()
trap 'rm -f "${tmpfiles[@]:-}"' EXIT

# render <suite> <notes> <raw-file> <out-file>: turn `go test -bench` output
# into the committed JSON shape. A benchmark run with -count k > 1 prints k
# lines under one name; they become one row with "samples": k, the median
# of every figure, and the min/max of ns_per_op.
render() {
  awk -v suite="$1" -v notes="$2" \
      -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
      -v goversion="$(go version | awk '{print $3}')" \
      -v benchtime="$benchtime" \
      -v maxprocs="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}" \
      -v hostcpus="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)" '
# median(list): the median of the space-separated numbers in list (the
# mean of the middle two for an even count); sets lo and hi to the extremes.
function median(list,    v, k, i, j, x) {
  k = split(list, v, " ")
  for (i = 2; i <= k; i++) { # insertion sort, numeric
    x = v[i] + 0
    for (j = i - 1; j >= 1 && v[j] + 0 > x; j--) v[j + 1] = v[j]
    v[j + 1] = x
  }
  lo = num(v[1]); hi = num(v[k])
  if (k % 2) return num(v[(k + 1) / 2])
  return num((v[k / 2] + v[k / 2 + 1]) / 2)
}
# num(x): x as a JSON number; awk would print large values as 1.8e+11.
function num(x) {
  if (x == int(x)) return sprintf("%.0f", x)
  return sprintf("%.10g", x)
}
BEGIN { n = 0 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
  name = $1
  sub(/-[0-9]+$/, "", name) # drop the GOMAXPROCS suffix: names must match across machines
  if (!(name in samples)) { order[n++] = name; samples[name] = 0; nm[name] = 0 }
  samples[name]++
  iters[name] = iters[name] " " $2
  for (i = 3; i < NF; i += 2) {
    v = $i; u = $(i + 1)
    if (u == "ns/op") ns[name] = ns[name] " " v
    else if (u == "B/op") bytes[name] = bytes[name] " " v
    else if (u == "allocs/op") allocs[name] = allocs[name] " " v
    else {
      if (!((name, u) in metric)) munit[name, nm[name]++] = u
      metric[name, u] = metric[name, u] " " v
    }
  }
}
END {
  print "{"
  print "  \"suite\": \"" suite "\","
  print "  \"date\": \"" date "\","
  print "  \"go\": \"" goversion "\","
  print "  \"cpu\": \"" cpu "\","
  print "  \"gomaxprocs\": " maxprocs ","
  print "  \"host_cpus\": " hostcpus ","
  print "  \"benchtime\": \"" benchtime "\","
  print "  \"notes\": \"" notes "\","
  print "  \"benchmarks\": ["
  for (r = 0; r < n; r++) {
    name = order[r]
    row = "    {\"name\": \"" name "\", \"samples\": " samples[name] ", \"iterations\": " median(iters[name])
    if (name in ns) row = row ", \"ns_per_op\": " median(ns[name]) ", \"ns_per_op_min\": " lo ", \"ns_per_op_max\": " hi
    if (name in bytes)  row = row ", \"bytes_per_op\": " median(bytes[name])
    if (name in allocs) row = row ", \"allocs_per_op\": " median(allocs[name])
    if (nm[name] > 0) {
      metrics = ""
      for (m = 0; m < nm[name]; m++) {
        u = munit[name, m]
        if (metrics != "") metrics = metrics ", "
        metrics = metrics "\"" u "\": " median(metric[name, u])
      }
      row = row ", \"metrics\": {" metrics "}"
    }
    print row "}" (r < n - 1 ? "," : "")
  }
  print "  ]"
  print "}"
}' "$3" > "$4"
  echo "wrote $4" >&2
}

run_reach() {
  local out="${OUT_REACH:-BENCH_reach.json}"
  local tmp
  tmp="$(mktemp)"
  tmpfiles+=("$tmp")
  go test ./internal/reach -run '^$' \
    -bench 'Benchmark(Explore|Cover|MaxCover|Verify)' \
    -benchmem -benchtime "$benchtime" -count 5 | tee "$tmp" >&2
  render reach \
    "*Naive benchmarks run the retained pre-arena core (the before side of the comparison); VerifySweepMix is the 12 verify cells of the perfbench sweep grid (flock 4..7, sizes 2..N-1, N+1, 2N) on pooled graphs; VerifyAfterLargeExplore times flock(7) 2..14 on a pool warmed by itself (steady) and by an untimed flock(6) IC(36) range (after-large); each row is the median of 5 samples with the min/max of ns_per_op" \
    "$tmp" "$out"
}

run_sim() {
  local out="${OUT_SIM:-BENCH_sim.json}"
  local tmp
  tmp="$(mktemp)"
  tmpfiles+=("$tmp")
  go test ./internal/sim -run '^$' \
    -bench 'Benchmark(SimStep|RunReplicas)' \
    -benchmem -benchtime "$benchtime" -count 5 | tee "$tmp" >&2
  render sim \
    "SimStepReference runs the retained linear-scan core and RunReplicasRebuild the per-replica-rebuild baseline (the before sides); the SimStep/SimStepReference interactions/sec ratio is the pinned single-thread speedup on the Q=132 product workload; each row is the median of 5 samples with the min/max of ns_per_op" \
    "$tmp" "$out"
}

run_stable() {
  local out="${OUT_STABLE:-BENCH_stable.json}"
  local tmp
  tmp="$(mktemp)"
  tmpfiles+=("$tmp")
  go test ./internal/stable -run '^$' \
    -bench 'BenchmarkStableAnalyze' \
    -benchmem -benchtime "$benchtime" -count 1 -timeout 2h | tee "$tmp" >&2
  render stable \
    "StableAnalyzeNaive runs the retained seed fixpoint (the before side; the seed complementation cannot finish this workload, so the baseline borrows the production complementation — the fixpoint ratio is conservative); pinned workload binary:104, |U_0 basis| = 11538; StableAnalyzeFlock rows are flock(10..12), the protocols of the end-to-end miss workload" \
    "$tmp" "$out"
}

run_sweep() {
  # An op is a whole 31-cell grid (about 2 s cold), so each sample runs
  # one; the five samples give the spread. BENCHTIME is deliberately
  # ignored here.
  local out="${OUT_SWEEP:-BENCH_sweep.json}"
  local benchtime=1x # shadows the global for the render call below
  local tmp
  tmp="$(mktemp)"
  tmpfiles+=("$tmp")
  go test ./internal/sweep -run '^$' \
    -bench 'BenchmarkSweep(StoreHit|Cold)$' \
    -benchmem -benchtime 1x -count 5 -timeout 1h | tee "$tmp" >&2
  render sweep \
    "The binary-threshold stable grid 40..70 (31 cells) run on a fresh engine per sample with one sweep worker: StoreHit over an artifact store filled by an untimed cold run (every cell a disk hit), Cold with no store (every cell computed); the Cold/StoreHit ns_per_op ratio is what the durable store saves a restarted server; each row is the median of 5 samples with the min/max of ns_per_op" \
    "$tmp" "$out"
}

case "$suites" in
  reach)    run_reach ;;
  sim)      run_sim ;;
  stable)   run_stable ;;
  sweep)    run_sweep ;;
  all)      run_reach; run_sim; run_stable; run_sweep ;;
  *) echo "usage: scripts/bench.sh [reach|sim|stable|sweep|all]" >&2; exit 2 ;;
esac
