package cluster_test

import (
	"net/http"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/metrics/testutil"
)

// failSweeps wraps a worker handler so /v1/sweep answers 500 while armed —
// a worker that accepts membership but cannot execute ranges.
func failSweeps(armed *atomic.Bool) func(http.Handler) http.Handler {
	return func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && armed.Load() {
				http.Error(w, "disk on fire", http.StatusInternalServerError)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
}

// TestFlappingWorkerWasteBounded counts what a flapping worker costs
// instead of timing it. The worker fails every range it accepts and
// rejoins after every sweep. Each sweep sends it at most one range, which
// fails once and is retried on the survivor: the dispatcher's MarkDead
// already stops routing to it for the rest of the sweep, and nothing runs
// on the coordinator's local pool. Once healed and rejoined, the worker
// takes ranges again on the very next sweep. Every sweep streams the
// single-process run's canonical bytes.
func TestFlappingWorkerWasteBounded(t *testing.T) {
	spec := integrationSpec()
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	var armed atomic.Bool
	armed.Store(true)
	bad := startWorker(t, coord, "bad", failSweeps(&armed))
	startWorker(t, coord, "good", nil)

	m := coord.Metrics()
	count := func() (dispatched, retried, local float64) {
		return testutil.ToFloat64(m.RangesDispatched.WithLabelValues("bad")),
			testutil.ToFloat64(m.RangesRetried.WithLabelValues("bad")),
			testutil.ToFloat64(m.RangesDispatched.WithLabelValues(cluster.LocalWorkerLabel))
	}
	opts := cluster.DispatchOptions{RangeCells: 5}

	for sweep := 1; sweep <= 3; sweep++ {
		d0, r0, _ := count()
		gotCells, gotSummary := dispatchCanonical(t, coord, spec, opts)
		assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
		d1, r1, local := count()
		if d1-d0 > 1 {
			t.Errorf("sweep %d: flapping worker received %v ranges, want ≤ 1", sweep, d1-d0)
		}
		if r1-r0 != 1 {
			t.Errorf("sweep %d: pp_cluster_ranges_retried_total{bad} grew by %v, want 1", sweep, r1-r0)
		}
		if local != 0 {
			t.Errorf("sweep %d: %v ranges ran on the local pool, want 0", sweep, local)
		}
		if coord.Alive("bad") {
			t.Fatalf("sweep %d: failed worker still alive", sweep)
		}
		coord.Register("bad", bad.URL)
	}

	armed.Store(false)
	coord.Register("bad", bad.URL)
	d0, r0, _ := count()
	gotCells, gotSummary := dispatchCanonical(t, coord, spec, opts)
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
	d1, r1, local := count()
	if d1 == d0 {
		t.Error("healed worker received no ranges")
	}
	if r1 != r0 {
		t.Errorf("healed worker: pp_cluster_ranges_retried_total{bad} grew by %v, want 0", r1-r0)
	}
	if local != 0 {
		t.Errorf("healed sweep: %v ranges ran on the local pool, want 0", local)
	}
}

// TestDispatchBreakerTripsFlappingWorker is the flapping drill. With no
// per-worker breaker, the dispatcher's MarkDead trips instead: a worker
// that fails the range it accepts leaves the membership for the rest of the
// sweep, having cost one range and one retry. A rejoin makes it live and
// routable again, and the next sweep trips it the same way. Both sweeps
// stream the single-process run's canonical bytes from the survivor.
func TestDispatchBreakerTripsFlappingWorker(t *testing.T) {
	spec := integrationSpec()
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	var armed atomic.Bool
	armed.Store(true)
	bad := startWorker(t, coord, "bad", failSweeps(&armed))
	startWorker(t, coord, "good", nil)
	m := coord.Metrics()
	opts := cluster.DispatchOptions{RangeCells: 5}

	gotCells, gotSummary := dispatchCanonical(t, coord, spec, opts)
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
	if got := testutil.ToFloat64(m.RangesDispatched.WithLabelValues("bad")); got != 1 {
		t.Fatalf("failing worker received %v ranges, want exactly 1", got)
	}
	if got := testutil.ToFloat64(m.RangesRetried.WithLabelValues("bad")); got != 1 {
		t.Errorf("pp_cluster_ranges_retried_total{bad} = %v, want 1", got)
	}
	if coord.Alive("bad") {
		t.Fatal("failed worker still alive after the sweep")
	}
	for _, w := range coord.Live() {
		if w.ID == "bad" {
			t.Fatal("failed worker still in the live set")
		}
	}

	// The flap: the worker rejoins at once and is routable again.
	coord.Register("bad", bad.URL)
	if !coord.Alive("bad") {
		t.Fatal("rejoined worker not alive")
	}
	routable := false
	for _, w := range coord.Live() {
		routable = routable || w.ID == "bad"
	}
	if !routable {
		t.Fatal("rejoined worker not in the live set")
	}

	gotCells, gotSummary = dispatchCanonical(t, coord, spec, opts)
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
	if got := testutil.ToFloat64(m.RangesDispatched.WithLabelValues("bad")); got > 2 {
		t.Errorf("flapping worker received %v ranges over two sweeps, want ≤ 2", got)
	}
	if got := testutil.ToFloat64(m.RangesRetried.WithLabelValues("bad")); got != 2 {
		t.Errorf("pp_cluster_ranges_retried_total{bad} = %v after two sweeps, want 2", got)
	}
	if coord.Alive("bad") {
		t.Error("flapping worker alive after failing its second sweep")
	}
}

// TestDispatchBreakerHalfOpenProbeRecovery drives a worker through failure
// and recovery: it fails a range and is marked dead, heals, rejoins, and —
// with no breaker backoff to wait out — serves a whole sweep on its own
// right away, without a single retry, streaming the canonical bytes.
func TestDispatchBreakerHalfOpenProbeRecovery(t *testing.T) {
	spec := integrationSpec()
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	var armed atomic.Bool
	armed.Store(true)
	bad := startWorker(t, coord, "bad", failSweeps(&armed))
	startWorker(t, coord, "good", nil)
	m := coord.Metrics()
	opts := cluster.DispatchOptions{RangeCells: 5}

	gotCells, gotSummary := dispatchCanonical(t, coord, spec, opts)
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
	if coord.Alive("bad") {
		t.Fatal("failed worker still alive")
	}

	// Heal and rejoin; leave the healed worker alone in the membership so
	// every range provably lands on it.
	armed.Store(false)
	coord.Register("bad", bad.URL)
	coord.Deregister("good")
	d0 := testutil.ToFloat64(m.RangesDispatched.WithLabelValues("bad"))
	r0 := testutil.ToFloat64(m.RangesRetried.WithLabelValues("bad"))

	gotCells, gotSummary = dispatchCanonical(t, coord, spec, opts)
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
	if d1 := testutil.ToFloat64(m.RangesDispatched.WithLabelValues("bad")); d1 == d0 {
		t.Fatal("healed worker received no ranges")
	}
	if r1 := testutil.ToFloat64(m.RangesRetried.WithLabelValues("bad")); r1 != r0 {
		t.Errorf("healed worker: pp_cluster_ranges_retried_total{bad} grew by %v, want 0", r1-r0)
	}
	if got := testutil.ToFloat64(m.RangesDispatched.WithLabelValues(cluster.LocalWorkerLabel)); got != 0 {
		t.Errorf("%v ranges ran on the local pool, want 0", got)
	}
	if !coord.Alive("bad") {
		t.Error("recovered worker lost its membership")
	}
}
