package cluster_test

import (
	"context"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics/testutil"
	"repro/internal/sweep"
)

// TestMetricsMembershipGauges pins the scrape-time membership collectors
// against a fake clock: member counts by state, per-worker heartbeat age,
// and the deregistration counter (which must ignore unknown IDs).
func TestMetricsMembershipGauges(t *testing.T) {
	now := time.Unix(100, 0)
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Now: func() time.Time { return now },
	})
	m := coord.Metrics()

	coord.Register("w1", "http://w1")
	now = now.Add(5 * time.Second)
	coord.Register("w2", "http://w2")
	if _, err := coord.Heartbeat("w2", true); err != nil { // drain
		t.Fatal(err)
	}

	wantMembers := `
		# HELP pp_cluster_members Registered workers by state, lease expiry applied.
		# TYPE pp_cluster_members gauge
		pp_cluster_members{state="active"} 1
		pp_cluster_members{state="draining"} 1
	`
	if err := testutil.CollectAndCompare(m.Members, strings.NewReader(wantMembers)); err != nil {
		t.Error(err)
	}

	wantAges := `
		# HELP pp_cluster_heartbeat_age_seconds Seconds since each worker's last registration or heartbeat.
		# TYPE pp_cluster_heartbeat_age_seconds gauge
		pp_cluster_heartbeat_age_seconds{worker="w1"} 5
		pp_cluster_heartbeat_age_seconds{worker="w2"} 0
	`
	if err := testutil.CollectAndCompare(m.HeartbeatAge, strings.NewReader(wantAges)); err != nil {
		t.Error(err)
	}

	coord.Deregister("w1")
	coord.Deregister("nobody") // unknown: no-op, not a deregistration
	if got := testutil.ToFloat64(m.Deregistrations); got != 1 {
		t.Errorf("deregistrations = %v, want 1", got)
	}
	wantAfter := `
		# HELP pp_cluster_members Registered workers by state, lease expiry applied.
		# TYPE pp_cluster_members gauge
		pp_cluster_members{state="active"} 0
		pp_cluster_members{state="draining"} 1
	`
	if err := testutil.CollectAndCompare(m.Members, strings.NewReader(wantAfter)); err != nil {
		t.Error(err)
	}
}

// TestMetricsHealthySweepDistribution pins the dispatcher counters on a
// clean two-worker run: every cell is routed and served exactly once, no
// retries, no orphans, no deregistrations.
func TestMetricsHealthySweepDistribution(t *testing.T) {
	spec := integrationSpec()
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	m := coord.Metrics()
	startWorker(t, coord, "w1", nil)
	startWorker(t, coord, "w2", nil)

	res, err := sweep.Pipeline(context.Background(), spec, coord.Executor(cluster.DispatchOptions{
		LocalEngine: engine.New(),
		RangeCells:  3,
	}), nil, sweep.Hooks{})
	if err != nil {
		t.Fatal(err)
	}

	routed := testutil.ToFloat64(m.CellsRouted.WithLabelValues("w1")) +
		testutil.ToFloat64(m.CellsRouted.WithLabelValues("w2"))
	served := testutil.ToFloat64(m.CellsServed.WithLabelValues("w1")) +
		testutil.ToFloat64(m.CellsServed.WithLabelValues("w2"))
	if routed != float64(res.TotalCells) {
		t.Errorf("cells routed = %v, want %d", routed, res.TotalCells)
	}
	if served != float64(res.TotalCells) {
		t.Errorf("cells served = %v, want %d", served, res.TotalCells)
	}
	// The rendezvous distribution: both workers took part.
	for _, id := range []string{"w1", "w2"} {
		if testutil.ToFloat64(m.RangesDispatched.WithLabelValues(id)) == 0 {
			t.Errorf("worker %s dispatched no ranges", id)
		}
	}
	for _, id := range []string{"w1", "w2", cluster.LocalWorkerLabel} {
		if got := testutil.ToFloat64(m.RangesRetried.WithLabelValues(id)); got != 0 {
			t.Errorf("ranges_retried{%s} = %v, want 0", id, got)
		}
		if got := testutil.ToFloat64(m.RangesOrphaned.WithLabelValues(id)); got != 0 {
			t.Errorf("ranges_orphaned{%s} = %v, want 0", id, got)
		}
	}
	if got := testutil.ToFloat64(m.Deregistrations); got != 0 {
		t.Errorf("deregistrations = %v, want 0", got)
	}
}

// TestMetricsKilledWorkerOrphansThenRetries is the ISSUE's drill as a
// metrics assertion: the only worker dies mid-range, so the failed range
// is retried (against the dead worker's name), its still-queued ranges are
// orphaned to survivors, and the death registers as a deregistration — all
// with the sweep still completing locally.
func TestMetricsKilledWorkerOrphansThenRetries(t *testing.T) {
	spec := integrationSpec() // 60 cells over 12 protocols
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	m := coord.Metrics()

	var died atomic.Bool
	killer := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && died.CompareAndSwap(false, true) {
				w = &abortAfter{ResponseWriter: w, n: 2}
			}
			inner.ServeHTTP(w, r)
		})
	}
	startWorker(t, coord, "w1", killer)

	// 12 protocol groups of 5 cells → 12 ranges, all routed to the only
	// worker. It dies 2 rows into the first; the dispatcher must retry
	// that range and orphan the queued 11.
	res, err := sweep.Pipeline(context.Background(), spec, coord.Executor(cluster.DispatchOptions{
		LocalEngine: engine.New(),
		RangeCells:  5,
	}), nil, sweep.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.TotalCells {
		t.Fatalf("sweep incomplete: %d/%d", res.Completed, res.TotalCells)
	}

	if got := testutil.ToFloat64(m.RangesRetried.WithLabelValues("w1")); got != 1 {
		t.Errorf("ranges_retried{w1} = %v, want 1", got)
	}
	if got := testutil.ToFloat64(m.RangesOrphaned.WithLabelValues("w1")); got != 11 {
		t.Errorf("ranges_orphaned{w1} = %v, want 11", got)
	}
	if got := testutil.ToFloat64(m.Deregistrations); got != 1 {
		t.Errorf("deregistrations = %v, want 1", got)
	}
	// The 2 cells streamed before the abort are w1's; everything else ran
	// locally after the death.
	if got := testutil.ToFloat64(m.CellsServed.WithLabelValues("w1")); got != 2 {
		t.Errorf("cells_served{w1} = %v, want 2", got)
	}
	if got := testutil.ToFloat64(m.RangesDispatched.WithLabelValues(cluster.LocalWorkerLabel)); got != 12 {
		t.Errorf("ranges_dispatched{local} = %v, want 12 (11 orphans + 1 retry)", got)
	}
	routedLocal := testutil.ToFloat64(m.CellsRouted.WithLabelValues(cluster.LocalWorkerLabel))
	if routedLocal != 58 { // 11 orphaned ranges × 5 cells + 3 retried cells
		t.Errorf("cells_routed{local} = %v, want 58", routedLocal)
	}
}

// TestMetricsNoWorkersDegradedMode: with an empty membership every range
// routes to the coordinator's local queue, so the degraded path shows up
// as local routing — every cell routed local, one local dispatch per range
// — and no worker traffic.
func TestMetricsNoWorkersDegradedMode(t *testing.T) {
	spec := integrationSpec() // 60 cells over 12 protocols
	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	res, err := sweep.Pipeline(context.Background(), spec, coord.Executor(cluster.DispatchOptions{
		LocalEngine: engine.New(), LocalWorkers: 2,
	}), nil, sweep.Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.TotalCells || res.Workers != 2 {
		t.Fatalf("completed %d/%d on %d workers, want all on 2", res.Completed, res.TotalCells, res.Workers)
	}
	m := coord.Metrics()
	if got := testutil.ToFloat64(m.CellsRouted.WithLabelValues(cluster.LocalWorkerLabel)); got != float64(res.TotalCells) {
		t.Errorf("cells_routed{local} = %v, want %d", got, res.TotalCells)
	}
	if got := testutil.ToFloat64(m.RangesDispatched.WithLabelValues(cluster.LocalWorkerLabel)); got != 12 {
		t.Errorf("ranges_dispatched{local} = %v, want 12 (one per protocol group)", got)
	}
	if got := testutil.ToFloat64(m.RangesRetried.WithLabelValues(cluster.LocalWorkerLabel)); got != 0 {
		t.Errorf("ranges_retried{local} = %v, want 0", got)
	}
}
