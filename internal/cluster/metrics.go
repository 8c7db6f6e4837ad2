package cluster

import (
	"sort"

	"repro/internal/metrics"
)

// LocalWorkerLabel is the worker label of ranges and cells the coordinator
// executed itself (no live worker could take them).
const LocalWorkerLabel = "local"

// Metrics is the coordinator's exported instrumentation: membership state
// and heartbeat freshness read live at scrape time, plus dispatcher
// counters showing where every range and cell of a fanned-out sweep went.
type Metrics struct {
	// Members reports the current member count by state (active,
	// draining), evaluated against the lease TTL at scrape time.
	Members *memberGauge
	// HeartbeatAge reports seconds since each unexpired worker's last
	// heartbeat, at scrape time.
	HeartbeatAge *heartbeatGauge
	// RangesDispatched counts range dispatch attempts per worker
	// ("local" = executed on the coordinator).
	RangesDispatched *metrics.CounterVec
	// RangesRetried counts ranges re-enqueued after a failed, short or
	// repeatedly-shed attempt, labelled by the worker that failed them.
	RangesRetried *metrics.CounterVec
	// RangesOrphaned counts queued ranges handed to survivors because
	// their worker died or drained before dispatch.
	RangesOrphaned *metrics.CounterVec
	// CellsRouted counts cells at enqueue time by the worker the
	// rendezvous routing chose ("local" when none could take them) — the
	// observable routing distribution.
	CellsRouted *metrics.CounterVec
	// CellsServed counts cells each worker delivered first (duplicates
	// from retried ranges excluded), mirroring Worker.CellsServed.
	CellsServed *metrics.CounterVec
	// Deregistrations counts workers leaving the membership explicitly:
	// graceful drain exits and dispatch-failure MarkDead calls alike.
	Deregistrations *metrics.Counter
}

func newClusterMetrics(c *Coordinator) *Metrics {
	sub := func(name, help string) metrics.Opts {
		return metrics.Opts{Namespace: "pp", Subsystem: "cluster", Name: name, Help: help}
	}
	return &Metrics{
		Members:      &memberGauge{coord: c},
		HeartbeatAge: &heartbeatGauge{coord: c},
		RangesDispatched: metrics.NewCounterVec(
			sub("ranges_dispatched_total", "Range dispatch attempts by worker (\"local\" = coordinator-executed)."),
			[]string{"worker"}),
		RangesRetried: metrics.NewCounterVec(
			sub("ranges_retried_total", "Ranges re-enqueued after a failed or short attempt, by failing worker."),
			[]string{"worker"}),
		RangesOrphaned: metrics.NewCounterVec(
			sub("ranges_orphaned_total", "Queued ranges rerouted because their worker died or drained."),
			[]string{"worker"}),
		CellsRouted: metrics.NewCounterVec(
			sub("cells_routed_total", "Cells enqueued by rendezvous-routed worker — the routing distribution."),
			[]string{"worker"}),
		CellsServed: metrics.NewCounterVec(
			sub("cells_served_total", "Cells first delivered by each worker (retry duplicates excluded)."),
			[]string{"worker"}),
		Deregistrations: metrics.NewCounter(
			sub("deregistrations_total", "Workers removed from membership (graceful exits and dispatch failures).")),
	}
}

// Metrics returns the coordinator's instrumentation.
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// Collectors returns every collector of the set, for registration.
func (m *Metrics) Collectors() []metrics.Collector {
	return []metrics.Collector{
		m.Members, m.HeartbeatAge,
		m.RangesDispatched, m.RangesRetried, m.RangesOrphaned,
		m.CellsRouted, m.CellsServed, m.Deregistrations,
	}
}

// Register registers the whole set into reg.
func (m *Metrics) Register(reg *metrics.Registry) {
	reg.MustRegister(m.Collectors()...)
}

// memberGauge gathers pp_cluster_members{state}: the member count by
// lifecycle state, read from the live membership (lease expiry applied) at
// scrape time.
type memberGauge struct{ coord *Coordinator }

func (g *memberGauge) Family() metrics.Family {
	counts := map[WorkerState]int{StateActive: 0, StateDraining: 0}
	for _, w := range g.coord.Members() {
		counts[w.State]++
	}
	states := make([]WorkerState, 0, len(counts))
	for s := range counts {
		states = append(states, s)
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })
	f := metrics.Family{
		Name: "pp_cluster_members",
		Help: "Registered workers by state, lease expiry applied.",
		Type: "gauge",
	}
	for _, s := range states {
		f.Samples = append(f.Samples, metrics.Sample{
			Labels: []metrics.Label{{Name: "state", Value: string(s)}},
			Value:  float64(counts[s]),
		})
	}
	return f
}

// heartbeatGauge gathers pp_cluster_heartbeat_age_seconds{worker}: how
// stale each unexpired worker's lease is at scrape time.
type heartbeatGauge struct{ coord *Coordinator }

func (g *heartbeatGauge) Family() metrics.Family {
	now := g.coord.now()
	f := metrics.Family{
		Name: "pp_cluster_heartbeat_age_seconds",
		Help: "Seconds since each worker's last registration or heartbeat.",
		Type: "gauge",
	}
	for _, w := range g.coord.Members() {
		f.Samples = append(f.Samples, metrics.Sample{
			Labels: []metrics.Label{{Name: "worker", Value: w.ID}},
			Value:  now.Sub(w.LastSeen).Seconds(),
		})
	}
	return f
}
