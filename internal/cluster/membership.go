// Package cluster turns the single-process sweep executor into a
// horizontally scalable system: a coordinator/worker mode layered on the
// existing /v1/analyze + /v1/sweep HTTP contract.
//
// Workers are ordinary ppserve processes that register with a coordinator
// and maintain heartbeat membership (join, lease renewal, drain, rejoin —
// the Agent in this package is the worker-side client). The coordinator
// expands a sweep spec exactly as the local executor would, partitions the
// grid into per-protocol cell ranges routed by protocol content hash (so
// each worker's artifact cache stays hot for its slice), dispatches ranges
// over POST /v1/sweep with per-range deadlines, retries cells from failed
// or drained workers on survivors (falling back to local execution when no
// worker remains), and merges the returned rows into a stream ordered by
// grid index — deterministic, and cell-for-cell identical to the
// single-process executor on the same spec.
//
// Cell indices are the resumable IDs of the whole scheme: expansion assigns
// them identically on every node (sweep.Spec.Cells selects a slice without
// renumbering), per-cell seeds derive from them, and the merger dedups on
// them, so a range retried after a mid-stream worker failure re-executes
// exactly the missing cells.
package cluster

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// DefaultTTL is the worker lease: a worker whose last heartbeat is older
// than this is considered dead and its cells are retried on survivors.
const DefaultTTL = 15 * time.Second

// ErrUnknownWorker reports a heartbeat from a worker the coordinator does
// not know (lease expired, or the coordinator restarted). The worker
// responds by re-registering — the rejoin path.
var ErrUnknownWorker = errors.New("cluster: unknown worker")

// WorkerState is a registered worker's lifecycle state.
type WorkerState string

const (
	// StateActive workers receive new cell ranges.
	StateActive WorkerState = "active"
	// StateDraining workers finish their in-flight ranges but receive no
	// new ones (the SIGTERM drain path announces itself via a draining
	// heartbeat, then deregisters).
	StateDraining WorkerState = "draining"
)

// Worker is one registered ppserve worker process, as reported by the
// membership endpoints.
type Worker struct {
	// ID names the worker (unique per process; a rejoin under the same ID
	// bumps the epoch).
	ID string `json:"id"`
	// URL is the worker's advertised base URL ("http://host:port"); the
	// dispatcher POSTs sub-sweeps to URL + "/v1/sweep".
	URL string `json:"url"`
	// State is active or draining.
	State WorkerState `json:"state"`
	// Epoch counts (re-)registrations of this ID, so a rejoin is
	// distinguishable from an uninterrupted lease.
	Epoch uint64 `json:"epoch"`
	// LastSeen is the last registration or heartbeat time.
	LastSeen time.Time `json:"lastSeen"`
	// RangesOK, RangesFailed and CellsServed are dispatcher statistics:
	// completed ranges, failed range attempts, and cells this worker
	// delivered first.
	RangesOK     int `json:"rangesOK"`
	RangesFailed int `json:"rangesFailed"`
	CellsServed  int `json:"cellsServed"`
}

// CoordinatorOptions configures membership.
type CoordinatorOptions struct {
	// TTL is the worker lease duration (0 = DefaultTTL). Workers heartbeat
	// at TTL/3.
	TTL time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
}

// Coordinator is the cluster's membership authority and sweep dispatcher
// state. It is passive: expiry is evaluated lazily against the lease TTL on
// every read, so no background reaper is needed and tests can drive the
// clock. All methods are safe for concurrent use.
type Coordinator struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.Mutex
	workers map[string]*Worker
	// epochs outlives workers: a lease expiry prunes the membership record,
	// but the next registration of the same ID must still read as a rejoin.
	epochs map[string]uint64

	// metrics instruments membership and dispatch; see metrics.go. Always
	// non-nil.
	metrics *Metrics
}

// NewCoordinator returns an empty membership.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.TTL <= 0 {
		opts.TTL = DefaultTTL
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	c := &Coordinator{
		ttl:     opts.TTL,
		now:     opts.Now,
		workers: make(map[string]*Worker),
		epochs:  make(map[string]uint64),
	}
	c.metrics = newClusterMetrics(c)
	return c
}

// TTL returns the worker lease duration.
func (c *Coordinator) TTL() time.Duration { return c.ttl }

// Register adds a worker (or re-adds it after a lease expiry or restart —
// the epoch increments either way) and returns its membership record.
// Registration always yields an active worker: a draining worker that
// rejoins is back in rotation.
func (c *Coordinator) Register(id, url string) Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked()
	w := c.workers[id]
	if w == nil {
		w = &Worker{ID: id}
		c.workers[id] = w
	}
	w.URL = url
	w.State = StateActive
	c.epochs[id]++
	w.Epoch = c.epochs[id]
	w.LastSeen = c.now()
	return *w
}

// Heartbeat renews a worker's lease. drain moves the worker to
// StateDraining (no new ranges; in-flight ranges finish). An unknown or
// expired worker gets ErrUnknownWorker and must re-register.
func (c *Coordinator) Heartbeat(id string, drain bool) (Worker, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked()
	w := c.workers[id]
	if w == nil {
		return Worker{}, ErrUnknownWorker
	}
	w.LastSeen = c.now()
	if drain {
		w.State = StateDraining
	}
	return *w, nil
}

// Deregister removes a worker immediately (the graceful-exit path). Unknown
// IDs are a no-op and do not count as a deregistration.
func (c *Coordinator) Deregister(id string) {
	c.mu.Lock()
	_, known := c.workers[id]
	delete(c.workers, id)
	c.mu.Unlock()
	if known {
		c.metrics.Deregistrations.Inc()
	}
}

// MarkDead removes a worker that failed a dispatch — its lease is not
// waited out, so its queued cells reroute immediately.
func (c *Coordinator) MarkDead(id string) { c.Deregister(id) }

// Live returns the workers eligible for new ranges (active, lease
// unexpired), sorted by ID for deterministic routing.
func (c *Coordinator) Live() []Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked()
	out := make([]Worker, 0, len(c.workers))
	for _, w := range c.workers {
		if w.State == StateActive {
			out = append(out, *w)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Members returns every unexpired worker (active and draining), sorted by
// ID — the GET /v1/cluster/members view.
func (c *Coordinator) Members() []Worker {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked()
	out := make([]Worker, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Alive reports whether a worker is registered, unexpired and active —
// the dispatcher's pre-dispatch check.
func (c *Coordinator) Alive(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pruneLocked()
	w := c.workers[id]
	return w != nil && w.State == StateActive
}

// recordRange folds dispatcher statistics into the membership view.
func (c *Coordinator) recordRange(id string, cells int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[id]
	if w == nil {
		return
	}
	if ok {
		w.RangesOK++
	} else {
		w.RangesFailed++
	}
	w.CellsServed += cells
	c.metrics.CellsServed.WithLabelValues(id).Add(float64(cells))
}

// pruneLocked drops workers whose lease expired. Callers hold c.mu.
func (c *Coordinator) pruneLocked() {
	deadline := c.now().Add(-c.ttl)
	for id, w := range c.workers {
		if w.LastSeen.Before(deadline) {
			delete(c.workers, id)
		}
	}
}
