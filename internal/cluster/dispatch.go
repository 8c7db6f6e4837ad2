package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/sweep"
)

// DispatchOptions configures one fanned-out sweep.
type DispatchOptions struct {
	// Client performs the worker HTTP calls (default: a fresh client with
	// no global timeout — per-range deadlines bound each call).
	Client *http.Client
	// Resolver maps protocol references to routing hashes (default:
	// EngineResolver(LocalEngine)).
	Resolver Resolver
	// LocalEngine executes cells locally when no worker can: an empty
	// membership runs the whole sweep in-process, and a task that exhausts
	// MaxAttempts remote attempts completes on the coordinator. Required.
	LocalEngine *engine.Engine
	// LocalWorkers is the worker-pool size of a full-local run (0 =
	// GOMAXPROCS).
	LocalWorkers int
	// RangeCells caps cells per dispatched range — the retry granularity
	// (default 64).
	RangeCells int
	// RangeTimeout is the per-range deadline (default 2 minutes). When the
	// spec sets a per-cell timeout, each range's deadline additionally
	// budgets cells × timeout.
	RangeTimeout time.Duration
	// MaxAttempts bounds remote dispatch attempts per range before its
	// cells fall back to local execution (default 3).
	MaxAttempts int
	// OnCell observes every merged cell in grid-index order — the
	// deterministic stream. Calls are serialized; a slow observer
	// backpressures the dispatcher.
	OnCell func(sweep.CellResult)
	// OnDispatch observes every range handed to a worker (or to
	// LocalWorkerLabel for local execution) before it runs — the durable
	// journal's range records. Calls may be concurrent across workers.
	OnDispatch func(worker string, cells []sweep.IndexRange)
	// DiscardCells leaves Result.Cells empty (streaming consumers saw each
	// cell via OnCell).
	DiscardCells bool
	// Log receives dispatcher events (nil = discard).
	Log *slog.Logger
}

func (o DispatchOptions) withDefaults() (DispatchOptions, error) {
	if o.LocalEngine == nil {
		return o, errors.New("cluster: DispatchOptions.LocalEngine is required")
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Resolver == nil {
		o.Resolver = EngineResolver(o.LocalEngine)
	}
	if o.RangeCells <= 0 {
		o.RangeCells = 64
	}
	if o.RangeTimeout <= 0 {
		o.RangeTimeout = 2 * time.Minute
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Log == nil {
		o.Log = slog.New(slog.DiscardHandler)
	}
	return o, nil
}

// maxSheds bounds consecutive 503 backpressure retries of one range before
// the worker is treated as failed.
const maxSheds = 8

// maxRetryAfter clamps a worker-advertised Retry-After: a corrupt or
// hostile header must not park a range for hours.
const maxRetryAfter = 30 * time.Second

// shedError reports a worker that answered 503 (slot semaphore saturated):
// backpressure, not failure — the range retries on the same worker after
// the advertised delay.
type shedError struct{ retryAfter time.Duration }

func (e *shedError) Error() string {
	return fmt.Sprintf("worker saturated, retry after %s", e.retryAfter)
}

// Sweep fans a sweep spec out across the registered workers and returns the
// merged aggregate. Cells are partitioned by protocol content hash (cache
// affinity), dispatched as ranges with per-range deadlines, and retried on
// survivors when a worker fails, drains or goes silent; when no live worker
// remains the remaining cells execute locally. OnCell observes the merged
// cells in grid-index order, and the final Result is the one the
// single-process executor would have produced for the same spec.
func (c *Coordinator) Sweep(ctx context.Context, spec sweep.Spec, opts DispatchOptions) (*sweep.Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	live := c.Routable()
	if len(live) == 0 {
		// Degraded mode: no workers registered — the coordinator is just a
		// single-process executor. A collector-less merger still reorders
		// the stream, so OnCell sees grid order in this mode too.
		opts.Log.Info("cluster sweep: no live workers, running locally",
			"sweep", spec.Name, "cells", len(cells))
		if opts.OnDispatch != nil {
			opts.OnDispatch(LocalWorkerLabel, sweep.Ranges(indicesOf(cells)))
		}
		reorder := sweep.NewMerger(cells, nil, opts.OnCell)
		return sweep.Run(ctx, opts.LocalEngine, spec, sweep.RunOptions{
			Workers:      opts.LocalWorkers,
			OnCell:       func(cr sweep.CellResult) { reorder.Add(cr) },
			DiscardCells: opts.DiscardCells,
		})
	}
	groups, err := groupByHash(cells, opts.Resolver)
	if err != nil {
		return nil, err
	}
	tasks := chunk(groups, opts.RangeCells)
	opts.Log.Info("cluster sweep: dispatching",
		"sweep", spec.Name, "cells", len(cells), "protocols", len(groups),
		"ranges", len(tasks), "workers", len(live))

	start := time.Now()
	col := sweep.NewCollector(spec.Name, len(cells), len(live), opts.DiscardCells)
	m := sweep.NewMerger(cells, col, opts.OnCell)
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	d := &dispatcher{
		ctx:     tctx,
		coord:   c,
		opts:    opts,
		spec:    spec,
		m:       m,
		queues:  make(map[string][]*task),
		info:    make(map[string]Worker),
		driving: make(map[string]bool),
	}
	d.cond = sync.NewCond(&d.mu)
	d.mu.Lock()
	for _, t := range tasks {
		d.enqueueLocked(t)
	}
	d.mu.Unlock()

	select {
	case <-m.Done():
	case <-ctx.Done():
	}
	d.mu.Lock()
	d.stop = true
	d.cond.Broadcast()
	d.mu.Unlock()
	cancel()
	d.wg.Wait()

	res := col.Finish(time.Since(start))
	if err := ctx.Err(); err != nil && res.Completed < res.TotalCells {
		res.Cancelled = true
		return res, err
	}
	opts.Log.Info("cluster sweep: done",
		"sweep", spec.Name, "completed", res.Completed, "failed", res.Failed,
		"wallMillis", res.WallMillis)
	return res, nil
}

// dispatcher is the scheduler state of one fanned-out sweep: per-worker
// task queues drained by one driver goroutine per worker, plus a local
// queue for tasks no worker can take.
type dispatcher struct {
	ctx   context.Context
	coord *Coordinator
	opts  DispatchOptions
	spec  sweep.Spec
	m     *sweep.Merger
	wg    sync.WaitGroup

	mu           sync.Mutex
	cond         *sync.Cond
	queues       map[string][]*task
	info         map[string]Worker
	driving      map[string]bool
	localQ       []*task
	localDriving bool
	stop         bool
}

// enqueueLocked routes a task to its rendezvous-preferred live worker (or
// the local queue when none can take it) and makes sure a driver is
// running. Callers hold d.mu.
func (d *dispatcher) enqueueLocked(t *task) {
	if d.stop {
		return
	}
	w, ok := Worker{}, false
	if t.attempts < d.opts.MaxAttempts {
		w, ok = route(t.hash, d.coord.Routable())
	}
	routed := LocalWorkerLabel
	if ok {
		routed = w.ID
	}
	d.coord.metrics.CellsRouted.WithLabelValues(routed).Add(float64(len(t.cells)))
	if !ok {
		d.localQ = append(d.localQ, t)
		if !d.localDriving {
			d.localDriving = true
			d.wg.Add(1)
			go d.driveLocal()
		}
	} else {
		d.info[w.ID] = w
		d.queues[w.ID] = append(d.queues[w.ID], t)
		if !d.driving[w.ID] {
			d.driving[w.ID] = true
			d.wg.Add(1)
			go d.drive(w.ID)
		}
	}
	d.cond.Broadcast()
}

// drive serially executes one worker's queue until the sweep completes, the
// worker dies or drains (its queue reroutes to survivors), or the context
// ends.
func (d *dispatcher) drive(id string) {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for {
			if d.stop {
				d.driving[id] = false
				d.mu.Unlock()
				return
			}
			if !d.coord.Dispatchable(id) {
				// Died, draining, or breaker no longer admitting traffic:
				// hand the queue to survivors.
				orphans := d.queues[id]
				delete(d.queues, id)
				d.driving[id] = false
				d.coord.metrics.RangesOrphaned.WithLabelValues(id).Add(float64(len(orphans)))
				for _, t := range orphans {
					d.enqueueLocked(t)
				}
				d.mu.Unlock()
				return
			}
			if len(d.queues[id]) > 0 {
				break
			}
			d.cond.Wait()
		}
		t := d.queues[id][0]
		d.queues[id] = d.queues[id][1:]
		w := d.info[id]
		d.mu.Unlock()

		d.coord.metrics.RangesDispatched.WithLabelValues(id).Inc()
		// If the worker's breaker sat open past its backoff, this dispatch is
		// its half-open probe: no other range routes there until it resolves.
		d.coord.breakers.Dispatching(id)
		served, missing, err := d.runTask(w, t)
		var shed *shedError
		switch {
		case len(missing) == 0:
			// Every cell of the range was delivered and merged. A stream-tail
			// error after the last cell — typically sweep completion
			// cancelling the read before the summary row — doesn't retract
			// the work, and there is nothing left to retry.
			d.coord.breakers.Success(id)
			d.coord.recordRange(id, served, true)
		case errors.As(err, &shed):
			// Backpressure: requeue at the front and wait out Retry-After.
			t.sheds++
			if t.sheds > maxSheds {
				d.failTask(id, t, t.cells, errors.New("cluster: worker shed the range repeatedly"))
				continue
			}
			d.opts.Log.Info("cluster sweep: worker saturated, backing off",
				"worker", id, "retryAfter", shed.retryAfter)
			select {
			case <-time.After(shed.retryAfter):
			case <-d.ctx.Done():
			}
			d.mu.Lock()
			d.queues[id] = append([]*task{t}, d.queues[id]...)
			d.mu.Unlock()
		case d.ctx.Err() != nil:
			d.mu.Lock()
			d.driving[id] = false
			d.mu.Unlock()
			return
		case err == nil:
			// Clean stream, cells missing (worker-side cancellation):
			// retry just the gap, same routing rules.
			d.coord.recordRange(id, served, false)
			d.opts.Log.Warn("cluster sweep: range returned short",
				"worker", id, "missing", len(missing))
			d.requeue(id, t, missing)
		default:
			d.coord.recordRange(id, served, false)
			d.failTask(id, t, missing, err)
		}
	}
}

// failTask records the failure against the worker's circuit breaker, marks
// it dead, and reroutes the range's unfinished cells to survivors. Breaker
// state outlives the membership record: a worker that rejoins after every
// failure accumulates the streak anyway, trips, and stays unroutable for
// the backoff window even while registered.
func (d *dispatcher) failTask(id string, t *task, missing []sweep.Cell, err error) {
	d.opts.Log.Warn("cluster sweep: range failed, retrying on survivors",
		"worker", id, "cells", len(missing), "attempt", t.attempts+1, "error", err)
	if d.coord.breakers.Failure(id) {
		d.coord.metrics.BreakerTrips.WithLabelValues(id).Inc()
		d.opts.Log.Warn("cluster sweep: worker breaker tripped", "worker", id)
	}
	d.coord.MarkDead(id)
	d.requeue(id, t, missing)
}

// requeue re-enqueues the unfinished cells of a task as a fresh range with
// one more attempt on the clock, counting the retry against the worker
// whose attempt fell short.
func (d *dispatcher) requeue(id string, t *task, missing []sweep.Cell) {
	if len(missing) == 0 {
		return
	}
	d.coord.metrics.RangesRetried.WithLabelValues(id).Inc()
	nt := &task{hash: t.hash, cells: missing, attempts: t.attempts + 1}
	d.mu.Lock()
	d.enqueueLocked(nt)
	d.mu.Unlock()
}

// driveLocal executes the local queue on the coordinator's own engine —
// the completion guarantee when no worker can take a range.
func (d *dispatcher) driveLocal() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		for {
			if d.stop {
				d.localDriving = false
				d.mu.Unlock()
				return
			}
			if len(d.localQ) > 0 {
				break
			}
			d.cond.Wait()
		}
		t := d.localQ[0]
		d.localQ = d.localQ[1:]
		d.mu.Unlock()

		d.coord.metrics.RangesDispatched.WithLabelValues(LocalWorkerLabel).Inc()
		d.opts.Log.Info("cluster sweep: executing range locally", "cells", len(t.cells))
		if d.opts.OnDispatch != nil {
			d.opts.OnDispatch(LocalWorkerLabel, sweep.Ranges(t.indices()))
		}
		for _, c := range t.cells {
			if d.ctx.Err() != nil {
				break
			}
			cr := sweep.RunCell(d.ctx, d.opts.LocalEngine, d.spec, c)
			if sweep.Interrupted(d.ctx, cr) {
				break
			}
			d.m.Add(cr)
		}
	}
}

// rangeDeadline budgets one range: the flat per-range deadline, plus the
// spec's per-cell timeout for every cell when one is set.
func (d *dispatcher) rangeDeadline(t *task) time.Duration {
	dl := d.opts.RangeTimeout
	if ms := d.spec.Options.TimeoutMillis; ms > 0 {
		dl += time.Duration(ms*int64(len(t.cells))) * time.Millisecond
	}
	return dl
}

// runTask POSTs one range to a worker as a cells-selected sub-spec of the
// sweep and forwards its streamed rows into the merger. It returns how many
// previously-unseen cells the worker delivered and which of the range's
// cells remain undelivered.
func (d *dispatcher) runTask(w Worker, t *task) (served int, missing []sweep.Cell, err error) {
	sub := d.spec
	sub.Cells = sweep.Ranges(t.indices())
	if d.opts.OnDispatch != nil {
		d.opts.OnDispatch(w.ID, sub.Cells)
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return 0, t.cells, fmt.Errorf("marshalling sub-spec: %w", err)
	}
	ctx, cancel := context.WithTimeout(d.ctx, d.rangeDeadline(t))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return 0, t.cells, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.opts.Client.Do(req)
	if err != nil {
		return 0, t.cells, err
	}
	defer resp.Body.Close()
	if ferr := faultinject.Hit(faultinject.PointWorkerResponse); ferr != nil {
		return 0, t.cells, ferr
	}
	if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
		// 503 = slots saturated, 429 = the worker's per-client rate limiter:
		// both are backpressure with an honest Retry-After, not a fault —
		// wait it out and retry the same worker.
		return 0, t.cells, &shedError{retryAfter: parseRetryAfter(resp.Header.Get("Retry-After"))}
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return 0, t.cells, fmt.Errorf("worker %s: status %d: %s", w.ID, resp.StatusCode, bytes.TrimSpace(msg))
	}

	got := make(map[int]bool, len(t.cells))
	sawSummary := false
	dec := json.NewDecoder(resp.Body)
	for {
		var row sweep.StreamRow
		if derr := dec.Decode(&row); derr != nil {
			if derr == io.EOF {
				break
			}
			err = fmt.Errorf("worker %s: reading stream: %w", w.ID, derr)
			break
		}
		switch row.Type {
		case "cell":
			if row.Cell != nil {
				got[row.Cell.Index] = true
				if d.m.Add(*row.Cell) {
					served++
				}
			}
		case "summary":
			sawSummary = true
		case "error":
			err = fmt.Errorf("worker %s: %s", w.ID, row.Error)
		}
	}
	for _, c := range t.cells {
		if !got[c.Index] {
			missing = append(missing, c)
		}
	}
	if err == nil && !sawSummary && len(missing) > 0 {
		err = fmt.Errorf("worker %s: stream truncated (%d cells missing)", w.ID, len(missing))
	}
	return served, missing, err
}

// parseRetryAfter turns a worker's Retry-After header into a bounded
// backoff: default one second, clamped to maxRetryAfter.
func parseRetryAfter(s string) time.Duration {
	retry := time.Second
	if s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
	}
	return min(retry, maxRetryAfter)
}

// indicesOf lists the grid indices of the expanded cells, for the
// degraded-mode dispatch record.
func indicesOf(cells []sweep.Cell) []int {
	out := make([]int, len(cells))
	for i, c := range cells {
		out[i] = c.Index
	}
	return out
}
