package cluster_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics/testutil"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// integrationSpec is a 60-cell grid over twelve protocols (three templates
// at four parameters). Cells route by protocol content hash, so the
// rendezvous router has twelve affinity groups to spread across workers.
func integrationSpec() sweep.Spec {
	return sweep.Spec{
		Name: "cluster-test",
		Protocols: []sweep.ProtocolAxis{
			{Spec: "flock:{N}"},
			{Spec: "binary:{N}"},
			{Spec: "mod:{N}:0"},
		},
		Params:    []sweep.ParamRange{{From: 3, To: 6}},
		Kinds:     []engine.Kind{engine.KindSimulate, engine.KindVerify, engine.KindStable},
		Sizes:     []sweep.Expr{sweep.Lit(6), sweep.Lit(7)},
		Predicate: &sweep.PredicateTemplate{Kind: "counting", Threshold: sweep.ParamExpr(0, 0)},
		Options:   sweep.Options{Seed: 11, ExactOracle: true},
	}
}

// singleProcessReference runs the spec in one process and returns its
// canonical cell lines (index order) and canonical summary line.
func singleProcessReference(t *testing.T, spec sweep.Spec) ([]string, string) {
	t.Helper()
	var cells []sweep.CellResult
	res, err := sweep.Run(context.Background(), engine.New(), spec, sweep.RunOptions{
		Workers: 2,
		OnCell:  func(cr sweep.CellResult) { cells = append(cells, sweep.CanonicalCell(cr)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return canonLines(t, cells), canonSummary(t, res)
}

func canonLines(t *testing.T, cells []sweep.CellResult) []string {
	t.Helper()
	out := make([]string, len(cells))
	for i, c := range cells {
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

func canonSummary(t *testing.T, res *sweep.Result) string {
	t.Helper()
	b, err := json.Marshal(sweep.CanonicalResult(res))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// startWorker boots an in-process worker (the real serve handler on a real
// HTTP server) and registers it with the coordinator. wrap optionally
// intercepts the handler (fault injection).
func startWorker(t *testing.T, coord *cluster.Coordinator, id string, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	return startEngineWorker(t, coord, id, engine.New(), wrap)
}

// startEngineWorker is startWorker over a caller-owned engine.
func startEngineWorker(t *testing.T, coord *cluster.Coordinator, id string, eng *engine.Engine, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	var h http.Handler = serve.NewHandler(eng, serve.Options{})
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	coord.Register(id, srv.URL)
	return srv
}

// dispatchCanonical fans the spec out via the coordinator and returns the
// canonical cell lines in stream order plus the canonical summary. A nil
// opts.LocalEngine gets a fresh engine.
func dispatchCanonical(t *testing.T, coord *cluster.Coordinator, spec sweep.Spec, opts cluster.DispatchOptions) ([]string, string) {
	t.Helper()
	var cells []sweep.CellResult
	if opts.LocalEngine == nil {
		opts.LocalEngine = engine.New()
	}
	res, err := sweep.Pipeline(context.Background(), spec, coord.Executor(opts), nil, sweep.Hooks{
		OnCell: func(cr sweep.CellResult) { cells = append(cells, sweep.CanonicalCell(cr)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cells); i++ {
		if cells[i-1].Index >= cells[i].Index {
			t.Fatalf("stream out of order: index %d then %d", cells[i-1].Index, cells[i].Index)
		}
	}
	return canonLines(t, cells), canonSummary(t, res)
}

func assertEqualRuns(t *testing.T, wantCells []string, wantSummary string, gotCells []string, gotSummary string) {
	t.Helper()
	if len(gotCells) != len(wantCells) {
		t.Fatalf("cell count: got %d, want %d", len(gotCells), len(wantCells))
	}
	for i := range wantCells {
		if gotCells[i] != wantCells[i] {
			t.Errorf("cell %d differs:\n got: %s\nwant: %s", i, gotCells[i], wantCells[i])
		}
	}
	if gotSummary != wantSummary {
		t.Errorf("summary differs:\n got: %s\nwant: %s", gotSummary, wantSummary)
	}
}

// TestDispatchEqualsSingleProcess: a sweep fanned across two live workers
// streams the same canonical cells in the same order and merges to the same
// canonical summary as the single-process executor.
func TestDispatchEqualsSingleProcess(t *testing.T) {
	spec := integrationSpec()
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	startWorker(t, coord, "w1", nil)
	startWorker(t, coord, "w2", nil)

	gotCells, gotSummary := dispatchCanonical(t, coord, spec, cluster.DispatchOptions{RangeCells: 3})
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)

	// Both workers stayed alive and between them served the whole grid.
	served := 0
	for _, w := range coord.Members() {
		served += w.CellsServed
	}
	if served != len(wantCells) {
		t.Errorf("workers served %d cells, want %d", served, len(wantCells))
	}
}

// TestPerHashDispatchDistribution: every cell routes by its own protocol
// content hash, so the members of one parametric template are separate
// affinity groups that spread over both workers, and the merged canonical
// stream is still byte-identical to the single-process run.
func TestPerHashDispatchDistribution(t *testing.T) {
	spec := sweep.Spec{
		Name:      "per-hash-routing",
		Protocols: []sweep.ProtocolAxis{{Spec: "flock:{N}"}},
		Params:    []sweep.ParamRange{{From: 3, To: 8}},
		Kinds:     []engine.Kind{engine.KindStable, engine.KindSimulate},
		Sizes:     []sweep.Expr{sweep.Lit(9)},
		Options:   sweep.Options{Seed: 5},
	}
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	startWorker(t, coord, "w1", nil)
	startWorker(t, coord, "w2", nil)

	gotCells, gotSummary := dispatchCanonical(t, coord, spec, cluster.DispatchOptions{RangeCells: 2})
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)

	members := coord.Members()
	if len(members) != 2 {
		t.Fatalf("members: %d, want 2", len(members))
	}
	for _, w := range members {
		if w.CellsServed == 0 {
			t.Errorf("worker %s served no cells: one template's members did not spread", w.ID)
		}
	}
}

// abortAfter kills the response stream (connection abort, not a clean
// close) after n NDJSON rows — a worker crashing mid-range. One Write may
// carry several rows: the one that would pass the n-th row's newline
// writes the prefix up to it, flushes it and then panics, so the worker
// dies after delivering exactly n rows; with buffered set it flushes
// nothing, not even on the stream's own deadline, so the rows written
// before the crash die in the response buffer.
type abortAfter struct {
	http.ResponseWriter
	rows, n  int
	buffered bool
}

func (a *abortAfter) Write(p []byte) (int, error) {
	if a.rows >= a.n {
		panic(http.ErrAbortHandler)
	}
	cut := len(p)
	for i, c := range p {
		if c == '\n' {
			if a.rows++; a.rows == a.n {
				cut = i + 1
				break
			}
		}
	}
	n, err := a.ResponseWriter.Write(p[:cut])
	if !a.buffered {
		_ = http.NewResponseController(a.ResponseWriter).Flush()
	}
	if cut < len(p) {
		panic(http.ErrAbortHandler)
	}
	return n, err
}

// FlushError is what http.ResponseController finds before unwrapping: a
// buffered abortAfter swallows the stream's flushes.
func (a *abortAfter) FlushError() error {
	if a.buffered {
		return nil
	}
	return http.NewResponseController(a.ResponseWriter).Flush()
}

func (a *abortAfter) Unwrap() http.ResponseWriter { return a.ResponseWriter }

// TestDispatchWorkerDeathMidSweep is the failure drill: one worker dies
// after streaming 2 cells of its first range. The dispatcher must mark it
// dead, retry the undelivered cells on the survivor, and still produce a
// stream and summary byte-identical to the single-process run (the 2 cells
// the dying worker already delivered are deduped, not re-executed).
func TestDispatchWorkerDeathMidSweep(t *testing.T) {
	spec := integrationSpec()
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	var died atomic.Bool // the first worker to receive a range dies, once
	killer := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && died.CompareAndSwap(false, true) {
				w = &abortAfter{ResponseWriter: w, n: 2}
			}
			inner.ServeHTTP(w, r)
		})
	}
	startWorker(t, coord, "w1", killer)
	startWorker(t, coord, "w2", killer)

	gotCells, gotSummary := dispatchCanonical(t, coord, spec, cluster.DispatchOptions{RangeCells: 5})
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)

	if !died.Load() {
		t.Fatal("fault injection never fired")
	}
	// Exactly one worker was marked dead; the survivor carried the rest.
	members := coord.Members()
	if len(members) != 1 {
		t.Fatalf("members after death: %d, want 1 survivor", len(members))
	}
	if members[0].CellsServed == 0 {
		t.Error("survivor served no cells")
	}
}

// TestDispatchWorkerDeathLosesBufferedRows: the only worker dies 2 rows
// into its first range, but those rows were still in its response buffer
// and never reached the dispatcher. The lost cells are recomputed locally
// and the sweep still matches the single-process run byte for byte.
func TestDispatchWorkerDeathLosesBufferedRows(t *testing.T) {
	spec := integrationSpec()
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	var died atomic.Bool
	startWorker(t, coord, "w1", func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && died.CompareAndSwap(false, true) {
				w = &abortAfter{ResponseWriter: w, n: 2, buffered: true}
			}
			inner.ServeHTTP(w, r)
		})
	})

	gotCells, gotSummary := dispatchCanonical(t, coord, spec, cluster.DispatchOptions{RangeCells: 5})
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)

	if !died.Load() {
		t.Fatal("fault injection never fired")
	}
	if got := testutil.ToFloat64(coord.Metrics().CellsServed.WithLabelValues("w1")); got != 0 {
		t.Errorf("cells_served{w1} = %v, want 0: the dying worker's rows were never flushed", got)
	}
}

// TestDispatchNoWorkersRunsLocally: an empty membership degrades to the
// local executor, still streaming in grid order with an equal canonical
// result.
func TestDispatchNoWorkersRunsLocally(t *testing.T) {
	spec := integrationSpec()
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	gotCells, gotSummary := dispatchCanonical(t, coord, spec, cluster.DispatchOptions{LocalWorkers: 2})
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)
}

// TestDispatchShedBackpressure: a worker that answers 503 + Retry-After is
// not dead — the dispatcher waits out the delay and retries the same
// worker, which then serves the range.
func TestDispatchShedBackpressure(t *testing.T) {
	spec := integrationSpec()
	wantCells, wantSummary := singleProcessReference(t, spec)

	coord := cluster.NewCoordinator(cluster.CoordinatorOptions{})
	var sheds atomic.Int64
	shedOnce := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/sweep" && sheds.Add(1) == 1 {
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		})
	}
	startWorker(t, coord, "w1", shedOnce)

	start := time.Now()
	gotCells, gotSummary := dispatchCanonical(t, coord, spec, cluster.DispatchOptions{RangeCells: 8})
	assertEqualRuns(t, wantCells, wantSummary, gotCells, gotSummary)

	if sheds.Load() < 2 {
		t.Fatalf("worker saw %d sweep requests, want the shed one plus a retry", sheds.Load())
	}
	if time.Since(start) < time.Second {
		t.Error("dispatcher did not wait out Retry-After")
	}
	// The shed worker must still be a live member — 503 is backpressure.
	if !coord.Alive("w1") {
		t.Error("shed worker was marked dead")
	}
}
