package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sweep"
)

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, *engine.Result) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewBufferString(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var res engine.Result
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("decoding result: %v\n%s", err, rec.Body)
		}
	}
	return rec, &res
}

func TestAnalyzeSimulate(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	rec, res := post(t, h, "/v1/analyze",
		`{"kind":"simulate","protocol":{"spec":"flock:4"},"input":[8],"seed":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if res.Simulation == nil || !res.Simulation.Converged || res.Simulation.Output != 1 {
		t.Fatalf("bad simulation result: %s", rec.Body)
	}
}

func TestAnalyzeVerify(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	rec, res := post(t, h, "/v1/analyze",
		`{"kind":"verify","protocol":{"spec":"majority"},"maxSize":6}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if res.Verification == nil || !res.Verification.AllOK {
		t.Fatalf("bad verification result: %s", rec.Body)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	cases := map[string]struct {
		body string
		code int
	}{
		"malformed json": {`{"kind":`, http.StatusBadRequest},
		"unknown kind":   {`{"kind":"zzz"}`, http.StatusBadRequest},
		"bad spec":       {`{"kind":"stable","protocol":{"spec":"zzz"}}`, http.StatusBadRequest},
		"arity mismatch": {`{"kind":"simulate","protocol":{"spec":"majority"},"input":[4]}`, http.StatusBadRequest},
	}
	for name, tc := range cases {
		rec, _ := post(t, h, "/v1/analyze", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.code, rec.Body)
		}
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body missing: %s", name, rec.Body)
		}
	}
}

// TestAnalyzeInlineStateCap: an inline body over the engine's 128-state cap
// is a client error, rejected before the protocol is built.
func TestAnalyzeInlineStateCap(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	var states []string
	for q := 0; q < 129; q++ {
		states = append(states, fmt.Sprintf(`{"name":"q%d","output":0}`, q))
	}
	body := `{"kind":"stable","protocol":{"inline":{"name":"wide","states":[` + strings.Join(states, ",") +
		`],"transitions":[],"inputs":{"x":"q0"},"completeWithIdentity":true}}}`
	rec, _ := post(t, h, "/v1/analyze", body)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "129 states") {
		t.Fatalf("status %d, want 400 naming the state count (%s)", rec.Code, rec.Body)
	}
}

func TestAnalyzeTimeout(t *testing.T) {
	// A tiny server-side ceiling interrupts a long verification.
	h := NewHandler(engine.New(), Options{DefaultTimeout: 20 * time.Millisecond, MaxTimeout: 20 * time.Millisecond})
	rec, _ := post(t, h, "/v1/analyze",
		`{"kind":"verify","protocol":{"spec":"binary:12"},"maxSize":64,"timeoutMillis":600000}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", rec.Code, rec.Body)
	}
}

func TestCatalogAndHealth(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/catalog", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("catalog status %d", rec.Code)
	}
	var body struct {
		Specs   []string      `json:"specs"`
		Kinds   []engine.Kind `json:"kinds"`
		Catalog []struct {
			Key       string `json:"key"`
			Predicate string `json:"predicate"`
		} `json:"catalog"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Specs) == 0 || len(body.Kinds) != len(engine.Kinds) || len(body.Catalog) == 0 {
		t.Errorf("thin catalog: %s", rec.Body)
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("healthz status %d", rec.Code)
	}

	// Method guards.
	req = httptest.NewRequest(http.MethodGet, "/v1/analyze", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze status %d, want 405", rec.Code)
	}
}

// TestConcurrentRequests drives the handler from many goroutines; identical
// stable requests must compute the analysis once (shared engine cache).
func TestConcurrentRequests(t *testing.T) {
	eng := engine.New()
	h := NewHandler(eng, Options{})
	const workers = 8
	var wg sync.WaitGroup
	codes := make([]int, workers)
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/analyze",
				bytes.NewBufferString(`{"kind":"stable","protocol":{"spec":"binary:7"}}`))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			codes[i] = rec.Code
		}()
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("worker %d: status %d", i, c)
		}
	}
	if n := eng.Computations(); n != 1 {
		t.Errorf("stable analysis computed %d times, want 1", n)
	}
}

// TestCatalogSpecsAreResolvable: every head token in the catalog's specs
// list must resolve (with a sample argument) via /v1/analyze — the field
// is machine-readable, not documentation.
func TestCatalogSpecsAreResolvable(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/catalog", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body struct {
		Specs []string `json:"specs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	args := map[string]string{
		"flock": ":3", "succinct": ":2", "binary": ":3", "leaderflock": ":2", "mod": ":3:1",
	}
	for _, head := range body.Specs {
		spec := head + args[head]
		rec, _ := post(t, h, "/v1/analyze", `{"kind":"bounds","protocol":{"spec":"`+spec+`"}}`)
		if rec.Code != http.StatusOK {
			t.Errorf("catalog spec %q does not resolve: %d %s", spec, rec.Code, rec.Body)
		}
	}
}

// --- /v1/sweep -------------------------------------------------------------

// sweepRows posts a sweep spec and reads the NDJSON stream into its rows:
// one per cell, then the summary row.
func sweepRows(t *testing.T, h http.Handler, spec string) (*httptest.ResponseRecorder, []sweep.StreamRow) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewBufferString(spec))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var rows []sweep.StreamRow
	sum, err := sweep.ReadRows(rec.Body, func(cr sweep.CellResult) {
		rows = append(rows, sweep.StreamRow{Type: "cell", Cell: &cr})
	})
	if err != nil {
		t.Fatalf("reading NDJSON row %d: %v", len(rows), err)
	}
	if sum != nil {
		rows = append(rows, sweep.StreamRow{Type: "summary", Summary: sum})
	}
	return rec, rows
}

// TestSweepStreams100Cells is the acceptance check: a ≥100-cell sweep runs
// over POST /v1/sweep and streams one NDJSON row per cell plus a summary.
func TestSweepStreams100Cells(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	spec := `{
	  "name": "bounds-scaling",
	  "kinds": ["bounds"],
	  "params": [{"from": 3, "to": 102}],
	  "maxCells": 200
	}`
	rec, rows := sweepRows(t, h, spec)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	if len(rows) != 101 {
		t.Fatalf("got %d rows, want 100 cells + summary", len(rows))
	}
	cells := 0
	for _, row := range rows[:100] {
		if row.Type != "cell" || row.Cell == nil {
			t.Fatalf("bad cell row: %+v", row)
		}
		if !row.Cell.OK || row.Cell.Result == nil || row.Cell.Result.Bounds == nil {
			t.Fatalf("cell %d did not produce bounds: %+v", row.Cell.Index, row.Cell)
		}
		cells++
	}
	last := rows[100]
	if last.Type != "summary" || last.Summary == nil {
		t.Fatalf("last row is not the summary: %+v", last)
	}
	if s := last.Summary; s.TotalCells != 100 || s.Completed != 100 || s.Failed != 0 || len(s.Cells) != 0 {
		t.Errorf("bad summary: %+v", last.Summary)
	}
}

func TestSweepBadSpecs(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	cases := map[string]string{
		"malformed json": `{"protocols":`,
		"unknown kind":   `{"protocols":[{"spec":"flock:3"}],"kinds":["zzz"]}`,
		"unknown field":  `{"protcols":[{"spec":"flock:3"}],"kinds":["stable"]}`,
		"cap overflow":   `{"protocols":[{"spec":"flock:{N}"}],"params":[{"from":1,"to":999}],"kinds":["stable"],"maxCells":10}`,
		"empty grid":     `{"protocols":[],"kinds":["stable"]}`,
	}
	for name, spec := range cases {
		rec, _ := sweepRows(t, h, spec)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body)
		}
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body missing: %s", name, rec.Body)
		}
	}
}

// flushCountingWriter is a ResponseWriter that signals each written row, so
// a test can react to streaming progress deterministically, and counts the
// flushes it is asked for.
type flushCountingWriter struct {
	mu      sync.Mutex
	header  http.Header
	rows    int
	flushes int
	notify  chan struct{}
}

func (w *flushCountingWriter) Header() http.Header { return w.header }
func (w *flushCountingWriter) WriteHeader(int)     {}
func (w *flushCountingWriter) Flush() {
	w.mu.Lock()
	w.flushes++
	w.mu.Unlock()
}
func (w *flushCountingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.rows += bytes.Count(p, []byte("\n"))
	w.mu.Unlock()
	select {
	case w.notify <- struct{}{}:
	default:
	}
	return len(p), nil
}
func (w *flushCountingWriter) writtenRows() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rows
}
func (w *flushCountingWriter) flushCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushes
}

// TestSweepClientDisconnectCancels: cancelling the request context after
// the first streamed row (what a dropped connection does) must stop the
// sweep: in-flight cells are interrupted and the rest never run.
func TestSweepClientDisconnectCancels(t *testing.T) {
	h := NewHandler(engine.New(), Options{})
	// 60 cells of a protocol that never converges, each burning a fixed
	// multi-million-interaction budget: un-cancelled, this sweep would run
	// for minutes.
	spec := `{
	  "name": "disconnect",
	  "protocols": [{"inline": {
	    "name": "spinner",
	    "states": [{"name": "a", "output": 0}, {"name": "b", "output": 1}],
	    "transitions": [["a","a","b","b"], ["b","b","a","a"]],
	    "inputs": {"x": "a"},
	    "completeWithIdentity": true
	  }}],
	  "kinds": ["simulate"],
	  "sizes": [100, 101, 102, 103, 104, 105, 106, 107, 108, 109,
	            110, 111, 112, 113, 114, 115, 116, 117, 118, 119,
	            120, 121, 122, 123, 124, 125, 126, 127, 128, 129,
	            130, 131, 132, 133, 134, 135, 136, 137, 138, 139,
	            140, 141, 142, 143, 144, 145, 146, 147, 148, 149,
	            150, 151, 152, 153, 154, 155, 156, 157, 158, 159],
	  "options": {"maxSteps": 5000000, "timeoutMillis": 600000}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewBufferString(spec)).WithContext(ctx)
	w := &flushCountingWriter{header: make(http.Header), notify: make(chan struct{}, 1)}

	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(w, req)
	}()
	// Wait for the first streamed row, then "disconnect".
	select {
	case <-w.notify:
	case <-time.After(60 * time.Second):
		t.Fatal("no row streamed within 60s")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("handler did not return after client disconnect")
	}
	// Far fewer than the 60 grid cells may have completed (the summary and
	// error rows also count lines, hence the slack).
	if rows := w.writtenRows(); rows >= 30 {
		t.Errorf("%d rows written after early disconnect, want far fewer than 60", rows)
	}
}
