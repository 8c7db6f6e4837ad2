package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/sweep"
)

// TestSweepStreamCoalescesFlushes: rows are flushed on a deadline, not one
// by one. Every flush is armed by a write at least streamFlushDelay before
// it, and the next one only after it, so however slow the host, a sweep
// that took elapsed flushes at most 1 + ⌈elapsed / streamFlushDelay⌉ times.
// Flushing per row would take 22 flushes here: the header and 21 rows.
func TestSweepStreamCoalescesFlushes(t *testing.T) {
	h := NewHandler(engine.New(), Options{SweepWorkers: 1})
	sizes := make([]string, 20)
	for i := range sizes {
		sizes[i] = fmt.Sprint(i + 2)
	}
	spec := `{"name": "coalesce", "protocols": [{"spec": "flock:3"}], "kinds": ["simulate"],
	  "sizes": [` + strings.Join(sizes, ",") + `], "options": {"seed": 7}}`
	w := &flushCountingWriter{header: make(http.Header), notify: make(chan struct{}, 1)}
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(spec))

	start := time.Now()
	h.ServeHTTP(w, req)
	elapsed := time.Since(start)

	if rows := w.writtenRows(); rows != 21 {
		t.Fatalf("%d rows written, want 20 cells + summary", rows)
	}
	bound := 1 + int((elapsed+streamFlushDelay-1)/streamFlushDelay)
	if got := w.flushCount(); got > bound {
		t.Errorf("%d flushes over %v, want ≤ %d (1 + ⌈elapsed / %v⌉)", got, elapsed, bound, streamFlushDelay)
	}
}

// TestSweepRowVisibleDuringSlowCell: a finished row reaches the client
// while a later cell is still running, not only when the sweep ends. The
// second cell is a protocol that never converges, given a step budget it
// cannot exhaust, so it runs until the client hangs up: the first row can
// only arrive before the sweep finishes.
func TestSweepRowVisibleDuringSlowCell(t *testing.T) {
	srv := httptest.NewServer(NewHandler(engine.New(), Options{SweepWorkers: 1}))
	defer srv.Close()
	spec := `{
	  "name": "visible",
	  "protocols": [{"spec": "flock:3"}, {"inline": {
	    "name": "spinner",
	    "states": [{"name": "a", "output": 0}, {"name": "b", "output": 1}],
	    "transitions": [["a","a","b","b"], ["b","b","a","a"]],
	    "inputs": {"x": "a"},
	    "completeWithIdentity": true
	  }}],
	  "kinds": ["simulate"],
	  "sizes": [8],
	  "options": {"seed": 3, "maxSteps": 1000000000000, "timeoutMillis": 600000}
	}`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel() // hangs up, which cancels the spinning cell
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/sweep", bytes.NewBufferString(spec))
	if err != nil {
		t.Fatal(err)
	}
	// The header comes with the first flush, so both the response and its
	// first row are awaited under the same deadline.
	type result struct {
		line []byte
		err  error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			first <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := bufio.NewReader(resp.Body).ReadBytes('\n')
		first <- result{b, err}
	}()
	var row sweep.StreamRow
	select {
	case r := <-first:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if err := json.Unmarshal(r.line, &row); err != nil {
			t.Fatalf("first row %q: %v", r.line, err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("no row reached the client within 60s while the slow cell ran")
	}
	if row.Type != "cell" || row.Cell == nil || row.Cell.Index != 0 || row.Cell.Error != "" {
		t.Fatalf("first row = %+v, want the finished cell 0", row)
	}
}
